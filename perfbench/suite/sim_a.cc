/**
 * @file
 * sim-a: the simulator's Fig 7 row — YCSB-A at a 2 paper-GB dirty
 * budget (11% of the 17.5 paper-GB heap) against the full-battery
 * baseline, default ExperimentConfig scaling, ending in an injected
 * power failure on a battery sized for the budget.
 *
 * It runs core, mmu, storage, sim, pheap, kvstore and ycsb with no
 * syscalls, so a runtime-only change must leave it unchanged.  Its
 * virtual-time results are deterministic for a seed; its wall clock
 * measures the simulator's own speed.
 *
 * bench/harness.cc's runExperiment() assembles the same stack but
 * keeps the SimContext registry and the FailureReport inside, so the
 * Viyojit leg is assembled here the same way; --check-harness
 * requires both to give identical virtual-time results.
 */

#include <iterator>
#include <memory>
#include <vector>

#include "battery/battery.hh"
#include "bench/harness.hh"
#include "suite/workloads.hh"
#include "common/types.hh"
#include "core/failure.hh"
#include "core/manager.hh"
#include "core/safe_mode.hh"
#include "kvstore/kvstore.hh"
#include "pheap/nv_space.hh"
#include "pheap/pheap.hh"
#include "sim/context.hh"
#include "storage/ssd.hh"
#include "ycsb/driver.hh"

namespace perfbench
{
namespace
{

using namespace viyojit;
using bench::ExperimentConfig;
using bench::PaperScale;

/** SimContext registry counters reported as run-phase deltas. */
const char *const kRegistryCounters[] = {
    "mmu.protects",     "mmu.unprotects",  "mmu.dirty_scans",
    "mmu.dirty_scan_pages", "ssd.bytes_written", "ssd.page_writes",
    "ssd.run_writes",   "io.stale_completions",
};

ycsb::WorkloadSpec
workloadSpec()
{
    // As runExperiment(): 900 B values land in the 1 KiB class.
    ycsb::WorkloadSpec spec = ycsb::standardWorkload('A');
    spec.fieldCount = 10;
    spec.fieldLength = 90;
    return spec;
}

ycsb::DriverConfig
driverConfig(const ExperimentConfig &cfg)
{
    ycsb::DriverConfig d;
    d.recordCount = bench::recordsForHeap(cfg.heapPaperGb);
    d.operationCount = cfg.operationCount;
    d.baseOpCost = cfg.baseOpCost;
    d.seed = cfg.seed;
    d.updateWritesFullValue = true;
    d.zipfScaleShift = PaperScale::scaleShift;
    return d;
}

std::uint64_t
regionBytes(const ExperimentConfig &cfg)
{
    return PaperScale::paperGbPages(cfg.capacityPaperGb) *
           PaperScale::pageSize;
}

class SimA : public Workload
{
  public:
    explicit SimA(const Options &options)
        : options_(options), tracer_(64)
    {
        config_.workload = 'A';
        config_.seed = options.seed;
        config_.operationCount = options.tiny ? 20000 : 600000;
        if (options.tiny) {
            config_.heapPaperGb = 2.0;
            config_.budgetPaperGb = 0.25;
            config_.capacityPaperGb = 8.0;
        }
        ExperimentConfig baseline = config_;
        baseline.budgetPaperGb = 0.0;
        baselineOpsPerSec_ =
            bench::runExperiment(baseline).run.throughputOpsPerSec;
        if (options.checkHarness) {
            const bench::ExperimentResult reference =
                bench::runExperiment(config_);
            referenceOpsPerSec_ = reference.run.throughputOpsPerSec;
            referenceFlush_ = reference.finalFlush.flushDuration;
        }
    }

    RepResult
    rep(const SyscallProbe *probe) override
    {
        RepResult out;
        Tracer *tr = probe ? &tracer_ : nullptr;
        if (tr)
            tracer_.clear();

        // Set-up: assemble the stack exactly as runExperiment() does,
        // then load.
        const std::uint64_t setup_start = nowNs();
        std::uint32_t setup_span = Tracer::none;
        if (tr)
            setup_span = tr->begin(SpanName::benchSetup, 0, Tracer::none);
        sim::SimContext ctx;
        storage::Ssd ssd(ctx, config_.ssd);
        core::ViyojitConfig core_cfg;
        core_cfg.pageSize = PaperScale::pageSize;
        core_cfg.enforceBudget = true;
        core_cfg.dirtyBudgetPages =
            PaperScale::paperGbPages(config_.budgetPaperGb);
        core_cfg.epochLength = config_.epochLength;
        core_cfg.maxOutstandingIos = config_.maxOutstandingIos;
        core_cfg.flushTlbOnScan = config_.flushTlbOnScan;
        core_cfg.continuousCopyTrigger = config_.continuousCopyTrigger;
        core_cfg.hardwareAssist = config_.hardwareAssist;
        core_cfg.updateTimeTieBreak = config_.updateTimeTieBreak;
        core_cfg.legacyEpochScan = config_.legacyEpochScan;
        core::ViyojitManager manager(
            ctx, ssd, core_cfg, config_.mmuCosts,
            PaperScale::paperGbPages(config_.capacityPaperGb));
        const std::uint64_t bytes = regionBytes(config_);
        const Addr region = manager.vmmap(bytes);
        pheap::SimNvSpace space(manager, region, bytes);
        pheap::PersistentHeap heap = pheap::PersistentHeap::create(space);
        const ycsb::DriverConfig driver_cfg = driverConfig(config_);
        kvstore::KvStore store = kvstore::KvStore::create(
            heap, driver_cfg.recordCount + driver_cfg.recordCount / 3);
        store.setAllocateOnUpdate(true);
        ycsb::YcsbDriver driver(ctx, store, workloadSpec(), driver_cfg);
        manager.start();
        const std::uint64_t load_start = nowNs();
        {
            ScopedSpan s(tr, SpanName::ycsbLoad, 0, setup_span);
            driver.load();
        }
        const std::uint64_t setup_end = nowNs();
        if (tr)
            tr->end(setup_span);
        out.attempted += driver_cfg.recordCount;
        out.metrics["setup_s"] = {secondsBetween(setup_start, setup_end),
                                  "s"};
        out.metrics["ycsb.load_s"] = {secondsBetween(load_start, setup_end),
                                      "s"};

        std::vector<std::uint64_t> registry_before;
        for (const char *name : kRegistryCounters)
            registry_before.push_back(ctx.stats().counterValue(name));
        const core::ControllerStats ctl_before = manager.controller().stats();
        const perfbench_syscall_counts sys_before =
            probe ? probe->read() : perfbench_syscall_counts{};
        if (probe)
            probe->enable(true);

        const Rusage ru_before = Rusage::now();
        const std::uint64_t run_start = nowNs();
        ycsb::RunResult result;
        {
            ScopedSpan run(tr, SpanName::benchRun);
            ScopedSpan s(tr, SpanName::ycsbRun, 0, run.index());
            result = driver.run();
        }
        const std::uint64_t run_end = nowNs();
        const Rusage ru_after = Rusage::now();
        const double run_s = secondsBetween(run_start, run_end);
        out.attempted += result.operations;
        out.metrics["ops_per_s"] = {
            static_cast<double>(result.operations) / run_s, "1/s"};
        out.metrics["ycsb.run_s"] = {run_s, "s"};
        addRusageDelta(out.metrics, ru_before, ru_after);

        const core::ControllerStats &ctl = manager.controller().stats();
        auto count = [&](const char *name, std::uint64_t value) {
            out.metrics[name] = {static_cast<double>(value), "count"};
        };
        count("core.write_faults", ctl.writeFaults - ctl_before.writeFaults);
        count("core.blocked_evictions",
              ctl.blockedEvictions - ctl_before.blockedEvictions);
        count("core.proactive_copies",
              ctl.proactiveCopies - ctl_before.proactiveCopies);
        count("core.in_flight_waits",
              ctl.inFlightWaits - ctl_before.inFlightWaits);
        count("core.epochs", ctl.epochs - ctl_before.epochs);
        for (std::size_t i = 0; i < std::size(kRegistryCounters); ++i)
            count(kRegistryCounters[i],
                  ctx.stats().counterValue(kRegistryCounters[i]) -
                      registry_before[i]);
        out.metrics["ssd.bytes_written"].unit = "B";
        out.metrics["pheap.bytes_in_use"] = {
            static_cast<double>(heap.stats().bytesInUse), "B"};

        // The durability invariant: never more dirty pages than the
        // budget the battery was sized for.
        out.failed += manager.dirtyPageCount() > core_cfg.dirtyBudgetPages;

        // Virtual time repeats exactly for a seed: across repetitions
        // and, with --check-harness, against runExperiment().
        const double vt = result.throughputOpsPerSec;
        if (firstVtOpsPerSec_ == 0.0)
            firstVtOpsPerSec_ = vt;
        out.failed += vt != firstVtOpsPerSec_;
        if (options_.checkHarness)
            out.failed += vt != referenceOpsPerSec_;
        out.attempted += 1;
        out.metrics["vt_overhead_pct"] = {
            (baselineOpsPerSec_ - vt) / baselineOpsPerSec_ * 100.0, "%"};

        // Last gasp on the smallest battery from which the safe-mode
        // governor would derive this budget: the fixed flush-overhead
        // reserve plus the budget's bytes at the derated bandwidth.
        const battery::PowerModel power;
        const core::SafeModeConfig safe;
        const double window_s =
            ticksToSeconds(safe.flushOverheadReserve) +
            static_cast<double>(core_cfg.dirtyBudgetPages *
                                PaperScale::pageSize) /
                (config_.ssd.writeBandwidth * safe.bandwidthSafetyFactor);
        battery::BatteryConfig battery_cfg;
        battery_cfg.nominalJoules =
            window_s * power.flushWatts() /
            (battery_cfg.chemistryDerate * battery_cfg.depthOfDischarge);
        battery::Battery battery(battery_cfg);
        {
            ScopedSpan flush(tr, SpanName::benchFlush);
            if (options_.negativeControl) {
                out.failed += !manager.verifyDurability();
            } else {
                core::PowerFailureInjector injector(manager, battery, power);
                const std::uint64_t t0 = nowNs();
                core::FailureReport report;
                {
                    ScopedSpan s(tr, SpanName::coreFinalFlush, 0,
                                 flush.index());
                    report = injector.inject();
                }
                const double flush_s = secondsBetween(t0, nowNs());
                out.metrics["flush_ms"] = {flush_s * 1e3, "ms"};
                out.metrics["core.final_flush_s"] = {flush_s, "s"};
                out.metrics["vt_flush_ms"] = {
                    ticksToSeconds(report.flushDuration) * 1e3,
                    "virtual_ms"};
                out.metrics["battery.last_gasp_joules"] = {
                    report.joulesNeeded, "J"};
                out.metrics["battery.joules_available"] = {
                    report.joulesAvailable, "J"};
                out.failed += !report.survived;
                out.failed += !report.contentVerified;
                if (options_.checkHarness)
                    out.failed += report.flushDuration != referenceFlush_;
            }
            out.attempted += 1;
        }

        if (probe) {
            probe->enable(false);
            SyscallProbe::addDelta(out.metrics, sys_before, probe->read());
            addSpanSummary(out.metrics, {&tracer_});
        }
        out.metrics["failed_ops"] = {static_cast<double>(out.failed),
                                     "count"};
        return out;
    }

    std::vector<const Tracer *>
    tracers() const override
    {
        return {&tracer_};
    }

    void
    addTracedRunMetrics(Metrics &out) override
    {
        // The same driver and seed over plain memory: the KV/heap
        // self-cost ceiling behind ops_per_s.
        sim::SimContext ctx;
        const std::uint64_t bytes = regionBytes(config_);
        std::vector<char> memory(bytes);
        pheap::PlainNvSpace space(memory.data(), bytes);
        pheap::PersistentHeap heap = pheap::PersistentHeap::create(space);
        const ycsb::DriverConfig driver_cfg = driverConfig(config_);
        kvstore::KvStore store = kvstore::KvStore::create(
            heap, driver_cfg.recordCount + driver_cfg.recordCount / 3);
        store.setAllocateOnUpdate(true);
        ycsb::YcsbDriver driver(ctx, store, workloadSpec(), driver_cfg);
        driver.load();
        const std::uint64_t start = nowNs();
        const ycsb::RunResult result = driver.run();
        out["kvstore.plain_ops_per_s"] = {
            static_cast<double>(result.operations) /
                secondsBetween(start, nowNs()),
            "1/s"};
    }

  private:
    Options options_;
    ExperimentConfig config_;
    double baselineOpsPerSec_ = 0.0;
    double firstVtOpsPerSec_ = 0.0;
    double referenceOpsPerSec_ = 0.0;
    Tick referenceFlush_ = 0;
    Tracer tracer_;
};

} // namespace

std::unique_ptr<Workload>
makeSimA(const Options &options)
{
    return std::make_unique<SimA>(options);
}

} // namespace perfbench
