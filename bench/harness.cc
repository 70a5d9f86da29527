#include "bench/harness.hh"

#include <cstdio>

#include "common/logging.hh"

namespace viyojit::bench
{

storage::SsdConfig
ExperimentConfig::defaultSsd()
{
    storage::SsdConfig cfg;
    // The paper's device sustains 625 K-IOPS; flush-bandwidth
    // estimates in section 2.2 use ~4 GB/s.  We keep the absolute
    // latencies and scale nothing here: a 4 KiB page still costs a
    // real page's IO time, which is what the fault path blocks on.
    cfg.writeBandwidth = 2.0e9;
    cfg.readBandwidth = 3.0e9;
    cfg.perIoLatency = 60_us;
    cfg.maxIops = 625000.0;
    cfg.queueDepth = 64;
    return cfg;
}

mmu::MmuCostModel
ExperimentConfig::defaultMmuCosts()
{
    mmu::MmuCostModel costs;
    costs.trapCost = 15_us;
    costs.walkCost = 60_ns;
    costs.dirtySetCost = 30_ns;
    costs.protectCost = 400_ns;
    costs.shootdownCost = 500_ns;
    costs.fullFlushCost = 2_us;
    costs.dirtyScanPerPage = 15_ns;
    costs.chargeScanToClock = false;
    return costs;
}

namespace
{

/** First line of a shell command's stdout ("" on any failure). */
std::string
commandLine(const char *command)
{
    FILE *pipe = ::popen(command, "r");
    if (!pipe)
        return "";
    char buf[128] = {};
    std::string line;
    if (std::fgets(buf, sizeof(buf), pipe))
        line = buf;
    const bool ok = ::pclose(pipe) == 0;
    if (!line.empty() && line.back() == '\n')
        line.pop_back();
    return ok ? line : "";
}

} // namespace

std::string
sourceRevision()
{
    const std::string sha =
        commandLine("git rev-parse HEAD 2>/dev/null");
    if (sha.empty())
        return "unknown";
    const bool dirty = !commandLine("git status --porcelain "
                                    "--untracked-files=no 2>/dev/null")
                            .empty();
    return dirty ? sha + "-dirty" : sha;
}

std::uint64_t
recordsForHeap(double heap_paper_gb)
{
    // One record = a 128 B metadata object (dictEntry + robj + sds
    // key) plus a 1 KiB value object, with 8 B block headers on
    // each; buckets and heap metadata add ~4%.
    const std::uint64_t heap_bytes = PaperScale::paperGb(heap_paper_gb);
    return static_cast<std::uint64_t>(
        static_cast<double>(heap_bytes) * 0.96 / 1168.0);
}

ExperimentResult
runExperiment(const ExperimentConfig &config)
{
    sim::SimContext ctx;
    storage::Ssd ssd(ctx, config.ssd);

    core::ViyojitConfig core_cfg;
    core_cfg.pageSize = PaperScale::pageSize;
    core_cfg.enforceBudget = !config.isBaseline();
    core_cfg.dirtyBudgetPages =
        config.isBaseline() ? 0
                            : PaperScale::paperGbPages(
                                  config.budgetPaperGb);
    core_cfg.epochLength = config.epochLength;
    core_cfg.maxOutstandingIos = config.maxOutstandingIos;
    core_cfg.flushTlbOnScan = config.flushTlbOnScan;
    core_cfg.continuousCopyTrigger = config.continuousCopyTrigger;
    core_cfg.hardwareAssist = config.hardwareAssist;
    core_cfg.updateTimeTieBreak = config.updateTimeTieBreak;
    core_cfg.legacyEpochScan = config.legacyEpochScan;

    const std::uint64_t capacity_pages =
        PaperScale::paperGbPages(config.capacityPaperGb);

    core::ViyojitManager manager(ctx, ssd, core_cfg, config.mmuCosts,
                                 capacity_pages);

    // The heap region gets the whole NV-DRAM so workload D's inserts
    // have room to grow past the initial dataset, like the paper's
    // 60 GB NV-DRAM holding a 17.5 GB heap.
    const std::uint64_t region_bytes =
        capacity_pages * PaperScale::pageSize;
    const Addr region = manager.vmmap(region_bytes);
    pheap::SimNvSpace space(manager, region, region_bytes);
    pheap::PersistentHeap heap = pheap::PersistentHeap::create(space);

    const std::uint64_t records = recordsForHeap(config.heapPaperGb);
    kvstore::KvStore store = kvstore::KvStore::create(
        heap, records + records / 3);
    // The paper's Redis allocates a fresh value object per SET.
    store.setAllocateOnUpdate(true);

    ycsb::WorkloadSpec spec = ycsb::standardWorkload(config.workload);
    spec.fieldCount = 10;
    spec.fieldLength = 90; // 900 B values -> 1 KiB allocator class

    ycsb::DriverConfig driver_cfg;
    driver_cfg.recordCount = records;
    driver_cfg.operationCount = config.operationCount;
    driver_cfg.baseOpCost = config.baseOpCost;
    driver_cfg.seed = config.seed;
    driver_cfg.updateWritesFullValue = true;
    // Project the paper-scale request skew onto the scaled records
    // (figure 5: skew sharpens with population size; see DESIGN.md).
    driver_cfg.zipfScaleShift = PaperScale::scaleShift;

    ycsb::YcsbDriver driver(ctx, store, spec, driver_cfg);

    // Epochs run during the load too: Viyojit is a live system, and
    // recency/pressure state must be warm when the run begins.
    manager.start();
    driver.load();

    const std::uint64_t ssd_bytes_before = ssd.bytesWritten();
    const core::ControllerStats stats_before =
        config.isBaseline() ? core::ControllerStats{}
                            : manager.controller().stats();
    ExperimentResult result;
    result.run = driver.run();
    result.records = store.size();
    result.ssdBytesDuringRun = ssd.bytesWritten() - ssd_bytes_before;
    result.dirtyPagesAtEnd = manager.dirtyPageCount();
    if (!config.isBaseline()) {
        // Report run-phase deltas, not load-phase noise.
        const core::ControllerStats &now =
            manager.controller().stats();
        result.controller.writeFaults =
            now.writeFaults - stats_before.writeFaults;
        result.controller.blockedEvictions =
            now.blockedEvictions - stats_before.blockedEvictions;
        result.controller.proactiveCopies =
            now.proactiveCopies - stats_before.proactiveCopies;
        result.controller.inFlightWaits =
            now.inFlightWaits - stats_before.inFlightWaits;
        result.controller.epochs = now.epochs - stats_before.epochs;
    }

    result.finalFlush = manager.powerFailureFlush();
    result.durable = manager.verifyDurability();

    // Fig 9's rate counts run-phase copies plus "writing out the
    // entire heap at the end of the experiment", which the paper
    // notes a baseline system would pay identically — so the tail
    // term is the whole written heap, independent of the budget.
    const double run_seconds = ticksToSeconds(result.run.elapsed);
    if (run_seconds > 0.0) {
        const double total_bytes =
            static_cast<double>(result.ssdBytesDuringRun) +
            static_cast<double>(manager.writtenPageCount() *
                                PaperScale::pageSize);
        result.avgWriteRateMBps = total_bytes / run_seconds / 1.0e6;
    }
    return result;
}

double
throughputOverhead(const ExperimentResult &viyojit,
                   const ExperimentResult &baseline)
{
    VIYOJIT_ASSERT(baseline.run.throughputOpsPerSec > 0,
                   "baseline produced no throughput");
    return (baseline.run.throughputOpsPerSec -
            viyojit.run.throughputOpsPerSec) /
           baseline.run.throughputOpsPerSec;
}

} // namespace viyojit::bench
