/**
 * @file
 * Coalesced-IO flush-path ablation: per-page proactive copies versus
 * run detection + scatter-gather writeback, across access patterns.
 *
 * The flush path is IOPS-bound on real devices long before it is
 * bandwidth-bound: a 4 KiB page write costs one admission slot no
 * matter how small it is.  Coalescing page-number-adjacent victims
 * into one vectored run amortizes that slot across the run.  How
 * many runs actually form depends on the access pattern and on
 * whether victim selection is locality-aware (extent secondary key):
 *
 *   sequential - victims are naturally adjacent; runs form freely.
 *   zipfian    - a dense hot head plus scattered cold tail; the
 *                extent key regroups same-extent victims that pure
 *                recency order interleaves.
 *   uniform    - victims land anywhere; runs rarely form, and the
 *                coalesced path must cost no more than per-page.
 *
 * Each cell runs the same access stream through the same manager
 * twice (per-page vs coalesced+extent), then drains on simulated
 * battery power.  The measured drain rate feeds the battery sizing
 * loop: DirtyBudgetCalculator::setMeasuredFlushBandwidth rederives
 * the dirty budget and the J/GiB provisioning cost from what the
 * flush path actually achieves, not the nameplate bandwidth.
 * Emits BENCH_io_batching.json; --smoke gates the claims for CI.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "battery/battery.hh"
#include "bench/harness.hh"
#include "common/distributions.hh"
#include "common/rng.hh"
#include "common/table.hh"
#include "common/types.hh"
#include "core/manager.hh"
#include "mmu/mmu.hh"
#include "sim/context.hh"
#include "storage/ssd.hh"

using namespace viyojit;

namespace
{

enum class Pattern
{
    sequential,
    zipfian,
    uniform,
};

const char *
patternName(Pattern p)
{
    switch (p) {
    case Pattern::sequential:
        return "sequential";
    case Pattern::zipfian:
        return "zipfian";
    case Pattern::uniform:
        return "uniform";
    }
    return "?";
}

struct RunConfig
{
    std::uint64_t pages = 4096;
    std::uint64_t budgetPages = 512;
    std::uint64_t accesses = 8 * 4096;
    std::uint64_t pageSize = 4096;
};

struct RunOutcome
{
    Tick streamTicks = 0;
    Tick flushTicks = 0;
    std::uint64_t flushedPages = 0;
    std::uint64_t runSubmits = 0;
    std::uint64_t runPagesCoalesced = 0;
    std::uint64_t runPagesBridged = 0;
    double avgRunPages = 1.0;
    /** Drain rate achieved by the battery flush, bytes/s. */
    double flushBandwidth = 0.0;
    /** Background-scrub work done during the stream (scrub mode). */
    std::uint64_t scrubScanned = 0;
    std::uint64_t scrubSkippedBusy = 0;
    std::uint64_t scrubBudgetSkips = 0;
};

/**
 * Drive one access stream through a manager and drain it on battery.
 * The SSD is tuned to be admission-bound for 4 KiB pages (40 us IOPS
 * gate vs 2 us transfer), which is where coalescing pays.
 */
RunOutcome
runOne(Pattern pattern, bool coalesced, const RunConfig &rc,
       std::uint64_t scrub_pages_per_slice = 0)
{
    sim::SimContext ctx;
    storage::SsdConfig ssd_config;
    ssd_config.writeBandwidth = 2.0e9;
    ssd_config.maxIops = 25000.0;
    ssd_config.perIoLatency = 10_us;
    storage::Ssd ssd(ctx, ssd_config);

    core::ViyojitConfig config;
    config.pageSize = rc.pageSize;
    config.dirtyBudgetPages = rc.budgetPages;
    config.coalesceRuns = coalesced;
    config.maxRunPages = 16;
    config.extentShift = coalesced ? 4 : 0;
    // Bridge up to 8 clean pages per gap: the admission slot (40 us)
    // costs 20x the per-page transfer (2 us), so short gaps are
    // cheaper to write through than to split the run over.
    config.maxBridgePages = coalesced ? 8 : 0;
    // Enough in-flight page credit for several full runs: with the
    // default cap of one run, every completion refills one page and
    // the staging window degenerates to per-page writes.
    config.maxOutstandingIos = 64;
    core::ViyojitManager manager(ctx, ssd, config, mmu::MmuCostModel{},
                                 rc.pages);
    const Addr base = manager.vmmap(rc.pages * rc.pageSize);
    manager.start();

    Rng rng(0x10ba7c4ULL + static_cast<std::uint64_t>(pattern));
    ZipfianDistribution zipf(rc.pages);

    // Scrub cadence: one bounded pass per 1/64th of the stream, the
    // shape the runtime's epoch thread gives it (scrubPagesPerEpoch).
    const std::uint64_t slice =
        scrub_pages_per_slice > 0
            ? std::max<std::uint64_t>(1, rc.accesses / 64)
            : 0;

    RunOutcome out;
    const Tick stream_start = ctx.now();
    for (std::uint64_t i = 0; i < rc.accesses; ++i) {
        PageNum page = 0;
        switch (pattern) {
        case Pattern::sequential:
            page = i % rc.pages;
            break;
        case Pattern::zipfian:
            page = zipf.next(rng);
            break;
        case Pattern::uniform:
            page = rng.nextBounded(rc.pages);
            break;
        }
        manager.write(base + page * rc.pageSize, rc.pageSize);
        if (slice > 0 && (i + 1) % slice == 0) {
            const core::ScrubReport scrub =
                manager.scrubPass(scrub_pages_per_slice);
            out.scrubScanned += scrub.scanned;
            out.scrubSkippedBusy += scrub.skippedBusy;
            out.scrubBudgetSkips += scrub.skippedBudget;
        }
    }

    out.streamTicks = ctx.now() - stream_start;
    const core::IoFaultStats pre = manager.ioFaultStats();
    const std::uint64_t pre_pages = ssd.pageWriteCount();
    const core::FlushReport report = manager.powerFailureFlush();
    out.flushTicks = report.flushDuration;
    out.flushedPages = report.dirtyPagesAtFailure;
    const core::IoFaultStats io = manager.ioFaultStats();
    out.runSubmits = io.runSubmits;
    out.runPagesCoalesced = io.runPagesCoalesced;
    out.runPagesBridged = manager.controller().stats().runPagesBridged;
    // Average pages per device IO over the drain itself, counting
    // the per-page submissions coalescing failed to batch.
    const std::uint64_t drain_pages = ssd.pageWriteCount() - pre_pages;
    const std::uint64_t drain_run_pages =
        io.runPagesCoalesced - pre.runPagesCoalesced;
    const std::uint64_t drain_runs = io.runSubmits - pre.runSubmits;
    const std::uint64_t ios =
        drain_pages - drain_run_pages + drain_runs;
    out.avgRunPages = ios > 0 ? static_cast<double>(drain_pages) /
                                    static_cast<double>(ios)
                              : 1.0;
    if (report.flushDuration > 0)
        out.flushBandwidth =
            static_cast<double>(report.bytesFlushed) /
            ticksToSeconds(report.flushDuration);
    return out;
}

struct Sample
{
    Pattern pattern;
    RunOutcome perPage;
    RunOutcome coalesced;
    double flushSpeedup = 0.0;
    double streamSpeedup = 0.0;
    std::uint64_t budgetPagesNameplate = 0;
    std::uint64_t budgetPagesMeasured = 0;
    double joulesPerGibMeasured = 0.0;
};

} // namespace

int
main(int argc, char **argv)
{
    const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";

    RunConfig rc;
    if (smoke) {
        rc.pages = 1024;
        rc.budgetPages = 128;
        rc.accesses = 16 * rc.pages;
    }

    // Battery sizing context for the re-derivation columns: a 300 W
    // host with a 3 kJ reserve, 0.8 bandwidth safety factor.
    battery::PowerModel power;
    power.cpuWatts = 240.0;
    power.ssdWatts = 20.0;
    power.otherWatts = 40.0;
    const double reserve_joules = 3000.0;

    const unsigned host_cpus = std::thread::hardware_concurrency();
    const std::string git_sha = bench::sourceRevision();

    Table table("Ablation: per-page flush vs coalesced run writeback "
                "(IOPS-bound SSD)");
    table.setHeader({"Pattern", "Flush GB/s pp", "Flush GB/s run",
                     "Avg run", "Flush speedup", "Stream speedup",
                     "Budget pages", "J/GiB"});

    std::vector<Sample> samples;
    for (Pattern pattern : {Pattern::sequential, Pattern::zipfian,
                            Pattern::uniform}) {
        Sample s;
        s.pattern = pattern;
        s.perPage = runOne(pattern, /*coalesced=*/false, rc);
        s.coalesced = runOne(pattern, /*coalesced=*/true, rc);
        s.flushSpeedup =
            s.coalesced.flushBandwidth / s.perPage.flushBandwidth;
        s.streamSpeedup =
            static_cast<double>(s.perPage.streamTicks) /
            static_cast<double>(s.coalesced.streamTicks);

        // Re-derive the dirty budget from the measured drain rate of
        // each mode: the battery covers what the flush path actually
        // sustains, so a faster coalesced drain buys budget pages at
        // the same reserve (and fewer joules per durable GiB).
        battery::DirtyBudgetCalculator calc(power, 2.0e9, 0.8);
        calc.setMeasuredFlushBandwidth(s.perPage.flushBandwidth);
        s.budgetPagesNameplate =
            calc.budgetPages(reserve_joules, rc.pageSize);
        calc.setMeasuredFlushBandwidth(s.coalesced.flushBandwidth);
        s.budgetPagesMeasured =
            calc.budgetPages(reserve_joules, rc.pageSize);
        s.joulesPerGibMeasured =
            calc.requiredJoules(1_GiB);

        samples.push_back(s);
        table.addRow(
            {patternName(pattern),
             Table::fmt(s.perPage.flushBandwidth / 1e9, 3),
             Table::fmt(s.coalesced.flushBandwidth / 1e9, 3),
             Table::fmt(s.coalesced.avgRunPages, 2),
             Table::fmt(s.flushSpeedup, 2) + "x",
             Table::fmt(s.streamSpeedup, 2) + "x",
             std::to_string(s.budgetPagesMeasured),
             Table::fmt(s.joulesPerGibMeasured, 1)});
    }
    // Scrub-overhead cell: the zipfian coalesced run again, with the
    // background scrubber re-verifying durable pages during the
    // stream.  The claim is that verification rides along for (near)
    // free: the budget/busy gates keep it off the flush path, so the
    // drain rate must stay within 5% of the scrub-free run.
    const Sample &zipf_sample = samples[1];
    const RunOutcome scrubbed =
        runOne(Pattern::zipfian, /*coalesced=*/true, rc,
               /*scrub_pages_per_slice=*/64);
    const double scrub_ratio =
        zipf_sample.coalesced.flushBandwidth > 0.0
            ? scrubbed.flushBandwidth /
                  zipf_sample.coalesced.flushBandwidth
            : 0.0;
    table.addRow({"zipfian+scrub",
                  Table::fmt(zipf_sample.coalesced.flushBandwidth /
                             1e9, 3),
                  Table::fmt(scrubbed.flushBandwidth / 1e9, 3),
                  Table::fmt(scrubbed.avgRunPages, 2),
                  Table::fmt(scrub_ratio, 3) + "x", "-", "-",
                  std::to_string(scrubbed.scrubScanned) + " scanned"});
    table.print(std::cout);

    std::ofstream json("BENCH_io_batching.json");
    json << "[\n";
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const Sample &s = samples[i];
        json << "  {\"pattern\": \"" << patternName(s.pattern)
             << "\", \"git_sha\": \"" << git_sha
             << "\", \"host_cpus\": " << host_cpus
             << ", \"pages\": " << rc.pages
             << ", \"budget_pages\": " << rc.budgetPages
             << ", \"accesses\": " << rc.accesses
             << ", \"per_page_flush_ticks\": " << s.perPage.flushTicks
             << ", \"coalesced_flush_ticks\": "
             << s.coalesced.flushTicks
             << ", \"flushed_pages\": " << s.coalesced.flushedPages
             << ", \"run_submits\": " << s.coalesced.runSubmits
             << ", \"run_pages_coalesced\": "
             << s.coalesced.runPagesCoalesced
             << ", \"run_pages_bridged\": "
             << s.coalesced.runPagesBridged
             << ", \"avg_run_pages\": " << s.coalesced.avgRunPages
             << ", \"per_page_flush_gbps\": "
             << s.perPage.flushBandwidth / 1e9
             << ", \"coalesced_flush_gbps\": "
             << s.coalesced.flushBandwidth / 1e9
             << ", \"flush_speedup\": " << s.flushSpeedup
             << ", \"stream_speedup\": " << s.streamSpeedup
             << ", \"derived_budget_pages_per_page\": "
             << s.budgetPagesNameplate
             << ", \"derived_budget_pages_coalesced\": "
             << s.budgetPagesMeasured
             << ", \"joules_per_gib_coalesced\": "
             << s.joulesPerGibMeasured << "},\n";
    }
    json << "  {\"pattern\": \"zipfian_scrub\""
         << ", \"git_sha\": \"" << git_sha << "\""
         << ", \"host_cpus\": " << host_cpus
         << ", \"pages\": " << rc.pages
         << ", \"budget_pages\": " << rc.budgetPages
         << ", \"accesses\": " << rc.accesses
         << ", \"scrub_scanned\": " << scrubbed.scrubScanned
         << ", \"scrub_skipped_busy\": " << scrubbed.scrubSkippedBusy
         << ", \"scrub_budget_skips\": " << scrubbed.scrubBudgetSkips
         << ", \"baseline_flush_gbps\": "
         << zipf_sample.coalesced.flushBandwidth / 1e9
         << ", \"scrub_flush_gbps\": "
         << scrubbed.flushBandwidth / 1e9
         << ", \"scrub_flush_ratio\": " << scrub_ratio << "}\n";
    json << "]\n";
    std::cout << "\nWrote BENCH_io_batching.json\n";

    // The headline claims: coalescing must win big where locality
    // exists, and must never lose where it does not.
    bool ok = true;
    const double seq_bar = smoke ? 3.0 : 4.0;
    const double zipf_bar = smoke ? 1.2 : 1.5;
    const double uniform_bar = smoke ? 0.9 : 0.95;
    for (const Sample &s : samples) {
        double bar = 0.0;
        switch (s.pattern) {
        case Pattern::sequential:
            bar = seq_bar;
            break;
        case Pattern::zipfian:
            bar = zipf_bar;
            break;
        case Pattern::uniform:
            bar = uniform_bar;
            break;
        }
        if (s.flushSpeedup < bar) {
            ok = false;
            std::cout << "FAIL: " << patternName(s.pattern)
                      << " flush speedup " << s.flushSpeedup
                      << "x below the " << bar << "x bar\n";
        }
    }
    std::cout << (ok ? "PASS" : "FAIL")
              << ": coalesced flush >=" << seq_bar
              << "x sequential, >=" << zipf_bar << "x zipfian, >="
              << uniform_bar << "x uniform\n";

    // Scrub gate: background verification costs at most 5% of the
    // zipfian coalesced flush rate, and actually did some scanning.
    const bool scrub_ok = scrub_ratio >= 0.95 &&
                          scrubbed.scrubScanned > 0;
    if (!scrub_ok)
        ok = false;
    std::cout << (scrub_ok ? "PASS" : "FAIL")
              << ": zipfian flush with background scrub at "
              << scrub_ratio << "x of scrub-free (bar 0.95, "
              << scrubbed.scrubScanned << " pages scanned)\n";
    return ok ? 0 : 1;
}
