/**
 * @file
 * Shared experiment harness for the evaluation benches.
 *
 * Assembles the full stack the paper evaluates — SSD model, MMU
 * model, Viyojit manager (or the full-battery baseline), persistent
 * heap, KV store, YCSB driver — runs one experiment, and reports the
 * metrics behind figures 7, 8, 9, and 10.
 *
 * Scaling: quantities are the paper's divided by `scaleShift` powers
 * of two (default 2^10): the 17.5 GB Redis heap becomes 17.5 MiB, a
 * 2 GB dirty budget becomes 2 MiB (512 pages), the 60 GB NV-DRAM
 * becomes 60 MiB.  Every reported comparison is a ratio against the
 * baseline, which the scaling preserves.
 */

#ifndef VIYOJIT_BENCH_HARNESS_HH
#define VIYOJIT_BENCH_HARNESS_HH

#include <cstdint>
#include <memory>
#include <string>

#include "core/failure.hh"
#include "core/manager.hh"
#include "kvstore/kvstore.hh"
#include "mmu/mmu.hh"
#include "pheap/nv_space.hh"
#include "pheap/pheap.hh"
#include "storage/ssd.hh"
#include "ycsb/driver.hh"
#include "ycsb/workload.hh"

namespace viyojit::bench
{

/** Scaled paper quantities. */
struct PaperScale
{
    /** log2 of the downscale factor (10 -> 1/1024). */
    static constexpr unsigned scaleShift = 10;

    /**
     * Tracking page size used by the scaled experiments.  The paper
     * tracks 4 KiB pages over gigabytes; scaling capacities by 2^10
     * while keeping 4 KiB pages would collapse the page population
     * (and with it the page-level Zipf skew the mechanism exploits —
     * the fig-5 effect in reverse).  A 2 KiB tracking page recovers
     * part of that population; EXPERIMENTS.md quantifies the residue.
     */
    static constexpr std::uint64_t pageSize = 2048;

    /** Bytes representing one paper gigabyte after scaling. */
    static constexpr std::uint64_t
    paperGb(double gb)
    {
        return static_cast<std::uint64_t>(
            gb * static_cast<double>(1_GiB >> scaleShift));
    }

    /** Pages representing one paper gigabyte after scaling. */
    static constexpr std::uint64_t
    paperGbPages(double gb)
    {
        return paperGb(gb) / pageSize;
    }
};

/** Full configuration of one experiment run. */
struct ExperimentConfig
{
    /** YCSB workload letter: A, B, C, D, or F. */
    char workload = 'A';

    /**
     * Dirty budget in paper-GB (scaled internally).  0 selects the
     * full-battery NV-DRAM baseline.
     */
    double budgetPaperGb = 2.0;

    /** Initial dataset size in paper-GB (17.5 in the paper). */
    double heapPaperGb = 17.5;

    /** Total NV-DRAM capacity in paper-GB (60 in the paper). */
    double capacityPaperGb = 60.0;

    /** Run-phase operations (paper: 10 M; scaled default 60 K). */
    std::uint64_t operationCount = 60000;

    /** Epoch length (paper: 1 ms). */
    Tick epochLength = 1_ms;

    /** Outstanding-IO cap (paper: 16). */
    unsigned maxOutstandingIos = 16;

    /** TLB flush before dirty scans (false = section 6.3 ablation). */
    bool flushTlbOnScan = true;

    /** Section-5.4 MMU assist instead of write-protection traps. */
    bool hardwareAssist = false;

    /** Update-time tie-break in victim ordering (library default). */
    bool updateTimeTieBreak = true;

    /**
     * Run epoch boundaries on the pre-optimization O(mapped) paths
     * (see core::ViyojitConfig::legacyEpochScan); for A/B checks
     * that the O(dirty) fast paths leave figure results unchanged.
     */
    bool legacyEpochScan = false;

    /**
     * Copy-trigger policy.  False (default here) reproduces the
     * paper's design: proactive copies launch at epoch boundaries
     * and overflow blocks on the SSD — one of the paper's three
     * overhead sources.  True enables this library's extension
     * (threshold-triggered continuous copying); the
     * abl_continuous_copy bench quantifies the difference.
     */
    bool continuousCopyTrigger = false;

    std::uint64_t seed = 42;

    /** Per-op service cost outside NV accesses. */
    Tick baseOpCost = 22_us;

    storage::SsdConfig ssd = defaultSsd();
    mmu::MmuCostModel mmuCosts = defaultMmuCosts();

    /** SSD resembling the paper's Azure device, scaled. */
    static storage::SsdConfig defaultSsd();

    /** MMU costs calibrated to the paper's trap/TLB magnitudes. */
    static mmu::MmuCostModel defaultMmuCosts();

    bool isBaseline() const { return budgetPaperGb <= 0.0; }
};

/** Everything a bench needs to print a figure row. */
struct ExperimentResult
{
    ycsb::RunResult run;

    /** Bytes copied to the SSD during the run phase. */
    std::uint64_t ssdBytesDuringRun = 0;

    /** Fig 9 metric: run-phase copies + final heap flush, averaged
     *  over the run duration, in MB/s of virtual time. */
    double avgWriteRateMBps = 0.0;

    /** Controller stats (zeroed for the baseline). */
    core::ControllerStats controller;

    /** Dirty pages at the end of the run. */
    std::uint64_t dirtyPagesAtEnd = 0;

    /** Report of the final power-failure flush. */
    core::FlushReport finalFlush;

    /** Durability verified after the final flush. */
    bool durable = false;

    std::uint64_t records = 0;
};

/** Run one experiment end to end. */
ExperimentResult runExperiment(const ExperimentConfig &config);

/**
 * Throughput overhead of a Viyojit run vs. a baseline run:
 * (baseline - viyojit) / baseline.
 */
double throughputOverhead(const ExperimentResult &viyojit,
                          const ExperimentResult &baseline);

/** The record count a heap of the given paper-GB holds. */
std::uint64_t recordsForHeap(double heap_paper_gb);

/**
 * Revision stamped into BENCH_*.json rows: the HEAD SHA of the git
 * checkout the bench runs in, with a "-dirty" suffix when tracked
 * files differ from HEAD (the rows then measure HEAD plus that
 * diff), or "unknown" outside a checkout.
 */
std::string sourceRevision();

} // namespace viyojit::bench

#endif // VIYOJIT_BENCH_HARNESS_HH
