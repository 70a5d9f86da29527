/**
 * @file
 * Pieces the two runtime workloads (kv-a, mt-b) share: the crash
 * image, and the runtime.* metrics derived from RegionStats snapshots
 * taken at phase boundaries (stats() takes every shard lock, so it is
 * never called inside a timed loop).
 */

#ifndef PERFBENCH_RUNTIME_COMMON_HH
#define PERFBENCH_RUNTIME_COMMON_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "suite/report.hh"
#include "runtime/region.hh"

namespace perfbench
{

/** Remove a backing file and its sidecar, if present. */
void removeBacking(const std::string &path);

/** One 64-bit content hash per page of [base, base + bytes). */
std::vector<std::uint64_t> pageHashes(const void *base, std::uint64_t bytes,
                                      std::uint64_t page_size);

/** Pages of `base` whose hash differs from `expected`. */
std::uint64_t differingPages(const void *base,
                             const std::vector<std::uint64_t> &expected,
                             std::uint64_t page_size);

/** RegionStats snapshot (takes every shard lock: phase boundaries
 *  only, never inside a timed loop). */
inline viyojit::runtime::RegionStats
regionStats(const viyojit::runtime::NvRegion &region, Tracer *tr)
{
    ScopedSpan s(tr, SpanName::runtimeStats);
    return region.stats();
}

/** True when the snapshot shows more dirty pages than the budget. */
inline bool
overBudget(const viyojit::runtime::RegionStats &stats)
{
    return stats.dirtyPages > stats.dirtyBudgetPages;
}

/**
 * runtime.* run-phase counters (after - before), with the ratios
 * printed beside their bases: faults per op over runtime.run_ops and
 * persisted bytes per user byte over runtime.user_bytes_written.
 */
void addRegionRunMetrics(Metrics &out,
                         const viyojit::runtime::RegionStats &before,
                         const viyojit::runtime::RegionStats &after,
                         std::uint64_t ops, std::uint64_t user_bytes);

/**
 * The power cut: the last-gasp flushAll() on the full dirty set
 * (timed into flush_ms, runtime.flush_pages, runtime.flush_mib_per_s),
 * then the durable image at that instant copied to `crash_path`.  The
 * negative control skips the flush.
 */
void cutPower(viyojit::runtime::NvRegion &region, const std::string &path,
              const std::string &crash_path, bool skip_flush, Tracer *tr,
              Metrics &out);

/**
 * NvRegion::recover() on the crash image, timed into recover_ms with
 * the recovery report's page counts (not recorded for the negative
 * control, whose recovery is not a measurement).
 */
std::unique_ptr<viyojit::runtime::NvRegion>
recoverTimed(const std::string &crash_path,
             const viyojit::runtime::RuntimeConfig &cfg, bool record,
             Tracer *tr, Metrics &out);

} // namespace perfbench

#endif // PERFBENCH_RUNTIME_COMMON_HH
