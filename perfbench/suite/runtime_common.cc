#include "suite/runtime_common.hh"

#include <algorithm>
#include <cstring>
#include <filesystem>

namespace perfbench
{

namespace
{

/** Copy `path` and its `.meta` sidecar to `crash_path` (+ `.meta`):
 *  the durable image a power cut at this instant would leave. */
void
snapshotCrashImage(const std::string &path, const std::string &crash_path)
{
    namespace fs = std::filesystem;
    fs::copy_file(path, crash_path, fs::copy_options::overwrite_existing);
    if (fs::exists(path + ".meta"))
        fs::copy_file(path + ".meta", crash_path + ".meta",
                      fs::copy_options::overwrite_existing);
}

} // namespace

void
removeBacking(const std::string &path)
{
    std::error_code ignored;
    std::filesystem::remove(path, ignored);
    std::filesystem::remove(path + ".meta", ignored);
}

std::vector<std::uint64_t>
pageHashes(const void *base, std::uint64_t bytes, std::uint64_t page_size)
{
    const char *p = static_cast<const char *>(base);
    std::vector<std::uint64_t> hashes;
    hashes.reserve(bytes / page_size);
    for (std::uint64_t off = 0; off + page_size <= bytes; off += page_size) {
        std::uint64_t h = 0xcbf29ce484222325ULL;
        for (std::uint64_t i = 0; i < page_size; i += 8) {
            std::uint64_t word;
            std::memcpy(&word, p + off + i, 8);
            h = (h ^ word) * 0x100000001b3ULL;
        }
        hashes.push_back(h);
    }
    return hashes;
}

std::uint64_t
differingPages(const void *base, const std::vector<std::uint64_t> &expected,
               std::uint64_t page_size)
{
    const std::vector<std::uint64_t> got =
        pageHashes(base, expected.size() * page_size, page_size);
    std::uint64_t differing = 0;
    for (std::size_t i = 0; i < got.size(); ++i)
        differing += got[i] != expected[i];
    return differing;
}

void
addRegionRunMetrics(Metrics &out,
                    const viyojit::runtime::RegionStats &before,
                    const viyojit::runtime::RegionStats &after,
                    std::uint64_t ops, std::uint64_t user_bytes)
{
    auto count = [&](const char *name, std::uint64_t b, std::uint64_t a) {
        out[name] = {static_cast<double>(a - b), "count"};
    };
    count("runtime.write_faults", before.writeFaults, after.writeFaults);
    count("runtime.epochs", before.epochs, after.epochs);
    count("runtime.blocked_evictions", before.blockedEvictions,
          after.blockedEvictions);
    count("runtime.proactive_copies", before.proactiveCopies,
          after.proactiveCopies);
    count("runtime.quota_steals", before.quotaSteals, after.quotaSteals);
    count("runtime.watermark_refills", before.watermarkRefills,
          after.watermarkRefills);
    count("runtime.shed_evictions", before.shedEvictions,
          after.shedEvictions);
    count("runtime.backoff_retries", before.backoffRetries,
          after.backoffRetries);
    count("runtime.starved_faults", before.starvedFaults,
          after.starvedFaults);
    const double faults =
        static_cast<double>(after.writeFaults - before.writeFaults);
    const double persisted =
        static_cast<double>(after.bytesPersisted - before.bytesPersisted);
    out["runtime.budget_pages"] = {
        static_cast<double>(after.dirtyBudgetPages), "count"};
    out["runtime.bytes_persisted"] = {persisted, "B"};
    out["runtime.run_ops"] = {static_cast<double>(ops), "count"};
    out["runtime.faults_per_op"] = {
        ops ? faults / static_cast<double>(ops) : 0.0, "faults/op"};
    out["runtime.user_bytes_written"] = {static_cast<double>(user_bytes),
                                        "B"};
    out["runtime.persist_bytes_per_user_byte"] = {
        user_bytes ? persisted / static_cast<double>(user_bytes) : 0.0,
        "B/B"};
}

void
cutPower(viyojit::runtime::NvRegion &region, const std::string &path,
         const std::string &crash_path, bool skip_flush, Tracer *tr,
         Metrics &out)
{
    ScopedSpan flush(tr, SpanName::benchFlush);
    if (!skip_flush) {
        const std::uint64_t start = nowNs();
        std::uint64_t pages;
        {
            ScopedSpan s(tr, SpanName::runtimeFlushAll, 0, flush.index());
            pages = region.flushAll();
        }
        const double seconds = secondsBetween(start, nowNs());
        out["flush_ms"] = {seconds * 1e3, "ms"};
        out["runtime.flush_pages"] = {static_cast<double>(pages), "count"};
        const double mib = static_cast<double>(pages * region.pageSize()) /
                           (1024.0 * 1024.0);
        out["runtime.flush_mib_per_s"] = {mib / seconds, "MiB/s"};
    }
    snapshotCrashImage(path, crash_path);
}

std::unique_ptr<viyojit::runtime::NvRegion>
recoverTimed(const std::string &crash_path,
             const viyojit::runtime::RuntimeConfig &cfg, bool record,
             Tracer *tr, Metrics &out)
{
    ScopedSpan span(tr, SpanName::benchRecover);
    const std::uint64_t start = nowNs();
    std::unique_ptr<viyojit::runtime::NvRegion> region;
    {
        ScopedSpan s(tr, SpanName::runtimeRecover, 0, span.index());
        region = viyojit::runtime::NvRegion::recover(crash_path, cfg);
    }
    if (record) {
        const viyojit::runtime::RuntimeRecoveryReport &report =
            region->recoveryReport();
        out["recover_ms"] = {secondsBetween(start, nowNs()) * 1e3, "ms"};
        out["runtime.recover_verified_pages"] = {
            static_cast<double>(report.verifiedPages), "count"};
        out["runtime.recover_quarantined_pages"] = {
            static_cast<double>(report.quarantined.size()), "count"};
    }
    return region;
}

} // namespace perfbench
