/**
 * @file
 * mt-b: YCSB-B on raw 1 KiB records in a runtime NvRegion, four
 * application threads each on its own record partition (95% reads
 * that only load, 5% 100-byte field stores, scrambled-zipfian keys),
 * with 4 shards and 2 copier threads.
 *
 * The hot write set mostly fits the 256-page budget, so the fault
 * path under concurrency dominates (mmap_lock in mprotect, shard
 * locks, the budget pool) while flushing stays light; there is no
 * KvStore in the way.
 */

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "suite/runtime_common.hh"
#include "suite/workloads.hh"
#include "common/distributions.hh"
#include "common/rng.hh"
#include "runtime/region.hh"

namespace perfbench
{
namespace
{

using namespace viyojit;

constexpr std::uint64_t kRecordSize = 1024;
constexpr std::uint64_t kFieldSize = 100;
constexpr std::uint64_t kFields = 10;
constexpr std::uint64_t kTailOffset = kFields * kFieldSize;
constexpr char kTailByte = 0x5a;
constexpr double kUpdateShare = 0.05;
constexpr unsigned kThreads = 4;

struct MtOp
{
    std::uint32_t record;
    std::uint8_t field;
    bool update;
};

/** Load-time content of one field: a nonzero seed-derived byte. */
std::uint8_t
initialByte(std::uint64_t seed, std::uint64_t record, std::uint64_t field)
{
    std::uint64_t x = (seed + 1) * 0x9e3779b97f4a7c15ULL ^
                      (record * kFields + field + 1) * 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 31;
    return static_cast<std::uint8_t>(1 + x % 255);
}

/** Next field content: always differs from the current one. */
std::uint8_t
nextByte(std::uint8_t current)
{
    return current == 255 ? 1 : static_cast<std::uint8_t>(current + 1);
}

class MtB : public Workload
{
  public:
    explicit MtB(const Options &options)
        : options_(options),
          records_(options.tiny ? 1024 : 8192),
          budgetPages_(options.tiny ? 64 : 256),
          opsPerThread_(options.tiny ? 5000 : 100000),
          mainTracer_(64)
    {
        const std::uint64_t per = records_ / kThreads;
        for (unsigned t = 0; t < kThreads; ++t) {
            ScrambledZipfianDistribution zipf(per);
            Rng rng(options.seed * 0x9e3779b97f4a7c15ULL + 0xb0 + t);
            std::vector<MtOp> ops;
            ops.reserve(opsPerThread_);
            for (std::uint64_t i = 0; i < opsPerThread_; ++i) {
                const std::uint64_t local =
                    std::min<std::uint64_t>(zipf.next(rng), per - 1);
                const bool update = rng.nextDouble() < kUpdateShare;
                ops.push_back({static_cast<std::uint32_t>(t * per + local),
                               static_cast<std::uint8_t>(
                                   rng.nextBounded(kFields)),
                               update});
            }
            ops_.push_back(std::move(ops));
            // Updates are ~5% of ops; spare room keeps drops rare.
            workerTracers_.push_back(
                std::make_unique<Tracer>(opsPerThread_ / 10 + 64));
            updateNs_[t].reserve(opsPerThread_ / 10 + 64);
            readNs_[t].reserve(opsPerThread_);
        }
        updateNs_[kThreads].reserve(kThreads * (opsPerThread_ / 10 + 64));
        readNs_[kThreads].reserve(kThreads * opsPerThread_);
    }

    RepResult
    rep(const SyscallProbe *probe) override
    {
        RepResult out;
        Tracer *tr = probe ? &mainTracer_ : nullptr;
        if (tr) {
            mainTracer_.clear();
            for (auto &w : workerTracers_)
                w->clear();
        }
        runtime::RuntimeConfig cfg;
        cfg.dirtyBudgetPages = budgetPages_;
        cfg.shards = 4;
        cfg.copierThreads = 2;

        const std::string path =
            options_.tmpdir + "/mt-b-" + std::to_string(reps_) + ".img";
        const std::string crash_path = path + ".crash";
        ++reps_;
        const std::uint64_t bytes = records_ * kRecordSize;
        const std::uint64_t per = records_ / kThreads;
        std::vector<std::uint8_t> shadow(records_ * kFields);

        // Set-up: region creation plus every thread loading its
        // partition.
        const std::uint64_t setup_start = nowNs();
        std::unique_ptr<runtime::NvRegion> region;
        {
            ScopedSpan setup(tr, SpanName::benchSetup);
            {
                ScopedSpan s(tr, SpanName::runtimeCreate);
                region = runtime::NvRegion::create(path, bytes, cfg);
            }
            ScopedSpan s(tr, SpanName::benchLoad);
            char *base = static_cast<char *>(region->base());
            std::vector<std::thread> loaders;
            for (unsigned t = 0; t < kThreads; ++t)
                loaders.emplace_back([&, t] {
                    for (std::uint64_t r = t * per; r < (t + 1) * per; ++r) {
                        char *rec = base + r * kRecordSize;
                        for (std::uint64_t f = 0; f < kFields; ++f) {
                            const std::uint8_t b =
                                initialByte(options_.seed, r, f);
                            std::memset(rec + f * kFieldSize, b, kFieldSize);
                            shadow[r * kFields + f] = b;
                        }
                        std::memset(rec + kTailOffset, kTailByte,
                                    kRecordSize - kTailOffset);
                    }
                });
            for (std::thread &t : loaders)
                t.join();
        }
        out.metrics["setup_s"] = {secondsBetween(setup_start, nowNs()),
                                  "s"};
        out.attempted += records_;

        const runtime::RegionStats before = regionStats(*region, tr);
        out.failed += overBudget(before);
        const perfbench_syscall_counts sys_before =
            probe ? probe->read() : perfbench_syscall_counts{};
        if (probe)
            probe->enable(true);

        // Run phase: four closed-loop threads released together.
        for (unsigned t = 0; t < kThreads; ++t) {
            updateNs_[t].clear();
            readNs_[t].clear();
        }
        std::vector<std::uint64_t> failed(kThreads, 0);
        std::vector<std::uint64_t> updates(kThreads, 0);
        std::atomic<unsigned> ready{0};
        std::atomic<bool> go{false};
        char *base = static_cast<char *>(region->base());
        auto worker = [&](unsigned t) {
            Tracer *wtr = tr ? workerTracers_[t].get() : nullptr;
            ready.fetch_add(1);
            while (!go.load(std::memory_order_acquire))
                std::this_thread::yield();
            ScopedSpan run(wtr, SpanName::benchRun);
            const std::vector<MtOp> &ops = ops_[t];
            for (std::uint64_t i = 0; i < ops.size(); ++i) {
                const MtOp op = ops[i];
                char *rec = base + op.record * kRecordSize;
                if (op.update) {
                    std::uint8_t &slot = shadow[op.record * kFields + op.field];
                    const std::uint8_t b = nextByte(slot);
                    const std::uint64_t t0 = nowNs();
                    {
                        ScopedSpan s(wtr, SpanName::runtimeStore, i,
                                     run.index());
                        std::memset(rec + op.field * kFieldSize, b,
                                    kFieldSize);
                    }
                    updateNs_[t].push_back(nowNs() - t0);
                    slot = b;
                    ++updates[t];
                } else {
                    std::uint8_t got[kFields];
                    const std::uint64_t t0 = nowNs();
                    for (std::uint64_t f = 0; f < kFields; ++f)
                        got[f] = static_cast<std::uint8_t>(
                            rec[f * kFieldSize]);
                    readNs_[t].push_back(nowNs() - t0);
                    failed[t] += std::memcmp(got,
                                             &shadow[op.record * kFields],
                                             kFields) != 0;
                }
            }
        };
        std::vector<std::thread> threads;
        for (unsigned t = 0; t < kThreads; ++t)
            threads.emplace_back(worker, t);
        while (ready.load() < kThreads)
            std::this_thread::yield();
        const Rusage ru_before = Rusage::now();
        const std::uint64_t run_start = nowNs();
        go.store(true, std::memory_order_release);
        for (std::thread &t : threads)
            t.join();
        const std::uint64_t run_end = nowNs();
        const Rusage ru_after = Rusage::now();

        const std::uint64_t total_ops = opsPerThread_ * kThreads;
        std::uint64_t total_updates = 0;
        std::vector<std::uint64_t> &all_updates = updateNs_[kThreads];
        std::vector<std::uint64_t> &all_reads = readNs_[kThreads];
        all_updates.clear();
        all_reads.clear();
        for (unsigned t = 0; t < kThreads; ++t) {
            out.failed += failed[t];
            total_updates += updates[t];
            all_updates.insert(all_updates.end(), updateNs_[t].begin(),
                               updateNs_[t].end());
            all_reads.insert(all_reads.end(), readNs_[t].begin(),
                             readNs_[t].end());
        }
        addLatency(out.metrics, "update", all_updates);
        addLatency(out.metrics, "read", all_reads);
        out.attempted += total_ops;
        out.metrics["ops_per_s"] = {
            static_cast<double>(total_ops) /
                secondsBetween(run_start, run_end),
            "1/s"};
        addRusageDelta(out.metrics, ru_before, ru_after);

        const runtime::RegionStats after = regionStats(*region, tr);
        out.failed += overBudget(after);
        addRegionRunMetrics(out.metrics, before, after, total_ops,
                            total_updates * kFieldSize);

        // Last gasp, crash image and recovery, as in kv-a; raw records
        // are safe to check even when pages differ.
        const std::vector<std::uint64_t> live =
            pageHashes(base, bytes, region->pageSize());
        cutPower(*region, path, crash_path, options_.negativeControl, tr,
                 out.metrics);
        region.reset();
        removeBacking(path);

        std::unique_ptr<runtime::NvRegion> recovered = recoverTimed(
            crash_path, cfg, !options_.negativeControl, tr, out.metrics);
        if (probe) {
            probe->enable(false);
            SyscallProbe::addDelta(out.metrics, sys_before, probe->read());
        }
        {
            ScopedSpan verify(tr, SpanName::benchVerify);
            out.failed += recovered->recoveryReport().quarantined.size();
            const char *image = static_cast<const char *>(recovered->base());
            out.failed += differingPages(image, live, recovered->pageSize());
            out.attempted += records_;
            out.failed += mismatchedRecords(image, shadow);
        }
        recovered.reset();
        removeBacking(crash_path);
        if (probe)
            addSpanSummary(out.metrics, tracers());
        out.metrics["failed_ops"] = {static_cast<double>(out.failed),
                                     "count"};
        return out;
    }

    std::vector<const Tracer *>
    tracers() const override
    {
        std::vector<const Tracer *> all = {&mainTracer_};
        for (const auto &w : workerTracers_)
            all.push_back(w.get());
        return all;
    }

    /** No KvStore runs on mt-b, so there is no self-cost ceiling. */
    void addTracedRunMetrics(Metrics &) override {}

  private:
    /** Records whose bytes differ from the acknowledged contents. */
    std::uint64_t
    mismatchedRecords(const char *image,
                      const std::vector<std::uint8_t> &shadow) const
    {
        char expected[kRecordSize];
        std::memset(expected + kTailOffset, kTailByte,
                    kRecordSize - kTailOffset);
        std::uint64_t bad = 0;
        for (std::uint64_t r = 0; r < records_; ++r) {
            for (std::uint64_t f = 0; f < kFields; ++f)
                std::memset(expected + f * kFieldSize,
                            shadow[r * kFields + f], kFieldSize);
            bad += std::memcmp(image + r * kRecordSize, expected,
                               kRecordSize) != 0;
        }
        return bad;
    }

    Options options_;
    std::uint64_t records_;
    std::uint64_t budgetPages_;
    std::uint64_t opsPerThread_;
    std::uint64_t reps_ = 0;
    std::vector<std::vector<MtOp>> ops_;
    Tracer mainTracer_;
    std::vector<std::unique_ptr<Tracer>> workerTracers_;

    /** Per-thread latency samples, then all threads' at [kThreads];
     *  reserved once so repetitions do not grow the process. */
    std::vector<std::uint64_t> updateNs_[kThreads + 1];
    std::vector<std::uint64_t> readNs_[kThreads + 1];
};

} // namespace

std::unique_ptr<Workload>
makeMtB(const Options &options)
{
    return std::make_unique<MtB>(options);
}

} // namespace perfbench
