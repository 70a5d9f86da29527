/**
 * @file
 * kv-a: YCSB-A (50% get / 50% full-value put, zipfian keys) on a
 * KvStore inside a runtime NvRegion, one application thread.
 *
 * The dirty budget is 2/17.5 of the loaded heap's pages (the paper's
 * 2 GB battery against a 17.5 GB heap), so the write working set is
 * far above it and the fault, epoch re-protect, proactive-copy and
 * flush paths do most of the work without lock contention.  Every
 * get() stamps the record's access time, so reads fault too.
 */

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "suite/runtime_common.hh"
#include "suite/workloads.hh"
#include "common/distributions.hh"
#include "common/rng.hh"
#include "kvstore/kvstore.hh"
#include "pheap/nv_space.hh"
#include "pheap/pheap.hh"
#include "runtime/region.hh"
#include "ycsb/driver.hh"

namespace perfbench
{
namespace
{

using namespace viyojit;

constexpr std::uint64_t kValueBytes = 1000; // 1 KiB allocator class
constexpr double kBudgetShare = 2.0 / 17.5;
constexpr double kUpdateShare = 0.5;

struct KvOp
{
    std::uint32_t key;
    bool update;
};

/** Deterministic value bytes for (key, version). */
void
fillValue(char *out, std::uint64_t seed, std::uint64_t key,
          std::uint32_t version)
{
    std::uint64_t x = (seed + 1) * 0x9e3779b97f4a7c15ULL ^
                      (key + 1) * 0xc2b2ae3d27d4eb4fULL ^
                      (static_cast<std::uint64_t>(version) << 32);
    for (std::uint64_t i = 0; i < kValueBytes; i += 8) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        std::memcpy(out + i, &x, 8);
    }
}

class KvA : public Workload
{
  public:
    explicit KvA(const Options &options)
        : options_(options),
          records_(options.tiny ? 2000 : 40000),
          regionBytes_(options.tiny ? 4_MiB : 64_MiB),
          opCount_(options.tiny ? 4000 : 20000),
          tracer_(records_ + opCount_ + 64),
          value_(kValueBytes),
          expected_(kValueBytes)
    {
        keys_.reserve(records_);
        for (std::uint64_t i = 0; i < records_; ++i)
            keys_.push_back(ycsb::YcsbDriver::keyFor(i));

        Rng rng(options.seed * 0x9e3779b97f4a7c15ULL + 0xa);
        ZipfianDistribution zipf(records_);
        ops_.reserve(opCount_);
        for (std::uint64_t i = 0; i < opCount_; ++i) {
            const auto key = static_cast<std::uint32_t>(
                std::min<std::uint64_t>(zipf.next(rng), records_ - 1));
            ops_.push_back({key, rng.nextDouble() < kUpdateShare});
        }
        updateNs_.reserve(opCount_);
        readNs_.reserve(opCount_);

        // Size the budget from the loaded heap: load the same records
        // into plain memory once (every seed gives the same sizes).
        std::vector<char> plain(regionBytes_);
        pheap::PlainNvSpace space(plain.data(), regionBytes_);
        auto heap = pheap::PersistentHeap::create(space);
        auto store = createStore(heap);
        load(store, nullptr, Tracer::none);
        const std::uint64_t heap_pages =
            (heap.stats().bumpUsed + 4095) / 4096;
        budgetPages_ = std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(
                   static_cast<double>(heap_pages) * kBudgetShare + 0.5));
    }

    RepResult
    rep(const SyscallProbe *probe) override
    {
        RepResult out;
        Tracer *tr = probe ? &tracer_ : nullptr;
        if (tr)
            tracer_.clear();
        runtime::RuntimeConfig cfg;
        cfg.dirtyBudgetPages = budgetPages_;

        const std::string path =
            options_.tmpdir + "/kv-a-" + std::to_string(reps_) + ".img";
        const std::string crash_path = path + ".crash";
        ++reps_;
        std::vector<std::uint32_t> version(records_, 0);

        // Set-up: region creation plus the load phase.
        const std::uint64_t setup_start = nowNs();
        std::unique_ptr<runtime::NvRegion> region;
        std::optional<pheap::PlainNvSpace> space;
        std::optional<pheap::PersistentHeap> heap;
        std::optional<kvstore::KvStore> store;
        {
            ScopedSpan setup(tr, SpanName::benchSetup);
            {
                ScopedSpan s(tr, SpanName::runtimeCreate);
                region = runtime::NvRegion::create(path, regionBytes_, cfg);
            }
            space.emplace(static_cast<char *>(region->base()),
                          region->size());
            {
                ScopedSpan s(tr, SpanName::pheapCreate);
                heap.emplace(pheap::PersistentHeap::create(*space));
            }
            {
                ScopedSpan s(tr, SpanName::kvstoreCreate);
                store.emplace(createStore(*heap));
            }
            ScopedSpan s(tr, SpanName::benchLoad);
            out.failed += load(*store, tr, s.index());
            out.attempted += records_;
        }
        const std::uint64_t setup_end = nowNs();
        out.metrics["setup_s"] = {secondsBetween(setup_start, setup_end),
                                  "s"};
        out.metrics["pheap.bytes_in_use"] = {
            static_cast<double>(heap->stats().bytesInUse), "B"};

        const runtime::RegionStats before = regionStats(*region, tr);
        out.failed += overBudget(before);
        const perfbench_syscall_counts sys_before =
            probe ? probe->read() : perfbench_syscall_counts{};
        if (probe)
            probe->enable(true);

        // Run phase: closed loop over the pre-generated op stream.
        updateNs_.clear();
        readNs_.clear();
        std::uint64_t updates = 0;
        const Rusage ru_before = Rusage::now();
        const std::uint64_t run_start = nowNs();
        {
            ScopedSpan run(tr, SpanName::benchRun);
            for (std::uint64_t i = 0; i < opCount_; ++i) {
                const KvOp op = ops_[i];
                const std::string &key = keys_[op.key];
                if (op.update) {
                    fillValue(value_.data(), options_.seed, op.key,
                              ++version[op.key]);
                    const std::string_view v(value_.data(), kValueBytes);
                    const std::uint64_t t0 = nowNs();
                    bool ok;
                    {
                        ScopedSpan s(tr, SpanName::kvstorePut, i,
                                     run.index());
                        ok = store->put(key, v);
                    }
                    updateNs_.push_back(nowNs() - t0);
                    out.failed += !ok;
                    ++updates;
                } else {
                    const std::uint64_t t0 = nowNs();
                    std::optional<std::string> got;
                    {
                        ScopedSpan s(tr, SpanName::kvstoreGet, i,
                                     run.index());
                        got = store->get(key);
                    }
                    readNs_.push_back(nowNs() - t0);
                    fillValue(expected_.data(), options_.seed, op.key,
                              version[op.key]);
                    out.failed += !got || got->size() != kValueBytes ||
                                  std::memcmp(got->data(), expected_.data(),
                                              kValueBytes) != 0;
                }
            }
        }
        const std::uint64_t run_end = nowNs();
        const Rusage ru_after = Rusage::now();
        out.attempted += opCount_;
        const double run_s = secondsBetween(run_start, run_end);
        out.metrics["ops_per_s"] = {static_cast<double>(opCount_) / run_s,
                                    "1/s"};
        addRusageDelta(out.metrics, ru_before, ru_after);
        addLatency(out.metrics, "update", updateNs_);
        addLatency(out.metrics, "read", readNs_);

        const runtime::RegionStats after = regionStats(*region, tr);
        out.failed += overBudget(after);
        addRegionRunMetrics(out.metrics, before, after, opCount_,
                            updates * kValueBytes);

        // Last gasp: flush the full dirty set, then take the durable
        // image a power cut would leave.  The negative control takes
        // it without flushing.
        const std::vector<std::uint64_t> live = pageHashes(
            region->base(), regionBytes_, region->pageSize());
        cutPower(*region, path, crash_path, options_.negativeControl, tr,
                 out.metrics);
        store.reset();
        heap.reset();
        space.reset();
        region.reset();
        removeBacking(path);

        std::unique_ptr<runtime::NvRegion> recovered = recoverTimed(
            crash_path, cfg, !options_.negativeControl, tr, out.metrics);
        if (probe) {
            probe->enable(false);
            SyscallProbe::addDelta(out.metrics, sys_before, probe->read());
        }
        verify(*recovered, live, version, tr, out);
        recovered.reset();
        removeBacking(crash_path);
        if (probe)
            addSpanSummary(out.metrics, {&tracer_});
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
        // The same op stream on plain memory: the KV/heap self-cost
        // ceiling behind ops_per_s.
        std::vector<char> plain(regionBytes_);
        pheap::PlainNvSpace space(plain.data(), regionBytes_);
        auto heap = pheap::PersistentHeap::create(space);
        auto store = createStore(heap);
        load(store, nullptr, Tracer::none);
        const std::uint64_t start = nowNs();
        for (const KvOp &op : ops_) {
            if (op.update) {
                fillValue(value_.data(), options_.seed, op.key, 1);
                store.put(keys_[op.key],
                          std::string_view(value_.data(), kValueBytes));
            } else {
                store.get(keys_[op.key]);
            }
        }
        out["kvstore.plain_ops_per_s"] = {
            static_cast<double>(opCount_) /
                secondsBetween(start, nowNs()),
            "1/s"};
    }

  private:
    kvstore::KvStore
    createStore(pheap::PersistentHeap &heap) const
    {
        auto store = kvstore::KvStore::create(heap, records_ + records_ / 3);
        // Redis SET semantics: each update allocates a fresh value.
        store.setAllocateOnUpdate(true);
        return store;
    }

    /** Insert every record at version 0; returns failed puts. */
    std::uint64_t
    load(kvstore::KvStore &store, Tracer *tr, std::uint32_t parent)
    {
        std::uint64_t failed = 0;
        for (std::uint64_t i = 0; i < records_; ++i) {
            fillValue(value_.data(), options_.seed, i, 0);
            ScopedSpan s(tr, SpanName::kvstorePut, i, parent);
            failed += !store.put(keys_[i],
                                 std::string_view(value_.data(),
                                                  kValueBytes));
        }
        return failed;
    }

    /**
     * Compare the recovered image page by page with the memory the
     * application saw at the cut (`live`, page hashes).  Only when
     * every page matches is the recovered heap walked: every record
     * must then hold, byte for byte, the version last acknowledged to
     * the application.
     */
    void
    verify(runtime::NvRegion &recovered,
           const std::vector<std::uint64_t> &live,
           const std::vector<std::uint32_t> &version, Tracer *tr,
           RepResult &out)
    {
        ScopedSpan verify(tr, SpanName::benchVerify);
        out.failed += recovered.recoveryReport().quarantined.size();
        const std::uint64_t bad_pages =
            differingPages(recovered.base(), live, recovered.pageSize());
        out.attempted += records_;
        if (bad_pages != 0) {
            out.failed += bad_pages;
            return;
        }

        // get() stamps access metadata, so the walk faults on the
        // recovered region like any application would.
        pheap::PlainNvSpace space(static_cast<char *>(recovered.base()),
                                  regionBytes_);
        auto heap = pheap::PersistentHeap::attach(space);
        auto store = kvstore::KvStore::attach(heap);
        if (store.size() != records_)
            out.failed += 1;
        for (std::uint64_t i = 0; i < records_; ++i) {
            const std::optional<std::string> got = store.get(keys_[i]);
            fillValue(expected_.data(), options_.seed, i, version[i]);
            out.failed += !got || got->size() != kValueBytes ||
                          std::memcmp(got->data(), expected_.data(),
                                      kValueBytes) != 0;
        }
    }

    Options options_;
    std::uint64_t records_;
    std::uint64_t regionBytes_;
    std::uint64_t opCount_;
    std::uint64_t budgetPages_ = 0;
    std::uint64_t reps_ = 0;
    std::vector<std::string> keys_;
    std::vector<KvOp> ops_;
    std::vector<std::uint64_t> updateNs_;
    std::vector<std::uint64_t> readNs_;
    Tracer tracer_;
    std::vector<char> value_;
    std::vector<char> expected_;
};

} // namespace

std::unique_ptr<Workload>
makeKvA(const Options &options)
{
    return std::make_unique<KvA>(options);
}

} // namespace perfbench
