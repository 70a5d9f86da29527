/**
 * @file
 * Real-memory Viyojit runtime (the paper's 1,500-line shared
 * library, section 5), sharded for multi-threaded applications.
 *
 * An NvRegion is an mmap'd area whose pages start write-protected
 * (userfaultfd-wp, or mprotect where the kernel refuses it); the
 * write fault (SIGBUS or SIGSEGV) delivers first writes to the same
 * DirtyBudgetController the simulator uses; a background epoch
 * thread samples update recency; pages are persisted to a backing
 * file with pwrite/fdatasync.
 *
 * Substitution note: the paper reads and clears hardware PTE dirty
 * bits through a kernel module.  Userspace cannot do that portably,
 * so the epoch scan re-write-protects dirty pages instead — a page
 * that faults again before the next scan was "dirty" in that epoch.
 * This preserves the recency signal exactly, at the cost of one
 * extra fault per page per epoch of activity, which is the overhead
 * the paper's MMU discussion (section 5.4) also attributes to
 * software-only implementations.
 *
 * Sharding.  The page space is split into power-of-two-sized
 * contiguous blocks; each shard owns a block with its own controller
 * (dirty tracker, recency buckets, victim selection), its own
 * writable bitmaps, and its own mutex, so threads writing different
 * shards fault, admit, and persist fully in parallel.  The battery's
 * single dirty budget is held in a core::BudgetPool: shards carry a
 * local quota and borrow/return batches through lock-free pool
 * operations, so the durability invariant — summed dirty pages never
 * exceed the battery budget — holds at every instant while the fault
 * fast path touches only its shard's lock.  `shards = 1` (the
 * default) is a one-shard pool on the same path: no sibling to steal
 * from, so a starved fault borrows from the pool or evicts locally.
 *
 * LOCK ORDERING.  Four lock classes exist; deadlock freedom rests on
 * these rules, each encoded as a Clang Thread Safety annotation
 * (common/thread_annotations.hh) so a clang build with
 * `-Wthread-safety -Werror` rejects violations — see DESIGN.md §8
 * for the rule-by-rule annotation map:
 *
 *   1. Shard locks are peers.  No thread acquires a second shard
 *      lock while holding one, with a single exception: the coherent
 *      snapshot (stats()) acquires ALL shard locks in ascending
 *      shard order.  stats() never blocks on IO while holding them,
 *      and since every other thread holds at most one shard lock and
 *      never waits for another, the ascending sweep cannot cycle.
 *      (The dynamic all-shards sweep is beyond the static lock-set
 *      model; stats() is the runtime's one NO_THREAD_SAFETY_ANALYSIS
 *      function, covered by the TSan suites.)  Retunes
 *      (setDirtyBudget()) deliberately do NOT use this exception: a
 *      shrink can wait on copier IO, so it claws quota back one
 *      shard lock at a time under the region retune mutex — taken
 *      before any shard lock, never while holding one, which is
 *      Shard::lock's ACQUIRED_AFTER(owner->retuneLock_).
 *   2. The budget pool is lock-free on the fault path (CAS
 *      borrow/deposit); its retune mutex is taken only by
 *      total-changing operations (grow/confiscate/destroy, each
 *      EXCLUDES(retuneLock_)) and nests inside whatever single
 *      shard lock the caller holds.
 *   3. Cross-shard quota steals lock the donor shard while holding
 *      NO other shard lock: the thief releases its own shard lock,
 *      locks one donor at a time, and deposits the clawed-back quota
 *      into the pool BEFORE unlocking the donor, so quota is never
 *      in transit outside every lock — a thread holding all shard
 *      locks always observes sum(quotas) + pool == total.
 *   4. The copier pool's queue lock is a leaf: submissions happen
 *      under a shard lock (CopierPool::submit EXCLUDES its queue
 *      lock), but copier workers never hold the queue lock while
 *      persisting or completing (completions re-acquire the owning
 *      shard's lock only).
 *
 * Shard state (controller, backend bitmaps, IO bookkeeping) is
 * GUARDED_BY/PT_GUARDED_BY the shard lock.  Condition waits go
 * through common::CondVar, whose wait() REQUIRES the annotated
 * mutex and internally adopts/releases the native handle — the
 * reason the locks wrap plain std::mutex; the runtime deliberately
 * has no recursive locking.
 */

#ifndef VIYOJIT_RUNTIME_REGION_HH
#define VIYOJIT_RUNTIME_REGION_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_annotations.hh"
#include "common/types.hh"
#include "core/budget_pool.hh"
#include "core/config.hh"
#include "core/controller.hh"
#include "core/durable_image.hh"
#include "core/paging_backend.hh"
#include "runtime/write_protect.hh"

struct iovec;

namespace viyojit::runtime
{

class CopierPool;
class MetaSidecar;

/**
 * fdatasync with bounded retry: EINTR/EAGAIN are retried up to
 * `attempts` times; any other errno — or retry exhaustion — is
 * returned to the caller (0 on success).  The runtime escalates a
 * nonzero return to fatal(); tests call this directly to assert the
 * error path.
 */
int fdatasyncWithRetry(int fd, unsigned attempts = 8);

/**
 * pwrite the whole buffer with bounded retry on EINTR/EAGAIN and on
 * short writes.  Returns 0 on success or the last errno (EIO for a
 * persistent short write).
 */
int pwriteFullyWithRetry(int fd, const void *buf, std::uint64_t len,
                         std::uint64_t offset, unsigned attempts = 8);

/**
 * Advance an iovec array past `done` bytes already transferred:
 * fully-consumed leading entries are skipped, and the first partially
 * consumed entry has its base/len adjusted in place.  Returns the
 * index of the first incomplete entry (== `iovcnt` when `done` covers
 * the whole array).  This is the resumption arithmetic of the
 * vectored write path, split out so tests can drive the partial-write
 * cases directly.
 */
unsigned advanceIovecs(struct iovec *iov, unsigned iovcnt,
                       std::uint64_t done);

/**
 * pwritev the whole iovec array with bounded retry on EINTR/EAGAIN
 * and on short writes (resuming mid-array via advanceIovecs), and
 * transparent chunking past the IOV_MAX syscall limit.  The array is
 * clobbered as a side effect of resumption.  Returns 0 on success or
 * the last errno (EIO for a persistent short write) — same contract
 * as pwriteFullyWithRetry.
 */
int pwritevFullyWithRetry(int fd, struct iovec *iov, unsigned iovcnt,
                          std::uint64_t offset, unsigned attempts = 8);

/**
 * pread the whole buffer with bounded retry on EINTR/EAGAIN and on
 * short reads.  Hitting EOF before `len` bytes is an error (EIO):
 * recovery sizes its reads from the file, so a short image means the
 * file shrank or the device lied.  Returns 0 on success or the last
 * errno — the read-side mirror of pwriteFullyWithRetry.
 */
int preadFullyWithRetry(int fd, void *buf, std::uint64_t len,
                        std::uint64_t offset, unsigned attempts = 8);

/** Runtime tunables. */
struct RuntimeConfig
{
    /** Dirty budget in pages (required, >= 1). */
    std::uint64_t dirtyBudgetPages = 0;

    /** Epoch length in host microseconds (paper: 1000). */
    std::uint64_t epochMicros = 1000;

    /** Cap on outstanding page copies per shard (paper: 16). */
    unsigned maxOutstandingIos = 16;

    /** Start the background epoch thread in create()/recover(). */
    bool startEpochThread = true;

    /**
     * Page-space shards (power of two), each with its own
     * controller and lock, all drawing from one budget pool.  1 — the
     * default — is one shard.  0 picks a power of two bounded by the
     * host's hardware concurrency, the page count, and half the dirty
     * budget.  Regions need `dirtyBudgetPages >= shards`.
     */
    unsigned shards = 1;

    /**
     * Background copier threads draining per-shard victim queues.
     * 0 — the default — persists pages inline on the submitting
     * thread (deterministic; matches the pre-sharding runtime).
     * With copiers, a budget-limited fault sheds its eviction to the
     * copier pipeline and blocks only until the first completion
     * (core::ViyojitConfig::shedBlockedEvictions); inline, the async
     * submit would degenerate to the same blocking write.
     */
    unsigned copierThreads = 0;

    /**
     * Coalesce page-number-adjacent victims into one vectored write
     * (pwritev) with a group fdatasync, instead of one pwrite per
     * page.  Mirrors core::ViyojitConfig::coalesceRuns; off by
     * default so existing behaviour is bit-identical.
     */
    bool coalesceRuns = false;

    /** Longest run a single vectored write may carry. */
    unsigned maxRunPages = 16;

    /**
     * log2 pages per extent for locality-aware victim selection
     * (core::ViyojitConfig::extentShift); 0 disables.
     */
    unsigned extentShift = 0;

    /**
     * Pages the background scrubber verifies against the durable
     * image per epoch boundary (epoch thread only; epochTick() never
     * scrubs).  0 — the default — disables scrubbing; tests drive
     * scrubTick() directly.
     */
    std::uint64_t scrubPagesPerEpoch = 0;

    /**
     * Compress page images on the copy-out path (common/pagezip):
     * copier threads compress each victim page, ship the smaller
     * stream to the page's slot in the backing file, and record the
     * stored length in the sidecar commit record so recovery
     * decompresses before verifying the RAW-page CRC (DESIGN.md
     * §11).  Incompressible pages bypass to raw automatically.
     *
     * Requires copierThreads > 0 (inline persists run on the
     * write-fault admission path, which must never reach the codec —
     * `python3 tools/pathlint --contract sigsafe` hard-fails if it
     * does); create() rejects compressFlush without copiers.
     * Fault-path blocking persists (synchronous
     * evictions, scrub repairs) still write raw, which is safe: a
     * raw write covers the whole slot and records storedLen = 0.
     */
    bool compressFlush = false;
};

/** Runtime statistics snapshot (coherent across shards). */
struct RegionStats
{
    std::uint64_t writeFaults = 0;
    std::uint64_t blockedEvictions = 0;
    std::uint64_t proactiveCopies = 0;
    std::uint64_t epochs = 0;
    std::uint64_t dirtyPages = 0;
    std::uint64_t bytesPersisted = 0;

    /** Shards in the region. */
    std::uint64_t shards = 1;

    /** Write-protect substrate: true = userfaultfd-wp, false = the
     *  mprotect fallback (DESIGN.md §5.1). */
    bool uffdWriteProtect = false;

    /** Quota batches borrowed from / returned to the budget pool. */
    std::uint64_t quotaBorrowedPages = 0;
    std::uint64_t quotaReturnedPages = 0;

    /** Cross-shard quota steals (fault path found the pool dry). */
    std::uint64_t quotaSteals = 0;

    /** Hysteretic quota migration: batched refills taken when spare
     *  quota crossed the low watermark, and proactive donations made
     *  above the high watermark at epoch boundaries.  Healthy
     *  multicore runs migrate through these; steals are the rare
     *  slow path. */
    std::uint64_t watermarkRefills = 0;
    std::uint64_t proactiveDonations = 0;

    /** Budget-limited faults shed to the async copier pipeline
     *  instead of paying a synchronous device write. */
    std::uint64_t shedEvictions = 0;

    /** Fault-path admission retries that entered the capped
     *  exponential backoff, and faults that exhausted a full backoff
     *  ladder without admitting (starvation signal). */
    std::uint64_t backoffRetries = 0;
    std::uint64_t starvedFaults = 0;

    /** Coalesced run IOs submitted and the pages they carried. */
    std::uint64_t runSubmits = 0;
    std::uint64_t runPagesCoalesced = 0;

    /** Runs degraded to per-page jobs by a backlogged copier ring. */
    std::uint64_t runFallbacks = 0;

    /** Unassigned pages in the budget pool. */
    std::uint64_t poolAvailablePages = 0;

    /** The budget pool's total (== battery budget). */
    std::uint64_t dirtyBudgetPages = 0;

    /** Scrub progress: durable pages checked against their commit
     *  records, mismatches found, and repairs (re-persisted from the
     *  still-clean DRAM copy). */
    std::uint64_t scrubScanned = 0;
    std::uint64_t scrubSkippedBusy = 0;
    std::uint64_t scrubMismatches = 0;
    std::uint64_t scrubRepaired = 0;

    /** Sidecar commit-record writes that failed on the flush path
     *  (degrades recovery classification, never durability). */
    std::uint64_t metaEntryWriteErrors = 0;

    /** Copy-out compression (compressFlush): pages shipped as a
     *  pagezip stream, pages the codec bypassed to raw, and the
     *  bytes the compressed path actually put on the wire
     *  (bytesPersisted stays in RAW bytes — the ratio between the
     *  two is the achieved compression). */
    std::uint64_t compressedPersists = 0;
    std::uint64_t compressBypasses = 0;
    std::uint64_t storedBytesPersisted = 0;

    /** Per-shard migration/backoff counters, one entry per shard:
     *  where the aggregates above came from, so a skewed workload's
     *  hot shard is visible instead of averaged away. */
    struct ShardCounters
    {
        std::uint64_t steals = 0;
        std::uint64_t watermarkRefills = 0;
        std::uint64_t proactiveDonations = 0;
        std::uint64_t backoffRetries = 0;
    };
    std::vector<ShardCounters> perShard;
};

/** What recovery found while reloading and verifying the image; the
 *  mismatch counters are classified as in DESIGN.md §10. */
struct RuntimeRecoveryReport : core::MismatchCounts
{
    /** A valid sidecar header was found and used for verification.
     *  False = legacy image: contents load unverified. */
    bool sidecarFound = false;

    /** Pages whose content matched their commit record. */
    std::uint64_t verifiedPages = 0;

    /** Pages with no (valid) commit record — nothing to check. */
    std::uint64_t unverifiedPages = 0;

    /** Sidecar entries whose own CRC failed (torn metadata). */
    std::uint64_t badEntries = 0;

    /** Pages whose durable image was a pagezip stream that decoded
     *  and verified cleanly (a subset of verifiedPages). */
    std::uint64_t compressedPages = 0;

    /**
     * Pages settled as known-bad: unreadable after bounded retries
     * (zero-filled) or failed checksum verification (content kept,
     * but untrustworthy).  The caller must not trust these pages.
     */
    std::vector<PageNum> quarantined;
};

/** A battery-bounded non-volatile memory region over real pages. */
class NvRegion
{
  public:
    /**
     * Create a region of `bytes` backed by `backing_path` (created or
     * truncated).  Memory starts zeroed and clean.
     */
    static std::unique_ptr<NvRegion> create(
        const std::string &backing_path, std::uint64_t bytes,
        const RuntimeConfig &config);

    /**
     * Recover a region from an existing backing file: contents are
     * loaded back into memory and every page starts clean.
     */
    static std::unique_ptr<NvRegion> recover(
        const std::string &backing_path, const RuntimeConfig &config);

    ~NvRegion();

    NvRegion(const NvRegion &) = delete;
    NvRegion &operator=(const NvRegion &) = delete;

    /** Base of the usable memory. */
    void *base() { return mem_; }
    const void *base() const { return mem_; }

    std::uint64_t size() const { return bytes_; }
    std::uint64_t pageCount() const { return pageCount_; }
    std::uint64_t pageSize() const { return pageSize_; }

    /** Shards the page space is split into. */
    unsigned shardCount() const
    {
        return static_cast<unsigned>(shards_.size());
    }

    /** Run one epoch boundary synchronously (tests / manual mode). */
    void epochTick();

    /**
     * Emergency flush: persist every dirty page and fsync.
     * @return pages flushed.
     */
    std::uint64_t flushAll();

    /**
     * Retune the dirty budget at runtime through core::retuneBudget.
     * A shrink proceeds incrementally — one shard lock at a time
     * under the retune mutex, destroying reclaimed quota so the pool
     * total never rises transiently (evicting synchronously where a
     * shard's dirty count no longer fits its shrunken quota).  On
     * return the pool total equals `pages` and the summed dirty count
     * fits it.
     */
    void setDirtyBudget(std::uint64_t pages) EXCLUDES(retuneLock_);

    /**
     * Coherent snapshot across shards.  Acquires every shard lock in
     * ascending order (lock-ordering rule 1's one exception) — a
     * dynamic lock set the static analysis cannot model, so the
     * implementation is NO_THREAD_SAFETY_ANALYSIS; the TSan CI
     * suites cover it.
     */
    RegionStats stats() const;

    /** Handle a fault at `addr` if it belongs to this region. */
    bool handleFault(void *addr);

    /** What recover() found (empty report for create()). */
    const RuntimeRecoveryReport &recoveryReport() const
    {
        return recoveryReport_;
    }

    /**
     * One pass of the background scrubber: verify up to `max_pages`
     * settled (clean, no IO in flight) committed pages against the
     * durable image and re-persist any whose durable copy diverged —
     * repairing silent corruption from the still-clean DRAM copy.
     * Budget-aware: yields per core::scrubShouldYield.  The
     * epoch thread drives this when scrubPagesPerEpoch > 0; tests
     * call it directly.
     */
    void scrubTick(std::uint64_t max_pages);

  private:
    class ShardBackend;
    struct Shard;

    NvRegion(const std::string &backing_path, std::uint64_t bytes,
             const RuntimeConfig &config, bool recover_contents);

    void startEpochThread();
    void stopEpochThread();

    /**
     * Reload the image from the backing file: chunked bulk reads
     * with bounded retry, falling back page-by-page on failure and
     * quarantining (zero-filling) pages that stay unreadable.
     */
    void loadImage();

    /** Verify the reloaded image against the sidecar and classify
     *  mismatches into recoveryReport_. */
    void verifyImage();

    unsigned shardOf(PageNum page) const
    {
        return static_cast<unsigned>(page >> ppsShift_);
    }

    /**
     * Fault-path quota steal for `thief`: called with NO shard lock
     * held; locks one donor shard at a time (lock-ordering rule 3)
     * and moves SPARE quota (slack above a donor's dirty count —
     * never evicting donor pages) into the pool for the thief's
     * retry to borrow.  Returns false when no sibling had any to
     * give, signalling the thief to evict locally instead.
     *
     * With hysteretic watermark migration this is the rare slow
     * path: donors advertise spare above their mid watermark in a
     * lock-free gauge (DirtyBudgetController::donatableQuotaGauge),
     * and the sweep skips donors whose gauge reads zero WITHOUT
     * taking their lock — a stale gauge costs one wasted lock
     * acquisition or one skipped donor, never correctness, because
     * the authoritative value is re-read under the donor's lock
     * before any quota moves.  In-band spare is never stolen (it
     * would cascade into compensating refills); when every sibling
     * is in-band the thief evicts locally instead.
     */
    bool stealQuotaFor(unsigned thief);

    RuntimeConfig config_;
    std::uint64_t pageSize_;
    std::uint64_t pageCount_;
    std::uint64_t bytes_;
    char *mem_ = nullptr;
    int fd_ = -1;

    /** Write-protect substrate over mem_, armed once at construction. */
    WriteProtect wp_;

    /** log2 of pages per shard (shard index = page >> ppsShift_). */
    unsigned ppsShift_ = 0;

    std::vector<std::unique_ptr<Shard>> shards_;

    /** Global battery budget every shard draws its quota from. */
    std::unique_ptr<core::BudgetPool> pool_;

    /** Background copiers; null when copierThreads == 0. */
    std::unique_ptr<CopierPool> copiers_;

    std::thread epochThread_;
    std::atomic<bool> epochRunning_{false};

    std::atomic<std::uint64_t> bytesPersisted_{0};
    std::atomic<std::uint64_t> quotaSteals_{0};
    std::atomic<std::uint64_t> runFallbacks_{0};

    /** Compressed copy-out accounting (copier threads only). */
    std::atomic<std::uint64_t> compressedPersists_{0};
    std::atomic<std::uint64_t> compressBypasses_{0};
    std::atomic<std::uint64_t> storedBytesPersisted_{0};

    /** Record one page shipped by the compressed persist path
     *  (stored == 0 means the codec bypassed to raw). */
    void noteCompressedShip(std::uint64_t stored, std::uint64_t raw)
    {
        if (stored != 0) {
            compressedPersists_.fetch_add(
                1, std::memory_order_relaxed);
            storedBytesPersisted_.fetch_add(
                stored, std::memory_order_relaxed);
        } else {
            compressBypasses_.fetch_add(1,
                                        std::memory_order_relaxed);
            storedBytesPersisted_.fetch_add(
                raw, std::memory_order_relaxed);
        }
    }

    /** Durable commit-record sidecar (`<backing>.meta`), always
     *  present.  Its fault-path interface is lock-free, so persist
     *  paths use it without extra synchronization. */
    std::unique_ptr<MetaSidecar> meta_;

    RuntimeRecoveryReport recoveryReport_;

    /** Flush epoch stamped into commit records; advances at each
     *  epoch boundary and seeds from the recovered seal. */
    std::atomic<std::uint64_t> flushEpoch_{1};

    /** Id handed to each persist submission (runs share one). */
    std::atomic<std::uint64_t> nextRunId_{1};

    /** Background scrub state (cursor is epoch-thread-only). */
    PageNum scrubCursor_ = 0;
    std::atomic<std::uint64_t> scrubScanned_{0};
    std::atomic<std::uint64_t> scrubSkippedBusy_{0};
    std::atomic<std::uint64_t> scrubMismatches_{0};
    std::atomic<std::uint64_t> scrubRepaired_{0};

    /**
     * Serializes whole-region retunes (lock-ordering rule 1: taken
     * before any shard lock, never while holding one — each shard's
     * lock declares ACQUIRED_AFTER this mutex).
     */
    common::Mutex retuneLock_;
};

} // namespace viyojit::runtime

#endif // VIYOJIT_RUNTIME_REGION_HH
