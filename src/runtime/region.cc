#include "runtime/region.hh"

#include <fcntl.h>
#include <limits.h>
#include <sched.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <unordered_set>

#include "common/checksum.hh"
#include "common/logging.hh"
#include "common/pagezip.hh"
#include "runtime/copier_pool.hh"
#include "runtime/fault_dispatch.hh"
#include "runtime/meta_sidecar.hh"

// ThreadSanitizer cannot see write-protect ordering: a page is always
// write-protected (userfaultfd-wp or mprotect) before its image is
// read for persistence (the protect-before-copy rule), so the
// copier's read of page contents can never race an application
// store — but the synchronization runs through the MMU, which TSan
// does not model.  The persistence read is therefore annotated out.
#if defined(__SANITIZE_THREAD__)
#define VIYOJIT_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define VIYOJIT_TSAN 1
#endif
#endif

#ifdef VIYOJIT_TSAN
extern "C" void AnnotateIgnoreReadsBegin(const char *, int);
extern "C" void AnnotateIgnoreReadsEnd(const char *, int);
#define VIYOJIT_IGNORE_READS_BEGIN() \
    AnnotateIgnoreReadsBegin(__FILE__, __LINE__)
#define VIYOJIT_IGNORE_READS_END() \
    AnnotateIgnoreReadsEnd(__FILE__, __LINE__)
#else
#define VIYOJIT_IGNORE_READS_BEGIN() ((void)0)
#define VIYOJIT_IGNORE_READS_END() ((void)0)
#endif

namespace viyojit::runtime
{

int
fdatasyncWithRetry(int fd, unsigned attempts)
{
    int error = 0;
    for (unsigned attempt = 0; attempt < attempts; ++attempt) {
        if (::fdatasync(fd) == 0)
            return 0;
        error = errno;
        if (error != EINTR && error != EAGAIN)
            return error;
    }
    return error;
}

int
pwriteFullyWithRetry(int fd, const void *buf, std::uint64_t len,
                     std::uint64_t offset, unsigned attempts)
{
    const char *src = static_cast<const char *>(buf);
    std::uint64_t written = 0;
    unsigned failures = 0;
    while (written < len) {
        const ssize_t n =
            ::pwrite(fd, src + written, len - written,
                     static_cast<off_t>(offset + written));
        if (n > 0) {
            written += static_cast<std::uint64_t>(n);
            continue;
        }
        const int error = n < 0 ? errno : EIO;
        if (error != EINTR && error != EAGAIN && n < 0)
            return error;
        if (++failures >= attempts)
            return error;
    }
    return 0;
}

unsigned
advanceIovecs(struct iovec *iov, unsigned iovcnt, std::uint64_t done)
{
    unsigned idx = 0;
    while (idx < iovcnt && done >= iov[idx].iov_len) {
        done -= iov[idx].iov_len;
        ++idx;
    }
    if (idx < iovcnt && done > 0) {
        iov[idx].iov_base =
            static_cast<char *>(iov[idx].iov_base) + done;
        iov[idx].iov_len -= done;
    }
    return idx;
}

int
pwritevFullyWithRetry(int fd, struct iovec *iov, unsigned iovcnt,
                      std::uint64_t offset, unsigned attempts)
{
    unsigned idx = 0;
    unsigned failures = 0;
    while (idx < iovcnt) {
        const unsigned take = std::min<unsigned>(
            iovcnt - idx, static_cast<unsigned>(IOV_MAX));
        const ssize_t n = ::pwritev(fd, iov + idx,
                                    static_cast<int>(take),
                                    static_cast<off_t>(offset));
        if (n > 0) {
            offset += static_cast<std::uint64_t>(n);
            idx += advanceIovecs(iov + idx, take,
                                 static_cast<std::uint64_t>(n));
            continue;
        }
        const int error = n < 0 ? errno : EIO;
        if (error != EINTR && error != EAGAIN && n < 0)
            return error;
        if (++failures >= attempts)
            return error;
    }
    return 0;
}

int
preadFullyWithRetry(int fd, void *buf, std::uint64_t len,
                    std::uint64_t offset, unsigned attempts)
{
    char *dst = static_cast<char *>(buf);
    std::uint64_t done = 0;
    unsigned failures = 0;
    while (done < len) {
        const ssize_t n =
            ::pread(fd, dst + done, len - done,
                    static_cast<off_t>(offset + done));
        if (n > 0) {
            done += static_cast<std::uint64_t>(n);
            continue;
        }
        // n == 0 is EOF short of `len`: the image is shorter than
        // the caller was promised — persistent, but still bounded by
        // the retry budget so a racing ftruncate cannot loop forever.
        const int error = n < 0 ? errno : EIO;
        if (error != EINTR && error != EAGAIN && n < 0)
            return error;
        if (++failures >= attempts)
            return error;
    }
    return 0;
}

/**
 * One page-space shard: a contiguous block of pages with its own
 * controller, writable bitmaps, lock, and IO completion variable.
 * Page numbers inside the backend and controller are SHARD-LOCAL
 * (0 .. pages-1); only write-protect/pwrite translate to global.
 */
struct NvRegion::Shard
{
    unsigned index = 0;
    PageNum firstPage = 0;
    std::uint64_t pages = 0;

    /** Owning region; set before the lock is first acquired. */
    NvRegion *owner = nullptr;

    /**
     * Guards the controller, the backend bitmaps, and IO state.
     * Lock-ordering rule 1: shard locks are peers and nest inside
     * the region retune mutex — declared so the analysis rejects
     * taking the retune mutex while a shard lock is held.
     */
    mutable common::Mutex lock ACQUIRED_AFTER(owner->retuneLock_);

    /** Signalled when a background copy for this shard completes. */
    common::CondVar ioCv;

    std::unique_ptr<ShardBackend> backend PT_GUARDED_BY(lock);
    std::unique_ptr<core::DirtyBudgetController> controller
        PT_GUARDED_BY(lock);

    /**
     * Lock-free view of the controller for its donatable-quota
     * gauge: the steal sweep pre-filters donors through this WITHOUT
     * the shard lock.  The pointer is written once at construction,
     * before the shard is published to the fault dispatcher, and
     * donatableQuotaGauge() is a relaxed atomic load — a stale reading
     * costs one wasted lock acquisition or one skipped donor, never
     * correctness (the authoritative spare is re-read under the
     * donor's lock before quota moves).
     */
    const core::DirtyBudgetController *gaugeView = nullptr;

    /** Fault-path migration/backoff counters, written WITHOUT the
     *  shard lock (the steal sweep and the admission backoff run
     *  lock-free), so they live here as relaxed atomics rather than
     *  in the lock-guarded ControllerStats. */
    std::atomic<std::uint64_t> steals{0};
    std::atomic<std::uint64_t> backoffRetries{0};
    std::atomic<std::uint64_t> starvedFaults{0};
};

/**
 * PagingBackend over the region's WriteProtect and a slice of the
 * backing file.
 *
 * With no copier pool, page copies are performed inline (pwrite) —
 * the "async" interface degenerates to immediate completion, exactly
 * like the pre-sharding runtime.  With copiers, persistPageAsync
 * enqueues a POD job (this backend is the CopierClient); the copier
 * performs the pwrite without the shard lock (the page is
 * write-protected for the duration) and runs the completion under
 * it.  Enqueueing happens on the write-fault admission path, so nothing
 * here may heap-allocate in steady state
 * (`python3 tools/pathlint --contract sigsafe`).
 *
 * The PagingBackend entry points run under the shard lock (the
 * controller is externally synchronized by it), which the REQUIRES
 * annotations below make checkable; the CopierClient entry points
 * run on copier threads and manage the lock themselves.
 */
class NvRegion::ShardBackend : public core::PagingBackend,
                               public CopierClient
{
  public:
    ShardBackend(NvRegion &region, Shard &shard)
        : region_(region),
          shard_(shard),
          writableWords_((shard.pages + 63) / 64, 0),
          summary_((writableWords_.size() + 63) / 64, 0),
          ioPending_(shard.pages, 0)
    {}

    std::uint64_t pageCount() const override { return shard_.pages; }

    std::uint64_t pageSize() const override
    {
        return region_.pageSize_;
    }

    void
    protectPage(PageNum page) REQUIRES(shard_.lock) override
    {
        protectRange(page, 1);
        setWritableBit(page, false);
    }

    void
    unprotectPage(PageNum page) REQUIRES(shard_.lock) override
    {
        region_.wp_.unprotect(pageAddr(page), region_.pageSize_);
        setWritableBit(page, true);
    }

    void
    scanAndClearDirty(bool flush_tlb,
                      FunctionRef<void(PageNum, bool)> visitor)
        REQUIRES(shard_.lock) override
    {
        // Userspace dirty-bit emulation: every epoch re-protects the
        // writable (== written-this-epoch) pages, so the next write
        // faults and refreshes recency.  `flush_tlb` is implicit in
        // the write-protect call (the kernel shoots down stale TLB
        // entries).  Each contiguous run is one call: one span ioctl
        // per epoch was measured slower, because the kernel walks and
        // flushes the whole span (DESIGN.md §5.1).
        (void)flush_tlb;
        // Two-level bitmap walk: only words (and summary words) with
        // a writable page in them are touched, so a mostly-clean
        // shard scans in O(dirty), not O(pages).
        PageNum run_start = invalidPage;
        PageNum run_end = 0;
        for (std::uint64_t s = 0; s < summary_.size(); ++s) {
            std::uint64_t sword = summary_[s];
            if (!sword)
                continue;
            summary_[s] = 0;
            while (sword) {
                const std::uint64_t w =
                    s * 64 + static_cast<unsigned>(
                                 std::countr_zero(sword));
                sword &= sword - 1;
                std::uint64_t word = writableWords_[w];
                writableWords_[w] = 0;
                while (word) {
                    const PageNum p =
                        w * 64 + static_cast<unsigned>(
                                     std::countr_zero(word));
                    word &= word - 1;
                    visitor(p, true);
                    if (run_start != invalidPage && p != run_end) {
                        protectRange(run_start, run_end - run_start);
                        run_start = invalidPage;
                    }
                    if (run_start == invalidPage)
                        run_start = p;
                    run_end = p + 1;
                }
            }
        }
        if (run_start != invalidPage)
            protectRange(run_start, run_end - run_start);
    }

    void
    persistPageAsync(PageNum page) REQUIRES(shard_.lock) override
    {
        if (!region_.copiers_) {
            persistPageBlocking(page);
            if (client_)
                client_->onPersistComplete(page);
            return;
        }
        // Called with the shard lock held; the copier queue lock is
        // a leaf (lock-ordering rule 4).  The job is POD and the
        // queue a preallocated ring: no allocation on this path.
        ioPending_[page] = 1;
        ++outstanding_;
        region_.copiers_->submit(shard_.index,
                                 CopierPool::Job{this, page, 1});
    }

    void
    persistRunAsync(PageNum first, unsigned count)
        REQUIRES(shard_.lock) override
    {
        if (count <= 1) {
            persistPageAsync(first);
            return;
        }
        if (!region_.copiers_) {
            // Inline mode: one vectored write, its group durability
            // barrier, then the per-page completions.
            persistRun(first, count);
            copierSync();
            if (client_)
                for (unsigned i = 0; i < count; ++i)
                    client_->onPersistComplete(first + i);
            return;
        }
        if (region_.copiers_->nearCapacity(shard_.index)) {
            // Backlogged ring: a wide run — and the group sync its
            // batch will pay — would serialize behind the queued
            // jobs.  Degrade to per-page jobs so latency-sensitive
            // submissions keep flowing.
            region_.runFallbacks_.fetch_add(
                1, std::memory_order_relaxed);
            for (unsigned i = 0; i < count; ++i)
                persistPageAsync(first + i);
            return;
        }
        // One ring slot carries the whole run; the controller's
        // outstanding-IO cap counts its pages, so slots-used can
        // never exceed pages-outstanding and the ring cannot
        // overflow.
        for (unsigned i = 0; i < count; ++i)
            ioPending_[first + i] = 1;
        outstanding_ += count;
        region_.copiers_->submit(shard_.index,
                                 CopierPool::Job{this, first, count});
    }

    unsigned
    maxRunPages() const override
    {
        return region_.config_.coalesceRuns
                   ? std::max(region_.config_.maxRunPages, 1u)
                   : 1;
    }

    void
    persistPageBlocking(PageNum page) REQUIRES(shard_.lock) override
    {
        persistRun(page, 1);
    }

    /**
     * Copier phase 1: the device write, no locks held.  This is the
     * ONLY caller of persistCompressed: copier threads run outside
     * signal context, so the codec stays off the write-fault handler's
     * call graph (`python3 tools/pathlint --contract sigsafe`
     * hard-fails if any pagezip symbol becomes reachable from it).
     */
    void
    copierPersist(PageNum first, unsigned count) override
    {
        if (region_.config_.compressFlush)
            persistCompressed(first, count);
        else
            persistRun(first, count);
    }

    /**
     * Group durability barrier for a copier batch that carried a run
     * (also used inline by persistRunAsync).  No locks held.
     */
    void
    copierSync() override
    {
        // The barrier also promotes this batch's commit records (data
        // fdatasync first, then the records: COMMITTED can never
        // outrun its data).
        if (const int error = region_.meta_->commitPending(region_.fd_);
            error != 0)
            fatal("group sync to backing file failed after bounded "
                  "retries: ", std::strerror(error));
    }

    /** Copier phase 2: bookkeeping under the shard lock. */
    void
    copierComplete(PageNum first, unsigned count)
        EXCLUDES(shard_.lock) override
    {
        common::MutexLock guard(shard_.lock);
        for (unsigned i = 0; i < count; ++i)
            ioPending_[first + i] = 0;
        outstanding_ -= count;
        if (client_)
            for (unsigned i = 0; i < count; ++i)
                client_->onPersistComplete(first + i);
        shard_.ioCv.notify_all();
    }

    void
    waitForPersist(PageNum page) REQUIRES(shard_.lock) override
    {
        if (!ioPending_[page])
            return;
        // The wait releases the caller's shard lock while blocked
        // (CondVar adopts the native handle and hands it back).
        shard_.ioCv.wait(shard_.lock, [&]() REQUIRES(shard_.lock) {
            return !ioPending_[page];
        });
    }

    void
    waitForAnyPersist() REQUIRES(shard_.lock) override
    {
        if (outstanding_ == 0)
            return;
        const unsigned snapshot = outstanding_;
        shard_.ioCv.wait(shard_.lock, [&]() REQUIRES(shard_.lock) {
            return outstanding_ < snapshot;
        });
    }

    unsigned
    outstandingIos() const REQUIRES(shard_.lock) override
    {
        return outstanding_;
    }

  private:
    /** Pages per vectored write; wider runs are chunked. */
    static constexpr unsigned kIovChunk = 64;

    /**
     * Raw persist of `count` contiguous shard-local pages from
     * `first`: one pwrite for a single page, otherwise vectored
     * writes.  Commit protocol step 1 runs per page before its data
     * write: the PENDING record (CRC, flush epoch, one run id for the
     * whole call) lands first, so a crash between here and the group
     * sync reads back as a torn flush, never as silent corruption.
     * The pages are write-protected for the whole persist, so the CRC
     * and the write see the same bytes.  The iovec block lives on the
     * stack: the inline paths are reachable from the write-fault
     * admission path, which must not heap-allocate.
     */
    void
    persistRun(PageNum first, unsigned count)
    {
        const std::uint64_t ps = region_.pageSize_;
        const PageNum global_first = shard_.firstPage + first;
        MetaSidecar &meta = *region_.meta_;
        const std::uint64_t run_id =
            region_.nextRunId_.fetch_add(1, std::memory_order_relaxed);
        const std::uint64_t epoch =
            region_.flushEpoch_.load(std::memory_order_relaxed);
        struct iovec iov[kIovChunk];
        for (unsigned done = 0; done < count;) {
            const unsigned n = std::min(count - done, kIovChunk);
            const PageNum g0 = global_first + done;
            VIYOJIT_IGNORE_READS_BEGIN();
            for (unsigned i = 0; i < n; ++i) {
                char *const src = region_.mem_ + (g0 + i) * ps;
                iov[i].iov_base = src;
                iov[i].iov_len = ps;
                meta.recordPage(g0 + i, common::crc32c(src, ps), epoch,
                                run_id);
            }
            writeRaw(g0, iov, n);
            VIYOJIT_IGNORE_READS_END();
            done += n;
        }
        region_.bytesPersisted_.fetch_add(
            static_cast<std::uint64_t>(count) * ps,
            std::memory_order_relaxed);
    }

    /**
     * Write `n` raw page images (already recorded PENDING) to their
     * slots starting at global page `g0`, then mark them written.
     */
    void
    writeRaw(PageNum g0, struct iovec *iov, unsigned n)
    {
        const std::uint64_t ps = region_.pageSize_;
        const int error =
            n == 1 ? pwriteFullyWithRetry(region_.fd_, iov[0].iov_base,
                                          ps, g0 * ps)
                   : pwritevFullyWithRetry(region_.fd_, iov, n,
                                           g0 * ps);
        if (error != 0)
            fatal("page persist to backing file failed after bounded "
                  "retries: ", std::strerror(error));
        for (unsigned i = 0; i < n; ++i)
            region_.meta_->markWritten(g0 + i);
    }

    /**
     * Per-copier-thread codec scratch, sized to pagezipBound(page
     * size) on first use.  thread_local because copier workers from
     * the shared pool can run persists for the same shard
     * concurrently; never touched in signal context.
     */
    std::uint8_t *
    compressScratch()
    {
        static thread_local std::vector<std::uint8_t> scratch;
        const std::size_t bound =
            common::pagezipBound(region_.pageSize_);
        if (scratch.size() < bound)
            scratch.resize(bound);
        return scratch.data();
    }

    /**
     * Compressed persist (copier threads only), same commit protocol
     * as persistRun with the stored length in the PENDING record
     * BEFORE the data write: a crash mid-write reads back as a torn
     * compressed flush, never as silent corruption.  The codec's
     * bypass (pagezipCompress == 0) ships the raw page instead, so
     * incompressible data costs only the size probe.  Bypassed pages
     * still coalesce into vectored stretches; a compressed page
     * breaks the stretch and lands its stream at the page's own slot
     * offset — the slot remainder stays stale, which is fine because
     * recovery reads only storedLen bytes.
     */
    void
    persistCompressed(PageNum first, unsigned count)
    {
        const std::uint64_t ps = region_.pageSize_;
        const PageNum global_first = shard_.firstPage + first;
        MetaSidecar &meta = *region_.meta_;
        const std::uint64_t run_id =
            region_.nextRunId_.fetch_add(1, std::memory_order_relaxed);
        const std::uint64_t epoch =
            region_.flushEpoch_.load(std::memory_order_relaxed);
        std::uint8_t *const scratch = compressScratch();
        struct iovec iov[kIovChunk];
        PageNum raw_first = 0;
        unsigned raw_n = 0;
        const auto flush_raw = [&]() {
            if (raw_n != 0)
                writeRaw(raw_first, iov, raw_n);
            raw_n = 0;
        };
        VIYOJIT_IGNORE_READS_BEGIN();
        for (unsigned i = 0; i < count; ++i) {
            const PageNum g = global_first + i;
            char *const src = region_.mem_ + g * ps;
            const std::uint64_t stored = common::pagezipCompress(
                src, ps, scratch, common::pagezipBound(ps));
            meta.recordPage(g, common::crc32c(src, ps), epoch, run_id,
                            static_cast<std::uint32_t>(stored));
            region_.noteCompressedShip(stored, ps);
            if (stored != 0) {
                flush_raw();
                if (const int error = pwriteFullyWithRetry(
                        region_.fd_, scratch, stored, g * ps);
                    error != 0)
                    fatal("compressed page persist to backing file "
                          "failed after bounded retries: ",
                          std::strerror(error));
                meta.markWritten(g);
                continue;
            }
            if (raw_n == 0)
                raw_first = g;
            iov[raw_n].iov_base = src;
            iov[raw_n].iov_len = ps;
            if (++raw_n == kIovChunk)
                flush_raw();
        }
        flush_raw();
        VIYOJIT_IGNORE_READS_END();
        region_.bytesPersisted_.fetch_add(
            static_cast<std::uint64_t>(count) * ps,
            std::memory_order_relaxed);
    }

    void
    setWritableBit(PageNum page, bool v) REQUIRES(shard_.lock)
    {
        const std::uint64_t w = page / 64;
        const std::uint64_t bit = 1ULL << (page % 64);
        if (v) {
            writableWords_[w] |= bit;
            summary_[w / 64] |= 1ULL << (w % 64);
        } else {
            writableWords_[w] &= ~bit;
            if (writableWords_[w] == 0)
                summary_[w / 64] &= ~(1ULL << (w % 64));
        }
    }

    char *
    pageAddr(PageNum page) const
    {
        return region_.mem_ + (shard_.firstPage + page) * region_.pageSize_;
    }

    void
    protectRange(PageNum first, std::uint64_t pages)
    {
        region_.wp_.protect(pageAddr(first), pages * region_.pageSize_);
    }

    NvRegion &region_;
    Shard &shard_;
    std::vector<std::uint64_t> writableWords_ GUARDED_BY(shard_.lock);
    std::vector<std::uint64_t> summary_ GUARDED_BY(shard_.lock);

    /** Nonzero while a background copy of the page is queued. */
    std::vector<std::uint8_t> ioPending_ GUARDED_BY(shard_.lock);
    unsigned outstanding_ GUARDED_BY(shard_.lock) = 0;
};

NvRegion::NvRegion(const std::string &backing_path, std::uint64_t bytes,
                   const RuntimeConfig &config, bool recover_contents)
    : config_(config)
{
    pageSize_ = static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
    if (config.dirtyBudgetPages == 0)
        fatal("runtime requires a dirty budget of at least one page");
    if (config.compressFlush && config.copierThreads == 0)
        fatal("compressFlush requires copier threads: inline "
              "persists run on the write-fault admission path, which "
              "must never reach the codec");

    const int flags = recover_contents ? O_RDWR : (O_RDWR | O_CREAT |
                                                   O_TRUNC);
    fd_ = ::open(backing_path.c_str(), flags, 0644);
    if (fd_ < 0)
        fatal("cannot open backing file '", backing_path,
              "': ", std::strerror(errno));

    if (recover_contents) {
        struct stat st;
        if (::fstat(fd_, &st) != 0)
            fatal("fstat failed: ", std::strerror(errno));
        bytes_ = static_cast<std::uint64_t>(st.st_size);
        if (bytes_ == 0)
            fatal("backing file is empty; nothing to recover");
    } else {
        bytes_ = (bytes + pageSize_ - 1) / pageSize_ * pageSize_;
        if (::ftruncate(fd_, static_cast<off_t>(bytes_)) != 0)
            fatal("ftruncate failed: ", std::strerror(errno));
    }
    pageCount_ = bytes_ / pageSize_;

    void *mem = ::mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (mem == MAP_FAILED)
        fatal("mmap failed: ", std::strerror(errno));
    mem_ = static_cast<char *>(mem);

    const std::string meta_path = backing_path + ".meta";
    if (!recover_contents) {
        meta_ = MetaSidecar::create(meta_path, pageCount_, pageSize_);
    } else {
        meta_ = MetaSidecar::open(meta_path, pageCount_, pageSize_);
        loadImage();
        if (meta_) {
            recoveryReport_.sidecarFound = true;
            recoveryReport_.badEntries = meta_->badEntries();
            verifyImage();
            // New commits must sort after everything the old
            // incarnation sealed.
            flushEpoch_.store(meta_->lastSealedEpoch() + 1,
                              std::memory_order_relaxed);
            nextRunId_.store(meta_->lastSealedRunId() + 1,
                             std::memory_order_relaxed);
        } else {
            warn("no valid sidecar for '", backing_path,
                 "': legacy image, contents load unverified");
            meta_ = MetaSidecar::create(meta_path, pageCount_,
                                        pageSize_);
        }
    }

    // Fig. 6 step 1: everything starts write-protected and clean.
    // The substrate (userfaultfd-wp or mprotect) is chosen here, once.
    wp_.arm(mem_, bytes_);

    // Shard plan: the page space splits into power-of-two-sized
    // contiguous blocks so shardOf() is a shift.  The last shard may
    // be short.
    const std::uint64_t budget = config.dirtyBudgetPages;
    std::uint64_t desired = config.shards;
    if (desired == 0) {
        const std::uint64_t hw = std::max<std::uint64_t>(
            1, std::thread::hardware_concurrency());
        const std::uint64_t cap = std::min(
            {hw, pageCount_, std::max<std::uint64_t>(1, budget / 2)});
        desired = std::bit_floor(cap);
    }
    if (!std::has_single_bit(desired))
        fatal("shard count must be a power of two");
    std::uint64_t pps = 1;
    while (pps * desired < pageCount_)
        pps *= 2;
    ppsShift_ = static_cast<unsigned>(std::countr_zero(pps));
    const unsigned shard_count =
        static_cast<unsigned>((pageCount_ + pps - 1) / pps);

    const core::BudgetSplit split =
        core::splitBudget(budget, shard_count);
    pool_ = std::make_unique<core::BudgetPool>(budget, split.poolPages);

    core::ViyojitConfig core_config;
    core_config.pageSize = pageSize_;
    core_config.maxOutstandingIos = config.maxOutstandingIos;
    core_config.coalesceRuns = config.coalesceRuns;
    core_config.maxRunPages = config.maxRunPages;
    core_config.extentShift = config.extentShift;
    // Inline persists make the async shed degenerate to the same
    // blocking write, so only regions with copiers shed.
    core_config.shedBlockedEvictions = config.copierThreads > 0;

    if (config.copierThreads > 0) {
        // Ring capacity = the per-shard outstanding-IO cap the
        // controller enforces, so a queue can never overflow and
        // submission never allocates.
        copiers_ = std::make_unique<CopierPool>(
            config.copierThreads, shard_count,
            std::max(config.maxOutstandingIos, 1u));
    }

    shards_.reserve(shard_count);
    for (unsigned i = 0; i < shard_count; ++i) {
        auto shard = std::make_unique<Shard>();
        shard->index = i;
        shard->owner = this;
        shard->firstPage = static_cast<PageNum>(i) * pps;
        shard->pages =
            std::min<std::uint64_t>(pps,
                                    pageCount_ - shard->firstPage);
        shard->backend = std::make_unique<ShardBackend>(*this, *shard);
        // The shard is not yet published (no faults can route here
        // before registerRegion below), but the controller pointer
        // is lock-annotated, so honour the contract — the lock is
        // uncontended.
        common::MutexLock guard(shard->lock);
        shard->controller =
            std::make_unique<core::DirtyBudgetController>(
                *shard->backend, core_config, *pool_, split);
        shard->gaugeView = shard->controller.get();
        shards_.push_back(std::move(shard));
    }

    registerRegion(this, mem_, bytes_);
    if (config.startEpochThread)
        startEpochThread();
}

std::unique_ptr<NvRegion>
NvRegion::create(const std::string &backing_path, std::uint64_t bytes,
                 const RuntimeConfig &config)
{
    return std::unique_ptr<NvRegion>(
        new NvRegion(backing_path, bytes, config, false));
}

std::unique_ptr<NvRegion>
NvRegion::recover(const std::string &backing_path,
                  const RuntimeConfig &config)
{
    return std::unique_ptr<NvRegion>(
        new NvRegion(backing_path, 0, config, true));
}

NvRegion::~NvRegion()
{
    stopEpochThread();
    for (auto &shard : shards_) {
        common::MutexLock guard(shard->lock);
        shard->controller->flushAllDirty();
    }
    // The per-shard flushes waited out every queued copy, so the
    // copier queues are empty; join the workers before tearing down
    // the backends their jobs reference.
    copiers_.reset();
    // Destructor: best effort only — cannot throw, so a sync failure
    // is reported but not escalated.
    if (const int error = meta_->commitPending(fd_); error != 0)
        warn("commit barrier during region teardown failed: ",
             std::strerror(error));
    else if (const int error2 = meta_->seal(
                 flushEpoch_.load(std::memory_order_relaxed),
                 nextRunId_.load(std::memory_order_relaxed));
             error2 != 0)
        warn("sidecar seal during region teardown failed: ",
             std::strerror(error2));
    unregisterRegion(this);
    wp_.close();
    if (mem_)
        ::munmap(mem_, bytes_);
    if (fd_ >= 0)
        ::close(fd_);
}

namespace
{

/** One CPU relax in a spin loop (no syscall, no memory traffic). */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
    asm volatile("yield" ::: "memory");
#else
    asm volatile("" ::: "memory");
#endif
}

/**
 * Capped exponential backoff for fault-path admission retries.  Runs
 * inside the write-fault handler, so only async-signal-safe waits:
 * attempts 0-3 spin on a CPU relax (contention usually resolves in
 * nanoseconds), 4-7 cede the core with sched_yield (useful when the
 * holder is preempted, and the only option on a single-CPU host),
 * and 8+ sleep 1us << (attempt - 8), capped at 256us — long enough
 * for a device write to complete, short enough that a freed quota
 * batch is picked up promptly.
 */
void
faultBackoff(unsigned attempt)
{
    if (attempt < 4) {
        for (unsigned i = 0; i < (16u << attempt); ++i)
            cpuRelax();
        return;
    }
    if (attempt < 8) {
        ::sched_yield();
        return;
    }
    const unsigned shift = std::min(attempt - 8, 8u);
    struct timespec ts = {0, 1000L << shift};
    ::nanosleep(&ts, nullptr);
}

/** Attempt index at which faultBackoff first hits its 256us cap; a
 *  fault still unadmitted after the whole ladder is starving. */
constexpr unsigned kBackoffLadder = 16;

} // namespace

bool
NvRegion::handleFault(void *addr)
{
    const auto a = reinterpret_cast<std::uintptr_t>(addr);
    const auto base = reinterpret_cast<std::uintptr_t>(mem_);
    if (a < base || a >= base + bytes_)
        return false;
    const PageNum page = (a - base) / pageSize_;
    Shard &shard = *shards_[shardOf(page)];
    const PageNum local = page - shard.firstPage;
    // Shards with siblings first try to admit WITHOUT evicting: spare
    // quota idling in the pool or a sibling is free, an eviction
    // costs an SSD write.  Only once a full donor sweep finds no
    // spare does the retry permit a local eviction.  A lone shard has
    // no sibling to steal from, so it may evict at once.
    bool allow_evict = shards_.size() == 1;
    unsigned attempt = 0;
    for (;;) {
        {
            common::MutexLock guard(shard.lock);
            if (shard.controller->onWriteFault(local, allow_evict))
                return true;
        }
        // Quota starved: pull spare quota out of a sibling
        // (lock-ordering rule 3) and retry the fault.  If no sibling
        // had any, fall back to evicting our own coldest page.  The
        // sweep runs on the first retry and then every fourth one:
        // once an immediate steal has failed, surplus usually arrives
        // via the pool (a sibling's boundary donation) or a local
        // eviction completes first, so re-sweeping the gauges every
        // lap just reheats donor cache lines.
        if (attempt % 4 == 0)
            allow_evict = !stealQuotaFor(shard.index);
        else
            allow_evict = true;
        // Capped exponential backoff between retries.  The retry can
        // lose the deposited quota to a racing thread's borrow, so
        // N starving threads on one shard would otherwise convoy —
        // re-sweeping every donor lock per lap (the old bare yield()
        // spin).  Backing off lets the winner finish and keeps the
        // donor locks cool; the cap bounds added fault latency.
        shard.backoffRetries.fetch_add(1, std::memory_order_relaxed);
        if (attempt + 1 == kBackoffLadder)
            shard.starvedFaults.fetch_add(1,
                                          std::memory_order_relaxed);
        faultBackoff(attempt);
        if (attempt < kBackoffLadder)
            ++attempt;
    }
}

bool
NvRegion::stealQuotaFor(unsigned thief)
{
    for (std::size_t step = 1; step < shards_.size(); ++step) {
        const std::size_t di = (thief + step) % shards_.size();
        Shard &donor = *shards_[di];
        // A steal only harvests spare ABOVE a donor's mid watermark
        // (a demand-driven early donation): taking in-band spare
        // would push the donor under its own low watermark, whose
        // compensating refill dries the pool for the next shard —
        // the quota-thrash cascade that made the old scheme take
        // every donor's lock on every starving fault.  The lock-free
        // gauge pre-filters in-band donors without touching their
        // lock; when every sibling is in-band the thief evicts
        // locally instead (cheap now that evictions shed to the
        // copier pipeline).
        if (donor.gaugeView->donatableQuotaGauge() == 0)
            continue;
        common::MutexLock guard(donor.lock);
        // Deposit while still holding the donor lock: quota is then
        // always either inside a shard or in the pool, so a thread
        // holding every shard lock (setDirtyBudget) observes
        // sum(quotas) + pool == total with nothing in transit.
        const std::uint64_t got =
            donor.controller->releaseDonatableQuota();
        if (got) {
            pool_->deposit(got);
            quotaSteals_.fetch_add(1, std::memory_order_relaxed);
            shards_[thief]->steals.fetch_add(
                1, std::memory_order_relaxed);
            return true;
        }
    }
    // Every donor's quota is fully occupied by dirty pages (or the
    // budget is momentarily in transit to another starving shard);
    // let the faulting shard evict locally.  The caller's backoff
    // replaces the bare yield() that used to sit here.
    return false;
}

void
NvRegion::epochTick()
{
    for (auto &shard : shards_) {
        common::MutexLock guard(shard->lock);
        shard->controller->onEpochBoundary();
    }
    flushEpoch_.fetch_add(1, std::memory_order_relaxed);
}

void
NvRegion::loadImage()
{
    constexpr std::uint64_t kChunk = 1ULL << 20;
    for (std::uint64_t off = 0; off < bytes_; off += kChunk) {
        const std::uint64_t n = std::min(kChunk, bytes_ - off);
        if (preadFullyWithRetry(fd_, mem_ + off, n, off) == 0)
            continue;
        // Bulk read failed even with bounded retries: isolate the
        // damage page-by-page instead of killing recovery.  Pages
        // that stay unreadable are zero-filled and quarantined; the
        // rest of the image still loads.
        for (std::uint64_t po = off; po < off + n;
             po += pageSize_) {
            const int error =
                preadFullyWithRetry(fd_, mem_ + po, pageSize_, po);
            if (error == 0)
                continue;
            const PageNum page = po / pageSize_;
            std::memset(mem_ + po, 0, pageSize_);
            recoveryReport_.quarantined.push_back(page);
            warn("recovery: page ", page, " unreadable (",
                 std::strerror(error),
                 "); zero-filled and quarantined");
        }
    }
}

void
NvRegion::verifyImage()
{
    const std::unordered_set<PageNum> unreadable(
        recoveryReport_.quarantined.begin(),
        recoveryReport_.quarantined.end());
    std::vector<char> raw(pageSize_);
    for (PageNum p = 0; p < pageCount_; ++p) {
        if (unreadable.contains(p))
            continue; // already settled as bad by loadImage()
        const core::CommitRecord e = meta_->entry(p);
        if (e.state == core::CommitState::invalid) {
            ++recoveryReport_.unverifiedPages;
            continue;
        }
        // loadImage read the slot into mem_ verbatim; a compressed
        // one verifies in scratch and replaces it decoded.
        char *const slot = mem_ + p * pageSize_;
        if (core::verifySlot(slot, e, pageSize_, raw.data())) {
            if (e.storedLen != 0) {
                std::memcpy(slot, raw.data(), pageSize_);
                ++recoveryReport_.compressedPages;
            }
            ++recoveryReport_.verifiedPages;
            continue;
        }
        const core::MismatchClass cls =
            core::classifyMismatch(e, meta_->lastSealedEpoch());
        recoveryReport_.count(cls);
        recoveryReport_.quarantined.push_back(p);
        warn("recovery: page ", p, " failed checksum verification (",
             core::mismatchClassName(cls), "); quarantined");
    }
}

void
NvRegion::scrubTick(std::uint64_t max_pages)
{
    if (max_pages == 0 || pageCount_ == 0)
        return;
    std::vector<char> buf(pageSize_);
    std::vector<char> raw(pageSize_);
    std::uint64_t scanned = 0;
    for (std::uint64_t step = 0;
         step < pageCount_ && scanned < max_pages; ++step) {
        const PageNum page = scrubCursor_;
        scrubCursor_ = (scrubCursor_ + 1) % pageCount_;
        // Cheap unlocked pre-filter; re-read authoritatively under
        // the shard lock below.
        if (meta_->entry(page).state != core::CommitState::committed)
            continue;
        Shard &shard = *shards_[shardOf(page)];
        const PageNum local = page - shard.firstPage;
        common::MutexLock guard(shard.lock);
        // Budget-aware: stay out of a shard under dirty pressure,
        // and only check settled pages (clean, no IO in flight) so
        // the commit record is the page's current durable truth.
        if (core::scrubShouldYield(*shard.controller) ||
            shard.controller->tracker().isDirty(local) ||
            shard.controller->isInFlight(local)) {
            scrubSkippedBusy_.fetch_add(1,
                                        std::memory_order_relaxed);
            continue;
        }
        const core::CommitRecord e = meta_->entry(page);
        if (e.state != core::CommitState::committed)
            continue;
        ++scanned;
        scrubScanned_.fetch_add(1, std::memory_order_relaxed);
        if (preadFullyWithRetry(fd_, buf.data(), pageSize_,
                                page * pageSize_) == 0 &&
            core::verifySlot(buf.data(), e, pageSize_, raw.data()))
            continue;
        scrubMismatches_.fetch_add(1, std::memory_order_relaxed);
        warn("scrub: durable copy of page ", page,
             " diverged from its commit record; repairing from the "
             "DRAM copy");
        // The page is clean, so DRAM still holds exactly what the
        // commit record described: re-persist and re-commit it.
        core::PagingBackend &pb = *shard.backend;
        pb.persistPageBlocking(local);
        if (const int error = meta_->commitPending(fd_);
            error != 0) {
            warn("scrub: repair commit failed: ",
                 std::strerror(error));
            continue;
        }
        scrubRepaired_.fetch_add(1, std::memory_order_relaxed);
    }
}

std::uint64_t
NvRegion::flushAll()
{
    std::uint64_t flushed = 0;
    for (auto &shard : shards_) {
        common::MutexLock guard(shard->lock);
        flushed += shard->controller->flushAllDirty();
    }
    if (const int error = meta_->commitPending(fd_); error != 0)
        fatal("commit barrier failed after bounded retries: ",
              std::strerror(error));
    // Every dirty page is now durably committed: seal the header so
    // recovery classifies older commits as stable.
    if (const int error = meta_->seal(
            flushEpoch_.load(std::memory_order_relaxed),
            nextRunId_.load(std::memory_order_relaxed));
        error != 0)
        fatal("sidecar seal failed: ", std::strerror(error));
    return flushed;
}

void
NvRegion::setDirtyBudget(std::uint64_t pages)
{
    // Whole-region retune, done INCREMENTALLY — one shard lock at a
    // time, never all at once.  A shrink can block on in-flight
    // copier IO (releaseQuota evicts synchronously, and the cv wait
    // releases only the one lock it adopted), so holding the other
    // shard locks across it would let faulting threads race the
    // redistribution books — and TSan rightly calls the re-acquire a
    // lock-order inversion.
    common::MutexLock retune_guard(retuneLock_);
    core::retuneBudget(
        *pool_, shards_.size(), pages,
        [this](std::size_t i,
               FunctionRef<void(core::DirtyBudgetController &)> fn) {
            Shard &shard = *shards_[i];
            common::MutexLock guard(shard.lock);
            fn(*shard.controller);
        });
}

// The ascending sweep over ALL shard locks is a dynamic lock set the
// static analysis cannot express (see the lock-ordering block in
// region.hh, rule 1); the TSan CI suites cover this function.
RegionStats
NvRegion::stats() const NO_THREAD_SAFETY_ANALYSIS
{
    // Coherent snapshot: all shard locks, ascending.
    std::vector<std::unique_lock<std::mutex>> locks;
    locks.reserve(shards_.size());
    for (auto &shard : shards_)
        locks.emplace_back(shard->lock.native());

    RegionStats out;
    out.shards = shards_.size();
    out.uffdWriteProtect = wp_.uffd();
    out.perShard.resize(shards_.size());
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        const Shard &shard = *shards_[i];
        const core::ControllerStats &cs = shard.controller->stats();
        out.writeFaults += cs.writeFaults;
        out.blockedEvictions += cs.blockedEvictions;
        out.proactiveCopies += cs.proactiveCopies;
        out.quotaBorrowedPages += cs.quotaBorrowedPages;
        out.quotaReturnedPages += cs.quotaReturnedPages;
        out.runSubmits += cs.runSubmits;
        out.runPagesCoalesced += cs.runPagesCoalesced;
        out.watermarkRefills += cs.watermarkRefills;
        out.proactiveDonations += cs.proactiveDonations;
        out.shedEvictions += cs.shedEvictions;
        const std::uint64_t steals =
            shard.steals.load(std::memory_order_relaxed);
        const std::uint64_t backoffs =
            shard.backoffRetries.load(std::memory_order_relaxed);
        out.backoffRetries += backoffs;
        out.starvedFaults +=
            shard.starvedFaults.load(std::memory_order_relaxed);
        out.dirtyPages += shard.controller->tracker().count();
        RegionStats::ShardCounters &ps = out.perShard[i];
        ps.steals = steals;
        ps.watermarkRefills = cs.watermarkRefills;
        ps.proactiveDonations = cs.proactiveDonations;
        ps.backoffRetries = backoffs;
    }
    // Epochs advance in lockstep across shards; report one, not n.
    out.epochs = shards_[0]->controller->stats().epochs;
    out.bytesPersisted =
        bytesPersisted_.load(std::memory_order_relaxed);
    out.quotaSteals = quotaSteals_.load(std::memory_order_relaxed);
    out.runFallbacks = runFallbacks_.load(std::memory_order_relaxed);
    out.scrubScanned = scrubScanned_.load(std::memory_order_relaxed);
    out.scrubSkippedBusy =
        scrubSkippedBusy_.load(std::memory_order_relaxed);
    out.scrubMismatches =
        scrubMismatches_.load(std::memory_order_relaxed);
    out.scrubRepaired =
        scrubRepaired_.load(std::memory_order_relaxed);
    out.metaEntryWriteErrors = meta_->entryWriteErrors();
    out.compressedPersists =
        compressedPersists_.load(std::memory_order_relaxed);
    out.compressBypasses =
        compressBypasses_.load(std::memory_order_relaxed);
    out.storedBytesPersisted =
        storedBytesPersisted_.load(std::memory_order_relaxed);
    out.poolAvailablePages = pool_->available();
    out.dirtyBudgetPages = pool_->totalPages();
    return out;
}

void
NvRegion::startEpochThread()
{
    // acq_rel: the winning exchange must observe a prior stop's
    // teardown and publish this start to a concurrent stop.
    if (epochRunning_.exchange(true, std::memory_order_acq_rel))
        return;
    epochThread_ = std::thread([this]() {
        // The epoch thread takes shard locks and can fault while
        // scrubbing; give it the bounded alt-stack envelope.
        ensureFaultStackForThisThread();
        while (epochRunning_.load(std::memory_order_relaxed)) {
            std::this_thread::sleep_for(
                std::chrono::microseconds(config_.epochMicros));
            if (!epochRunning_.load(std::memory_order_relaxed))
                break;
            // Fan the boundary across shards, one lock at a time.
            for (auto &shard : shards_) {
                common::MutexLock guard(shard->lock);
                shard->controller->onEpochBoundary();
            }
            flushEpoch_.fetch_add(1, std::memory_order_relaxed);
            if (config_.scrubPagesPerEpoch > 0)
                scrubTick(config_.scrubPagesPerEpoch);
        }
    });
}

void
NvRegion::stopEpochThread()
{
    if (!epochRunning_.exchange(false, std::memory_order_acq_rel))
        return;
    if (epochThread_.joinable())
        epochThread_.join();
}

} // namespace viyojit::runtime
