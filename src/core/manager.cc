#include "core/manager.hh"

#include <algorithm>
#include <cstring>
#include <deque>

#include "common/checksum.hh"
#include "common/logging.hh"
#include "common/pagezip.hh"

namespace viyojit::core
{

// ---------------------------------------------------------------------
// SimBackend
// ---------------------------------------------------------------------

std::uint64_t
ViyojitManager::SimBackend::pageCount() const
{
    return mgr_.capacityPages_;
}

std::uint64_t
ViyojitManager::SimBackend::pageSize() const
{
    return mgr_.config_.pageSize;
}

void
ViyojitManager::SimBackend::protectPage(PageNum page)
{
    mgr_.mmu_.protectPage(page);
}

void
ViyojitManager::SimBackend::unprotectPage(PageNum page)
{
    mgr_.mmu_.unprotectPage(page);
}

void
ViyojitManager::SimBackend::scanAndClearDirty(
    bool flush_tlb, FunctionRef<void(PageNum, bool)> visitor)
{
    mgr_.mmu_.scanAndClearDirty(0, mgr_.nextFreePage_, flush_tlb,
                                visitor,
                                mgr_.config_.legacyEpochScan);
}

Tick
ViyojitManager::SimBackend::backoffFor(unsigned attempt)
{
    // attempt is 1-based: the first retry waits base, then doubles.
    const Tick base = mgr_.config_.retryBackoffBase;
    const Tick cap = std::max<Tick>(mgr_.config_.retryBackoffCap, base);
    Tick backoff = base;
    for (unsigned i = 1; i < attempt && backoff < cap; ++i)
        backoff *= 2;
    backoff = std::min(backoff, cap);
    // Decorrelating jitter in [0, backoff/2] keeps retry storms from
    // re-synchronizing on the bandwidth channel.
    return backoff + jitterRng_.nextBounded(backoff / 2 + 1);
}

void
ViyojitManager::SimBackend::submitAttempt(PageNum page)
{
    auto it = inFlight_.find(page);
    VIYOJIT_ASSERT(it != inFlight_.end(), "attempt for idle page");
    PendingCopy &io = it->second;

    if (!mgr_.ssd_.canAccept()) {
        // Device queue saturated (retry storm): hold the attempt back
        // one backoff period; completions will free slots.
        const Tick resume =
            mgr_.ctx_.now() + mgr_.config_.retryBackoffBase;
        io.nextEvent = resume;
        const std::uint64_t generation = io.generation;
        mgr_.ctx_.events().schedule(resume, [this, page, generation]() {
            auto held = inFlight_.find(page);
            if (held == inFlight_.end() ||
                held->second.generation != generation)
                return;
            submitAttempt(page);
        });
        return;
    }

    ++io.attempts;
    const std::uint64_t generation = io.generation;
    io.submittedHash = mgr_.pageContentHash(page);
    io.submittedStored = mgr_.measuredStoredSize(page);
    const Tick done = mgr_.ssd_.submitWrite(
        mgr_.key(page), io.submittedHash,
        mgr_.config_.pageSize,
        [this, page, generation](storage::IoStatus status) {
            onAttemptComplete(page, generation, status);
        },
        io.submittedStored);
    io.nextEvent = done;
    io.completion = done;

    // Per-IO timeout: completion times are known at submit in the
    // model, so a blown deadline is detected deterministically.  The
    // host abandons the attempt at the deadline; the straggler's
    // completion is recognized by its stale generation and dropped.
    // Not armed during the power-failure flush: with nothing left to
    // serve, waiting out a straggler always beats abandoning it.
    const Tick timeout = mgr_.config_.ioTimeout;
    if (timeout != 0 && !mgr_.lastGaspFlush_ &&
        done > mgr_.ctx_.now() + timeout) {
        const Tick deadline = mgr_.ctx_.now() + timeout;
        io.nextEvent = deadline;
        mgr_.ctx_.events().schedule(deadline,
                                    [this, page, generation]() {
            onAttemptTimeout(page, generation);
        });
    }
}

void
ViyojitManager::SimBackend::onAttemptComplete(PageNum page,
                                              std::uint64_t generation,
                                              storage::IoStatus status,
                                              bool from_run)
{
    auto it = inFlight_.find(page);
    if (it == inFlight_.end() || it->second.generation != generation) {
        ++faultStats_.staleCompletions;
        mgr_.ctx_.stats().counter("io.stale_completions").increment();
        return;
    }
    if (status == storage::IoStatus::ok) {
        // Read-back verify: an ok status is the device's word; the
        // durable image is the truth.  A silent fault (bit flip,
        // dropped or misdirected write) leaves the image wrong while
        // the status channel stays clean — catch it here and push the
        // page back through the retry chain instead of committing.
        // The expectation is the hash the attempt SUBMITTED: a page
        // redirtied while the copy was in flight still verifies (the
        // old content landed intact) and stays dirty in the tracker.
        if (!mgr_.commitIfDurable(page, it->second.submittedHash,
                                  it->second.submittedStored)) {
            ++faultStats_.verifyFailures;
            mgr_.ctx_.stats().counter("io.verify_failures").increment();
            if (from_run) {
                ++faultStats_.runSplits;
                mgr_.ctx_.stats().counter("io.run_splits").increment();
            }
            retryOrAbort(page);
            return;
        }
        inFlight_.erase(it);
        abortedPages_.erase(page);
        VIYOJIT_ASSERT(client_, "persist completion without client");
        client_->onPersistComplete(page);
        return;
    }
    if (from_run) {
        // The page's slice of a coalesced run failed (bad-page remap
        // or transient error): split it out — retries run through the
        // per-page attempt chain while the rest of the run completes.
        ++faultStats_.runSplits;
        mgr_.ctx_.stats().counter("io.run_splits").increment();
    }
    retryOrAbort(page);
}

void
ViyojitManager::SimBackend::onAttemptTimeout(PageNum page,
                                             std::uint64_t generation)
{
    auto it = inFlight_.find(page);
    if (it == inFlight_.end() || it->second.generation != generation)
        return; // the attempt completed before its deadline
    if (mgr_.lastGaspFlush_) {
        // Deadline armed before the cut: let the attempt run to its
        // real completion instead of abandoning it mid-flush.
        it->second.nextEvent = it->second.completion;
        return;
    }
    ++faultStats_.timeouts;
    mgr_.ctx_.stats().counter("io.timeouts").increment();
    // Invalidate the straggler, then treat the attempt as failed.
    it->second.generation = ++nextGeneration_;
    retryOrAbort(page);
}

void
ViyojitManager::SimBackend::retryOrAbort(PageNum page)
{
    auto it = inFlight_.find(page);
    VIYOJIT_ASSERT(it != inFlight_.end(), "retry for idle page");
    PendingCopy &io = it->second;

    if (io.attempts >= mgr_.config_.maxIoRetries) {
        inFlight_.erase(it);
        abortedPages_.insert(page);
        ++faultStats_.abortedCopies;
        mgr_.ctx_.stats().counter("io.aborted_copies").increment();
        warn("page copy abandoned after ", mgr_.config_.maxIoRetries,
             " attempts (page ", page, "); left dirty");
        VIYOJIT_ASSERT(client_, "persist abort without client");
        client_->onPersistAborted(page);
        return;
    }

    ++faultStats_.retries;
    mgr_.ctx_.stats().counter("io.retries").increment();
    const Tick resume = mgr_.ctx_.now() + backoffFor(io.attempts);
    io.nextEvent = resume;
    io.generation = ++nextGeneration_;
    const std::uint64_t generation = io.generation;
    mgr_.ctx_.events().schedule(resume, [this, page, generation]() {
        auto due = inFlight_.find(page);
        if (due == inFlight_.end() ||
            due->second.generation != generation)
            return;
        submitAttempt(page);
    });
}

void
ViyojitManager::SimBackend::persistPageAsync(PageNum page)
{
    VIYOJIT_ASSERT(!inFlight_.contains(page), "double copy of a page");
    PendingCopy io;
    io.generation = ++nextGeneration_;
    inFlight_.emplace(page, io);
    submitAttempt(page);
}

void
ViyojitManager::SimBackend::persistRunAsync(PageNum first,
                                            unsigned count)
{
    VIYOJIT_ASSERT(count >= 1 && count <= maxRunPages(),
                   "run length out of range");
    for (unsigned i = 0; i < count; ++i) {
        VIYOJIT_ASSERT(!inFlight_.contains(first + i),
                       "double copy of a page");
        PendingCopy io;
        io.generation = ++nextGeneration_;
        inFlight_.emplace(first + i, io);
    }
    submitRunAttempt(first, count);
}

unsigned
ViyojitManager::SimBackend::maxRunPages() const
{
    return mgr_.config_.coalesceRuns
               ? std::max(1u, mgr_.config_.maxRunPages)
               : 1;
}

void
ViyojitManager::SimBackend::submitRunAttempt(PageNum first,
                                             unsigned count)
{
    if (!mgr_.ssd_.canAccept()) {
        // Device queue saturated: hold the whole run back one backoff
        // period, like the per-page path.
        const Tick resume =
            mgr_.ctx_.now() + mgr_.config_.retryBackoffBase;
        std::vector<std::uint64_t> generations(count);
        for (unsigned i = 0; i < count; ++i) {
            auto it = inFlight_.find(first + i);
            VIYOJIT_ASSERT(it != inFlight_.end(),
                           "run attempt for idle page");
            it->second.nextEvent = resume;
            generations[i] = it->second.generation;
        }
        mgr_.ctx_.events().schedule(
            resume,
            [this, first, count,
             generations = std::move(generations)]() {
                // Resubmit as a run only if every member survived
                // untouched; otherwise the stragglers go per-page.
                unsigned live = 0;
                for (unsigned i = 0; i < count; ++i) {
                    auto it = inFlight_.find(first + i);
                    if (it != inFlight_.end() &&
                        it->second.generation == generations[i])
                        ++live;
                }
                if (live == count) {
                    submitRunAttempt(first, count);
                    return;
                }
                for (unsigned i = 0; i < count; ++i) {
                    auto it = inFlight_.find(first + i);
                    if (it != inFlight_.end() &&
                        it->second.generation == generations[i])
                        submitAttempt(first + i);
                }
            });
        return;
    }

    std::vector<std::uint64_t> generations(count);
    std::vector<std::uint64_t> hashes(count);
    std::vector<std::uint64_t> stored(count);
    for (unsigned i = 0; i < count; ++i) {
        auto it = inFlight_.find(first + i);
        VIYOJIT_ASSERT(it != inFlight_.end(),
                       "run attempt for idle page");
        ++it->second.attempts;
        generations[i] = it->second.generation;
        hashes[i] = mgr_.pageContentHash(first + i);
        it->second.submittedHash = hashes[i];
        stored[i] = mgr_.measuredStoredSize(first + i);
        it->second.submittedStored = stored[i];
    }
    ++faultStats_.runSubmits;
    faultStats_.runPagesCoalesced.fetch_add(count,
                                            std::memory_order_relaxed);
    mgr_.ctx_.stats().counter("io.run_submits").increment();
    mgr_.ctx_.stats().counter("io.run_pages").increment(count);

    const Tick done = mgr_.ssd_.submitWriteRun(
        mgr_.key(first), count, hashes.data(), mgr_.config_.pageSize,
        [this, first, generations](unsigned i,
                                   storage::IoStatus status) {
            onAttemptComplete(first + i, generations[i], status,
                              /*from_run=*/true);
        },
        stored.data());

    // Per-IO deadline applies to the whole group: a page that blows
    // it is invalidated (generation bump) and retried alone, and the
    // group completion for that page arrives generation-stale.
    const Tick timeout = mgr_.config_.ioTimeout;
    const bool armed = timeout != 0 && !mgr_.lastGaspFlush_ &&
                       done > mgr_.ctx_.now() + timeout;
    const Tick deadline = mgr_.ctx_.now() + timeout;
    for (unsigned i = 0; i < count; ++i) {
        PendingCopy &io = inFlight_.find(first + i)->second;
        io.nextEvent = done;
        io.completion = done;
        if (armed) {
            io.nextEvent = deadline;
            const PageNum page = first + i;
            const std::uint64_t generation = io.generation;
            mgr_.ctx_.events().schedule(deadline,
                                        [this, page, generation]() {
                onAttemptTimeout(page, generation);
            });
        }
    }
}

void
ViyojitManager::SimBackend::persistPageBlocking(PageNum page)
{
    // Bounded inline retry: the blocking paths (fault-path eviction,
    // vmunmap) cannot abandon the page, so exhaustion is fatal.
    for (unsigned attempt = 1;
         attempt <= mgr_.config_.maxIoRetries; ++attempt) {
        bool ok = false;
        bool settled = false;
        const std::uint64_t expected = mgr_.pageContentHash(page);
        const std::uint64_t stored = mgr_.measuredStoredSize(page);
        const Tick done = mgr_.ssd_.submitWrite(
            mgr_.key(page), expected, mgr_.config_.pageSize,
            [&ok, &settled](storage::IoStatus status) {
                ok = status == storage::IoStatus::ok;
                settled = true;
            },
            stored);
        mgr_.ctx_.events().runUntil(done);
        VIYOJIT_ASSERT(settled, "blocking write did not complete");
        // Read-back verify, same contract as the async path: ok from
        // the device does not grant durability until the image checks.
        if (ok && mgr_.commitIfDurable(page, expected, stored)) {
            abortedPages_.erase(page);
            return;
        }
        if (ok) {
            ++faultStats_.verifyFailures;
            mgr_.ctx_.stats().counter("io.verify_failures").increment();
        }
        ++faultStats_.retries;
        mgr_.ctx_.stats().counter("io.retries").increment();
        if (attempt < mgr_.config_.maxIoRetries) {
            mgr_.ctx_.events().runUntil(mgr_.ctx_.now() +
                                        backoffFor(attempt));
        }
    }
    fatal("blocking page persist failed after ",
          mgr_.config_.maxIoRetries, " attempts (page ", page, ")");
}

void
ViyojitManager::SimBackend::waitForPersist(PageNum page)
{
    // The copy may traverse several attempts (completion, backoff,
    // resubmit); chase its next state-change time until it either
    // completes or aborts.
    while (true) {
        auto it = inFlight_.find(page);
        if (it == inFlight_.end())
            return;
        mgr_.ctx_.events().runUntil(it->second.nextEvent);
    }
}

void
ViyojitManager::SimBackend::waitForAnyPersist()
{
    if (inFlight_.empty())
        return;
    Tick earliest = maxTick;
    for (const auto &[page, io] : inFlight_)
        earliest = std::min(earliest, io.nextEvent);
    mgr_.ctx_.events().runUntil(earliest);
}

unsigned
ViyojitManager::SimBackend::outstandingIos() const
{
    return static_cast<unsigned>(inFlight_.size());
}

bool
ViyojitManager::SimBackend::canSubmit() const
{
    // Leave two device slots for synchronous work (a blocking
    // eviction in the fault path, or vmunmap flushes) so a copy
    // pipeline as deep as the device queue cannot starve them.
    return mgr_.ssd_.outstanding() + 2 <=
           mgr_.ssd_.config().queueDepth;
}

// ---------------------------------------------------------------------
// ViyojitManager
// ---------------------------------------------------------------------

namespace
{

/** The section-5.4 assist implies write-through dirty bits. */
mmu::MmuCostModel
adjustCosts(const mmu::MmuCostModel &costs, const ViyojitConfig &config)
{
    mmu::MmuCostModel adjusted = costs;
    if (config.hardwareAssist)
        adjusted.writeThroughDirty = true;
    return adjusted;
}

} // namespace

ViyojitManager::ViyojitManager(sim::SimContext &ctx, storage::Ssd &ssd,
                               const ViyojitConfig &config,
                               const mmu::MmuCostModel &mmu_costs,
                               std::uint64_t capacity_pages,
                               std::uint32_t region_id)
    : ViyojitManager(ctx, ssd, config, mmu_costs, capacity_pages,
                     region_id, nullptr, BudgetSplit{})
{
}

ViyojitManager::ViyojitManager(sim::SimContext &ctx, storage::Ssd &ssd,
                               const ViyojitConfig &config,
                               const mmu::MmuCostModel &mmu_costs,
                               std::uint64_t capacity_pages,
                               std::uint32_t region_id, BudgetPool &pool,
                               const BudgetSplit &split)
    : ViyojitManager(ctx, ssd, config, mmu_costs, capacity_pages,
                     region_id, &pool, split)
{
}

ViyojitManager::ViyojitManager(sim::SimContext &ctx, storage::Ssd &ssd,
                               const ViyojitConfig &config,
                               const mmu::MmuCostModel &mmu_costs,
                               std::uint64_t capacity_pages,
                               std::uint32_t region_id,
                               BudgetPool *shared_pool, BudgetSplit split)
    : ctx_(ctx),
      ssd_(ssd),
      config_(config),
      capacityPages_(capacity_pages),
      regionId_(region_id),
      mmu_(ctx, adjustCosts(mmu_costs, config)),
      backend_(*this)
{
    if (capacity_pages == 0)
        fatal("NV capacity must be non-zero");
    if (config.enforceBudget && shared_pool == nullptr &&
        config.dirtyBudgetPages > capacity_pages) {
        warn("dirty budget exceeds capacity; clamping");
        config_.dirtyBudgetPages = capacity_pages;
    }

    data_.assign(capacity_pages * config_.pageSize, 0);
    versions_.assign(capacity_pages, 0);
    sidecar_.assign(capacity_pages, CommitRecord{});
    zipScratch_.resize(common::pagezipBound(config_.pageSize));

    if (config_.enforceBudget) {
        if (shared_pool == nullptr) {
            split = splitBudget(config_.dirtyBudgetPages, 1);
            ownPool_ = std::make_unique<BudgetPool>(
                config_.dirtyBudgetPages, split.poolPages);
            shared_pool = ownPool_.get();
        }
        controller_ = std::make_unique<DirtyBudgetController>(
            backend_, config_, *shared_pool, split);
        // Even under the hardware assist, writeback-protected pages
        // fault; the controller waits out the copy and readmits.
        mmu_.setWriteFaultHandler(
            [this](PageNum page) { controller_->onWriteFault(page); });
    } else {
        baselineDirty_ = std::make_unique<DirtyPageTracker>(
            capacity_pages);
    }
}

ViyojitManager::~ViyojitManager()
{
    stop();
}

storage::StorageKey
ViyojitManager::key(PageNum page) const
{
    return storage::StorageKey{regionId_, page};
}

Addr
ViyojitManager::vmmap(std::uint64_t bytes)
{
    if (bytes == 0)
        fatal("vmmap of zero bytes");
    const std::uint64_t pages =
        (bytes + config_.pageSize - 1) / config_.pageSize;
    if (nextFreePage_ + pages > capacityPages_)
        fatal("NV capacity exhausted: need ", pages, " pages, have ",
              capacityPages_ - nextFreePage_);

    const PageNum first = nextFreePage_;
    // Paper fig. 6 step 1: regions come up write-protected so the
    // first write to every page traps.  The baseline and the
    // section-5.4 hardware assist map pages writable: the former
    // pays in battery, the latter tracks via the MMU dirty counter.
    const bool writable =
        !config_.enforceBudget || config_.hardwareAssist;
    for (PageNum p = first; p < first + pages; ++p)
        mmu_.mapPage(p, writable);
    nextFreePage_ += pages;
    return first * config_.pageSize;
}

void
ViyojitManager::vmunmap(Addr base, std::uint64_t bytes)
{
    const PageNum first = base / config_.pageSize;
    const std::uint64_t pages =
        (bytes + config_.pageSize - 1) / config_.pageSize;
    // Make the region durable before dropping it.
    for (PageNum p = first; p < first + pages; ++p) {
        if (config_.enforceBudget) {
            controller_->flushPageBlocking(p);
        } else if (baselineDirty_->isDirty(p)) {
            backend_.persistPageBlocking(p);
            baselineDirty_->markClean(p);
        }
    }
    for (PageNum p = first; p < first + pages; ++p)
        mmu_.unmapPage(p);
}

void
ViyojitManager::read(Addr addr, std::uint64_t len)
{
    mmu_.accessRange(addr, len, /*is_write=*/false, config_.pageSize);
}

void
ViyojitManager::write(Addr addr, std::uint64_t len)
{
    if (len == 0)
        return;
    const PageNum first = addr / config_.pageSize;
    const PageNum last = (addr + len - 1) / config_.pageSize;
    for (PageNum p = first; p <= last; ++p) {
        mmu_.access(p, /*is_write=*/true);
        ++versions_[p];
        if (!config_.enforceBudget) {
            baselineDirty_->markDirty(p);
        } else if (config_.hardwareAssist &&
                   !controller_->tracker().isDirty(p) &&
                   !controller_->isInFlight(p)) {
            // Section 5.4: the MMU counted a new dirty page.  The
            // threshold interrupt costs OS time only when room must
            // be made — a quota the pool can still top up needs none;
            // mere counting is free.
            if (controller_->tracker().count() >=
                controller_->entitlement()) {
                ctx_.clock().advance(
                    mmu_.costs().assistInterruptCost);
            }
            controller_->onHardwareDirty(p);
        }
    }
}

void
ViyojitManager::memWrite(Addr addr, const void *src, std::uint64_t len)
{
    VIYOJIT_ASSERT(addr + len <= data_.size(), "NV write out of range");
    // Fault and copy one page at a time.  A later page's admission can
    // block and run the event loop, where an eviction may pick an
    // earlier page of this range as victim; its bytes must already be
    // in memory by then, or the copy persists the pre-write content
    // and the page goes clean with the new bytes never durable.
    const char *bytes = static_cast<const char *>(src);
    std::uint64_t off = 0;
    while (off < len) {
        const Addr at = addr + off;
        const std::uint64_t chunk =
            std::min(len - off,
                     config_.pageSize - at % config_.pageSize);
        write(at, chunk);
        std::memcpy(data_.data() + at, bytes + off, chunk);
        off += chunk;
    }
}

void
ViyojitManager::memRead(Addr addr, void *dst, std::uint64_t len) const
{
    VIYOJIT_ASSERT(addr + len <= data_.size(), "NV read out of range");
    const_cast<ViyojitManager *>(this)->read(addr, len);
    std::memcpy(dst, data_.data() + addr, len);
}

char *
ViyojitManager::rawData(Addr addr)
{
    VIYOJIT_ASSERT(addr < data_.size(), "NV address out of range");
    return data_.data() + addr;
}

const char *
ViyojitManager::rawData(Addr addr) const
{
    VIYOJIT_ASSERT(addr < data_.size(), "NV address out of range");
    return data_.data() + addr;
}

void
ViyojitManager::scheduleNextEpoch()
{
    const std::uint64_t generation = epochGeneration_;
    ctx_.events().scheduleAfter(config_.epochLength,
                                [this, generation]() {
        if (!running_ || generation != epochGeneration_)
            return;
        controller_->onEpochBoundary();
        scheduleNextEpoch();
    });
}

void
ViyojitManager::start()
{
    if (!config_.enforceBudget || running_)
        return;
    running_ = true;
    ++epochGeneration_;
    scheduleNextEpoch();
}

void
ViyojitManager::stop()
{
    running_ = false;
    ++epochGeneration_;
}

void
ViyojitManager::processEvents()
{
    ctx_.events().runUntil(ctx_.now());
}

std::uint64_t
ViyojitManager::dirtyPageCount() const
{
    return config_.enforceBudget ? controller_->tracker().count()
                                 : baselineDirty_->count();
}

std::uint64_t
ViyojitManager::dirtyBytes() const
{
    return dirtyPageCount() * config_.pageSize;
}

FlushReport
ViyojitManager::powerFailureFlush()
{
    stop();
    lastGaspFlush_ = true;
    FlushReport report;
    report.dirtyPagesAtFailure = dirtyPageCount();
    const Tick start = ctx_.now();

    if (config_.enforceBudget) {
        controller_->flushAllDirty();
    } else {
        // Baseline: flush the entire dirty set, pipelining IOs up to
        // the device queue depth.  Failed attempts re-queue until the
        // page lands (the baseline has no budget to protect, but the
        // image must still verify).
        std::vector<PageNum> pages = baselineDirty_->dirtyPages();
        std::deque<PageNum> redo;
        std::size_t submitted = 0;
        while (submitted < pages.size() || !redo.empty() ||
               ssd_.outstanding() > 0) {
            while ((submitted < pages.size() || !redo.empty()) &&
                   ssd_.canAccept()) {
                PageNum p;
                if (!redo.empty()) {
                    p = redo.front();
                    redo.pop_front();
                } else {
                    p = pages[submitted++];
                }
                const std::uint64_t expected = pageContentHash(p);
                const std::uint64_t stored = measuredStoredSize(p);
                ssd_.submitWrite(key(p), expected, config_.pageSize,
                                 [this, p, expected, stored,
                                  &redo](storage::IoStatus status) {
                                     // Same read-back verify as the
                                     // budgeted path: an ok with a
                                     // wrong image re-queues.
                                     if (status ==
                                             storage::IoStatus::ok &&
                                         commitIfDurable(p, expected,
                                                         stored)) {
                                         baselineDirty_->markClean(p);
                                     } else {
                                         redo.push_back(p);
                                     }
                                 },
                                 stored);
            }
            if (ssd_.outstanding() > 0) {
                if (!ctx_.events().runOne())
                    break;
            }
        }
    }

    lastGaspFlush_ = false;
    report.bytesFlushed =
        report.dirtyPagesAtFailure * config_.pageSize;
    report.flushDuration = ctx_.now() - start;
    return report;
}

bool
ViyojitManager::commitIfDurable(PageNum page, std::uint64_t crc,
                                std::uint64_t stored_len)
{
    VIYOJIT_ASSERT(page < sidecar_.size(), "page out of range");
    if (ssd_.durableHash(key(page)) != crc)
        return false;
    sidecar_[page] = {.crc = crc,
                      .storedLen = static_cast<std::uint32_t>(stored_len),
                      .state = CommitState::committed};
    return true;
}

const CommitRecord &
ViyojitManager::commitRecord(PageNum page) const
{
    VIYOJIT_ASSERT(page < sidecar_.size(), "page out of range");
    return sidecar_[page];
}

bool
ViyojitManager::pageSettled(PageNum page) const
{
    if (backend_.wasAborted(page))
        return false;
    if (config_.enforceBudget) {
        return !controller_->tracker().isDirty(page) &&
               !controller_->isInFlight(page);
    }
    return !baselineDirty_->isDirty(page);
}

DurabilityAuditReport
ViyojitManager::verifyDurabilityChecked() const
{
    DurabilityAuditReport report;
    for (PageNum p = 0; p < nextFreePage_; ++p) {
        if (versions_[p] == 0)
            continue;
        ++report.pagesChecked;
        const std::uint64_t live = pageContentHash(p);
        const std::uint64_t durable = ssd_.durableHash(key(p));
        const CommitRecord &meta = sidecar_[p];
        const bool committed_live =
            meta.state == CommitState::committed && meta.crc == live;

        if (durable == live) {
            ++report.verifiedPages;
            if (!committed_live)
                ++report.staleMetaPages;
            continue;
        }

        ++report.mismatchedPages;
        if (committed_live) {
            // The flush committed exactly this content after a
            // verified read-back; the medium has since diverged.
            ++report.silentCorruptPages;
        } else {
            // No commit covers the live content: the write was torn
            // off mid-flight (cut, abort) before its commit point.
            ++report.tornPages;
        }

        const bool attributed =
            ssd_.corruptionKind(key(p)) !=
                storage::SilentFaultKind::none ||
            backend_.wasAborted(p) || !pageSettled(p);
        if (attributed)
            ++report.attributedPages;
        else
            ++report.unattributedPages;
    }
    return report;
}

bool
ViyojitManager::repairPageBlocking(PageNum page)
{
    for (unsigned attempt = 1; attempt <= config_.maxIoRetries;
         ++attempt) {
        if (!ssd_.canAccept()) {
            ctx_.events().runUntil(ctx_.now() +
                                   config_.retryBackoffBase);
            continue;
        }
        bool ok = false;
        const std::uint64_t expected = pageContentHash(page);
        const std::uint64_t stored = measuredStoredSize(page);
        const Tick done = ssd_.submitWrite(
            key(page), expected, config_.pageSize,
            [&ok](storage::IoStatus status) {
                ok = status == storage::IoStatus::ok;
            },
            stored);
        ctx_.events().runUntil(done);
        if (ok && commitIfDurable(page, expected, stored))
            return true;
    }
    return false;
}

ScrubReport
ViyojitManager::scrubPass(std::uint64_t max_pages)
{
    ScrubReport report;
    if (nextFreePage_ == 0 || max_pages == 0)
        return report;

    // Scrubbing is strictly lower priority than making flush
    // headroom: yield the whole pass near the budget or while the
    // device queue is full.
    if ((config_.enforceBudget && scrubShouldYield(*controller_)) ||
        !ssd_.canAccept()) {
        ++report.skippedBudget;
        return report;
    }

    for (std::uint64_t i = 0;
         i < nextFreePage_ && report.scanned < max_pages; ++i) {
        const PageNum p = scrubCursor_;
        scrubCursor_ = (scrubCursor_ + 1) % nextFreePage_;
        if (versions_[p] == 0)
            continue;
        if (!pageSettled(p)) {
            ++report.skippedBusy;
            continue;
        }
        ++report.scanned;
        const std::uint64_t live = pageContentHash(p);
        if (ssd_.durableHash(key(p)) == live)
            continue;
        // A settled page's DRAM copy matches its last verified flush,
        // so DRAM is the good replica: repair the durable image from
        // it (this also heals misdirected-write victims, whose own
        // writes were never at fault).
        ++report.mismatches;
        ctx_.stats().counter("scrub.mismatches").increment();
        if (repairPageBlocking(p)) {
            ++report.repaired;
            ctx_.stats().counter("scrub.repairs").increment();
        } else {
            ++report.repairFailures;
            warn("scrub could not repair page ", p,
                 " after bounded retries; left corrupt");
        }
    }
    return report;
}

void
ViyojitManager::setDirtyBudget(std::uint64_t pages)
{
    if (!config_.enforceBudget)
        fatal("baseline mode has no dirty budget");
    if (!ownPool_)
        fatal("a shard of a shared budget pool is retuned through "
              "its BudgetDomain");
    retuneBudget(*ownPool_, 1, pages,
                 [this](std::size_t,
                        FunctionRef<void(DirtyBudgetController &)> fn) {
                     fn(*controller_);
                 });
}

DirtyBudgetController &
ViyojitManager::controller()
{
    VIYOJIT_ASSERT(controller_, "baseline mode has no controller");
    return *controller_;
}

const DirtyBudgetController &
ViyojitManager::controller() const
{
    VIYOJIT_ASSERT(controller_, "baseline mode has no controller");
    return *controller_;
}

std::uint64_t
ViyojitManager::pageVersion(PageNum page) const
{
    VIYOJIT_ASSERT(page < versions_.size(), "page out of range");
    return versions_[page];
}

std::uint64_t
ViyojitManager::writtenPageCount() const
{
    std::uint64_t count = 0;
    for (PageNum p = 0; p < nextFreePage_; ++p)
        count += versions_[p] > 0;
    return count;
}

std::uint64_t
ViyojitManager::pageContentHash(PageNum page) const
{
    VIYOJIT_ASSERT(page < capacityPages_, "page out of range");
    const char *bytes = data_.data() + page * config_.pageSize;
    return common::crc32c(bytes, config_.pageSize);
}

std::uint64_t
ViyojitManager::measuredStoredSize(PageNum page)
{
    VIYOJIT_ASSERT(page < capacityPages_, "page out of range");
    if (!ssd_.config().enableCompression)
        return 0;
    const std::uint64_t ps = config_.pageSize;
    const char *bytes = data_.data() + page * ps;
    const std::uint64_t stored = common::pagezipCompress(
        bytes, ps, zipScratch_.data(), zipScratch_.size());
    // Record what the flush path actually ships (bypass = raw) so
    // the budget EWMA never sees a rosier ratio than the device.
    const std::uint64_t shipped = stored != 0 ? stored : ps;
    if (config_.enforceBudget)
        controller_->notePageCompression(page, shipped, ps);
    else
        baselineDirty_->recordCompressibility(page, shipped, ps);
    return stored;
}

} // namespace viyojit::core
