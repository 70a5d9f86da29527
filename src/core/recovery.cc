#include "core/recovery.hh"

#include <algorithm>

#include "common/logging.hh"

namespace viyojit::core
{

RecoveryManager::RecoveryManager(sim::SimContext &ctx,
                                 storage::Ssd &ssd,
                                 std::uint32_t region_id,
                                 std::uint64_t page_count,
                                 std::uint64_t page_size,
                                 RestoreStrategy strategy,
                                 unsigned max_outstanding_reads,
                                 unsigned max_read_retries,
                                 unsigned max_revisit_passes)
    : ctx_(ctx),
      ssd_(ssd),
      regionId_(region_id),
      pageCount_(page_count),
      pageSize_(page_size),
      strategy_(strategy),
      maxOutstandingReads_(max_outstanding_reads),
      maxReadRetries_(max_read_retries),
      maxRevisitPasses_(max_revisit_passes),
      resident_(page_count, kAbsent)
{
    if (page_count == 0)
        fatal("nothing to recover");
    if (max_outstanding_reads == 0)
        fatal("need at least one outstanding read");
    if (max_read_retries == 0)
        fatal("need at least one read attempt");
    if (max_revisit_passes == 0)
        fatal("need at least one revisit pass");
}

void
RecoveryManager::attachManifest(RecoveryManifest manifest)
{
    VIYOJIT_ASSERT(!started_, "manifest attached after begin()");
    VIYOJIT_ASSERT(manifest.pages.size() >= pageCount_,
                   "manifest smaller than the region");
    manifest_ = std::move(manifest);
}

void
RecoveryManager::markResident(PageNum page)
{
    if (resident_[page] == kAbsent) {
        resident_[page] = kResident;
        ++residentCount_;
        if (residentCount_ == pageCount_)
            stats_.fullyResidentAt = ctx_.now();
    }
}

void
RecoveryManager::quarantine(PageNum page)
{
    if (resident_[page] != kAbsent)
        return;
    resident_[page] = kQuarantined;
    ++residentCount_;
    ++stats_.quarantinedPages;
    ctx_.stats().counter("recovery.quarantined_pages").increment();
    warn("recovery quarantined page ", page,
         " (unreadable or failed checksum verification)");
    if (residentCount_ == pageCount_)
        stats_.fullyResidentAt = ctx_.now();
}

bool
RecoveryManager::checksumOk(PageNum page)
{
    if (manifest_.pages.empty())
        return true; // no manifest attached
    const CommitRecord &expect = manifest_.pages[page];
    // A page that never had a commit has nothing to check.
    if (expect.state == CommitState::invalid ||
        ssd_.durableHash(storage::StorageKey{regionId_, page}) ==
            expect.crc)
        return true;

    stats_.count(classifyMismatch(expect, manifest_.lastSealedEpoch));
    ctx_.stats().counter("recovery.checksum_mismatches").increment();
    return false;
}

std::vector<PageNum>
RecoveryManager::quarantinedPages() const
{
    std::vector<PageNum> out;
    for (PageNum p = 0; p < pageCount_; ++p)
        if (resident_[p] == kQuarantined)
            out.push_back(p);
    return out;
}

Tick
RecoveryManager::issueRead(PageNum page, unsigned attempt,
                           bool background)
{
    const Tick done = ssd_.submitRead(
        storage::StorageKey{regionId_, page}, pageSize_,
        [this, page, attempt, background](storage::IoStatus status) {
            onReadDone(page, attempt, background, status);
        });
    inFlight_[page] = done;
    return done;
}

void
RecoveryManager::onReadDone(PageNum page, unsigned attempt,
                            bool background, storage::IoStatus status)
{
    // A read that completed "ok" but fails checksum verification is
    // just as unusable as a device error: feed it into the same
    // retry/skip-revisit policy.
    if (status == storage::IoStatus::ok && checksumOk(page)) {
        inFlight_.erase(page);
        markResident(page);
        // A completed slot frees capacity for the sweep.
        if (strategy_ != RestoreStrategy::demandOnly)
            pumpBackground();
        return;
    }

    if (background) {
        // Don't stall the sequential pass behind one flaky page:
        // skip it now, revisit after the rest of the sweep.  A page
        // that keeps failing across maxRevisitPasses_ revisits is
        // quarantined so the restore can still finish.
        inFlight_.erase(page);
        if (++sweepFailures_[page] > maxRevisitPasses_) {
            ++stats_.sweepRevisitExhausted;
            ctx_.stats()
                .counter("recovery.sweep_revisit_exhausted")
                .increment();
            quarantine(page);
        } else {
            ++stats_.sweepSkips;
            ctx_.stats().counter("recovery.sweep_skips").increment();
            revisit_.push_back(page);
        }
        pumpBackground();
        return;
    }

    // Demand fetch: a foreground request is blocked on this page, so
    // retry in place with a growing backoff.  Exhausting the retries
    // quarantines the page instead of killing the process: the caller
    // sees it settle and must check isQuarantined() before trusting
    // the contents.
    if (attempt >= maxReadRetries_) {
        ++stats_.demandRetryExhausted;
        ctx_.stats()
            .counter("recovery.demand_retry_exhausted")
            .increment();
        inFlight_.erase(page);
        quarantine(page);
        if (strategy_ != RestoreStrategy::demandOnly)
            pumpBackground();
        return;
    }
    ++stats_.readRetries;
    ctx_.stats().counter("recovery.read_retries").increment();
    const Tick resume =
        ctx_.now() + 20_us * (Tick{1} << std::min(attempt - 1, 6u));
    inFlight_[page] = resume;
    ctx_.events().schedule(resume, [this, page, attempt]() {
        if (resident_[page] || !inFlight_.contains(page))
            return;
        issueRead(page, attempt + 1, /*background=*/false);
    });
}

void
RecoveryManager::pumpBackground()
{
    if (!started_ || strategy_ == RestoreStrategy::demandOnly)
        return;
    while (inFlight_.size() < maxOutstandingReads_ &&
           (sweepCursor_ < pageCount_ || !revisit_.empty())) {
        PageNum page;
        if (sweepCursor_ < pageCount_) {
            page = sweepCursor_;
            // Skip pages already resident (demand-fetched) or queued.
            if (resident_[page] || inFlight_.contains(page)) {
                ++sweepCursor_;
                continue;
            }
            if (!ssd_.canAccept())
                break;
            ++sweepCursor_;
        } else {
            // Revisit pass: pages whose background read failed.
            page = revisit_.front();
            revisit_.pop_front();
            if (resident_[page] || inFlight_.contains(page))
                continue;
            if (!ssd_.canAccept()) {
                revisit_.push_front(page);
                break;
            }
        }
        issueRead(page, 1, /*background=*/true);
        ++stats_.backgroundFetches;
    }
}

void
RecoveryManager::begin()
{
    started_ = true;
    pumpBackground();
}

Tick
RecoveryManager::access(PageNum page)
{
    VIYOJIT_ASSERT(page < pageCount_, "page out of range");
    VIYOJIT_ASSERT(started_, "access before begin()");
    if (resident_[page])
        return 0;

    const Tick start = ctx_.now();
    if (strategy_ == RestoreStrategy::eager) {
        // No demand path: wait for the sweep to reach the page.
        while (!resident_[page]) {
            if (!ctx_.events().runOne())
                panic("eager restore stalled before page ", page);
        }
        return ctx_.now() - start;
    }

    // Chase the page until it lands: an in-flight read may traverse
    // several attempts (completion, backoff, resubmit), and a pending
    // background read that fails is skipped — in which case we take
    // over with a demand fetch.
    while (!resident_[page]) {
        auto it = inFlight_.find(page);
        if (it == inFlight_.end()) {
            ++stats_.demandFetches;
            issueRead(page, 1, /*background=*/false);
            it = inFlight_.find(page);
        }
        ctx_.events().runUntil(it->second);
    }
    return ctx_.now() - start;
}

void
RecoveryManager::waitUntilFullyResident()
{
    VIYOJIT_ASSERT(strategy_ != RestoreStrategy::demandOnly,
                   "demand-only restore never sweeps");
    while (!fullyResident()) {
        if (!ctx_.events().runOne())
            panic("restore stalled with ", pageCount_ - residentCount_,
                  " pages missing");
    }
}

} // namespace viyojit::core
