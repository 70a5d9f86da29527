/**
 * @file
 * Post-reboot restore of NV-DRAM contents (paper section 8,
 * "Increased availability").
 *
 * After a power cycle, the NV-DRAM image lives on the SSD.  The
 * paper: "The start up time can be optimized by fetching pages from
 * SSD to DRAM on demand while sequentially reading data in the
 * background after the OS boots."  This module models the three
 * restore strategies so their availability trade-off is measurable:
 *
 *  - eager: sequentially reload everything before serving (the
 *    conventional approach; time-to-first-request = full reload);
 *  - demand-only: serve immediately, fault pages in as requests
 *    touch them (fast first request, long residency tail);
 *  - demand + background: demand faults for the foreground plus a
 *    sequential background sweep (the paper's recommendation).
 */

#ifndef VIYOJIT_CORE_RECOVERY_HH
#define VIYOJIT_CORE_RECOVERY_HH

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "core/durable_image.hh"
#include "sim/context.hh"
#include "storage/ssd.hh"

namespace viyojit::core
{

/** Restore strategies of section 8. */
enum class RestoreStrategy
{
    eager,
    demandOnly,
    demandPlusBackground,
};

/** Restore statistics.  The mismatch counters are meaningful when a
 *  manifest is attached. */
struct RecoveryStats : MismatchCounts
{
    std::uint64_t demandFetches = 0;
    std::uint64_t backgroundFetches = 0;

    /** Read attempts retried after an injected device error. */
    std::uint64_t readRetries = 0;

    /**
     * Background reads that failed and were skipped; the sweep
     * revisits them after the rest of the pass.
     */
    std::uint64_t sweepSkips = 0;

    /**
     * Virtual time at which every page settled — became resident or
     * was quarantined.  Quarantined pages count: the restore is done
     * deciding, even though some pages came back bad.
     */
    Tick fullyResidentAt = 0;

    // Quarantine escalation (replaces fatal()).

    /** Pages quarantined after exhausting all retry policy. */
    std::uint64_t quarantinedPages = 0;

    /** Demand fetches that exhausted maxReadRetries and escalated to
     *  quarantine instead of fatal(). */
    std::uint64_t demandRetryExhausted = 0;

    /** Background pages that exhausted their revisit passes. */
    std::uint64_t sweepRevisitExhausted = 0;
};

/** Sidecar view for verify-on-reload. */
struct RecoveryManifest
{
    /** Per-page commit records, indexed by page number. */
    std::vector<CommitRecord> pages;

    /**
     * Epoch boundary of the last sealed (header-committed) flush:
     * entries with a newer epoch belong to the unsealed tail a crash
     * may legitimately have torn.
     */
    std::uint64_t lastSealedEpoch = 0;
};

/** Models the reload of one region's pages from the SSD. */
class RecoveryManager
{
  public:
    /**
     * @param ctx simulation context (the boot clock).
     * @param ssd device holding the image.
     * @param region_id region within the device.
     * @param page_count pages to restore.
     * @param page_size bytes per page.
     * @param strategy restore strategy.
     * @param max_outstanding_reads background/eager read queue depth.
     */
    RecoveryManager(sim::SimContext &ctx, storage::Ssd &ssd,
                    std::uint32_t region_id, std::uint64_t page_count,
                    std::uint64_t page_size, RestoreStrategy strategy,
                    unsigned max_outstanding_reads = 16,
                    unsigned max_read_retries = 8,
                    unsigned max_revisit_passes = 3);

    /**
     * Attach expected checksums: every reloaded page is then verified
     * against its manifest entry, mismatches are classified (torn run
     * tail / stale epoch / silent corruption) and enter the same
     * retry-then-quarantine policy as device read errors.  Must be
     * called before begin().
     */
    void attachManifest(RecoveryManifest manifest);

    /** Start restoring (begins the background/eager sweep). */
    void begin();

    /**
     * An application request touches `page`: block until it is
     * resident (demand-fetching it if the strategy allows).
     * @return the stall time the request experienced.
     */
    Tick access(PageNum page);

    /** True when every page settled (resident or quarantined). */
    bool fullyResident() const
    {
        return residentCount_ == pageCount_;
    }

    /** Drive the sweep to completion (eager boot barrier). */
    void waitUntilFullyResident();

    const RecoveryStats &stats() const { return stats_; }

    std::uint64_t residentPages() const { return residentCount_; }

    /** True when `page` settled as known-bad (caller must not trust
     *  its contents: re-create, restore from elsewhere, or fail the
     *  object that owns it). */
    bool isQuarantined(PageNum page) const
    {
        return resident_[page] == kQuarantined;
    }

    /** All quarantined pages, ascending. */
    std::vector<PageNum> quarantinedPages() const;

  private:
    /** Launch background reads up to the queue depth. */
    void pumpBackground();

    /**
     * Issue read attempt `attempt` (1-based) for `page`; returns its
     * completion time.  Failed demand attempts retry after a backoff
     * up to max_read_retries, then escalate to quarantine; failed
     * background attempts are skipped and revisited after the sweep,
     * up to max_revisit_passes, then quarantined too.
     */
    Tick issueRead(PageNum page, unsigned attempt, bool background);

    /** Completion of one read attempt. */
    void onReadDone(PageNum page, unsigned attempt, bool background,
                    storage::IoStatus status);

    void markResident(PageNum page);

    /** Settle `page` as known-bad (terminal; counts as resident). */
    void quarantine(PageNum page);

    /**
     * Verify a successfully read page against the manifest; on
     * mismatch, classify it (torn / stale / silent) and return false
     * so the caller treats the read as failed.
     */
    bool checksumOk(PageNum page);

    /** Residency states in resident_. */
    static constexpr std::uint8_t kAbsent = 0;
    static constexpr std::uint8_t kResident = 1;
    static constexpr std::uint8_t kQuarantined = 2;

    sim::SimContext &ctx_;
    storage::Ssd &ssd_;
    std::uint32_t regionId_;
    std::uint64_t pageCount_;
    std::uint64_t pageSize_;
    RestoreStrategy strategy_;
    unsigned maxOutstandingReads_;
    unsigned maxReadRetries_;
    unsigned maxRevisitPasses_;

    RecoveryManifest manifest_;

    std::vector<std::uint8_t> resident_;
    std::uint64_t residentCount_ = 0;

    /** Background failure count per page (bounds revisit passes). */
    std::unordered_map<PageNum, unsigned> sweepFailures_;

    /** In-flight reads: page -> next state-change tick (completion
     *  or retry resubmit). */
    std::unordered_map<PageNum, Tick> inFlight_;

    /** Background reads that failed, awaiting a revisit pass. */
    std::deque<PageNum> revisit_;

    /** Next page the sequential sweep will fetch. */
    PageNum sweepCursor_ = 0;
    bool started_ = false;

    RecoveryStats stats_;
};

} // namespace viyojit::core

#endif // VIYOJIT_CORE_RECOVERY_HH
