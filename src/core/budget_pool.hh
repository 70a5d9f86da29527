/**
 * @file
 * Global dirty-budget pool: the one budget path of a shard set.
 *
 * The paper sizes ONE battery for ONE dirty budget.  When the page
 * space is partitioned into shards — each with its own controller and
 * lock so application threads fault concurrently — the battery-backed
 * budget must stay a single global quantity: the durability invariant
 * (section 4.1) bounds the SUM of per-shard dirty counts, not any one
 * shard's.  Every runtime region draws from a pool, a one-shard region
 * included, and so does the simulator's sharded manager set.
 *
 * The pool is that global quantity.  Each shard controller holds a
 * local quota (its `dirtyBudget()`); unassigned pages sit here.  The
 * invariant maintained at every instant:
 *
 *     sum(shard quotas) + available() <= totalPages()
 *
 * (equality except while a stolen grant is briefly in transit between
 * two shard locks), and each shard keeps `dirty <= quota`, so the
 * summed dirty count never exceeds the battery budget.
 *
 * Shards borrow and return quota in batches (`tryBorrow`/`deposit`),
 * both lock-free CAS loops on one cache line, so the write-fault fast
 * path touches no global lock — the whole point of sharding.  Total
 * retuning (battery fade, safe-mode governor) goes through
 * retuneBudget() below, the one retune algorithm both substrates
 * share; it drives the mutex-serialized grow()/confiscate()/
 * destroyReclaimed() paths, which are rare.
 */

#ifndef VIYOJIT_CORE_BUDGET_POOL_HH
#define VIYOJIT_CORE_BUDGET_POOL_HH

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "common/function_ref.hh"
#include "common/thread_annotations.hh"

namespace viyojit::core
{

class DirtyBudgetController;

/** Atomic global pool of unassigned dirty-budget pages. */
class BudgetPool
{
  public:
    /**
     * @param total_pages machine-level budget (from the battery).
     * @param available_pages pages not pre-assigned to shard quotas;
     *        defaults to the full total.
     */
    explicit BudgetPool(std::uint64_t total_pages,
                        std::uint64_t available_pages = ~0ULL);

    BudgetPool(const BudgetPool &) = delete;
    BudgetPool &operator=(const BudgetPool &) = delete;

    /**
     * Take up to `want` pages from the pool (lock-free).
     * @return pages granted, in [0, want].
     */
    std::uint64_t tryBorrow(std::uint64_t want);

    /** Return pages to the pool (lock-free). */
    void deposit(std::uint64_t pages);

    /** Unassigned pages (racy gauge; exact only when quiesced). */
    std::uint64_t available() const
    {
        return available_.load(std::memory_order_relaxed);
    }

    /** Machine-level budget the pool distributes. */
    std::uint64_t totalPages() const
    {
        return total_.load(std::memory_order_relaxed);
    }

    /** Grow the total budget by `pages` (goes to available). */
    void grow(std::uint64_t pages) EXCLUDES(retuneLock_);

    /**
     * Shrink the total by destroying up to `pages` of *available*
     * quota.  Quota held by shards must be clawed back by the caller
     * (DirtyBudgetController::releaseQuota) and then confiscated.
     * @return pages actually destroyed, in [0, pages].
     */
    std::uint64_t confiscate(std::uint64_t pages) EXCLUDES(retuneLock_);

    /**
     * Shrink the total by `pages` the caller already clawed out of a
     * shard quota (releaseQuota under that shard's lock).  Unlike
     * deposit-then-confiscate, the pages never pass through
     * available(), so a concurrent borrower cannot snatch them back
     * mid-retune — the runtime's incremental shrink relies on this
     * to make monotonic progress against faulting threads.
     */
    void destroyReclaimed(std::uint64_t pages) EXCLUDES(retuneLock_);

    /** Lifetime borrow batches granted (observability). */
    std::uint64_t borrowCount() const
    {
        return borrows_.load(std::memory_order_relaxed);
    }

    /**
     * The lock serializing total-changing operations, exposed so
     * callers (e.g. retuneBudget) can state EXCLUDES contracts
     * against it.  Lock-ordering rule 2 (region.hh): this lock nests
     * INSIDE a single shard lock and takes nothing under it.
     */
    common::Mutex &retuneLock() RETURN_CAPABILITY(retuneLock_)
    {
        return retuneLock_;
    }

  private:
    /** Serializes total-changing operations (grow/confiscate). */
    common::Mutex retuneLock_;

    /**
     * total_ and available_ are deliberately NOT GUARDED_BY
     * retuneLock_: the fault fast path reads and CASes them
     * lock-free (tryBorrow/deposit).  The lock only serializes the
     * rare total-changing writers against each other; lock-free
     * readers tolerate any interleaving the CAS loops allow.
     */
    std::atomic<std::uint64_t> total_;
    std::atomic<std::uint64_t> available_;
    std::atomic<std::uint64_t> borrows_{0};
};

/** How one total budget starts out over a set of shards. */
struct BudgetSplit
{
    /** Each shard's initial local quota. */
    std::uint64_t shardQuota = 0;

    /** Pages left unassigned in the pool: total - quota x shards. */
    std::uint64_t poolPages = 0;

    /** Pages a shard moves per borrow: a quarter of its quota. */
    std::uint64_t borrowBatch = 1;

    /** total / shards, which the quota watermarks hang off. */
    std::uint64_t fairShare = 1;
};

/**
 * The initial split every pooled set uses, one shard included: each
 * shard starts at half its fair share — never below the straddle
 * floor of 2 pages (1 when `total` cannot give every shard 2), so a
 * store straddling two pages can hold both — and the rest waits in
 * the pool as migration headroom for bursting shards.  Needs
 * `total >= shard_count`.
 */
BudgetSplit splitBudget(std::uint64_t total, std::uint64_t shard_count);

/**
 * Runs the given action on one shard's controller, under whatever
 * serializes that controller: the shard lock on the runtime, nothing
 * on the single simulation thread.
 */
using ShardVisitor = FunctionRef<void(
    std::size_t shard, FunctionRef<void(DirtyBudgetController &)>)>;

/**
 * Move a pooled set of `shard_count` shards to a new total budget
 * (safe-mode governor, battery fade, NvRegion::setDirtyBudget).
 *
 * A grow raises only the pool total: shards borrow the new pages on
 * demand.  A shrink first confiscates available() pages, then claws
 * quota back shard by shard (releaseQuota, which evicts synchronously
 * where the dirty count no longer fits) down to the straddle floor
 * of 2 pages — 1, then 0, when the total cannot honour that for every
 * shard — and destroys what comes back without passing it through
 * available(), so a concurrent borrower cannot snatch it back.  The
 * sweep repeats until the total fits, so the pool total only ever
 * moves down and sum(dirty) <= total holds at every intermediate
 * step.  Finally each shard re-derives its watermarks from the new
 * fair share, `new_total / shard_count`.
 *
 * `with_shard` visits one shard at a time; the caller must not hold
 * the pool's retune lock.
 */
void retuneBudget(BudgetPool &pool, std::size_t shard_count,
                  std::uint64_t new_total, ShardVisitor with_shard)
    EXCLUDES(pool.retuneLock());

} // namespace viyojit::core

#endif // VIYOJIT_CORE_BUDGET_POOL_HH
