#include "core/budget_pool.hh"

#include <algorithm>

#include "common/logging.hh"
#include "core/controller.hh"

namespace viyojit::core
{

BudgetPool::BudgetPool(std::uint64_t total_pages,
                       std::uint64_t available_pages)
    : total_(total_pages),
      available_(std::min(available_pages, total_pages))
{
    if (total_pages == 0)
        fatal("budget pool needs at least one page");
}

std::uint64_t
BudgetPool::tryBorrow(std::uint64_t want)
{
    if (want == 0)
        return 0;
    std::uint64_t avail = available_.load(std::memory_order_relaxed);
    while (avail > 0) {
        const std::uint64_t take = std::min(want, avail);
        if (available_.compare_exchange_weak(avail, avail - take,
                                             std::memory_order_acq_rel,
                                             std::memory_order_relaxed)) {
            borrows_.fetch_add(1, std::memory_order_relaxed);
            return take;
        }
    }
    return 0;
}

void
BudgetPool::deposit(std::uint64_t pages)
{
    if (pages)
        available_.fetch_add(pages, std::memory_order_acq_rel);
}

void
BudgetPool::grow(std::uint64_t pages)
{
    common::MutexLock guard(retuneLock_);
    // Raise the total before releasing the pages so a concurrent
    // borrower can never observe available > total headroom.
    total_.fetch_add(pages, std::memory_order_acq_rel);
    deposit(pages);
}

std::uint64_t
BudgetPool::confiscate(std::uint64_t pages)
{
    common::MutexLock guard(retuneLock_);
    std::uint64_t avail = available_.load(std::memory_order_relaxed);
    std::uint64_t take = 0;
    for (;;) {
        take = std::min(pages, avail);
        if (take == 0)
            break;
        if (available_.compare_exchange_weak(avail, avail - take,
                                             std::memory_order_acq_rel,
                                             std::memory_order_relaxed))
            break;
    }
    total_.fetch_sub(take, std::memory_order_acq_rel);
    return take;
}

void
BudgetPool::destroyReclaimed(std::uint64_t pages)
{
    if (pages == 0)
        return;
    common::MutexLock guard(retuneLock_);
    total_.fetch_sub(pages, std::memory_order_acq_rel);
}

namespace
{

/** The smallest quota each of `shard_count` shards keeps. */
std::uint64_t
straddleFloor(std::uint64_t total, std::uint64_t shard_count)
{
    return total >= 2 * shard_count ? 2 : (total >= shard_count ? 1 : 0);
}

} // namespace

BudgetSplit
splitBudget(std::uint64_t total, std::uint64_t shard_count)
{
    VIYOJIT_ASSERT(shard_count > 0, "split over zero shards");
    if (total < shard_count)
        fatal("a dirty budget of ", total, " pages cannot give each of ",
              shard_count, " shards a page");
    BudgetSplit split;
    split.fairShare = total / shard_count;
    split.shardQuota = std::clamp(total / (2 * shard_count),
                                  straddleFloor(total, shard_count),
                                  split.fairShare);
    split.poolPages = total - split.shardQuota * shard_count;
    split.borrowBatch =
        std::max<std::uint64_t>(1, split.shardQuota / 4);
    return split;
}

void
retuneBudget(BudgetPool &pool, std::size_t shard_count,
             std::uint64_t new_total, ShardVisitor with_shard)
{
    VIYOJIT_ASSERT(shard_count > 0, "retune over zero shards");
    if (new_total == 0)
        fatal("dirty budget must be at least one page");

    const std::uint64_t old_total = pool.totalPages();
    if (new_total >= old_total) {
        pool.grow(new_total - old_total);
    } else {
        const std::uint64_t floor =
            straddleFloor(new_total, shard_count);
        std::uint64_t to_destroy = old_total - new_total;
        to_destroy -= pool.confiscate(to_destroy);
        while (to_destroy > 0) {
            for (std::size_t i = 0; i < shard_count && to_destroy > 0;
                 ++i) {
                with_shard(i, [&](DirtyBudgetController &shard) {
                    const std::uint64_t got =
                        shard.releaseQuota(to_destroy, floor);
                    pool.destroyReclaimed(got);
                    to_destroy -= got;
                });
            }
            // Quota borrowed mid-sweep came out of available() —
            // concurrent faults on the runtime, or epoch-boundary
            // refills fired by the simulator's eviction time — so
            // claw it from there too.  Progress is guaranteed: the
            // floors sum to at most new_total, so while the total
            // exceeds it some shard sits above its floor or the pool
            // has available quota.
            to_destroy -= pool.confiscate(to_destroy);
        }
    }

    // Watermarks scale with the fair share: stale high watermarks
    // after a shrink would donate a degraded budget away, stale low
    // watermarks after a grow would refill in too-small batches.
    const std::uint64_t share =
        std::max<std::uint64_t>(1, new_total / shard_count);
    for (std::size_t i = 0; i < shard_count; ++i) {
        with_shard(i, [share](DirtyBudgetController &shard) {
            shard.deriveQuotaWatermarks(share);
        });
    }
}

} // namespace viyojit::core
