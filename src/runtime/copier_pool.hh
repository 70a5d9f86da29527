/**
 * @file
 * Background copier thread pool for the sharded runtime.
 *
 * The paper's runtime drains proactive copies on a 16-deep device
 * queue; the sharded runtime generalizes that into a small pool of
 * copier threads pulling from per-shard job queues.  A job is a POD
 * (client, first, count) run dispatched through the CopierClient
 * interface in two phases so the expensive part runs without any
 * shard lock:
 *
 *   copierPersist   pwrite/pwritev of the run image — no locks held;
 *   copierComplete  bookkeeping — acquires the owning shard's lock
 *                   internally and notifies waiters.
 *
 * Jobs are POD on purpose: submission happens inside the write-fault
 * admission path, so enqueueing must not heap-allocate (malloc is
 * not async-signal-safe — see `python3 tools/pathlint --contract
 * sigsafe`).  Each shard's queue is a fixed-capacity ring sized at
 * construction to the shard's outstanding-IO cap, which the
 * controller never exceeds (a run of n pages costs n toward that cap
 * but only one ring slot, so slots-used <= pages-outstanding);
 * overflow is therefore an invariant violation, not backpressure.
 *
 * Workers pop jobs from one shard's queue until the POPPED PAGE SUM
 * reaches kBatchPages (always at least one job), run every persist
 * back-to-back (batched SSD submission), issue one group sync via
 * copierSync() when the batch carried any multi-page run, then every
 * complete, so the shard lock is touched once per batch instead of
 * once per page.  Bounding the batch by pages rather than jobs caps
 * the bytes a worker holds in flight even when every job is a
 * full-width run.
 *
 * Lock order (region.hh rule 4): the pool's queue lock is a leaf —
 * submit() is called with a shard lock held, and workers never hold
 * the queue lock while running jobs.
 */

#ifndef VIYOJIT_RUNTIME_COPIER_POOL_HH
#define VIYOJIT_RUNTIME_COPIER_POOL_HH

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/thread_annotations.hh"
#include "common/types.hh"

namespace viyojit::runtime
{

/** Two-phase receiver of copier work (implemented per shard). */
class CopierClient
{
  public:
    virtual ~CopierClient() = default;

    /** Persist `count` pages from `first`; runs with no locks held. */
    virtual void copierPersist(PageNum first, unsigned count) = 0;

    /**
     * Group durability barrier, issued once per worker batch that
     * contained a multi-page run — after every persist in the batch,
     * before any completion.  Runs with no locks held.
     */
    virtual void copierSync() = 0;

    /** Completion bookkeeping; takes the shard lock internally. */
    virtual void copierComplete(PageNum first, unsigned count) = 0;
};

/** Fixed pool of copier threads over per-shard job queues. */
class CopierPool
{
  public:
    /** POD work item; construction and queueing never allocate. */
    struct Job
    {
        CopierClient *client;
        PageNum first;
        unsigned count;
    };

    /** Pages a worker claims from one shard per batch. */
    static constexpr unsigned kBatchPages = 8;

    /**
     * @param queue_capacity per-shard ring capacity; the submitter
     *        guarantees it never has more jobs queued (the
     *        controller's outstanding-IO cap).
     */
    CopierPool(unsigned threads, unsigned shard_count,
               unsigned queue_capacity);

    /** Drains every queue, then joins the workers. */
    ~CopierPool();

    CopierPool(const CopierPool &) = delete;
    CopierPool &operator=(const CopierPool &) = delete;

    /** Enqueue a copy job for `shard`.  Safe under a shard lock. */
    void submit(unsigned shard, Job job) EXCLUDES(lock_);

    /**
     * True when `shard`'s ring is at least 3/4 occupied.  A single
     * relaxed atomic load — no lock, no allocation — so the write-fault
     * admission path can consult it before choosing the run path:
     * a backlogged ring means a wide run (and its group sync) would
     * serialize behind queued work, so the submitter falls back to
     * per-page jobs instead.  Advisory only: the depth gauge may lag
     * the ring by a few slots, which at worst flips the heuristic.
     */
    bool
    nearCapacity(unsigned shard) const
    {
        return depth_[shard].load(std::memory_order_relaxed) * 4 >=
               capacity_ * 3;
    }

  private:
    /** Fixed-capacity ring: slots are reserved once, never grown. */
    struct Ring
    {
        std::vector<Job> slots;
        std::size_t head = 0;
        std::size_t count = 0;
    };

    void workerLoop() EXCLUDES(lock_);

    common::Mutex lock_;
    common::CondVar work_;
    std::vector<Ring> queues_ GUARDED_BY(lock_);

    /**
     * Per-shard queued-job gauge mirroring Ring::count, readable
     * without the queue lock (see nearCapacity).  Updated inside the
     * locked sections so it never drifts from the ring by more than
     * the in-flight critical sections.
     */
    std::vector<std::atomic<unsigned>> depth_;

    const unsigned capacity_;
    std::uint64_t queued_ GUARDED_BY(lock_) = 0;
    unsigned nextShard_ GUARDED_BY(lock_) = 0;
    bool stopping_ GUARDED_BY(lock_) = false;
    std::vector<std::thread> workers_;
};

} // namespace viyojit::runtime

#endif // VIYOJIT_RUNTIME_COPIER_POOL_HH
