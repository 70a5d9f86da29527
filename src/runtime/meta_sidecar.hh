/**
 * @file
 * Durable flush-commit metadata for the write-protect runtime: a
 * sidecar file (`<backing>.meta`) holding a per-page CRC32C commit
 * record plus a double-buffered sealed header, so recovery can verify
 * every reloaded page and classify mismatches (torn flush tail vs.
 * silent corruption vs. stale epoch) instead of trusting the image
 * blindly.
 *
 * On-disk layout (little-endian, fixed offsets):
 *
 *   [0, 64)      header slot 0
 *   [512, 576)   header slot 1
 *   [4096, ...)  32-byte per-page entries, indexed by page number
 *
 * Header slots alternate by generation (even -> slot 0, odd -> slot
 * 1); each carries its own CRC32C, and the reader picks the highest
 * valid generation, so a torn header write can never destroy the
 * previous seal.
 *
 * Commit protocol (ordering is the whole point):
 *
 *   1. recordPage()    entry rewritten as PENDING (before the data
 *                      write: a crash from here on is detectable as
 *                      a torn flush, not silent corruption);
 *   2. data pwrite     (the caller's persist path);
 *   3. markWritten()   the page joins the pending-promotion set —
 *                      only AFTER its data write returned;
 *   4. commitPending() snapshot the set, fdatasync the DATA file,
 *                      then rewrite the snapshotted entries as
 *                      COMMITTED (one pwrite per contiguous run)
 *                      and fdatasync the sidecar.  An
 *                      entry can therefore only read COMMITTED if
 *                      its data was durable first — except a page
 *                      re-flushed mid-promotion, whose record fails
 *                      recovery's CRC check (and is quarantined)
 *                      unless the barrier covered its data.
 *   5. seal()          (off the fault path) stamps the header with
 *                      the epoch/run high-water mark, closing the
 *                      torn-tail classification window.
 *
 * Every step reachable from the write-fault admission path (1-4) is
 * allocation-free and lock-free: fixed preallocated buffers, atomic
 * bitmap words, and a single-promoter claim flag instead of a mutex
 * (a contended commitPending still makes the data durable; its pages
 * simply stay PENDING until the next barrier, which is safe — only
 * COMMITTED claims durability).  `python3 tools/pathlint --contract
 * sigsafe` walks this TU.
 */

#ifndef VIYOJIT_RUNTIME_META_SIDECAR_HH
#define VIYOJIT_RUNTIME_META_SIDECAR_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "common/types.hh"
#include "core/durable_image.hh"

namespace viyojit::runtime
{

/** The durable sidecar; one instance per NvRegion. */
class MetaSidecar
{
  public:
    static constexpr std::uint64_t kMagic = 0x3154454D4F594956ULL;

    /**
     * v2 added the entry's stored length (compressed flush images).
     * v1 files fail the header check and recover on the legacy
     * unverified path, exactly like a missing sidecar — acceptable
     * because the sidecar is an integrity cache, not data.
     */
    static constexpr std::uint32_t kVersion = 2;

    static constexpr std::uint64_t kSlotOffset[2] = {0, 512};
    static constexpr std::uint64_t kEntriesOffset = 4096;

    /**
     * Create (or truncate) a sidecar for a fresh region: all entries
     * invalid, header sealed at generation 1 / epoch 0.  Fatal on IO
     * errors — creation is setup, not the fault path.
     */
    static std::unique_ptr<MetaSidecar> create(
        const std::string &path, std::uint64_t page_count,
        std::uint64_t page_size);

    /**
     * Open an existing sidecar for recovery.  Returns nullptr when
     * the file is missing or no header slot validates (legacy image:
     * the caller recovers unverified and starts a fresh sidecar).
     * Entries failing their self-CRC load as invalid and are counted
     * in badEntries().
     */
    static std::unique_ptr<MetaSidecar> open(
        const std::string &path, std::uint64_t page_count,
        std::uint64_t page_size);

    ~MetaSidecar();

    MetaSidecar(const MetaSidecar &) = delete;
    MetaSidecar &operator=(const MetaSidecar &) = delete;

    // ---- fault-path interface (allocation/lock-free) ---- //

    /**
     * Step 1: rewrite the page's entry as PENDING with the CRC (of
     * the RAW page) and stored length the flush is about to make
     * durable (`stored_len` 0 = raw).  Call BEFORE the data write —
     * a crash mid-write then reads as torn, never silent.  IO errors
     * are counted (entryWriteErrors()), not raised — the fault path
     * cannot log, and a missing pending record only degrades a
     * future mismatch's classification.
     */
    void recordPage(PageNum page, std::uint32_t crc,
                    std::uint64_t epoch, std::uint64_t run_id,
                    std::uint32_t stored_len = 0);

    /** Step 3: the page's data pwrite returned; it may now be
     *  promoted by the next barrier. */
    void markWritten(PageNum page);

    /**
     * Step 4, the group durability barrier: fdatasync `data_fd`,
     * then promote every page whose markWritten() preceded this
     * call.  Lock-free: if another barrier is mid-promotion, the
     * data fdatasync still runs (that is the caller's contract) and
     * the pages stay PENDING for the next barrier.  Returns 0 or
     * the first errno.
     */
    int commitPending(int data_fd);

    /**
     * Step 5: seal the header (alternating slot, generation + 1)
     * recording the epoch/run high-water mark.  Not fault-path.
     * Returns 0 or errno.
     */
    int seal(std::uint64_t epoch, std::uint64_t run_id);

    // ---- recovery / inspection ---- //

    /** In-memory view of a page's entry (coherent snapshot). */
    core::CommitRecord entry(PageNum page) const;

    /** Epoch high-water mark of the last durable seal. */
    std::uint64_t lastSealedEpoch() const { return lastSealedEpoch_; }

    /** Run-id high-water mark of the last durable seal. */
    std::uint64_t lastSealedRunId() const { return lastSealedRunId_; }

    /** Entries open() found torn or rotted (self-CRC failed). */
    std::uint64_t badEntries() const { return badEntries_; }

    /** Pending-entry pwrites that failed on the fault path. */
    std::uint64_t entryWriteErrors() const
    {
        return entryWriteErrors_.load(std::memory_order_relaxed);
    }

  private:
    MetaSidecar(int fd, std::uint64_t page_count,
                std::uint64_t page_size);

    int fd_ = -1;
    std::uint64_t pageCount_ = 0;
    std::uint64_t pageSize_ = 0;

    /** Shadow of the on-disk entries; per-field atomics so the
     *  scrubber can read while copier threads record. */
    struct Shadow
    {
        std::atomic<std::uint32_t> crc{0};
        std::atomic<core::CommitState> state{core::CommitState::invalid};
        std::atomic<std::uint64_t> epoch{0};
        std::atomic<std::uint64_t> runId{0};
        std::atomic<std::uint32_t> storedLen{0};
    };
    std::unique_ptr<Shadow[]> shadow_;

    /** Pages written-but-unpromoted, one bit each. */
    std::unique_ptr<std::atomic<std::uint64_t>[]> pending_;

    /** Promotion scratch (guarded by promoting_). */
    std::unique_ptr<std::uint64_t[]> snapshot_;
    std::uint64_t words_ = 0;

    /** Single-promoter claim for commitPending's promotion phase. */
    std::atomic<bool> promoting_{false};

    std::atomic<std::uint64_t> entryWriteErrors_{0};

    std::uint64_t generation_ = 0;
    std::uint64_t lastSealedEpoch_ = 0;
    std::uint64_t lastSealedRunId_ = 0;
    std::uint64_t badEntries_ = 0;
};

} // namespace viyojit::runtime

#endif // VIYOJIT_RUNTIME_META_SIDECAR_HH
