/**
 * @file
 * The durable-image rules both substrates share (DESIGN.md §10): the
 * per-page commit record, the mismatch classification, the
 * decompress-then-CRC check of a stored slot, and the scrub yield
 * rule.  The IO stays with each substrate: the simulator's Ssd
 * stores content hashes, the runtime stores bytes and keeps its
 * records in a `.meta` sidecar (runtime/meta_sidecar.hh).
 */

#ifndef VIYOJIT_CORE_DURABLE_IMAGE_HH
#define VIYOJIT_CORE_DURABLE_IMAGE_HH

#include <cstdint>

namespace viyojit::core
{

class DirtyBudgetController;

/** A commit record's state; the values are the sidecar's on-disk
 *  flags (format v2). */
enum class CommitState : std::uint8_t
{
    invalid = 0,   ///< never committed: nothing to verify
    pending = 1,   ///< recorded before its data write
    committed = 2, ///< its data was durable before the record was
};

/** One page's commit record. */
struct CommitRecord
{
    /** Checksum of the RAW page the flush carried (CRC32C on the
     *  runtime, the Ssd's content hash in the simulator). */
    std::uint64_t crc = 0;
    std::uint64_t epoch = 0; ///< flush epoch of the persist
    std::uint64_t runId = 0; ///< flush submission (shared by a run)
    /** 0 = the slot holds the raw page; else the pagezip stream's
     *  length (the slot's remainder is stale). */
    std::uint32_t storedLen = 0;
    CommitState state = CommitState::invalid;
};

static_assert(sizeof(CommitRecord) <= 32, "one per simulated page");

enum class MismatchClass : std::uint8_t
{
    torn,   ///< pending, or newer than the last seal: a torn flush
    stale,  ///< at the sealed epoch: data moved past its metadata
    silent, ///< long sealed: silent media corruption
};

/** Why `record`'s durable image failed its check, judged against
 *  the last sealed flush epoch. */
MismatchClass classifyMismatch(const CommitRecord &record,
                               std::uint64_t last_sealed_epoch);

const char *mismatchClassName(MismatchClass cls);

/** A recovery's mismatch counters, by class. */
struct MismatchCounts
{
    std::uint64_t checksumMismatches = 0;
    std::uint64_t tornRunPages = 0;
    std::uint64_t staleEpochPages = 0;
    std::uint64_t silentCorruptPages = 0;

    void count(MismatchClass cls);
};

/**
 * True when a stored slot matches `record`: a raw slot is CRC-checked
 * in place; a compressed one is decoded into `raw` (page_size bytes
 * of scratch, holding the page on a true return) and the page is
 * checked.  A stream that does not decode is a mismatch.
 */
bool verifySlot(const void *slot, const CommitRecord &record,
                std::uint64_t page_size, void *raw);

/** True while a background scrub must yield: the dirty set is within
 *  two pages of what the controller may admit (quota plus pool). */
bool scrubShouldYield(const DirtyBudgetController &controller);

} // namespace viyojit::core

#endif // VIYOJIT_CORE_DURABLE_IMAGE_HH
