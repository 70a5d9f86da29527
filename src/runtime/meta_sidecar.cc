#include "runtime/meta_sidecar.hh"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <vector>

#include "common/checksum.hh"
#include "common/logging.hh"
#include "runtime/region.hh"

namespace viyojit::runtime
{

namespace
{

using core::CommitRecord;
using core::CommitState;

/** One page's commit record on disk (32 bytes, v2): `flags` holds
 *  the CommitState, and `entryCrc` covers the 28 bytes before it, so
 *  a torn entry write fails it. */
struct MetaEntry
{
    std::uint32_t crc = 0;
    std::uint32_t flags = 0;
    std::uint64_t epoch = 0;
    std::uint64_t runId = 0;
    std::uint32_t storedLen = 0;
    std::uint32_t entryCrc = 0;
};

static_assert(sizeof(MetaEntry) == 32, "on-disk entry layout");

/** An entry slot no record was ever written to (all zero). */
constexpr MetaEntry kNeverWritten{};

constexpr std::uint32_t
flagsOf(CommitState state)
{
    return static_cast<std::uint32_t>(state);
}

/** Sealed header as stored in each slot (64 bytes). */
struct MetaHeader
{
    std::uint64_t magic = 0;
    std::uint32_t version = 0;
    std::uint32_t reserved = 0;
    std::uint64_t generation = 0;
    std::uint64_t lastSealedEpoch = 0;
    std::uint64_t lastSealedRunId = 0;
    std::uint64_t pageCount = 0;
    std::uint64_t pageSize = 0;
    std::uint32_t headerCrc = 0;
    std::uint32_t reserved2 = 0;
};

static_assert(sizeof(MetaHeader) == 64, "on-disk header layout");

constexpr std::size_t kHeaderCrcSpan = offsetof(MetaHeader, headerCrc);
constexpr std::size_t kEntryCrcSpan = offsetof(MetaEntry, entryCrc);

std::uint32_t
headerCrcOf(const MetaHeader &h)
{
    return common::crc32c(&h, kHeaderCrcSpan);
}

std::uint32_t
entryCrcOf(const MetaEntry &e)
{
    return common::crc32c(&e, kEntryCrcSpan);
}

/** The on-disk form of `r`, self-CRC included. */
MetaEntry
encodeEntry(const CommitRecord &r)
{
    MetaEntry e;
    e.crc = static_cast<std::uint32_t>(r.crc);
    e.flags = flagsOf(r.state);
    e.epoch = r.epoch;
    e.runId = r.runId;
    e.storedLen = r.storedLen;
    e.entryCrc = entryCrcOf(e);
    return e;
}

/** File offset of `page`'s entry slot. */
std::uint64_t
entryOffset(PageNum page)
{
    return MetaSidecar::kEntriesOffset + page * sizeof(MetaEntry);
}

bool
headerValid(const MetaHeader &h, std::uint64_t page_count,
            std::uint64_t page_size)
{
    return h.magic == MetaSidecar::kMagic &&
           h.version == MetaSidecar::kVersion &&
           h.pageCount == page_count && h.pageSize == page_size &&
           h.headerCrc == headerCrcOf(h);
}

} // namespace

MetaSidecar::MetaSidecar(int fd, std::uint64_t page_count,
                         std::uint64_t page_size)
    : fd_(fd),
      pageCount_(page_count),
      pageSize_(page_size),
      shadow_(new Shadow[page_count]),
      pending_(new std::atomic<std::uint64_t>[(page_count + 63) / 64]),
      snapshot_(new std::uint64_t[(page_count + 63) / 64]),
      words_((page_count + 63) / 64)
{
    for (std::uint64_t w = 0; w < words_; ++w)
        pending_[w].store(0, std::memory_order_relaxed);
}

MetaSidecar::~MetaSidecar()
{
    if (fd_ >= 0)
        ::close(fd_);
}

std::unique_ptr<MetaSidecar>
MetaSidecar::create(const std::string &path, std::uint64_t page_count,
                    std::uint64_t page_size)
{
    const int fd =
        ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        fatal("cannot create sidecar '", path,
              "': ", std::strerror(errno));
    const std::uint64_t bytes =
        kEntriesOffset + page_count * sizeof(MetaEntry);
    if (::ftruncate(fd, static_cast<off_t>(bytes)) != 0)
        fatal("sidecar ftruncate failed: ", std::strerror(errno));

    auto sidecar = std::unique_ptr<MetaSidecar>(
        new MetaSidecar(fd, page_count, page_size));
    if (const int error = sidecar->seal(0, 0); error != 0)
        fatal("initial sidecar seal failed: ",
              std::strerror(error));
    return sidecar;
}

std::unique_ptr<MetaSidecar>
MetaSidecar::open(const std::string &path, std::uint64_t page_count,
                  std::uint64_t page_size)
{
    const int fd = ::open(path.c_str(), O_RDWR);
    if (fd < 0)
        return nullptr;

    // Highest valid generation wins; a torn seal leaves the other
    // slot intact.
    MetaHeader best;
    bool found = false;
    for (int slot = 0; slot < 2; ++slot) {
        MetaHeader h;
        if (preadFullyWithRetry(fd, &h, sizeof(h),
                                kSlotOffset[slot]) != 0)
            continue;
        if (!headerValid(h, page_count, page_size))
            continue;
        if (!found || h.generation > best.generation) {
            best = h;
            found = true;
        }
    }
    if (!found) {
        ::close(fd);
        return nullptr;
    }

    auto sidecar = std::unique_ptr<MetaSidecar>(
        new MetaSidecar(fd, page_count, page_size));
    sidecar->generation_ = best.generation;
    sidecar->lastSealedEpoch_ = best.lastSealedEpoch;
    sidecar->lastSealedRunId_ = best.lastSealedRunId;

    std::vector<MetaEntry> entries(page_count);
    if (preadFullyWithRetry(fd, entries.data(),
                            page_count * sizeof(MetaEntry),
                            kEntriesOffset) != 0) {
        // Unreadable entry table: recover as if every entry were
        // torn — pages verify as "no commit record" (unverified).
        sidecar->badEntries_ = page_count;
        return sidecar;
    }
    for (std::uint64_t p = 0; p < page_count; ++p) {
        const MetaEntry &e = entries[p];
        if (std::memcmp(&e, &kNeverWritten, sizeof(e)) == 0)
            continue; // legitimately invalid
        if (e.entryCrc != entryCrcOf(e) ||
            (e.flags != flagsOf(CommitState::pending) &&
             e.flags != flagsOf(CommitState::committed))) {
            ++sidecar->badEntries_;
            continue;
        }
        Shadow &s = sidecar->shadow_[p];
        s.crc.store(e.crc, std::memory_order_relaxed);
        s.epoch.store(e.epoch, std::memory_order_relaxed);
        s.runId.store(e.runId, std::memory_order_relaxed);
        s.storedLen.store(e.storedLen, std::memory_order_relaxed);
        s.state.store(static_cast<CommitState>(e.flags),
                      std::memory_order_relaxed);
    }
    return sidecar;
}

void
MetaSidecar::recordPage(PageNum page, std::uint32_t crc,
                        std::uint64_t epoch, std::uint64_t run_id,
                        std::uint32_t stored_len)
{
    Shadow &s = shadow_[page];
    s.crc.store(crc, std::memory_order_relaxed);
    s.epoch.store(epoch, std::memory_order_relaxed);
    s.runId.store(run_id, std::memory_order_relaxed);
    s.storedLen.store(stored_len, std::memory_order_relaxed);
    s.state.store(CommitState::pending, std::memory_order_relaxed);
    const MetaEntry e = encodeEntry(
        {crc, epoch, run_id, stored_len, CommitState::pending});
    if (pwriteFullyWithRetry(fd_, &e, sizeof(e), entryOffset(page)) !=
        0)
        entryWriteErrors_.fetch_add(1, std::memory_order_relaxed);
}

void
MetaSidecar::markWritten(PageNum page)
{
    // Release pairs with commitPending's acquire exchange: a
    // snapshotted bit implies the shadow values and the data pwrite
    // that preceded this call are visible to the promoter.
    pending_[page / 64].fetch_or(1ULL << (page % 64),
                                 std::memory_order_release);
}

int
MetaSidecar::commitPending(int data_fd)
{
    if (promoting_.exchange(true, std::memory_order_acquire)) {
        // Another barrier is promoting.  Our own contract — the data
        // is durable when we return — still holds; our pages simply
        // stay PENDING until the next barrier, which is safe because
        // only COMMITTED claims durability.
        return fdatasyncWithRetry(data_fd);
    }

    // Snapshot BEFORE the data sync: every snapshotted bit's data
    // write completed before its markWritten(), so the fdatasync
    // below covers it — a promoted entry can never outrun its data.
    bool any = false;
    for (std::uint64_t w = 0; w < words_; ++w) {
        snapshot_[w] = pending_[w].exchange(
            0, std::memory_order_acq_rel);
        any |= snapshot_[w] != 0;
    }

    int error = fdatasyncWithRetry(data_fd);
    if (error != 0) {
        // Data durability failed: hand the pages back for the next
        // barrier and report.
        for (std::uint64_t w = 0; w < words_; ++w)
            if (snapshot_[w])
                pending_[w].fetch_or(snapshot_[w],
                                     std::memory_order_relaxed);
        promoting_.store(false, std::memory_order_release);
        return error;
    }
    if (!any) {
        promoting_.store(false, std::memory_order_release);
        return 0;
    }

    // Promote: rewrite the snapshotted entries as COMMITTED, one
    // pwrite per run of contiguous set bits within a snapshot word.
    // Only snapshotted pages are rewritten, so an entry outside the
    // snapshot (say, one a concurrent recordPage just made PENDING)
    // is never overwritten with a stale shadow.  The shadow of a
    // snapshotted page may already describe a NEWER flush of it
    // (re-dirtied after our snapshot), and the record promoted here
    // then carries that flush's CRC.  If the barrier above did not
    // cover that flush's data, the record fails recovery's CRC check
    // and the page is quarantined — never accepted; the newer flush
    // re-promotes at its own barrier (its markWritten re-set the
    // bit).
    MetaEntry batch[64];
    for (std::uint64_t w = 0; w < words_; ++w) {
        std::uint64_t word = snapshot_[w];
        while (word) {
            const unsigned lo =
                static_cast<unsigned>(__builtin_ctzll(word));
            const std::uint64_t rest = word >> lo;
            // rest is all ones only when the whole word is one run.
            const unsigned count =
                ~rest == 0 ? 64u
                           : static_cast<unsigned>(
                                 __builtin_ctzll(~rest));
            word &= count == 64 ? 0 : ~(((1ULL << count) - 1) << lo);
            const PageNum first = w * 64 + lo;
            for (unsigned i = 0; i < count; ++i) {
                CommitRecord r = entry(first + i);
                r.state = CommitState::committed;
                batch[i] = encodeEntry(r);
            }
            if (const int e = pwriteFullyWithRetry(
                    fd_, batch, count * sizeof(MetaEntry),
                    entryOffset(first));
                e != 0) {
                if (error == 0)
                    error = e;
                continue;
            }
            for (unsigned i = 0; i < count; ++i)
                shadow_[first + i].state.store(
                    CommitState::committed, std::memory_order_release);
        }
    }
    if (const int e = fdatasyncWithRetry(fd_); e != 0 && error == 0)
        error = e;
    promoting_.store(false, std::memory_order_release);
    return error;
}

int
MetaSidecar::seal(std::uint64_t epoch, std::uint64_t run_id)
{
    MetaHeader h;
    h.magic = kMagic;
    h.version = kVersion;
    h.generation = generation_ + 1;
    h.lastSealedEpoch = epoch;
    h.lastSealedRunId = run_id;
    h.pageCount = pageCount_;
    h.pageSize = pageSize_;
    h.headerCrc = headerCrcOf(h);

    const std::uint64_t off = kSlotOffset[h.generation % 2];
    if (const int error =
            pwriteFullyWithRetry(fd_, &h, sizeof(h), off);
        error != 0)
        return error;
    if (const int error = fdatasyncWithRetry(fd_); error != 0)
        return error;
    generation_ = h.generation;
    lastSealedEpoch_ = epoch;
    lastSealedRunId_ = run_id;
    return 0;
}

CommitRecord
MetaSidecar::entry(PageNum page) const
{
    const Shadow &s = shadow_[page];
    CommitRecord r;
    r.state = s.state.load(std::memory_order_acquire);
    r.crc = s.crc.load(std::memory_order_relaxed);
    r.epoch = s.epoch.load(std::memory_order_relaxed);
    r.runId = s.runId.load(std::memory_order_relaxed);
    r.storedLen = s.storedLen.load(std::memory_order_relaxed);
    return r;
}

} // namespace viyojit::runtime
