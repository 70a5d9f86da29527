/**
 * @file
 * Tests for the real-memory runtime: write-protect faults, budget
 * enforcement on live pages, epoch recency, flush durability, and
 * crash/recovery round trips through the backing file.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/checksum.hh"
#include "common/logging.hh"
#include "common/pagezip.hh"
#include "common/rng.hh"
#include "runtime/meta_sidecar.hh"
#include "runtime/region.hh"

namespace viyojit::runtime
{
namespace
{

std::string
tempPath(const std::string &tag)
{
    return "/tmp/viyojit_test_" + tag + "_" +
           std::to_string(::getpid()) + ".img";
}

RuntimeConfig
manualConfig(std::uint64_t budget)
{
    RuntimeConfig cfg;
    cfg.dirtyBudgetPages = budget;
    cfg.startEpochThread = false; // deterministic tests tick manually
    return cfg;
}

struct RegionFixture : public ::testing::Test
{
    void
    TearDown() override
    {
        for (const std::string &path : cleanup) {
            ::unlink(path.c_str());
            // Every region writes a commit sidecar beside its file.
            ::unlink((path + ".meta").c_str());
        }
    }

    std::string
    makePath(const std::string &tag)
    {
        const std::string path = tempPath(tag);
        cleanup.push_back(path);
        return path;
    }

    std::vector<std::string> cleanup;
};

TEST_F(RegionFixture, CreateGivesZeroedReadableMemory)
{
    auto region =
        NvRegion::create(makePath("zero"), 64_KiB, manualConfig(4));
    const char *data = static_cast<const char *>(region->base());
    for (std::uint64_t i = 0; i < region->size(); i += 4096)
        EXPECT_EQ(data[i], 0);
    EXPECT_EQ(region->size() % region->pageSize(), 0u);
}

TEST_F(RegionFixture, FirstWriteFaultsAndSucceeds)
{
    auto region =
        NvRegion::create(makePath("fw"), 64_KiB, manualConfig(4));
    char *data = static_cast<char *>(region->base());
    data[0] = 'x';
    data[1] = 'y';
    EXPECT_EQ(data[0], 'x');
    EXPECT_EQ(region->stats().writeFaults, 1u);
    EXPECT_EQ(region->stats().dirtyPages, 1u);
}

TEST_F(RegionFixture, SecondPageFaultsSeparately)
{
    auto region =
        NvRegion::create(makePath("p2"), 64_KiB, manualConfig(4));
    char *data = static_cast<char *>(region->base());
    data[0] = 'a';
    data[region->pageSize()] = 'b';
    EXPECT_EQ(region->stats().writeFaults, 2u);
    EXPECT_EQ(region->stats().dirtyPages, 2u);
}

TEST_F(RegionFixture, BudgetEnforcedOnRealPages)
{
    auto region =
        NvRegion::create(makePath("budget"), 256_KiB, manualConfig(3));
    char *data = static_cast<char *>(region->base());
    const std::uint64_t ps = region->pageSize();
    for (std::uint64_t p = 0; p < region->pageCount(); ++p) {
        data[p * ps] = static_cast<char>(p);
        EXPECT_LE(region->stats().dirtyPages, 3u);
    }
    EXPECT_GT(region->stats().blockedEvictions, 0u);
    // All content still readable and correct.
    for (std::uint64_t p = 0; p < region->pageCount(); ++p)
        EXPECT_EQ(data[p * ps], static_cast<char>(p));
}

TEST_F(RegionFixture, FlushAllMakesFileMatchMemory)
{
    const std::string path = makePath("flush");
    auto region = NvRegion::create(path, 64_KiB, manualConfig(8));
    char *data = static_cast<char *>(region->base());
    const std::uint64_t ps = region->pageSize();
    for (std::uint64_t p = 0; p < region->pageCount(); ++p)
        std::memset(data + p * ps, 'A' + static_cast<int>(p % 26), ps);
    region->flushAll();
    EXPECT_EQ(region->stats().dirtyPages, 0u);

    std::ifstream file(path, std::ios::binary);
    std::vector<char> file_bytes(region->size());
    file.read(file_bytes.data(),
              static_cast<std::streamsize>(file_bytes.size()));
    EXPECT_EQ(std::memcmp(file_bytes.data(), data, region->size()), 0);
}

TEST_F(RegionFixture, RecoveryRestoresContents)
{
    const std::string path = makePath("recover");
    {
        auto region = NvRegion::create(path, 64_KiB, manualConfig(8));
        char *data = static_cast<char *>(region->base());
        std::strcpy(data, "survives the power cut");
        std::strcpy(data + region->pageSize() * 3, "page three");
        // Destructor flushes (graceful shutdown).
    }
    auto region = NvRegion::recover(path, manualConfig(8));
    const char *data = static_cast<const char *>(region->base());
    EXPECT_STREQ(data, "survives the power cut");
    EXPECT_STREQ(data + region->pageSize() * 3, "page three");
    EXPECT_EQ(region->stats().dirtyPages, 0u);
}

TEST_F(RegionFixture, RecoveredRegionIsWritable)
{
    const std::string path = makePath("rewrite");
    {
        auto region = NvRegion::create(path, 64_KiB, manualConfig(4));
        static_cast<char *>(region->base())[0] = '1';
    }
    auto region = NvRegion::recover(path, manualConfig(4));
    char *data = static_cast<char *>(region->base());
    data[0] = '2';
    EXPECT_EQ(data[0], '2');
    EXPECT_EQ(region->stats().writeFaults, 1u);
}

TEST_F(RegionFixture, EpochTickReprotectsDirtyPages)
{
    auto region =
        NvRegion::create(makePath("epoch"), 64_KiB, manualConfig(8));
    char *data = static_cast<char *>(region->base());
    data[0] = 'a';
    EXPECT_EQ(region->stats().writeFaults, 1u);
    region->epochTick();
    // Still dirty (within budget), but re-protected: the next write
    // faults again, which is how recency is sampled.
    data[1] = 'b';
    EXPECT_EQ(region->stats().writeFaults, 2u);
    EXPECT_EQ(region->stats().dirtyPages, 1u);
}

TEST_F(RegionFixture, ColdPagesGetCopiedProactively)
{
    auto region =
        NvRegion::create(makePath("cold"), 256_KiB, manualConfig(8));
    char *data = static_cast<char *>(region->base());
    const std::uint64_t ps = region->pageSize();
    // Dirty 8 pages (at budget), then keep writing only page 0
    // across epochs; pressure stays positive so the copier drains
    // cold pages below the threshold.
    for (int p = 0; p < 8; ++p)
        data[p * ps] = 'x';
    for (int e = 0; e < 10; ++e) {
        region->epochTick();
        data[0] = static_cast<char>('a' + e);
    }
    EXPECT_GT(region->stats().proactiveCopies, 0u);
    EXPECT_LT(region->stats().dirtyPages, 8u);
}

TEST_F(RegionFixture, LoneShardEvictsWithoutBackoff)
{
    // A one-shard region has no sibling to steal quota from, so a
    // budget-limited fault evicts on its first try: no no-evict
    // round trip, no empty steal sweep, no backoff step.
    auto region = NvRegion::create(makePath("lone"), 256_KiB,
                                   manualConfig(4));
    char *data = static_cast<char *>(region->base());
    const std::uint64_t ps = region->pageSize();
    for (std::uint64_t p = 0; p < 16; ++p)
        data[p * ps] = 'x';
    const RegionStats stats = region->stats();
    EXPECT_LE(stats.dirtyPages, 4u);
    EXPECT_GT(stats.blockedEvictions + stats.shedEvictions, 0u);
    EXPECT_EQ(stats.backoffRetries, 0u);
}

TEST_F(RegionFixture, SetDirtyBudgetShrinks)
{
    auto region =
        NvRegion::create(makePath("shrink"), 256_KiB, manualConfig(8));
    char *data = static_cast<char *>(region->base());
    const std::uint64_t ps = region->pageSize();
    for (int p = 0; p < 8; ++p)
        data[p * ps] = 'x';
    region->setDirtyBudget(2);
    EXPECT_LE(region->stats().dirtyPages, 2u);
    // The one-shard region retunes through its budget pool too.
    EXPECT_EQ(region->stats().dirtyBudgetPages, 2u);
    EXPECT_EQ(region->stats().perShard.size(), 1u);
    // And the budget holds for future writes.
    for (std::uint64_t p = 8; p < region->pageCount(); ++p) {
        data[p * ps] = 'y';
        EXPECT_LE(region->stats().dirtyPages, 2u);
    }
}

TEST_F(RegionFixture, EpochThreadRunsUnattended)
{
    RuntimeConfig cfg = manualConfig(8);
    cfg.startEpochThread = true;
    cfg.epochMicros = 200;
    auto region =
        NvRegion::create(makePath("thread"), 64_KiB, cfg);
    char *data = static_cast<char *>(region->base());
    for (int i = 0; i < 50; ++i) {
        data[(i % 8) * region->pageSize()] = static_cast<char>(i);
        ::usleep(100);
    }
    EXPECT_GT(region->stats().epochs, 3u);
}

TEST_F(RegionFixture, RandomWritesSurviveCrashFlush)
{
    const std::string path = makePath("fuzz");
    std::vector<char> expected;
    {
        auto region = NvRegion::create(path, 512_KiB, manualConfig(5));
        char *data = static_cast<char *>(region->base());
        Rng rng(2024);
        for (int i = 0; i < 4000; ++i) {
            const std::uint64_t off =
                rng.nextBounded(region->size() - 8);
            data[off] = static_cast<char>(rng.nextBounded(256));
            if (i % 200 == 0)
                region->epochTick();
        }
        region->flushAll(); // the power-failure flush
        expected.assign(data, data + region->size());
    }
    auto region = NvRegion::recover(path, manualConfig(5));
    EXPECT_EQ(std::memcmp(region->base(), expected.data(),
                          expected.size()),
              0);
}

TEST_F(RegionFixture, ZeroBudgetRejected)
{
    RuntimeConfig cfg;
    cfg.dirtyBudgetPages = 0;
    EXPECT_THROW(NvRegion::create(makePath("zb"), 64_KiB, cfg),
                 FatalError);
}

TEST_F(RegionFixture, CoalescedFlushMakesFileMatchMemory)
{
    // Sequential dirtying with the coalesced-IO path on: victims are
    // page-number-adjacent, so the flush must go out as vectored run
    // writes — and the file must still match memory byte for byte.
    const std::string path = makePath("coalesce");
    RuntimeConfig cfg = manualConfig(8);
    cfg.coalesceRuns = true;
    cfg.maxRunPages = 8;
    cfg.extentShift = 2;
    auto region = NvRegion::create(path, 64_KiB, cfg);
    char *data = static_cast<char *>(region->base());
    const std::uint64_t ps = region->pageSize();
    for (std::uint64_t p = 0; p < region->pageCount(); ++p)
        std::memset(data + p * ps, 'a' + static_cast<int>(p % 26), ps);
    region->flushAll();
    EXPECT_EQ(region->stats().dirtyPages, 0u);

    // Runs actually formed: more pages moved per IO than one.
    const RegionStats stats = region->stats();
    EXPECT_GT(stats.runSubmits, 0u);
    EXPECT_GT(stats.runPagesCoalesced, stats.runSubmits);

    std::ifstream file(path, std::ios::binary);
    std::vector<char> file_bytes(region->size());
    file.read(file_bytes.data(),
              static_cast<std::streamsize>(file_bytes.size()));
    EXPECT_EQ(std::memcmp(file_bytes.data(), data, region->size()), 0);
}

TEST_F(RegionFixture, CoalescedRecoveryRoundTrip)
{
    const std::string path = makePath("coalesce_rec");
    RuntimeConfig cfg = manualConfig(8);
    cfg.coalesceRuns = true;
    cfg.extentShift = 2;
    std::vector<char> expected;
    {
        auto region = NvRegion::create(path, 64_KiB, cfg);
        char *data = static_cast<char *>(region->base());
        Rng rng(0xc0a1e5ce);
        for (std::uint64_t i = 0; i < region->size(); ++i)
            data[i] = static_cast<char>(rng.next());
        expected.assign(data, data + region->size());
        region->flushAll();
    }
    auto region = NvRegion::recover(path, cfg);
    EXPECT_EQ(std::memcmp(region->base(), expected.data(),
                          expected.size()),
              0);
}

TEST_F(RegionFixture, CoalescedWithCopiersMatchesFile)
{
    // The copier-pool run path: one ring slot per run, the worker
    // batch bounded by summed pages, one group sync per batch with a
    // run in it.  End state must equal the inline path's.
    const std::string path = makePath("coalesce_cp");
    RuntimeConfig cfg = manualConfig(8);
    cfg.coalesceRuns = true;
    cfg.maxRunPages = 8;
    cfg.copierThreads = 2;
    auto region = NvRegion::create(path, 256_KiB, cfg);
    char *data = static_cast<char *>(region->base());
    const std::uint64_t ps = region->pageSize();
    for (int sweep = 0; sweep < 3; ++sweep) {
        for (std::uint64_t p = 0; p < region->pageCount(); ++p)
            std::memset(data + p * ps,
                        'A' + static_cast<int>((p + sweep) % 26), ps);
        region->epochTick();
    }
    region->flushAll();
    EXPECT_EQ(region->stats().dirtyPages, 0u);
    EXPECT_GT(region->stats().runSubmits, 0u);

    std::ifstream file(path, std::ios::binary);
    std::vector<char> file_bytes(region->size());
    file.read(file_bytes.data(),
              static_cast<std::streamsize>(file_bytes.size()));
    EXPECT_EQ(std::memcmp(file_bytes.data(), data, region->size()), 0);
}

TEST_F(RegionFixture, CopierThreadsSelectEvictionShedding)
{
    // The same budget-pressured write stream on an inline region and
    // on a region with copiers.  Inline, every budget-limited fault
    // pays a blocking eviction; with copiers, it sheds the eviction
    // to the copier pipeline instead.  Either way the recovered
    // image is the same.
    std::vector<std::vector<char>> images;
    for (unsigned copiers : {0u, 2u}) {
        const std::string path =
            makePath("shed" + std::to_string(copiers));
        cleanup.push_back(path + ".meta");
        RuntimeConfig cfg = manualConfig(8);
        cfg.copierThreads = copiers;
        std::vector<char> expected;
        {
            auto region = NvRegion::create(path, 256_KiB, cfg);
            char *data = static_cast<char *>(region->base());
            const std::uint64_t ps = region->pageSize();
            Rng rng(0x5bed);
            for (int sweep = 0; sweep < 3; ++sweep) {
                for (std::uint64_t p = 0; p < region->pageCount(); ++p)
                    data[p * ps + rng.next() % ps] =
                        static_cast<char>(rng.next());
                region->epochTick();
            }
            const RegionStats stats = region->stats();
            if (copiers == 0) {
                EXPECT_EQ(stats.shedEvictions, 0u);
                EXPECT_GT(stats.blockedEvictions, 0u);
            } else {
                EXPECT_GT(stats.shedEvictions, 0u);
            }
            EXPECT_LE(stats.dirtyPages, 8u);
            expected.assign(data, data + region->size());
            region->flushAll();
        }
        auto region = NvRegion::recover(path, manualConfig(8));
        EXPECT_TRUE(region->recoveryReport().quarantined.empty());
        EXPECT_EQ(std::memcmp(region->base(), expected.data(),
                              expected.size()),
                  0);
        images.push_back(expected);
    }
    EXPECT_EQ(images[0], images[1]);
}

TEST(SyscallRetryTest, FdatasyncReportsNonRetryableErrno)
{
    // EBADF is not transient: the helper must return it to the
    // caller (who escalates) instead of retrying or aborting.
    EXPECT_EQ(fdatasyncWithRetry(-1), EBADF);
}

TEST(SyscallRetryTest, PwriteFullyWritesAndReportsErrors)
{
    const std::string path = tempPath("pwrite");
    const int fd = ::open(path.c_str(), O_CREAT | O_RDWR | O_TRUNC,
                          0600);
    ASSERT_GE(fd, 0);
    const std::string payload = "durable bytes";
    EXPECT_EQ(pwriteFullyWithRetry(fd, payload.data(), payload.size(),
                                   4096),
              0);

    std::vector<char> back(payload.size());
    ASSERT_EQ(::pread(fd, back.data(), back.size(), 4096),
              static_cast<ssize_t>(back.size()));
    EXPECT_EQ(std::string(back.begin(), back.end()), payload);
    ::close(fd);

    // A closed descriptor is a hard error, returned not retried.
    EXPECT_EQ(pwriteFullyWithRetry(fd, payload.data(), payload.size(),
                                   0),
              EBADF);
    ::unlink(path.c_str());
}

TEST(SyscallRetryTest, AdvanceIovecsResumesMidArray)
{
    char buf[600];
    const auto fresh = [&]() {
        return std::array<struct iovec, 3>{
            {{buf, 100}, {buf + 100, 200}, {buf + 300, 300}}};
    };

    // Nothing transferred: array untouched.
    auto iov = fresh();
    EXPECT_EQ(advanceIovecs(iov.data(), 3, 0), 0u);
    EXPECT_EQ(iov[0].iov_len, 100u);

    // Exactly the first entry: resume at index 1, untouched.
    iov = fresh();
    EXPECT_EQ(advanceIovecs(iov.data(), 3, 100), 1u);
    EXPECT_EQ(iov[1].iov_base, buf + 100);
    EXPECT_EQ(iov[1].iov_len, 200u);

    // Mid-second-entry: its base and length shift by the overlap.
    iov = fresh();
    EXPECT_EQ(advanceIovecs(iov.data(), 3, 150), 1u);
    EXPECT_EQ(iov[1].iov_base, buf + 150);
    EXPECT_EQ(iov[1].iov_len, 150u);
    EXPECT_EQ(iov[2].iov_len, 300u);

    // One byte short of everything: resume inside the last entry.
    iov = fresh();
    EXPECT_EQ(advanceIovecs(iov.data(), 3, 599), 2u);
    EXPECT_EQ(iov[2].iov_base, buf + 599);
    EXPECT_EQ(iov[2].iov_len, 1u);

    // Fully transferred: index == count, nothing left.
    iov = fresh();
    EXPECT_EQ(advanceIovecs(iov.data(), 3, 600), 3u);
}

TEST(SyscallRetryTest, PwritevFullyWritesMultipleIovecsAndReportsErrors)
{
    const std::string path = tempPath("pwritev");
    const int fd = ::open(path.c_str(), O_CREAT | O_RDWR | O_TRUNC,
                          0600);
    ASSERT_GE(fd, 0);

    std::string a = "torn ", b = "runs ", c = "never persist clean";
    std::array<struct iovec, 3> iov{{{a.data(), a.size()},
                                     {b.data(), b.size()},
                                     {c.data(), c.size()}}};
    EXPECT_EQ(pwritevFullyWithRetry(fd, iov.data(), 3, 8192), 0);

    const std::string expected = "torn runs never persist clean";
    std::vector<char> back(expected.size());
    ASSERT_EQ(::pread(fd, back.data(), back.size(), 8192),
              static_cast<ssize_t>(back.size()));
    EXPECT_EQ(std::string(back.begin(), back.end()), expected);
    ::close(fd);

    // A closed descriptor is a hard error, returned not retried.
    std::array<struct iovec, 1> bad{{{a.data(), a.size()}}};
    EXPECT_EQ(pwritevFullyWithRetry(fd, bad.data(), 1, 0), EBADF);
    ::unlink(path.c_str());
}

TEST(SyscallRetryTest, PreadFullyReadsAndReportsErrors)
{
    const std::string path = tempPath("pread");
    const int fd = ::open(path.c_str(), O_CREAT | O_RDWR | O_TRUNC,
                          0600);
    ASSERT_GE(fd, 0);
    const std::string payload = "recovered bytes";
    ASSERT_EQ(::pwrite(fd, payload.data(), payload.size(), 4096),
              static_cast<ssize_t>(payload.size()));

    std::vector<char> back(payload.size());
    EXPECT_EQ(preadFullyWithRetry(fd, back.data(), back.size(), 4096),
              0);
    EXPECT_EQ(std::string(back.begin(), back.end()), payload);

    // EOF before the requested length is an error, not a short
    // success: recovery sizes reads from the file, so a short image
    // means the file shrank or the device lied.
    std::vector<char> over(payload.size() + 16);
    EXPECT_EQ(preadFullyWithRetry(fd, over.data(), over.size(), 4096),
              EIO);
    // Reading entirely past the end is the same truncated-image case.
    EXPECT_EQ(preadFullyWithRetry(fd, back.data(), back.size(),
                                  1_MiB),
              EIO);
    ::close(fd);

    // A closed descriptor is a hard error, returned not retried.
    EXPECT_EQ(preadFullyWithRetry(fd, back.data(), back.size(), 4096),
              EBADF);
    ::unlink(path.c_str());
}

// ---------------------------------------------------------------------
// Verified durability: the commit sidecar, recovery classification,
// and the background scrubber (DESIGN.md §10).
// ---------------------------------------------------------------------

TEST_F(RegionFixture, SidecarVerifiesCleanRecovery)
{
    const std::string path = makePath("sidecar");
    cleanup.push_back(path + ".meta");
    const std::uint64_t ps = 4096;
    {
        auto region = NvRegion::create(path, 64_KiB, manualConfig(8));
        ASSERT_EQ(::access((path + ".meta").c_str(), F_OK), 0);
        char *data = static_cast<char *>(region->base());
        for (std::uint64_t p = 0; p < region->pageCount(); ++p)
            std::memset(data + p * ps, 'A' + static_cast<int>(p), ps);
        region->flushAll();
    }
    auto region = NvRegion::recover(path, manualConfig(8));
    const RuntimeRecoveryReport &report = region->recoveryReport();
    EXPECT_TRUE(report.sidecarFound);
    EXPECT_EQ(report.verifiedPages, region->pageCount());
    EXPECT_EQ(report.checksumMismatches, 0u);
    EXPECT_EQ(report.badEntries, 0u);
    EXPECT_TRUE(report.quarantined.empty());
    const char *data = static_cast<const char *>(region->base());
    for (std::uint64_t p = 0; p < region->pageCount(); ++p)
        EXPECT_EQ(data[p * ps], 'A' + static_cast<int>(p));
}

TEST_F(RegionFixture, CorruptBackingPageIsQuarantinedNotTrusted)
{
    const std::string path = makePath("rot");
    cleanup.push_back(path + ".meta");
    const std::uint64_t ps = 4096;
    {
        auto region = NvRegion::create(path, 64_KiB, manualConfig(8));
        char *data = static_cast<char *>(region->base());
        for (std::uint64_t p = 0; p < region->pageCount(); ++p)
            std::memset(data + p * ps, 'A' + static_cast<int>(p), ps);
        region->flushAll();
    }
    // Rot one byte of page 3 behind the runtime's back.
    {
        const int fd = ::open(path.c_str(), O_RDWR);
        ASSERT_GE(fd, 0);
        char byte;
        ASSERT_EQ(::pread(fd, &byte, 1, 3 * ps + 17), 1);
        byte ^= 0x40;
        ASSERT_EQ(::pwrite(fd, &byte, 1, 3 * ps + 17), 1);
        ::close(fd);
    }
    auto region = NvRegion::recover(path, manualConfig(8));
    const RuntimeRecoveryReport &report = region->recoveryReport();
    EXPECT_TRUE(report.sidecarFound);
    EXPECT_EQ(report.checksumMismatches, 1u);
    EXPECT_EQ(report.tornRunPages + report.staleEpochPages +
                  report.silentCorruptPages,
              1u);
    ASSERT_EQ(report.quarantined.size(), 1u);
    EXPECT_EQ(report.quarantined[0], 3u);
    EXPECT_EQ(report.verifiedPages, region->pageCount() - 1);
}

TEST_F(RegionFixture, TornSidecarEntryLoadsPageUnverified)
{
    const std::string path = makePath("tornmeta");
    const std::string meta_path = path + ".meta";
    cleanup.push_back(meta_path);
    const std::uint64_t ps = 4096;
    {
        auto region = NvRegion::create(path, 64_KiB, manualConfig(8));
        char *data = static_cast<char *>(region->base());
        for (std::uint64_t p = 0; p < region->pageCount(); ++p)
            std::memset(data + p * ps, 'A' + static_cast<int>(p), ps);
        region->flushAll();
    }
    // Tear page 2's commit record: its self-CRC must fail, so the
    // page loads unverified (no record to check against) instead of
    // being condemned by garbage metadata.
    {
        const int fd = ::open(meta_path.c_str(), O_RDWR);
        ASSERT_GE(fd, 0);
        const off_t at =
            static_cast<off_t>(MetaSidecar::kEntriesOffset + 2 * 32);
        char byte;
        ASSERT_EQ(::pread(fd, &byte, 1, at), 1);
        byte ^= 0xFF;
        ASSERT_EQ(::pwrite(fd, &byte, 1, at), 1);
        ::close(fd);
    }
    auto region = NvRegion::recover(path, manualConfig(8));
    const RuntimeRecoveryReport &report = region->recoveryReport();
    EXPECT_TRUE(report.sidecarFound);
    EXPECT_EQ(report.badEntries, 1u);
    EXPECT_EQ(report.unverifiedPages, 1u);
    EXPECT_EQ(report.verifiedPages, region->pageCount() - 1);
    EXPECT_EQ(report.checksumMismatches, 0u);
    EXPECT_TRUE(report.quarantined.empty());
    // Content still loads — it just carries no durability claim.
    const char *data = static_cast<const char *>(region->base());
    EXPECT_EQ(data[2 * ps], 'C');
}

TEST_F(RegionFixture, LegacyImageWithoutSidecarLoadsUnverified)
{
    const std::string path = makePath("legacy");
    const std::string meta_path = path + ".meta";
    cleanup.push_back(meta_path);
    {
        auto region = NvRegion::create(path, 64_KiB, manualConfig(8));
        char *data = static_cast<char *>(region->base());
        std::strcpy(data, "legacy but intact");
        region->flushAll();
    }
    // A legacy image is a backing file with no sidecar beside it.
    ASSERT_EQ(::unlink(meta_path.c_str()), 0);
    {
        auto region = NvRegion::recover(path, manualConfig(8));
        const RuntimeRecoveryReport &report = region->recoveryReport();
        EXPECT_FALSE(report.sidecarFound);
        EXPECT_TRUE(report.quarantined.empty());
        // A fresh sidecar starts so future flushes are verified.
        EXPECT_EQ(::access(meta_path.c_str(), F_OK), 0);
        EXPECT_STREQ(static_cast<const char *>(region->base()),
                     "legacy but intact");
        region->flushAll();
    }
    auto region = NvRegion::recover(path, manualConfig(8));
    EXPECT_TRUE(region->recoveryReport().sidecarFound);
    EXPECT_TRUE(region->recoveryReport().quarantined.empty());
}

TEST_F(RegionFixture, BatchedPromotionCommitsExactlyThePersistedRuns)
{
    // commitPending promotes one pwrite per run of contiguous pending
    // pages within a 64-page snapshot word.  Persist runs and gaps —
    // a short run, a run crossing the word boundary at page 64, an
    // isolated page, one full word, and the region's last page — and
    // check every persisted page, and only those, reads COMMITTED.
    const std::string path = makePath("batchpromote");
    const std::string meta_path = path + ".meta";
    cleanup.push_back(meta_path);
    const std::uint64_t ps = 4096;
    const std::uint64_t pages = 256;
    std::vector<bool> persisted(pages, false);
    const auto mark = [&](std::uint64_t first, std::uint64_t count) {
        for (std::uint64_t p = first; p < first + count; ++p)
            persisted[p] = true;
    };
    mark(3, 7);    // short run inside word 0
    mark(60, 11);  // 60..70 crosses the word 0 / word 1 boundary
    mark(100, 1);  // isolated page
    mark(128, 64); // all of word 2
    mark(255, 1);  // last page of the region
    const auto persisted_count = static_cast<std::uint64_t>(
        std::count(persisted.begin(), persisted.end(), true));
    {
        auto region = NvRegion::create(path, pages * ps,
                                       manualConfig(persisted_count));
        char *data = static_cast<char *>(region->base());
        for (std::uint64_t p = 0; p < pages; ++p)
            if (persisted[p])
                std::memset(data + p * ps, 'a' + static_cast<int>(p % 26),
                            ps);
        EXPECT_EQ(region->flushAll(), persisted_count);
    }
    {
        auto meta = MetaSidecar::open(meta_path, pages, ps);
        ASSERT_NE(meta, nullptr);
        EXPECT_EQ(meta->badEntries(), 0u);
        for (std::uint64_t p = 0; p < pages; ++p)
            EXPECT_EQ(meta->entry(p).state,
                      persisted[p] ? core::CommitState::committed
                                   : core::CommitState::invalid)
                << "page " << p;
    }
    auto region = NvRegion::recover(path, manualConfig(persisted_count));
    const RuntimeRecoveryReport &report = region->recoveryReport();
    EXPECT_TRUE(report.sidecarFound);
    EXPECT_EQ(report.verifiedPages, persisted_count);
    EXPECT_EQ(report.unverifiedPages, pages - persisted_count);
    EXPECT_EQ(report.checksumMismatches, 0u);
    EXPECT_TRUE(report.quarantined.empty());
    const char *data = static_cast<const char *>(region->base());
    for (std::uint64_t p = 0; p < pages; ++p)
        EXPECT_EQ(data[p * ps + ps - 1],
                  persisted[p] ? 'a' + static_cast<int>(p % 26) : 0)
            << "page " << p;
}

TEST_F(RegionFixture, HandWrittenV2SidecarRecoversVerified)
{
    // The on-disk v2 format, written byte by byte rather than through
    // MetaSidecar: a 64-byte header in slot (generation % 2) at 0 or
    // 512, and one 32-byte entry per page from 4096 —
    // {crc32c, flags 0/1/2, epoch, runId, storedLen, entryCrc}.  An
    // image written this way must recover fully verified, including
    // one compressed slot and one PENDING record.
    const std::string path = makePath("v2format");
    const std::uint64_t ps = 4096;
    const std::uint64_t pages = 16;
    std::vector<char> image(pages * ps);
    for (std::uint64_t p = 0; p < pages; ++p)
        for (std::uint64_t i = 0; i < ps; ++i)
            image[p * ps + i] = static_cast<char>(p * 31 + i * 7);
    std::memset(image.data() + 5 * ps, 'z', ps); // compresses well

    std::vector<char> file = image;
    std::vector<char> meta(4096 + pages * 32, 0);
    const auto put = [](std::vector<char> &buf, std::size_t at,
                        auto value) {
        std::memcpy(buf.data() + at, &value, sizeof(value));
    };
    for (std::uint64_t p = 0; p < pages; ++p) {
        const std::size_t at = 4096 + p * 32;
        std::uint32_t stored = 0;
        if (p == 5) {
            std::vector<std::uint8_t> zip(common::pagezipBound(ps));
            stored = static_cast<std::uint32_t>(common::pagezipCompress(
                image.data() + p * ps, ps, zip.data(), zip.size()));
            ASSERT_GT(stored, 0u);
            std::memcpy(file.data() + p * ps, zip.data(), stored);
        }
        put(meta, at, common::crc32c(image.data() + p * ps, ps));
        put(meta, at + 4, std::uint32_t{p == 9 ? 1u : 2u});
        put(meta, at + 8, std::uint64_t{3});      // epoch
        put(meta, at + 16, std::uint64_t{p / 4}); // run id
        put(meta, at + 24, stored);
        put(meta, at + 28, common::crc32c(meta.data() + at, 28));
    }
    // Generation 1 lands in slot 1; slot 0 stays zero (invalid).
    const std::size_t h = 512;
    put(meta, h, std::uint64_t{0x3154454D4F594956ULL}); // magic
    put(meta, h + 8, std::uint32_t{2});                 // version
    put(meta, h + 16, std::uint64_t{1});                // generation
    put(meta, h + 24, std::uint64_t{3});                // sealed epoch
    put(meta, h + 32, std::uint64_t{3});                // sealed run
    put(meta, h + 40, pages);
    put(meta, h + 48, ps);
    put(meta, h + 56, common::crc32c(meta.data() + h, 56));
    {
        std::ofstream out(path, std::ios::binary);
        out.write(file.data(), static_cast<std::streamsize>(file.size()));
        std::ofstream out_meta(path + ".meta", std::ios::binary);
        out_meta.write(meta.data(),
                       static_cast<std::streamsize>(meta.size()));
    }

    auto region = NvRegion::recover(path, manualConfig(8));
    const RuntimeRecoveryReport &report = region->recoveryReport();
    EXPECT_TRUE(report.sidecarFound);
    EXPECT_EQ(report.badEntries, 0u);
    EXPECT_EQ(report.verifiedPages, pages);
    EXPECT_EQ(report.compressedPages, 1u);
    EXPECT_EQ(report.checksumMismatches, 0u);
    EXPECT_TRUE(report.quarantined.empty());
    EXPECT_EQ(std::memcmp(region->base(), image.data(), image.size()), 0);
}

TEST_F(RegionFixture, ScrubTickRepairsRottedDurableCopy)
{
    const std::string path = makePath("scrub");
    cleanup.push_back(path + ".meta");
    const std::uint64_t ps = 4096;
    auto region = NvRegion::create(path, 64_KiB, manualConfig(8));
    char *data = static_cast<char *>(region->base());
    for (std::uint64_t p = 0; p < region->pageCount(); ++p)
        std::memset(data + p * ps, 'A' + static_cast<int>(p), ps);
    region->flushAll();

    // Rot page 5's durable copy while the region is live; DRAM still
    // holds the committed content.
    {
        const int fd = ::open(path.c_str(), O_RDWR);
        ASSERT_GE(fd, 0);
        char byte;
        ASSERT_EQ(::pread(fd, &byte, 1, 5 * ps + 100), 1);
        byte ^= 0x08;
        ASSERT_EQ(::pwrite(fd, &byte, 1, 5 * ps + 100), 1);
        ::close(fd);
    }

    region->scrubTick(region->pageCount());
    const RegionStats stats = region->stats();
    EXPECT_EQ(stats.scrubMismatches, 1u);
    EXPECT_EQ(stats.scrubRepaired, 1u);
    EXPECT_GT(stats.scrubScanned, 0u);

    // The durable image matches memory again.
    std::ifstream file(path, std::ios::binary);
    std::vector<char> file_bytes(region->size());
    file.read(file_bytes.data(),
              static_cast<std::streamsize>(file_bytes.size()));
    EXPECT_EQ(std::memcmp(file_bytes.data(), data, region->size()),
              0);

    // A second pass finds nothing new to repair.
    region->scrubTick(region->pageCount());
    EXPECT_EQ(region->stats().scrubMismatches, 1u);
}

TEST_F(RegionFixture, ScrubRunsWhilePoolHoldsSpareQuota)
{
    // A one-shard region keeps part of its budget in the pool.  The
    // scrubber yields near what the shard may admit (quota plus
    // pool), not near its quota alone, so a few dirty pages under a
    // small quota must not stop it.
    const std::string path = makePath("scrubpool");
    const std::uint64_t ps = 4096;
    auto region = NvRegion::create(path, 64_KiB, manualConfig(8));
    char *data = static_cast<char *>(region->base());
    for (std::uint64_t p = 0; p < region->pageCount(); ++p)
        std::memset(data + p * ps, 'A' + static_cast<int>(p), ps);
    region->flushAll();
    for (int i = 0; i < 4; ++i)
        region->epochTick();
    for (std::uint64_t p = 0; p < 3; ++p)
        data[p * ps] = 'z';
    ASSERT_EQ(region->stats().dirtyPages, 3u);
    ASSERT_EQ(region->stats().poolAvailablePages, 4u);

    // Rot clean page 9's durable copy while the region is live.
    {
        const int fd = ::open(path.c_str(), O_RDWR);
        ASSERT_GE(fd, 0);
        char byte;
        ASSERT_EQ(::pread(fd, &byte, 1, 9 * ps + 100), 1);
        byte ^= 0x08;
        ASSERT_EQ(::pwrite(fd, &byte, 1, 9 * ps + 100), 1);
        ::close(fd);
    }

    region->scrubTick(region->pageCount());
    const RegionStats stats = region->stats();
    EXPECT_EQ(stats.scrubScanned, region->pageCount() - 3);
    EXPECT_EQ(stats.scrubSkippedBusy, 3u);
    EXPECT_EQ(stats.scrubMismatches, 1u);
    EXPECT_EQ(stats.scrubRepaired, 1u);
}

TEST_F(RegionFixture, RecoveryCountsEachMismatchClassApart)
{
    // One page of each class, each rotted in a crash image:
    //  - silent: committed in an epoch before the last seal;
    //  - stale: committed in the sealed epoch;
    //  - torn: recorded PENDING by a persist with no barrier since.
    const std::string path = makePath("classes");
    const std::string crash = makePath("classes_crash");
    const std::uint64_t ps = 4096;
    PageNum torn = 0;
    {
        auto region = NvRegion::create(path, 64_KiB, manualConfig(8));
        char *data = static_cast<char *>(region->base());
        data[1 * ps] = 's';
        region->flushAll(); // page 1 committed and sealed
        region->epochTick();
        data[2 * ps] = 'e';
        region->flushAll(); // page 2 committed in the newer seal
        // More pages than the budget: copies and evictions persist
        // some of them PENDING, and only a barrier would promote them.
        for (std::uint64_t p = 3; p < 13; ++p)
            data[p * ps] = 't';
        std::filesystem::copy_file(path, crash);
        std::filesystem::copy_file(path + ".meta", crash + ".meta");
    }
    {
        auto meta = MetaSidecar::open(crash + ".meta", 16, ps);
        ASSERT_NE(meta, nullptr);
        const std::uint64_t sealed = meta->lastSealedEpoch();
        EXPECT_EQ(meta->entry(1).state, core::CommitState::committed);
        EXPECT_EQ(meta->entry(1).epoch + 1, sealed);
        EXPECT_EQ(meta->entry(2).state, core::CommitState::committed);
        EXPECT_EQ(meta->entry(2).epoch, sealed);
        for (PageNum p = 3; p < 13 && torn == 0; ++p)
            if (meta->entry(p).state == core::CommitState::pending)
                torn = p;
        ASSERT_NE(torn, 0u);
    }
    {
        const int fd = ::open(crash.c_str(), O_RDWR);
        ASSERT_GE(fd, 0);
        for (const PageNum p : {PageNum{1}, PageNum{2}, torn}) {
            char byte;
            ASSERT_EQ(::pread(fd, &byte, 1, p * ps + 7), 1);
            byte ^= 0x10;
            ASSERT_EQ(::pwrite(fd, &byte, 1, p * ps + 7), 1);
        }
        ::close(fd);
    }
    auto region = NvRegion::recover(crash, manualConfig(8));
    const RuntimeRecoveryReport &report = region->recoveryReport();
    EXPECT_TRUE(report.sidecarFound);
    EXPECT_EQ(report.checksumMismatches, 3u);
    EXPECT_EQ(report.silentCorruptPages, 1u);
    EXPECT_EQ(report.staleEpochPages, 1u);
    EXPECT_EQ(report.tornRunPages, 1u);
    EXPECT_EQ(report.quarantined,
              (std::vector<PageNum>{1, 2, torn}));
}

// ---------------------------------------------------------------------
// Compressed copy-out path (RuntimeConfig::compressFlush)
// ---------------------------------------------------------------------

RuntimeConfig
compressConfig(std::uint64_t budget)
{
    RuntimeConfig cfg = manualConfig(budget);
    cfg.copierThreads = 2; // the codec runs on copier threads only
    cfg.compressFlush = true;
    return cfg;
}

TEST_F(RegionFixture, CompressFlushRejectsUnsupportedConfigs)
{
    // No copiers: inline persists run on the SIGSEGV admission path,
    // which must never reach the codec.
    RuntimeConfig no_copiers = compressConfig(4);
    no_copiers.copierThreads = 0;
    EXPECT_THROW(
        NvRegion::create(makePath("cz_nc"), 64_KiB, no_copiers),
        FatalError);
}

TEST_F(RegionFixture, CompressedFlushShipsFewerBytesAndRecovers)
{
    const std::string path = makePath("cz_rt");
    cleanup.push_back(path + ".meta");
    const std::uint64_t ps = 4096;
    std::vector<char> expected;
    {
        auto region =
            NvRegion::create(path, 64_KiB, compressConfig(8));
        char *data = static_cast<char *>(region->base());
        for (std::uint64_t p = 0; p < region->pageCount(); ++p)
            std::memset(data + p * ps, 'A' + static_cast<int>(p),
                        ps);
        expected.assign(data, data + region->size());
        region->flushAll();
        const RegionStats stats = region->stats();
        EXPECT_GT(stats.compressedPersists, 0u);
        // Constant-fill pages compress hard: the wire carried far
        // fewer bytes than the raw pages it retired.
        EXPECT_LT(stats.storedBytesPersisted,
                  stats.bytesPersisted / 4);
    }
    // Recovery needs no compressFlush of its own: the stored length
    // rides in the commit record, so a plain config decodes and
    // verifies the compressed image.
    auto region = NvRegion::recover(path, manualConfig(8));
    const RuntimeRecoveryReport &report = region->recoveryReport();
    EXPECT_TRUE(report.sidecarFound);
    EXPECT_GT(report.compressedPages, 0u);
    EXPECT_EQ(report.verifiedPages, region->pageCount());
    EXPECT_EQ(report.checksumMismatches, 0u);
    EXPECT_TRUE(report.quarantined.empty());
    EXPECT_EQ(std::memcmp(region->base(), expected.data(),
                          expected.size()),
              0);
}

TEST_F(RegionFixture, IncompressiblePagesBypassToRawAndRecover)
{
    const std::string path = makePath("cz_rand");
    cleanup.push_back(path + ".meta");
    std::vector<char> expected;
    {
        auto region =
            NvRegion::create(path, 64_KiB, compressConfig(8));
        char *data = static_cast<char *>(region->base());
        Rng rng(0x5eed);
        for (std::uint64_t i = 0; i < region->size(); ++i)
            data[i] = static_cast<char>(rng.next());
        expected.assign(data, data + region->size());
        region->flushAll();
        const RegionStats stats = region->stats();
        // Random pages never clear the codec's ~1.05 gate: every
        // copier persist bypassed to raw.
        EXPECT_GT(stats.compressBypasses, 0u);
        EXPECT_EQ(stats.compressedPersists, 0u);
    }
    auto region = NvRegion::recover(path, manualConfig(8));
    const RuntimeRecoveryReport &report = region->recoveryReport();
    EXPECT_EQ(report.compressedPages, 0u);
    EXPECT_EQ(report.verifiedPages, region->pageCount());
    EXPECT_TRUE(report.quarantined.empty());
    EXPECT_EQ(std::memcmp(region->base(), expected.data(),
                          expected.size()),
              0);
}

TEST_F(RegionFixture, CorruptCompressedSlotIsQuarantined)
{
    const std::string path = makePath("cz_rot");
    cleanup.push_back(path + ".meta");
    const std::uint64_t ps = 4096;
    {
        auto region =
            NvRegion::create(path, 64_KiB, compressConfig(8));
        char *data = static_cast<char *>(region->base());
        for (std::uint64_t p = 0; p < region->pageCount(); ++p)
            std::memset(data + p * ps, 'A' + static_cast<int>(p),
                        ps);
        region->flushAll();
        ASSERT_GT(region->stats().compressedPersists, 0u);
    }
    // Rot a byte INSIDE page 3's stored stream (constant-fill pages
    // encode to well under 64 bytes, so offset 5 is inside it).
    {
        const int fd = ::open(path.c_str(), O_RDWR);
        ASSERT_GE(fd, 0);
        char byte;
        ASSERT_EQ(::pread(fd, &byte, 1, 3 * ps + 5), 1);
        byte ^= 0x40;
        ASSERT_EQ(::pwrite(fd, &byte, 1, 3 * ps + 5), 1);
        ::close(fd);
    }
    auto region = NvRegion::recover(path, manualConfig(8));
    const RuntimeRecoveryReport &report = region->recoveryReport();
    EXPECT_TRUE(report.sidecarFound);
    // Decode failure or raw-CRC mismatch — either way the page is
    // condemned, classified, and quarantined like any other
    // corruption.
    EXPECT_EQ(report.checksumMismatches, 1u);
    EXPECT_EQ(report.tornRunPages + report.staleEpochPages +
                  report.silentCorruptPages,
              1u);
    ASSERT_EQ(report.quarantined.size(), 1u);
    EXPECT_EQ(report.quarantined[0], 3u);
    EXPECT_EQ(report.verifiedPages, region->pageCount() - 1);
}

TEST_F(RegionFixture, ScrubRepairsRottedCompressedSlot)
{
    const std::string path = makePath("cz_scrub");
    cleanup.push_back(path + ".meta");
    const std::uint64_t ps = 4096;
    auto region = NvRegion::create(path, 64_KiB, compressConfig(8));
    char *data = static_cast<char *>(region->base());
    for (std::uint64_t p = 0; p < region->pageCount(); ++p)
        std::memset(data + p * ps, 'A' + static_cast<int>(p), ps);
    region->flushAll();
    ASSERT_GT(region->stats().compressedPersists, 0u);

    // Rot page 5's stored stream while the region is live.
    {
        const int fd = ::open(path.c_str(), O_RDWR);
        ASSERT_GE(fd, 0);
        char byte;
        ASSERT_EQ(::pread(fd, &byte, 1, 5 * ps + 5), 1);
        byte ^= 0x08;
        ASSERT_EQ(::pwrite(fd, &byte, 1, 5 * ps + 5), 1);
        ::close(fd);
    }

    region->scrubTick(region->pageCount());
    const RegionStats stats = region->stats();
    EXPECT_EQ(stats.scrubMismatches, 1u);
    EXPECT_EQ(stats.scrubRepaired, 1u);

    // A second pass is clean (the repair rewrote the slot raw with a
    // fresh commit record), and recovery round-trips the content.
    region->scrubTick(region->pageCount());
    EXPECT_EQ(region->stats().scrubMismatches, 1u);
    std::vector<char> expected(data, data + region->size());
    region.reset();
    auto recovered = NvRegion::recover(path, manualConfig(8));
    EXPECT_EQ(recovered->recoveryReport().checksumMismatches, 0u);
    EXPECT_TRUE(recovered->recoveryReport().quarantined.empty());
    EXPECT_EQ(std::memcmp(recovered->base(), expected.data(),
                          expected.size()),
              0);
}

} // namespace
} // namespace viyojit::runtime
