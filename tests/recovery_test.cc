/**
 * @file
 * Tests for the post-reboot restore manager: strategy behaviours,
 * residency invariants, demand/background interleaving, and the
 * availability ordering section 8 predicts.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/checksum.hh"
#include "common/logging.hh"
#include "common/pagezip.hh"
#include "common/rng.hh"
#include "core/durable_image.hh"
#include "core/recovery.hh"

namespace viyojit::core
{
namespace
{

struct RecoveryFixture : public ::testing::Test
{
    static constexpr std::uint64_t pages = 64;
    static constexpr std::uint64_t pageSize = 4096;

    RecoveryFixture()
        : ssd(ctx, storage::SsdConfig{})
    {
        // Persist an image for every page.
        for (PageNum p = 0; p < pages; ++p)
            ssd.writePageSync({0, p}, p + 1, pageSize);
        ctx.events().drain();
    }

    RecoveryManager
    make(RestoreStrategy strategy, unsigned depth = 8)
    {
        return RecoveryManager(ctx, ssd, 0, pages, pageSize, strategy,
                               depth);
    }

    sim::SimContext ctx;
    storage::Ssd ssd;
};

TEST_F(RecoveryFixture, NothingResidentBeforeBegin)
{
    RecoveryManager recovery = make(RestoreStrategy::eager);
    EXPECT_EQ(recovery.residentPages(), 0u);
    EXPECT_FALSE(recovery.fullyResident());
}

TEST_F(RecoveryFixture, EagerSweepLoadsEverything)
{
    RecoveryManager recovery = make(RestoreStrategy::eager);
    recovery.begin();
    recovery.waitUntilFullyResident();
    EXPECT_TRUE(recovery.fullyResident());
    EXPECT_EQ(recovery.stats().backgroundFetches, pages);
    EXPECT_EQ(recovery.stats().demandFetches, 0u);
    EXPECT_GT(recovery.stats().fullyResidentAt, 0u);
}

TEST_F(RecoveryFixture, EagerAccessWaitsForSweep)
{
    RecoveryManager recovery = make(RestoreStrategy::eager);
    recovery.begin();
    // The last page is reached only after the whole sweep.
    const Tick stall = recovery.access(pages - 1);
    EXPECT_GT(stall, 0u);
    EXPECT_TRUE(recovery.fullyResident() ||
                recovery.residentPages() >= pages - 1);
}

TEST_F(RecoveryFixture, DemandOnlyFetchesExactlyWhatIsTouched)
{
    RecoveryManager recovery = make(RestoreStrategy::demandOnly);
    recovery.begin();
    recovery.access(5);
    recovery.access(9);
    recovery.access(5); // already resident: no new fetch
    EXPECT_EQ(recovery.stats().demandFetches, 2u);
    EXPECT_EQ(recovery.stats().backgroundFetches, 0u);
    EXPECT_EQ(recovery.residentPages(), 2u);
    EXPECT_FALSE(recovery.fullyResident());
}

TEST_F(RecoveryFixture, ResidentAccessIsFree)
{
    RecoveryManager recovery = make(RestoreStrategy::demandOnly);
    recovery.begin();
    recovery.access(7);
    EXPECT_EQ(recovery.access(7), 0u);
}

TEST_F(RecoveryFixture, BackgroundSweepSkipsDemandedPages)
{
    RecoveryManager recovery =
        make(RestoreStrategy::demandPlusBackground, 2);
    recovery.begin();
    recovery.access(0); // the sweep would fetch 0 anyway
    recovery.access(50);
    recovery.waitUntilFullyResident();
    EXPECT_TRUE(recovery.fullyResident());
    // No double fetches: every page is read exactly once (the sweep
    // skips pages that were demand-fetched or already queued).
    EXPECT_EQ(recovery.stats().demandFetches +
                  recovery.stats().backgroundFetches,
              pages);
}

TEST_F(RecoveryFixture, DemandPlusBackgroundServesFasterThanEager)
{
    // First access to a far page: eager waits for the whole sweep,
    // demand fetches just that page.
    RecoveryManager eager = make(RestoreStrategy::eager, 4);
    eager.begin();
    const Tick eager_stall = eager.access(pages - 1);

    sim::SimContext ctx2;
    storage::Ssd ssd2(ctx2, storage::SsdConfig{});
    for (PageNum p = 0; p < pages; ++p)
        ssd2.writePageSync({0, p}, p + 1, pageSize);
    ctx2.events().drain();
    RecoveryManager demand(ctx2, ssd2, 0, pages, pageSize,
                           RestoreStrategy::demandPlusBackground, 4);
    demand.begin();
    const Tick demand_stall = demand.access(pages - 1);

    EXPECT_LT(demand_stall, eager_stall);
}

TEST_F(RecoveryFixture, RandomAccessPatternAlwaysCompletes)
{
    RecoveryManager recovery =
        make(RestoreStrategy::demandPlusBackground);
    recovery.begin();
    Rng rng(4);
    for (int i = 0; i < 200; ++i)
        recovery.access(rng.nextBounded(pages));
    recovery.waitUntilFullyResident();
    EXPECT_TRUE(recovery.fullyResident());
    EXPECT_EQ(recovery.residentPages(), pages);
}

TEST_F(RecoveryFixture, InvalidConfigRejected)
{
    EXPECT_THROW(RecoveryManager(ctx, ssd, 0, 0, pageSize,
                                 RestoreStrategy::eager),
                 FatalError);
    EXPECT_THROW(RecoveryManager(ctx, ssd, 0, pages, pageSize,
                                 RestoreStrategy::eager, 0),
                 FatalError);
}

// ---------------------------------------------------------------------
// The durable-image rules both substrates share (core/durable_image).
// ---------------------------------------------------------------------

TEST(DurableImageTest, ClassifyMismatchByStateAndSealedEpoch)
{
    struct Row
    {
        CommitState state;
        std::uint64_t epoch;
        std::uint64_t sealed;
        MismatchClass expect;
    };
    const Row rows[] = {
        {CommitState::committed, 6, 5, MismatchClass::torn},
        {CommitState::committed, 5, 5, MismatchClass::stale},
        {CommitState::committed, 4, 5, MismatchClass::silent},
        {CommitState::committed, 0, 5, MismatchClass::silent},
        {CommitState::committed, 0, 0, MismatchClass::stale},
        {CommitState::committed, 1, 0, MismatchClass::torn},
        // An unpromoted record is torn wherever its epoch sits.
        {CommitState::pending, 6, 5, MismatchClass::torn},
        {CommitState::pending, 5, 5, MismatchClass::torn},
        {CommitState::pending, 0, 5, MismatchClass::torn},
    };
    for (const Row &row : rows) {
        const CommitRecord record{.epoch = row.epoch, .state = row.state};
        EXPECT_EQ(classifyMismatch(record, row.sealed), row.expect)
            << "state " << static_cast<int>(row.state) << " epoch "
            << row.epoch << " sealed " << row.sealed;
    }
}

TEST(DurableImageTest, VerifySlotChecksRawAndDecodedPages)
{
    constexpr std::size_t ps = 4096;
    std::vector<char> page(ps, 'q');
    std::memcpy(page.data(), "durable", 7);
    const std::uint32_t crc = common::crc32c(page.data(), ps);
    std::vector<char> raw(ps);

    // A raw slot verifies in place; one flipped bit fails it.
    CommitRecord record{.crc = crc, .state = CommitState::committed};
    EXPECT_TRUE(verifySlot(page.data(), record, ps, raw.data()));
    std::vector<char> rotted = page;
    rotted[100] ^= 0x01;
    EXPECT_FALSE(verifySlot(rotted.data(), record, ps, raw.data()));

    // A compressed slot decodes into scratch and checks the raw CRC.
    std::vector<std::uint8_t> slot(common::pagezipBound(ps));
    const std::size_t stored = common::pagezipCompress(
        page.data(), ps, slot.data(), slot.size());
    ASSERT_GT(stored, 0u);
    record.storedLen = static_cast<std::uint32_t>(stored);
    EXPECT_TRUE(verifySlot(slot.data(), record, ps, raw.data()));
    EXPECT_EQ(std::memcmp(raw.data(), page.data(), ps), 0);

    // A record for other content, a rotted stream, and a stored
    // length past the page are all mismatches.
    CommitRecord other = record;
    other.crc = crc ^ 1;
    EXPECT_FALSE(verifySlot(slot.data(), other, ps, raw.data()));
    slot[stored / 2] ^= 0x40;
    EXPECT_FALSE(verifySlot(slot.data(), record, ps, raw.data()));
    record.storedLen = ps + 1;
    EXPECT_FALSE(verifySlot(slot.data(), record, ps, raw.data()));
}

} // namespace
} // namespace viyojit::core
