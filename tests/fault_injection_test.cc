/**
 * @file
 * Fault-injection and degraded-mode tests: the seeded SSD fault
 * model, the manager's retry/timeout/abort machinery, the safe-mode
 * governor's budget re-derivation, runtime battery degradation
 * events, broker floor scaling under a shrunken machine budget, and
 * restore under injected read errors.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "battery/battery.hh"
#include "battery/fault_injector.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "core/broker.hh"
#include "core/failure.hh"
#include "core/manager.hh"
#include "core/recovery.hh"
#include "core/safe_mode.hh"
#include "sim/context.hh"
#include "storage/fault_model.hh"
#include "storage/ssd.hh"

namespace viyojit::core
{
namespace
{

// ---------------------------------------------------------------------
// FaultModel unit behaviour
// ---------------------------------------------------------------------

TEST(FaultModelTest, SameSeedReplaysIdenticalDecisions)
{
    storage::FaultModelConfig config;
    config.seed = 99;
    config.writeErrorProb = 0.3;
    config.readErrorProb = 0.2;
    config.tailLatencyProb = 0.1;
    storage::FaultModel a(config);
    storage::FaultModel b(config);

    for (PageNum p = 0; p < 200; ++p) {
        const auto wa = a.onWriteSubmit(0, p);
        const auto wb = b.onWriteSubmit(0, p);
        EXPECT_EQ(wa.status, wb.status);
        EXPECT_EQ(wa.latencyMultiplier, wb.latencyMultiplier);
        EXPECT_EQ(wa.extraLatency, wb.extraLatency);
        const auto ra = a.onReadSubmit(0, p);
        const auto rb = b.onReadSubmit(0, p);
        EXPECT_EQ(ra.status, rb.status);
    }
    EXPECT_EQ(a.injectedWriteErrors(), b.injectedWriteErrors());
    EXPECT_EQ(a.injectedReadErrors(), b.injectedReadErrors());
    EXPECT_EQ(a.tailLatencySpikes(), b.tailLatencySpikes());
}

TEST(FaultModelTest, HardErrorMarksPageBadAndRemapRecovers)
{
    storage::FaultModelConfig config;
    config.writeErrorProb = 0.999; // probabilities live in [0, 1)
    config.hardErrorFraction = 1.0;
    storage::FaultModel model(config);

    // Deterministic stream: walk pages until the (near-certain)
    // first hard error lands.
    PageNum bad = 0;
    storage::FaultModel::Decision first;
    for (; bad < 16; ++bad) {
        first = model.onWriteSubmit(0, bad);
        if (first.status != storage::IoStatus::ok)
            break;
    }
    ASSERT_EQ(first.status, storage::IoStatus::hardError);
    EXPECT_TRUE(model.isBad(0, bad));
    EXPECT_EQ(model.hardErrors(), 1u);

    // The retry remaps the bad page first (extra latency, counted);
    // with injection off it then succeeds and the page is good again.
    model.setWriteErrorProb(0.0);
    const auto second = model.onWriteSubmit(0, bad);
    EXPECT_EQ(second.status, storage::IoStatus::ok);
    EXPECT_EQ(second.extraLatency, config.remapLatency);
    EXPECT_EQ(model.badPageRemaps(), 1u);
    EXPECT_FALSE(model.isBad(0, bad));
}

TEST(FaultModelTest, TailLatencySpikesMultiplyLatency)
{
    storage::FaultModelConfig config;
    config.tailLatencyProb = 0.999;
    storage::FaultModel model(config);
    storage::FaultModel::Decision spiked;
    for (PageNum p = 0; p < 16; ++p) {
        spiked = model.onWriteSubmit(0, p);
        if (spiked.latencyMultiplier > 1.0)
            break;
    }
    EXPECT_EQ(spiked.status, storage::IoStatus::ok);
    EXPECT_EQ(spiked.latencyMultiplier, config.tailLatencyMultiplier);
    EXPECT_GE(model.tailLatencySpikes(), 1u);
}

TEST(FaultModelTest, ExpectedAttemptsAmplifyWithErrorProbability)
{
    storage::FaultModelConfig config;
    storage::FaultModel model(config);
    EXPECT_DOUBLE_EQ(model.expectedWriteAttempts(), 1.0);
    model.setWriteErrorProb(0.5);
    EXPECT_DOUBLE_EQ(model.expectedWriteAttempts(), 2.0);
}

TEST(FaultModelTest, BandwidthDegradationScalesEffectiveBandwidth)
{
    sim::SimContext ctx;
    storage::SsdConfig config;
    storage::Ssd ssd(ctx, config);
    ssd.setFaultModel(std::make_unique<storage::FaultModel>(
        storage::FaultModelConfig{}));
    const double healthy = ssd.effectiveWriteBandwidth();
    ssd.faultModel()->setBandwidthDegradation(0.5);
    EXPECT_DOUBLE_EQ(ssd.effectiveWriteBandwidth(), healthy * 0.5);
}

// ---------------------------------------------------------------------
// Manager retry / timeout / abort machinery
// ---------------------------------------------------------------------

struct FaultedManagerFixture : public ::testing::Test
{
    static constexpr std::uint64_t pages = 64;

    void
    build(const storage::FaultModelConfig &faults,
          std::uint64_t budget, Tick io_timeout = 0,
          Tick per_io_latency = 20_us)
    {
        storage::SsdConfig ssd_config;
        ssd_config.perIoLatency = per_io_latency;
        ssd = std::make_unique<storage::Ssd>(ctx, ssd_config);
        ssd->setFaultModel(
            std::make_unique<storage::FaultModel>(faults));

        ViyojitConfig config;
        config.dirtyBudgetPages = budget;
        config.maxIoRetries = 6;
        config.retryBackoffBase = 10_us;
        config.retryBackoffCap = 100_us;
        config.ioTimeout = io_timeout;
        config.coalesceRuns = coalesceRuns;
        config.maxRunPages = maxRunPages;
        config.extentShift = extentShift;
        manager = std::make_unique<ViyojitManager>(
            ctx, *ssd, config, mmu::MmuCostModel{}, pages);
        base = manager->vmmap(pages * manager->config().pageSize);
        manager->start();
    }

    void
    touch(PageNum page)
    {
        const char byte = static_cast<char>(page * 31 + 1);
        manager->memWrite(base + page * manager->config().pageSize,
                          &byte, 1);
    }

    sim::SimContext ctx;
    std::unique_ptr<storage::Ssd> ssd;
    std::unique_ptr<ViyojitManager> manager;
    Addr base = 0;

    /** Coalesced-IO knobs, set before build(). */
    bool coalesceRuns = false;
    unsigned maxRunPages = 16;
    unsigned extentShift = 0;
};

TEST_F(FaultedManagerFixture, InjectedErrorsAreRetriedAndDataSurvives)
{
    storage::FaultModelConfig faults;
    faults.seed = 5;
    faults.writeErrorProb = 0.3;
    build(faults, /*budget=*/8);

    // Well past the budget: evictions must push copies through the
    // faulty device.
    for (PageNum p = 0; p < pages; ++p)
        touch(p);
    // Stop the self-rescheduling epochs so the queue can settle.
    manager->stop();
    ctx.events().drain();

    EXPECT_GT(manager->ioFaultStats().retries, 0u);
    EXPECT_GT(ssd->faultModel()->injectedWriteErrors(), 0u);

    manager->powerFailureFlush();
    EXPECT_TRUE(manager->verifyDurability());
}

TEST_F(FaultedManagerFixture, BlockingEvictionExhaustionEscalates)
{
    storage::FaultModelConfig faults;
    faults.seed = 17;
    faults.writeErrorProb = 0.999;
    faults.hardErrorFraction = 0.0;
    build(faults, /*budget=*/2);

    // The third distinct dirty page forces a blocking eviction; every
    // attempt fails, and the fault path cannot abandon the page.
    touch(0);
    touch(1);
    EXPECT_THROW(touch(2), FatalError);
}

TEST_F(FaultedManagerFixture, TimeoutsAbandonAttemptsAndAbortCopies)
{
    // Service time (5 ms latency) far beyond the 1 ms deadline: every
    // async attempt is abandoned at its deadline, and after
    // maxIoRetries the copy aborts, leaving the page dirty.
    build(storage::FaultModelConfig{}, /*budget=*/8,
          /*io_timeout=*/1_ms, /*per_io_latency=*/5_ms);

    for (PageNum p = 0; p < 8; ++p)
        touch(p);
    // Epoch boundaries observe the burst and pump proactive copies.
    ctx.events().runUntil(ctx.now() + 200_ms);

    const IoFaultStats &io = manager->ioFaultStats();
    EXPECT_GT(io.timeouts, 0u);
    EXPECT_GT(io.abortedCopies, 0u);
    // Straggling completions of abandoned attempts were dropped.
    EXPECT_GT(io.staleCompletions, 0u);
    // Aborted copies leave their pages dirty — nothing went clean
    // without landing on the device.
    EXPECT_GT(manager->dirtyPageCount(), 0u);

    manager->powerFailureFlush();
    EXPECT_TRUE(manager->verifyDurability());
}

TEST_F(FaultedManagerFixture, RunSplitsOnBadPageAndDataSurvives)
{
    // Coalesced flush against a device injecting hard errors that
    // mark pages bad: a failed slice must split out of its run and
    // retry through the per-page chain, where the fault model's
    // bad-page remap absorbs it.  Nothing may go clean without
    // landing on the device.
    storage::FaultModelConfig faults;
    faults.seed = 41;
    faults.writeErrorProb = 0.25;
    faults.hardErrorFraction = 0.5;
    coalesceRuns = true;
    extentShift = 2;
    build(faults, /*budget=*/8);

    // Sequential sweeps well past the budget: victims are adjacent,
    // so proactive copies and evictions coalesce into runs.  The
    // emergency flush then drains the rest in page order, in full runs
    // through the still-faulty device — with a 16-page run at 25%
    // per-page error probability, splits are near-certain.
    for (int sweep = 0; sweep < 4; ++sweep)
        for (PageNum p = 0; p < pages; ++p)
            touch(p);
    manager->powerFailureFlush();

    const IoFaultStats io = manager->ioFaultStats();
    EXPECT_GT(io.runSubmits, 0u);
    EXPECT_GT(io.runPagesCoalesced, io.runSubmits);
    EXPECT_GT(io.runSplits, 0u)
        << "runSubmits=" << io.runSubmits
        << " runPages=" << io.runPagesCoalesced
        << " retries=" << io.retries;
    EXPECT_GT(ssd->faultModel()->injectedWriteErrors(), 0u);
    EXPECT_TRUE(manager->verifyDurability());
}

TEST_F(FaultedManagerFixture, GroupCompletionsGoStaleAfterRunTimeout)
{
    // Service time far beyond the IO deadline, coalescing on: every
    // page of a submitted run times out (generation bump) before the
    // group completion event fires, so the whole group completion
    // must be dropped as stale — one stale per page of the run.
    coalesceRuns = true;
    build(storage::FaultModelConfig{}, /*budget=*/8,
          /*io_timeout=*/1_ms, /*per_io_latency=*/5_ms);

    for (PageNum p = 0; p < 8; ++p)
        touch(p);
    ctx.events().runUntil(ctx.now() + 200_ms);

    const IoFaultStats io = manager->ioFaultStats();
    EXPECT_GT(io.runSubmits, 0u);
    EXPECT_GT(io.timeouts, 0u);
    EXPECT_GE(io.staleCompletions, io.runPagesCoalesced);

    manager->powerFailureFlush();
    EXPECT_TRUE(manager->verifyDurability());
}

// ---------------------------------------------------------------------
// Safe-mode governor
// ---------------------------------------------------------------------

struct GovernorFixture : public ::testing::Test
{
    static constexpr std::uint64_t pages = 64;
    static constexpr std::uint64_t budget = 16;

    GovernorFixture()
    {
        storage::SsdConfig ssd_config;
        ssd_config.writeBandwidth = 50.0e6;
        ssd_config.perIoLatency = 80_us;
        ssd = std::make_unique<storage::Ssd>(ctx, ssd_config);
        ssd->setFaultModel(
            std::make_unique<storage::FaultModel>(
                storage::FaultModelConfig{}));

        ViyojitConfig config;
        config.dirtyBudgetPages = budget;
        manager = std::make_unique<ViyojitManager>(
            ctx, *ssd, config, mmu::MmuCostModel{}, pages);
        manager->vmmap(pages * config.pageSize);
        manager->start();
        domain = std::make_unique<BudgetDomain>(
            std::vector<ViyojitManager *>{manager.get()});

        // Battery sized so the healthy derived budget clears the
        // nominal budget with ~30% margin (same sizing rule as the
        // torture harness).
        safeConfig.flushOverheadReserve = 2_ms;
        safeConfig.writeThroughFloorPages = 4;
        const double payload_seconds =
            static_cast<double>(budget * config.pageSize) /
            (ssd_config.writeBandwidth *
             safeConfig.bandwidthSafetyFactor);
        battery::BatteryConfig battery_config;
        battery_config.nominalJoules =
            (ticksToSeconds(safeConfig.flushOverheadReserve) +
             payload_seconds * 1.3) *
            power.flushWatts() /
            (battery_config.chemistryDerate *
             battery_config.depthOfDischarge);
        battery =
            std::make_unique<battery::Battery>(battery_config);
    }

    sim::SimContext ctx;
    std::unique_ptr<storage::Ssd> ssd;
    std::unique_ptr<ViyojitManager> manager;
    std::unique_ptr<BudgetDomain> domain;
    std::unique_ptr<battery::Battery> battery;
    battery::PowerModel power;
    SafeModeConfig safeConfig;
};

TEST_F(GovernorFixture, HealthyHardwareKeepsNominalBudget)
{
    SafeModeGovernor governor(*domain, *battery, power, safeConfig);
    EXPECT_EQ(governor.mode(), SafeMode::normal);
    EXPECT_EQ(governor.appliedBudgetPages(), budget);
    EXPECT_GT(governor.derivedBudgetPages(), budget);
}

TEST_F(GovernorFixture, SsdWearShrinksBudgetAndRecedes)
{
    SafeModeGovernor governor(*domain, *battery, power, safeConfig);

    ssd->faultModel()->setBandwidthDegradation(0.5);
    governor.reevaluate();
    EXPECT_EQ(governor.mode(), SafeMode::degraded);
    EXPECT_LT(governor.appliedBudgetPages(), budget);
    EXPECT_GE(governor.appliedBudgetPages(),
              governor.minBudgetPages());
    EXPECT_GE(governor.stats().safeModeEntries, 1u);
    EXPECT_GE(governor.stats().budgetShrinks, 1u);

    ssd->faultModel()->setBandwidthDegradation(1.0);
    governor.reevaluate();
    EXPECT_EQ(governor.mode(), SafeMode::normal);
    EXPECT_EQ(governor.appliedBudgetPages(), budget);
    EXPECT_GE(governor.stats().budgetGrows, 1u);
}

TEST_F(GovernorFixture, BatteryFadeDrivesGovernorThroughListener)
{
    SafeModeGovernor governor(*domain, *battery, power, safeConfig);
    // No manual reevaluate: the capacity listener must react.
    battery->setFailedCellFraction(0.5);
    EXPECT_LT(governor.appliedBudgetPages(), budget);
    EXPECT_NE(governor.mode(), SafeMode::normal);
}

TEST_F(GovernorFixture, DeepDegradationPinsWriteThroughAndHolds41)
{
    SafeModeGovernor governor(*domain, *battery, power, safeConfig);
    battery->setFailedCellFraction(0.9);
    EXPECT_EQ(governor.mode(), SafeMode::writeThrough);
    // The floor is two pages per shard of the domain: one manager.
    EXPECT_EQ(governor.minBudgetPages(), 2u);
    EXPECT_EQ(governor.appliedBudgetPages(),
              governor.minBudgetPages());
    EXPECT_GE(governor.stats().writeThroughEntries, 1u);

    // Even pinned, the section-4.1 invariant holds on the degraded
    // pack: a cut right now is survivable.
    for (PageNum p = 0; p < 8; ++p) {
        const char byte = static_cast<char>(p + 1);
        manager->memWrite(p * manager->config().pageSize, &byte, 1);
    }
    PowerFailureInjector injector(*manager, *battery, power);
    EXPECT_GE(injector.currentHeadroomJoules(), 0.0);
    const FailureReport report = injector.inject();
    EXPECT_TRUE(report.survived);
    EXPECT_TRUE(report.contentVerified);
}

TEST_F(GovernorFixture, PeriodicModePicksUpSsdWear)
{
    SafeModeGovernor governor(*domain, *battery, power, safeConfig);
    governor.startPeriodic(1_ms);
    ssd->faultModel()->setBandwidthDegradation(0.5);
    ctx.events().runUntil(ctx.now() + 5_ms);
    EXPECT_EQ(governor.mode(), SafeMode::degraded);
    governor.stopPeriodic();
}

TEST_F(GovernorFixture, MeasuredFlushRateRaisesDerivedBudget)
{
    SafeModeGovernor governor(*domain, *battery, power, safeConfig);
    const std::uint64_t nameplate_derived =
        governor.derivedBudgetPages();

    // A coalesced-flush measurement sustaining twice the nameplate
    // rate roughly doubles the derived budget (the flush-overhead
    // reserve keeps it from being exactly 2x).
    governor.setMeasuredFlushBandwidth(
        2.0 * ssd->config().writeBandwidth);
    EXPECT_GT(governor.derivedBudgetPages(),
              nameplate_derived * 3 / 2);
    // The applied budget never exceeds the configured nominal.
    EXPECT_EQ(governor.appliedBudgetPages(), budget);
    EXPECT_EQ(governor.mode(), SafeMode::normal);

    // Reverting to the nameplate model restores the old derivation.
    governor.setMeasuredFlushBandwidth(0.0);
    EXPECT_EQ(governor.derivedBudgetPages(), nameplate_derived);
}

TEST_F(GovernorFixture, MeasuredRateStillDeratesWithLaterSsdWear)
{
    // Degradation that happens AFTER the measurement must still
    // shrink the budget: the measured rate is rescaled by the
    // device's current health factor on every derivation.
    SafeModeGovernor governor(*domain, *battery, power, safeConfig);
    governor.setMeasuredFlushBandwidth(
        2.0 * ssd->config().writeBandwidth);
    const std::uint64_t measured_healthy =
        governor.derivedBudgetPages();

    ssd->faultModel()->setBandwidthDegradation(0.25);
    governor.reevaluate();
    EXPECT_LT(governor.derivedBudgetPages(), measured_healthy / 3);
    EXPECT_EQ(governor.mode(), SafeMode::degraded);
    EXPECT_LT(governor.appliedBudgetPages(), budget);

    ssd->faultModel()->setBandwidthDegradation(1.0);
    governor.reevaluate();
    EXPECT_EQ(governor.derivedBudgetPages(), measured_healthy);
    EXPECT_EQ(governor.mode(), SafeMode::normal);
}

TEST(GovernorCompressionTest, MeasuredRatioRaisesAdmittedBudget)
{
    // The tentpole arithmetic end to end: compressible copy-outs
    // record a measured ratio, the governor scales the admissible
    // dirty budget by the flush-window FLOOR of that ratio — above
    // the configured nominal — and a later incompressible burst
    // drags it straight back down.
    sim::SimContext ctx;
    storage::SsdConfig ssd_config;
    ssd_config.writeBandwidth = 50.0e6;
    ssd_config.enableCompression = true;
    storage::Ssd ssd(ctx, ssd_config);

    ViyojitConfig config;
    config.dirtyBudgetPages = 16;
    ViyojitManager manager(ctx, ssd, config, mmu::MmuCostModel{}, 64);
    const Addr base = manager.vmmap(64 * config.pageSize);
    manager.start();

    battery::PowerModel power;
    SafeModeConfig safe_config;
    safe_config.flushOverheadReserve = 2_ms;
    safe_config.writeThroughFloorPages = 4;
    // Same sizing rule as GovernorFixture: the healthy raw-flush
    // derivation clears the nominal budget with ~30% margin.
    const double payload_seconds =
        static_cast<double>(config.dirtyBudgetPages *
                            config.pageSize) /
        (ssd_config.writeBandwidth *
         safe_config.bandwidthSafetyFactor);
    battery::BatteryConfig battery_config;
    battery_config.nominalJoules =
        (ticksToSeconds(safe_config.flushOverheadReserve) +
         payload_seconds * 1.3) *
        power.flushWatts() /
        (battery_config.chemistryDerate *
         battery_config.depthOfDischarge);
    battery::Battery battery(battery_config);

    BudgetDomain domain({&manager});
    SafeModeGovernor governor(domain, battery, power, safe_config);
    EXPECT_EQ(governor.appliedBudgetPages(), 16u);

    // Phase 1: record-style compressible pages through a real flush,
    // so the copy-out path measures real codec output.
    std::vector<char> page(config.pageSize);
    Rng rng(0x600D);
    for (PageNum p = 0; p < 12; ++p) {
        for (std::uint64_t i = 0; i < config.pageSize; ++i)
            page[i] = i % 100 < 20
                          ? static_cast<char>(rng.next() & 0xFF)
                          : static_cast<char>(0x20);
        manager.memWrite(base + p * config.pageSize, page.data(),
                         page.size());
    }
    manager.powerFailureFlush();
    ASSERT_TRUE(manager.verifyDurability());
    const double floor =
        manager.controller().tracker().floorRatio();
    ASSERT_GE(floor, 1.3) << "record payload should clear 1.3x";

    governor.reevaluate();
    EXPECT_GT(governor.appliedBudgetPages(), 16u)
        << "measured compression must raise admitted dirty pages";
    EXPECT_EQ(governor.mode(), SafeMode::normal);

    // Phase 2: an incompressible burst floors the ratio back to 1,
    // and with it the cap back to the configured nominal.
    manager.start();
    for (PageNum p = 0; p < 12; ++p) {
        for (char &c : page)
            c = static_cast<char>(rng.next() & 0xFF);
        manager.memWrite(base + p * config.pageSize, page.data(),
                         page.size());
    }
    manager.powerFailureFlush();
    EXPECT_DOUBLE_EQ(manager.controller().tracker().floorRatio(),
                     1.0);
    governor.reevaluate();
    EXPECT_EQ(governor.appliedBudgetPages(), 16u);
}

// ---------------------------------------------------------------------
// Battery fault injector
// ---------------------------------------------------------------------

TEST(BatteryFaultInjectorTest, SameSeedSameDegradationTrajectory)
{
    battery::BatteryFaultConfig config;
    config.seed = 12;
    config.checkInterval = 1_ms;
    config.cellFailureProb = 0.3;
    config.fadeProb = 0.2;
    config.recoveryProb = 0.1;

    auto run = [&config]() {
        sim::SimContext ctx;
        battery::Battery battery{battery::BatteryConfig{}};
        battery::BatteryFaultInjector injector(ctx, battery, config);
        injector.start();
        ctx.events().runUntil(100_ms);
        injector.stop();
        return std::tuple{injector.stats().cellFailureEvents,
                          injector.stats().fadeEvents,
                          injector.stats().recoveryEvents,
                          battery.effectiveJoules()};
    };
    EXPECT_EQ(run(), run());
}

TEST(BatteryFaultInjectorTest, EventsFireListenersAndRespectCap)
{
    sim::SimContext ctx;
    battery::Battery battery{battery::BatteryConfig{}};

    battery::BatteryFaultConfig config;
    config.checkInterval = 1_ms;
    config.cellFailureProb = 1.0;
    config.cellFailureStep = 0.1;
    config.maxFailedFraction = 0.3;

    std::uint64_t notifications = 0;
    battery.addCapacityListener(
        [&notifications](double) { ++notifications; });

    battery::BatteryFaultInjector injector(ctx, battery, config);
    injector.start();
    ctx.events().runUntil(20_ms);
    injector.stop();

    EXPECT_GT(injector.stats().cellFailureEvents, 0u);
    EXPECT_GT(notifications, 0u);
    EXPECT_LE(battery.failedCellFraction(),
              config.maxFailedFraction + 1e-9);
}

TEST(BatteryFaultInjectorTest, StopMakesPendingDrawsNoOps)
{
    sim::SimContext ctx;
    battery::Battery battery{battery::BatteryConfig{}};
    battery::BatteryFaultConfig config;
    config.checkInterval = 1_ms;
    config.cellFailureProb = 1.0;
    battery::BatteryFaultInjector injector(ctx, battery, config);
    injector.start();
    ctx.events().runUntil(5_ms);
    injector.stop();
    const std::uint64_t events = injector.stats().cellFailureEvents;
    ctx.events().runUntil(50_ms);
    EXPECT_EQ(injector.stats().cellFailureEvents, events);
}

// ---------------------------------------------------------------------
// Broker under a degraded machine budget
// ---------------------------------------------------------------------

struct BrokerDegradationFixture : public ::testing::Test
{
    static constexpr std::uint64_t pages = 64;

    BrokerDegradationFixture() : ssd(ctx, storage::SsdConfig{})
    {
        ViyojitConfig config;
        config.dirtyBudgetPages = 8;
        a = std::make_unique<ViyojitManager>(
            ctx, ssd, config, mmu::MmuCostModel{}, pages, 0);
        b = std::make_unique<ViyojitManager>(
            ctx, ssd, config, mmu::MmuCostModel{}, pages, 1);
    }

    sim::SimContext ctx;
    storage::Ssd ssd;
    std::unique_ptr<ViyojitManager> a;
    std::unique_ptr<ViyojitManager> b;
};

TEST_F(BrokerDegradationFixture, RegistrationStillRejectsOverdraft)
{
    BatteryBudgetBroker broker(16);
    broker.addTenant(*a, {.minPages = 10});
    EXPECT_THROW(broker.addTenant(*b, {.minPages = 10}), FatalError);
}

TEST_F(BrokerDegradationFixture, ShrunkBudgetScalesFloorsNotFatal)
{
    BatteryBudgetBroker broker(16);
    broker.addTenant(*a, {.minPages = 8});
    broker.addTenant(*b, {.minPages = 8});

    // A degraded battery no longer covers the contracted floors: the
    // broker scales them proportionally instead of oversubscribing.
    broker.setTotalPages(8);
    EXPECT_EQ(broker.totalPages(), 8u);
    const std::uint64_t total =
        broker.allocationOf(0) + broker.allocationOf(1);
    EXPECT_LE(total, 8u);
    EXPECT_GE(broker.allocationOf(0), 1u);
    EXPECT_GE(broker.allocationOf(1), 1u);

    // Recovery restores the contracted minimums.
    broker.setTotalPages(16);
    EXPECT_GE(broker.allocationOf(0), 8u);
    EXPECT_GE(broker.allocationOf(1), 8u);
}

TEST_F(BrokerDegradationFixture, AttachedBatteryRebalancesOnFade)
{
    battery::BatteryConfig battery_config;
    battery_config.nominalJoules = 4000.0;
    battery::Battery battery(battery_config);
    const battery::DirtyBudgetCalculator calc(
        battery::PowerModel{}, 2.0e9);

    BatteryBudgetBroker broker(
        calc.budgetPages(battery.effectiveJoules(),
                         a->config().pageSize));
    broker.addTenant(*a, {.minPages = 2});
    broker.addTenant(*b, {.minPages = 2});
    broker.attachBattery(battery, calc, a->config().pageSize);

    const std::uint64_t healthy = broker.totalPages();
    battery.setFailedCellFraction(0.5);
    EXPECT_LT(broker.totalPages(), healthy);
    EXPECT_GE(broker.totalPages(), 1u);
    battery.setFailedCellFraction(0.0);
    EXPECT_EQ(broker.totalPages(), healthy);
}

// ---------------------------------------------------------------------
// Restore under injected read errors
// ---------------------------------------------------------------------

struct FaultedRecoveryFixture : public ::testing::Test
{
    static constexpr std::uint64_t pages = 64;
    static constexpr std::uint64_t pageSize = 4096;

    FaultedRecoveryFixture() : ssd(ctx, storage::SsdConfig{})
    {
        // Seed the image on the ideal device, then attach the faults.
        for (PageNum p = 0; p < pages; ++p)
            ssd.writePageSync({0, p}, p + 1, pageSize);
        ctx.events().drain();
    }

    void
    injectReadErrors(double prob, std::uint64_t seed = 3)
    {
        storage::FaultModelConfig config;
        config.seed = seed;
        config.readErrorProb = prob;
        ssd.setFaultModel(
            std::make_unique<storage::FaultModel>(config));
    }

    sim::SimContext ctx;
    storage::Ssd ssd;
};

TEST_F(FaultedRecoveryFixture, DemandFetchesRetryThroughReadErrors)
{
    injectReadErrors(0.4);
    RecoveryManager recovery(ctx, ssd, 0, pages, pageSize,
                             RestoreStrategy::demandOnly);
    recovery.begin();
    for (PageNum p = 0; p < pages; ++p)
        recovery.access(p);
    EXPECT_TRUE(recovery.fullyResident());
    EXPECT_GT(recovery.stats().readRetries, 0u);
}

TEST_F(FaultedRecoveryFixture, BackgroundSweepSkipsAndRevisits)
{
    injectReadErrors(0.4);
    RecoveryManager recovery(ctx, ssd, 0, pages, pageSize,
                             RestoreStrategy::demandPlusBackground);
    recovery.begin();
    recovery.waitUntilFullyResident();
    EXPECT_TRUE(recovery.fullyResident());
    EXPECT_GT(recovery.stats().sweepSkips, 0u);
    EXPECT_GT(recovery.stats().fullyResidentAt, 0u);
}

TEST_F(FaultedRecoveryFixture, EagerRestoreSurvivesReadErrors)
{
    injectReadErrors(0.3);
    RecoveryManager recovery(ctx, ssd, 0, pages, pageSize,
                             RestoreStrategy::eager);
    recovery.begin();
    recovery.waitUntilFullyResident();
    EXPECT_TRUE(recovery.fullyResident());
    EXPECT_GT(recovery.stats().fullyResidentAt, 0u);
}

TEST_F(FaultedRecoveryFixture, DemandRetryExhaustionQuarantines)
{
    injectReadErrors(0.999);
    RecoveryManager recovery(ctx, ssd, 0, pages, pageSize,
                             RestoreStrategy::demandOnly,
                             /*max_outstanding_reads=*/16,
                             /*max_read_retries=*/3);
    recovery.begin();
    // Exhausting the demand-read retry budget quarantines the page
    // instead of killing the process: access returns (the caller gets
    // a zero/stale page plus a quarantine record) and recovery keeps
    // making progress.
    recovery.access(0);
    EXPECT_TRUE(recovery.isQuarantined(0));
    EXPECT_EQ(recovery.stats().demandRetryExhausted, 1u);
    EXPECT_EQ(recovery.stats().quarantinedPages, 1u);
    EXPECT_EQ(recovery.quarantinedPages(),
              std::vector<PageNum>{0});
}

TEST_F(FaultedRecoveryFixture, SweepRevisitExhaustionQuarantines)
{
    injectReadErrors(0.95);
    RecoveryManager recovery(ctx, ssd, 0, pages, pageSize,
                             RestoreStrategy::demandPlusBackground,
                             /*max_outstanding_reads=*/8,
                             /*max_read_retries=*/8,
                             /*max_revisit_passes=*/2);
    recovery.begin();
    // No foreground accesses: every page settles through the sweep.
    // At this error rate most pages burn through their revisit passes
    // and must be quarantined — the restore still has to terminate
    // with every page settled one way or the other.
    recovery.waitUntilFullyResident();
    EXPECT_TRUE(recovery.fullyResident());
    EXPECT_EQ(recovery.residentPages(), pages);
    const RecoveryStats &stats = recovery.stats();
    EXPECT_GT(stats.sweepSkips, 0u);
    EXPECT_GT(stats.sweepRevisitExhausted, 0u);
    EXPECT_EQ(stats.quarantinedPages, stats.sweepRevisitExhausted);
    EXPECT_EQ(recovery.quarantinedPages().size(),
              stats.quarantinedPages);
    // Quarantined pages count as settled for the availability clock.
    EXPECT_GT(stats.fullyResidentAt, 0u);
}

TEST_F(FaultedRecoveryFixture, ManifestMismatchesClassifyByEpoch)
{
    // No device faults: every failure below comes from checksum
    // verification.  The image holds hash p+1 per page; three
    // manifest entries lie, each on a different side of the sealed
    // epoch boundary.
    RecoveryManifest manifest;
    manifest.lastSealedEpoch = 5;
    manifest.pages.resize(pages);
    for (PageNum p = 0; p < pages; ++p) {
        manifest.pages[p].crc = p + 1;
        manifest.pages[p].epoch = 4;
        manifest.pages[p].valid = true;
    }
    manifest.pages[7].crc = 0xBAD;
    manifest.pages[7].epoch = 6; // newer than the seal: torn tail
    manifest.pages[8].crc = 0xBAD;
    manifest.pages[8].epoch = 5; // at the seal: stale epoch
    manifest.pages[9].crc = 0xBAD;
    manifest.pages[9].epoch = 3; // long sealed: silent corruption

    RecoveryManager recovery(ctx, ssd, 0, pages, pageSize,
                             RestoreStrategy::demandOnly,
                             /*max_outstanding_reads=*/16,
                             /*max_read_retries=*/1);
    recovery.attachManifest(std::move(manifest));
    recovery.begin();
    for (PageNum p = 0; p < pages; ++p)
        recovery.access(p);

    const RecoveryStats &stats = recovery.stats();
    EXPECT_EQ(stats.checksumMismatches, 3u);
    EXPECT_EQ(stats.tornRunPages, 1u);
    EXPECT_EQ(stats.staleEpochPages, 1u);
    EXPECT_EQ(stats.silentCorruptPages, 1u);
    EXPECT_EQ(stats.demandRetryExhausted, 3u);
    EXPECT_EQ(recovery.quarantinedPages(),
              (std::vector<PageNum>{7, 8, 9}));
    // The clean majority verified and loaded normally.
    EXPECT_FALSE(recovery.isQuarantined(0));
    EXPECT_TRUE(recovery.fullyResident());
    // Settlement includes the quarantined trio: the availability
    // clock stops when the last page is DECIDED, not perfect.
    EXPECT_GT(stats.fullyResidentAt, 0u);
}

} // namespace
} // namespace viyojit::core
