/**
 * @file
 * Failover drill: a fleet operator's worst week, compressed.
 *
 * A server runs a write-heavy workload on battery-bounded NV-DRAM
 * while its battery pack ages, overheats, and loses cells.  After
 * each capacity change Viyojit retunes the dirty budget (paper
 * section 8), and we cut power to prove durability still holds with
 * the degraded pack.  The baseline with a full-capacity battery
 * requirement would have had to stop serving at the first capacity
 * drop below 100%.
 */

#include <cstdio>
#include <string>

#include "battery/battery.hh"
#include "common/rng.hh"
#include "core/failure.hh"
#include "core/manager.hh"

using namespace viyojit;

namespace
{

/** Run a burst of page writes with a zipfian working set. */
void
serveTraffic(core::ViyojitManager &manager, Addr base,
             std::uint64_t pages, Rng &rng, int ops)
{
    for (int i = 0; i < ops; ++i) {
        // Cheap zipf-ish skew: quadratic bias toward low pages.
        const double u = rng.nextDouble();
        const auto page =
            static_cast<PageNum>(u * u * static_cast<double>(pages));
        manager.write(base + page * defaultPageSize,
                      64 + rng.nextBounded(1024));
        manager.processEvents();
    }
}

} // namespace

int
main()
{
    sim::SimContext ctx;
    storage::Ssd ssd(ctx, storage::SsdConfig{});

    constexpr std::uint64_t region_pages = 8192;
    core::ViyojitConfig config;
    config.dirtyBudgetPages = 768;
    core::ViyojitManager manager(ctx, ssd, config,
                                 mmu::MmuCostModel{}, region_pages);
    const Addr base = manager.vmmap(region_pages * defaultPageSize);
    manager.start();

    battery::BatteryConfig bat_cfg;
    bat_cfg.nominalJoules = 2500.0;
    battery::Battery battery(bat_cfg);
    battery::PowerModel power;

    // Provision: fresh effective energy covers exactly the budget.
    const double joules_per_page =
        battery.effectiveJoules() /
        static_cast<double>(config.dirtyBudgetPages);
    battery.addCapacityListener([&](double joules) {
        const auto pages =
            static_cast<std::uint64_t>(joules / joules_per_page);
        manager.setDirtyBudget(std::max<std::uint64_t>(pages, 1));
        // The battery budget is the pool total, not the quota the
        // controller currently holds.
        std::printf("  -> budget retuned to %llu pages\n",
                    (unsigned long long)manager.controller()
                        .budgetPool()
                        .totalPages());
    });

    core::PowerFailureInjector injector(manager, battery, power);
    Rng rng(7);

    struct Episode
    {
        const char *label;
        void (*degrade)(battery::Battery &);
    };
    const Episode episodes[] = {
        {"week 1: fresh pack", [](battery::Battery &) {}},
        {"year 2: pack aged",
         [](battery::Battery &b) { b.setAgeYears(2.0); }},
        {"heat wave: 42C ambient",
         [](battery::Battery &b) { b.setAmbientCelsius(42.0); }},
        {"cell failure: 20% capacity lost",
         [](battery::Battery &b) { b.setFailedCellFraction(0.2); }},
    };

    bool all_good = true;
    for (const Episode &episode : episodes) {
        std::printf("%s\n", episode.label);
        episode.degrade(battery);
        serveTraffic(manager, base, region_pages, rng, 4000);
        std::printf("  dirty: %llu pages, headroom: %.1f J\n",
                    (unsigned long long)manager.dirtyPageCount(),
                    injector.currentHeadroomJoules());

        const core::FailureReport report = injector.inject();
        std::printf("  POWER CUT: flushed %llu pages, needed %.1f J"
                    " of %.1f J -> %s, content %s\n",
                    (unsigned long long)report.dirtyPages,
                    report.joulesNeeded, report.joulesAvailable,
                    report.survived ? "survived" : "DEAD",
                    report.contentVerified ? "verified" : "CORRUPT");
        all_good = all_good && report.survived &&
                   report.contentVerified;
        manager.start(); // reboot
    }

    std::printf("\n%s\n", all_good
                              ? "every failover survived on the "
                                "degraded battery"
                              : "DURABILITY VIOLATION");
    return all_good ? 0 : 1;
}
