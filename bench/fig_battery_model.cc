/**
 * @file
 * Battery-model arithmetic from sections 2.2, 5.1 and 8:
 *
 *  - the headline sizing example: 4 TB of DRAM at a 4 GB/s flush
 *    rate and ~300 W needs ~300 KJ (about 10x a phone battery by
 *    volume, ~25x after derating);
 *  - the battery -> dirty-budget conversion across battery sizes;
 *  - dynamic budget retuning as the pack ages, heats up, or loses
 *    cells (section 8, "Handling battery cell failures"), including
 *    the end-to-end effect on a live manager.
 */

#include <iostream>

#include "battery/battery.hh"
#include "bench/harness.hh"
#include "common/table.hh"

using namespace viyojit;
using namespace viyojit::bench;

int
main()
{
    battery::PowerModel power;
    power.cpuWatts = 240.0;
    power.dramWattsPerGib = 0.0;
    power.ssdWatts = 20.0;
    power.otherWatts = 40.0; // 300 W total, the paper's figure

    {
        battery::DirtyBudgetCalculator calc(power, 4.0e9, 1.0);
        Table table("Sizing example (paper section 2.2)");
        table.setHeader({"DRAM", "Flush time", "Energy needed"});
        for (double tb : {1.0, 2.0, 4.0, 8.0}) {
            const auto bytes = static_cast<std::uint64_t>(
                tb * static_cast<double>(1_GiB) * 1024.0);
            table.addRow(
                {Table::fmt(tb, 0) + " TB",
                 Table::fmt(calc.flushSeconds(bytes) / 60.0, 1) +
                     " min",
                 Table::fmt(calc.requiredJoules(bytes) / 1000.0, 0) +
                     " KJ"});
        }
        table.print(std::cout);
        std::cout << "\nPaper: 4 TB at 4 GB/s and ~300 W -> ~300 KJ"
                     " and ~17 minutes of flushing.\n\n";
    }

    {
        battery::DirtyBudgetCalculator calc(power, 4.0e9, 0.8);
        Table table("Battery -> dirty budget conversion");
        table.setHeader({"Nominal (KJ)", "Effective (KJ)",
                         "Dirty budget (GB)", "Budget (4 KiB pages)"});
        for (double kj : {5.0, 10.0, 20.0, 40.0, 80.0}) {
            battery::BatteryConfig cfg;
            cfg.nominalJoules = kj * 1000.0;
            battery::Battery pack(cfg);
            const double effective = pack.effectiveJoules();
            table.addRow(
                {Table::fmt(kj, 0), Table::fmt(effective / 1000.0, 1),
                 Table::fmt(static_cast<double>(
                                calc.budgetBytes(effective)) /
                                static_cast<double>(1_GiB),
                            2),
                 Table::fmt(calc.budgetPages(effective, 4096))});
        }
        table.print(std::cout);
        std::cout << "\n";
    }

    {
        // Section 8 end to end: a live manager retunes its budget as
        // the battery fades, and the dirty set shrinks to match.
        sim::SimContext ctx;
        storage::Ssd ssd(ctx, ExperimentConfig::defaultSsd());
        core::ViyojitConfig cfg;
        cfg.pageSize = PaperScale::pageSize;
        cfg.dirtyBudgetPages = 1024;
        core::ViyojitManager manager(
            ctx, ssd, cfg, ExperimentConfig::defaultMmuCosts(), 8192);
        const Addr base = manager.vmmap(4096 * PaperScale::pageSize);
        manager.start();
        for (PageNum p = 0; p < 1024; ++p)
            manager.write(base + p * PaperScale::pageSize, 64);

        battery::BatteryConfig bat_cfg;
        bat_cfg.nominalJoules = 30000.0;
        battery::Battery pack(bat_cfg);

        // Couple the battery to the manager: capacity changes retune
        // the budget proportionally.  The fresh pack is provisioned
        // for exactly the initial 1024-page budget, so fade maps
        // linearly onto pages (the scaled analogue of the joules ->
        // bytes conversion of section 5.1).
        const double joules_per_page =
            pack.effectiveJoules() / 1024.0;
        pack.addCapacityListener([&](double joules) {
            const auto pages = static_cast<std::uint64_t>(
                joules / joules_per_page);
            manager.setDirtyBudget(std::max<std::uint64_t>(pages, 1));
        });

        Table table("Section 8: budget retuning under battery fade "
                    "(live manager)");
        table.setHeader({"Event", "Effective (KJ)", "Budget (pages)",
                         "Dirty pages"});
        auto row = [&](const std::string &event) {
            table.addRow({event,
                          Table::fmt(pack.effectiveJoules() / 1000.0,
                                     2),
                          Table::fmt(manager.controller()
                                         .budgetPool()
                                         .totalPages()),
                          Table::fmt(manager.dirtyPageCount())});
        };
        row("fresh pack");
        pack.setAgeYears(2.0);
        row("2 years old");
        pack.setAmbientCelsius(40.0);
        row("+ 40C ambient");
        pack.setFailedCellFraction(0.25);
        row("+ 25% cells failed");
        table.print(std::cout);

        std::cout << "\nThe dirty-page count always tracks the shrunk"
                     " budget: the server keeps operating with full"
                     " durability instead of giving up when capacity"
                     " drops (paper section 8).\n";
    }
    return 0;
}
