#include "core/broker.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace viyojit::core
{

BatteryBudgetBroker::BatteryBudgetBroker(std::uint64_t total_pages)
    : totalPages_(total_pages)
{
    if (total_pages == 0)
        fatal("broker needs a non-zero machine budget");
}

void
BatteryBudgetBroker::addTenant(ViyojitManager &manager,
                               const TenantPolicy &policy)
{
    if (manager.isBaseline())
        fatal("baseline managers have no budget to broker");
    if (policy.minPages == 0)
        fatal("tenant minimum must be at least one page");
    if (policy.weight <= 0.0)
        fatal("tenant weight must be positive");

    std::uint64_t committed = policy.minPages;
    for (const Tenant &tenant : tenants_)
        committed += tenant.policy.minPages;
    if (committed > totalPages_)
        fatal("tenant minimums (", committed,
              ") exceed the machine budget (", totalPages_, ")");

    tenants_.push_back(
        Tenant{&manager, policy,
               manager.controller().budgetPool().totalPages()});
    recomputeEffectiveMins();
    rebalance();
}

std::uint64_t
BatteryBudgetBroker::demandOf(Tenant &tenant)
{
    const DirtyBudgetController &ctl = tenant.manager->controller();
    const auto burst = static_cast<std::uint64_t>(
        std::ceil(ctl.pressure().predicted()));
    const std::uint64_t faults = ctl.stats().writeFaults;
    const std::uint64_t thrash = faults - tenant.lastWriteFaults;
    tenant.lastWriteFaults = faults;
    return ctl.tracker().count() + burst + thrash + 1;
}

void
BatteryBudgetBroker::rebalance()
{
    if (tenants_.empty())
        return;

    // Pass 1: demands, floored at the (possibly scaled) minimum.
    std::vector<std::uint64_t> target(tenants_.size());
    std::uint64_t total_demand = 0;
    for (std::size_t i = 0; i < tenants_.size(); ++i) {
        target[i] =
            std::max(demandOf(tenants_[i]), tenants_[i].effectiveMin);
        total_demand += target[i];
    }

    if (total_demand <= totalPages_) {
        // Surplus: hand it out by weight (it absorbs future bursts).
        double total_weight = 0.0;
        for (const Tenant &tenant : tenants_)
            total_weight += tenant.policy.weight;
        const std::uint64_t surplus = totalPages_ - total_demand;
        std::uint64_t handed = 0;
        for (std::size_t i = 0; i < tenants_.size(); ++i) {
            const auto share = static_cast<std::uint64_t>(
                static_cast<double>(surplus) *
                tenants_[i].policy.weight / total_weight);
            target[i] += share;
            handed += share;
        }
        // Rounding remainder goes to the first tenant.
        target[0] += surplus - handed;
    } else {
        // Oversubscribed: everyone keeps the minimum; the excess of
        // demand over minimum is scaled down proportionally (by
        // weighted demand) to fit.
        std::uint64_t total_min = 0;
        double weighted_excess = 0.0;
        for (std::size_t i = 0; i < tenants_.size(); ++i) {
            total_min += tenants_[i].effectiveMin;
            weighted_excess +=
                static_cast<double>(target[i] -
                                    tenants_[i].effectiveMin) *
                tenants_[i].policy.weight;
        }
        const std::uint64_t distributable = totalPages_ - total_min;
        std::uint64_t handed = 0;
        for (std::size_t i = 0; i < tenants_.size(); ++i) {
            const double excess =
                static_cast<double>(target[i] -
                                    tenants_[i].effectiveMin) *
                tenants_[i].policy.weight;
            const auto share =
                weighted_excess > 0.0
                    ? static_cast<std::uint64_t>(
                          static_cast<double>(distributable) * excess /
                          weighted_excess)
                    : 0;
            target[i] = tenants_[i].effectiveMin + share;
            handed += share;
        }
        VIYOJIT_ASSERT(handed <= distributable,
                       "broker oversubscribed the budget");
    }

    // Apply: shrinks first so the sum never exceeds the total.
    for (std::size_t i = 0; i < tenants_.size(); ++i) {
        if (target[i] < tenants_[i].allocation) {
            tenants_[i].manager->setDirtyBudget(target[i]);
            tenants_[i].allocation = target[i];
        }
    }
    for (std::size_t i = 0; i < tenants_.size(); ++i) {
        if (target[i] > tenants_[i].allocation) {
            tenants_[i].manager->setDirtyBudget(target[i]);
            tenants_[i].allocation = target[i];
        }
    }
}

void
BatteryBudgetBroker::recomputeEffectiveMins()
{
    std::uint64_t total_min = 0;
    for (const Tenant &tenant : tenants_)
        total_min += tenant.policy.minPages;

    if (total_min <= totalPages_) {
        for (Tenant &tenant : tenants_)
            tenant.effectiveMin = tenant.policy.minPages;
        return;
    }

    // The machine budget no longer covers the contracted floors.
    // Oversubscribing would break the durability invariant for every
    // tenant at once, so scale the floors proportionally instead —
    // each tenant keeps at least one page.
    if (tenants_.size() > totalPages_)
        fatal("machine budget (", totalPages_,
              ") cannot give each of ", tenants_.size(),
              " tenants even one page");
    warn("machine budget (", totalPages_,
         ") below the sum of tenant minimums (", total_min,
         "); scaling contracted floors proportionally");

    std::uint64_t handed = 0;
    for (Tenant &tenant : tenants_) {
        const auto scaled = static_cast<std::uint64_t>(
            static_cast<double>(tenant.policy.minPages) *
            static_cast<double>(totalPages_) /
            static_cast<double>(total_min));
        tenant.effectiveMin = std::max<std::uint64_t>(1, scaled);
        handed += tenant.effectiveMin;
    }
    // The one-page floor can overshoot a tiny budget; trim the
    // largest floors back until the sum fits.
    while (handed > totalPages_) {
        Tenant *largest = nullptr;
        for (Tenant &tenant : tenants_)
            if (tenant.effectiveMin > 1 &&
                (!largest ||
                 tenant.effectiveMin > largest->effectiveMin))
                largest = &tenant;
        VIYOJIT_ASSERT(largest != nullptr,
                       "cannot trim floors below one page each");
        --largest->effectiveMin;
        --handed;
    }
}

void
BatteryBudgetBroker::setTotalPages(std::uint64_t total_pages)
{
    if (total_pages == 0)
        fatal("broker needs a non-zero machine budget");
    totalPages_ = total_pages;
    recomputeEffectiveMins();
    rebalance();
}

void
BatteryBudgetBroker::attachBattery(
    battery::Battery &battery,
    const battery::DirtyBudgetCalculator &calc,
    std::uint64_t page_size)
{
    battery.addCapacityListener(
        [this, calc, page_size](double effective_joules) {
            setTotalPages(std::max<std::uint64_t>(
                1, calc.budgetPages(effective_joules, page_size)));
        });
}

std::uint64_t
BatteryBudgetBroker::allocationOf(std::size_t index) const
{
    VIYOJIT_ASSERT(index < tenants_.size(), "tenant index out of range");
    return tenants_[index].allocation;
}

} // namespace viyojit::core
