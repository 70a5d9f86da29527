#include "core/pressure.hh"

#include <cmath>

#include "common/logging.hh"

namespace viyojit::core
{

DirtyPagePressure::DirtyPagePressure(double current_weight)
    : currentWeight_(current_weight)
{
    VIYOJIT_ASSERT(current_weight > 0.0 && current_weight <= 1.0,
                   "EWMA weight out of range");
}

void
DirtyPagePressure::observe(std::uint64_t new_dirty_pages)
{
    predicted_ = currentWeight_ * static_cast<double>(new_dirty_pages) +
                 (1.0 - currentWeight_) * predicted_;
}

std::uint64_t
DirtyPagePressure::threshold(std::uint64_t budget_pages) const
{
    const auto pressure =
        static_cast<std::uint64_t>(std::ceil(predicted_));
    const std::uint64_t floor = budget_pages / 2;
    return pressure >= budget_pages - floor ? floor
                                            : budget_pages - pressure;
}

} // namespace viyojit::core
