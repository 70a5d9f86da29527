/**
 * @file
 * Dirty-page-pressure predictor (paper section 5.3).
 *
 * Viyojit counts the new dirty pages each epoch and predicts the next
 * epoch's count with an exponentially decaying average: weight 0.75
 * on the current epoch's count, 0.25 on the previous prediction.  The
 * proactive-copy threshold is the dirty budget minus this pressure,
 * so the system keeps enough slack to absorb the predicted burst
 * without writes blocking on the SSD.
 */

#ifndef VIYOJIT_CORE_PRESSURE_HH
#define VIYOJIT_CORE_PRESSURE_HH

#include <cstdint>

namespace viyojit::core
{

/** EWMA predictor of new-dirty-pages per epoch. */
class DirtyPagePressure
{
  public:
    /** @param current_weight EWMA weight of the newest sample. */
    explicit DirtyPagePressure(double current_weight = 0.75);

    /** Feed the new-dirty count observed for the finished epoch. */
    void observe(std::uint64_t new_dirty_pages);

    /** Predicted new-dirty pages for the next epoch. */
    double predicted() const { return predicted_; }

    /**
     * Proactive-copy threshold: budget minus pressure, floored at
     * half the budget.  The floor is a robustness guard: when the
     * predicted burst exceeds the budget (e.g. epochs firing rarely
     * relative to the write rate), a zero threshold would make every
     * fault drain the entire dirty set — evicting the very pages the
     * current operation is using.  Keeping half the budget for
     * retained hot pages costs nothing when demand is that far over
     * capacity anyway.
     */
    std::uint64_t threshold(std::uint64_t budget_pages) const;

    void reset() { predicted_ = 0.0; }

  private:
    double currentWeight_;
    double predicted_ = 0.0;
};

} // namespace viyojit::core

#endif // VIYOJIT_CORE_PRESSURE_HH
