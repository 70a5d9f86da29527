/**
 * @file
 * Power-failure injection and durability verification.
 *
 * Durability is Viyojit's hard guarantee (section 4.1): at any
 * instant, the energy needed to flush the current dirty set must not
 * exceed what the battery can deliver.  The injector cuts wall power
 * at an arbitrary virtual time, runs the emergency flush, checks the
 * energy books, and verifies that the SSD image now matches every
 * written page.
 */

#ifndef VIYOJIT_CORE_FAILURE_HH
#define VIYOJIT_CORE_FAILURE_HH

#include "battery/battery.hh"
#include "core/manager.hh"

namespace viyojit::core
{

/** Outcome of one injected power failure. */
struct FailureReport
{
    /** Pages dirty at the instant power was lost. */
    std::uint64_t dirtyPages = 0;

    /** Bytes flushed on battery. */
    std::uint64_t bytesFlushed = 0;

    /** Modelled wall-clock duration of the flush. */
    Tick flushDuration = 0;

    /** Joules the flush required (power model x duration). */
    double joulesNeeded = 0.0;

    /** Joules the battery could deliver. */
    double joulesAvailable = 0.0;

    /** True when the battery covered the flush. */
    bool survived = false;

    /** True when every written page verified against the SSD. */
    bool contentVerified = false;
};

/** Joules a last-gasp flush of `raw_bytes` dirty bytes needs, at
 *  compression floor `floor_ratio` (no credit below 1); each caller
 *  picks its own floor. */
double predictedFlushJoules(std::uint64_t raw_bytes, double floor_ratio,
                            const storage::Ssd &ssd,
                            const battery::PowerModel &power);

/** Injects power failures into a simulated manager. */
class PowerFailureInjector
{
  public:
    PowerFailureInjector(ViyojitManager &manager,
                         battery::Battery &battery,
                         battery::PowerModel power);

    /**
     * Cut wall power now: flush on battery, account energy, verify
     * content.  The manager's epoch machinery is stopped; call
     * ViyojitManager::start() to model a recovery/reboot.
     */
    FailureReport inject();

    /**
     * Energy headroom check without failing: joules needed for the
     * current dirty set vs. joules available.  Must never be negative
     * for a correctly budgeted system.
     */
    double currentHeadroomJoules() const;

  private:
    ViyojitManager &manager_;
    battery::Battery &battery_;
    battery::PowerModel power_;
};

} // namespace viyojit::core

#endif // VIYOJIT_CORE_FAILURE_HH
