#include "core/failure.hh"

namespace viyojit::core
{

PowerFailureInjector::PowerFailureInjector(ViyojitManager &manager,
                                           battery::Battery &battery,
                                           battery::PowerModel power)
    : manager_(manager), battery_(battery), power_(power)
{
}

FailureReport
PowerFailureInjector::inject()
{
    FailureReport report;
    report.joulesAvailable = battery_.effectiveJoules();

    const FlushReport flush = manager_.powerFailureFlush();
    report.dirtyPages = flush.dirtyPagesAtFailure;
    report.bytesFlushed = flush.bytesFlushed;
    report.flushDuration = flush.flushDuration;
    report.joulesNeeded =
        ticksToSeconds(flush.flushDuration) * power_.flushWatts();
    report.survived = report.joulesNeeded <= report.joulesAvailable;
    report.contentVerified = manager_.verifyDurability();
    return report;
}

double
PowerFailureInjector::currentHeadroomJoules() const
{
    // With compressed copy-out, the emergency flush moves stored
    // bytes, not raw bytes.  Credit the same conservative floor the
    // governor budgets with — the worst recently-observed per-page
    // ratio, never the EWMA — so this predictor and the budget
    // arithmetic agree on what "fits the window" means.
    const double floor_ratio =
        manager_.ssd().config().enableCompression
            ? manager_.controller().tracker().floorRatio()
            : 1.0;
    return battery_.effectiveJoules() -
           predictedFlushJoules(manager_.dirtyBytes(), floor_ratio,
                                manager_.ssd(), power_);
}

double
predictedFlushJoules(std::uint64_t raw_bytes, double floor_ratio,
                     const storage::Ssd &ssd,
                     const battery::PowerModel &power)
{
    // The wear-degraded bandwidth: the device we actually have, not
    // the one on the spec sheet.
    const double flush_seconds = static_cast<double>(raw_bytes) /
                                 (floor_ratio > 1.0 ? floor_ratio : 1.0) /
                                 ssd.effectiveWriteBandwidth();
    return flush_seconds * power.flushWatts();
}

} // namespace viyojit::core
