#include "core/torture.hh"

#include <algorithm>
#include <limits>
#include <sstream>
#include <vector>

#include "battery/fault_injector.hh"
#include "common/rng.hh"
#include "core/manager.hh"
#include "core/safe_mode.hh"
#include "mmu/mmu.hh"
#include "sim/context.hh"
#include "storage/ssd.hh"

namespace viyojit::core
{

namespace
{

/** Page rewrites the last cut of a batched run may spend to put a
 *  run in flight to cut into. */
constexpr std::uint64_t kMidRunSearchSteps = 4096;

/**
 * Size the battery so the healthy-hardware derived budget sits ~30%
 * above the nominal dirty budget: big enough that the governor idles
 * while everything is healthy, small enough that injected battery or
 * SSD degradation genuinely forces safe-mode shrinks.
 */
battery::BatteryConfig
sizeBattery(const TortureConfig &torture, const storage::SsdConfig &ssd,
            const SafeModeConfig &safe, const battery::PowerModel &power,
            std::uint64_t page_size)
{
    // Mirror FaultModel::expectedWriteAttempts: silent faults retry
    // through the read-back verify exactly like status-visible
    // errors, so they amplify the flush payload the same way.
    const double intact = (1.0 - torture.silentBitFlipProb) *
                          (1.0 - torture.droppedWriteProb) *
                          (1.0 - torture.misdirectedWriteProb);
    const double attempts =
        1.0 / ((1.0 - torture.writeErrorProb) * intact);
    const double flush_rate =
        ssd.writeBandwidth * safe.bandwidthSafetyFactor / attempts;
    const double payload_seconds =
        static_cast<double>(torture.dirtyBudgetPages * page_size) /
        flush_rate;
    // The attempt amplification above covers the MEAN retry payload
    // as amortized bandwidth.  Verify-retries do not amortize: the
    // failed page is split out of its coalesced run and re-serviced
    // alone — serialized behind a retry backoff, paying the per-IO
    // latency its run had amortized away.  Corruption-mode runs
    // therefore carry extra headroom for that serialized retry tail;
    // this is the battery cost of end-to-end verification, paid in
    // provisioning rather than in silently accepted wrong data.
    const double headroom = intact < 1.0 ? 1.45 : 1.3;
    const double window_seconds =
        ticksToSeconds(safe.flushOverheadReserve) +
        payload_seconds * headroom;

    battery::BatteryConfig config;
    config.nominalJoules = window_seconds * power.flushWatts() /
                           (config.chemistryDerate *
                            config.depthOfDischarge);
    return config;
}

/**
 * Fill `len` bytes of workload payload.  Compressed-flush mode
 * writes record-style data — short random keys padded with a
 * constant filler, the shape the paper's copy-out compression is
 * meant to exploit (~4x) — so the codec path actually engages;
 * otherwise pure random bytes, which the codec bypasses.
 */
void
fillPayload(Rng &rng, std::vector<char> &payload, std::uint64_t len,
            bool compressible)
{
    if (!compressible) {
        for (std::uint64_t i = 0; i < len; ++i)
            payload[i] = static_cast<char>(rng.next());
        return;
    }
    for (std::uint64_t i = 0; i < len; ++i)
        payload[i] = i % 100 < 20
                         ? static_cast<char>(rng.next())
                         : static_cast<char>(0x20);
}

} // namespace

/**
 * N managers (one by default) share the SSD, the battery and one
 * BudgetPool; the governor retunes the pool total through a
 * BudgetDomain.  Every cut asserts the distributed-budget invariant —
 * the SUMMED dirty count never exceeds the (possibly degraded) pooled
 * budget — and flushes every shard on the shared battery window.
 */
TortureResult
runTorture(const TortureConfig &torture)
{
    const std::uint64_t shard_count = torture.shards;
    Rng rng(torture.seed);
    TortureResult result;
    result.shards = shard_count;
    result.minHeadroomJoules = std::numeric_limits<double>::max();

    if (shard_count == 0)
        fatal("torture needs at least one shard");
    if (torture.dirtyBudgetPages < 2 * shard_count)
        fatal("torture needs a dirty budget of at least two pages per "
              "shard");
    if (torture.regionPages < shard_count)
        fatal("torture needs at least one page per shard");

    sim::SimContext ctx;

    // A deliberately slow SSD: page transfers dominate the battery
    // window, so degradation moves the derived budget gradually
    // instead of snapping straight to write-through.
    storage::SsdConfig ssd_config;
    ssd_config.writeBandwidth = 50.0e6;
    ssd_config.readBandwidth = 100.0e6;
    ssd_config.perIoLatency = 80_us;
    ssd_config.enableCompression = torture.compressFlush;
    storage::Ssd ssd(ctx, ssd_config);

    storage::FaultModelConfig fault_config;
    fault_config.seed = rng.next();
    fault_config.writeErrorProb = torture.writeErrorProb;
    fault_config.readErrorProb = torture.readErrorProb;
    fault_config.tailLatencyProb = torture.tailLatencyProb;
    fault_config.silentBitFlipProb = torture.silentBitFlipProb;
    fault_config.droppedWriteProb = torture.droppedWriteProb;
    fault_config.misdirectedWriteProb = torture.misdirectedWriteProb;
    ssd.setFaultModel(
        std::make_unique<storage::FaultModel>(fault_config));
    const bool corruption = torture.silentBitFlipProb > 0.0 ||
                            torture.droppedWriteProb > 0.0 ||
                            torture.misdirectedWriteProb > 0.0;

    const BudgetSplit split =
        splitBudget(torture.dirtyBudgetPages, shard_count);
    BudgetPool pool(torture.dirtyBudgetPages, split.poolPages);

    ViyojitConfig config;
    config.maxIoRetries = 6;
    config.retryBackoffBase = 10_us;
    config.retryBackoffCap = 200_us;
    // Generous deadline: tight enough to exist, loose enough that a
    // saturated device queue does not cascade into timeout storms.
    config.ioTimeout = 10_ms;
    config.retrySeed = rng.next();
    config.coalesceRuns = torture.coalesceRuns;
    config.maxRunPages = torture.maxRunPages;
    config.extentShift = torture.extentShift;
    config.maxBridgePages = torture.maxBridgePages;

    SafeModeConfig safe_config;
    safe_config.flushOverheadReserve = 2_ms;
    safe_config.writeThroughFloorPages =
        std::max<std::uint64_t>(4, 2 * shard_count);

    const battery::PowerModel power;
    battery::Battery battery(
        sizeBattery(torture, ssd_config, safe_config, power,
                    config.pageSize));

    const std::uint64_t shard_pages =
        torture.regionPages / shard_count;
    std::vector<std::unique_ptr<ViyojitManager>> managers;
    std::vector<ViyojitManager *> shard_ptrs;
    std::vector<Addr> bases;
    for (std::uint64_t i = 0; i < shard_count; ++i) {
        managers.push_back(std::make_unique<ViyojitManager>(
            ctx, ssd, config, mmu::MmuCostModel{}, shard_pages,
            static_cast<std::uint32_t>(i), pool, split));
        bases.push_back(
            managers.back()->vmmap(shard_pages * config.pageSize));
        managers.back()->start();
        shard_ptrs.push_back(managers.back().get());
    }

    BudgetDomain domain(shard_ptrs);
    SafeModeGovernor governor(domain, battery, power, safe_config);

    battery::BatteryFaultConfig battery_faults;
    battery_faults.seed = rng.next();
    battery_faults.checkInterval = 1_ms;
    battery_faults.cellFailureProb = 0.15;
    battery_faults.cellFailureStep = 0.05;
    battery_faults.maxFailedFraction = 0.4;
    battery_faults.fadeProb = 0.02;
    battery_faults.fadeStepYears = 0.25;
    battery_faults.recoveryProb = 0.2;
    battery::BatteryFaultInjector battery_injector(ctx, battery,
                                                   battery_faults);
    battery_injector.start();

    std::vector<char> payload(config.pageSize);
    const std::uint64_t shard_bytes = shard_pages * config.pageSize;

    auto fail = [&](std::uint64_t cut, const std::string &detail) {
        result.passed = false;
        result.failingCut = cut;
        result.failureDetail = detail;
    };

    auto summedIo = [&]() {
        IoFaultStats sum;
        for (const auto &manager : managers) {
            const IoFaultStats io = manager->ioFaultStats();
            sum.retries += io.retries;
            sum.abortedCopies += io.abortedCopies;
            sum.runSubmits += io.runSubmits;
            sum.runPagesCoalesced += io.runPagesCoalesced;
            sum.runSplits += io.runSplits;
            sum.verifyFailures += io.verifyFailures;
        }
        return sum;
    };

    // Debug invariant: a settled (clean, idle) written page must match
    // the durable image — anything else would survive a cut wrong.
    // Pages the injector's corruption ledger owns are exempt: their
    // divergence is attributed, and the audit/scrub machinery is what
    // must catch them.
    auto paranoidCheck = [&](std::uint64_t cut, std::uint64_t op) {
        for (std::uint32_t si = 0; si < shard_count; ++si) {
            const ViyojitManager &manager = *managers[si];
            for (PageNum p = 0; p < manager.mappedPages(); ++p) {
                const storage::StorageKey key{si, p};
                if (manager.pageVersion(p) == 0 ||
                    manager.controller().tracker().isDirty(p) ||
                    manager.controller().isInFlight(p))
                    continue;
                if (ssd.corruptionKind(key) !=
                    storage::SilentFaultKind::none)
                    continue;
                if (ssd.durableHash(key) == manager.pageContentHash(p))
                    continue;
                std::ostringstream oss;
                oss << "paranoid: settled page " << p << " of shard "
                    << si << " v" << manager.pageVersion(p)
                    << " does not match the image (cut " << cut
                    << ", op " << op << ")";
                fail(cut, oss.str());
                return false;
            }
        }
        return true;
    };

    for (std::uint64_t cut = 1;
         result.passed && cut <= torture.cuts; ++cut) {
        // Random ops, interleaved with partial event-queue drains so
        // IO completions, epochs, and battery events mix with writes.
        const std::uint64_t ops =
            1 + rng.nextBounded(torture.maxOpsPerRound);
        for (std::uint64_t op = 0; op < ops; ++op) {
            // Ops scatter across shards so quota migrates: bursting
            // shards borrow what idle shards returned at their epoch
            // boundaries.  A lone shard draws no index: even
            // nextBounded(1) consumes a draw, which would shift every
            // later one.
            const std::size_t si =
                shard_count > 1 ? rng.nextBounded(shard_count) : 0;
            ViyojitManager &shard = *managers[si];
            if (rng.nextBool(0.9)) {
                const std::uint64_t len =
                    1 + rng.nextBounded(config.pageSize);
                const Addr addr =
                    bases[si] + rng.nextBounded(shard_bytes - len);
                fillPayload(rng, payload, len,
                            torture.compressFlush);
                shard.memWrite(addr, payload.data(), len);
            } else {
                const std::uint64_t len =
                    1 + rng.nextBounded(config.pageSize);
                shard.read(bases[si] +
                               rng.nextBounded(shard_bytes - len),
                           len);
            }
            if (rng.nextBool(0.25))
                ctx.events().runSteps(rng.nextBounded(8));
            if (torture.paranoid && !paranoidCheck(cut, op))
                break;
        }
        if (!result.passed)
            break;

        // Runtime degradation: SSD wear redraws and battery pack
        // service, on top of the periodic battery fault events.
        if (rng.nextBool(torture.bandwidthDegradeProb)) {
            const double span = 1.0 - torture.bandwidthDegradeFloor;
            ssd.faultModel()->setBandwidthDegradation(
                torture.bandwidthDegradeFloor +
                span * rng.nextDouble());
            governor.reevaluate();
        }
        if (rng.nextBool(torture.packServiceProb)) {
            battery.setFailedCellFraction(0.0);
            battery.setAgeYears(0.0);
        }
        if (torture.scrubPagesPerRound > 0) {
            for (auto &manager : managers) {
                const ScrubReport scrub = manager->scrubPass(
                    torture.scrubPagesPerRound);
                result.scrubScanned += scrub.scanned;
                result.scrubMismatches += scrub.mismatches;
                result.scrubRepairs += scrub.repaired;
                result.scrubRepairFailures += scrub.repairFailures;
            }
        }

        // Land the cut at an arbitrary point in the event stream —
        // possibly mid-transfer or inside a retry backoff.
        ctx.events().runSteps(rng.nextBounded(50));

        // The batched modes exist to cut into the torn-run window: a
        // run is durable only at its single completion.  If no cut
        // has landed there by the last one, keep rewriting pages in
        // order (content unchanged, nothing drawn from `rng`) and
        // stepping events, bounded, until a run is outstanding, and
        // cut there instead of hoping for one.
        if (torture.coalesceRuns && cut == torture.cuts &&
            result.cutsMidRun == 0) {
            for (std::uint64_t step = 0;
                 step < kMidRunSearchSteps && ssd.outstandingRuns() == 0;
                 ++step) {
                const std::size_t si = step % shard_count;
                managers[si]->write(
                    bases[si] + step / shard_count % shard_pages *
                                    config.pageSize,
                    config.pageSize);
                ctx.events().runSteps(1);
            }
        }

        if (ssd.outstanding() > 0)
            ++result.cutsMidFlight;
        if (ssd.outstandingRuns() > 0)
            ++result.cutsMidRun;
        if (governor.mode() != SafeMode::normal)
            ++result.cutsInSafeMode;

        // The distributed-budget invariant: at the instant of the
        // cut, the SUM of per-shard dirty counts must fit the pooled
        // battery budget (as currently retuned by the governor).
        const std::uint64_t summed_dirty = domain.summedDirtyPages();
        result.maxSummedDirtyPages =
            std::max(result.maxSummedDirtyPages, summed_dirty);
        if (summed_dirty > pool.totalPages()) {
            std::ostringstream oss;
            oss << "summed dirty (" << summed_dirty
                << " pages) exceeds the pooled budget ("
                << pool.totalPages() << " pages) at cut " << cut;
            fail(cut, oss.str());
            break;
        }

        // Pre-cut energy headroom against the summed dirty set.
        // With compressed copy-out, credit the WORST per-shard
        // compression floor — the bound the governor budgets with —
        // since the serialized flush ships stored bytes, not raw.
        double floor_ratio = 1.0;
        if (torture.compressFlush) {
            const double worst = domain.compressionFloorRatio();
            if (worst > 1.0)
                floor_ratio = worst;
        }
        const double flush_seconds =
            static_cast<double>(summed_dirty * config.pageSize) /
            floor_ratio / ssd.effectiveWriteBandwidth();
        const double headroom = battery.effectiveJoules() -
                                flush_seconds * power.flushWatts();
        result.minHeadroomJoules =
            std::min(result.minHeadroomJoules, headroom);
        if (headroom < 0.0) {
            std::ostringstream oss;
            oss << "negative pre-cut energy headroom (" << headroom
                << " J) at cut " << cut;
            fail(cut, oss.str());
            break;
        }

        // The cut: power fails for the whole machine at once.  Every
        // shard's epoch machinery stops first, then the shards flush
        // back-to-back on the shared (serialized) SSD; the summed
        // flush must fit the single battery window.
        const IoFaultStats pre_flush = summedIo();
        const double available = battery.effectiveJoules();
        const Tick flush_start = ctx.now();
        std::uint64_t dirty_at_cut = 0;
        for (auto &manager : managers)
            manager->stop();
        for (auto &manager : managers)
            dirty_at_cut += manager->powerFailureFlush()
                                .dirtyPagesAtFailure;
        const Tick flush_duration = ctx.now() - flush_start;
        const double needed =
            ticksToSeconds(flush_duration) * power.flushWatts();
        if (needed > available) {
            const IoFaultStats post = summedIo();
            std::ostringstream oss;
            oss << "flush exceeded the battery at cut " << cut
                << ": needed " << needed << " J, available "
                << available << " J (" << dirty_at_cut
                << " dirty pages across " << shard_count
                << " shard(s), flush took "
                << ticksToSeconds(flush_duration) * 1e3 << " ms)"
                << " [flush deltas: retries "
                << post.retries - pre_flush.retries << ", verifyFail "
                << post.verifyFailures - pre_flush.verifyFailures
                << ", runSubmits "
                << post.runSubmits - pre_flush.runSubmits
                << ", runPages "
                << post.runPagesCoalesced - pre_flush.runPagesCoalesced
                << ", splits " << post.runSplits - pre_flush.runSplits
                << ", wear "
                << ssd.faultModel()->bandwidthFactor() << "]";
            fail(cut, oss.str());
            break;
        }

        // Without corruption the image must come back pristine; name
        // every page that does not.
        bool verified = true;
        std::ostringstream mismatches;
        for (std::uint32_t si = 0; !corruption && si < shard_count;
             ++si) {
            const ViyojitManager &manager = *managers[si];
            if (manager.verifyDurability())
                continue;
            verified = false;
            for (PageNum p = 0; p < manager.mappedPages(); ++p) {
                if (manager.pageVersion(p) == 0 ||
                    ssd.durableHash(storage::StorageKey{si, p}) ==
                        manager.pageContentHash(p))
                    continue;
                mismatches
                    << "; shard " << si << " page " << p << " v"
                    << manager.pageVersion(p)
                    << (manager.controller().tracker().isDirty(p)
                            ? " dirty"
                            : " clean")
                    << (manager.controller().isInFlight(p)
                            ? " in-flight"
                            : "");
            }
        }
        if (!verified) {
            std::ostringstream oss;
            oss << "SSD image failed verification after cut " << cut
                << " outstanding=" << ssd.outstanding()
                << mismatches.str();
            fail(cut, oss.str());
            break;
        }

        // Checked audit after every cut: every settled-image
        // mismatch must be attributed (injector ledger, aborted
        // copy, or unsettled page).  One unattributed mismatch is
        // silent wrong-data acceptance, corruption mode or not.
        DurabilityAuditReport audit;
        for (auto &manager : managers) {
            const DurabilityAuditReport shard_audit =
                manager->verifyDurabilityChecked();
            audit.mismatchedPages += shard_audit.mismatchedPages;
            audit.unattributedPages += shard_audit.unattributedPages;
            audit.tornPages += shard_audit.tornPages;
            audit.silentCorruptPages += shard_audit.silentCorruptPages;
        }
        result.auditMismatches += audit.mismatchedPages;
        result.auditUnattributed += audit.unattributedPages;
        if (audit.unattributedPages > 0) {
            std::ostringstream oss;
            oss << audit.unattributedPages
                << " unattributed settled-image mismatch(es) after "
                << "cut " << cut
                << ": silent wrong-data acceptance (mismatched="
                << audit.mismatchedPages << " torn="
                << audit.tornPages << " silent="
                << audit.silentCorruptPages << ")";
            fail(cut, oss.str());
            break;
        }
        ++result.cutsRun;

        // Power restored: resume epochs and keep going.
        for (auto &manager : managers)
            manager->start();
    }

    battery_injector.stop();
    governor.stopPeriodic();

    const IoFaultStats io = summedIo();
    result.totalRetries = io.retries;
    result.totalAborts = io.abortedCopies;
    result.runSubmits = io.runSubmits;
    result.runPagesCoalesced = io.runPagesCoalesced;
    result.runSplits = io.runSplits;
    result.verifyFailures = io.verifyFailures;
    for (auto &manager : managers) {
        const ControllerStats &cs = manager->controller().stats();
        result.quotaBorrowedPages += cs.quotaBorrowedPages;
        result.quotaReturnedPages += cs.quotaReturnedPages;
    }
    result.injectedWriteErrors =
        ssd.faultModel()->injectedWriteErrors();
    result.injectedSilentFaults =
        ssd.faultModel()->injectedSilentFaults();
    result.safeModeEntries = governor.stats().safeModeEntries;
    result.budgetShrinks = governor.stats().budgetShrinks;
    result.batteryCellFailures =
        battery_injector.stats().cellFailureEvents;
    result.batteryRecoveries =
        battery_injector.stats().recoveryEvents;
    result.budgetPoolPages = pool.totalPages();
    result.ssdBytesWritten = ssd.bytesWritten();
    result.ssdLogicalBytesWritten = ssd.logicalBytesWritten();
    return result;
}

} // namespace viyojit::core
