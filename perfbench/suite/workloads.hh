/**
 * @file
 * The benchmark's workloads.  Each one drives the program's public
 * API from outside as a closed loop: an application thread issues its
 * next operation only after the previous load or store returned.  Op
 * streams are generated from the seed before anything is timed.
 *
 *  - kv-a:  runtime NvRegion + PersistentHeap + KvStore, YCSB-A,
 *           1 thread, budget 2/17.5 of the loaded heap's pages.
 *  - mt-b:  runtime NvRegion with raw 1 KiB records, YCSB-B, 4 threads
 *           on private partitions, 4 shards and 2 copier threads.
 *  - sim-a: the simulator's Fig 7 row (YCSB-A at 2 paper-GB against
 *           the full-battery baseline) with a power-failure flush.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "suite/report.hh"

namespace perfbench
{

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;

    /** Directory for backing files (created and removed by the
     *  caller). */
    std::string tmpdir;

    /** Small sizes for the self-test. */
    bool tiny = false;

    /** Skip the last-gasp flush before the crash image is taken;
     *  the correctness checks must then report failures. */
    bool negativeControl = false;

    /** sim-a: rerun the Viyojit leg through bench/harness.cc's
     *  runExperiment and require identical virtual-time results. */
    bool checkHarness = false;
};

/** What one repetition measured and checked. */
struct RepResult
{
    Metrics metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

/** One workload: its op streams are generated at construction. */
class Workload
{
  public:
    Workload() = default;
    virtual ~Workload() = default;
    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;

    /**
     * One repetition: set up, load, run, last-gasp flush, recover and
     * verify.  `probe` is non-null on traced repetitions: spans are
     * recorded into tracers() and syscalls from the run phase onwards
     * are counted.
     */
    virtual RepResult rep(const SyscallProbe *probe) = 0;

    /** Spans of the last traced repetition. */
    virtual std::vector<const Tracer *> tracers() const = 0;

    /** Once-per-run metrics of the traced run (KV self-cost
     *  ceiling). */
    virtual void addTracedRunMetrics(Metrics &out) = 0;
};

std::unique_ptr<Workload> makeKvA(const Options &options);
std::unique_ptr<Workload> makeMtB(const Options &options);
std::unique_ptr<Workload> makeSimA(const Options &options);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
