/**
 * @file
 * Measurement plumbing shared by the benchmark workloads: named
 * metrics with units, exact latency percentiles, in-memory spans,
 * getrusage deltas and the LD_PRELOAD syscall counters.
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "syscount/syscount.h"

namespace perfbench
{

/** One measured value and its unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

using Metrics = std::map<std::string, Metric>;

/** Monotonic wall clock in nanoseconds. */
std::uint64_t nowNs();

/** Seconds between two nowNs() readings. */
inline double
secondsBetween(std::uint64_t start_ns, std::uint64_t end_ns)
{
    return static_cast<double>(end_ns - start_ns) * 1e-9;
}

/** Nearest-rank percentile of raw samples (sorts in place); 0 when
 *  empty. */
std::uint64_t percentile(std::vector<std::uint64_t> &samples, double p);

/**
 * <kind>_p50_us, <kind>_p99_us and <kind>_samples from raw per-op
 * latencies in nanoseconds (reorders `samples`); nothing when empty.
 */
void addLatency(Metrics &out, const std::string &kind,
                std::vector<std::uint64_t> &samples);

/** Median of a list of values (copies). */
double median(std::vector<double> values);

/** Peak resident set size of this process, MiB. */
double peakRssMib();

/** getrusage(RUSAGE_SELF) snapshot covering every thread. */
struct Rusage
{
    double userSeconds = 0.0;
    double sysSeconds = 0.0;
    std::uint64_t voluntarySwitches = 0;
    std::uint64_t involuntarySwitches = 0;

    static Rusage now();
};

/** Adds process.* metrics for the interval [before, after]. */
void addRusageDelta(Metrics &out, const Rusage &before,
                    const Rusage &after);

/**
 * The interposer's counters, when the binary runs under
 * LD_PRELOAD=libperfbench_syscount.so; inert otherwise.
 */
class SyscallProbe
{
  public:
    SyscallProbe();

    bool available() const { return read_ != nullptr; }

    /** Turn counting on or off (no-op without the interposer). */
    void enable(bool on) const;

    perfbench_syscall_counts read() const;

    /** Adds os.<call>_calls and os.<call>_s for [before, after]. */
    static void addDelta(Metrics &out,
                         const perfbench_syscall_counts &before,
                         const perfbench_syscall_counts &after);

  private:
    perfbench_syscount_read_fn read_ = nullptr;
    perfbench_syscount_enable_fn enable_ = nullptr;
};

/** Span names: one per call into a layer, plus benchmark phases. */
enum class SpanName : std::uint32_t
{
    benchSetup,
    benchLoad,
    benchRun,
    benchFlush,
    benchRecover,
    benchVerify,
    runtimeCreate,
    runtimeStats,
    runtimeFlushAll,
    runtimeRecover,
    runtimeStore,
    pheapCreate,
    kvstoreCreate,
    kvstoreGet,
    kvstorePut,
    ycsbLoad,
    ycsbRun,
    coreFinalFlush,
};

const char *spanNameText(SpanName name);

/** One recorded interval; `parent` indexes the same tracer. */
struct Span
{
    SpanName name;
    std::uint32_t parent;
    std::uint64_t request;
    std::uint64_t startNs;
    std::uint64_t endNs;
};

/**
 * Fixed-capacity, single-thread span buffer.  Spans live in memory
 * until the run ends; a full buffer counts drops instead of
 * allocating inside a timed loop.
 */
class Tracer
{
  public:
    static constexpr std::uint32_t none = ~0u;

    explicit Tracer(std::size_t capacity);

    std::uint32_t begin(SpanName name, std::uint64_t request,
                        std::uint32_t parent);
    void end(std::uint32_t index);

    void clear();

    const std::vector<Span> &spans() const { return spans_; }
    std::uint64_t dropped() const { return dropped_; }

  private:
    std::vector<Span> spans_;
    std::size_t capacity_;
    std::uint64_t dropped_ = 0;
};

/** RAII span; does nothing when `tracer` is null. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tracer, SpanName name, std::uint64_t request = 0,
               std::uint32_t parent = Tracer::none)
        : tracer_(tracer),
          index_(tracer ? tracer->begin(name, request, parent)
                        : Tracer::none)
    {}

    ~ScopedSpan()
    {
        if (tracer_)
            tracer_->end(index_);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::uint32_t index() const { return index_; }

  private:
    Tracer *tracer_;
    std::uint32_t index_;
};

/**
 * trace.* metrics from the spans: recorded and dropped spans, calls
 * into the measured layer (children of bench.run spans), the time
 * inside them, and the benchmark loop's own self time (bench.run
 * duration not covered by its child spans).
 */
void addSpanSummary(Metrics &out, const std::vector<const Tracer *> &tracers);

/** Write every span as one JSON object per line; false on IO error. */
bool writeSpans(const std::string &path,
                const std::vector<const Tracer *> &tracers);

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH
