/**
 * @file
 * Benchmark binary: repeats one workload until --seconds have passed
 * and prints one JSON line with every metric it measured (the median
 * over repetitions) and the correctness tallies.  perfbench/run.py
 * builds and drives it.
 *
 *   perfbench_bin --workload kv-a|mt-b|sim-a --seed N --seconds S
 *                 --trace 0|1 --tmpdir DIR [--trace-out FILE]
 *                 [--tiny] [--negative-control] [--check-harness]
 *
 * With --trace 1 untraced and traced repetitions alternate: counters
 * and timings come from the untraced ones, os.* and trace.* from the
 * traced ones (LD_PRELOAD=libperfbench_syscount.so is required), and
 * the spans of the last traced repetition go to --trace-out.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "suite/report.hh"
#include "suite/workloads.hh"

using namespace perfbench;

namespace
{

struct Aggregate
{
    Metric metric;
    std::uint64_t samples = 0;
};

using Aggregates = std::map<std::string, Aggregate>;

/** Per-metric median over repetitions. */
Aggregates
medians(const std::vector<RepResult> &reps)
{
    std::map<std::string, std::vector<double>> values;
    std::map<std::string, std::string> units;
    for (const RepResult &rep : reps)
        for (const auto &[name, metric] : rep.metrics) {
            values[name].push_back(metric.value);
            units[name] = metric.unit;
        }
    Aggregates out;
    for (auto &[name, list] : values)
        out[name] = {{median(list), units[name]}, list.size()};
    return out;
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench_bin: %s\nusage: perfbench_bin --workload "
                 "kv-a|mt-b|sim-a --seed N --seconds S --trace 0|1 "
                 "--tmpdir DIR [--trace-out FILE] [--tiny] "
                 "[--negative-control] [--check-harness]\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    double seconds = 0.0;
    bool trace = false;
    std::string trace_out;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--workload" && has_value)
            options.workload = argv[++i];
        else if (arg == "--seed" && has_value)
            options.seed = std::strtoull(argv[++i], nullptr, 10);
        else if (arg == "--seconds" && has_value)
            seconds = std::strtod(argv[++i], nullptr);
        else if (arg == "--trace" && has_value)
            trace = std::string(argv[++i]) == "1";
        else if (arg == "--tmpdir" && has_value)
            options.tmpdir = argv[++i];
        else if (arg == "--trace-out" && has_value)
            trace_out = argv[++i];
        else if (arg == "--tiny")
            options.tiny = true;
        else if (arg == "--negative-control")
            options.negativeControl = true;
        else if (arg == "--check-harness")
            options.checkHarness = true;
        else
            return usage(("unknown argument " + arg).c_str());
    }
    if (options.tmpdir.empty() || !(seconds > 0.0))
        return usage("--tmpdir and a positive --seconds are required");

    const SyscallProbe probe;
    if (trace && !probe.available())
        return usage("--trace 1 needs LD_PRELOAD=libperfbench_syscount.so");

    try {
        std::unique_ptr<Workload> workload;
        if (options.workload == "kv-a")
            workload = makeKvA(options);
        else if (options.workload == "mt-b")
            workload = makeMtB(options);
        else if (options.workload == "sim-a")
            workload = makeSimA(options);
        else
            return usage(("unknown workload " + options.workload).c_str());

        std::vector<RepResult> plain;
        std::vector<RepResult> traced;
        const std::uint64_t deadline =
            nowNs() + static_cast<std::uint64_t>(seconds * 1e9);
        // One progress line per repetition on stderr.
        auto note = [](const char *leg, std::size_t n, const RepResult &r) {
            std::fprintf(stderr, "%s rep %zu:", leg, n);
            for (const char *name : {"setup_s", "ops_per_s", "flush_ms"})
                if (const auto it = r.metrics.find(name);
                    it != r.metrics.end())
                    std::fprintf(stderr, " %s=%.4g", name, it->second.value);
            std::fprintf(stderr, " failed=%llu\n",
                         static_cast<unsigned long long>(r.failed));
        };
        do {
            plain.push_back(workload->rep(nullptr));
            note("untraced", plain.size(), plain.back());
            if (trace) {
                traced.push_back(workload->rep(&probe));
                note("traced", traced.size(), traced.back());
            }
        } while (nowNs() < deadline);

        std::uint64_t attempted = 0;
        std::uint64_t failed = 0;
        for (std::vector<RepResult> *leg : {&plain, &traced})
            for (RepResult &rep : *leg) {
                attempted += rep.attempted;
                failed += rep.failed;
            }

        Aggregates metrics = medians(plain);
        metrics["peak_rss_mib"] = {{peakRssMib(), "MiB"}, 1};

        if (trace) {
            const Aggregates traced_metrics = medians(traced);
            for (const auto &[name, agg] : traced_metrics)
                if (name.rfind("os.", 0) == 0 || name.rfind("trace.", 0) == 0)
                    metrics[name] = agg;
            // Tracing overhead: traced throughput against untraced.
            const Aggregate &fast = metrics.at("ops_per_s");
            const Aggregate &slow = traced_metrics.at("ops_per_s");
            metrics["trace.untraced_ops_per_s"] = fast;
            metrics["trace.traced_ops_per_s"] = slow;
            metrics["trace.ops_ratio"] = {
                {slow.metric.value / fast.metric.value, "ratio"},
                slow.samples};
            Metrics once;
            workload->addTracedRunMetrics(once);
            for (const auto &[name, metric] : once)
                metrics[name] = {metric, 1};
            if (!trace_out.empty() &&
                !writeSpans(trace_out, workload->tracers()))
                std::fprintf(stderr, "perfbench_bin: cannot write %s\n",
                             trace_out.c_str());
        }

        std::printf("{\"reps\": %zu, \"traced_reps\": %zu, "
                    "\"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                    plain.size(), traced.size(),
                    static_cast<unsigned long long>(attempted),
                    static_cast<unsigned long long>(failed));
        const char *sep = "";
        for (const auto &[name, agg] : metrics) {
            if (!std::isfinite(agg.metric.value)) {
                std::fprintf(stderr, "perfbench_bin: %s is not finite\n",
                             name.c_str());
                return 1;
            }
            std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\", "
                        "\"samples\": %llu}",
                        sep, name.c_str(), agg.metric.value,
                        agg.metric.unit.c_str(),
                        static_cast<unsigned long long>(agg.samples));
            sep = ", ";
        }
        std::printf("}}\n");
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_bin: %s\n", e.what());
        return 1;
    }
}
