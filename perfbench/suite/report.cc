#include "suite/report.hh"

#include <dlfcn.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace perfbench
{

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

std::uint64_t
percentile(std::vector<std::uint64_t> &samples, double p)
{
    if (samples.empty())
        return 0;
    // Nearest rank: the smallest value with at least p% of the
    // samples at or below it.
    std::size_t rank = static_cast<std::size_t>(
        p / 100.0 * static_cast<double>(samples.size()) + 0.999999);
    rank = std::clamp<std::size_t>(rank, 1, samples.size());
    std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                     samples.end());
    return samples[rank - 1];
}

void
addLatency(Metrics &out, const std::string &kind,
           std::vector<std::uint64_t> &samples)
{
    if (samples.empty())
        return;
    out[kind + "_samples"] = {static_cast<double>(samples.size()), "count"};
    out[kind + "_p50_us"] = {
        static_cast<double>(percentile(samples, 50.0)) * 1e-3, "us"};
    out[kind + "_p99_us"] = {
        static_cast<double>(percentile(samples, 99.0)) * 1e-3, "us"};
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
peakRssMib()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

Rusage
Rusage::now()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    Rusage r;
    r.userSeconds = static_cast<double>(ru.ru_utime.tv_sec) +
                    static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
    r.sysSeconds = static_cast<double>(ru.ru_stime.tv_sec) +
                   static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
    r.voluntarySwitches = static_cast<std::uint64_t>(ru.ru_nvcsw);
    r.involuntarySwitches = static_cast<std::uint64_t>(ru.ru_nivcsw);
    return r;
}

void
addRusageDelta(Metrics &out, const Rusage &before, const Rusage &after)
{
    out["process.user_cpu_s"] = {after.userSeconds - before.userSeconds,
                                 "s"};
    out["process.sys_cpu_s"] = {after.sysSeconds - before.sysSeconds,
                                "s"};
    out["process.vol_ctx_switches"] = {
        static_cast<double>(after.voluntarySwitches -
                            before.voluntarySwitches),
        "count"};
    out["process.invol_ctx_switches"] = {
        static_cast<double>(after.involuntarySwitches -
                            before.involuntarySwitches),
        "count"};
}

SyscallProbe::SyscallProbe()
{
    read_ = reinterpret_cast<perfbench_syscount_read_fn>(
        ::dlsym(RTLD_DEFAULT, "perfbench_syscount_read"));
    enable_ = reinterpret_cast<perfbench_syscount_enable_fn>(
        ::dlsym(RTLD_DEFAULT, "perfbench_syscount_enable"));
    if (!read_ || !enable_) {
        read_ = nullptr;
        enable_ = nullptr;
    }
}

void
SyscallProbe::enable(bool on) const
{
    if (enable_)
        enable_(on ? 1 : 0);
}

perfbench_syscall_counts
SyscallProbe::read() const
{
    perfbench_syscall_counts counts{};
    if (read_)
        read_(&counts);
    return counts;
}

void
SyscallProbe::addDelta(Metrics &out,
                       const perfbench_syscall_counts &before,
                       const perfbench_syscall_counts &after)
{
    static const char *const names[PERFBENCH_SYSCALL_KINDS] = {
        "mprotect", "pwrite", "pwritev", "pread", "fdatasync", "ioctl"};
    for (int i = 0; i < PERFBENCH_SYSCALL_KINDS; ++i) {
        const std::string base = std::string("os.") + names[i];
        out[base + "_calls"] = {
            static_cast<double>(after.calls[i] - before.calls[i]),
            "count"};
        out[base + "_s"] = {
            static_cast<double>(after.nanos[i] - before.nanos[i]) * 1e-9,
            "s"};
    }
}

const char *
spanNameText(SpanName name)
{
    switch (name) {
      case SpanName::benchSetup: return "bench.setup";
      case SpanName::benchLoad: return "bench.load";
      case SpanName::benchRun: return "bench.run";
      case SpanName::benchFlush: return "bench.flush";
      case SpanName::benchRecover: return "bench.recover";
      case SpanName::benchVerify: return "bench.verify";
      case SpanName::runtimeCreate: return "runtime.create";
      case SpanName::runtimeStats: return "runtime.stats";
      case SpanName::runtimeFlushAll: return "runtime.flushAll";
      case SpanName::runtimeRecover: return "runtime.recover";
      case SpanName::runtimeStore: return "runtime.store";
      case SpanName::pheapCreate: return "pheap.create";
      case SpanName::kvstoreCreate: return "kvstore.create";
      case SpanName::kvstoreGet: return "kvstore.get";
      case SpanName::kvstorePut: return "kvstore.put";
      case SpanName::ycsbLoad: return "ycsb.load";
      case SpanName::ycsbRun: return "ycsb.run";
      case SpanName::coreFinalFlush: return "core.final_flush";
    }
    return "unknown";
}

Tracer::Tracer(std::size_t capacity) : capacity_(capacity)
{
    spans_.reserve(capacity);
}

std::uint32_t
Tracer::begin(SpanName name, std::uint64_t request, std::uint32_t parent)
{
    if (spans_.size() >= capacity_) {
        ++dropped_;
        return none;
    }
    spans_.push_back({name, parent, request, nowNs(), 0});
    return static_cast<std::uint32_t>(spans_.size() - 1);
}

void
Tracer::end(std::uint32_t index)
{
    if (index != none)
        spans_[index].endNs = nowNs();
}

void
Tracer::clear()
{
    spans_.clear();
    dropped_ = 0;
}

void
addSpanSummary(Metrics &out, const std::vector<const Tracer *> &tracers)
{
    std::uint64_t recorded = 0;
    std::uint64_t dropped = 0;
    std::uint64_t layer_calls = 0;
    std::uint64_t layer_ns = 0;
    std::uint64_t run_ns = 0;
    for (const Tracer *tracer : tracers) {
        const std::vector<Span> &spans = tracer->spans();
        recorded += spans.size();
        dropped += tracer->dropped();
        for (const Span &span : spans) {
            const std::uint64_t ns = span.endNs - span.startNs;
            if (span.name == SpanName::benchRun)
                run_ns += ns;
            else if (span.parent != Tracer::none &&
                     spans[span.parent].name == SpanName::benchRun) {
                ++layer_calls;
                layer_ns += ns;
            }
        }
    }
    out["trace.spans"] = {static_cast<double>(recorded), "count"};
    out["trace.spans_dropped"] = {static_cast<double>(dropped), "count"};
    out["trace.layer_calls"] = {static_cast<double>(layer_calls),
                                "count"};
    out["trace.layer_s"] = {static_cast<double>(layer_ns) * 1e-9, "s"};
    out["trace.bench_self_s"] = {
        static_cast<double>(run_ns - std::min(run_ns, layer_ns)) * 1e-9,
        "s"};
}

bool
writeSpans(const std::string &path,
           const std::vector<const Tracer *> &tracers)
{
    std::FILE *file = std::fopen(path.c_str(), "w");
    if (!file)
        return false;
    for (std::size_t t = 0; t < tracers.size(); ++t) {
        const std::vector<Span> &spans = tracers[t]->spans();
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            const long long parent =
                s.parent == Tracer::none ? -1LL
                                         : static_cast<long long>(s.parent);
            std::fprintf(file,
                         "{\"thread\":%zu,\"id\":%zu,\"parent\":%lld,"
                         "\"request\":%llu,\"name\":\"%s\","
                         "\"start_ns\":%llu,\"end_ns\":%llu}\n",
                         t, i, parent,
                         static_cast<unsigned long long>(s.request),
                         spanNameText(s.name),
                         static_cast<unsigned long long>(s.startNs),
                         static_cast<unsigned long long>(s.endNs));
        }
    }
    return std::fclose(file) == 0;
}

} // namespace perfbench
