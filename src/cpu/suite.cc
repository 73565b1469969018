#include "suite.hh"

#include <cmath>
#include <map>

#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace stack3d {
namespace cpu {

TraceSuite::TraceSuite(const SuiteOptions &options)
{
    auto classes = workloads::cpuAppClasses(options.full_suite);
    for (const auto &cls : classes) {
        for (unsigned v = 0; v < cls.variants; ++v) {
            Entry entry;
            entry.class_name = cls.name;
            auto params = workloads::makeVariantParams(cls, v);
            entry.uops = workloads::generateCpuTrace(
                params, options.uops_per_trace,
                options.seed ^ (std::uint64_t(v) << 20) ^
                    std::hash<std::string>{}(cls.name));
            _traces.push_back(std::move(entry));
        }
    }
    stack3d_assert(!_traces.empty(), "empty cpu trace suite");
}

SuiteResult
TraceSuite::run(const PipelineConfig &config) const
{
    obs::Span span("cpu.suite", "cpu");

    PipelineModel model(config);
    SuiteResult result;
    result.num_traces = unsigned(_traces.size());
    result.trace_ipc.reserve(_traces.size());

    double log_sum = 0.0;
    std::map<std::string, std::pair<double, unsigned>> per_class;
    for (const Entry &entry : _traces) {
        CpuResult r = model.run(entry.uops);
        stack3d_assert(r.ipc > 0.0, "zero IPC for trace");
        result.trace_ipc.push_back(r.ipc);
        log_sum += std::log(r.ipc);
        auto &[cls_log, cls_n] = per_class[entry.class_name];
        cls_log += std::log(r.ipc);
        ++cls_n;
        result.uops += r.num_uops;
        result.cycles += r.cycles;
        result.mispredicts += r.mispredicts;
        result.trace_breaks += r.trace_breaks;
        result.sq_stall_cycles += r.sq_stall_cycles;
        result.window_stall_cycles += r.window_stall_cycles;
    }
    result.geomean_ipc = std::exp(log_sum / double(_traces.size()));
    for (const auto &[name, acc] : per_class) {
        result.class_ipc.emplace_back(
            name, std::exp(acc.first / double(acc.second)));
    }
    return result;
}

namespace {

double
stagesEliminatedPct(Path path)
{
    switch (path) {
      case Path::FrontEnd:
        return 12.5;
      case Path::TraceCache:
        return 20.0;
      case Path::RenameAlloc:
        return 25.0;
      case Path::FpLatency:
        return -1.0;   // "Variable" in the paper
      case Path::IntRfRead:
        return 25.0;
      case Path::DcacheRead:
        return 25.0;
      case Path::InstrLoop:
        return 17.0;
      case Path::RetireDealloc:
        return 20.0;
      case Path::FpLoad:
        return 35.0;
      case Path::StoreLifetime:
        return 30.0;
    }
    return 0.0;
}

/** Geomean per-trace speedup of @p config over @p baseline. */
double
geomeanSpeedup(const SuiteResult &baseline, const SuiteResult &config)
{
    double log_sum = 0.0;
    for (std::size_t i = 0; i < baseline.trace_ipc.size(); ++i)
        log_sum += std::log(config.trace_ipc[i] / baseline.trace_ipc[i]);
    return std::exp(log_sum / double(baseline.trace_ipc.size()));
}

} // anonymous namespace

Table4Result
computeTable4(const SuiteOptions &options)
{
    TraceSuite suite(options);
    PipelineConfig planar = PipelineConfig::planar();

    // Each configuration runs once; every gain is computed from the
    // stored per-trace IPCs of the planar baseline.
    Table4Result result;
    result.planar = suite.run(planar);
    for (unsigned p = 0; p < kNumPaths; ++p) {
        PipelineConfig cfg = planar;
        cfg.applyPathReduction(Path(p));
        Table4Row row;
        row.path = Path(p);
        row.stages_eliminated_pct = stagesEliminatedPct(Path(p));
        row.perf_gain_pct =
            (geomeanSpeedup(result.planar, suite.run(cfg)) - 1.0) * 100.0;
        result.rows.push_back(row);
    }

    result.stacked = suite.run(PipelineConfig::stacked3d());
    result.total_perf_gain_pct =
        (geomeanSpeedup(result.planar, result.stacked) - 1.0) * 100.0;
    return result;
}

void
appendSuiteCounters(const SuiteResult &result, obs::CounterSet &out,
                    const std::string &prefix)
{
    out.set(prefix + "traces", double(result.num_traces));
    out.set(prefix + "geomean_ipc", result.geomean_ipc);
    out.set(prefix + "uops", double(result.uops));
    out.set(prefix + "cycles", double(result.cycles));
    out.set(prefix + "ipc",
            result.cycles ? double(result.uops) /
                                double(result.cycles)
                          : 0.0);
    out.set(prefix + "mispredicts", double(result.mispredicts));
    out.set(prefix + "trace_breaks", double(result.trace_breaks));
    out.set(prefix + "sq_stall_cycles",
            double(result.sq_stall_cycles));
    out.set(prefix + "window_stall_cycles",
            double(result.window_stall_cycles));
}

} // namespace cpu
} // namespace stack3d
