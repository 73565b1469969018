/**
 * @file
 * Measurement helpers shared by the perfbench workloads: process
 * resource samples (getrusage + /proc/self/status), per-layer call
 * timing for the traced run, payload digests, and the driver's JSON
 * result record.
 *
 * Every timestamp is CLOCK_MONOTONIC seconds, so a set-up probe can
 * subtract its spawn time from a set-up-only copy's "ready" stamp.
 */

#ifndef PERFBENCH_PROBE_HH
#define PERFBENCH_PROBE_HH

#include <cstdint>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/digest.hh"
#include "common/json.hh"

namespace perfbench {

/** CLOCK_MONOTONIC in seconds. */
double monotonicNow();

/** One getrusage(RUSAGE_SELF) snapshot. */
struct ProcessSample
{
    double user_s = 0.0;
    double sys_s = 0.0;
    double minor_faults = 0.0;
    double major_faults = 0.0;
    double max_rss_mb = 0.0;   ///< ru_maxrss, MiB

    static ProcessSample now();
};

/** Current resident set (VmRSS of /proc/self/status), MiB. */
double vmRssMb();

/**
 * Host cost of one timed phase: wall seconds plus the process's
 * resource deltas across it.
 */
struct PhaseCost
{
    double wall_s = 0.0;
    double user_s = 0.0;
    double sys_s = 0.0;
    double minor_faults = 0.0;
    double major_faults = 0.0;
};

/** Starts at construction; stop() returns the cost since then. */
class PhaseTimer
{
  public:
    PhaseTimer() : _start(ProcessSample::now()), _t0(monotonicNow()) {}
    PhaseCost stop() const;

  private:
    ProcessSample _start;
    double _t0;
};

/**
 * Accumulates the host time of calls into each layer, keyed by the
 * per-layer metric name (e.g. "mem.replay_s"), plus the per-layer
 * self time the coverage figure sums. Single-threaded: the traced
 * compositions run serially so attributions add up to wall time.
 */
class LayerClock
{
  public:
    /** Time fn() and charge it to @p layer under metric @p metric. */
    template <typename F>
    auto
    time(const std::string &layer, const std::string &metric, F &&fn)
    {
        double t0 = monotonicNow();
        if constexpr (std::is_void_v<decltype(fn())>) {
            fn();
            charge(layer, metric, monotonicNow() - t0);
        } else {
            auto result = fn();
            charge(layer, metric, monotonicNow() - t0);
            return result;
        }
    }

    void charge(const std::string &layer, const std::string &metric,
                double seconds);

    double metric(const std::string &name) const;
    /** Sum of every layer's self time. */
    double totalSelf() const;

  private:
    std::map<std::string, double> _metrics;
    std::map<std::string, double> _self;
};

/** Payload digest: FNV-1a of the compact JSON @p write emits. */
template <typename WriteFn>
std::string
payloadDigest(WriteFn &&write)
{
    std::ostringstream os;
    stack3d::JsonWriter w(os, /*compact=*/true);
    write(w);
    return stack3d::digestHex(stack3d::fnv1a(os.str()));
}

/** A numeric per-layer metric of the traced run. */
using LayerMetrics = std::map<std::string, double>;

/**
 * The driver's result record, printed as the last stdout line. The
 * runner (run.py) turns it into metrics, so it carries raw samples
 * rather than percentiles.
 */
struct DriverResult
{
    /** Host cost of the batch pass, or of the serve traffic phase. */
    std::vector<PhaseCost> iterations;
    /**
     * Latency samples (seconds): "cell" for batch study cells, "late"
     * for how late the serve-mix generator sent each request.
     */
    std::map<std::string, std::vector<double>> latencies;
    /**
     * Every operation by class, as (latency_s, ok) pairs; the runner
     * applies each class's latency limit for within_limit_frac.
     */
    std::map<std::string, std::vector<std::pair<double, bool>>> ops;
    /** Output digests by name (checked against committed values). */
    std::map<std::string, std::string> digests;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;
    LayerMetrics layers;
    /** ru_maxrss (MiB); set at exit unless the workload set it. */
    double peak_rss_mb = 0.0;
    /**
     * Batch workloads: the input variant the seed selected, which
     * keys the committed digests. Printed with kInputVariants.
     */
    std::optional<std::uint64_t> variant;

    /** Count one checked operation; record a failure message. */
    void check(bool ok, const std::string &what);

    void print() const;
};

/**
 * Input variant of a workload seed. Seeds select one of
 * kInputVariants committed input variants
 * (perfbench/expected_digests.json holds the payload digests of
 * each), so every run's outputs are checked exactly, whatever seed
 * the caller picks.
 */
constexpr std::uint64_t kInputVariants = 16;
inline std::uint64_t
inputVariant(std::uint64_t seed)
{
    return seed % kInputVariants;
}

/** Study seed of a workload seed. */
inline std::uint64_t
studySeed(std::uint64_t seed)
{
    return 1000 + inputVariant(seed);
}

/** Median of a sample (0 when empty). */
double median(std::vector<double> v);

} // namespace perfbench

#endif // PERFBENCH_PROBE_HH
