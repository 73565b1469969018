/**
 * @file
 * Benchmark-suite driver for the Logic+Logic study: runs the ~650
 * synthetic single-thread traces (Section 2.2's populations) through
 * pipeline configurations and aggregates speedups, reproducing
 * Table 4's per-path attribution.
 */

#ifndef STACK3D_CPU_SUITE_HH
#define STACK3D_CPU_SUITE_HH

#include <string>
#include <vector>

#include "cpu/pipeline.hh"

namespace stack3d {

namespace obs {
class CounterSet;
} // namespace obs

namespace cpu {

/** Suite execution options. */
struct SuiteOptions
{
    /** Use the full ~650-trace population (8x the default). */
    bool full_suite = false;

    /** µops simulated per trace. */
    std::uint64_t uops_per_trace = 200000;

    std::uint64_t seed = 7;
};

/** Aggregated per-class and overall results for one configuration. */
struct SuiteResult
{
    /** Geometric-mean IPC across all traces. */
    double geomean_ipc = 0.0;

    /** Per application class: name and geomean IPC. */
    std::vector<std::pair<std::string, double>> class_ipc;

    unsigned num_traces = 0;

    /** IPC of each trace, in suite order (not serialized). */
    std::vector<double> trace_ipc;

    // Pipeline activity summed over every trace of the suite run —
    // the per-stage stall / squash attribution behind the IPC.
    std::uint64_t uops = 0;
    std::uint64_t cycles = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t trace_breaks = 0;
    std::uint64_t sq_stall_cycles = 0;
    std::uint64_t window_stall_cycles = 0;
};

/** One row of Table 4. */
struct Table4Row
{
    Path path;
    /** Percent of the path's planar pipe stages eliminated. */
    double stages_eliminated_pct = 0.0;
    /** Geomean performance gain of eliminating only this path. */
    double perf_gain_pct = 0.0;
};

/** Full Table 4: per-path rows plus the all-paths total. */
struct Table4Result
{
    std::vector<Table4Row> rows;
    /** Gain of the full 3D configuration (all paths at once). */
    double total_perf_gain_pct = 0.0;
    SuiteResult planar;
    SuiteResult stacked;
};

/**
 * The shared trace population (generated once, reused across
 * configurations).
 */
class TraceSuite
{
  public:
    explicit TraceSuite(const SuiteOptions &options);

    /** Run one configuration over every trace. */
    SuiteResult run(const PipelineConfig &config) const;

    unsigned numTraces() const { return unsigned(_traces.size()); }

  private:
    struct Entry
    {
        std::string class_name;
        std::vector<workloads::CpuUop> uops;
    };

    std::vector<Entry> _traces;
};

/** Compute Table 4 (per-path and total gains). */
Table4Result computeTable4(const SuiteOptions &options = {});

/**
 * Fold a suite run's aggregate pipeline counters into @p out under
 * @p prefix (e.g. "cpu.planar."): uops, cycles, ipc, mispredicts,
 * trace_breaks, and the per-cause stall-cycle attribution.
 */
void appendSuiteCounters(const SuiteResult &result,
                         obs::CounterSet &out,
                         const std::string &prefix);

} // namespace cpu
} // namespace stack3d

#endif // STACK3D_CPU_SUITE_HH
