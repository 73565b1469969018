/**
 * @file
 * The Memory+Logic stacking study (Section 3): runs the two-threaded
 * RMS workloads against the four Figure 7 cache organizations and
 * reports CPMA, off-die bandwidth and bus power — the data behind
 * Figure 5 and the paper's headline memory-stacking results.
 */

#ifndef STACK3D_CORE_MEMORY_STUDY_HH
#define STACK3D_CORE_MEMORY_STUDY_HH

#include <array>
#include <string>
#include <vector>

#include "core/run_options.hh"
#include "mem/engine.hh"
#include "workloads/registry.hh"

namespace stack3d {
namespace core {

/** The four Figure 7 configurations, in Figure 5 order. */
constexpr std::array<mem::StackOption, 4> kStackOptions = {
    mem::StackOption::Baseline4MB,
    mem::StackOption::Sram12MB,
    mem::StackOption::Dram32MB,
    mem::StackOption::Dram64MB,
};

/** Per-benchmark results across the four options. */
struct MemoryStudyRow
{
    std::string benchmark;
    std::uint64_t records = 0;
    double footprint_mb = 0.0;
    std::array<double, 4> cpma{};
    std::array<double, 4> bw_gbps{};
    std::array<double, 4> bus_power_w{};
    std::array<double, 4> llc_miss{};
};

/** Aggregates matching the paper's Section 3 headlines. */
struct MemoryStudySummary
{
    /** Average CPMA reduction of the 32 MB option vs baseline. */
    double avg_cpma_reduction_32m = 0.0;
    /** Best single-benchmark CPMA reduction at 32 MB. */
    double max_cpma_reduction_32m = 0.0;
    /** Average off-die bandwidth reduction factor at 32 MB. */
    double avg_bw_reduction_factor_32m = 0.0;
    /** Average bus-power reduction at 32 MB (fraction). */
    double avg_bus_power_reduction_32m = 0.0;
    /** Average absolute bus-power saving at 32 MB (watts). */
    double avg_bus_power_saving_w = 0.0;
};

/** Full study result. */
struct MemoryStudyResult
{
    std::vector<MemoryStudyRow> rows;
    MemoryStudySummary summary;
};

/**
 * Per-benchmark calibrated records-per-thread budget (the number of
 * working-set sweeps each benchmark needs to expose its reuse).
 */
std::uint64_t recommendedRecordsPerThread(const std::string &benchmark);

/** Study-specific inputs of the unified entry point. */
struct MemoryStudySpec
{
    /** Benchmarks to run (default: all 12 of Table 1). */
    std::vector<std::string> benchmarks;
};

/**
 * Run the memory study under the unified Run/Report API.
 *
 * Cell decomposition: per benchmark, one trace-generation cell
 * ("<bench>/trace") followed by four engine cells ("<bench>/<option>"),
 * 5 cells per benchmark in canonical order. Generation cells fan out
 * first (traces are immutable and shared read-only by the option
 * cells); engine cells fan out after the generation barrier. Each
 * benchmark's trace seed derives from (options.seed, benchmark name),
 * so results are bit-identical for every thread count.
 */
StudyReport<MemoryStudyResult> runMemoryStudy(
    const RunOptions &options, const MemoryStudySpec &spec = {});

} // namespace core
} // namespace stack3d

#endif // STACK3D_CORE_MEMORY_STUDY_HH
