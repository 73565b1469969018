/**
 * @file
 * The Logic+Logic stacking study (Section 4): folds the Pentium
 * 4-class design onto two dies and evaluates performance (Table 4),
 * power, thermals (Figure 11), and voltage/frequency scaling
 * (Table 5) end to end.
 */

#ifndef STACK3D_CORE_LOGIC_STUDY_HH
#define STACK3D_CORE_LOGIC_STUDY_HH

#include "core/run_options.hh"
#include "core/thermal_study.hh"
#include "cpu/suite.hh"
#include "power/scaling.hh"

namespace stack3d {
namespace core {

/** Figure 11's three bars. */
struct Fig11Result
{
    ThermalPoint planar;      ///< 2D baseline (147 W)
    ThermalPoint stacked;     ///< 3D, 15% power saving, ~1.3x density
    ThermalPoint worst_case;  ///< 3D, no savings, ~2x density
    double stacked_density_ratio = 0.0;
    double worst_density_ratio = 0.0;
};

/** A Table 5 row with its simulated temperature. */
struct Table5Row
{
    power::OperatingPoint point;
    double temp_c = 0.0;
};

/** Full logic-study result. */
struct LogicStudyResult
{
    cpu::Table4Result table4;
    double power_saving_3d = 0.0;    ///< from the breakdown (~0.15)
    Fig11Result fig11;
    std::vector<Table5Row> table5;
};

/** Study-specific inputs of the unified entry point. */
struct LogicStudySpec
{
    /**
     * Trace-suite options. The suite's uops_per_trace is multiplied
     * by RunOptions::depth, and its seed is derived from
     * RunOptions::seed (the spec's own seed field is ignored).
     */
    cpu::SuiteOptions suite;
    /**
     * The paper's Section 4 power roll-up and V/f conversion laws.
     * Fixed constants: not on the wire, and nothing in the repo sets
     * them. They remain fields only because perfbench's logic
     * composition reads them; delete them with the next change to
     * the benchmark.
     */
    power::LogicPowerBreakdown power_breakdown;
    power::VfScalingModel vf_model;
    /** Lateral thermal resolution. */
    unsigned die_nx = 50;
    unsigned die_ny = 46;
    /**
     * Use the measured Table 4 total gain in Table 5 (true) or the
     * paper's nominal 15% (false).
     */
    bool use_measured_gain = true;
};

/**
 * Run the complete Logic+Logic study under the unified Run/Report
 * API. Cell decomposition: the Table 4 pipeline suite and the three
 * Figure 11 steady-state solves fan out first (cells 0-3); after a
 * barrier, the four non-baseline Table 5 operating points solve
 * concurrently (cells 4-7, each a scaled 3D floorplan).
 */
StudyReport<LogicStudyResult> runLogicStudy(
    const RunOptions &options, const LogicStudySpec &spec = {});

} // namespace core
} // namespace stack3d

#endif // STACK3D_CORE_LOGIC_STUDY_HH
