/**
 * @file
 * Table 2 material constants and builders for the paper's stack
 * geometries: the planar (single-die) package and the two-die
 * face-to-face stack of Figure 1, both embedded in the full heat
 * sink / IHS / package / socket / motherboard system of Figure 2.
 */

#ifndef STACK3D_THERMAL_STACKS_HH
#define STACK3D_THERMAL_STACKS_HH

#include "thermal/mesh.hh"

namespace stack3d {
namespace thermal {

/** Thermal constants from Table 2 (SI units). */
namespace table2 {

constexpr double si1_thickness = 750e-6;  ///< bulk Si next to heat sink
constexpr double si2_thickness = 20e-6;   ///< bulk Si next to bumps
constexpr double si_conductivity = 120.0;

constexpr double cu_metal_thickness = 12e-6;  ///< logic metal stack
constexpr double cu_metal_conductivity = 12.0;

constexpr double al_metal_thickness = 2e-6;   ///< DRAM metal stack
constexpr double al_metal_conductivity = 9.0;

constexpr double bond_thickness = 15e-6;  ///< die-to-die bond layer
constexpr double bond_conductivity = 60.0;

constexpr double heat_sink_conductivity = 400.0;

constexpr double ambient = 40.0;          ///< degrees C

} // namespace table2

/** Technology of the second (stacked) die. */
enum class StackedDieType
{
    None,       ///< planar, single die
    LogicSram,  ///< Cu metal stack (SRAM cache or logic die)
    Dram,       ///< Al metal stack (stacked DRAM die)
};

/**
 * Package environment around the die stack. The defaults are
 * calibrated (see DESIGN.md) so the planar Core 2 Duo power map at
 * 92 W peaks at ~88.4 C with 40 C ambient — Figure 6's reference
 * point; all other experiments are then predictions.
 */
struct PackageModel
{
    /** Forced convection at the heat-sink top, W/(m^2 K), applied
     *  over the whole (die + margin) domain with the fin-area
     *  magnification folded in; calibrated against Figure 6 (92 W
     *  planar Core 2 Duo -> 88.4 C peak / 59 C coolest, 40 C
     *  ambient). */
    double h_top = 6000.0;

    /** Package / heat-sink material extending beyond the die on
     *  every side, metres. */
    double margin = 8e-3;

    /** Margin material around the die layers (underfill/molding). */
    double underfill_conductivity = 0.8;
    /** Margin material at the TIM plane (gap filler). */
    double gap_conductivity = 0.25;

    /** Natural convection at the motherboard, W/(m^2 K). */
    double h_bottom = 10.0;

    double heat_sink_thickness = 6e-3;
    double ihs_thickness = 2e-3;
    double ihs_conductivity = 390.0;   // copper
    /** Solder TIM (the Core 2 generation used indium solder). */
    double tim_thickness = 50e-6;
    double tim_conductivity = 60.0;
    double package_thickness = 1.2e-3;
    double package_conductivity = 2.0;
    double socket_thickness = 2.5e-3;
    double socket_conductivity = 0.3;
    double board_thickness = 1.6e-3;
    double board_conductivity = 3.0;

    double ambient = table2::ambient;
};

/**
 * Package for the Pentium 4-class part of the study (Figures 9-11,
 * Table 5): a hotter product shipping with a beefier cooler.
 * Calibrated so the 147 W planar design peaks at ~98.6 C (Figure 11
 * first bar); the 3D bars are then predictions.
 */
inline PackageModel
makeP4Package()
{
    PackageModel pkg;
    pkg.h_top = 9500.0;
    return pkg;
}

/**
 * Options overriding Table 2 constants, used by the Figure 3
 * conductivity-sensitivity sweep.
 */
struct StackOverrides
{
    double cu_metal_conductivity = table2::cu_metal_conductivity;
    double bond_conductivity = table2::bond_conductivity;
};

/**
 * Build the planar single-die stack: heat sink / IHS / TIM / bulk Si
 * / active plane / Cu metal / package / socket / board. The layer
 * named "active1" accepts the die power map.
 */
StackGeometry makePlanarStack(double die_width, double die_height,
                              const PackageModel &pkg = {},
                              const StackOverrides &ovr = {});

/**
 * Build the two-die face-to-face stack of Figure 1. Die #1 (the
 * processor) keeps its full 750 um bulk Si facing the heat sink; die
 * #2 is thinned to 20 um with its bulk toward the package bumps.
 * Power layers: "active1" (die #1) and "active2" (die #2).
 *
 * @param second_die metal system of die #2 (Cu for SRAM/logic,
 *                   Al for DRAM)
 */
StackGeometry makeTwoDieStack(double die_width, double die_height,
                              StackedDieType second_die,
                              const PackageModel &pkg = {},
                              const StackOverrides &ovr = {});

} // namespace thermal
} // namespace stack3d

#endif // STACK3D_THERMAL_STACKS_HH
