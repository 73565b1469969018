#include "stacks.hh"

namespace stack3d {
namespace thermal {

namespace {

/** Thin pseudo-thickness for the active (heat-generating) plane. */
constexpr double kActiveThickness = 3e-6;

void
appendPackageBottom(StackGeometry &geom, const PackageModel &pkg)
{
    // Package, socket, and board extend across the whole domain.
    geom.layers.push_back(
        {"package", pkg.package_thickness, pkg.package_conductivity, 2,
         false, 0.0});
    geom.layers.push_back(
        {"socket", pkg.socket_thickness, pkg.socket_conductivity, 2,
         false, 0.0});
    geom.layers.push_back(
        {"board", pkg.board_thickness, pkg.board_conductivity, 2,
         false, 0.0});
}

void
appendCoolingTop(StackGeometry &geom, const PackageModel &pkg)
{
    geom.layers.push_back({"heat_sink", pkg.heat_sink_thickness,
                           table2::heat_sink_conductivity, 3, false,
                           0.0});
    geom.layers.push_back({"ihs", pkg.ihs_thickness,
                           pkg.ihs_conductivity, 2, false, 0.0});
    // Solder TIM exists only over the die; gap filler elsewhere.
    geom.layers.push_back({"tim", pkg.tim_thickness,
                           pkg.tim_conductivity, 1, false,
                           pkg.gap_conductivity});
}

} // anonymous namespace

StackGeometry
makePlanarStack(double die_width, double die_height,
                const PackageModel &pkg, const StackOverrides &ovr)
{
    StackGeometry geom;
    geom.width = die_width;
    geom.height = die_height;
    geom.h_top = pkg.h_top;
    geom.margin = pkg.margin;
    geom.h_bottom = pkg.h_bottom;
    geom.ambient = pkg.ambient;

    appendCoolingTop(geom, pkg);
    geom.layers.push_back({"bulk_si1", table2::si1_thickness,
                           table2::si_conductivity, 2, false,
                           pkg.underfill_conductivity});
    geom.layers.push_back({"active1", kActiveThickness,
                           table2::si_conductivity, 1, true,
                           pkg.underfill_conductivity});
    geom.layers.push_back({"metal1", table2::cu_metal_thickness,
                           ovr.cu_metal_conductivity, 1, false,
                           pkg.underfill_conductivity});
    appendPackageBottom(geom, pkg);
    return geom;
}

StackGeometry
makeTwoDieStack(double die_width, double die_height,
                StackedDieType second_die, const PackageModel &pkg,
                const StackOverrides &ovr)
{
    if (second_die == StackedDieType::None)
        return makePlanarStack(die_width, die_height, pkg, ovr);

    StackGeometry geom;
    geom.width = die_width;
    geom.height = die_height;
    geom.h_top = pkg.h_top;
    geom.margin = pkg.margin;
    geom.h_bottom = pkg.h_bottom;
    geom.ambient = pkg.ambient;

    appendCoolingTop(geom, pkg);

    // Die #1: processor, bulk Si toward the heat sink, face down.
    geom.layers.push_back({"bulk_si1", table2::si1_thickness,
                           table2::si_conductivity, 2, false,
                           pkg.underfill_conductivity});
    geom.layers.push_back({"active1", kActiveThickness,
                           table2::si_conductivity, 1, true,
                           pkg.underfill_conductivity});
    geom.layers.push_back({"metal1", table2::cu_metal_thickness,
                           ovr.cu_metal_conductivity, 1, false,
                           pkg.underfill_conductivity});

    // Face-to-face bond: the d2d via interface.
    geom.layers.push_back({"bond", table2::bond_thickness,
                           ovr.bond_conductivity, 1, false,
                           pkg.underfill_conductivity});

    // Die #2: face up (metal meets the bond), thinned bulk toward
    // the C4 bumps. DRAM dies carry the thinner Al metal stack.
    if (second_die == StackedDieType::Dram) {
        geom.layers.push_back({"metal2", table2::al_metal_thickness,
                               table2::al_metal_conductivity, 1, false,
                               pkg.underfill_conductivity});
    } else {
        geom.layers.push_back({"metal2", table2::cu_metal_thickness,
                               ovr.cu_metal_conductivity, 1, false,
                               pkg.underfill_conductivity});
    }
    geom.layers.push_back({"active2", kActiveThickness,
                           table2::si_conductivity, 1, true,
                           pkg.underfill_conductivity});
    geom.layers.push_back({"bulk_si2", table2::si2_thickness,
                           table2::si_conductivity, 1, false,
                           pkg.underfill_conductivity});

    appendPackageBottom(geom, pkg);
    return geom;
}

} // namespace thermal
} // namespace stack3d
