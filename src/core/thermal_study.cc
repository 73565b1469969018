#include "thermal_study.hh"

#include <algorithm>

#include "common/logging.hh"
#include "exec/future_set.hh"
#include "exec/pool.hh"

namespace stack3d {
namespace core {

using floorplan::Floorplan;
using thermal::Mesh;
using thermal::PackageModel;
using thermal::StackedDieType;
using thermal::StackGeometry;
using thermal::StackOverrides;
using thermal::TemperatureField;

ThermalPoint
solveFloorplanThermals(const Floorplan &combined,
                       StackedDieType die2_type, const PackageModel &pkg,
                       const StackOverrides &ovr,
                       ThermalSolution *solution_out,
                       unsigned die_nx, unsigned die_ny,
                       const thermal::SolverOptions &solver)
{
    bool two_die = die2_type != StackedDieType::None;
    StackGeometry geom =
        two_die ? thermal::makeTwoDieStack(combined.width(),
                                           combined.height(), die2_type,
                                           pkg, ovr)
                : thermal::makePlanarStack(combined.width(),
                                           combined.height(), pkg, ovr);

    // Heap-allocate so the field (which points into the mesh) can be
    // handed to the caller without dangling.
    auto mesh_ptr = std::make_shared<Mesh>(geom, die_nx, die_ny);
    Mesh &mesh = *mesh_ptr;
    mesh.setLayerPower(geom.layerIndex("active1"),
                       combined.powerMap(die_nx, die_ny, 0));
    if (two_die) {
        mesh.setLayerPower(geom.layerIndex("active2"),
                           combined.powerMap(die_nx, die_ny, 1));
    }

    ThermalPoint point;
    TemperatureField field =
        thermal::solveSteadyState(mesh, solver, &point.solve);
    unsigned a1 = geom.layerIndex("active1");
    point.die1_peak_c = field.layerPeak(a1);
    point.min_c = field.layerMin(a1);
    point.peak_c = point.die1_peak_c;
    if (two_die) {
        unsigned a2 = geom.layerIndex("active2");
        point.die2_peak_c = field.layerPeak(a2);
        point.peak_c = std::max(point.peak_c, point.die2_peak_c);
        point.min_c = std::min(point.min_c, field.layerMin(a2));
    }
    point.total_power_w = combined.totalPower();

    if (solution_out) {
        solution_out->mesh = mesh_ptr;
        solution_out->field = std::move(field);
    }
    return point;
}

StudyReport<StackThermalResult>
runStackThermalStudy(const RunOptions &options,
                     const StackThermalSpec &spec)
{
    using namespace floorplan;

    StudyTracker tracker("stack-thermal", 4, options);
    StudyReport<StackThermalResult> report;
    StackThermalResult &result = report.payload;

    const unsigned die_nx = spec.die_nx;
    const unsigned die_ny = spec.die_ny;
    Floorplan base = makeCore2Duo();

    unsigned workers = options.resolvedThreads();
    exec::ThreadPool pool(workers > 1 ? workers : 0);

    thermal::SolverOptions sopt;
    sopt.cancel = options.cancel;

    // Three tasks over four cells: the two DRAM options share the
    // same die outline, so dram64m warm-starts from dram32m's field.
    // The chain is a fixed data dependency inside one task, making
    // the result independent of the thread count by construction.
    exec::parallelFor(pool, 3, [&](std::size_t task) {
        switch (task) {
          case 0:
            // (a) planar baseline.
            tracker.runCell(0, "baseline4m", [&] {
                result.options[0] = solveFloorplanThermals(
                    base, StackedDieType::None, {}, {}, nullptr,
                    die_nx, die_ny, sopt);
            });
            break;
          case 1:
            // (b) +8 MB stacked SRAM.
            tracker.runCell(1, "sram12m", [&] {
                Floorplan sram = makeCacheDie(
                    base, "sram8m", budgets::stacked_sram_8mb);
                Floorplan combined =
                    stackFloorplans(base, sram, "core2_12m");
                result.options[1] = solveFloorplanThermals(
                    combined, StackedDieType::LogicSram, {}, {},
                    nullptr, die_nx, die_ny, sopt);
            });
            break;
          case 2: {
            // (c) 32 MB stacked DRAM, SRAM removed (conservative
            // full-size outline: the vacated cache area stays as
            // spreading silicon).
            ThermalSolution sol32;
            tracker.runCell(2, "dram32m", [&] {
                Floorplan base32 = makeCore2BaseDie32MKeepOutline();
                Floorplan dram = makeCacheDie(
                    base32, "dram32m", budgets::stacked_dram_32mb);
                Floorplan combined =
                    stackFloorplans(base32, dram, "core2_32m");
                result.options[2] = solveFloorplanThermals(
                    combined, StackedDieType::Dram, {}, {}, &sol32,
                    die_nx, die_ny, sopt);
            });
            // (d) 64 MB stacked DRAM over the unchanged baseline die.
            tracker.runCell(3, "dram64m", [&] {
                Floorplan dram = makeCacheDie(
                    base, "dram64m", budgets::stacked_dram_64mb);
                Floorplan combined =
                    stackFloorplans(base, dram, "core2_64m");
                thermal::SolverOptions warm = sopt;
                if (sol32.field)
                    warm.warm_start = &sol32.field->raw();
                result.options[3] = solveFloorplanThermals(
                    combined, StackedDieType::Dram, {}, {}, nullptr,
                    die_nx, die_ny, warm);
            });
            break;
          }
        }
    });

    report.meta = tracker.finish();
    static const char *kOptionLabels[4] = {"baseline4m", "sram12m",
                                           "dram32m", "dram64m"};
    unsigned warm_hits = 0, warm_misses = 0;
    for (std::size_t o = 0; o < 4; ++o) {
        thermal::appendSolveCounters(
            report.meta.counters,
            "thermal." + std::string(kOptionLabels[o]) + ".",
            result.options[o].solve);
        (result.options[o].solve.warm_start_used ? warm_hits
                                                 : warm_misses)++;
    }
    report.meta.counters.set("thermal.warm_start.hits",
                             double(warm_hits));
    report.meta.counters.set("thermal.warm_start.misses",
                             double(warm_misses));
    pool.appendCounters(report.meta.counters);
    return report;
}

StudyReport<std::vector<SensitivityPoint>>
runConductivitySensitivity(const RunOptions &options,
                           const SensitivitySpec &spec)
{
    using namespace floorplan;

    for (double k : spec.conductivities)
        stack3d_assert(k > 0.0, "conductivity must be positive");

    // A stacked two-die microprocessor: the Figure 10 fold of the
    // Pentium 4-class design, using its calibrated package.
    Floorplan stacked = makePentium43D();
    PackageModel pkg = thermal::makeP4Package();

    const std::size_t num_points = spec.conductivities.size();
    StudyTracker tracker("sensitivity", num_points * 2, options);

    StudyReport<std::vector<SensitivityPoint>> report;
    std::vector<SensitivityPoint> &points = report.payload;
    points.resize(num_points);
    for (std::size_t i = 0; i < num_points; ++i)
        points[i].conductivity = spec.conductivities[i];

    unsigned workers = options.resolvedThreads();
    exec::ThreadPool pool(workers > 1 ? workers : 0);

    thermal::SolverOptions sopt;
    sopt.cancel = options.cancel;

    // Two cells per swept point: Cu-metal and bonding-layer. Each
    // swept layer forms one sequential chain so consecutive points
    // reuse work twice over: the mesh is assembled once per chain and
    // only the swept layer's conductances are recomputed, and each
    // solve warm-starts from the previous point's field (the solution
    // moves only slightly when one thin layer's k changes). The two
    // chains run as independent tasks; within a chain the order is
    // fixed, so results do not depend on the thread count.
    std::vector<std::string> cell_labels(num_points * 2);
    std::vector<thermal::SolveInfo> cell_solves(num_points * 2);
    std::vector<std::size_t> faces_updated(2, 0);
    exec::parallelFor(pool, 2, [&](std::size_t chain) {
        const bool sweep_bond = chain == 1;
        std::shared_ptr<Mesh> mesh;
        std::vector<double> prev_field;
        for (std::size_t i = 0; i < num_points; ++i) {
            const std::size_t cell = i * 2 + (sweep_bond ? 1 : 0);
            const double k = spec.conductivities[i];
            std::string label = "k=" + std::to_string(int(k)) +
                                (sweep_bond ? "/bond" : "/cu");
            cell_labels[cell] = label;
            tracker.runCell(cell, label, [&] {
                if (!mesh) {
                    StackOverrides ovr;
                    if (sweep_bond)
                        ovr.bond_conductivity = k;
                    else
                        ovr.cu_metal_conductivity = k;
                    StackGeometry geom = thermal::makeTwoDieStack(
                        stacked.width(), stacked.height(),
                        StackedDieType::LogicSram, pkg, ovr);
                    mesh = std::make_shared<Mesh>(geom, spec.die_nx,
                                                  spec.die_ny);
                    mesh->setLayerPower(
                        geom.layerIndex("active1"),
                        stacked.powerMap(spec.die_nx, spec.die_ny, 0));
                    mesh->setLayerPower(
                        geom.layerIndex("active2"),
                        stacked.powerMap(spec.die_nx, spec.die_ny, 1));
                } else {
                    const StackGeometry &geom = mesh->geometry();
                    if (sweep_bond) {
                        faces_updated[chain] +=
                            mesh->updateLayerConductivity(
                                geom.layerIndex("bond"), k);
                    } else {
                        faces_updated[chain] +=
                            mesh->updateLayerConductivity(
                                geom.layerIndex("metal1"), k);
                        faces_updated[chain] +=
                            mesh->updateLayerConductivity(
                                geom.layerIndex("metal2"), k);
                    }
                }
                thermal::SolverOptions cell_opt = sopt;
                if (!prev_field.empty())
                    cell_opt.warm_start = &prev_field;
                thermal::SolveInfo info;
                TemperatureField field = thermal::solveSteadyState(
                    *mesh, cell_opt, &info);
                const StackGeometry &geom = mesh->geometry();
                const double peak = std::max(
                    field.layerPeak(geom.layerIndex("active1")),
                    field.layerPeak(geom.layerIndex("active2")));
                cell_solves[cell] = std::move(info);
                if (sweep_bond)
                    points[i].peak_bond_swept = peak;
                else
                    points[i].peak_cu_swept = peak;
                prev_field = field.raw();
            });
        }
    });

    report.meta = tracker.finish();
    unsigned warm_hits = 0, warm_misses = 0;
    for (std::size_t cell = 0; cell < cell_solves.size(); ++cell) {
        thermal::appendSolveCounters(report.meta.counters,
                                     "thermal." + cell_labels[cell] +
                                         ".",
                                     cell_solves[cell]);
        (cell_solves[cell].warm_start_used ? warm_hits
                                           : warm_misses)++;
    }
    report.meta.counters.set("thermal.warm_start.hits",
                             double(warm_hits));
    report.meta.counters.set("thermal.warm_start.misses",
                             double(warm_misses));
    report.meta.counters.set(
        "thermal.conductances_updated",
        double(faces_updated[0] + faces_updated[1]));
    pool.appendCounters(report.meta.counters);
    return report;
}

} // namespace core
} // namespace stack3d
