/**
 * @file
 * Thermal explorer: build a custom die stack, attach power, and
 * inspect the temperature field — a playground for the 3D thermal
 * solver.
 *
 * Usage:
 *   thermal_explorer [--watts W] [--stacked-watts W2] [--die MM]
 *                    [--dram] [--transient SECONDS] [shared flags]
 *   thermal_explorer --stacks [shared flags]
 *   (see core::BenchCli for --threads/--trace-out/--stats-json/...)
 *
 * Solves a uniformly powered die (planar, or with a second stacked
 * die) in the calibrated desktop package, prints per-layer peak
 * temperatures, and renders the active-layer heat map. With
 * --stacks, instead runs the Figure 8 four-option stack comparison
 * through the unified Run/Report API with live progress.
 */

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "core/cli.hh"
#include "core/thermal_study.hh"
#include "thermal/render.hh"
#include "thermal/solver.hh"
#include "thermal/stacks.hh"
#include "thermal/transient.hh"

using namespace stack3d;
using namespace stack3d::thermal;

namespace {

int
runStacksMode(core::BenchCli &cli)
{
    core::RunOptions &opts = cli.options;
    core::ConsoleProgressSink sink(std::cout);
    if (!cli.quiet())
        opts.progress = &sink;

    // Explorer default: a coarser grid than the Figure 8 bench for
    // quick qualitative answers.
    core::StackThermalSpec spec;
    spec.die_nx = 36;
    spec.die_ny = 28;

    auto report = core::runStackThermalStudy(opts, spec);
    cli.recordMeta(report.meta);
    if (!cli.quiet()) {
        static const char *names[4] = {"baseline 4M", "+8M SRAM",
                                       "32M DRAM", "64M DRAM"};
        std::printf("\n%-14s %10s %10s\n", "option", "peak C",
                    "delta C");
        double base = report.payload.options[0].peak_c;
        for (int i = 0; i < 4; ++i) {
            std::printf("%-14s %10.2f %+10.2f\n", names[i],
                        report.payload.options[i].peak_c,
                        report.payload.options[i].peak_c - base);
        }
        std::printf("\nwall %.2fs on %u thread(s), serial-equivalent "
                    "%.2fs\n",
                    report.meta.wall_seconds, report.meta.threads_used,
                    report.meta.serial_seconds);
    }
    return cli.finish();
}

} // anonymous namespace

int
realMain(int argc, char **argv)
{
    core::BenchCli cli("thermal_explorer");
    double watts = 80.0;
    double stacked_watts = 0.0;
    double die_mm = 12.0;
    StackedDieType die2 = StackedDieType::None;
    double transient_s = 0.0;
    bool stacks_mode = false;

    for (int i = 1; i < argc; ++i) {
        if (cli.consume(argc, argv, i))
            continue;
        if (std::strcmp(argv[i], "--stacks") == 0)
            stacks_mode = true;
        else if (std::strcmp(argv[i], "--watts") == 0 && i + 1 < argc)
            watts = std::stod(argv[++i]);
        else if (std::strcmp(argv[i], "--stacked-watts") == 0 &&
                 i + 1 < argc) {
            stacked_watts = std::stod(argv[++i]);
            if (die2 == StackedDieType::None)
                die2 = StackedDieType::LogicSram;
        } else if (std::strcmp(argv[i], "--die") == 0 && i + 1 < argc)
            die_mm = std::stod(argv[++i]);
        else if (std::strcmp(argv[i], "--dram") == 0)
            die2 = StackedDieType::Dram;
        else if (std::strcmp(argv[i], "--transient") == 0 &&
                 i + 1 < argc)
            transient_s = std::stod(argv[++i]);
    }

    cli.begin();
    if (stacks_mode)
        return runStacksMode(cli);

    double die = die_mm * 1e-3;
    StackGeometry geom = die2 == StackedDieType::None
                             ? makePlanarStack(die, die)
                             : makeTwoDieStack(die, die, die2);

    const unsigned nx = 48, ny = 48;
    Mesh mesh(geom, nx, ny);

    // Die #1: a uniform background with one concentrated hot block
    // in the centre (a core next to cache-like surroundings).
    PowerMap map1(nx, ny, die, die);
    map1.addUniform(watts * 0.6);
    double c0 = die * 0.4, c1 = die * 0.6;
    map1.addRect(c0, c0, c1, c1, watts * 0.4);
    mesh.setLayerPower(geom.layerIndex("active1"), map1);

    if (die2 != StackedDieType::None) {
        PowerMap map2(nx, ny, die, die);
        map2.addUniform(stacked_watts);
        mesh.setLayerPower(geom.layerIndex("active2"), map2);
    }

    SolveInfo info;
    TemperatureField field = solveSteadyState(
        mesh, SolverOptions{.tolerance = 1e-8, .max_iters = 40000}, &info);
    appendSolveCounters(cli.counters(), "thermal.explorer.", info);
    if (!cli.quiet()) {
        std::printf("solved %zu cells in %u CG iterations "
                    "(residual %.2e)\n",
                    mesh.numCells(), info.iterations, info.residual);

        std::printf("\n%-12s %10s %10s\n", "layer", "peak C", "min C");
        for (std::size_t l = 0; l < geom.layers.size(); ++l) {
            std::printf("%-12s %10.2f %10.2f\n",
                        geom.layers[l].name.c_str(),
                        field.layerPeak(unsigned(l)),
                        field.layerMin(unsigned(l)));
        }

        std::printf("\nactive-layer heat map (die #1):\n");
        renderLayerMap(std::cout, field, geom.layerIndex("active1"));
    }

    if (transient_s > 0.0) {
        TransientResult tr =
            solveTransient(mesh, transient_s, transient_s / 60.0);
        cli.counters().set("thermal.transient.time_constant_s",
                           tr.time_constant_s);
        if (!cli.quiet()) {
            std::printf("\ntransient power-on from ambient "
                        "(implicit Euler):\n");
            for (std::size_t k = 0; k < tr.samples.size(); k += 6) {
                std::printf("  t=%6.2fs  peak=%.2f C\n",
                            tr.samples[k].time_s, tr.samples[k].peak_c);
            }
            std::printf("  thermal time constant ~ %.2f s\n",
                        tr.time_constant_s);
        }
    }
    return cli.finish();
}

int
main(int argc, char **argv)
{
    // fatal() throws so user/config errors stay testable; surface them
    // here as a message + exit(1) instead of std::terminate.
    try {
        return realMain(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << e.what() << "\n";
        return 1;
    }
}
