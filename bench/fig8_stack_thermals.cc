/**
 * @file
 * Figures 7 and 8: the memory-stacking options' power budgets and
 * peak temperatures, plus the 32 MB option's thermal map.
 *
 * Paper reference points (Figure 8a): 2D 4MB 88.35 C, 3D 12MB
 * 92.85 C, 3D 32MB 88.43 C, 3D 64MB 90.27 C.
 *
 * Usage: fig8_stack_thermals [--die-nx N] [--die-ny N] [--no-map]
 *                            [--json PATH] [shared flags]
 *
 *   --die-nx/--die-ny  lateral mesh resolution of the die window
 *   --no-map           skip the Figure 8(b) thermal map render
 *   --json PATH        write {manifest, counters, meta, payload}
 *   plus the shared observability flags (--threads, --trace-out,
 *   --stats-json, --quiet, ...); see core::BenchCli.
 */

#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "core/cli.hh"
#include "core/study_json.hh"
#include "core/thermal_study.hh"
#include "power/scaling.hh"

using namespace stack3d;

namespace {

void
usage(std::ostream &os)
{
    os << "usage: fig8_stack_thermals [--die-nx N] [--die-ny N] "
          "[--no-map] [--json PATH]\n";
    core::BenchCli::printUsage(os);
}

unsigned
parseDimArg(const char *text, const char *flag)
{
    unsigned v = core::parseThreadArg(text, flag);
    if (v == 0)
        stack3d_fatal(flag, " must be positive");
    return v;
}

} // anonymous namespace

int
realMain(int argc, char **argv)
{
    core::BenchCli cli("fig8_stack_thermals");
    core::StackThermalSpec spec;
    std::string json_path;
    bool render_map = true;
    for (int i = 1; i < argc; ++i) {
        if (cli.consume(argc, argv, i))
            continue;
        if (std::strcmp(argv[i], "--die-nx") == 0 && i + 1 < argc)
            spec.die_nx = parseDimArg(argv[++i], "--die-nx");
        else if (std::strcmp(argv[i], "--die-ny") == 0 && i + 1 < argc)
            spec.die_ny = parseDimArg(argv[++i], "--die-ny");
        else if (std::strcmp(argv[i], "--no-map") == 0)
            render_map = false;
        else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            json_path = argv[++i];
        else {
            usage(std::cerr);
            return 1;
        }
    }
    cli.begin();
    cli.addConfig("die_nx", double(spec.die_nx));
    cli.addConfig("die_ny", double(spec.die_ny));

    if (!cli.quiet()) {
        printBanner(std::cout,
                    "Figure 7: stack options and cache power");
        TextTable t({"option", "organization", "cache power (W)"});
        t.newRow().cell("(a) 2D 4MB").cell("4 MB SRAM on die")
            .cell(power::cachePowerWatts(mem::StackOption::Baseline4MB),
                  1);
        t.newRow().cell("(b) 3D 12MB")
            .cell("4 MB SRAM + 8 MB stacked SRAM")
            .cell(power::cachePowerWatts(mem::StackOption::Sram12MB), 1);
        t.newRow().cell("(c) 3D 32MB")
            .cell("32 MB stacked DRAM, SRAM removed")
            .cell(power::cachePowerWatts(mem::StackOption::Dram32MB), 1);
        t.newRow().cell("(d) 3D 64MB")
            .cell("64 MB stacked DRAM, tags in old SRAM")
            .cell(power::cachePowerWatts(mem::StackOption::Dram64MB), 1);
        t.print(std::cout);
        std::cout << "(paper: 4 MB SRAM 7 W; +8 MB SRAM +14 W; 32 MB "
                     "DRAM 3.1 W; 64 MB DRAM 6.2 W)\n";

        printBanner(std::cout,
                    "Figure 8(a): peak temperature per option");
    }

    cli.options.progress = cli.progress();
    auto report = core::runStackThermalStudy(cli.options, spec);
    const core::StackThermalResult &result = report.payload;
    cli.recordMeta(report.meta);

    const char *labels[4] = {"2D 4MB", "3D 12MB", "3D 32MB", "3D 64MB"};
    const double paper[4] = {88.35, 92.85, 88.43, 90.27};
    if (!cli.quiet()) {
        TextTable t({"option", "total W", "peak C", "paper C", "delta"});
        for (int o = 0; o < 4; ++o) {
            t.newRow()
                .cell(labels[o])
                .cell(result.options[o].total_power_w, 1)
                .cell(result.options[o].peak_c, 2)
                .cell(paper[o], 2)
                .cell(result.options[o].peak_c - paper[o], 2);
        }
        t.print(std::cout);
    }

    if (render_map) {
        if (!cli.quiet())
            printBanner(std::cout, "Figure 8(b): 3D 32MB thermal map");
        using namespace floorplan;
        Floorplan base = makeCore2BaseDie32MKeepOutline();
        Floorplan dram =
            makeCacheDie(base, "dram32m", budgets::stacked_dram_32mb);
        Floorplan combined = stackFloorplans(base, dram, "core2_32m");
        core::ThermalSolution solution;
        core::ThermalPoint map_point = core::solveFloorplanThermals(
            combined, thermal::StackedDieType::Dram, {}, {}, &solution,
            spec.die_nx, spec.die_ny);
        thermal::appendSolveCounters(cli.counters(),
                                     "thermal.fig8b_map.",
                                     map_point.solve);
        if (!cli.quiet()) {
            unsigned active =
                solution.mesh->geometry().layerIndex("active1");
            thermal::renderLayerMap(std::cout, *solution.field, active);
        }
    }
    if (!cli.quiet()) {
        std::cout << "\nheadline: stacking the 32 MB DRAM cache "
                     "changes peak temperature by "
                  << result.options[2].peak_c - result.options[0].peak_c
                  << " C (paper: +0.08 C)\n";
    }

    if (!json_path.empty()) {
        std::ofstream jf(json_path);
        if (!jf) {
            std::cerr << "cannot open " << json_path << "\n";
            return 1;
        }
        // Compact, so the payload is byte-identical to the one
        // stack3d-serve returns for the same study, options and spec.
        JsonWriter w(jf, /*compact=*/true);
        w.beginObject();
        cli.writeJsonHeader(w);
        core::writeReportJson(w, report);
        w.endObject();
        jf << "\n";
        if (!cli.quiet())
            std::cout << "wrote " << json_path << "\n";
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
