/**
 * @file
 * Table 5: frequency and voltage scaling of the Logic+Logic stacked
 * 3D floorplan. Uses the conversion laws the paper states (0.82%
 * performance per 1% frequency; 1% frequency per 1% Vcc) and the 3D
 * design point (simultaneous ~15% performance gain and ~15% power
 * reduction), attaching simulated peak temperatures per row.
 *
 * Paper rows: Baseline 147 W / 99 C / 100%; Same Pwr 147 W / 127 C /
 * 129%; Same Freq 125 W / 113 C / 115%; Same Temp 97.28 W / 99 C /
 * 108%; Same Perf 68.2 W / 77 C / 100%.
 *
 * Usage: table5_vf_scaling [--uops N] [--nominal] [--json PATH]
 *                          [shared flags]
 *   --nominal    use the paper's nominal 15% gain instead of the
 *                measured Table 4 total
 *   --json PATH  write {manifest, counters, meta, payload} to PATH
 *   plus the shared observability flags (--threads, --trace-out,
 *   --stats-json, --quiet, ...); see core::BenchCli.
 */

#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "common/json.hh"
#include "common/table.hh"
#include "core/cli.hh"
#include "core/logic_study.hh"
#include "core/study_json.hh"

using namespace stack3d;

int
realMain(int argc, char **argv)
{
    core::BenchCli cli("table5_vf_scaling");
    core::RunOptions &opts = cli.options;
    opts.seed = 7;   // the suite's historical default
    core::LogicStudySpec spec;
    spec.suite.uops_per_trace = 60000;
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        if (cli.consume(argc, argv, i))
            continue;
        if (std::strcmp(argv[i], "--uops") == 0 && i + 1 < argc)
            spec.suite.uops_per_trace = std::stoull(argv[++i]);
        else if (std::strcmp(argv[i], "--nominal") == 0)
            spec.use_measured_gain = false;
        else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            json_path = argv[++i];
    }
    cli.begin();
    cli.addConfig("uops_per_trace", double(spec.suite.uops_per_trace));
    cli.addConfig("use_measured_gain",
                  spec.use_measured_gain ? "true" : "false");

    if (!cli.quiet())
        printBanner(std::cout, "Table 5: V/f scaling the 3D floorplan");

    opts.progress = cli.progress();
    auto report = core::runLogicStudy(opts, spec);
    const core::LogicStudyResult &result = report.payload;
    cli.recordMeta(report.meta);

    if (!cli.quiet()) {
        std::cout << "3D design point: +"
                  << result.table4.total_perf_gain_pct
                  << "% performance (measured; paper ~15%), -"
                  << result.power_saving_3d * 100.0
                  << "% power (roll-up; paper ~15%)\n\n";

        TextTable t({"row", "Pwr W", "Pwr %", "Temp C", "Perf %", "Vcc",
                     "Freq"});
        for (const auto &row : result.table5) {
            t.newRow()
                .cell(row.point.label)
                .cell(row.point.power_w, 1)
                .cell(row.point.power_rel * 100.0, 0)
                .cell(row.temp_c, 1)
                .cell(row.point.perf_rel * 100.0, 0)
                .cell(row.point.vcc, 2)
                .cell(row.point.freq, 2);
        }
        t.print(std::cout);

        std::cout <<
            "\npaper:        Pwr     Pwr%  Temp  Perf  Vcc   Freq\n"
            "  Baseline    147     100%   99   100%  1.00  1.00\n"
            "  Same Pwr    147     100%  127   129%  1.00  1.18\n"
            "  Same Freq.  125      85%  113   115%  1.00  1.00\n"
            "  Same Temp    97.28   66%   99   108%  0.92  0.92\n"
            "  Same Perf.   68.2    46%   77   100%  0.82  0.82\n";

        std::cout << "\nconversion laws: 0.82% perf per 1% freq; "
                     "1% freq per 1% Vcc; P ~ V^2 f\n";

        std::cout << "\nwall " << report.meta.wall_seconds
                  << " s over " << report.meta.cells.size()
                  << " cells (serial-equivalent "
                  << report.meta.serial_seconds << " s, speedup "
                  << report.meta.speedup() << "x at "
                  << report.meta.threads_used << " threads)\n";
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
