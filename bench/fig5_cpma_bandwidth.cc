/**
 * @file
 * Figure 5: CPMA and off-die bandwidth for the two-threaded RMS
 * benchmarks as the last-level cache grows 4 -> 12 -> 32 -> 64 MB
 * (the four Figure 7 organizations). Also echoes Table 3's
 * microarchitecture parameters and prints the Section 3 headline
 * aggregates.
 *
 * Usage: fig5_cpma_bandwidth [--quick] [--json PATH] [shared flags]
 *
 *   --quick      depth 0.25 (a fast smoke run)
 *   --json PATH  write {manifest, counters, meta, payload} to PATH
 *   plus the shared observability flags (--threads, --depth, --seed,
 *   --trace-out, --stats-json, --quiet, ...); see core::BenchCli.
 */

#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "common/json.hh"
#include "common/table.hh"
#include "core/cli.hh"
#include "core/memory_study.hh"
#include "core/study_json.hh"

using namespace stack3d;

namespace {

void
printTable3(std::ostream &os)
{
    printBanner(os, "Table 3: microarchitecture parameters");
    mem::HierarchyParams p =
        mem::makeHierarchyParams(mem::StackOption::Baseline4MB);
    TextTable t({"parameter", "value"});
    t.newRow().cell("L1D cache").cell("32KB, 64B line, 8-way, 4 cyc");
    t.newRow().cell("Shared L2").cell("4MB, 64B line, 16-way, 16 cyc");
    t.newRow().cell("Stacked L2 SRAM").cell("12MB, 24 cyc");
    t.newRow().cell("Stacked L2 DRAM").cell(
        "4-64MB, 512B page, 16 banks, 64B sectors");
    t.newRow().cell("Bank delays").cell(
        "open 50 / precharge 54 / read 50 cyc");
    t.newRow().cell("DDR main memory").cell(
        "16 banks, 4KB page, 192 cyc");
    t.newRow().cell("Off-die bus BW").cell(
        std::to_string(int(p.bus.bandwidth_gbps)) + " GB/s");
    t.print(os);
}

} // anonymous namespace

int
realMain(int argc, char **argv)
{
    core::BenchCli cli("fig5_cpma_bandwidth");
    core::RunOptions &opts = cli.options;
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        if (cli.consume(argc, argv, i))
            continue;
        if (std::strcmp(argv[i], "--quick") == 0)
            opts.depth = 0.25;
        else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            json_path = argv[++i];
    }
    cli.begin();

    if (!cli.quiet()) {
        printTable3(std::cout);

        printBanner(std::cout,
                    "Figure 5: CPMA and off-die BW vs LLC capacity");
        std::cout << "(two-threaded RMS traces, depth " << opts.depth
                  << ", " << opts.resolvedThreads()
                  << " thread(s); columns are the 4/12/32/64 MB "
                     "organizations)\n\n";
    }

    opts.progress = cli.progress();
    auto report = core::runMemoryStudy(opts);
    const core::MemoryStudyResult &result = report.payload;
    cli.recordMeta(report.meta);

    const auto &s = result.summary;
    if (!cli.quiet()) {
        TextTable t({"benchmark", "MB", "CPMA 4", "CPMA 12", "CPMA 32",
                     "CPMA 64", "BW 4", "BW 12", "BW 32", "BW 64"});
        double avg_cpma[4] = {0, 0, 0, 0};
        double avg_bw[4] = {0, 0, 0, 0};
        for (const auto &row : result.rows) {
            t.newRow().cell(row.benchmark).cell(row.footprint_mb, 1);
            for (int o = 0; o < 4; ++o)
                t.cell(row.cpma[o], 3);
            for (int o = 0; o < 4; ++o)
                t.cell(row.bw_gbps[o], 2);
            for (int o = 0; o < 4; ++o) {
                avg_cpma[o] += row.cpma[o] / double(result.rows.size());
                avg_bw[o] += row.bw_gbps[o] / double(result.rows.size());
            }
        }
        t.newRow().cell("Avg").cell("");
        for (int o = 0; o < 4; ++o)
            t.cell(avg_cpma[o], 3);
        for (int o = 0; o < 4; ++o)
            t.cell(avg_bw[o], 2);
        t.print(std::cout);
        std::cout << "\nCSV:\n";
        t.printCsv(std::cout);

        printBanner(std::cout,
                    "Section 3 headlines (32 MB DRAM option)");
        std::cout << "avg CPMA reduction:   "
                  << s.avg_cpma_reduction_32m * 100.0
                  << " %   (paper: 13% avg)\n"
                  << "max CPMA reduction:   "
                  << s.max_cpma_reduction_32m * 100.0
                  << " %   (paper: up to 55%)\n"
                  << "avg BW reduction:     "
                  << s.avg_bw_reduction_factor_32m
                  << " x   (paper: ~3x)\n"
                  << "avg bus-power saving: "
                  << s.avg_bus_power_reduction_32m * 100.0
                  << " %  (" << s.avg_bus_power_saving_w
                  << " W)   (paper: 66%, ~0.5 W)\n";

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
