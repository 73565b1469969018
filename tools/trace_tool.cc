/**
 * @file
 * Command-line utility for stack3d trace files:
 *
 *   trace_tool gen <kernel> <out.trace> [records_per_thread]
 *       Generate a benchmark's dependency-annotated trace to disk.
 *
 *   trace_tool info <file.trace>
 *       Print the trace's statistics (mix, footprint, dep chains).
 *
 *   trace_tool run <file.trace> <4|12|32|64>
 *       Simulate the trace against one Figure 7 cache organization
 *       and print CPMA / bandwidth plus the run's counters
 *       (EngineResult::counters), one "name value" line each.
 *
 *   trace_tool stats <file.trace> [4|12|32|64] [--json]
 *       Replay the trace (default: the 32 MB DRAM cache) and dump
 *       the per-level counter snapshot — hits/misses/miss rates/mpkr
 *       for every cache, DRAM bank behaviour, bus occupancy, DDR
 *       traffic — as aligned text or as a manifest+counters JSON
 *       object on stdout.
 *
 *   trace_tool sweep <file.trace>
 *       Simulate the trace against all four organizations — one
 *       study cell each, fanned out over --threads workers with live
 *       progress — and print the Figure 5-style comparison row.
 *
 * All subcommands also accept the shared observability flags
 * (--threads, --seed, --trace-out FILE, --stats-json FILE, --quiet,
 * --verbose); see core::BenchCli.
 *
 * Traces written by `gen` are reusable across runs and across the
 * four organizations, exactly like the paper's trace methodology.
 */

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "core/cli.hh"
#include "core/memory_study.hh"
#include "exec/pool.hh"
#include "mem/engine.hh"
#include "trace/file.hh"
#include "workloads/registry.hh"

using namespace stack3d;

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage:\n"
                 "  trace_tool gen <kernel> <out.trace> [records]\n"
                 "  trace_tool info <file.trace>\n"
                 "  trace_tool run <file.trace> <4|12|32|64>\n"
                 "  trace_tool stats <file.trace> [4|12|32|64] "
                 "[--json]\n"
                 "  trace_tool sweep <file.trace>\n");
    core::BenchCli::printUsage(std::cerr);
    return 2;
}

/** Map a megabyte count argument to its Figure 7 organization. */
bool
parseOption(const std::string &arg, mem::StackOption &opt)
{
    if (arg == "4")
        opt = mem::StackOption::Baseline4MB;
    else if (arg == "12")
        opt = mem::StackOption::Sram12MB;
    else if (arg == "32")
        opt = mem::StackOption::Dram32MB;
    else if (arg == "64")
        opt = mem::StackOption::Dram64MB;
    else
        return false;
    return true;
}

int
cmdGen(core::BenchCli &cli, const std::vector<std::string> &args)
{
    if (args.size() < 3)
        return usage();
    workloads::WorkloadConfig cfg;
    cfg.seed = cli.options.seed;
    if (args.size() > 3)
        cfg.records_per_thread = std::stoull(args[3]);
    auto kernel = workloads::makeRmsKernel(args[1].c_str());
    trace::TraceBuffer buf = kernel->generate(cfg);
    trace::writeTraceFile(args[2].c_str(), buf);
    if (!cli.quiet()) {
        std::printf("wrote %zu records to %s (%s)\n", buf.size(),
                    args[2].c_str(), kernel->description());
    }
    return cli.finish();
}

int
cmdInfo(core::BenchCli &cli, const std::vector<std::string> &args)
{
    if (args.size() < 2)
        return usage();
    trace::TraceBuffer buf = trace::readTraceFile(args[1].c_str());
    trace::TraceStats st = buf.computeStats();
    std::printf("records:      %llu\n",
                (unsigned long long)st.num_records);
    std::printf("loads:        %llu (%.1f%%)\n",
                (unsigned long long)st.num_loads,
                100.0 * double(st.num_loads) / double(st.num_records));
    std::printf("stores:       %llu (%.1f%%)\n",
                (unsigned long long)st.num_stores,
                100.0 * double(st.num_stores) / double(st.num_records));
    std::printf("with dep:     %llu (%.1f%%)\n",
                (unsigned long long)st.num_with_dep,
                100.0 * double(st.num_with_dep) /
                    double(st.num_records));
    std::printf("max chain:    %llu\n",
                (unsigned long long)st.max_dep_chain);
    std::printf("footprint:    %.2f MB (%llu lines)\n",
                double(st.footprint_bytes) / (1 << 20),
                (unsigned long long)st.footprint_lines);
    std::printf("cpu split:    %llu / %llu\n",
                (unsigned long long)st.records_cpu0,
                (unsigned long long)st.records_cpu1);
    return cli.finish();
}

int
cmdRun(core::BenchCli &cli, const std::vector<std::string> &args)
{
    if (args.size() < 3)
        return usage();
    mem::StackOption opt;
    if (!parseOption(args[2], opt))
        return usage();
    trace::TraceBuffer buf = trace::readTraceFile(args[1].c_str());

    mem::MemoryHierarchy hier(mem::makeHierarchyParams(opt));
    mem::TraceEngine engine;
    mem::EngineResult res = engine.run(buf, hier);
    cli.counters().mergePrefixed(res.counters, "mem.");
    std::printf("%s: CPMA %.3f, off-die %.2f GB/s, bus %.2f W, "
                "%llu cycles\n",
                mem::stackOptionName(opt), res.cpma, res.offdie_gbps,
                res.bus_power_w, (unsigned long long)res.total_cycles);
    std::printf("\n");
    for (const auto &[key, value] : res.counters.scalars())
        std::printf("  %-36s %.6g\n", key.c_str(), value);
    return cli.finish();
}

int
cmdStats(core::BenchCli &cli, const std::vector<std::string> &args)
{
    std::string file;
    mem::StackOption opt = mem::StackOption::Dram32MB;
    bool json = false;
    for (std::size_t k = 1; k < args.size(); ++k) {
        if (args[k] == "--json")
            json = true;
        else if (file.empty())
            file = args[k];
        else if (!parseOption(args[k], opt))
            return usage();
    }
    if (file.empty())
        return usage();

    trace::TraceBuffer buf = trace::readTraceFile(file.c_str());
    mem::MemoryHierarchy hier(mem::makeHierarchyParams(opt));
    mem::TraceEngine engine;
    mem::EngineResult res = engine.run(buf, hier);

    // Fold the replay's snapshot into the run-wide counters so it
    // also lands in --stats-json, then add the headline metrics.
    std::string prefix =
        "mem." + std::string(mem::stackOptionName(opt)) + ".";
    cli.counters().mergePrefixed(res.counters, prefix);
    cli.counters().set(prefix + "cpma", res.cpma);
    cli.counters().set(prefix + "offdie_gbps", res.offdie_gbps);
    cli.counters().set(prefix + "bus_power_w", res.bus_power_w);
    cli.counters().set(prefix + "total_cycles",
                       double(res.total_cycles));
    cli.addConfig("trace_file", file);
    cli.addConfig("stack_option", mem::stackOptionName(opt));

    if (json) {
        JsonWriter w(std::cout);
        w.beginObject();
        cli.writeJsonHeader(w);
        w.endObject();
        std::cout << "\n";
    } else {
        std::printf("%s on %s: %zu records\n\n",
                    mem::stackOptionName(opt), file.c_str(),
                    buf.size());
        for (const auto &[key, value] : cli.counters().scalars())
            std::printf("  %-36s %.6g\n", key.c_str(), value);
    }
    return cli.finish();
}

int
cmdSweep(core::BenchCli &cli, const std::vector<std::string> &args)
{
    if (args.size() < 2)
        return usage();
    core::RunOptions &opts = cli.options;

    trace::TraceBuffer buf = trace::readTraceFile(args[1].c_str());
    if (!cli.quiet()) {
        std::printf("sweeping %zu records over the four organizations "
                    "(%u thread(s))...\n",
                    buf.size(), opts.resolvedThreads());
    }

    // A tool run is interactive: show per-cell progress by default,
    // not only under --verbose like the benches.
    core::ConsoleProgressSink sink(std::cout);
    if (!cli.quiet())
        opts.progress = &sink;

    // One cell per Figure 7 organization, reported through the same
    // ProgressSink/StudyTracker machinery the studies use.
    core::StudyTracker tracker("sweep", core::kStackOptions.size(),
                               opts);
    std::array<mem::EngineResult, 4> results;

    exec::ThreadPool pool(opts.poolThreads());
    exec::parallelFor(pool, core::kStackOptions.size(),
                      [&](std::size_t o) {
        mem::StackOption option = core::kStackOptions[o];
        tracker.runCell(o, mem::stackOptionName(option), [&] {
            mem::MemoryHierarchy hier(
                mem::makeHierarchyParams(option));
            mem::TraceEngine engine;
            results[o] = engine.run(buf, hier);
        });
    });
    core::StudyMeta meta = tracker.finish();
    pool.appendCounters(meta.counters, "pool.");
    cli.recordMeta(meta);
    for (std::size_t o = 0; o < results.size(); ++o) {
        std::string prefix =
            "mem." +
            std::string(mem::stackOptionName(core::kStackOptions[o])) +
            ".";
        cli.counters().set(prefix + "cpma", results[o].cpma);
        cli.counters().set(prefix + "offdie_gbps",
                           results[o].offdie_gbps);
    }

    if (!cli.quiet()) {
        std::printf("\n%-12s %8s %10s %8s %10s\n", "option", "CPMA",
                    "offdie", "bus W", "LLC miss");
        for (std::size_t o = 0; o < results.size(); ++o) {
            std::printf("%-12s %8.3f %10.2f %8.2f %9.1f%%\n",
                        mem::stackOptionName(core::kStackOptions[o]),
                        results[o].cpma, results[o].offdie_gbps,
                        results[o].bus_power_w,
                        results[o].llc_miss_rate * 100.0);
        }
        std::printf("\nwall %.2fs on %u thread(s), serial-equivalent "
                    "%.2fs\n",
                    meta.wall_seconds, meta.threads_used,
                    meta.serial_seconds);
    }
    return cli.finish();
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    try {
        core::BenchCli cli("trace_tool");
        std::vector<std::string> args;
        for (int i = 1; i < argc; ++i) {
            if (!cli.consume(argc, argv, i))
                args.emplace_back(argv[i]);
        }
        if (args.empty())
            return usage();
        cli.begin();
        if (args[0] == "gen")
            return cmdGen(cli, args);
        if (args[0] == "info")
            return cmdInfo(cli, args);
        if (args[0] == "run")
            return cmdRun(cli, args);
        if (args[0] == "stats")
            return cmdStats(cli, args);
        if (args[0] == "sweep")
            return cmdSweep(cli, args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
    return usage();
}
