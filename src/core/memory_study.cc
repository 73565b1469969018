#include "memory_study.hh"

#include <algorithm>

#include "common/logging.hh"
#include "exec/future_set.hh"
#include "exec/pool.hh"

namespace stack3d {
namespace core {

std::uint64_t
recommendedRecordsPerThread(const std::string &benchmark)
{
    // Budgets sized so each benchmark completes several full
    // working-set sweeps (capacity effects need reuse, and the
    // larger-footprint kernels produce more records per sweep).
    struct Budget
    {
        const char *name;
        std::uint64_t records;
    };
    static const Budget budgets[] = {
        {"conj", 2000000},  {"dSym", 2000000}, {"gauss", 4000000},
        {"pcg", 4000000},   {"sMVM", 4500000}, {"sSym", 2000000},
        {"sTrans", 6000000},{"sAVDF", 2000000},{"sAVIF", 2000000},
        {"sUS", 7000000},   {"svd", 2000000},  {"svm", 6000000},
    };
    for (const Budget &b : budgets) {
        if (benchmark == b.name)
            return b.records;
    }
    return 2000000;
}

namespace {

/** Cells per benchmark: one trace generation + the four options. */
constexpr std::size_t kCellsPerBenchmark = 1 + kStackOptions.size();

std::string
optionCellLabel(const std::string &benchmark, std::size_t option)
{
    return benchmark + "/" +
           mem::stackOptionName(kStackOptions[option]);
}

/**
 * Recompute the ratio-style keys of a cross-benchmark counter
 * aggregate. accumulate() sums everything, which is right for raw
 * counts but turns miss rates / occupancies into sums of ratios;
 * rebuild those from the summed counts.
 */
void
fixupAggregateRatios(obs::CounterSet &c, mem::StackOption option)
{
    double accesses = c.value("accesses");
    auto rate = [&](const std::string &level) {
        if (!c.has(level + ".hits"))
            return;
        double hits = c.value(level + ".hits");
        double misses = c.value(level + ".misses");
        double total = hits + misses;
        c.set(level + ".miss_rate",
              total > 0.0 ? misses / total : 0.0);
        c.set(level + ".mpkr", accesses > 0.0
                                   ? misses * 1000.0 / accesses
                                   : 0.0);
    };
    rate("l1d");
    rate("l1i");
    rate("l2");
    if (c.has("dram_cache.miss_rate")) {
        double sh = c.value("dram_cache.sector_hits");
        double sm = c.value("dram_cache.sector_misses");
        double pm = c.value("dram_cache.page_misses");
        double total = sh + sm + pm;
        c.set("dram_cache.miss_rate",
              total > 0.0 ? (sm + pm) / total : 0.0);
    }
    if (c.has("bus.achieved_gbps")) {
        mem::BusParams bus = mem::makeHierarchyParams(option).bus;
        double cycles = c.value("engine.total_cycles");
        double seconds = cycles / (bus.core_freq_ghz * 1e9);
        double gbps = seconds > 0.0
                          ? c.value("bus.bytes") / 1e9 / seconds
                          : 0.0;
        c.set("bus.achieved_gbps", gbps);
        c.set("bus.occupancy", bus.bandwidth_gbps > 0.0
                                   ? gbps / bus.bandwidth_gbps
                                   : 0.0);
    }
}

} // anonymous namespace

StudyReport<MemoryStudyResult>
runMemoryStudy(const RunOptions &options, const MemoryStudySpec &spec)
{
    std::vector<std::string> benchmarks = spec.benchmarks;
    if (benchmarks.empty())
        benchmarks = workloads::rmsKernelNames();

    // Validate names up front so an unknown benchmark fails fast and
    // deterministically, before any cell is launched.
    {
        std::vector<std::string> known = workloads::rmsKernelNames();
        for (const std::string &name : benchmarks) {
            if (std::find(known.begin(), known.end(), name) ==
                known.end()) {
                stack3d_fatal("unknown RMS benchmark '", name, "'");
            }
        }
    }

    const std::size_t num_benchmarks = benchmarks.size();
    StudyTracker tracker("memory",
                         num_benchmarks * kCellsPerBenchmark, options);

    StudyReport<MemoryStudyResult> report;
    MemoryStudyResult &result = report.payload;
    result.rows.resize(num_benchmarks);
    std::vector<trace::TraceBuffer> traces(num_benchmarks);

    // Serial when threads == 1 (inline pool: tasks run at submit()).
    unsigned workers = options.resolvedThreads();
    exec::ThreadPool pool(workers > 1 ? workers : 0);

    // ---- stage 1: trace generation, one cell per benchmark --------
    exec::parallelFor(pool, num_benchmarks, [&](std::size_t b) {
        const std::string &name = benchmarks[b];
        tracker.runCell(b * kCellsPerBenchmark, name + "/trace", [&] {
            auto kernel = workloads::makeRmsKernel(name);

            workloads::WorkloadConfig wcfg;
            wcfg.scale = options.scale;
            wcfg.seed = deriveCellSeed(options.seed, cellKey(name));
            wcfg.records_per_thread = std::uint64_t(
                double(recommendedRecordsPerThread(name)) *
                options.depth);
            if (wcfg.records_per_thread < 1000)
                wcfg.records_per_thread = 1000;

            traces[b] = kernel->generate(wcfg);

            MemoryStudyRow &row = result.rows[b];
            row.benchmark = name;
            row.records = traces[b].size();
            row.footprint_mb =
                double(kernel->nominalFootprintBytes(wcfg)) / (1 << 20);
        });
    });

    // ---- stage 2: benchmark x option engine cells ------------------
    const std::size_t num_options = kStackOptions.size();
    std::vector<obs::CounterSet> cell_counters(num_benchmarks *
                                               num_options);
    exec::parallelFor(
        pool, num_benchmarks * num_options, [&](std::size_t i) {
            std::size_t b = i / num_options;
            std::size_t o = i % num_options;
            std::size_t cell = b * kCellsPerBenchmark + 1 + o;
            tracker.runCell(cell, optionCellLabel(benchmarks[b], o),
                            [&] {
                mem::HierarchyParams hp =
                    mem::makeHierarchyParams(kStackOptions[o]);
                mem::MemoryHierarchy hier(hp);
                mem::TraceEngine engine;
                mem::EngineResult er = engine.run(traces[b], hier);
                MemoryStudyRow &row = result.rows[b];
                row.cpma[o] = er.cpma;
                row.bw_gbps[o] = er.offdie_gbps;
                row.bus_power_w[o] = er.bus_power_w;
                row.llc_miss[o] = er.llc_miss_rate;
                cell_counters[i] = std::move(er.counters);
            });
        });

    // ---- merge: headline aggregates in canonical row order --------
    // (32 MB option, index 2, vs baseline 0.)
    MemoryStudySummary &sum = result.summary;
    double n = double(result.rows.size());
    double bw_base_total = 0.0;
    double bw_32_total = 0.0;
    for (const MemoryStudyRow &row : result.rows) {
        double reduction =
            row.cpma[0] > 0.0 ? 1.0 - row.cpma[2] / row.cpma[0] : 0.0;
        sum.avg_cpma_reduction_32m += reduction / n;
        sum.max_cpma_reduction_32m =
            std::max(sum.max_cpma_reduction_32m, reduction);
        bw_base_total += row.bw_gbps[0];
        bw_32_total += row.bw_gbps[2];
        if (row.bus_power_w[0] > 0.0) {
            sum.avg_bus_power_reduction_32m +=
                (1.0 - row.bus_power_w[2] / row.bus_power_w[0]) / n;
        }
        sum.avg_bus_power_saving_w +=
            (row.bus_power_w[0] - row.bus_power_w[2]) / n;
    }
    // Ratio of totals: a per-benchmark mean explodes when a warm
    // benchmark's off-die traffic goes to ~zero.
    if (bw_32_total > 0.0)
        sum.avg_bw_reduction_factor_32m = bw_base_total / bw_32_total;

    report.meta = tracker.finish();

    // Per-option counter aggregates across benchmarks, merged in
    // canonical option order (serial, so the fold is deterministic
    // for every thread count).
    for (std::size_t o = 0; o < num_options; ++o) {
        obs::CounterSet agg;
        for (std::size_t b = 0; b < num_benchmarks; ++b)
            agg.accumulate(cell_counters[b * num_options + o]);
        fixupAggregateRatios(agg, kStackOptions[o]);
        report.meta.counters.mergePrefixed(
            agg, "mem." +
                     std::string(mem::stackOptionName(
                         kStackOptions[o])) +
                     ".");
    }
    pool.appendCounters(report.meta.counters);
    return report;
}

} // namespace core
} // namespace stack3d
