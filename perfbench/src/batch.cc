/**
 * @file
 * The batch workloads: memory (Fig 5) and logic-thermal (Table 4 /
 * Fig 11 / Table 5, Fig 8, Fig 3 and a transient power-on).
 *
 * Untraced passes call the study entry points exactly as a user
 * regenerating the figures does. A traced pass rebuilds the same
 * payloads serially from direct layer calls, timing each call, and
 * must reproduce the untraced payload digests bit for bit.
 */

#include <algorithm>
#include <map>
#include <memory>
#include <optional>

#include "common/digest.hh"
#include "core/logic_study.hh"
#include "core/memory_study.hh"
#include "core/study_json.hh"
#include "core/thermal_study.hh"
#include "cpu/suite.hh"
#include "floorplan/reference.hh"
#include "mem/engine.hh"
#include "thermal/stacks.hh"
#include "thermal/transient.hh"
#include "workloads.hh"
#include "workloads/registry.hh"

namespace perfbench {

using namespace stack3d;

namespace {

/**
 * Memory-study trace length multiplier (scale stays 1.0). A pass
 * takes a few seconds, so a run holds a dozen passes to take the
 * median of.
 */
constexpr double kMemoryDepth = 0.05;
/** Logic-study trace length multiplier (µops per suite trace). */
constexpr double kLogicDepth = 0.1;

/** Study worker threads of the memory workload (of 4 cores). */
constexpr unsigned kMemoryThreads = 2;
/**
 * Study worker threads of the logic-thermal workload. With two, the
 * Table 4 cell runs beside the short thermal-solve cells and their
 * latencies swing up to 2x with how the host places the two threads,
 * which spread the cold p90 three to four times as wide as wall time.
 */
constexpr unsigned kLogicThreads = 1;

/**
 * Lateral thermal meshes of the logic-thermal studies: half each
 * study's default resolution in each direction, so that a pass takes
 * about 4 s rather than a dozen and a run holds about seven.
 */
constexpr unsigned
halved(unsigned n)
{
    return (n + 1) / 2;
}

/** A study spec with its default thermal mesh halved. */
template <typename Spec>
Spec
halvedMesh()
{
    Spec spec;
    spec.die_nx = halved(spec.die_nx);
    spec.die_ny = halved(spec.die_ny);
    return spec;
}

/**
 * Transient power-on: the Fig 8(c) stack on the Fig 8 mesh above,
 * three implicit-Euler steps (about a seventh of a pass).
 */
constexpr unsigned kTransientNx = halved(core::kDefaultDieNx);
constexpr unsigned kTransientNy = halved(core::kDefaultDieNy);
constexpr double kTransientSeconds = 0.75;
constexpr double kTransientDt = 0.25;

core::RunOptions
batchOptions(std::uint64_t seed, double depth, unsigned threads)
{
    core::RunOptions opts;
    opts.threads = threads;
    opts.seed = studySeed(seed);
    opts.depth = depth;
    opts.verbosity = core::Verbosity::Silent;
    return opts;
}

/** exec.* and core.* metrics, summed over a pass's study reports. */
struct MetaTotals
{
    double wall = 0.0;
    double serial = 0.0;
    double cell_max = 0.0;
    double stolen = 0.0;
    double sleeps = 0.0;
    double queue_high_water = 0.0;

    void
    add(const core::StudyMeta &meta)
    {
        wall += meta.wall_seconds;
        serial += meta.serial_seconds;
        for (const core::CellTiming &c : meta.cells)
            cell_max = std::max(cell_max, c.seconds);
        stolen += meta.counters.value("pool.stolen");
        sleeps += meta.counters.value("pool.sleeps");
        queue_high_water = std::max(
            queue_high_water, meta.counters.value("pool.queue_high_water"));
    }

    void
    write(LayerMetrics &m, unsigned threads) const
    {
        m["exec.parallel_eff"] =
            wall > 0.0 ? serial / (wall * threads) : 0.0;
        m["exec.stolen"] = stolen;
        m["exec.sleeps"] = sleeps;
        m["exec.queue_high_water"] = queue_high_water;
        m["core.cell_max_s"] = cell_max;
        m["core.serial_s"] = serial;
    }
};

void
recordCells(const core::StudyMeta &meta, DriverResult &out)
{
    for (const core::CellTiming &c : meta.cells)
        out.latencies["cell"].push_back(c.seconds);
}

/**
 * One study step's output digest and its latency. A repeated step
 * must reproduce the first pass's payload.
 */
void
recordStep(DriverResult &out, const std::string &name,
           const std::string &digest, double seconds)
{
    const auto [it, first] = out.digests.emplace(name, digest);
    const bool same = it->second == digest;
    if (!first)
        out.check(same, name + " payload differs between passes");
    out.ops[name].push_back({seconds, same});
}

/** Cell latencies an untraced batch run holds at least. */
constexpr std::size_t kMinCells = 100;

// ---- memory ----------------------------------------------------------

/** Metric-name labels of core::kStackOptions, in order. */
const char *const kOptionLabels[] = {"baseline4m", "sram12m", "dram32m",
                                     "dram64m"};

/**
 * L2 misses of one replay: the SRAM L2's, or for the stacked-DRAM
 * options (where the DRAM cache is the L2) its sector + page misses.
 */
double
l2Misses(const obs::CounterSet &c, const std::string &prefix = "")
{
    if (c.has(prefix + "l2.misses"))
        return c.value(prefix + "l2.misses");
    return c.value(prefix + "dram_cache.sector_misses") +
           c.value(prefix + "dram_cache.page_misses");
}

struct MemoryPass
{
    core::StudyReport<core::MemoryStudyResult> report;
    PhaseCost cost;
    std::string digest;
};

MemoryPass
memoryPass(const core::RunOptions &opts)
{
    MemoryPass p;
    PhaseTimer timer;
    p.report = core::runMemoryStudy(opts);
    p.cost = timer.stop();
    p.digest = payloadDigest([&](JsonWriter &w) {
        core::writeMemoryStudyResultJson(w, p.report.payload);
    });
    return p;
}

/** The Section 3 headline aggregates, as runMemoryStudy merges them. */
void
summarizeMemory(core::MemoryStudyResult &result)
{
    core::MemoryStudySummary &sum = result.summary;
    double n = double(result.rows.size());
    double bw_base_total = 0.0;
    double bw_32_total = 0.0;
    for (const core::MemoryStudyRow &row : result.rows) {
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
    if (bw_32_total > 0.0)
        sum.avg_bw_reduction_factor_32m = bw_base_total / bw_32_total;
}

/**
 * Serial direct-call composition of the memory study: generate and
 * decode every trace (all kept alive, as the study keeps them), then
 * replay each on a fresh hierarchy per stack option.
 */
LayerMetrics
tracedMemory(const core::RunOptions &opts, const MemoryPass &untraced,
             DriverResult &out)
{
    LayerClock clock;
    LayerMetrics m;
    const double t0 = monotonicNow();
    const std::vector<std::string> names = workloads::rmsKernelNames();
    const std::size_t num_options = core::kStackOptions.size();

    core::MemoryStudyResult result;
    result.rows.resize(names.size());
    std::vector<trace::TraceBuffer> traces(names.size());

    double records = 0.0;
    const double rss0 = vmRssMb();
    for (std::size_t b = 0; b < names.size(); ++b) {
        workloads::WorkloadConfig wcfg;
        wcfg.scale = opts.scale;
        wcfg.seed = core::deriveCellSeed(opts.seed,
                                         core::cellKey(names[b]));
        wcfg.records_per_thread = std::max<std::uint64_t>(
            1000, std::uint64_t(double(core::recommendedRecordsPerThread(
                                    names[b])) *
                                opts.depth));
        auto kernel = clock.time("workloads", "workloads.gen_s", [&] {
            return workloads::makeRmsKernel(names[b]);
        });
        traces[b] = clock.time("workloads", "workloads.gen_s",
                               [&] { return kernel->generate(wcfg); });
        clock.time("trace", "trace.decode_s",
                   [&] { (void)traces[b].columns(); });
        core::MemoryStudyRow &row = result.rows[b];
        row.benchmark = names[b];
        row.records = traces[b].size();
        row.footprint_mb =
            double(kernel->nominalFootprintBytes(wcfg)) / (1 << 20);
        records += double(row.records);
    }
    const double rss_growth = vmRssMb() - rss0;

    std::vector<double> cycles(num_options, 0.0);
    std::vector<double> l2_misses(num_options, 0.0);
    double tag_probes = 0.0;
    for (std::size_t b = 0; b < names.size(); ++b) {
        for (std::size_t o = 0; o < num_options; ++o) {
            auto hier = clock.time("mem", "mem.build_s", [&] {
                return std::make_unique<mem::MemoryHierarchy>(
                    mem::makeHierarchyParams(core::kStackOptions[o]));
            });
            mem::TraceEngine engine;
            mem::EngineResult er =
                clock.time("mem", "mem.replay_ms." + names[b],
                           [&] { return engine.run(traces[b], *hier); });
            core::MemoryStudyRow &row = result.rows[b];
            row.cpma[o] = er.cpma;
            row.bw_gbps[o] = er.offdie_gbps;
            row.bus_power_w[o] = er.bus_power_w;
            row.llc_miss[o] = er.llc_miss_rate;
            cycles[o] += er.counters.value("engine.total_cycles");
            l2_misses[o] += l2Misses(er.counters);
            tag_probes += er.counters.value("tag_probe.probes");
        }
    }
    summarizeMemory(result);
    const double wall = monotonicNow() - t0;

    std::string digest = payloadDigest([&](JsonWriter &w) {
        core::writeMemoryStudyResultJson(w, result);
    });
    out.check(digest == untraced.digest,
              "traced memory composition does not reproduce the "
              "study payload");

    // Simulated statistics come from the study's own counters; the
    // direct composition must count the same events.
    const obs::CounterSet &c = untraced.report.meta.counters;
    double sim_cycles = 0.0;
    double study_probes = 0.0;
    for (std::size_t o = 0; o < num_options; ++o) {
        std::string prefix = "mem." +
                             std::string(mem::stackOptionName(
                                 core::kStackOptions[o])) +
                             ".";
        double study_cycles = c.value(prefix + "engine.total_cycles");
        double study_l2 = l2Misses(c, prefix);
        out.check(study_cycles == cycles[o] && study_l2 == l2_misses[o],
                  "traced memory counters differ at " + prefix);
        sim_cycles += study_cycles;
        study_probes += c.value(prefix + "tag_probe.probes");
        m[std::string("mem.l2_misses.") + kOptionLabels[o]] = study_l2;
    }
    out.check(study_probes == tag_probes,
              "traced memory tag-probe count differs");
    m["mem.sim_cycles"] = sim_cycles;
    m["mem.tag_probes"] = study_probes;

    double replay_s = 0.0;
    for (const std::string &name : names) {
        double s = clock.metric("mem.replay_ms." + name);
        m["mem.replay_ms." + name] = 1e3 * s;
        replay_s += s;
    }
    m["mem.replay_s"] = replay_s;
    m["mem.refs_per_s"] =
        replay_s > 0.0 ? records * double(num_options) / replay_s : 0.0;
    m["workloads.gen_s"] = clock.metric("workloads.gen_s");
    m["workloads.records"] = records;
    m["trace.decode_s"] = clock.metric("trace.decode_s");
    m["trace.rss_mb"] = rss_growth;
    m["trace.bytes_per_record"] =
        records > 0.0 ? rss_growth * double(1 << 20) / records : 0.0;

    MetaTotals totals;
    totals.add(untraced.report.meta);
    totals.write(m, opts.threads);
    m["bench.traced_coverage"] = clock.totalSelf() / wall;
    m["bench.trace_overhead_frac"] = wall / totals.serial - 1.0;
    m["model.avg_cpma_reduction_32m"] =
        untraced.report.payload.summary.avg_cpma_reduction_32m;
    m["model.bw_reduction_factor_32m"] =
        untraced.report.payload.summary.avg_bw_reduction_factor_32m;
    addProcessMetrics(untraced.cost, m);
    return m;
}

// ---- logic-thermal ---------------------------------------------------

/** The Fig 8(c) 32 MB DRAM stack, meshed for the transient solve. */
std::unique_ptr<thermal::Mesh>
transientMesh()
{
    floorplan::Floorplan base32 =
        floorplan::makeCore2BaseDie32MKeepOutline();
    floorplan::Floorplan dram = floorplan::makeCacheDie(
        base32, "dram32m", floorplan::budgets::stacked_dram_32mb);
    floorplan::Floorplan combined =
        floorplan::stackFloorplans(base32, dram, "core2_32m");
    thermal::StackGeometry geom = thermal::makeTwoDieStack(
        combined.width(), combined.height(),
        thermal::StackedDieType::Dram);
    auto mesh = std::make_unique<thermal::Mesh>(geom, kTransientNx,
                                                kTransientNy);
    mesh->setLayerPower(geom.layerIndex("active1"),
                        combined.powerMap(kTransientNx, kTransientNy, 0));
    mesh->setLayerPower(geom.layerIndex("active2"),
                        combined.powerMap(kTransientNx, kTransientNy, 1));
    return mesh;
}

std::string
transientDigest(const thermal::TransientResult &tr)
{
    Fnv1aDigest d;
    d.mix(std::uint64_t(tr.samples.size()));
    for (const thermal::TransientSample &s : tr.samples) {
        d.mixDouble(s.time_s);
        d.mixDouble(s.peak_c);
    }
    d.mixDouble(tr.time_constant_s);
    for (double t : tr.final_field.raw())
        d.mixDouble(t);
    return digestHex(d.value());
}

struct LogicThermalPass
{
    core::StudyReport<core::LogicStudyResult> logic;
    core::StudyReport<core::StackThermalResult> stack;
    core::StudyReport<std::vector<core::SensitivityPoint>> sensitivity;
    std::map<std::string, std::string> digests;
    std::map<std::string, double> step_s;
    double transient_s = 0.0;
    PhaseCost cost;
};

LogicThermalPass
logicThermalPass(const core::RunOptions &opts)
{
    LogicThermalPass p;
    auto step = [&](const char *name, auto &&fn) {
        double t0 = monotonicNow();
        fn();
        p.step_s[name] = monotonicNow() - t0;
    };
    PhaseTimer timer;
    step("logic", [&] {
        p.logic = core::runLogicStudy(
            opts, halvedMesh<core::LogicStudySpec>());
    });
    step("stack-thermal", [&] {
        p.stack = core::runStackThermalStudy(
            opts, halvedMesh<core::StackThermalSpec>());
    });
    step("sensitivity", [&] {
        p.sensitivity = core::runConductivitySensitivity(
            opts, halvedMesh<core::SensitivitySpec>());
    });
    std::unique_ptr<thermal::Mesh> mesh;
    std::optional<thermal::TransientResult> tr;
    step("transient", [&] {
        mesh = transientMesh();
        tr = thermal::solveTransient(*mesh, kTransientSeconds,
                                     kTransientDt);
    });
    p.cost = timer.stop();
    p.transient_s = p.step_s.at("transient");

    p.digests["logic"] = payloadDigest([&](JsonWriter &w) {
        core::writeLogicStudyResultJson(w, p.logic.payload);
    });
    p.digests["stack-thermal"] = payloadDigest([&](JsonWriter &w) {
        core::writeStackThermalResultJson(w, p.stack.payload);
    });
    p.digests["sensitivity"] = payloadDigest([&](JsonWriter &w) {
        core::writeSensitivityResultJson(w, p.sensitivity.payload);
    });
    p.digests["transient"] = transientDigest(*tr);
    return p;
}

/** Times steady solves and tallies their convergence reports. */
struct SteadyTally
{
    LayerClock &clock;
    double solves = 0.0;
    double cg_iters = 0.0;
    double v_cycles = 0.0;

    void
    note(const thermal::SolveInfo &info)
    {
        solves += 1.0;
        cg_iters += info.iterations;
        v_cycles += info.v_cycles;
    }

    core::ThermalPoint
    solve(const floorplan::Floorplan &fp, thermal::StackedDieType type,
          const thermal::PackageModel &pkg, unsigned nx, unsigned ny,
          const thermal::SolverOptions &sopt = {},
          core::ThermalSolution *solution = nullptr)
    {
        core::ThermalPoint p =
            clock.time("thermal", "thermal.steady_s", [&] {
                return core::solveFloorplanThermals(
                    fp, type, pkg, {}, solution, nx, ny, sopt);
            });
        note(p.solve);
        return p;
    }
};

/** runLogicStudy's composition, serial, from direct layer calls. */
core::LogicStudyResult
composeLogic(const core::RunOptions &opts, LayerClock &clock,
             SteadyTally &steady)
{
    using floorplan::Floorplan;
    using thermal::StackedDieType;
    const core::LogicStudySpec spec = halvedMesh<core::LogicStudySpec>();
    core::LogicStudyResult r;
    r.power_saving_3d = clock.time("power", "power_s", [&] {
        return 1.0 - spec.power_breakdown.stackedRelativePower();
    });
    const thermal::PackageModel pkg = thermal::makeP4Package();
    const Floorplan planar = clock.time("floorplan", "floorplan.plan_s",
                                        [] {
        return floorplan::makePentium4Planar();
    });
    const double planar_density = planar.peakBlockDensity(0);

    cpu::SuiteOptions suite = spec.suite;
    suite.seed = core::deriveCellSeed(opts.seed, core::cellKey("cpu-suite"));
    suite.uops_per_trace = std::max<std::uint64_t>(
        1000, std::uint64_t(double(suite.uops_per_trace) * opts.depth));
    r.table4 = clock.time("cpu", "cpu.table4_s",
                          [&] { return cpu::computeTable4(suite); });

    auto fold = [&](auto &&make) {
        return clock.time("floorplan", "floorplan.plan_s", make);
    };
    r.fig11.planar = steady.solve(planar, StackedDieType::None, pkg,
                                  spec.die_nx, spec.die_ny);
    Floorplan stacked = fold([&] {
        return floorplan::makePentium43D(1.0 - r.power_saving_3d);
    });
    r.fig11.stacked = steady.solve(stacked, StackedDieType::LogicSram,
                                   pkg, spec.die_nx, spec.die_ny);
    r.fig11.stacked_density_ratio =
        stacked.peakStackedDensity() / planar_density;
    Floorplan worst =
        fold([] { return floorplan::makePentium43DWorstCase(); });
    r.fig11.worst_case = steady.solve(worst, StackedDieType::LogicSram,
                                      pkg, spec.die_nx, spec.die_ny);
    r.fig11.worst_density_ratio =
        worst.peakStackedDensity() / planar_density;

    const double gain = r.table4.total_perf_gain_pct / 100.0;
    const double baseline_w = planar.totalPower();
    auto points = clock.time("power", "power_s", [&] {
        return power::computeTable5Points(baseline_w, gain,
                                          r.power_saving_3d,
                                          spec.vf_model);
    });
    for (const power::OperatingPoint &point : points) {
        core::Table5Row row;
        row.point = point;
        if (std::string(point.label) == "Baseline") {
            row.temp_c = r.fig11.planar.peak_c;
        } else {
            Floorplan scaled = fold([&] {
                return floorplan::makePentium43D(point.power_w /
                                                 baseline_w);
            });
            row.temp_c = steady.solve(scaled, StackedDieType::LogicSram,
                                      pkg, spec.die_nx, spec.die_ny)
                             .peak_c;
        }
        r.table5.push_back(row);
    }
    return r;
}

/** runStackThermalStudy's composition (Fig 8), serial. */
core::StackThermalResult
composeStackThermal(LayerClock &clock, SteadyTally &steady)
{
    using floorplan::Floorplan;
    using thermal::StackedDieType;
    namespace fp = floorplan;
    const core::StackThermalSpec spec = halvedMesh<core::StackThermalSpec>();
    auto fold = [&](auto &&make) {
        return clock.time("floorplan", "floorplan.plan_s", make);
    };
    core::StackThermalResult r;
    const Floorplan base = fold([] { return fp::makeCore2Duo(); });
    r.options[0] = steady.solve(base, StackedDieType::None, {},
                                spec.die_nx, spec.die_ny);
    Floorplan sram12 = fold([&] {
        return fp::stackFloorplans(
            base,
            fp::makeCacheDie(base, "sram8m",
                             fp::budgets::stacked_sram_8mb),
            "core2_12m");
    });
    r.options[1] = steady.solve(sram12, StackedDieType::LogicSram, {},
                                spec.die_nx, spec.die_ny);
    Floorplan dram32 = fold([] {
        Floorplan base32 = fp::makeCore2BaseDie32MKeepOutline();
        return fp::stackFloorplans(
            base32,
            fp::makeCacheDie(base32, "dram32m",
                             fp::budgets::stacked_dram_32mb),
            "core2_32m");
    });
    core::ThermalSolution sol32;
    r.options[2] = steady.solve(dram32, StackedDieType::Dram, {},
                                spec.die_nx, spec.die_ny, {}, &sol32);
    Floorplan dram64 = fold([&] {
        return fp::stackFloorplans(
            base,
            fp::makeCacheDie(base, "dram64m",
                             fp::budgets::stacked_dram_64mb),
            "core2_64m");
    });
    thermal::SolverOptions warm;
    warm.warm_start = &sol32.field->raw();
    r.options[3] = steady.solve(dram64, StackedDieType::Dram, {},
                                spec.die_nx, spec.die_ny, warm);
    return r;
}

/**
 * runConductivitySensitivity's composition (Fig 3): per swept layer,
 * one mesh whose conductivity is updated point to point, each solve
 * warm-started from the previous field.
 */
std::vector<core::SensitivityPoint>
composeSensitivity(LayerClock &clock, SteadyTally &steady)
{
    using thermal::StackedDieType;
    const core::SensitivitySpec spec = halvedMesh<core::SensitivitySpec>();
    const floorplan::Floorplan stacked = clock.time(
        "floorplan", "floorplan.plan_s",
        [] { return floorplan::makePentium43D(); });
    const thermal::PackageModel pkg = thermal::makeP4Package();
    std::vector<core::SensitivityPoint> points(
        spec.conductivities.size());
    for (int chain = 0; chain < 2; ++chain) {
        const bool sweep_bond = chain == 1;
        std::unique_ptr<thermal::Mesh> mesh;
        std::vector<double> prev_field;
        for (std::size_t i = 0; i < points.size(); ++i) {
            const double k = spec.conductivities[i];
            points[i].conductivity = k;
            if (!mesh) {
                thermal::StackOverrides ovr;
                if (sweep_bond)
                    ovr.bond_conductivity = k;
                else
                    ovr.cu_metal_conductivity = k;
                auto maps = clock.time("floorplan", "floorplan.plan_s",
                                       [&] {
                    return std::make_pair(
                        stacked.powerMap(spec.die_nx, spec.die_ny, 0),
                        stacked.powerMap(spec.die_nx, spec.die_ny, 1));
                });
                mesh = clock.time("thermal", "thermal.steady_s", [&] {
                    thermal::StackGeometry geom =
                        thermal::makeTwoDieStack(
                            stacked.width(), stacked.height(),
                            StackedDieType::LogicSram, pkg, ovr);
                    auto m = std::make_unique<thermal::Mesh>(
                        geom, spec.die_nx, spec.die_ny);
                    m->setLayerPower(geom.layerIndex("active1"),
                                     maps.first);
                    m->setLayerPower(geom.layerIndex("active2"),
                                     maps.second);
                    return m;
                });
            } else {
                clock.time("thermal", "thermal.steady_s", [&] {
                    const thermal::StackGeometry &geom =
                        mesh->geometry();
                    if (sweep_bond) {
                        mesh->updateLayerConductivity(
                            geom.layerIndex("bond"), k);
                    } else {
                        mesh->updateLayerConductivity(
                            geom.layerIndex("metal1"), k);
                        mesh->updateLayerConductivity(
                            geom.layerIndex("metal2"), k);
                    }
                });
            }
            thermal::SolverOptions sopt;
            if (!prev_field.empty())
                sopt.warm_start = &prev_field;
            thermal::SolveInfo info;
            thermal::TemperatureField field =
                clock.time("thermal", "thermal.steady_s", [&] {
                    return thermal::solveSteadyState(*mesh, sopt, &info);
                });
            steady.note(info);
            const thermal::StackGeometry &geom = mesh->geometry();
            const double peak =
                std::max(field.layerPeak(geom.layerIndex("active1")),
                         field.layerPeak(geom.layerIndex("active2")));
            (sweep_bond ? points[i].peak_bond_swept
                        : points[i].peak_cu_swept) = peak;
            prev_field = field.raw();
        }
    }
    return points;
}

LayerMetrics
tracedLogicThermal(const core::RunOptions &opts,
                   const LogicThermalPass &untraced, DriverResult &out)
{
    LayerClock clock;
    SteadyTally steady{clock};
    LayerMetrics m;
    const double t0 = monotonicNow();

    core::LogicStudyResult logic = composeLogic(opts, clock, steady);
    core::StackThermalResult stack = composeStackThermal(clock, steady);
    std::vector<core::SensitivityPoint> sens =
        composeSensitivity(clock, steady);
    auto mesh = clock.time("thermal", "thermal.transient_s",
                           [] { return transientMesh(); });
    thermal::TransientResult tr =
        clock.time("thermal", "thermal.transient_s", [&] {
            return thermal::solveTransient(*mesh, kTransientSeconds,
                                           kTransientDt);
        });

    // One planar suite run, for the cost of a single pipeline pass
    // that computeTable4's repeated evaluations are measured against.
    // Not part of the untraced work.
    cpu::SuiteOptions suite_opts;
    suite_opts.seed =
        core::deriveCellSeed(opts.seed, core::cellKey("cpu-suite"));
    suite_opts.uops_per_trace = std::max<std::uint64_t>(
        1000,
        std::uint64_t(double(suite_opts.uops_per_trace) * opts.depth));
    auto suite = clock.time("cpu", "cpu.suite_build_s", [&] {
        return std::make_unique<cpu::TraceSuite>(suite_opts);
    });
    cpu::SuiteResult planar_run = clock.time("cpu", "cpu.suite_run_s", [&] {
        return suite->run(cpu::PipelineConfig::planar());
    });
    const double wall = monotonicNow() - t0;

    std::map<std::string, std::string> digests;
    digests["logic"] = payloadDigest([&](JsonWriter &w) {
        core::writeLogicStudyResultJson(w, logic);
    });
    digests["stack-thermal"] = payloadDigest([&](JsonWriter &w) {
        core::writeStackThermalResultJson(w, stack);
    });
    digests["sensitivity"] = payloadDigest([&](JsonWriter &w) {
        core::writeSensitivityResultJson(w, sens);
    });
    digests["transient"] = transientDigest(tr);
    for (const auto &[name, digest] : digests) {
        out.check(untraced.digests.at(name) == digest,
                  "traced " + name +
                      " composition does not reproduce the payload");
    }

    const double table4_s = clock.metric("cpu.table4_s");
    const double run_s = clock.metric("cpu.suite_run_s");
    m["cpu.table4_s"] = table4_s;
    m["cpu.suite_run_s"] = run_s;
    m["cpu.table4_runs_equiv"] = run_s > 0.0 ? table4_s / run_s : 0.0;
    m["cpu.uops_per_s"] =
        run_s > 0.0 ? double(planar_run.uops) / run_s : 0.0;
    m["thermal.steady_s"] = clock.metric("thermal.steady_s");
    m["thermal.steady_solves"] = steady.solves;
    m["thermal.cg_iters"] = steady.cg_iters;
    m["thermal.v_cycles"] = steady.v_cycles;
    const double transient_s = clock.metric("thermal.transient_s");
    m["thermal.transient_s"] = transient_s;
    m["thermal.transient_step_ms"] =
        tr.samples.empty() ? 0.0
                           : 1e3 * transient_s / double(tr.samples.size());
    m["floorplan.plan_s"] = clock.metric("floorplan.plan_s");

    MetaTotals totals;
    totals.add(untraced.logic.meta);
    totals.add(untraced.stack.meta);
    totals.add(untraced.sensitivity.meta);
    totals.write(m, opts.threads);
    // The transient solve runs outside any study: one serial cell.
    m["core.serial_s"] += untraced.transient_s;
    m["core.cell_max_s"] =
        std::max(m["core.cell_max_s"], untraced.transient_s);
    m["bench.traced_coverage"] = clock.totalSelf() / wall;
    // The suite probe is traced-only work; leave it out of the
    // like-for-like overhead figure.
    const double probe_s = clock.metric("cpu.suite_build_s") + run_s;
    m["bench.trace_overhead_frac"] =
        (wall - probe_s) / m["core.serial_s"] - 1.0;
    m["model.table4_total_gain_pct"] =
        untraced.logic.payload.table4.total_perf_gain_pct;
    m["model.fig11_stacked_peak_c"] =
        untraced.logic.payload.fig11.stacked.peak_c;
    addProcessMetrics(untraced.cost, m);
    return m;
}

} // anonymous namespace

void
addProcessMetrics(const PhaseCost &cost, LayerMetrics &layers)
{
    layers["process.minor_faults"] = cost.minor_faults;
    layers["process.major_faults"] = cost.major_faults;
    layers["process.user_s"] = cost.user_s;
    layers["process.sys_s"] = cost.sys_s;
}

/**
 * Untraced batch run: one warm-up pass, whose outputs are kept for the
 * checks but whose timings are dropped, then timed passes in the same
 * process until the run's seconds are spent and at least kMinCells
 * cell latencies are held (so the cold p90 has ten samples beyond
 * it). Every pass's payloads must equal the warm-up's. Peak RSS is
 * taken after the warm-up: later passes reuse a heap whose
 * fragmentation, and so whose high-water mark, varies from run to
 * run.
 */
template <typename PassFn>
void
timedPasses(const Args &args, DriverResult &out, PassFn &&pass)
{
    pass();
    out.peak_rss_mb = ProcessSample::now().max_rss_mb;
    out.iterations.clear();
    out.latencies.clear();
    out.ops.clear();
    const double t0 = monotonicNow();
    do
        pass();
    while (monotonicNow() - t0 < args.seconds ||
           out.latencies["cell"].size() < kMinCells);
}

void
runMemory(const Args &args, const ReadyFn &ready, DriverResult &out)
{
    const core::RunOptions opts =
        batchOptions(args.seed, kMemoryDepth, kMemoryThreads);
    ready();
    if (args.setup_only)
        return;
    out.variant = inputVariant(args.seed);
    auto record = [&](const MemoryPass &pass) {
        out.iterations.push_back(pass.cost);
        recordCells(pass.report.meta, out);
        recordStep(out, "memory", pass.digest, pass.cost.wall_s);
    };
    if (args.trace) {
        MemoryPass pass = memoryPass(opts);
        record(pass);
        out.layers = tracedMemory(opts, pass, out);
        return;
    }
    timedPasses(args, out, [&] { record(memoryPass(opts)); });
}

void
runLogicThermal(const Args &args, const ReadyFn &ready,
                DriverResult &out)
{
    const core::RunOptions opts =
        batchOptions(args.seed, kLogicDepth, kLogicThreads);
    ready();
    if (args.setup_only)
        return;
    out.variant = inputVariant(args.seed);
    auto record = [&](const LogicThermalPass &pass) {
        out.iterations.push_back(pass.cost);
        recordCells(pass.logic.meta, out);
        recordCells(pass.stack.meta, out);
        recordCells(pass.sensitivity.meta, out);
        out.latencies["cell"].push_back(pass.transient_s);
        for (const auto &[name, digest] : pass.digests)
            recordStep(out, name, digest, pass.step_s.at(name));
    };
    if (args.trace) {
        LogicThermalPass pass = logicThermalPass(opts);
        record(pass);
        out.layers = tracedLogicThermal(opts, pass, out);
        return;
    }
    timedPasses(args, out, [&] { record(logicThermalPass(opts)); });
}

} // namespace perfbench
