/**
 * @file
 * Tests for the observability layer: span tracing and the Chrome
 * trace-event output, CounterSet and the JSON serializers, the run
 * provenance manifest, the JSON parser they are all validated with,
 * and the console progress-sink line format.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/json_parse.hh"
#include "common/logging.hh"
#include "core/run_options.hh"
#include "mem/engine.hh"
#include "obs/metrics.hh"
#include "obs/provenance.hh"
#include "obs/trace.hh"
#include "thermal/solver.hh"
#include "thermal/stacks.hh"
#include "workloads/registry.hh"

using namespace stack3d;

namespace {

JsonValue
parseOrDie(const std::string &text)
{
    JsonValue v;
    std::string error;
    EXPECT_TRUE(parseJson(text, v, error)) << error;
    return v;
}

/**
 * Chrome-trace well-formedness: per tid, timestamps must be
 * non-decreasing in array order and B/E events must balance.
 */
void
checkChromeTrace(const JsonValue &root, std::size_t expected_events)
{
    const JsonValue *events = root.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    EXPECT_EQ(events->array.size(), expected_events);

    std::map<double, double> last_ts;
    std::map<double, int> depth;
    for (const JsonValue &ev : events->array) {
        const JsonValue *ph = ev.find("ph");
        const JsonValue *ts = ev.find("ts");
        const JsonValue *tid = ev.find("tid");
        ASSERT_NE(ph, nullptr);
        ASSERT_NE(ts, nullptr);
        ASSERT_NE(tid, nullptr);
        auto it = last_ts.find(tid->number);
        if (it != last_ts.end()) {
            EXPECT_GE(ts->number, it->second) << "ts went backwards";
        }
        last_ts[tid->number] = ts->number;
        if (ph->string == "B") {
            ++depth[tid->number];
        } else if (ph->string == "E") {
            --depth[tid->number];
            EXPECT_GE(depth[tid->number], 0) << "E without B";
        }
    }
    for (const auto &[tid, d] : depth)
        EXPECT_EQ(d, 0) << "unbalanced spans on tid " << tid;
}

} // anonymous namespace

// ---------------------------------------------------------------------
// tracing
// ---------------------------------------------------------------------

TEST(ObsTrace, SpansAreNoOpsWithoutCollector)
{
    ASSERT_FALSE(obs::tracingActive());
    {
        obs::Span span("outer", "test");
        obs::Span inner(std::string("inner"), "test");
        obs::instant("marker", "test");
    }
    // Nothing to flush and nothing crashed: a collector installed
    // afterwards must start empty.
    obs::TraceCollector collector;
    collector.install();
    collector.uninstall();
    EXPECT_EQ(collector.eventCount(), 0u);
}

TEST(ObsTrace, RecordsMatchedSpansAndInstants)
{
    obs::TraceCollector collector;
    collector.install();
    EXPECT_TRUE(obs::tracingActive());
    {
        obs::Span outer("outer", "test");
        {
            obs::Span inner(std::string("dynamic-label"), "test");
            obs::instant("tick", "test");
        }
    }
    collector.uninstall();
    EXPECT_FALSE(obs::tracingActive());
    // Two B/E pairs plus one instant.
    EXPECT_EQ(collector.eventCount(), 5u);

    std::ostringstream os;
    collector.writeChromeJson(os);
    JsonValue root = parseOrDie(os.str());
    checkChromeTrace(root, 5);

    // The dynamic label made it into the output.
    bool found = false;
    for (const JsonValue &ev : root.find("traceEvents")->array) {
        const JsonValue *name = ev.find("name");
        if (name && name->string == "dynamic-label")
            found = true;
    }
    EXPECT_TRUE(found);
}

TEST(ObsTrace, SpansOutsideInstallWindowAreDropped)
{
    obs::TraceCollector collector;
    { obs::Span before("before", "test"); }
    collector.install();
    { obs::Span during("during", "test"); }
    collector.uninstall();
    { obs::Span after("after", "test"); }
    EXPECT_EQ(collector.eventCount(), 2u);
}

TEST(ObsTrace, StudyTrackerCellsEmitSpans)
{
    obs::TraceCollector collector;
    collector.install();
    core::RunOptions opts;
    core::StudyTracker tracker("unit", 1, opts);
    tracker.runCell(0, "cell0", [] {});
    core::StudyMeta meta = tracker.finish();
    EXPECT_EQ(meta.cells.size(), 1u);
    collector.uninstall();
    EXPECT_EQ(collector.eventCount(), 2u);

    std::ostringstream os;
    collector.writeChromeJson(os);
    EXPECT_NE(os.str().find("unit/cell0"), std::string::npos);
}

// ---------------------------------------------------------------------
// counters
// ---------------------------------------------------------------------

TEST(ObsCounters, SetAddAndLookup)
{
    obs::CounterSet c;
    EXPECT_TRUE(c.empty());
    c.set("a", 1.0);
    c.add("a", 2.0);
    c.add("b", 5.0);   // created at zero
    c.set("a", 10.0);  // overwrite
    EXPECT_EQ(c.value("a"), 10.0);
    EXPECT_EQ(c.value("b"), 5.0);
    EXPECT_EQ(c.value("missing", -1.0), -1.0);
    EXPECT_TRUE(c.has("a"));
    EXPECT_FALSE(c.has("missing"));
    EXPECT_EQ(c.size(), 2u);
}

TEST(ObsCounters, InsertionOrderIsPreserved)
{
    obs::CounterSet c;
    c.set("zebra", 1.0);
    c.set("alpha", 2.0);
    c.set("mid", 3.0);
    ASSERT_EQ(c.scalars().size(), 3u);
    EXPECT_EQ(c.scalars()[0].first, "zebra");
    EXPECT_EQ(c.scalars()[1].first, "alpha");
    EXPECT_EQ(c.scalars()[2].first, "mid");
}

TEST(ObsCounters, AccumulateSumsScalarsAndKeepsSeries)
{
    obs::CounterSet a, b;
    a.set("hits", 10.0);
    a.setSeries("curve", {1.0, 2.0});
    b.set("hits", 5.0);
    b.set("misses", 3.0);
    b.setSeries("curve", {9.0});
    b.setSeries("other", {7.0});
    a.accumulate(b);
    EXPECT_EQ(a.value("hits"), 15.0);
    EXPECT_EQ(a.value("misses"), 3.0);
    ASSERT_EQ(a.series().size(), 2u);
    // Present series keeps its values; absent series is copied.
    EXPECT_EQ(a.series()[0].second, (std::vector<double>{1.0, 2.0}));
    EXPECT_EQ(a.series()[1].first, "other");
}

TEST(ObsCounters, MergePrefixed)
{
    obs::CounterSet src, dst;
    src.set("hits", 4.0);
    src.setSeries("curve", {1.0});
    dst.mergePrefixed(src, "l2.");
    EXPECT_EQ(dst.value("l2.hits"), 4.0);
    EXPECT_TRUE(dst.has("l2.curve"));
}

TEST(ObsCounters, JsonEmitsScalarsAndDownsampledSeries)
{
    obs::CounterSet c;
    c.set("x", 1.5);
    std::vector<double> long_series(1000);
    for (std::size_t i = 0; i < long_series.size(); ++i)
        long_series[i] = double(i);
    c.setSeries("curve", long_series);

    std::ostringstream os;
    JsonWriter w(os);
    obs::writeCountersJson(w, c, 256);
    JsonValue root = parseOrDie(os.str());

    EXPECT_EQ(root.find("x")->number, 1.5);
    const JsonValue *curve = root.find("curve");
    ASSERT_NE(curve, nullptr);
    ASSERT_TRUE(curve->isArray());
    EXPECT_LE(curve->array.size(), 256u);
    // First and last points survive downsampling.
    EXPECT_EQ(curve->array.front().number, 0.0);
    EXPECT_EQ(curve->array.back().number, 999.0);
}

// ---------------------------------------------------------------------
// provenance
// ---------------------------------------------------------------------

TEST(ObsProvenance, ManifestCarriesBuildInfo)
{
    obs::RunManifest m = obs::makeManifest("unit");
    EXPECT_EQ(m.tool, "unit");
    EXPECT_FALSE(m.version.empty());
    EXPECT_FALSE(m.compiler.empty());
    EXPECT_GT(m.cplusplus, 201703L);   // the project requires C++20
}

TEST(ObsProvenance, DigestIsStableAndOrderSensitive)
{
    obs::RunManifest a = obs::makeManifest("unit");
    obs::RunManifest b = obs::makeManifest("unit");
    a.seed = b.seed = 7;
    a.addConfig("die_nx", std::uint64_t(24));
    b.addConfig("die_nx", std::uint64_t(24));
    EXPECT_EQ(a.digest(), b.digest());

    b.seed = 8;
    EXPECT_NE(a.digest(), b.digest());
    b.seed = 7;
    b.addConfig("die_ny", std::uint64_t(20));
    EXPECT_NE(a.digest(), b.digest());
}

TEST(ObsProvenance, ManifestJsonHasGoldenFields)
{
    obs::RunManifest m = obs::makeManifest("unit");
    m.seed = 3;
    m.threads = 4;
    m.addConfig("knob", "value");

    std::ostringstream os;
    JsonWriter w(os);
    obs::writeManifestJson(w, m);
    JsonValue parsed = parseOrDie(os.str());

    EXPECT_EQ(parsed.find("tool")->string, "unit");
    EXPECT_EQ(parsed.find("seed")->number, 3.0);
    EXPECT_EQ(parsed.find("threads")->number, 4.0);
    EXPECT_EQ(parsed.findPath("config.knob")->string, "value");
    const JsonValue *digest = parsed.find("config_digest");
    ASSERT_NE(digest, nullptr);
    EXPECT_EQ(digest->string.substr(0, 2), "0x");
}

// ---------------------------------------------------------------------
// StudyMeta
// ---------------------------------------------------------------------

TEST(ObsStudyMeta, SpeedupDegeneratesToOne)
{
    core::StudyMeta meta;
    EXPECT_EQ(meta.speedup(), 1.0);   // no cells

    meta.cells.push_back({0, "c", 1.0});
    meta.wall_seconds = 0.0;
    meta.serial_seconds = 1.0;
    EXPECT_EQ(meta.speedup(), 1.0);   // zero wall clock

    meta.wall_seconds = 2.0;
    meta.serial_seconds = 0.0;
    EXPECT_EQ(meta.speedup(), 1.0);   // zero serial time

    meta.serial_seconds = 6.0;
    EXPECT_DOUBLE_EQ(meta.speedup(), 3.0);
}

TEST(ObsStudyMeta, MetaJsonClampsNonFiniteTimings)
{
    core::StudyMeta meta;
    meta.study = "unit";
    meta.wall_seconds = std::numeric_limits<double>::infinity();
    meta.serial_seconds = std::nan("");

    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    core::writeMetaJson(w, meta);
    w.endObject();
    JsonValue parsed = parseOrDie(os.str());
    EXPECT_EQ(parsed.find("wall_seconds")->number, 0.0);
    EXPECT_EQ(parsed.find("serial_seconds")->number, 0.0);
    EXPECT_EQ(parsed.find("speedup")->number, 1.0);
}

TEST(ObsStudyMeta, TrackerCapturesWarnings)
{
    detail::setQuiet(true);   // keep the warning off the test output
    core::RunOptions opts;
    core::StudyTracker tracker("unit", 1, opts);
    tracker.runCell(0, "cell0",
                    [] { warn("synthetic unit-test warning"); });
    core::StudyMeta meta = tracker.finish();
    detail::setQuiet(false);

    ASSERT_EQ(meta.warnings.size(), 1u);
    EXPECT_NE(meta.warnings[0].find("synthetic unit-test warning"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// ConsoleProgressSink line format
// ---------------------------------------------------------------------

TEST(ObsProgress, ConsoleSinkLineFormat)
{
    std::ostringstream os;
    core::ConsoleProgressSink sink(os);
    sink.studyStarted("memory", 2);
    core::CellInfo cell;
    cell.index = 0;
    cell.total = 2;
    cell.label = "gauss/dram32m";
    sink.cellFinished(cell, 0.5, 0.25);
    sink.studyFinished("memory", 1.25);

    // "[%s %zu/%zu] %-24s %6.2fs  (%3.0f%%)": a 13-char label pads
    // to 24 columns, 0.5 s renders as "  0.50".
    std::string expected_cell = "[memory 1/2] gauss/dram32m" +
                                std::string(11, ' ') +
                                "   0.50s  ( 25%)\n";
    EXPECT_EQ(os.str(), "[memory] 2 cells\n" + expected_cell +
                            "[memory] done in 1.25s\n");
}

// ---------------------------------------------------------------------
// json_parse
// ---------------------------------------------------------------------

TEST(JsonParse, ParsesTheFullGrammar)
{
    JsonValue v = parseOrDie(
        R"({"a": [1, -2.5, 1e3], "b": {"c": true, "d": null},)"
        R"( "s": "q\"\\\nA"})");
    EXPECT_EQ(v.findPath("a")->array.size(), 3u);
    EXPECT_EQ(v.find("a")->array[1].number, -2.5);
    EXPECT_EQ(v.find("a")->array[2].number, 1000.0);
    EXPECT_TRUE(v.findPath("b.c")->boolean);
    EXPECT_TRUE(v.findPath("b.d")->isNull());
    EXPECT_EQ(v.find("s")->string, "q\"\\\nA");
    EXPECT_EQ(v.findPath("b.missing"), nullptr);
    EXPECT_EQ(v.findPath("a.c"), nullptr);   // arrays have no keys
}

TEST(JsonParse, RejectsMalformedDocuments)
{
    JsonValue v;
    std::string error;
    EXPECT_FALSE(parseJson("{\"a\": }", v, error));
    EXPECT_FALSE(parseJson("[1, 2", v, error));
    EXPECT_FALSE(parseJson("\"unterminated", v, error));
    EXPECT_FALSE(parseJson("{} trailing", v, error));
    EXPECT_FALSE(parseJson("", v, error));
    EXPECT_NE(error.find("offset"), std::string::npos);
    // Nesting is bounded: the limit parses, one more level is an
    // error, and a stack-exhausting depth is an error, not a crash.
    EXPECT_TRUE(parseJson(std::string(kJsonMaxDepth, '[') +
                              std::string(kJsonMaxDepth, ']'),
                          v, error))
        << error;
    EXPECT_FALSE(parseJson(std::string(kJsonMaxDepth + 1, '[') +
                               std::string(kJsonMaxDepth + 1, ']'),
                           v, error));
    EXPECT_NE(error.find("nesting"), std::string::npos);
    EXPECT_FALSE(parseJson(std::string(400000, '['), v, error));
    EXPECT_NE(error.find("nesting"), std::string::npos);
}

// ---------------------------------------------------------------------
// subsystem counter snapshots
// ---------------------------------------------------------------------

TEST(ObsSnapshots, EngineResultCarriesHierarchyCounters)
{
    workloads::WorkloadConfig cfg;
    cfg.records_per_thread = 2000;
    auto kernel = workloads::makeRmsKernel("gauss");
    trace::TraceBuffer buf = kernel->generate(cfg);

    mem::MemoryHierarchy hier(
        mem::makeHierarchyParams(mem::StackOption::Baseline4MB));
    mem::TraceEngine engine;
    mem::EngineResult res = engine.run(buf, hier);

    const obs::CounterSet &c = res.counters;
    EXPECT_EQ(c.value("accesses"), double(res.num_records));
    EXPECT_GT(c.value("l1d.hits") + c.value("l1d.misses"), 0.0);
    EXPECT_GE(c.value("l1d.miss_rate"), 0.0);
    EXPECT_LE(c.value("l1d.miss_rate"), 1.0);
    EXPECT_GT(c.value("bus.bytes"), 0.0);
}

TEST(ObsSnapshots, ThermalSolveRecordsResidualCurve)
{
    thermal::StackGeometry geom = thermal::makePlanarStack(6e-3, 6e-3);
    thermal::Mesh mesh(geom, 8, 8);
    thermal::PowerMap map(8, 8, 6e-3, 6e-3);
    map.addUniform(30.0);
    mesh.setLayerPower(geom.layerIndex("active1"), map);

    thermal::SolveInfo info;
    thermal::solveSteadyState(mesh, 1e-8, 4000, &info);

    obs::CounterSet c;
    thermal::appendSolveCounters(c, "thermal.unit.", info);
    EXPECT_GT(c.value("thermal.unit.iterations"), 0.0);
    EXPECT_EQ(c.value("thermal.unit.converged"), 1.0);
    ASSERT_EQ(c.series().size(), 1u);
    EXPECT_EQ(c.series()[0].first, "thermal.unit.residual_curve");
    EXPECT_FALSE(c.series()[0].second.empty());
}
