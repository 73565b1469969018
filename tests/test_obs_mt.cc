/**
 * @file
 * Concurrency tests for the observability layer (run under the tsan
 * preset): spans recorded from pool worker threads, concurrent warn()
 * capture through StudyTracker, and the pool's own counter snapshot.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>

#include "common/json_parse.hh"
#include "common/logging.hh"
#include "core/run_options.hh"
#include "exec/pool.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

using namespace stack3d;

namespace {

constexpr std::size_t kTasks = 64;

} // anonymous namespace

TEST(ObsMt, ConcurrentSpansFromPoolThreads)
{
    obs::TraceCollector collector;
    collector.install();
    {
        exec::ThreadPool pool(4);
        exec::parallelFor(pool, kTasks, [](std::size_t i) {
            obs::Span span("mt.task", "test");
            obs::instant("mt.tick", "test");
            (void)i;
        });
    }
    collector.uninstall();
    // One B/E pair plus one instant per task (the pool adds its own
    // worker spans on top, so the total is a floor, not an equality).
    EXPECT_GE(collector.eventCount(), kTasks * 3);

    // The flushed trace must stay well-formed: per tid, timestamps
    // non-decreasing and B/E balanced, with every task event present.
    std::ostringstream os;
    collector.writeChromeJson(os);
    JsonValue root;
    std::string error;
    ASSERT_TRUE(parseJson(os.str(), root, error)) << error;
    const JsonValue *events = root.find("traceEvents");
    ASSERT_NE(events, nullptr);
    std::size_t task_spans = 0, task_instants = 0;
    std::map<double, double> last_ts;
    std::map<double, int> depth;
    for (const JsonValue &ev : events->array) {
        const JsonValue *cat = ev.find("cat");
        const JsonValue *name = ev.find("name");
        if (cat && cat->string == "test" && name) {
            if (name->string == "mt.task")
                ++task_spans;
            else if (name->string == "mt.tick")
                ++task_instants;
        }
        double tid = ev.find("tid")->number;
        double ts = ev.find("ts")->number;
        auto it = last_ts.find(tid);
        if (it != last_ts.end()) {
            EXPECT_GE(ts, it->second);
        }
        last_ts[tid] = ts;
        const std::string &ph = ev.find("ph")->string;
        if (ph == "B")
            ++depth[tid];
        else if (ph == "E")
            --depth[tid];
        EXPECT_GE(depth[tid], 0);
    }
    for (const auto &[tid, d] : depth)
        EXPECT_EQ(d, 0) << "unbalanced spans on tid " << tid;
    // Every task's span 'B' edge and instant made it out intact.
    EXPECT_EQ(task_spans, kTasks);
    EXPECT_EQ(task_instants, kTasks);
}

TEST(ObsMt, ChunkBoundaryCrossingLosesNothing)
{
    // More events than one EventChunk holds, all from one thread, so
    // the buffer has to chain chunks mid-run.
    constexpr std::size_t kSpans = 3000;
    obs::TraceCollector collector;
    collector.install();
    for (std::size_t i = 0; i < kSpans; ++i)
        obs::Span span("chunk.span", "test");
    collector.uninstall();
    EXPECT_EQ(collector.eventCount(), kSpans * 2);
}

TEST(ObsMt, StudyTrackerCapturesConcurrentWarnings)
{
    detail::setQuiet(true);   // keep the warnings off the test output
    core::RunOptions opts;
    opts.threads = 4;
    core::StudyTracker tracker("mt", kTasks, opts);
    {
        exec::ThreadPool pool(4);
        exec::parallelFor(pool, kTasks, [&](std::size_t i) {
            tracker.runCell(i, "cell" + std::to_string(i), [i] {
                warn("mt warning ", i);
            });
        });
    }
    core::StudyMeta meta = tracker.finish();
    detail::setQuiet(false);

    EXPECT_EQ(meta.warnings.size(), kTasks);
    EXPECT_EQ(meta.cells.size(), kTasks);
    for (std::size_t i = 0; i < meta.cells.size(); ++i) {
        EXPECT_EQ(meta.cells[i].index, i);
        EXPECT_EQ(meta.cells[i].label, "cell" + std::to_string(i));
    }
}

TEST(ObsMt, PoolCountersAccountForAllTasks)
{
    obs::CounterSet c;
    {
        exec::ThreadPool pool(4);
        exec::parallelFor(pool, kTasks, [](std::size_t) {});
        pool.appendCounters(c, "pool.");
    }
    EXPECT_EQ(c.value("pool.threads"), 4.0);
    // Every task ran exactly once, inline or on a worker.
    EXPECT_EQ(c.value("pool.executed") + c.value("pool.inline_executed"),
              double(kTasks));
}
