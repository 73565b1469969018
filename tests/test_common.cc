/**
 * @file
 * Unit tests for the common substrate: logging, RNG, units, tables,
 * and the fault-injection registry.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/table.hh"
#include "common/units.hh"

using namespace stack3d;

// ---------------------------------------------------------------------
// logging
// ---------------------------------------------------------------------

TEST(Logging, FatalThrows)
{
    EXPECT_THROW(stack3d_fatal("user error: ", 42), std::runtime_error);
}

TEST(Logging, WarnCounts)
{
    detail::setQuiet(true);
    unsigned long before = detail::warnCount();
    warn("something odd: ", 1);
    warn("more oddities");
    EXPECT_EQ(detail::warnCount(), before + 2);
    detail::setQuiet(false);
}

TEST(LoggingDeathTest, PanicAborts)
{
    EXPECT_DEATH(stack3d_panic("invariant broken"), "panic");
}

TEST(LoggingDeathTest, AssertAborts)
{
    EXPECT_DEATH(stack3d_assert(1 == 2, "math failed"), "assertion");
}

TEST(Logging, AssertPassesSilently)
{
    stack3d_assert(true, "never shown");
    SUCCEED();
}

// ---------------------------------------------------------------------
// random
// ---------------------------------------------------------------------

TEST(Random, DeterministicAcrossInstances)
{
    Random a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Random, DifferentSeedsDiffer)
{
    Random a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

class RandomBoundTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RandomBoundTest, UniformIntStaysInBound)
{
    Random rng(7);
    std::uint64_t bound = GetParam();
    for (int i = 0; i < 2000; ++i)
        EXPECT_LT(rng.uniformInt(bound), bound);
}

INSTANTIATE_TEST_SUITE_P(Bounds, RandomBoundTest,
                         ::testing::Values(1, 2, 3, 10, 255, 1 << 20,
                                           std::uint64_t(1) << 40));

TEST(Random, UniformIntCoversSmallRange)
{
    Random rng(11);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 200; ++i)
        seen.insert(rng.uniformInt(4));
    EXPECT_EQ(seen.size(), 4u);
}

TEST(Random, UniformDoubleInUnitInterval)
{
    Random rng(3);
    for (int i = 0; i < 2000; ++i) {
        double v = rng.uniformDouble();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Random, UniformDoubleRange)
{
    Random rng(5);
    for (int i = 0; i < 500; ++i) {
        double v = rng.uniformDouble(-2.0, 3.0);
        EXPECT_GE(v, -2.0);
        EXPECT_LT(v, 3.0);
    }
}

TEST(Random, ChanceExtremes)
{
    Random rng(9);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Random, ChanceApproximatesProbability)
{
    Random rng(13);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += rng.chance(0.25);
    EXPECT_NEAR(double(hits) / n, 0.25, 0.02);
}

TEST(Random, RunLengthCapped)
{
    Random rng(17);
    for (int i = 0; i < 200; ++i)
        EXPECT_LE(rng.runLength(0.9, 5), 5u);
}

// ---------------------------------------------------------------------
// units
// ---------------------------------------------------------------------

TEST(Units, Conversions)
{
    EXPECT_DOUBLE_EQ(units::fromMicrometres(750.0), 750e-6);
    EXPECT_DOUBLE_EQ(units::fromMillimetres(13.5), 13.5e-3);
    EXPECT_EQ(units::fromMiB(4), 4u << 20);
    EXPECT_EQ(units::fromKiB(32), 32u << 10);
}

TEST(Units, BandwidthMath)
{
    // 16 GB over 1 second = 16 GB/s.
    EXPECT_DOUBLE_EQ(units::toGBps(16e9, 1.0), 16.0);
    EXPECT_DOUBLE_EQ(units::toGBps(1e9, 0.0), 0.0);
}

TEST(Units, PowerOfTwo)
{
    EXPECT_TRUE(units::isPowerOfTwo(1));
    EXPECT_TRUE(units::isPowerOfTwo(4096));
    EXPECT_FALSE(units::isPowerOfTwo(0));
    EXPECT_FALSE(units::isPowerOfTwo(12288));
}

TEST(Units, FloorLog2)
{
    EXPECT_EQ(units::floorLog2(1), 0u);
    EXPECT_EQ(units::floorLog2(64), 6u);
    EXPECT_EQ(units::floorLog2(65), 6u);
    EXPECT_EQ(units::floorLog2(std::uint64_t(1) << 40), 40u);
}

// ---------------------------------------------------------------------
// table
// ---------------------------------------------------------------------

TEST(Table, PrintsAlignedColumns)
{
    TextTable t({"name", "value"});
    t.newRow().cell("a").cell(1.5, 1);
    t.newRow().cell("long-name").cell((long long)42);
    std::ostringstream os;
    t.print(os);
    std::string out = os.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("long-name"), std::string::npos);
    EXPECT_NE(out.find("1.5"), std::string::npos);
    EXPECT_NE(out.find("42"), std::string::npos);
    EXPECT_EQ(t.numRows(), 2u);
}

TEST(Table, CsvFormat)
{
    TextTable t({"a", "b"});
    t.newRow().cell("x").cell((long long)1);
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(), "a,b\nx,1\n");
}

TEST(TableDeathTest, TooManyCellsPanics)
{
    TextTable t({"only"});
    t.newRow().cell("one");
    EXPECT_DEATH(t.cell("two"), "more cells");
}

// ---------------------------------------------------------------------
// fault injection registry
// ---------------------------------------------------------------------

#include <cstdio>
#include <fstream>
#include <thread>

#include "common/cancel.hh"
#include "common/fault.hh"

namespace {

/** Drives one point @p n times; returns how often it fired. */
std::uint64_t
fireCount(const char *point, unsigned n)
{
    std::uint64_t fires = 0;
    for (unsigned i = 0; i < n; ++i)
        if (S3D_FAULT_POINT(point))
            ++fires;
    return fires;
}

} // anonymous namespace

TEST(FaultRegistry, DisabledByDefaultAndAfterReset)
{
    FaultRegistry::reset();
    EXPECT_FALSE(FaultRegistry::enabled());
    EXPECT_EQ(fireCount("never.configured", 100), 0u);
    EXPECT_TRUE(FaultRegistry::snapshot().empty());
}

TEST(FaultRegistry, InlineSpecConfiguresPoints)
{
    std::string error;
    ASSERT_TRUE(FaultRegistry::configure(
        "disk.write:0.5,task.slow:0.25:20", 7, error))
        << error;
    EXPECT_TRUE(FaultRegistry::enabled());

    auto points = FaultRegistry::snapshot();
    ASSERT_EQ(points.size(), 2u);
    // Snapshot is name-sorted.
    EXPECT_EQ(points[0].name, "disk.write");
    EXPECT_DOUBLE_EQ(points[0].probability, 0.5);
    EXPECT_EQ(points[1].name, "task.slow");
    EXPECT_DOUBLE_EQ(points[1].probability, 0.25);
    EXPECT_EQ(points[1].delay_ms, 20u);

    // p=1 and p=0 are exact, not approximate.
    ASSERT_TRUE(FaultRegistry::configure("always:1.0,never:0.0", 7,
                                         error))
        << error;
    EXPECT_EQ(fireCount("always", 50), 50u);
    EXPECT_EQ(fireCount("never", 50), 0u);
    EXPECT_EQ(fireCount("unconfigured", 50), 0u);
    FaultRegistry::reset();
}

TEST(FaultRegistry, SameSeedSameSchedule)
{
    std::string error;
    ASSERT_TRUE(FaultRegistry::configure("coin:0.5", 1234, error));
    std::vector<bool> first;
    for (unsigned i = 0; i < 64; ++i)
        first.push_back(S3D_FAULT_POINT("coin"));

    // Reconfiguring with the same seed replays the same schedule.
    ASSERT_TRUE(FaultRegistry::configure("coin:0.5", 1234, error));
    for (unsigned i = 0; i < 64; ++i)
        EXPECT_EQ(bool(S3D_FAULT_POINT("coin")), bool(first[i]))
            << "decision " << i;

    auto points = FaultRegistry::snapshot();
    ASSERT_EQ(points.size(), 1u);
    EXPECT_EQ(points[0].checks, 64u);

    // A different seed gives a different schedule (with 2^-64 odds
    // of a false failure over 64 fair coin flips).
    ASSERT_TRUE(FaultRegistry::configure("coin:0.5", 999, error));
    std::vector<bool> reseeded;
    for (unsigned i = 0; i < 64; ++i)
        reseeded.push_back(S3D_FAULT_POINT("coin"));
    EXPECT_NE(first, reseeded);
    FaultRegistry::reset();
}

TEST(FaultRegistry, DelayPointsDrawTheirConfiguredLatency)
{
    std::string error;
    ASSERT_TRUE(FaultRegistry::configure("lag:1.0:35", 5, error));
    EXPECT_EQ(S3D_FAULT_DELAY("lag"), 35u);
    ASSERT_TRUE(FaultRegistry::configure("lag:0.0:35", 5, error));
    EXPECT_EQ(S3D_FAULT_DELAY("lag"), 0u);
    FaultRegistry::reset();
}

TEST(FaultRegistry, JsonFileSpecConfiguresPoints)
{
    std::string path = ::testing::TempDir() + "s3d_faults.json";
    {
        std::ofstream os(path);
        os << "{\"seed\": 11, \"points\": {"
              "\"disk.read\": 0.125, "
              "\"task.slow\": {\"p\": 1.0, \"delay_ms\": 5}}}";
    }
    std::string error;
    ASSERT_TRUE(FaultRegistry::configure("@" + path, 0, error))
        << error;
    auto points = FaultRegistry::snapshot();
    ASSERT_EQ(points.size(), 2u);
    EXPECT_DOUBLE_EQ(points[0].probability, 0.125);
    EXPECT_EQ(points[1].delay_ms, 5u);
    EXPECT_EQ(S3D_FAULT_DELAY("task.slow"), 5u);
    FaultRegistry::reset();
    std::remove(path.c_str());
}

TEST(FaultRegistry, MalformedSpecsRejectedConfigKept)
{
    std::string error;
    ASSERT_TRUE(FaultRegistry::configure("keep.me:1.0", 1, error));

    for (const char *bad :
         {"noprob", "p:notanumber", "p:2.0", "p:-0.5", "p:0.5:junk",
          ":0.5", "@/nonexistent-s3d/faults.json"}) {
        error.clear();
        EXPECT_FALSE(FaultRegistry::configure(bad, 1, error)) << bad;
        EXPECT_FALSE(error.empty()) << bad;
    }
    // The previous good configuration survived every rejection.
    EXPECT_TRUE(FaultRegistry::enabled());
    EXPECT_EQ(fireCount("keep.me", 3), 3u);
    FaultRegistry::reset();
}

// ---------------------------------------------------------------------
// cooperative cancellation
// ---------------------------------------------------------------------

TEST(CancelToken, CancelFlagStopsWork)
{
    CancelToken token;
    EXPECT_FALSE(token.cancelled());
    EXPECT_FALSE(token.shouldStop());
    EXPECT_FALSE(token.hasDeadline());
    token.throwIfStopped("loop");   // no-op while running

    token.cancel();
    EXPECT_TRUE(token.cancelled());
    EXPECT_TRUE(token.shouldStop());
    EXPECT_THROW(token.throwIfStopped("loop"), CancelledError);
}

TEST(CancelToken, DeadlineExpiryStopsWork)
{
    CancelToken expired(1);
    ASSERT_TRUE(expired.hasDeadline());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_TRUE(expired.shouldStop());
    EXPECT_FALSE(expired.cancelled());   // timed out, not cancelled
    EXPECT_THROW(expired.throwIfStopped("solve"), CancelledError);

    CancelToken generous(60000);
    EXPECT_TRUE(generous.hasDeadline());
    EXPECT_FALSE(generous.shouldStop());
}
