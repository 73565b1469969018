/**
 * @file
 * Tests for the Pentium 4-class pipeline model: configuration,
 * dataflow/structural/control timing behaviours, per-path
 * monotonicity, and the benchmark-suite driver.
 */

#include <gtest/gtest.h>

#include "cpu/config.hh"
#include "cpu/pipeline.hh"
#include "cpu/suite.hh"

using namespace stack3d;
using namespace stack3d::cpu;
using workloads::CpuUop;
using workloads::MemLevel;
using workloads::UopClass;

// ---------------------------------------------------------------------
// configuration
// ---------------------------------------------------------------------

TEST(Config, MispredictPenaltyExceeds30)
{
    // "a branch miss-prediction penalty of more than 30 clock cycles"
    EXPECT_GT(PipelineConfig::planar().mispredictPenalty(), 30u);
}

TEST(Config, Stacked3dReducesEveryPath)
{
    PipelineConfig planar = PipelineConfig::planar();
    PipelineConfig s3d = PipelineConfig::stacked3d();
    EXPECT_LT(s3d.frontend_stages, planar.frontend_stages);
    EXPECT_LT(s3d.trace_cache_stages, planar.trace_cache_stages);
    EXPECT_LT(s3d.rename_stages, planar.rename_stages);
    EXPECT_LT(s3d.fp_extra_latency, planar.fp_extra_latency);
    EXPECT_LT(s3d.int_rf_stages, planar.int_rf_stages);
    EXPECT_LT(s3d.dcache_stages, planar.dcache_stages);
    EXPECT_LT(s3d.instr_loop_stages, planar.instr_loop_stages);
    EXPECT_LT(s3d.retire_dealloc_stages,
              planar.retire_dealloc_stages);
    EXPECT_LT(s3d.fp_load_extra, planar.fp_load_extra);
    EXPECT_LT(s3d.store_lifetime, planar.store_lifetime);
}

TEST(Config, Table4StagePercentages)
{
    PipelineConfig planar = PipelineConfig::planar();
    // Front-end 12.5% of 8 = 1 stage; trace cache 20% of 5 = 1;
    // rename 25% of 4 = 1; D$ 25% of 4 = 1; loop 17% of 6 = 1;
    // dealloc 20% of 5 = 1; store lifetime 30%.
    PipelineConfig c = planar;
    c.applyPathReduction(Path::FrontEnd);
    EXPECT_EQ(planar.frontend_stages - c.frontend_stages, 1u);
    c = planar;
    c.applyPathReduction(Path::StoreLifetime);
    EXPECT_NEAR(double(planar.store_lifetime - c.store_lifetime) /
                    planar.store_lifetime,
                0.30, 0.08);
}

TEST(Config, PathNamesMatchTable4Rows)
{
    EXPECT_STREQ(pathName(Path::FpLatency), "FP inst. latency");
    EXPECT_STREQ(pathName(Path::StoreLifetime), "Store lifetime");
}

// ---------------------------------------------------------------------
// pipeline timing behaviours
// ---------------------------------------------------------------------

namespace {

CpuUop
uop(UopClass cls, std::uint16_t d1 = 0, std::uint16_t d2 = 0)
{
    CpuUop u;
    u.cls = cls;
    u.src_dist[0] = d1;
    u.src_dist[1] = d2;
    return u;
}

std::vector<CpuUop>
repeat(const CpuUop &u, std::size_t n)
{
    return std::vector<CpuUop>(n, u);
}

} // anonymous namespace

TEST(Pipeline, EmptyTrace)
{
    PipelineModel model(PipelineConfig::planar());
    CpuResult res = model.run({});
    EXPECT_EQ(res.num_uops, 0u);
    EXPECT_EQ(res.cycles, 0u);
}

TEST(Pipeline, IndependentIntIpcNearFetchWidth)
{
    PipelineModel model(PipelineConfig::planar());
    CpuResult res = model.run(repeat(uop(UopClass::IntAlu), 30000));
    EXPECT_NEAR(res.ipc, 3.0, 0.1);
}

TEST(Pipeline, SerialChainBoundByLatency)
{
    // Every uop depends on the previous one: IPC -> 1/int_latency.
    PipelineModel model(PipelineConfig::planar());
    CpuResult res =
        model.run(repeat(uop(UopClass::IntAlu, 1), 20000));
    EXPECT_NEAR(res.ipc, 1.0, 0.05);
}

TEST(Pipeline, FpChainSeesExtraLatency)
{
    PipelineConfig planar = PipelineConfig::planar();
    PipelineConfig fast = planar;
    fast.applyPathReduction(Path::FpLatency);

    auto chain = repeat(uop(UopClass::FpOp, 1), 20000);
    double ipc_planar = PipelineModel(planar).run(chain).ipc;
    double ipc_fast = PipelineModel(fast).run(chain).ipc;
    // Serial FP chain: latency (4+2) vs (4+0).
    EXPECT_NEAR(ipc_planar, 1.0 / 6.0, 0.01);
    EXPECT_NEAR(ipc_fast, 1.0 / 4.0, 0.02);
}

TEST(Pipeline, LoadToUseVisibleInChains)
{
    PipelineConfig planar = PipelineConfig::planar();
    PipelineConfig fast = planar;
    fast.applyPathReduction(Path::DcacheRead);

    // load -> dependent alu -> feeding the next load's address.
    std::vector<CpuUop> uops;
    for (int i = 0; i < 10000; ++i) {
        uops.push_back(uop(UopClass::Load, i ? 1 : 0));
        uops.push_back(uop(UopClass::IntAlu, 1));
    }
    double slow_ipc = PipelineModel(planar).run(uops).ipc;
    double fast_ipc = PipelineModel(fast).run(uops).ipc;
    EXPECT_GT(fast_ipc, slow_ipc * 1.10);
}

TEST(Pipeline, MispredictsCostTheDeepPipeline)
{
    PipelineConfig cfg = PipelineConfig::planar();
    std::vector<CpuUop> clean = repeat(uop(UopClass::IntAlu), 10000);

    std::vector<CpuUop> bad = clean;
    for (std::size_t i = 99; i < bad.size(); i += 100) {
        bad[i].cls = UopClass::Branch;
        bad[i].mispredict = true;
    }
    PipelineModel model(cfg);
    Cycles c_clean = model.run(clean).cycles;
    Cycles c_bad = model.run(bad).cycles;
    // 100 mispredicts x ~(>30)-cycle penalty.
    EXPECT_GT(c_bad, c_clean + 100 * 25);
    EXPECT_EQ(model.run(bad).mispredicts, 100u);
}

TEST(Pipeline, MemoryLoadsStallChains)
{
    PipelineConfig cfg = PipelineConfig::planar();
    CpuUop mem_load = uop(UopClass::Load, 1);
    mem_load.mem_level = MemLevel::Memory;
    auto chain = repeat(mem_load, 2000);
    CpuResult res = PipelineModel(cfg).run(chain);
    // Each chained memory load costs ~dcache+memory cycles.
    EXPECT_LT(res.ipc, 0.01);
}

TEST(Pipeline, StoreBurstsStallOnStoreQueue)
{
    PipelineConfig cfg = PipelineConfig::planar();
    // Alternate big store bursts with long-latency work so the SQ
    // drains slowly.
    std::vector<CpuUop> uops;
    for (int block = 0; block < 200; ++block) {
        for (int s = 0; s < 30; ++s)
            uops.push_back(uop(UopClass::Store, 1));
        for (int a = 0; a < 30; ++a)
            uops.push_back(uop(UopClass::IntAlu, 1));
    }
    CpuResult res = PipelineModel(cfg).run(uops);
    EXPECT_GT(res.sq_stall_cycles, 0u);

    PipelineConfig fast = cfg;
    fast.applyPathReduction(Path::StoreLifetime);
    CpuResult res_fast = PipelineModel(fast).run(uops);
    EXPECT_LT(res_fast.cycles, res.cycles);
}

class PathMonotonicityTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(PathMonotonicityTest, ReducingAPathNeverHurts)
{
    workloads::CpuWorkloadParams params;
    params.name = "mono";
    params.frac_fp = 0.15;
    params.frac_fp_load = 0.05;
    params.fp_chain = 0.4;
    auto uops = workloads::generateCpuTrace(params, 60000, 5);

    PipelineConfig planar = PipelineConfig::planar();
    PipelineConfig cfg = planar;
    cfg.applyPathReduction(Path(GetParam()));

    Cycles before = PipelineModel(planar).run(uops).cycles;
    Cycles after = PipelineModel(cfg).run(uops).cycles;
    EXPECT_LE(after, before + before / 200)
        << "path " << pathName(Path(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(AllPaths, PathMonotonicityTest,
                         ::testing::Range(0u, kNumPaths));

TEST(Pipeline, Deterministic)
{
    workloads::CpuWorkloadParams params;
    params.name = "det";
    auto uops = workloads::generateCpuTrace(params, 30000, 9);
    PipelineModel model(PipelineConfig::planar());
    EXPECT_EQ(model.run(uops).cycles, model.run(uops).cycles);
}

// ---------------------------------------------------------------------
// suite
// ---------------------------------------------------------------------

TEST(Suite, RunsAllClasses)
{
    SuiteOptions opt;
    opt.uops_per_trace = 5000;
    TraceSuite suite(opt);
    EXPECT_GE(suite.numTraces(), 8u);

    SuiteResult res = suite.run(PipelineConfig::planar());
    EXPECT_GT(res.geomean_ipc, 0.1);
    EXPECT_LT(res.geomean_ipc, 3.0);
    EXPECT_EQ(res.class_ipc.size(), 8u);
}

TEST(Suite, StackedBeatsPlanar)
{
    SuiteOptions opt;
    opt.uops_per_trace = 10000;
    TraceSuite suite(opt);
    SuiteResult planar = suite.run(PipelineConfig::planar());
    SuiteResult stacked = suite.run(PipelineConfig::stacked3d());
    ASSERT_EQ(planar.trace_ipc.size(), suite.numTraces());
    // Ratio of geomeans == geomean of the per-trace speedups.
    double speedup = stacked.geomean_ipc / planar.geomean_ipc;
    EXPECT_GT(speedup, 1.05);
    EXPECT_LT(speedup, 1.30);
}

TEST(Suite, Table4ShapeMatchesPaper)
{
    SuiteOptions opt;
    opt.uops_per_trace = 20000;
    Table4Result t4 = computeTable4(opt);
    ASSERT_EQ(t4.rows.size(), kNumPaths);

    // Total gain lands near the paper's ~15%.
    EXPECT_GT(t4.total_perf_gain_pct, 9.0);
    EXPECT_LT(t4.total_perf_gain_pct, 20.0);

    auto gain = [&](Path p) {
        for (const auto &row : t4.rows)
            if (row.path == p)
                return row.perf_gain_pct;
        return -1.0;
    };
    // FP latency is the single largest contributor; store lifetime
    // and FP load are the next tier (the paper's ordering).
    EXPECT_GT(gain(Path::FpLatency), gain(Path::FrontEnd));
    EXPECT_GT(gain(Path::FpLatency), gain(Path::InstrLoop));
    EXPECT_GT(gain(Path::StoreLifetime), gain(Path::RenameAlloc));
    EXPECT_GT(gain(Path::FpLoad), gain(Path::FrontEnd));
    // Every path helps at least a little.
    for (const auto &row : t4.rows)
        EXPECT_GT(row.perf_gain_pct, 0.0)
            << pathName(row.path);
}
