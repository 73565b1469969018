/**
 * @file
 * Pipeline configuration for the Pentium 4-class deeply pipelined
 * microarchitecture model. The ten wire-delay paths of Table 4 are
 * explicit parameters; Logic+Logic stacking (Figure 10) shortens
 * them by eliminating whole pipe stages.
 */

#ifndef STACK3D_CPU_CONFIG_HH
#define STACK3D_CPU_CONFIG_HH

#include <cstdint>

#include "common/units.hh"

namespace stack3d {
namespace cpu {

/** The Table 4 wire-delay paths. */
enum class Path
{
    FrontEnd,       ///< front-end pipeline (12.5% of stages)
    TraceCache,     ///< trace cache read (20%)
    RenameAlloc,    ///< rename / allocation (25%)
    FpLatency,      ///< FP instruction latency (RF->SIMD->FP detour)
    IntRfRead,      ///< integer register file read (25%)
    DcacheRead,     ///< data cache read (25%)
    InstrLoop,      ///< instruction loop (17%)
    RetireDealloc,  ///< retire to de-allocation (20%)
    FpLoad,         ///< FP load latency (35%)
    StoreLifetime,  ///< store lifetime after retirement (30%)
};

constexpr unsigned kNumPaths = 10;

/** Display name of a path (Table 4's row labels). */
const char *pathName(Path path);

/** The machine configuration. */
struct PipelineConfig
{
    // ---- Table 4 paths (pipe stages / cycles), planar values ----
    unsigned frontend_stages = 8;      ///< decode/deliver pipeline
    unsigned trace_cache_stages = 5;   ///< trace cache read
    unsigned rename_stages = 4;        ///< rename / allocation
    unsigned fp_extra_latency = 2;     ///< planar RF->SIMD->FP wire
    unsigned int_rf_stages = 4;        ///< RF read before execute
    unsigned dcache_stages = 4;        ///< load-to-use latency
    unsigned instr_loop_stages = 6;    ///< taken-branch fetch bubble
    unsigned retire_dealloc_stages = 5;///< retire to resource free
    unsigned fp_load_extra = 8;        ///< extra wire on FP load data
    unsigned store_lifetime = 40;      ///< SQ occupancy past retire

    // ---- structures ----
    unsigned rob_size = 126;
    unsigned store_queue_size = 11;
    unsigned alloc_pool_size = 96;     ///< renamed resources

    // ---- widths ----
    unsigned fetch_width = 3;
    unsigned retire_width = 3;

    // ---- execution units (count, latency) ----
    unsigned num_int_units = 3;
    unsigned num_fp_units = 1;
    unsigned num_simd_units = 1;
    unsigned num_load_ports = 1;
    unsigned num_store_ports = 1;
    unsigned int_latency = 1;
    unsigned fp_latency = 4;
    unsigned simd_latency = 4;

    // ---- memory ----
    unsigned l2_latency = 18;
    unsigned memory_latency = 300;

    /** Fraction of taken branches that end a trace-cache line and
     *  pay the instruction-loop bubble. */
    double trace_break_rate = 0.45;

    /**
     * Branch misprediction redirect penalty: the wrong-path flush
     * plus the front pipeline refill through trace cache, decode,
     * rename and register read — "more than 30 clock cycles".
     */
    unsigned
    mispredictPenalty() const
    {
        return trace_cache_stages + frontend_stages + rename_stages +
               int_rf_stages + 12;
    }

    /** The planar (Figure 9) configuration. */
    static PipelineConfig planar();

    /**
     * The 3D (Figure 10) configuration: every Table 4 path reduced.
     */
    static PipelineConfig stacked3d();

    /**
     * Apply only one path's 3D reduction to a planar config (used to
     * attribute Table 4's per-path performance gains).
     */
    void applyPathReduction(Path path);
};

} // namespace cpu
} // namespace stack3d

#endif // STACK3D_CPU_CONFIG_HH
