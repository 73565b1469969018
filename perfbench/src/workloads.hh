/**
 * @file
 * The three perfbench workloads. Each runs in its own driver process
 * (so peak RSS belongs to it alone), checks every output, and fills a
 * DriverResult for the runner. An untraced batch driver runs one
 * warm-up pass and then timed passes for the run's seconds; a traced
 * one runs a single pass, and the runner starts such processes until
 * the run's seconds are spent. serve-mix drives its traffic schedule
 * for the run's seconds in one process.
 *
 *  - memory:        runMemoryStudy, Fig 5 at study scale.
 *  - logic-thermal: runLogicStudy, runStackThermalStudy,
 *                   runConductivitySensitivity and one transient
 *                   power-on of a Fig 8 stack.
 *  - serve-mix:     open-loop traffic against an in-process
 *                   StudyService.
 *
 * The untraced run calls only the public study entry points, the
 * transient solver and StudyService::handle. The traced run adds a
 * serial composition of the same work from direct layer calls,
 * timing each, and checks that it reproduces the untraced payloads.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <functional>
#include <string>

#include "probe.hh"

namespace perfbench {

/** Command-line arguments of one driver process. */
struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    /** serve-mix: length of the traffic schedule. */
    double seconds = 10.0;
    bool trace = false;
    /** Stop after set-up and print the ready stamp. */
    bool setup_only = false;
    /** Set-up samples to take from set-up-only copies (0: none). */
    unsigned setup_probe = 0;
};

/**
 * Called once set-up is complete, before the timed phase; prints the
 * ready stamp of a set-up-only run.
 */
using ReadyFn = std::function<void()>;

void runMemory(const Args &args, const ReadyFn &ready,
               DriverResult &out);
void runLogicThermal(const Args &args, const ReadyFn &ready,
                     DriverResult &out);
void runServeMix(const Args &args, const ReadyFn &ready,
                 DriverResult &out);

/** process.* per-layer metrics of one timed phase. */
void addProcessMetrics(const PhaseCost &cost, LayerMetrics &layers);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
