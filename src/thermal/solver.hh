/**
 * @file
 * Steady-state solution of the finite-volume heat equation with a
 * preconditioned conjugate-gradient solver (the operator is symmetric
 * positive definite thanks to the convection terms).
 *
 * Every study solves with one configuration: the geometric multigrid
 * V-cycle preconditioner (thermal/multigrid.hh), which cuts iteration
 * counts by an order of magnitude on paper-sized stacks. Pointwise
 * Jacobi stays selectable through SolverOptions only as the reference
 * the tests and microbenchmarks compare multigrid against; no CLI
 * flag or wire key reaches it. The CG kernels are fused (operator
 * apply + dot, axpy + norm, precondition + dot) and partitioned over
 * z-plane slabs that may run on an exec::ThreadPool; partial sums are
 * combined in slab order, so an N-thread solve is bit-identical to a
 * serial one (see exec/reduce.hh for the contract).
 */

#ifndef STACK3D_THERMAL_SOLVER_HH
#define STACK3D_THERMAL_SOLVER_HH

#include <string>
#include <vector>

#include "common/cancel.hh"
#include "thermal/mesh.hh"

namespace stack3d {

namespace obs {
class CounterSet;
} // namespace obs

namespace exec {
class ThreadPool;
} // namespace exec

namespace thermal {

/** A solved temperature field with convenience queries. */
class TemperatureField
{
  public:
    TemperatureField(const Mesh &mesh, std::vector<double> temps)
        : _mesh(&mesh), _temps(std::move(temps))
    {
    }

    /** Temperature of cell (i, j, z) in degrees C. */
    double
    at(unsigned i, unsigned j, unsigned z) const
    {
        return _temps[_mesh->cellIndex(i, j, z)];
    }

    /** Peak temperature over the whole mesh. */
    double peak() const;

    /** Minimum temperature over the whole mesh. */
    double minimum() const;

    /** Peak temperature within one layer. */
    double layerPeak(unsigned layer_index) const;

    /** Minimum temperature within one layer. */
    double layerMin(unsigned layer_index) const;

    /**
     * Location (i, j) of the layer's hottest cell, scanning every
     * z-plane of the layer.
     */
    std::pair<unsigned, unsigned> layerPeakCell(
        unsigned layer_index) const;

    const Mesh &mesh() const { return *_mesh; }
    const std::vector<double> &raw() const { return _temps; }

  private:
    const Mesh *_mesh;
    std::vector<double> _temps;
};

/** Which preconditioner the CG iteration uses. */
enum class Precond
{
    Jacobi,     ///< pointwise; the test and microbenchmark reference
    Multigrid,  ///< V-cycle; what every study uses
};

/** Knobs for solveSteadyState; the defaults are the fast path. */
struct SolverOptions
{
    Precond precond = Precond::Multigrid;
    /** Relative residual target. */
    double tolerance = 1e-8;
    /** Iteration cap. */
    unsigned max_iters = 20000;
    /**
     * Optional initial guess (not owned; must stay alive through the
     * call). Used only when its size matches mesh.numCells() —
     * sweep runners hand in the previous sweep point's field so a
     * small conductivity change starts near the solution.
     */
    const std::vector<double> *warm_start = nullptr;
    /**
     * Optional slab-parallel executor (not owned). Results are
     * bit-identical with or without it, at any thread count.
     */
    exec::ThreadPool *pool = nullptr;

    /**
     * Optional cooperative stop request (not owned). Polled once per
     * CG outer iteration; a stop throws CancelledError, bounding how
     * long a deadline-expired solve can keep burning a worker to one
     * iteration's worth of work.
     */
    const CancelToken *cancel = nullptr;
};

/** Convergence report of a solve. */
struct SolveInfo
{
    unsigned iterations = 0;
    double residual = 0.0;
    bool converged = false;
    /** Multigrid V-cycles run (0 under the Jacobi preconditioner). */
    unsigned v_cycles = 0;
    /** Smoother sweeps across all V-cycles and levels. */
    unsigned smoother_sweeps = 0;
    /** True when a usable warm start replaced the ambient guess. */
    bool warm_start_used = false;
    /**
     * Relative residual after each iteration. Recorded only when a
     * SolveInfo is passed to solveSteadyState, so info-less callers
     * (and the microbenchmarks) pay nothing for it.
     */
    std::vector<double> residual_curve;
};

/**
 * Solve the mesh's steady-state system.
 * @param mesh     assembled mesh with power attached
 * @param options  preconditioner, tolerance, warm start, pool
 * @param info     optional convergence report
 */
TemperatureField solveSteadyState(const Mesh &mesh,
                                  const SolverOptions &options = {},
                                  SolveInfo *info = nullptr);

/**
 * Fold a solve's convergence report into @p out under @p prefix:
 * iterations, final residual, converged flag, preconditioner work
 * (v_cycles, smoother_sweeps), warm-start use, and the residual
 * curve as a series.
 */
void appendSolveCounters(obs::CounterSet &out,
                         const std::string &prefix,
                         const SolveInfo &info);

} // namespace thermal
} // namespace stack3d

#endif // STACK3D_THERMAL_SOLVER_HH
