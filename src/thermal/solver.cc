#include "solver.hh"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/logging.hh"
#include "exec/pool.hh"
#include "exec/reduce.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "thermal/multigrid.hh"

namespace stack3d {
namespace thermal {

double
TemperatureField::peak() const
{
    return *std::max_element(_temps.begin(), _temps.end());
}

double
TemperatureField::minimum() const
{
    return *std::min_element(_temps.begin(), _temps.end());
}

double
TemperatureField::layerPeak(unsigned layer_index) const
{
    const std::size_t plane = std::size_t(_mesh->nx()) * _mesh->ny();
    const std::size_t begin =
        std::size_t(_mesh->layerZBegin(layer_index)) * plane;
    const std::size_t end =
        std::size_t(_mesh->layerZEnd(layer_index)) * plane;
    double best = -1e300;
    for (std::size_t c = begin; c < end; ++c)
        best = std::max(best, _temps[c]);
    return best;
}

double
TemperatureField::layerMin(unsigned layer_index) const
{
    const std::size_t plane = std::size_t(_mesh->nx()) * _mesh->ny();
    const std::size_t begin =
        std::size_t(_mesh->layerZBegin(layer_index)) * plane;
    const std::size_t end =
        std::size_t(_mesh->layerZEnd(layer_index)) * plane;
    double best = 1e300;
    for (std::size_t c = begin; c < end; ++c)
        best = std::min(best, _temps[c]);
    return best;
}

std::pair<unsigned, unsigned>
TemperatureField::layerPeakCell(unsigned layer_index) const
{
    const unsigned nx = _mesh->nx(), ny = _mesh->ny();
    double best = -1e300;
    std::pair<unsigned, unsigned> where{0, 0};
    for (unsigned z = _mesh->layerZBegin(layer_index);
         z < _mesh->layerZEnd(layer_index); ++z) {
        for (unsigned j = 0; j < ny; ++j) {
            for (unsigned i = 0; i < nx; ++i) {
                const double t = at(i, j, z);
                if (t > best) {
                    best = t;
                    where = {i, j};
                }
            }
        }
    }
    return where;
}

TemperatureField
solveSteadyState(const Mesh &mesh, const SolverOptions &options,
                 SolveInfo *info)
{
    obs::Span span("thermal.solve", "thermal");

    const std::size_t n = mesh.numCells();
    const unsigned nz = mesh.nzTotal();
    const std::size_t plane = std::size_t(mesh.nx()) * mesh.ny();
    const std::vector<double> &b = mesh.rhs();
    const std::vector<double> &diag = mesh.diagonal();
    exec::ThreadPool *pool = options.pool;

    SolveInfo local;

    std::vector<double> x;
    if (options.warm_start && options.warm_start->size() == n) {
        x = *options.warm_start;
        local.warm_start_used = true;
    } else {
        x.assign(n, mesh.geometry().ambient);
    }
    std::vector<double> r(n), z(n), p(n), ap(n);

    // Initial residual r = b - A x with b and r norms, one fused
    // pass. Per-slab partials summed in slab order keep the result
    // independent of the thread count.
    std::vector<double> part_bb(nz, 0.0), part_rr(nz, 0.0);
    exec::parallelSlabs(pool, nz, [&](std::size_t s) {
        const unsigned zb = unsigned(s), ze = unsigned(s) + 1;
        mesh.applyOperatorSlab(zb, ze, x.data(), ap.data());
        const std::size_t cb = s * plane, ce = cb + plane;
        double bb = 0.0, rr = 0.0;
        for (std::size_t c = cb; c < ce; ++c) {
            r[c] = b[c] - ap[c];
            bb += b[c] * b[c];
            rr += r[c] * r[c];
        }
        part_bb[s] = bb;
        part_rr[s] = rr;
    });
    double b_norm = 0.0, r_norm2 = 0.0;
    for (unsigned s = 0; s < nz; ++s) {
        b_norm += part_bb[s];
        r_norm2 += part_rr[s];
    }
    b_norm = std::sqrt(b_norm);
    // Exact zero means a literally empty RHS (no power anywhere) —
    // the one case where scaling by it would divide by zero.
    if (b_norm == 0.0) // lint3d: safe-float-eq-ok
        b_norm = 1.0;

    std::unique_ptr<MultigridPreconditioner> mg;
    if (options.precond == Precond::Multigrid)
        mg = std::make_unique<MultigridPreconditioner>(mesh, pool);

    // z = M^-1 r fused (Jacobi) or followed (multigrid) by the
    // slab-reduced dot r.z.
    auto precondDot = [&]() -> double {
        if (mg) {
            mg->apply(r, z);
            return exec::parallelSlabReduce(
                pool, nz, [&](std::size_t s) {
                    const std::size_t cb = s * plane, ce = cb + plane;
                    double dot = 0.0;
                    for (std::size_t c = cb; c < ce; ++c)
                        dot += r[c] * z[c];
                    return dot;
                });
        }
        return exec::parallelSlabReduce(pool, nz, [&](std::size_t s) {
            const std::size_t cb = s * plane, ce = cb + plane;
            double dot = 0.0;
            for (std::size_t c = cb; c < ce; ++c) {
                z[c] = r[c] / diag[c];
                dot += r[c] * z[c];
            }
            return dot;
        });
    };

    local.residual = std::sqrt(r_norm2) / b_norm;
    if (info)
        local.residual_curve.reserve(
            std::min(options.max_iters, 4096u));

    if (local.residual < options.tolerance) {
        // Warm start already within tolerance: nothing to iterate.
        local.converged = true;
    } else {
        double rz = precondDot();
        stack3d_assert(rz > 0.0,
                       "thermal preconditioner lost positive "
                       "definiteness");
        p = z;
        for (unsigned iter = 0; iter < options.max_iters; ++iter) {
            if (options.cancel && options.cancel->shouldStop())
                throw CancelledError(
                    "thermal solve cancelled at iteration " +
                    std::to_string(iter));
            // Fused ap = A p and p.Ap.
            double p_ap =
                exec::parallelSlabReduce(pool, nz, [&](std::size_t s) {
                    return mesh.applyOperatorAndDotSlab(
                        unsigned(s), unsigned(s) + 1, p.data(),
                        ap.data());
                });
            stack3d_assert(
                p_ap > 0.0,
                "thermal operator lost positive definiteness");

            // Fused x += alpha p, r -= alpha ap, and r.r.
            const double alpha = rz / p_ap;
            r_norm2 =
                exec::parallelSlabReduce(pool, nz, [&](std::size_t s) {
                    const std::size_t cb = s * plane, ce = cb + plane;
                    double rr = 0.0;
                    for (std::size_t c = cb; c < ce; ++c) {
                        x[c] += alpha * p[c];
                        r[c] -= alpha * ap[c];
                        rr += r[c] * r[c];
                    }
                    return rr;
                });
            local.iterations = iter + 1;
            local.residual = std::sqrt(r_norm2) / b_norm;
            if (info)
                local.residual_curve.push_back(local.residual);
            if (local.residual < options.tolerance) {
                local.converged = true;
                break;
            }

            const double rz_new = precondDot();
            stack3d_assert(rz_new > 0.0,
                           "thermal preconditioner lost positive "
                           "definiteness");
            const double beta = rz_new / rz;
            rz = rz_new;
            exec::parallelSlabs(pool, nz, [&](std::size_t s) {
                const std::size_t cb = s * plane, ce = cb + plane;
                for (std::size_t c = cb; c < ce; ++c)
                    p[c] = z[c] + beta * p[c];
            });
        }
    }

    if (mg) {
        local.v_cycles = mg->vCycles();
        local.smoother_sweeps = mg->smootherSweeps();
    }
    if (!local.converged) {
        warn("thermal solve did not converge: residual ",
             local.residual, " after ", local.iterations,
             " iterations");
    }
    if (info)
        *info = local;
    return TemperatureField(mesh, std::move(x));
}

void
appendSolveCounters(obs::CounterSet &out, const std::string &prefix,
                    const SolveInfo &info)
{
    out.set(prefix + "iterations", double(info.iterations));
    out.set(prefix + "residual", info.residual);
    out.set(prefix + "converged", info.converged ? 1.0 : 0.0);
    out.set(prefix + "v_cycles", double(info.v_cycles));
    out.set(prefix + "smoother_sweeps",
            double(info.smoother_sweeps));
    out.set(prefix + "warm_start_used",
            info.warm_start_used ? 1.0 : 0.0);
    if (!info.residual_curve.empty())
        out.setSeries(prefix + "residual_curve",
                      info.residual_curve);
}

} // namespace thermal
} // namespace stack3d
