#include "thermal/multigrid.hh"

#include <algorithm>

#include "common/logging.hh"

namespace stack3d {
namespace thermal {

namespace {

/** Smoother sweeps before and after each coarse-grid correction
 *  (equal, so the V-cycle stays a symmetric operator). */
constexpr unsigned kSmoothSweeps = 1;
/** Smoother sweeps standing in for a coarsest-level solve. */
constexpr unsigned kCoarseSweeps = 24;
/** Stop coarsening when min(nx, ny) drops to this. */
constexpr unsigned kMinCoarseDim = 8;
/** Damping of the z-line block Jacobi smoother. */
constexpr double kDamping = 0.8;

inline std::size_t
idx(unsigned nx, unsigned ny, unsigned i, unsigned j, unsigned z)
{
    return (std::size_t(z) * ny + j) * nx + i;
}

} // anonymous namespace

MultigridPreconditioner::MultigridPreconditioner(const Mesh &mesh)
{
    Level fine;
    fine.nx = mesh.nx();
    fine.ny = mesh.ny();
    fine.nz = mesh.nzTotal();
    fine.gx = mesh.faceGx().data();
    fine.gy = mesh.faceGy().data();
    fine.gz = mesh.faceGz().data();
    fine.diag = mesh.diagonal().data();
    _levels.push_back(std::move(fine));

    while (std::min(_levels.back().nx, _levels.back().ny) >
               kMinCoarseDim &&
           _levels.size() < 16)
        coarsen(_levels.back());

    for (std::size_t l = 0; l < _levels.size(); ++l) {
        Level &level = _levels[l];
        level.res.assign(level.cells(), 0.0);
        if (l > 0) {
            level.x.assign(level.cells(), 0.0);
            level.rhs.assign(level.cells(), 0.0);
        }
        // Factor every column's tridiagonal (diagonal = operator
        // diagonal, off-diagonals = -gz) once; the LU recurrence runs
        // plane-by-plane so it vectorizes across (i, j).
        const std::size_t plane = level.plane();
        level.zl_inv.resize(level.cells());
        level.zl_cp.resize(level.cells());
        level.zl_dp.assign(level.cells(), 0.0);
        for (std::size_t c = 0; c < plane; ++c) {
            level.zl_inv[c] = 1.0 / level.diag[c];
            level.zl_cp[c] = -level.gz[c] * level.zl_inv[c];
        }
        for (unsigned z = 1; z < level.nz; ++z) {
            const std::size_t b = std::size_t(z) * plane;
            for (std::size_t c = b; c < b + plane; ++c) {
                const double gzp = level.gz[c - plane];
                level.zl_inv[c] =
                    1.0 / (level.diag[c] -
                           gzp * gzp * level.zl_inv[c - plane]);
                level.zl_cp[c] = -level.gz[c] * level.zl_inv[c];
            }
        }
    }
}

void
MultigridPreconditioner::coarsen(const Level &fine)
{
    Level c;
    c.nx = (fine.nx + 1) / 2;
    c.ny = (fine.ny + 1) / 2;
    c.nz = fine.nz;
    const std::size_t n = c.cells();
    c.own_gx.assign(n, 0.0);
    c.own_gy.assign(n, 0.0);
    c.own_gz.assign(n, 0.0);
    c.own_diag.assign(n, 0.0);

    const unsigned fnx = fine.nx, fny = fine.ny;
    for (unsigned z = 0; z < c.nz; ++z) {
        for (unsigned J = 0; J < c.ny; ++J) {
            const unsigned j0 = 2 * J;
            const unsigned j1 = std::min(j0 + 2, fny);
            for (unsigned I = 0; I < c.nx; ++I) {
                const unsigned i0 = 2 * I;
                const unsigned i1 = std::min(i0 + 2, fnx);
                const std::size_t cc = idx(c.nx, c.ny, I, J, z);

                // Galerkin P^T A P with piecewise-constant P: the
                // coarse diagonal is the aggregate's row sums, i.e.
                // the fine diagonals minus both halves of every face
                // interior to the aggregate.
                double d = 0.0, gzs = 0.0;
                for (unsigned j = j0; j < j1; ++j)
                    for (unsigned i = i0; i < i1; ++i) {
                        const std::size_t f = idx(fnx, fny, i, j, z);
                        d += fine.diag[f];
                        gzs += fine.gz[f];
                    }
                if (i1 - i0 == 2)
                    for (unsigned j = j0; j < j1; ++j)
                        d -= 2.0 * fine.gx[idx(fnx, fny, i0, j, z)];
                if (j1 - j0 == 2)
                    for (unsigned i = i0; i < i1; ++i)
                        d -= 2.0 * fine.gy[idx(fnx, fny, i, j0, z)];
                c.own_diag[cc] = d;
                c.own_gz[cc] = gzs;

                // Coarse lateral faces: the fine faces crossing the
                // aggregate boundary.
                if (I + 1 < c.nx)
                    for (unsigned j = j0; j < j1; ++j)
                        c.own_gx[cc] +=
                            fine.gx[idx(fnx, fny, i0 + 1, j, z)];
                if (J + 1 < c.ny)
                    for (unsigned i = i0; i < i1; ++i)
                        c.own_gy[cc] +=
                            fine.gy[idx(fnx, fny, i, j0 + 1, z)];
            }
        }
    }
    c.gx = c.own_gx.data();
    c.gy = c.own_gy.data();
    c.gz = c.own_gz.data();
    c.diag = c.own_diag.data();
    _levels.push_back(std::move(c));
}

void
MultigridPreconditioner::residual(const Level &level, const double *rhs,
                                  const double *x, double *out) const
{
    const std::size_t plane = level.plane();
    for (unsigned z = 0; z < level.nz; ++z) {
        stencil::apply(level.gx, level.gy, level.gz, level.diag, x, out,
                       level.nx, level.ny, level.nz, z, z + 1);
        const std::size_t b = z * plane, e = b + plane;
        for (std::size_t c = b; c < e; ++c)
            out[c] = rhs[c] - out[c];
    }
}

void
MultigridPreconditioner::smooth(Level &level, const double *rhs,
                                double *x, unsigned sweeps,
                                bool x_is_zero)
{
    // Damped block Jacobi: each (i, j) column's tridiagonal z-system
    // (full diagonal, -gz off-diagonals) is solved exactly against the
    // current residual using the factors precomputed at setup. The
    // forward/backward recurrences run plane-by-plane so the inner
    // loops are contiguous in i and vectorize. Columns write disjoint
    // cells, so the row order does not affect the result.
    _smoother_sweeps += sweeps;
    const std::size_t plane = level.plane();
    const unsigned nx = level.nx, nz = level.nz;
    const double *inv = level.zl_inv.data();
    const double *cp = level.zl_cp.data();
    double *dp = level.zl_dp.data();
    for (unsigned s = 0; s < sweeps; ++s) {
        const bool first = x_is_zero && s == 0;
        const double *r = rhs;
        if (!first) {
            residual(level, rhs, x, level.res.data());
            r = level.res.data();
        }
        for (unsigned j = 0; j < level.ny; ++j) {
            const std::size_t row = std::size_t(j) * nx;
            for (std::size_t c = row; c < row + nx; ++c)
                dp[c] = r[c] * inv[c];
            for (unsigned z = 1; z < nz; ++z) {
                const std::size_t b = row + z * plane;
                for (std::size_t c = b; c < b + nx; ++c)
                    dp[c] = (r[c] + level.gz[c - plane] * dp[c - plane]) *
                            inv[c];
            }
            for (unsigned z = nz - 1; z-- > 0;) {
                const std::size_t b = row + z * plane;
                for (std::size_t c = b; c < b + nx; ++c)
                    dp[c] -= cp[c] * dp[c + plane];
            }
            for (unsigned z = 0; z < nz; ++z) {
                const std::size_t b = row + z * plane;
                if (first) {
                    for (std::size_t c = b; c < b + nx; ++c)
                        x[c] = kDamping * dp[c];
                } else {
                    for (std::size_t c = b; c < b + nx; ++c)
                        x[c] += kDamping * dp[c];
                }
            }
        }
    }
}

void
MultigridPreconditioner::vcycle(unsigned li, const double *rhs,
                                double *x)
{
    Level &level = _levels[li];
    if (li + 1 == _levels.size()) {
        smooth(level, rhs, x, kCoarseSweeps, true);
        return;
    }

    smooth(level, rhs, x, kSmoothSweeps, true);
    residual(level, rhs, x, level.res.data());

    Level &coarse = _levels[li + 1];
    const double *res = level.res.data();
    double *crhs = coarse.rhs.data();
    const unsigned fnx = level.nx, fny = level.ny;
    const unsigned cnx = coarse.nx, cny = coarse.ny;

    // Restriction P^T: aggregate sums of the fine residual, plane by
    // plane (lateral coarsening keeps every z-plane).
    const unsigned pairs_i = fnx / 2;
    for (unsigned z = 0; z < level.nz; ++z) {
        for (unsigned J = 0; J < cny; ++J) {
            const unsigned j0 = 2 * J;
            const unsigned j1 = std::min(j0 + 2, fny);
            double *crow = crhs + idx(cnx, cny, 0, J, z);
            const double *frow0 = res + idx(fnx, fny, 0, j0, z);
            for (unsigned I = 0; I < pairs_i; ++I)
                crow[I] = frow0[2 * I] + frow0[2 * I + 1];
            if (pairs_i < cnx)
                crow[pairs_i] = frow0[fnx - 1];
            if (j1 - j0 == 2) {
                const double *frow1 = frow0 + fnx;
                for (unsigned I = 0; I < pairs_i; ++I)
                    crow[I] += frow1[2 * I] + frow1[2 * I + 1];
                if (pairs_i < cnx)
                    crow[pairs_i] += frow1[fnx - 1];
            }
        }
    }

    vcycle(li + 1, coarse.rhs.data(), coarse.x.data());

    // Prolongation P: piecewise-constant injection, added to the
    // fine-level correction.
    const double *cx = coarse.x.data();
    for (unsigned z = 0; z < level.nz; ++z) {
        for (unsigned j = 0; j < fny; ++j) {
            const double *crow = cx + idx(cnx, cny, 0, j / 2, z);
            double *frow = x + idx(fnx, fny, 0, j, z);
            for (unsigned I = 0; I < pairs_i; ++I) {
                frow[2 * I] += crow[I];
                frow[2 * I + 1] += crow[I];
            }
            if (pairs_i < cnx)
                frow[fnx - 1] += crow[pairs_i];
        }
    }

    smooth(level, rhs, x, kSmoothSweeps, false);
}

void
MultigridPreconditioner::apply(const std::vector<double> &r,
                               std::vector<double> &z)
{
    Level &finest = _levels.front();
    stack3d_assert(r.size() == finest.cells(),
                   "multigrid rhs size mismatch");
    z.resize(finest.cells());
    vcycle(0, r.data(), z.data());
    ++_v_cycles;
}

} // namespace thermal
} // namespace stack3d
