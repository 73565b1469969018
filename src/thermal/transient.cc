#include "transient.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace stack3d {
namespace thermal {

namespace {

/**
 * Jacobi-preconditioned CG on (A + C/dt) x = b, where A is the
 * mesh's conduction operator and C the diagonal heat-capacity matrix.
 */
void
solveStep(const Mesh &mesh, const std::vector<double> &cap_over_dt,
          const std::vector<double> &b, std::vector<double> &x,
          double tolerance, unsigned max_iters)
{
    std::size_t n = mesh.numCells();
    std::vector<double> r(n), z(n), p(n), ap(n);

    auto apply = [&](const std::vector<double> &in,
                     std::vector<double> &out) {
        mesh.applyOperator(in, out);
        for (std::size_t i = 0; i < n; ++i)
            out[i] += cap_over_dt[i] * in[i];
    };

    apply(x, ap);
    double b_norm = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        r[i] = b[i] - ap[i];
        b_norm += b[i] * b[i];
    }
    b_norm = std::sqrt(std::max(b_norm, 1e-300));

    const std::vector<double> &diag = mesh.diagonal();
    auto precond = [&](const std::vector<double> &in,
                       std::vector<double> &out) {
        for (std::size_t i = 0; i < n; ++i)
            out[i] = in[i] / (diag[i] + cap_over_dt[i]);
    };

    precond(r, z);
    p = z;
    double rz = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        rz += r[i] * z[i];

    for (unsigned iter = 0; iter < max_iters; ++iter) {
        apply(p, ap);
        double p_ap = 0.0;
        for (std::size_t i = 0; i < n; ++i)
            p_ap += p[i] * ap[i];
        double alpha = rz / p_ap;
        double r_norm = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
            r_norm += r[i] * r[i];
        }
        if (std::sqrt(r_norm) / b_norm < tolerance)
            return;
        precond(r, z);
        double rz_new = 0.0;
        for (std::size_t i = 0; i < n; ++i)
            rz_new += r[i] * z[i];
        double beta = rz_new / rz;
        rz = rz_new;
        for (std::size_t i = 0; i < n; ++i)
            p[i] = z[i] + beta * p[i];
    }
    warn("transient step CG hit the iteration cap");
}

} // anonymous namespace

TransientResult
solveTransient(const Mesh &mesh, double duration, double dt,
               double initial_c)
{
    stack3d_assert(duration > 0.0 && dt > 0.0,
                   "transient needs positive duration and step");
    std::size_t n = mesh.numCells();

    if (initial_c < 0.0)
        initial_c = mesh.geometry().ambient;

    // Per-cell capacity / dt.
    std::vector<double> cap_over_dt(n);
    for (unsigned z = 0; z < mesh.nzTotal(); ++z)
        for (unsigned j = 0; j < mesh.ny(); ++j)
            for (unsigned i = 0; i < mesh.nx(); ++i)
                cap_over_dt[mesh.cellIndex(i, j, z)] =
                    mesh.cellHeatCapacity(i, j, z) / dt;

    std::vector<double> temps(n, initial_c);
    std::vector<double> b(n);

    // Steady-state target for the time-constant estimate.
    double steady_peak = solveSteadyState(mesh).peak();
    double initial_peak = initial_c;
    double target =
        initial_peak + (steady_peak - initial_peak) * 0.632;

    TransientResult result{
        {}, TemperatureField(mesh, temps), 0.0};
    double prev_peak = initial_peak;
    double prev_time = 0.0;

    unsigned steps = unsigned(std::ceil(duration / dt));
    for (unsigned step = 1; step <= steps; ++step) {
        // b = Q + ambient terms + (C/dt) T_old.
        const std::vector<double> &rhs = mesh.rhs();
        for (std::size_t i = 0; i < n; ++i)
            b[i] = rhs[i] + cap_over_dt[i] * temps[i];
        solveStep(mesh, cap_over_dt, b, temps, 1e-9, 5000);

        double t = step * dt;
        double peak = *std::max_element(temps.begin(), temps.end());
        result.samples.push_back({t, peak});

        // 0.0 is the assigned-once "not yet crossed" sentinel, never
        // a computed value. lint3d: safe-float-eq-ok
        if (result.time_constant_s == 0.0 && peak >= target &&
            steady_peak > initial_peak) {
            // Linear interpolation across the crossing step.
            double frac = (target - prev_peak) /
                          std::max(peak - prev_peak, 1e-12);
            result.time_constant_s = prev_time + frac * dt;
        }
        prev_peak = peak;
        prev_time = t;
    }

    result.final_field = TemperatureField(mesh, std::move(temps));
    return result;
}

} // namespace thermal
} // namespace stack3d
