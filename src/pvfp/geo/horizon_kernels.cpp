#include "pvfp/geo/horizon_kernels.hpp"

#include <algorithm>
#include <cmath>

#include "pvfp/util/error.hpp"
#include "pvfp/util/math.hpp"
#include "pvfp/util/simd.hpp"

namespace pvfp::geo {

HorizonSchedule make_horizon_schedule(const HorizonOptions& options,
                                      double cell_size) {
    check_arg(cell_size > 0.0, "make_horizon_schedule: cell_size <= 0");
    const double step = options.step_factor * cell_size;
    const double max_step = options.max_step_factor * cell_size;

    HorizonSchedule sched;
    sched.sectors = options.azimuth_sectors;
    // Replicate the per-cell marcher's accumulation exactly: the t_k
    // sequence is the same doubles in the same order, so fl(t_k * dir)
    // below matches the in-loop product bit for bit.
    double t = step;
    double dt = step;
    while (t <= options.max_distance) {
        sched.t.push_back(t);
        dt = std::min(dt * options.step_growth, max_step);
        t += dt;
    }
    sched.steps = static_cast<int>(sched.t.size());

    const std::size_t ns = static_cast<std::size_t>(sched.sectors) *
                           static_cast<std::size_t>(sched.steps);
    sched.xoff.resize(ns);
    sched.yoff.resize(ns);
    for (int s = 0; s < sched.sectors; ++s) {
        const double az = kTwoPi * s / sched.sectors;
        const double dirx = std::sin(az);
        const double diry = -std::cos(az);
        double* xo = sched.xoff.data() +
                     static_cast<std::size_t>(s) * sched.steps;
        double* yo = sched.yoff.data() +
                     static_cast<std::size_t>(s) * sched.steps;
        for (int k = 0; k < sched.steps; ++k) {
            xo[k] = sched.t[k] * dirx;
            yo[k] = sched.t[k] * diry;
        }
    }
    return sched;
}

namespace detail {

void march_row_scalar(const HorizonRowArgs& a) {
    // Lane-major: each lane keeps its running state in registers and
    // breaks as soon as its x leaves the raster (lx is monotone in k, so
    // the first exit is permanent — the per-cell marcher's `break`).
    const int wm1 = a.gw - 1;
    const double wm1_d = static_cast<double>(wm1);
    for (int i = 0; i < a.n; ++i) {
        const double lx0 = a.lx0[i];
        const double h0 = a.h0[i];
        double best = 0.0;
        double rmax = 0.0;
        for (int k = 0; k < a.ksteps; ++k) {
            const double lx = lx0 + a.xoff[k];
            if (lx < 0.0 || lx >= a.width_m) break;
            const double cx = lx / a.cs - 0.5;
            const double fx = std::clamp(cx, 0.0, wm1_d);
            const int x0 = std::min(static_cast<int>(fx), wm1);
            const int x1 = std::min(x0 + 1, wm1);
            const double tx = fx - x0;
            const double* r0 = a.grid + a.row0[k];
            const double* r1 = a.grid + a.row1[k];
            const double top = r0[x0] + (r0[x1] - r0[x0]) * tx;
            const double bot = r1[x0] + (r1[x1] - r1[x0]) * tx;
            const double h = top + (bot - top) * a.ty[k];
            const double d = h - h0;
            if (d > 0.0) {
                const double r = d / a.t[k];
                if (r >= rmax * (1.0 - 1e-9)) {
                    const double ang = std::atan2(d, a.t[k]);
                    if (ang > best) best = ang;
                }
                if (r > rmax) rmax = r;
            }
        }
        a.best[i] = best;
    }
}

}  // namespace detail

void horizon_row_batched(const Raster& dsm, int x0, int y, int win_w,
                         const HorizonSchedule& sched, double observer_offset,
                         float* angles_row, std::size_t plane_stride,
                         float* svf_row) {
    const int gw = dsm.width();
    const int gh = dsm.height();
    const double cs = dsm.cell_size();
    const double width_m = gw * cs;
    const double height_m = gh * cs;
    const double ly0 = dsm.local_y(y);

    // Per-lane constants of the row.
    std::vector<double> lx0(win_w);
    std::vector<double> h0(win_w);
    for (int i = 0; i < win_w; ++i) {
        lx0[i] = dsm.local_x(x0 + i);
        h0[i] = dsm(x0 + i, y) + observer_offset;
    }

    std::vector<double> best(win_w);
    std::vector<double> svf_acc(win_w, 0.0);
    // Shared y-plan of one sector (rebuilt per sector, reused by every
    // lane and every SIMD level — one arithmetic sequence to trust).
    std::vector<std::size_t> row0(sched.steps);
    std::vector<std::size_t> row1(sched.steps);
    std::vector<double> ty(sched.steps);

    // One twin for every vector level: avx512 implies avx2 (simd.hpp).
    void (*kernel)(const detail::HorizonRowArgs&) =
        simd_level() == SimdLevel::Scalar ? &detail::march_row_scalar
                                          : &detail::march_row_avx2;

    const int hm1 = gh - 1;
    const double hm1_d = static_cast<double>(hm1);
    for (int s = 0; s < sched.sectors; ++s) {
        const double* yo = sched.yoff.data() +
                           static_cast<std::size_t>(s) * sched.steps;
        int ksteps = 0;
        for (int k = 0; k < sched.steps; ++k) {
            const double ly = ly0 + yo[k];
            // Shared break: all lanes of the row leave the raster in y at
            // the same step (the per-cell marcher's bounds test on ly).
            if (ly < 0.0 || ly >= height_m) break;
            const double cy = ly / cs - 0.5;
            const double fy = std::clamp(cy, 0.0, hm1_d);
            const int y0 = std::min(static_cast<int>(fy), hm1);
            const int y1 = std::min(y0 + 1, hm1);
            ty[k] = fy - y0;
            row0[k] = static_cast<std::size_t>(y0) * gw;
            row1[k] = static_cast<std::size_t>(y1) * gw;
            ++ksteps;
        }

        detail::HorizonRowArgs args;
        args.grid = dsm.grid().data().data();
        args.gw = gw;
        args.cs = cs;
        args.width_m = width_m;
        args.lx0 = lx0.data();
        args.h0 = h0.data();
        args.n = win_w;
        args.t = sched.t.data();
        args.xoff = sched.xoff.data() +
                    static_cast<std::size_t>(s) * sched.steps;
        args.row0 = row0.data();
        args.row1 = row1.data();
        args.ty = ty.data();
        args.ksteps = ksteps;
        args.best = best.data();
        kernel(args);

        float* plane = angles_row + static_cast<std::size_t>(s) * plane_stride;
        for (int i = 0; i < win_w; ++i) {
            const double ang = best[i];
            plane[i] = static_cast<float>(ang);
            // Scalar libm cos on the double angle, accumulated in sector
            // order: the exact SVF arithmetic of the per-cell builder.
            const double c = std::cos(ang);
            svf_acc[i] += c * c;
        }
    }

    for (int i = 0; i < win_w; ++i)
        svf_row[i] = static_cast<float>(svf_acc[i] / sched.sectors);
}

}  // namespace pvfp::geo
