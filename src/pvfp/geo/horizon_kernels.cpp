#include "pvfp/geo/horizon_kernels.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "pvfp/util/error.hpp"
#include "pvfp/util/math.hpp"
#include "pvfp/util/simd.hpp"

namespace pvfp::geo {

HorizonSchedule make_horizon_schedule(const HorizonOptions& options,
                                      double cell_size) {
    check_arg(cell_size > 0.0, "make_horizon_schedule: cell_size <= 0");
    const double step = options.step_factor * cell_size;
    const double max_step = options.max_step_factor * cell_size;
    // Every dt is at least `step` (growth >= 1), so t_k >= (k+1) * step
    // and max_distance / step bounds the step count before allocating.
    const double max_steps = options.max_distance / step;
    check_arg(max_steps <= kMaxHorizonSteps,
              "make_horizon_schedule: max_distance / step exceeds the "
              "step ceiling");

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
    check_arg(options.azimuth_sectors >= 1 &&
                  static_cast<std::size_t>(options.azimuth_sectors) *
                          sched.t.size() <=
                      kMaxScheduleEntries,
              "make_horizon_schedule: sectors x steps exceeds the "
              "schedule ceiling");

    const std::size_t ns = static_cast<std::size_t>(sched.sectors) *
                           static_cast<std::size_t>(sched.steps);
    sched.xoff.resize(ns);
    sched.yoff.resize(ns);
    sched.quadrant.resize(static_cast<std::size_t>(sched.sectors));
    for (int s = 0; s < sched.sectors; ++s) {
        const double az = kTwoPi * s / sched.sectors;
        const double dirx = std::sin(az);
        const double diry = -std::cos(az);
        sched.quadrant[static_cast<std::size_t>(s)] =
            static_cast<unsigned char>((dirx < 0.0 ? 1 : 0) |
                                       (diry < 0.0 ? 2 : 0));
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

namespace {

/// dst(x, y) = max of src over the cells at or beyond (x, y) in the
/// directions of quadrant q (see HorizonBounds).  Sweeps from the
/// quadrant's far corner: the running max of the row segment beyond x,
/// then the max with the finished row beyond y.  Each src cell is read
/// before its dst cell is written, so src may alias dst.
void quadrant_suffix_max(const float* src, float* dst, int gw, int gh,
                         int q) {
    const bool x_falls = (q & 1) != 0;
    const bool y_falls = (q & 2) != 0;
    for (int yi = 0; yi < gh; ++yi) {
        const int y = y_falls ? yi : gh - 1 - yi;
        const std::size_t row = static_cast<std::size_t>(y) * gw;
        const float* beyond = nullptr;
        if (yi > 0)
            beyond = dst + static_cast<std::size_t>(y_falls ? y - 1 : y + 1) *
                               gw;
        float run = -std::numeric_limits<float>::infinity();
        for (int xi = 0; xi < gw; ++xi) {
            const int x = x_falls ? xi : gw - 1 - xi;
            run = std::max(run, src[row + x]);
            dst[row + x] = beyond ? std::max(run, beyond[x]) : run;
        }
    }
}

}  // namespace

HorizonBounds make_horizon_bounds(const Raster& dsm) {
    constexpr int kShift = detail::kBoundBlockShift;
    const int gw = dsm.width();
    const int gh = dsm.height();
    const int bw = ((gw - 1) >> kShift) + 1;
    const int bh = ((gh - 1) >> kShift) + 1;
    const std::vector<double>& grid = dsm.grid().data();
    constexpr double kInf = std::numeric_limits<double>::infinity();

    // Block maxima (NaN read as +Inf) and the largest finite |height|.
    std::vector<double> block(static_cast<std::size_t>(bw) * bh, -kInf);
    double magnitude = 0.0;
    for (int y = 0; y < gh; ++y) {
        const double* row = grid.data() + static_cast<std::size_t>(y) * gw;
        double* brow =
            block.data() + static_cast<std::size_t>(y >> kShift) * bw;
        for (int x = 0; x < gw; ++x) {
            const double v = row[x];
            if (std::isfinite(v))
                magnitude = std::max(magnitude, std::fabs(v));
            double& b = brow[x >> kShift];
            b = std::max(b, std::isnan(v) ? kInf : v);
        }
    }
    // A rounded bilinear sample exceeds its largest corner by a few ulps
    // of the largest |height| at most; 2^-40 of it is far above that.
    const double margin = std::ldexp(magnitude, -40);
    constexpr double kFloatMax = std::numeric_limits<float>::max();
    constexpr double kFloatTiny = std::numeric_limits<float>::denorm_min();

    // Per-block bound: max plus margin, lifted by 2^-22 of itself plus
    // the smallest float, so rounding to the nearest float (within 2^-24
    // relative, or half the smallest float) cannot drop below it.
    // Anything below -FLT_MAX (-Inf included) reads as -FLT_MAX.  Built
    // in the last table, then swept in place after the other three have
    // read it.
    HorizonBounds bounds;
    bounds.width = bw;
    std::vector<float>& cells = bounds.table[3];
    cells.resize(block.size());
    for (std::size_t i = 0; i < block.size(); ++i) {
        double w = std::max(block[i] + margin, -kFloatMax);
        w += std::fabs(w) * 0x1p-22 + kFloatTiny;
        cells[i] = w <= kFloatMax ? static_cast<float>(w)
                                  : std::numeric_limits<float>::infinity();
    }
    for (int q = 0; q < 3; ++q) {
        std::vector<float>& table = bounds.table[static_cast<std::size_t>(q)];
        table.resize(block.size());
        quadrant_suffix_max(cells.data(), table.data(), bw, bh, q);
    }
    quadrant_suffix_max(cells.data(), cells.data(), bw, bh, 3);
    return bounds;
}

namespace detail {

HorizonMarchCounts march_row_scalar(const HorizonRowArgs& a) {
    // Lane-major: each lane keeps its running state in registers and
    // breaks as soon as its x leaves the raster (lx is monotone in k, so
    // the first exit is permanent — the per-cell marcher's `break`) or
    // its stop bound rules out every later step.
    const int wm1 = a.gw - 1;
    const double wm1_d = static_cast<double>(wm1);
    HorizonMarchCounts counts;
    for (int i = 0; i < a.n; ++i) {
        const double lx0 = a.lx0[i];
        const double h0 = a.h0[i];
        double rmax = 0.0;
        MarchCandidates cand;
        int k = 0;
        for (; k < a.ksteps; ++k) {
            const double lx = lx0 + a.xoff[k];
            if (lx < 0.0 || lx >= a.width_m) break;
            const double cx = lx / a.cs - 0.5;
            const double fx = std::clamp(cx, 0.0, wm1_d);
            const int x0 = std::min(static_cast<int>(fx), wm1);
            const int x1 = std::min(x0 + 1, wm1);
            if ((k & (kBoundStride - 1)) == 0) {
                const double b =
                    a.bound[a.bound_row[k] +
                            ((a.bound_x1 ? x1 : x0) >> kBoundBlockShift)];
                if ((b - h0) / a.t[k] < rmax * kRatioBand) break;
            }
            const double tx = fx - x0;
            const double* r0 = a.grid + a.row0[k];
            const double* r1 = a.grid + a.row1[k];
            const double top = r0[x0] + (r0[x1] - r0[x0]) * tx;
            const double bot = r1[x0] + (r1[x1] - r1[x0]) * tx;
            const double h = top + (bot - top) * a.ty[k];
            const double d = h - h0;
            if (d > 0.0) {
                const double r = d / a.t[k];
                if (r >= rmax * kRatioBand) {
                    if (r > rmax) rmax = r;
                    cand.push(r, d, a.t[k], rmax, counts);
                }
            }
        }
        counts.steps += static_cast<std::uint64_t>(k);
        a.best[i] = cand.finish(rmax, counts);
    }
    return counts;
}

}  // namespace detail

HorizonMarchCounts horizon_row_batched(const Raster& dsm, int x0, int y,
                                       int win_w,
                                       const HorizonSchedule& sched,
                                       const HorizonBounds& bounds,
                                       double observer_offset,
                                       float* angles_row,
                                       std::size_t plane_stride,
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
    std::vector<std::size_t> bound_row(sched.steps);
    std::vector<double> ty(sched.steps);

    // One twin for every vector level: avx512 implies avx2 (simd.hpp).
    HorizonMarchCounts (*kernel)(const detail::HorizonRowArgs&) =
        simd_level() == SimdLevel::Scalar ? &detail::march_row_scalar
                                          : &detail::march_row_avx2;

    HorizonMarchCounts counts;
    const int hm1 = gh - 1;
    const double hm1_d = static_cast<double>(hm1);
    for (int s = 0; s < sched.sectors; ++s) {
        const double* yo = sched.yoff.data() +
                           static_cast<std::size_t>(s) * sched.steps;
        const int quadrant = sched.quadrant[static_cast<std::size_t>(s)];
        const bool y_falls = (quadrant & 2) != 0;
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
            bound_row[k] =
                static_cast<std::size_t>((y_falls ? y1 : y0) >>
                                         detail::kBoundBlockShift) *
                bounds.width;
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
        args.bound = bounds.table[static_cast<std::size_t>(quadrant)].data();
        args.bound_row = bound_row.data();
        args.bound_x1 = (quadrant & 1) != 0;
        args.ksteps = ksteps;
        args.best = best.data();
        const HorizonMarchCounts c = kernel(args);
        counts.steps += c.steps;
        counts.atan2_calls += c.atan2_calls;

        float* plane = angles_row + static_cast<std::size_t>(s) * plane_stride;
        for (int i = 0; i < win_w; ++i) {
            const double ang = best[i];
            plane[i] = static_cast<float>(ang);
            // Scalar libm cos on the double angle, accumulated in sector
            // order: the exact SVF arithmetic of the per-cell builder.
            // Angles are >= +0 and cos(+0) == 1 exactly (C Annex F), so
            // an open sector skips the call.
            const double c = ang == 0.0 ? 1.0 : std::cos(ang);
            svf_acc[i] += c * c;
        }
    }

    for (int i = 0; i < win_w; ++i)
        svf_row[i] = static_cast<float>(svf_acc[i] / sched.sectors);
    return counts;
}

}  // namespace pvfp::geo
