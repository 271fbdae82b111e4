#include "pvfp/geo/horizon.hpp"

#include <cassert>
#include <cmath>
#include <utility>

#include "pvfp/geo/horizon_kernels.hpp"
#include "pvfp/obs/metrics.hpp"
#include "pvfp/util/error.hpp"
#include "pvfp/util/math.hpp"
#include "pvfp/util/parallel.hpp"

namespace pvfp::geo {
namespace {

/// March from the center of cell (x,y) along \p azimuth and return the
/// maximum elevation angle seen.  \p growth >= 1 controls step growth.
double march(const Raster& dsm, int x, int y, double azimuth_rad,
             double max_distance, double step, double growth,
             double max_step, double observer_offset) {
    const double lx0 = dsm.local_x(x);
    const double ly0 = dsm.local_y(y);
    const double h0 = dsm(x, y) + observer_offset;
    // Local frame: x east, y south; azimuth clockwise from North.
    const double dirx = std::sin(azimuth_rad);
    const double diry = -std::cos(azimuth_rad);

    const double width_m = dsm.width() * dsm.cell_size();
    const double height_m = dsm.height() * dsm.cell_size();

    double best = 0.0;  // horizons below the horizontal do not shade
    double t = step;
    double dt = step;
    while (t <= max_distance) {
        const double lx = lx0 + t * dirx;
        const double ly = ly0 + t * diry;
        if (lx < 0.0 || ly < 0.0 || lx >= width_m || ly >= height_m) break;
        const double h = dsm.sample_bilinear_local(lx, ly);
        if (h > h0) {
            const double ang = std::atan2(h - h0, t);
            if (ang > best) best = ang;
        }
        dt = std::min(dt * growth, max_step);
        t += dt;
    }
    return best;
}

void validate_build(const Raster& dsm, int x0, int y0, int win_w, int win_h,
                    const HorizonOptions& options) {
    check_arg(win_w > 0 && win_h > 0, "HorizonMap: empty window");
    check_arg(x0 >= 0 && y0 >= 0 && x0 + win_w <= dsm.width() &&
                  y0 + win_h <= dsm.height(),
              "HorizonMap: window outside raster");
    check_arg(options.azimuth_sectors >= 4,
              "HorizonMap: need at least 4 azimuth sectors");
    check_arg(options.azimuth_sectors <= kMaxAzimuthSectors,
              "HorizonMap: more azimuth sectors than kMaxAzimuthSectors");
    check_arg(static_cast<std::size_t>(win_w) *
                      static_cast<std::size_t>(win_h) *
                      static_cast<std::size_t>(options.azimuth_sectors) <=
                  kMaxHorizonPlaneFloats,
              "HorizonMap: window cells x sectors exceeds the plane "
              "ceiling");
    check_arg(std::isfinite(options.max_distance) &&
                  std::isfinite(options.step_factor) &&
                  std::isfinite(options.step_growth) &&
                  std::isfinite(options.max_step_factor) &&
                  std::isfinite(options.observer_offset),
              "HorizonMap: non-finite marching parameter");
    check_arg(options.max_distance > 0.0 && options.step_factor > 0.0 &&
                  options.step_growth >= 1.0 &&
                  options.max_step_factor >= options.step_factor,
              "HorizonMap: invalid marching parameters");
    check_arg(options.observer_offset >= 0.0,
              "HorizonMap: observer_offset must be >= 0");
}

}  // namespace

HorizonMap::HorizonMap(const Raster& dsm, int x0, int y0, int win_w,
                       int win_h, const HorizonOptions& options)
    : x0_(x0), y0_(y0), win_w_(win_w), win_h_(win_h),
      sectors_(options.azimuth_sectors) {
    validate_build(dsm, x0, y0, win_w, win_h, options);

    angles_.resize(static_cast<std::size_t>(win_w) * win_h * sectors_);
    svf_.resize(static_cast<std::size_t>(win_w) * win_h);

    // The win_h x win_w x sectors ray sweep is the prepare-time
    // bottleneck.  The batched engine marches all cells of a window row
    // through one sector together (shared step schedule and direction
    // offsets, shared bilinear y half, SIMD lanes across cells, deferred
    // atan2, early stops against the corner tables — see
    // horizon_kernels.hpp); rows are independent (each writes its own
    // angles_/svf_ slice), so parallelize over window rows.  One row per
    // chunk keeps the grid thread-count independent, hence deterministic.
    const HorizonSchedule sched =
        make_horizon_schedule(options, dsm.cell_size());
    const HorizonBounds bounds = make_horizon_bounds(dsm);
    const std::size_t ncells = static_cast<std::size_t>(cell_count());
    parallel_for(0, win_h, 1, [&](long row_begin, long row_end) {
        for (long wy = row_begin; wy < row_end; ++wy) {
            const std::size_t ri = static_cast<std::size_t>(wy) * win_w;
            const HorizonMarchCounts counts = horizon_row_batched(
                dsm, x0, y0 + static_cast<int>(wy), win_w, sched, bounds,
                options.observer_offset, angles_.data() + ri, ncells,
                svf_.data() + ri);
            if (obs::enabled()) {
                static const obs::Counter steps =
                    obs::registry().counter("geo.horizon.march_steps");
                static const obs::Counter atan2_calls =
                    obs::registry().counter("geo.horizon.atan2_calls");
                steps.add(counts.steps);
                atan2_calls.add(counts.atan2_calls);
            }
        }
    });
}

HorizonMap HorizonMap::from_planes(int x0, int y0, int win_w, int win_h,
                                   int sectors, std::vector<float> angles,
                                   std::vector<float> svf) {
    check_arg(win_w > 0 && win_h > 0, "HorizonMap::from_planes: empty window");
    check_arg(sectors >= 4,
              "HorizonMap::from_planes: need at least 4 azimuth sectors");
    const std::size_t ncells = static_cast<std::size_t>(win_w) * win_h;
    check_arg(angles.size() == ncells * static_cast<std::size_t>(sectors),
              "HorizonMap::from_planes: angle plane size mismatch");
    check_arg(svf.size() == ncells,
              "HorizonMap::from_planes: svf plane size mismatch");
    HorizonMap map;
    map.x0_ = x0;
    map.y0_ = y0;
    map.win_w_ = win_w;
    map.win_h_ = win_h;
    map.sectors_ = sectors;
    map.angles_ = std::move(angles);
    map.svf_ = std::move(svf);
    return map;
}

std::size_t HorizonMap::cell_index(int wx, int wy) const {
    // Internal hot path: every public entry (horizon, horizon_at,
    // sky_view_factor) validates its bounds first, so only a debug
    // assert remains here.
    assert(wx >= 0 && wx < win_w_ && wy >= 0 && wy < win_h_);
    return static_cast<std::size_t>(wy) * win_w_ +
           static_cast<std::size_t>(wx);
}

double HorizonMap::horizon(int wx, int wy, int s) const {
    check_arg(wx >= 0 && wx < win_w_ && wy >= 0 && wy < win_h_,
              "HorizonMap: window cell out of range");
    check_arg(s >= 0 && s < sectors_, "HorizonMap::horizon: bad sector");
    return angles_[static_cast<std::size_t>(s) *
                       static_cast<std::size_t>(cell_count()) +
                   cell_index(wx, wy)];
}

double HorizonMap::horizon_at(int wx, int wy, double azimuth_rad) const {
    check_arg(wx >= 0 && wx < win_w_ && wy >= 0 && wy < win_h_,
              "HorizonMap: window cell out of range");
    return horizon_at_unchecked(wx, wy, azimuth_rad);
}

bool HorizonMap::is_shaded(int wx, int wy, double azimuth_rad,
                           double elevation_rad) const {
    check_arg(wx >= 0 && wx < win_w_ && wy >= 0 && wy < win_h_,
              "HorizonMap: window cell out of range");
    return is_shaded_unchecked(wx, wy, azimuth_rad, elevation_rad);
}

double HorizonMap::sky_view_factor(int wx, int wy) const {
    check_arg(wx >= 0 && wx < win_w_ && wy >= 0 && wy < win_h_,
              "HorizonMap: window cell out of range");
    return sky_view_factor_unchecked(wx, wy);
}

double HorizonMap::horizon_at_unchecked(int wx, int wy,
                                        double azimuth_rad) const {
    const std::size_t ci = cell_index(wx, wy);
    const std::size_t ncells = static_cast<std::size_t>(cell_count());
    const double pos = wrap_two_pi(azimuth_rad) / kTwoPi * sectors_;
    const int s0 = static_cast<int>(pos) % sectors_;
    const int s1 = (s0 + 1) % sectors_;
    const double frac = pos - std::floor(pos);
    const double a0 = angles_[static_cast<std::size_t>(s0) * ncells + ci];
    const double a1 = angles_[static_cast<std::size_t>(s1) * ncells + ci];
    return lerp(a0, a1, frac);
}

bool HorizonMap::is_shaded_unchecked(int wx, int wy, double azimuth_rad,
                                     double elevation_rad) const {
    if (elevation_rad <= 0.0) return true;
    return elevation_rad < horizon_at_unchecked(wx, wy, azimuth_rad);
}

double HorizonMap::sky_view_factor_unchecked(int wx, int wy) const {
    return svf_[cell_index(wx, wy)];
}

HorizonMap horizon_map_reference(const Raster& dsm, int x0, int y0,
                                 int win_w, int win_h,
                                 const HorizonOptions& options) {
    validate_build(dsm, x0, y0, win_w, win_h, options);
    const int sectors = options.azimuth_sectors;
    const double step = options.step_factor * dsm.cell_size();
    const std::size_t ncells = static_cast<std::size_t>(win_w) * win_h;
    std::vector<float> angles(ncells * static_cast<std::size_t>(sectors));
    std::vector<float> svf(ncells);

    // The original per-cell build loop, retained verbatim as the
    // differential oracle for the batched kernels.
    parallel_for(0, win_h, 1, [&](long row_begin, long row_end) {
        for (long wy = row_begin; wy < row_end; ++wy) {
            for (int wx = 0; wx < win_w; ++wx) {
                const std::size_t ci =
                    static_cast<std::size_t>(wy) * win_w + wx;
                double svf_acc = 0.0;
                for (int s = 0; s < sectors; ++s) {
                    const double az = kTwoPi * s / sectors;
                    const double ang = march(
                        dsm, x0 + wx, y0 + static_cast<int>(wy), az,
                        options.max_distance, step, options.step_growth,
                        options.max_step_factor * dsm.cell_size(),
                        options.observer_offset);
                    angles[static_cast<std::size_t>(s) * ncells + ci] =
                        static_cast<float>(ang);
                    const double c = std::cos(ang);
                    svf_acc += c * c;
                }
                svf[ci] = static_cast<float>(svf_acc / sectors);
            }
        }
    });
    return HorizonMap::from_planes(x0, y0, win_w, win_h, sectors,
                                   std::move(angles), std::move(svf));
}

double brute_force_horizon(const Raster& dsm, int x, int y,
                           double azimuth_rad,
                           const HorizonOptions& options) {
    check_arg(dsm.in_bounds(x, y), "brute_force_horizon: cell out of bounds");
    const double step = options.step_factor * dsm.cell_size();
    return march(dsm, x, y, azimuth_rad, options.max_distance, step,
                 /*growth=*/1.0, /*max_step=*/step,
                 options.observer_offset);
}

}  // namespace pvfp::geo
