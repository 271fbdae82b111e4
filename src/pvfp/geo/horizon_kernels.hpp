#pragma once
/// \file horizon_kernels.hpp
/// Batched ray-march kernels behind HorizonMap: all cells of a window row
/// march one azimuth sector together.
///
/// The per-cell marcher (geo/horizon.cpp) recomputes, for every cell, the
/// same step schedule (the t_k sequence is cell-independent), the same
/// direction offsets (t_k * dir is cell-independent), and the same
/// y-half of the bilinear DSM sample (all cells of a window row share
/// ly = ly0 + t_k * diry, hence the same source rows and y-fraction), and
/// calls scalar atan2 at every step that sees terrain above the observer.
/// The batched engine hoists all of that and skips the march work that
/// cannot change an angle:
///
///   * HorizonSchedule precomputes the t_k sequence and, per sector, the
///     rounded offsets fl(t_k * dirx) / fl(t_k * diry) once per build;
///   * horizon_row_batched precomputes the shared y-interpolation plan
///     (source row offsets + y-fraction) once per (sector, row);
///   * the row kernels keep only the per-lane x-half of the bilinear
///     sample plus a running max of the elevation *ratio* r = d / t per
///     lane.  A step whose ratio reaches the running max's guard band
///     (r >= rmax * (1 - 1e-9)) is recorded as a candidate; atan2 runs
///     only after the march, on the candidates still inside the band of
///     the *final* max (MarchCandidates) — 0.65 libm calls per
///     (cell, sector) on the benchmark city instead of 6.1;
///   * every kBoundStride steps a lane stops once no later step can
///     enter the band: a corner suffix-max table (HorizonBounds) bounds
///     every height the rest of the ray can sample — 14.2 of its 41.5
///     steps per march on the benchmark city;
///   * one AVX2 twin vectorizes the per-lane work across window cells;
///     the avx2 *and* avx512 levels run it (runtime dispatch via
///     util/simd).  No AVX-512 twin: on the benchmark city run one
///     took 725–747 ms for the march, the AVX2 twin 642–759 ms (scalar
///     ≈1045 ms), so wider lanes do not pay.
///
/// Bitwise contract: every level — scalar batched or the AVX2 twin —
/// produces horizon angles bitwise-identical to the retained per-cell
/// oracle (horizon_map_reference), because each step's lx/ly/bilinear/
/// atan2 arithmetic is the exact scalar operation sequence (mul+add,
/// never FMA; the build sets -ffp-contract=off), and the two skips are
/// exact:
///
///   * Deferral.  A step whose ratio lies below the guard band of a
///     *later* max cannot beat that max's angle either (the 1e-9 band
///     covers the rounding of r and of libm atan2), and the step that
///     sets the final max is always inside the final band.  So the max
///     of atan2 over the final band's survivors equals the per-step
///     running max.  A lane with more candidates in the band than its
///     buffer holds evaluates them early; an early angle is a real
///     step's angle, so the max stays the same.
///   * Termination.  A ray's sample positions are monotone in x and in
///     y, so the corner table of its quadrant, read at the block of the
///     current sample's bilinear corners, bounds every later sample's
///     corners.  Each table entry is the max height plus a margin of
///     2^-40 times the DSM's largest finite |height| — far above the few
///     ulps by which a rounded bilinear lerp can exceed its corners —
///     stored as a float no smaller than that.  NaN cells read as +Inf
///     and -Inf cells as -FLT_MAX, so non-finite terrain only loosens
///     the bound.  Rounding is monotone and t only grows, so once
///     fl(fl(B - h0) / t_k) < rmax * (1 - 1e-9) no later step of the
///     lane enters the band (nor raises rmax), and stopping there
///     leaves the angle unchanged.
/// tests/geo/test_horizon_kernels pins this differentially, including
/// offset, non-finite, tied-ratio and single-row/column terrains.

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "pvfp/geo/horizon.hpp"
#include "pvfp/geo/raster.hpp"

namespace pvfp::geo {

/// Ceilings on a schedule, checked before anything is allocated:
/// make_horizon_schedule throws InvalidArgument past either.
inline constexpr int kMaxHorizonSteps = 1 << 16;
inline constexpr std::size_t kMaxScheduleEntries = std::size_t{1} << 24;

/// Cell-independent part of the march for one (HorizonOptions, cell size)
/// pair: the step distances and the per-sector direction offsets, rounded
/// exactly as the per-cell marcher rounds them.
struct HorizonSchedule {
    int sectors = 0;
    int steps = 0;
    /// Step distances t_k [m], ascending; the exact accumulation sequence
    /// of the per-cell marcher (t += dt; dt = min(dt*growth, max_step)).
    std::vector<double> t;
    /// Per-sector sample offsets, sector-major: xoff[s*steps + k] is
    /// fl(t_k * sin(az_s)); yoff likewise with -cos(az_s).
    std::vector<double> xoff;
    std::vector<double> yoff;
    /// Per-sector ray quadrant, the HorizonBounds table index: bit 0 set
    /// when sin(az_s) < 0 (x falls along the ray), bit 1 when
    /// -cos(az_s) < 0 (y falls).
    std::vector<unsigned char> quadrant;
};

/// Build the schedule for \p options over a raster with \p cell_size.
/// Preconditions mirror the HorizonMap ctor (validated there); throws
/// InvalidArgument when the step count or sectors x steps would pass
/// kMaxHorizonSteps / kMaxScheduleEntries.
HorizonSchedule make_horizon_schedule(const HorizonOptions& options,
                                      double cell_size);

/// Corner suffix-max tables of one DSM, the march's stop bound (see the
/// termination argument above), over blocks of 2^kBoundBlockShift
/// cells a side.  table[q] is row-major over the blocks, `width` to a
/// row: entry (bx, by) bounds from above every bilinear sample whose
/// corners lie in blocks at or beyond (bx, by) in the directions of
/// quadrant q (bx' >= bx, or bx' <= bx when bit 0 of q is set; likewise
/// by with bit 1).  Blocks keep the build to one pass over the DSM, so
/// a small window over a large raster pays little for it.
struct HorizonBounds {
    int width = 0;
    std::array<std::vector<float>, 4> table;
};

/// Build the four tables of \p dsm: one pass over the cells, then
/// O(blocks) per table.
HorizonBounds make_horizon_bounds(const Raster& dsm);

/// Work counts of a march, defined per lane so they are equal at every
/// SIMD level and thread count: steps whose DSM sample a lane computed,
/// and the atan2 evaluations it made.
struct HorizonMarchCounts {
    std::uint64_t steps = 0;
    std::uint64_t atan2_calls = 0;
};

/// March one window row (cells (x0..x0+win_w-1, y) of \p dsm) through all
/// sectors of \p sched, stopping lanes early with \p bounds (built from
/// the same \p dsm), and write the results:
///   angles_row[s*plane_stride + i] = float horizon angle of cell i in
///   sector s; svf_row[i] = float sky-view factor.
/// Dispatches on pvfp::simd_level(); every level is bitwise-identical to
/// the per-cell oracle and returns the same counts.
HorizonMarchCounts horizon_row_batched(const Raster& dsm, int x0, int y,
                                       int win_w,
                                       const HorizonSchedule& sched,
                                       const HorizonBounds& bounds,
                                       double observer_offset,
                                       float* angles_row,
                                       std::size_t plane_stride,
                                       float* svf_row);

namespace detail {

/// The ratio guard band: a step is a candidate while its ratio is at
/// least kRatioBand times the running max.
inline constexpr double kRatioBand = 1.0 - 1e-9;
/// Steps between two stop checks of a lane (a power of two).
inline constexpr int kBoundStride = 4;
/// log2 of the HorizonBounds block side in cells.
inline constexpr int kBoundBlockShift = 2;

/// One lane's deferred atan2 work: the (r, d, t) of every step admitted
/// to the guard band, kept until the march ends.  Both kernels drive it
/// with the same calls per lane, so the atan2 count matches too.
class MarchCandidates {
public:
    /// Record an admitted step; \p rmax is the running max including it.
    /// A full buffer first drops the entries below \p rmax's band, then
    /// evaluates the rest early if none dropped out.
    void push(double r, double d, double t, double rmax,
              HorizonMarchCounts& counts) {
        if (n_ == kCapacity) {
            const double floor = rmax * kRatioBand;
            int kept = 0;
            for (int j = 0; j < n_; ++j) {
                if (r_[j] < floor) continue;
                r_[kept] = r_[j];
                d_[kept] = d_[j];
                t_[kept] = t_[j];
                ++kept;
            }
            n_ = kept;
            if (n_ == kCapacity) {
                for (int j = 0; j < n_; ++j) fold(j, counts);
                n_ = 0;
            }
        }
        r_[n_] = r;
        d_[n_] = d;
        t_[n_] = t;
        ++n_;
    }

    /// The lane's horizon angle: the max atan2 over the early
    /// evaluations and the candidates inside the final max's band.
    double finish(double rmax, HorizonMarchCounts& counts) {
        const double floor = rmax * kRatioBand;
        for (int j = 0; j < n_; ++j)
            if (r_[j] >= floor) fold(j, counts);
        return best_;
    }

private:
    static constexpr int kCapacity = 8;

    void fold(int j, HorizonMarchCounts& counts) {
        const double ang = std::atan2(d_[j], t_[j]);
        ++counts.atan2_calls;
        if (ang > best_) best_ = ang;
    }

    double r_[kCapacity];
    double d_[kCapacity];
    double t_[kCapacity];
    int n_ = 0;
    double best_ = 0.0;  // horizons below the horizontal do not shade
};

/// One (sector, row) march, fully precomputed: the kernels only run the
/// per-lane x-half of the bilinear sample, the stop check and the
/// ratio-max/candidate logic.
struct HorizonRowArgs {
    const double* grid = nullptr;  ///< DSM heights, row-major.
    int gw = 0;                    ///< Raster width [cells].
    double cs = 0.0;               ///< Cell size [m].
    double width_m = 0.0;          ///< Raster width [m] (gw * cs).
    const double* lx0 = nullptr;   ///< Per-lane local x of cell centers [n].
    const double* h0 = nullptr;    ///< Per-lane observer heights [n].
    int n = 0;                     ///< Lanes (window row width).
    const double* t = nullptr;     ///< Step distances [ksteps].
    const double* xoff = nullptr;  ///< Per-step x offsets [ksteps].
    const std::size_t* row0 = nullptr;  ///< Bilinear top-row offsets [ksteps].
    const std::size_t* row1 = nullptr;  ///< Bilinear bottom-row offsets.
    const double* ty = nullptr;    ///< Bilinear y fractions [ksteps].
    const float* bound = nullptr;  ///< The sector's HorizonBounds table.
    /// Per-step offsets of the bound row: the block row of the corner row
    /// the ray moves away from, times HorizonBounds::width [ksteps].
    const std::size_t* bound_row = nullptr;
    /// Bound column: the block of x1 (x falls), else of x0.
    bool bound_x1 = false;
    int ksteps = 0;                ///< Steps before the shared ly exits.
    double* best = nullptr;        ///< Out: per-lane horizon angle [n].
};

HorizonMarchCounts march_row_scalar(const HorizonRowArgs& a);
HorizonMarchCounts march_row_avx2(const HorizonRowArgs& a);

/// True when the translation unit carrying the AVX2 twin was compiled
/// with real intrinsics (x86-64 + GCC/Clang); otherwise the twin is a
/// stub that delegates to the scalar kernel.
bool horizon_avx2_compiled();

}  // namespace detail

}  // namespace pvfp::geo
