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
/// The batched engine hoists all of that:
///
///   * HorizonSchedule precomputes the t_k sequence and, per sector, the
///     rounded offsets fl(t_k * dirx) / fl(t_k * diry) once per build;
///   * horizon_row_batched precomputes the shared y-interpolation plan
///     (source row offsets + y-fraction) once per (sector, row);
///   * the row kernels keep only the per-lane x-half of the bilinear
///     sample plus a running max of the elevation *ratio* per lane, and
///     defer atan2 to the rare steps whose ratio reaches the running max
///     (a 1e-9 relative guard band keeps every step that could win under
///     rounding) — O(log steps) libm calls per (cell, sector) instead of
///     O(steps);
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
/// never FMA; the build sets -ffp-contract=off) and the running max of
/// atan2 evaluations provably equals the per-step running max.
/// tests/geo/test_horizon_kernels pins this differentially.

#include <cstddef>
#include <vector>

#include "pvfp/geo/horizon.hpp"
#include "pvfp/geo/raster.hpp"

namespace pvfp::geo {

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
};

/// Build the schedule for \p options over a raster with \p cell_size.
/// Preconditions mirror the HorizonMap ctor (validated there).
HorizonSchedule make_horizon_schedule(const HorizonOptions& options,
                                      double cell_size);

/// March one window row (cells (x0..x0+win_w-1, y) of \p dsm) through all
/// sectors of \p sched and write the results:
///   angles_row[s*plane_stride + i] = float horizon angle of cell i in
///   sector s; svf_row[i] = float sky-view factor.
/// Dispatches on pvfp::simd_level(); every level is bitwise-identical to
/// the per-cell oracle.
void horizon_row_batched(const Raster& dsm, int x0, int y, int win_w,
                         const HorizonSchedule& sched, double observer_offset,
                         float* angles_row, std::size_t plane_stride,
                         float* svf_row);

namespace detail {

/// One (sector, row) march, fully precomputed: the kernels only run the
/// per-lane x-half of the bilinear sample and the ratio-max/atan2 logic.
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
    int ksteps = 0;                ///< Steps before the shared ly exits.
    double* best = nullptr;        ///< Out: per-lane horizon angle [n].
};

void march_row_scalar(const HorizonRowArgs& a);
void march_row_avx2(const HorizonRowArgs& a);

/// True when the translation unit carrying the AVX2 twin was compiled
/// with real intrinsics (x86-64 + GCC/Clang); otherwise the twin is a
/// stub that delegates to the scalar kernel.
bool horizon_avx2_compiled();

}  // namespace detail

}  // namespace pvfp::geo
