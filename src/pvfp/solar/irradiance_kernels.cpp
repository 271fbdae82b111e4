#include "pvfp/solar/irradiance_kernels.hpp"

#include <algorithm>
#include <limits>

#include "pvfp/util/simd.hpp"

namespace pvfp::solar::detail {

// Bitwise contract with cell_irradiance_unchecked, which computes
//   g  = (double)reflected;
//   g += svf * (double)sky_diffuse;                    // svf widened
//   if (beam_eq > 0 && elev > 0 && elev >= lerp(a0, a1, frac)) {
//       cosi = ...;                                     // see below
//       if (cosi > 0) g += (double)beam_eq * cosi;
//   }
// so the kernel below forms ((reflected + svf*sky) + masked_add) with a
// masked_add of exactly +0.0 when the beam is off — adding +0.0 is a
// bitwise no-op for the non-negative g.  The cosi arithmetic matters:
// with per-cell normals it is *float* arithmetic widened at the end
// (float normal components times float sun components, the scalar
// path's expression), with the uniform plane it is double arithmetic.

namespace {

/// out[k] = G(cell ci, packed entry p0 + k) for k in [0, n): the
/// unit-stride sweep of one cell over the packed planes, which are
/// bitwise copies of the step planes, so the expression below
/// reproduces the scalar reference bit for bit.  The full lit condition
/// stays: a packed step can still have beam_eq == 0 (no beam in the
/// weather series) or a sun at or below the horizon (a sampled night
/// step), and the float-cast sun elevation of a barely-risen sun can
/// round to 0.0f.
void cell_run_scalar(const FieldView& f, long ci, long p0, std::size_t n,
                     double* out) {
    const double svf = f.svf[ci];
    const float* angles_cell = f.angles + ci;
    const float* beam_p = f.beam_eq + p0;
    const float* sky_p = f.sky_diffuse + p0;
    const float* refl_p = f.reflected + p0;
    const float* elev_p = f.sun_elevation + p0;
    const float* se_p = f.sun_e + p0;
    const float* sn_p = f.sun_n + p0;
    const float* su_p = f.sun_u + p0;
    const std::int32_t* off0_p = f.hor_off0 + p0;
    const std::int32_t* off1_p = f.hor_off1 + p0;
    const double* frac_p = f.hor_frac + p0;

    if (f.norm_e != nullptr) {
        const float ne = f.norm_e[ci];
        const float nn = f.norm_n[ci];
        const float nu = f.norm_u[ci];
        for (std::size_t k = 0; k < n; ++k) {
            const double base = static_cast<double>(refl_p[k]) +
                                svf * static_cast<double>(sky_p[k]);
            const double elev = elev_p[k];
            const double a0 = angles_cell[off0_p[k]];
            const double a1 = angles_cell[off1_p[k]];
            const double h = a0 + (a1 - a0) * frac_p[k];
            const double cosi =
                ne * se_p[k] + nn * sn_p[k] + nu * su_p[k];
            const bool lit = beam_p[k] > 0.0f && elev > 0.0 && elev >= h &&
                             cosi > 0.0;
            const double add =
                lit ? static_cast<double>(beam_p[k]) * cosi : 0.0;
            out[k] = base + add;
        }
        return;
    }

    for (std::size_t k = 0; k < n; ++k) {
        const double base = static_cast<double>(refl_p[k]) +
                            svf * static_cast<double>(sky_p[k]);
        const double elev = elev_p[k];
        const double a0 = angles_cell[off0_p[k]];
        const double a1 = angles_cell[off1_p[k]];
        const double h = a0 + (a1 - a0) * frac_p[k];
        const double cosi = f.plane_e * static_cast<double>(se_p[k]) +
                            f.plane_n * static_cast<double>(sn_p[k]) +
                            f.plane_u * static_cast<double>(su_p[k]);
        const bool lit =
            beam_p[k] > 0.0f && elev > 0.0 && elev >= h && cosi > 0.0;
        const double add =
            lit ? static_cast<double>(beam_p[k]) * cosi : 0.0;
        out[k] = base + add;
    }
}

}  // namespace

void footprint_packed_scalar(const FieldView& f, int x, int y, int k1,
                             int k2, ModuleIrradiance mode, long p0, long p1,
                             double* out) {
    const long ci0 = static_cast<long>(y) * f.width + x;
    if (mode == ModuleIrradiance::AnchorCell) {
        cell_run_scalar(f, ci0, p0, static_cast<std::size_t>(p1 - p0), out);
        return;
    }
    // Per-cell composition over blocks of steps small enough to stay in
    // L1: each footprint cell sweeps the block into a stack buffer that
    // folds into the output block in (yy, xx) order — per step exactly
    // the additions / mins of the scalar fold.
    constexpr long kBlock = 64;
    double cell[kBlock];
    const bool worst = mode == ModuleIrradiance::WorstCell;
    const double count = static_cast<double>(k1 * k2);
    for (long b = p0; b < p1; b += kBlock) {
        const std::size_t n = static_cast<std::size_t>(std::min(kBlock,
                                                                p1 - b));
        double* const acc = out + (b - p0);
        std::fill(acc, acc + n,
                  worst ? std::numeric_limits<double>::infinity() : 0.0);
        for (int yy = 0; yy < k2; ++yy)
            for (int xx = 0; xx < k1; ++xx) {
                cell_run_scalar(f, ci0 + static_cast<long>(yy) * f.width + xx,
                                b, n, cell);
                if (worst) {
                    for (std::size_t k = 0; k < n; ++k)
                        acc[k] = std::min(acc[k], cell[k]);
                } else {
                    for (std::size_t k = 0; k < n; ++k) acc[k] += cell[k];
                }
            }
        if (!worst)
            for (std::size_t k = 0; k < n; ++k) acc[k] /= count;
    }
}

namespace {

/// Histogram::bin_index(x) replicated branch-free: clamp the linear
/// index before the int cast (the cast is only defined inside int
/// range; x far past hi must not reach it un-clamped), then apply the
/// two boundary overrides exactly as the branchy original does.  For
/// lo < x < hi the clamped cast equals min((int)((x-lo)/width),
/// bins-1) because truncation is monotone.  A NaN fails every compare
/// and lands in the top bin, as in the AVX-512 twin.
inline std::int32_t bin_index_branchfree(double x, const BinAxis& a) {
    const double top = static_cast<double>(a.bins - 1);
    const double q = (x - a.lo) / a.width;
    const double v = q < top ? q : top;
    std::int32_t i = static_cast<std::int32_t>(std::max(v, 0.0));
    if (x <= a.lo) i = 0;
    if (x >= a.hi) i = a.bins - 1;
    return i;
}

}  // namespace

void bin_series_scalar(const double* g, std::size_t n, const double* t_air,
                       double k_th, const BinAxis& ga, const BinAxis& ta,
                       std::int32_t* g_bins, std::int32_t* t_bins) {
    for (std::size_t k = 0; k < n; ++k) {
        g_bins[k] = bin_index_branchfree(g[k], ga);
        const double t = t_air[k] + k_th * g[k];
        t_bins[k] = bin_index_branchfree(t, ta);
    }
}

void bin_series(const double* g, std::size_t n, const double* t_air,
                double k_th, const BinAxis& ga, const BinAxis& ta,
                std::int32_t* g_bins, std::int32_t* t_bins) {
    if (simd_level() == SimdLevel::Avx512 && avx512_kernels_compiled())
        bin_series_avx512(g, n, t_air, k_th, ga, ta, g_bins, t_bins);
    else
        bin_series_scalar(g, n, t_air, k_th, ga, ta, g_bins, t_bins);
}

}  // namespace pvfp::solar::detail
