#include "pvfp/solar/irradiance_kernels.hpp"

#include <algorithm>

#include "pvfp/util/simd.hpp"

namespace pvfp::solar::detail {

// Bitwise contract with cell_irradiance_unchecked, which computes
//   g  = (double)reflected;
//   g += svf * (double)sky_diffuse;                    // svf widened
//   if (beam_eq > 0 && elev > 0 && elev >= lerp(a0, a1, frac)) {
//       cosi = ...;                                     // see below
//       if (cosi > 0) g += (double)beam_eq * cosi;
//   }
// so every path below forms ((reflected + svf*sky) + masked_add) with a
// masked_add of exactly +0.0 when the beam is off — adding +0.0 is a
// bitwise no-op for the non-negative g.  The cosi arithmetic matters:
// with per-cell normals it is *float* arithmetic widened at the end
// (float normal components times float sun components, the scalar
// path's expression), with the uniform plane it is double arithmetic.

void cell_row_scalar(const FieldView& f, int y, long s, int x0, int x1,
                     double* out) {
    const std::size_t si = static_cast<std::size_t>(s);
    const double reflected = f.reflected[si];
    const double sky = f.sky_diffuse[si];
    const long ci0 = static_cast<long>(y) * f.width + x0;
    const float* svf = f.svf + ci0;
    const int n = x1 - x0;

    const float elev_f = f.sun_elevation[si];
    if (!(f.beam_eq[si] > 0.0f) || !(static_cast<double>(elev_f) > 0.0)) {
        for (int i = 0; i < n; ++i)
            out[i] = reflected + static_cast<double>(svf[i]) * sky;
        return;
    }

    const double beam = f.beam_eq[si];
    const double elev = elev_f;
    const double frac = f.hor_frac[si];
    const float* a0p = f.angles + f.hor_off0[si] + ci0;
    const float* a1p = f.angles + f.hor_off1[si] + ci0;

    if (f.norm_e != nullptr) {
        const float se = f.sun_e[si];
        const float sn = f.sun_n[si];
        const float su = f.sun_u[si];
        const float* ne = f.norm_e + ci0;
        const float* nn = f.norm_n + ci0;
        const float* nu = f.norm_u + ci0;
        for (int i = 0; i < n; ++i) {
            const double base =
                reflected + static_cast<double>(svf[i]) * sky;
            const double a0 = a0p[i];
            const double a1 = a1p[i];
            const double h = a0 + (a1 - a0) * frac;
            const double cosi = ne[i] * se + nn[i] * sn + nu[i] * su;
            const double add =
                (elev >= h && cosi > 0.0) ? beam * cosi : 0.0;
            out[i] = base + add;
        }
        return;
    }

    // Uniform plane: cosi depends only on the step; hoist it (and the
    // whole beam contribution) out of the cell loop.
    const double cosi = f.plane_e * static_cast<double>(f.sun_e[si]) +
                        f.plane_n * static_cast<double>(f.sun_n[si]) +
                        f.plane_u * static_cast<double>(f.sun_u[si]);
    if (!(cosi > 0.0)) {
        for (int i = 0; i < n; ++i)
            out[i] = reflected + static_cast<double>(svf[i]) * sky;
        return;
    }
    const double add = beam * cosi;
    for (int i = 0; i < n; ++i) {
        const double base = reflected + static_cast<double>(svf[i]) * sky;
        const double a0 = a0p[i];
        const double a1 = a1p[i];
        const double h = a0 + (a1 - a0) * frac;
        out[i] = base + (elev >= h ? add : 0.0);
    }
}

void cell_series_scalar(const FieldView& f, int x, int y, const long* steps,
                        std::size_t n, double* out) {
    const long ci = static_cast<long>(y) * f.width + x;
    const double svf = f.svf[ci];
    const float* angles_cell = f.angles + ci;

    if (f.norm_e != nullptr) {
        const float ne = f.norm_e[ci];
        const float nn = f.norm_n[ci];
        const float nu = f.norm_u[ci];
        for (std::size_t k = 0; k < n; ++k) {
            const std::size_t si = static_cast<std::size_t>(steps[k]);
            const double base =
                static_cast<double>(f.reflected[si]) +
                svf * static_cast<double>(f.sky_diffuse[si]);
            const double elev = f.sun_elevation[si];
            const double a0 = angles_cell[f.hor_off0[si]];
            const double a1 = angles_cell[f.hor_off1[si]];
            const double h = a0 + (a1 - a0) * f.hor_frac[si];
            const double cosi =
                ne * f.sun_e[si] + nn * f.sun_n[si] + nu * f.sun_u[si];
            const bool lit = f.beam_eq[si] > 0.0f && elev > 0.0 &&
                             elev >= h && cosi > 0.0;
            const double add =
                lit ? static_cast<double>(f.beam_eq[si]) * cosi : 0.0;
            out[k] = base + add;
        }
        return;
    }

    for (std::size_t k = 0; k < n; ++k) {
        const std::size_t si = static_cast<std::size_t>(steps[k]);
        const double base = static_cast<double>(f.reflected[si]) +
                            svf * static_cast<double>(f.sky_diffuse[si]);
        const double elev = f.sun_elevation[si];
        const double a0 = angles_cell[f.hor_off0[si]];
        const double a1 = angles_cell[f.hor_off1[si]];
        const double h = a0 + (a1 - a0) * f.hor_frac[si];
        const double cosi =
            f.plane_e * static_cast<double>(f.sun_e[si]) +
            f.plane_n * static_cast<double>(f.sun_n[si]) +
            f.plane_u * static_cast<double>(f.sun_u[si]);
        const bool lit = f.beam_eq[si] > 0.0f && elev > 0.0 && elev >= h &&
                         cosi > 0.0;
        const double add =
            lit ? static_cast<double>(f.beam_eq[si]) * cosi : 0.0;
        out[k] = base + add;
    }
}

void cell_packed_scalar(const FieldView& f, int x, int y, long p0, long p1,
                        double* out) {
    // Unit-stride twin of cell_series_scalar over the packed planes.
    // The packed planes are bitwise copies of the step planes, so
    // computing the identical expression over them reproduces the series
    // kernel (and thus the scalar reference) bit for bit.  The full lit
    // condition stays: a packed step can still have beam_eq == 0 (no
    // beam in the weather series) or a sun at or below the horizon (a
    // sampled night step), and the float-cast sun elevation of a
    // barely-risen sun can round to 0.0f.
    const long ci = static_cast<long>(y) * f.width + x;
    const double svf = f.svf[ci];
    const float* angles_cell = f.angles + ci;
    const std::size_t n = static_cast<std::size_t>(p1 - p0);
    const float* beam_p = f.p_beam_eq + p0;
    const float* sky_p = f.p_sky_diffuse + p0;
    const float* refl_p = f.p_reflected + p0;
    const float* elev_p = f.p_sun_elevation + p0;
    const float* se_p = f.p_sun_e + p0;
    const float* sn_p = f.p_sun_n + p0;
    const float* su_p = f.p_sun_u + p0;
    const std::int32_t* off0_p = f.p_hor_off0 + p0;
    const std::int32_t* off1_p = f.p_hor_off1 + p0;
    const double* frac_p = f.p_hor_frac + p0;

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

namespace {

/// Histogram::bin_index(x) replicated branch-free: clamp the linear
/// index before the int cast (the cast is only defined inside int
/// range; x far past hi must not reach it un-clamped), then apply the
/// two boundary overrides exactly as the branchy original does.  For
/// lo < x < hi the clamped cast equals min((int)((x-lo)/width),
/// bins-1) because truncation is monotone.
inline std::int32_t bin_index_branchfree(double x, const BinAxis& a) {
    const double top = static_cast<double>(a.bins - 1);
    const double v = std::min((x - a.lo) / a.width, top);
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
