/// \file irradiance_avx512.cpp
/// Hand-written AVX-512 twins of the scalar packed irradiance kernel and
/// the suitability binning, compiled
/// with per-function target("avx512f,avx512vl") so the binary stays
/// portable; runtime dispatch (util/simd.hpp) only routes here after
/// cpu_supports_avx512() has confirmed both subsets.
///
/// Eight double lanes per iteration, and masked loads/stores on the
/// final partial vector, so there is *no scalar tail loop* — short
/// packed runs (the tails of sparse evaluator shards) run entirely in
/// vector code.  This is the only intrinsics twin of the irradiance
/// kernel; the avx2 level runs the scalar loops.
///
/// Bitwise contract: elementwise mul/add/sub only — never FMA — in
/// exactly the scalar kernel's association.  The masked beam term uses
/// _mm512_maskz_mul_pd (a +0.0 in dark lanes), which matches the scalar
/// `? : 0.0` because the base term is always >= +0.0, so base + (+0.0)
/// is a bitwise no-op.  Per-cell-normal cosi stays in float lanes and
/// widens after; uniform-plane cosi runs in double lanes.  Masked-off
/// gather lanes use index 0 (never read); masked-off load lanes read as
/// 0.0 and their results are never stored.

#include "pvfp/solar/irradiance_kernels.hpp"

#if (defined(__x86_64__) || defined(__amd64__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define PVFP_AVX512_KERNELS 1
#include <immintrin.h>
#else
#define PVFP_AVX512_KERNELS 0
#endif

namespace pvfp::solar::detail {

bool avx512_kernels_compiled() { return PVFP_AVX512_KERNELS != 0; }

#if PVFP_AVX512_KERNELS

#define PVFP_AVX512 __attribute__((target("avx512f,avx512vl")))

namespace {

/// Mask with the low min(rem, 8) bits set: all-on for full vectors,
/// the partial tail mask otherwise.
inline __mmask8 tail_mask(std::size_t rem) {
    return rem >= 8 ? static_cast<__mmask8>(0xFF)
                    : static_cast<__mmask8>((1u << rem) - 1u);
}

/// Masked load of 8 floats widened to 8 doubles (masked lanes 0.0).
PVFP_AVX512 inline __m512d load8_ps_pd(__mmask8 m, const float* p) {
    return _mm512_cvtps_pd(_mm256_maskz_loadu_ps(m, p));
}

}  // namespace

PVFP_AVX512 void cell_packed_avx512(const FieldView& f, int x, int y,
                                    long p0, long p1, double* out) {
    // Contiguous masked loads everywhere except the per-cell horizon
    // angle lookups, which stay (masked) gathers by sector offset.
    const long ci = static_cast<long>(y) * f.width + x;
    const float* angles_cell = f.angles + ci;
    const __m512d svf_v = _mm512_set1_pd(f.svf[ci]);
    const __m512d zero = _mm512_setzero_pd();
    const __m256 zero_ps = _mm256_setzero_ps();
    const std::size_t n = static_cast<std::size_t>(p1 - p0);
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

    const bool uniform = f.norm_e == nullptr;
    __m256 ne_v{}, nn_v{}, nu_v{};
    __m512d pe_v{}, pn_v{}, pu_v{};
    if (uniform) {
        pe_v = _mm512_set1_pd(f.plane_e);
        pn_v = _mm512_set1_pd(f.plane_n);
        pu_v = _mm512_set1_pd(f.plane_u);
    } else {
        ne_v = _mm256_set1_ps(f.norm_e[ci]);
        nn_v = _mm256_set1_ps(f.norm_n[ci]);
        nu_v = _mm256_set1_ps(f.norm_u[ci]);
    }

    for (std::size_t k = 0; k < n; k += 8) {
        const __mmask8 m = tail_mask(n - k);
        const __m512d refl = load8_ps_pd(m, refl_p + k);
        const __m512d sky = load8_ps_pd(m, sky_p + k);
        const __m512d base =
            _mm512_add_pd(refl, _mm512_mul_pd(svf_v, sky));

        const __m512d beam = load8_ps_pd(m, beam_p + k);
        const __m512d elev = load8_ps_pd(m, elev_p + k);
        const __m512d frac = _mm512_maskz_loadu_pd(m, frac_p + k);
        const __m256i off0 = _mm256_maskz_loadu_epi32(m, off0_p + k);
        const __m256i off1 = _mm256_maskz_loadu_epi32(m, off1_p + k);
        const __m512d a0 = _mm512_cvtps_pd(
            _mm256_mmask_i32gather_ps(zero_ps, m, off0, angles_cell, 4));
        const __m512d a1 = _mm512_cvtps_pd(
            _mm256_mmask_i32gather_ps(zero_ps, m, off1, angles_cell, 4));
        const __m512d h = _mm512_add_pd(
            a0, _mm512_mul_pd(_mm512_sub_pd(a1, a0), frac));

        const __m256 se_ps = _mm256_maskz_loadu_ps(m, se_p + k);
        const __m256 sn_ps = _mm256_maskz_loadu_ps(m, sn_p + k);
        const __m256 su_ps = _mm256_maskz_loadu_ps(m, su_p + k);
        __m512d cosi;
        if (uniform) {
            cosi = _mm512_add_pd(
                _mm512_add_pd(
                    _mm512_mul_pd(pe_v, _mm512_cvtps_pd(se_ps)),
                    _mm512_mul_pd(pn_v, _mm512_cvtps_pd(sn_ps))),
                _mm512_mul_pd(pu_v, _mm512_cvtps_pd(su_ps)));
        } else {
            const __m256 cosi_ps = _mm256_add_ps(
                _mm256_add_ps(_mm256_mul_ps(ne_v, se_ps),
                              _mm256_mul_ps(nn_v, sn_ps)),
                _mm256_mul_ps(nu_v, su_ps));
            cosi = _mm512_cvtps_pd(cosi_ps);
        }

        const __mmask8 lit = static_cast<__mmask8>(
            _mm512_cmp_pd_mask(beam, zero, _CMP_GT_OQ) &
            _mm512_cmp_pd_mask(elev, zero, _CMP_GT_OQ) &
            _mm512_cmp_pd_mask(elev, h, _CMP_GE_OQ) &
            _mm512_cmp_pd_mask(cosi, zero, _CMP_GT_OQ));
        const __m512d add = _mm512_maskz_mul_pd(lit, beam, cosi);
        _mm512_mask_storeu_pd(out + k, m, _mm512_add_pd(base, add));
    }
}

PVFP_AVX512 void bin_series_avx512(const double* g, std::size_t n,
                                   const double* t_air, double k_th,
                                   const BinAxis& ga, const BinAxis& ta,
                                   std::int32_t* g_bins,
                                   std::int32_t* t_bins) {
    // Vector twin of bin_series_scalar: same clamp-then-truncate with
    // the same boundary overrides (division is IEEE-exact, truncation
    // matches the scalar int cast), so indices — integers — agree
    // exactly.
    const __m512d g_lo = _mm512_set1_pd(ga.lo);
    const __m512d g_hi = _mm512_set1_pd(ga.hi);
    const __m512d g_w = _mm512_set1_pd(ga.width);
    const __m512d g_top = _mm512_set1_pd(static_cast<double>(ga.bins - 1));
    const __m256i g_last = _mm256_set1_epi32(ga.bins - 1);
    const __m512d t_lo = _mm512_set1_pd(ta.lo);
    const __m512d t_hi = _mm512_set1_pd(ta.hi);
    const __m512d t_w = _mm512_set1_pd(ta.width);
    const __m512d t_top = _mm512_set1_pd(static_cast<double>(ta.bins - 1));
    const __m256i t_last = _mm256_set1_epi32(ta.bins - 1);
    const __m512d kth_v = _mm512_set1_pd(k_th);
    const __m512d zero = _mm512_setzero_pd();
    const __m256i zero_i = _mm256_setzero_si256();

    for (std::size_t k = 0; k < n; k += 8) {
        const __mmask8 m = tail_mask(n - k);
        const __m512d gv = _mm512_maskz_loadu_pd(m, g + k);

        __m512d v = _mm512_div_pd(_mm512_sub_pd(gv, g_lo), g_w);
        v = _mm512_max_pd(_mm512_min_pd(v, g_top), zero);
        __m256i gi = _mm512_cvttpd_epi32(v);
        gi = _mm256_mask_mov_epi32(
            gi, _mm512_cmp_pd_mask(gv, g_lo, _CMP_LE_OQ), zero_i);
        gi = _mm256_mask_mov_epi32(
            gi, _mm512_cmp_pd_mask(gv, g_hi, _CMP_GE_OQ), g_last);
        _mm256_mask_storeu_epi32(g_bins + k, m, gi);

        const __m512d ta_v = _mm512_maskz_loadu_pd(m, t_air + k);
        const __m512d tv =
            _mm512_add_pd(ta_v, _mm512_mul_pd(kth_v, gv));
        v = _mm512_div_pd(_mm512_sub_pd(tv, t_lo), t_w);
        v = _mm512_max_pd(_mm512_min_pd(v, t_top), zero);
        __m256i ti = _mm512_cvttpd_epi32(v);
        ti = _mm256_mask_mov_epi32(
            ti, _mm512_cmp_pd_mask(tv, t_lo, _CMP_LE_OQ), zero_i);
        ti = _mm256_mask_mov_epi32(
            ti, _mm512_cmp_pd_mask(tv, t_hi, _CMP_GE_OQ), t_last);
        _mm256_mask_storeu_epi32(t_bins + k, m, ti);
    }
}

#undef PVFP_AVX512

#else  // !PVFP_AVX512_KERNELS

void cell_packed_avx512(const FieldView& f, int x, int y, long p0, long p1,
                        double* out) {
    cell_packed_scalar(f, x, y, p0, p1, out);
}

void bin_series_avx512(const double* g, std::size_t n, const double* t_air,
                       double k_th, const BinAxis& ga, const BinAxis& ta,
                       std::int32_t* g_bins, std::int32_t* t_bins) {
    bin_series_scalar(g, n, t_air, k_th, ga, ta, g_bins, t_bins);
}

#endif  // PVFP_AVX512_KERNELS

}  // namespace pvfp::solar::detail
