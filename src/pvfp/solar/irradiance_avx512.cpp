/// \file irradiance_avx512.cpp
/// Hand-written AVX-512 twins of the scalar footprint irradiance kernel
/// and the suitability binning, compiled
/// with per-function target("avx512f,avx512vl") so the binary stays
/// portable; runtime dispatch (util/simd.hpp) only routes here after
/// cpu_supports_avx512() has confirmed both subsets.
///
/// Eight double lanes per iteration, and masked loads/stores on the
/// final partial vector, so there is *no scalar tail loop* — short
/// packed runs (the tails of sparse evaluator shards) run entirely in
/// vector code.  This is the only intrinsics twin of the irradiance
/// kernel; the avx2 level runs the scalar loops.  The footprint twin
/// folds a module's cells in a register accumulator, so each step plane
/// is loaded once per 8-step vector however many cells the footprint
/// has.
///
/// Bitwise contract: elementwise mul/add/sub only — never FMA — in
/// exactly the scalar kernel's association.  The masked beam term is a
/// +0.0 in dark lanes (_mm512_maskz_mul_pd, or _mm512_maskz_mov_pd of the
/// cell-independent uniform-plane beam*cosi), which matches the scalar
/// `? : 0.0` because the base term is always >= +0.0 (or NaN), so
/// base + (+0.0) is a bitwise no-op.  Per-cell-normal cosi stays in
/// float lanes and widens after; uniform-plane cosi runs in double
/// lanes.  Masked-off
/// gather lanes use index 0 (never read); masked-off load lanes read as
/// 0.0 and their results are never stored.

#include "pvfp/solar/irradiance_kernels.hpp"

#include <limits>

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

/// 8 floats widened to 8 doubles, masked lanes 0.0.  (The zero-masked
/// form also keeps GCC 12 from flagging the unmasked intrinsic's
/// deliberately undefined source operand as maybe-uninitialized.)
PVFP_AVX512 inline __m512d widen(__mmask8 m, __m256 v) {
    return _mm512_maskz_cvtps_pd(m, v);
}

/// Masked load of 8 floats widened to 8 doubles (masked lanes 0.0).
PVFP_AVX512 inline __m512d load8_ps_pd(__mmask8 m, const float* p) {
    return widen(m, _mm256_maskz_loadu_ps(m, p));
}

/// The footprint kernel for one fold mode and one normal source, both
/// fixed at compile time so the per-cell loop carries no branch and the
/// 1-cell AnchorCell sweep (suitability's) keeps its cell terms hoisted.
///
/// Contiguous masked loads of every step plane once per 8-step vector;
/// per footprint cell only the sky-view factor, the two (masked)
/// horizon-angle gathers by sector offset and, with per-cell normals, the
/// normal vary.  The cells fold into a register accumulator in (yy, xx)
/// order: FootprintMean adds from +0.0 and divides by the cell count,
/// WorstCell takes vminpd(cell, acc) — (cell < acc) ? cell : acc,
/// std::min(acc, cell) lane by lane for NaN and signed zeros alike —
/// from +Inf, AnchorCell keeps the anchor cell's G.
template <ModuleIrradiance kMode, bool kUniform>
PVFP_AVX512 void footprint_fold(const FieldView& f, long ci0, int k1, int k2,
                                long p0, long p1, double* out) {
    constexpr bool kAnchor = kMode == ModuleIrradiance::AnchorCell;
    const int rows = kAnchor ? 1 : k2;
    const int cols = kAnchor ? 1 : k1;
    const __m512d zero = _mm512_setzero_pd();
    const __m256 zero_ps = _mm256_setzero_ps();
    const __m512d acc0 =
        kMode == ModuleIrradiance::WorstCell
            ? _mm512_set1_pd(std::numeric_limits<double>::infinity())
            : zero;
    const __m512d count_v = _mm512_set1_pd(static_cast<double>(k1 * k2));
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
    // Cell planes in locals: the masked stores below may alias anything,
    // so values read through `f` inside the loop would be reloaded every
    // vector.  The 1-cell sweep keeps its cell terms in registers.
    const float* const angles = f.angles;
    const float* const svf = f.svf;
    const float* const norm_e = f.norm_e;
    const float* const norm_n = f.norm_n;
    const float* const norm_u = f.norm_u;
    const long width = f.width;
    const __m512d plane_e = _mm512_set1_pd(f.plane_e);
    const __m512d plane_n = _mm512_set1_pd(f.plane_n);
    const __m512d plane_u = _mm512_set1_pd(f.plane_u);
    const __m512d anchor_svf = _mm512_set1_pd(svf[ci0]);
    __m256 anchor_ne = _mm256_setzero_ps();
    __m256 anchor_nn = anchor_ne;
    __m256 anchor_nu = anchor_ne;
    if constexpr (!kUniform) {
        anchor_ne = _mm256_set1_ps(norm_e[ci0]);
        anchor_nn = _mm256_set1_ps(norm_n[ci0]);
        anchor_nu = _mm256_set1_ps(norm_u[ci0]);
    }

    for (std::size_t k = 0; k < n; k += 8) {
        const __mmask8 m = tail_mask(n - k);
        const __m512d refl = load8_ps_pd(m, refl_p + k);
        const __m512d sky = load8_ps_pd(m, sky_p + k);
        const __m512d beam = load8_ps_pd(m, beam_p + k);
        const __m512d elev = load8_ps_pd(m, elev_p + k);
        const __m512d frac = _mm512_maskz_loadu_pd(m, frac_p + k);
        const __m256i off0 = _mm256_maskz_loadu_epi32(m, off0_p + k);
        const __m256i off1 = _mm256_maskz_loadu_epi32(m, off1_p + k);
        const __m256 se_ps = _mm256_maskz_loadu_ps(m, se_p + k);
        const __m256 sn_ps = _mm256_maskz_loadu_ps(m, sn_p + k);
        const __m256 su_ps = _mm256_maskz_loadu_ps(m, su_p + k);
        __mmask8 sun_up = static_cast<__mmask8>(
            _mm512_cmp_pd_mask(beam, zero, _CMP_GT_OQ) &
            _mm512_cmp_pd_mask(elev, zero, _CMP_GT_OQ));
        // Uniform plane: cosi and the beam term are the same for every
        // cell, so the lit mask only waits for the horizon compare.
        __m512d plane_beam = zero;
        if constexpr (kUniform) {
            const __m512d cosi = _mm512_add_pd(
                _mm512_add_pd(_mm512_mul_pd(plane_e, widen(m, se_ps)),
                              _mm512_mul_pd(plane_n, widen(m, sn_ps))),
                _mm512_mul_pd(plane_u, widen(m, su_ps)));
            sun_up = static_cast<__mmask8>(
                sun_up & _mm512_cmp_pd_mask(cosi, zero, _CMP_GT_OQ));
            plane_beam = _mm512_mul_pd(beam, cosi);
        }

        __m512d acc = acc0;
        for (int yy = 0; yy < rows; ++yy)
            for (int xx = 0; xx < cols; ++xx) {
                const long ci = ci0 + yy * width + xx;
                const float* angles_cell = angles + ci;
                const __m512d svf_v =
                    kAnchor ? anchor_svf : _mm512_set1_pd(svf[ci]);
                const __m512d base =
                    _mm512_add_pd(refl, _mm512_mul_pd(svf_v, sky));
                const __m512d a0 = widen(m, _mm256_mmask_i32gather_ps(
                    zero_ps, m, off0, angles_cell, 4));
                const __m512d a1 = widen(m, _mm256_mmask_i32gather_ps(
                    zero_ps, m, off1, angles_cell, 4));
                const __m512d h = _mm512_add_pd(
                    a0, _mm512_mul_pd(_mm512_sub_pd(a1, a0), frac));
                const __mmask8 lit = static_cast<__mmask8>(
                    sun_up & _mm512_cmp_pd_mask(elev, h, _CMP_GE_OQ));
                __m512d add;
                if constexpr (kUniform) {
                    add = _mm512_maskz_mov_pd(lit, plane_beam);
                } else {
                    const __m256 ne =
                        kAnchor ? anchor_ne : _mm256_set1_ps(norm_e[ci]);
                    const __m256 nn =
                        kAnchor ? anchor_nn : _mm256_set1_ps(norm_n[ci]);
                    const __m256 nu =
                        kAnchor ? anchor_nu : _mm256_set1_ps(norm_u[ci]);
                    const __m256 cosi_ps = _mm256_add_ps(
                        _mm256_add_ps(_mm256_mul_ps(ne, se_ps),
                                      _mm256_mul_ps(nn, sn_ps)),
                        _mm256_mul_ps(nu, su_ps));
                    const __m512d cosi = widen(m, cosi_ps);
                    add = _mm512_maskz_mul_pd(
                        static_cast<__mmask8>(
                            lit & _mm512_cmp_pd_mask(cosi, zero, _CMP_GT_OQ)),
                        beam, cosi);
                }
                const __m512d g = _mm512_add_pd(base, add);
                if constexpr (kAnchor)
                    acc = g;
                else if constexpr (kMode == ModuleIrradiance::WorstCell)
                    acc = _mm512_mask_min_pd(acc, m, g, acc);
                else
                    acc = _mm512_add_pd(acc, g);
            }
        if constexpr (kMode == ModuleIrradiance::FootprintMean)
            acc = _mm512_div_pd(acc, count_v);
        _mm512_mask_storeu_pd(out + k, m, acc);
    }
}

template <ModuleIrradiance kMode>
PVFP_AVX512 void footprint_fold(const FieldView& f, long ci0, int k1, int k2,
                                long p0, long p1, double* out) {
    if (f.norm_e == nullptr)
        footprint_fold<kMode, true>(f, ci0, k1, k2, p0, p1, out);
    else
        footprint_fold<kMode, false>(f, ci0, k1, k2, p0, p1, out);
}

}  // namespace

PVFP_AVX512 void footprint_packed_avx512(const FieldView& f, int x, int y,
                                         int k1, int k2,
                                         ModuleIrradiance mode, long p0,
                                         long p1, double* out) {
    const long ci0 = static_cast<long>(y) * f.width + x;
    switch (mode) {
        case ModuleIrradiance::FootprintMean:
            footprint_fold<ModuleIrradiance::FootprintMean>(f, ci0, k1, k2,
                                                            p0, p1, out);
            return;
        case ModuleIrradiance::WorstCell:
            footprint_fold<ModuleIrradiance::WorstCell>(f, ci0, k1, k2, p0,
                                                        p1, out);
            return;
        case ModuleIrradiance::AnchorCell:
            footprint_fold<ModuleIrradiance::AnchorCell>(f, ci0, k1, k2, p0,
                                                         p1, out);
            return;
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

void footprint_packed_avx512(const FieldView& f, int x, int y, int k1,
                             int k2, ModuleIrradiance mode, long p0, long p1,
                             double* out) {
    footprint_packed_scalar(f, x, y, k1, k2, mode, p0, p1, out);
}

void bin_series_avx512(const double* g, std::size_t n, const double* t_air,
                       double k_th, const BinAxis& ga, const BinAxis& ta,
                       std::int32_t* g_bins, std::int32_t* t_bins) {
    bin_series_scalar(g, n, t_air, k_th, ga, ta, g_bins, t_bins);
}

#endif  // PVFP_AVX512_KERNELS

}  // namespace pvfp::solar::detail
