/// \file horizon_kernels_avx2.cpp
/// Hand-written AVX2 twin of the batched horizon row marcher — the only
/// intrinsics twin of the march, run at both the avx2 and the avx512
/// level.  Compiled with a per-function target("avx2") attribute so the
/// library binary stays portable; only ever called after runtime
/// dispatch (util/simd) has confirmed CPU support.
///
/// Bitwise contract: four window cells march in double lanes with the
/// exact scalar operation sequence — the add for lx, the divide/clamp/
/// trunc of the bilinear x half, mul+add lerps (never FMA), the ratio
/// divide — and the rare atan2 evaluations drop to scalar libm on the
/// lanes whose ratio reaches the running max, preserving the per-cell
/// marcher's running-max semantics exactly (see horizon_kernels.hpp).

#include "pvfp/geo/horizon_kernels.hpp"

#if (defined(__x86_64__) || defined(__amd64__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define PVFP_HORIZON_AVX2 1
#include <immintrin.h>

#include <cmath>
#else
#define PVFP_HORIZON_AVX2 0
#endif

namespace pvfp::geo::detail {

bool horizon_avx2_compiled() { return PVFP_HORIZON_AVX2 != 0; }

#if PVFP_HORIZON_AVX2

__attribute__((target("avx2"))) void march_row_avx2(
    const HorizonRowArgs& a) {
    const __m256d zero = _mm256_setzero_pd();
    const __m256d half = _mm256_set1_pd(0.5);
    const __m256d cs_v = _mm256_set1_pd(a.cs);
    const __m256d wm_v = _mm256_set1_pd(a.width_m);
    const __m256d wm1_v = _mm256_set1_pd(static_cast<double>(a.gw - 1));
    const __m256d band_v = _mm256_set1_pd(1.0 - 1e-9);
    const __m128i wm1_i = _mm_set1_epi32(a.gw - 1);
    const __m128i one_i = _mm_set1_epi32(1);

    int i = 0;
    for (; i + 4 <= a.n; i += 4) {
        const __m256d lx0_v = _mm256_loadu_pd(a.lx0 + i);
        const __m256d h0_v = _mm256_loadu_pd(a.h0 + i);
        __m256d rmax_v = zero;
        // All-ones compare mask: lanes deactivate permanently once their
        // lx leaves the raster (lx is monotone in k).
        __m256d active = _mm256_cmp_pd(zero, zero, _CMP_EQ_OQ);
        a.best[i] = 0.0;
        a.best[i + 1] = 0.0;
        a.best[i + 2] = 0.0;
        a.best[i + 3] = 0.0;
        for (int k = 0; k < a.ksteps; ++k) {
            const __m256d lx =
                _mm256_add_pd(lx0_v, _mm256_set1_pd(a.xoff[k]));
            const __m256d inb =
                _mm256_and_pd(_mm256_cmp_pd(lx, zero, _CMP_GE_OQ),
                              _mm256_cmp_pd(lx, wm_v, _CMP_LT_OQ));
            active = _mm256_and_pd(active, inb);
            if (_mm256_movemask_pd(active) == 0) break;

            // Bilinear x half; inactive lanes clamp into the raster, so
            // their gathers stay in bounds and their results are masked
            // off below.
            const __m256d cx =
                _mm256_sub_pd(_mm256_div_pd(lx, cs_v), half);
            const __m256d fx =
                _mm256_min_pd(_mm256_max_pd(cx, zero), wm1_v);
            __m128i x0 = _mm256_cvttpd_epi32(fx);
            x0 = _mm_min_epi32(x0, wm1_i);
            const __m128i x1 =
                _mm_min_epi32(_mm_add_epi32(x0, one_i), wm1_i);
            const __m256d tx =
                _mm256_sub_pd(fx, _mm256_cvtepi32_pd(x0));
            const double* r0 = a.grid + a.row0[k];
            const double* r1 = a.grid + a.row1[k];
            const __m256d g00 = _mm256_i32gather_pd(r0, x0, 8);
            const __m256d g10 = _mm256_i32gather_pd(r0, x1, 8);
            const __m256d g01 = _mm256_i32gather_pd(r1, x0, 8);
            const __m256d g11 = _mm256_i32gather_pd(r1, x1, 8);
            const __m256d top = _mm256_add_pd(
                g00, _mm256_mul_pd(_mm256_sub_pd(g10, g00), tx));
            const __m256d bot = _mm256_add_pd(
                g01, _mm256_mul_pd(_mm256_sub_pd(g11, g01), tx));
            const __m256d h = _mm256_add_pd(
                top, _mm256_mul_pd(_mm256_sub_pd(bot, top),
                                   _mm256_set1_pd(a.ty[k])));

            const __m256d d = _mm256_sub_pd(h, h0_v);
            const __m256d pos = _mm256_and_pd(
                active, _mm256_cmp_pd(d, zero, _CMP_GT_OQ));
            if (_mm256_movemask_pd(pos) == 0) continue;
            const __m256d r =
                _mm256_div_pd(d, _mm256_set1_pd(a.t[k]));
            const __m256d guard = _mm256_and_pd(
                pos, _mm256_cmp_pd(r, _mm256_mul_pd(rmax_v, band_v),
                                   _CMP_GE_OQ));
            const int gm = _mm256_movemask_pd(guard);
            if (gm != 0) {
                alignas(32) double dd[4];
                _mm256_store_pd(dd, d);
                for (int lane = 0; lane < 4; ++lane) {
                    if ((gm & (1 << lane)) == 0) continue;
                    const double ang = std::atan2(dd[lane], a.t[k]);
                    if (ang > a.best[i + lane]) a.best[i + lane] = ang;
                }
            }
            // Positive lanes fold their (positive) ratio into the max;
            // masked lanes contribute +0.0, a no-op against rmax >= 0.
            rmax_v = _mm256_max_pd(rmax_v, _mm256_and_pd(pos, r));
        }
    }
    if (i < a.n) {
        HorizonRowArgs tail = a;
        tail.lx0 = a.lx0 + i;
        tail.h0 = a.h0 + i;
        tail.best = a.best + i;
        tail.n = a.n - i;
        march_row_scalar(tail);
    }
}

#else  // !PVFP_HORIZON_AVX2

void march_row_avx2(const HorizonRowArgs& a) { march_row_scalar(a); }

#endif  // PVFP_HORIZON_AVX2

}  // namespace pvfp::geo::detail
