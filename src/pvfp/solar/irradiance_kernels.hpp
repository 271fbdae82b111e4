#pragma once
/// \file irradiance_kernels.hpp
/// Internal batched irradiance kernels over a FieldView (SoA planes).
///
/// Three shapes, each a scalar kernel plus one AVX-512 twin:
///  - row kernel:    fixed step, contiguous span of cells in one row;
///  - series kernel: fixed cell, arbitrary span of steps (gathers);
///  - packed kernel: fixed cell, contiguous run of a StepPack (unit-stride
///    loads over the packed planes — the gather-free sweep of
///    compute_suitability's sampled axis, and of cell_irradiance_series
///    on stride-1 daylight runs).
///
/// The scalar implementations are branch-free inner loops (horizon lerp
/// + compare instead of is_shaded branching, masked beam term) written
/// so GCC/Clang auto-vectorize them; they run at the scalar and avx2
/// levels.  The avx512 level runs the hand-written AVX-512 twins
/// (irradiance_avx512.cpp), whose masked loads/stores leave no scalar
/// tail loop.  They paid end to end on the gather path: on the
/// repository benchmark `serve_churn` ran at 27.8 rps at avx512 against
/// 24.3 rps at avx2, and the city run's suitability stage took ≈3.1 s
/// against ≈3.5–4.3 s.  Suitability now runs the packed kernel, and there
/// the twin shows no gain (≈0.54 s at avx512 against ≈0.50–0.57 s at
/// avx2).  An AVX2 twin showed no gain, so the avx2 level has none
/// (util/simd.hpp).  All compute the *same IEEE operations in the same
/// association* as IrradianceField::cell_irradiance_unchecked — no FMA
/// (the build sets -ffp-contract=off), no reassociation — so every
/// implementation is bitwise-identical per cell.  tests/solar/test_batched_kernels pins
/// this property across roofs, sky models, normals on/off, and SIMD
/// levels.
///
/// Preconditions (debug-asserted by the callers, validated at the
/// IrradianceField boundary): row/cell inside the window, steps in
/// range, packed runs inside [0, n_packed), out sized to the span.

#include <cstddef>
#include <cstdint>

#include "pvfp/solar/irradiance.hpp"

namespace pvfp::solar::detail {

/// out[i] = G(x0 + i, y, s) for i in [0, x1 - x0).
void cell_row_scalar(const FieldView& f, int y, long s, int x0, int x1,
                     double* out);

/// out[k] = G(x, y, steps[k]) for k in [0, n).
void cell_series_scalar(const FieldView& f, int x, int y, const long* steps,
                        std::size_t n, double* out);

/// out[k] = G(x, y, step of packed entry p0 + k) for k in [0, p1 - p0):
/// unit-stride sweep over the view's packed planes (FieldView::p_*).
void cell_packed_scalar(const FieldView& f, int x, int y, long p0, long p1,
                        double* out);

/// True when this build carries the AVX-512 kernels (x86-64 compilers);
/// callers must additionally check the dispatch level (which requires
/// avx512f + avx512vl at run time, pvfp::cpu_supports_avx512()) before
/// calling them.
bool avx512_kernels_compiled();

/// AVX-512 twins (masked tails — no scalar remainder loop); fall back
/// to the scalar kernels on builds where avx512_kernels_compiled() is
/// false.
void cell_row_avx512(const FieldView& f, int y, long s, int x0, int x1,
                     double* out);
void cell_series_avx512(const FieldView& f, int x, int y, const long* steps,
                        std::size_t n, double* out);
void cell_packed_avx512(const FieldView& f, int x, int y, long p0, long p1,
                        double* out);

/// One histogram axis for the fused suitability binning: the fixed
/// bin grid of a pvfp::Histogram(lo, hi, bins).  width must equal
/// (hi - lo) / bins exactly as the Histogram constructor computes it.
struct BinAxis {
    double lo = 0.0;
    double hi = 1.0;
    double width = 0.0;
    int bins = 1;
};

/// Fused suitability binning: for each sample k, g_bins[k] is the
/// Histogram::bin_index of g[k] on \p ga and t_bins[k] the bin_index of
/// t_air[k] + k_th * g[k] on \p ta — the per-sample arithmetic of
/// Histogram::add on G and module temperature, as a branch-free
/// elementwise pass (with an AVX-512 twin) over the packed kernel's
/// output.  Bin indices are integers, so this is trivially
/// deterministic; the expressions still replicate Histogram::bin_index
/// case for case.
void bin_series_scalar(const double* g, std::size_t n, const double* t_air,
                       double k_th, const BinAxis& ga, const BinAxis& ta,
                       std::int32_t* g_bins, std::int32_t* t_bins);
void bin_series_avx512(const double* g, std::size_t n, const double* t_air,
                       double k_th, const BinAxis& ga, const BinAxis& ta,
                       std::int32_t* g_bins, std::int32_t* t_bins);

/// Dispatch helper used by compute_suitability: bin_series at the
/// current simd_level().
void bin_series(const double* g, std::size_t n, const double* t_air,
                double k_th, const BinAxis& ga, const BinAxis& ta,
                std::int32_t* g_bins, std::int32_t* t_bins);

}  // namespace pvfp::solar::detail
