#pragma once
/// \file irradiance_kernels.hpp
/// Internal batched irradiance kernel over a FieldView (SoA planes).
///
/// One shape, a scalar kernel plus one AVX-512 twin: the packed kernel —
/// fixed cell, contiguous run of a StepPack, unit-stride loads over the
/// packed planes.  Every batched caller (compute_suitability's sampled
/// axis, evaluate_floorplan's time shards, the IncrementalEvaluator's
/// anchor series, ideal_anchor_energies) packs its step axis once and
/// sweeps it here.
///
/// The scalar implementation is a branch-free inner loop (horizon lerp
/// + compare instead of is_shaded branching, masked beam term) written
/// so GCC/Clang auto-vectorize it; it runs at the scalar and avx2
/// levels.  The avx512 level runs the hand-written AVX-512 twin
/// (irradiance_avx512.cpp), whose masked loads/stores leave no scalar
/// tail loop.  The AVX-512 twins paid end to end on the former gather
/// path (`serve_churn` 27.8 rps at avx512 against 24.3 rps at avx2);
/// on the packed suitability sweep the twin shows no gain (≈0.54 s at
/// avx512 against ≈0.50–0.57 s at avx2).  An AVX2 twin showed no gain,
/// so the avx2 level has none (util/simd.hpp).  Both compute the *same
/// IEEE operations in the same association* as
/// IrradianceField::cell_irradiance_unchecked — no FMA (the build sets
/// -ffp-contract=off), no reassociation — so they are bitwise-identical
/// per cell and step.  tests/solar/test_batched_kernels pins this
/// property across roofs, sky models, normals on/off, and SIMD levels.
///
/// Preconditions (debug-asserted by the callers, validated at the
/// IrradianceField boundary): cell inside the window, packed runs inside
/// [0, pack.size()), out sized to the run.

#include <cstddef>
#include <cstdint>

#include "pvfp/solar/irradiance.hpp"

namespace pvfp::solar::detail {

/// out[k] = G(x, y, step of packed entry p0 + k) for k in [0, p1 - p0):
/// unit-stride sweep over the view's packed planes.
void cell_packed_scalar(const FieldView& f, int x, int y, long p0, long p1,
                        double* out);

/// True when this build carries the AVX-512 kernels (x86-64 compilers);
/// callers must additionally check the dispatch level (which requires
/// avx512f + avx512vl at run time, pvfp::cpu_supports_avx512()) before
/// calling them.
bool avx512_kernels_compiled();

/// AVX-512 twin (masked tails — no scalar remainder loop); falls back
/// to the scalar kernel on builds where avx512_kernels_compiled() is
/// false.
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
