#pragma once
/// \file irradiance_kernels.hpp
/// Internal batched irradiance kernel over a FieldView (SoA planes).
///
/// One shape, a scalar kernel plus one AVX-512 twin: the footprint
/// kernel — one module footprint of k1 x k2 cells, a contiguous run of a
/// StepPack, unit-stride loads over the packed step planes.  Every
/// batched caller (compute_suitability's sampled axis with 1x1
/// footprints, evaluate_floorplan's time shards, the
/// IncrementalEvaluator's anchor series, ideal_anchor_energies) packs
/// its step axis once and sweeps it here.
///
/// The AVX-512 twin (irradiance_avx512.cpp) loads each packed step plane
/// once per 8-step vector, keeps the cell-independent terms (beam, sun
/// vector, uniform-plane cosine, lit mask) in registers, and folds the
/// footprint's cells into a register accumulator in (y, x) order: no
/// per-cell sweeps, no output buffer round trip, and masked loads/stores
/// instead of a scalar tail loop.  The scalar kernel is a per-cell
/// composition over small stack blocks of steps, its inner loop
/// branch-free (horizon lerp + compare instead of is_shaded branching,
/// masked beam term) so GCC/Clang auto-vectorize it; it runs at the
/// scalar and avx2 levels.  An AVX2 twin showed no gain, so the avx2
/// level has none (util/simd.hpp).  Both compute the *same IEEE
/// operations in the same association* as
/// IrradianceField::cell_irradiance_unchecked and the scalar fold of
/// core::anchor_irradiance_unchecked — no FMA (the build sets
/// -ffp-contract=off), no reassociation — so they are bitwise-identical
/// per footprint and step.  tests/solar/test_batched_kernels pins this
/// property across roofs, sky models, normals on/off, footprint shapes
/// and modes, run lengths, a NaN sky-view factor, and SIMD levels.
///
/// Preconditions (debug-asserted by the callers, validated at the
/// IrradianceField and anchor_irradiance_series boundaries): footprint
/// inside the window, packed runs inside [0, pack.size()), out sized to
/// the run.

#include <cstddef>
#include <cstdint>

#include "pvfp/solar/irradiance.hpp"

namespace pvfp::solar::detail {

/// out[k] = G of the k1 x k2 footprint anchored at (x, y) at packed
/// entry p0 + k, for k in [0, p1 - p0), folded by \p mode as
/// IrradianceField::footprint_irradiance_packed_unchecked documents.
void footprint_packed_scalar(const FieldView& f, int x, int y, int k1,
                             int k2, ModuleIrradiance mode, long p0, long p1,
                             double* out);

/// True when this build carries the AVX-512 kernels (x86-64 compilers);
/// callers must additionally check the dispatch level (which requires
/// avx512f + avx512vl at run time, pvfp::cpu_supports_avx512()) before
/// calling them.
bool avx512_kernels_compiled();

/// AVX-512 twin (masked tails — no scalar remainder loop); falls back
/// to the scalar kernel on builds where avx512_kernels_compiled() is
/// false.
void footprint_packed_avx512(const FieldView& f, int x, int y, int k1,
                             int k2, ModuleIrradiance mode, long p0, long p1,
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
/// elementwise pass (with an AVX-512 twin) over the footprint
/// kernel's output.  Bin indices are integers, so this is trivially
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
