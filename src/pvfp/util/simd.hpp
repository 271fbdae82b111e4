#pragma once
/// \file simd.hpp
/// Runtime SIMD dispatch for the hand-written kernel twins.
///
/// Rule: each kernel is a scalar oracle plus *at most one* intrinsics
/// twin, kept only where the end-to-end benchmark shows it pays, and a
/// level runs every twin whose ISA it includes:
///
///   kernel                    twin     levels that run the twin
///   irradiance footprint +    AVX-512  avx512
///     suitability binning
///   horizon row march         AVX2     avx2, avx512
///   sky geometry/transpose    none     (scalar everywhere)
///
/// So the avx512 level calls an avx2-target function, and
/// cpu_supports_avx512() therefore also requires AVX2.  Twins carry
/// per-function target(...) attributes (whole translation units are
/// never compiled with -mavx*, which would leak AVX code into inline
/// functions shared with baseline callers).  Which level runs is a
/// pure runtime decision — the library binary is portable — resolved
/// from, in priority order:
///
///   1. a set_simd_level() override (tests and benches toggling paths),
///   2. the PVFP_SIMD environment variable
///      ("scalar"/"off"/"0" forces scalar, "avx2" forces AVX2, "avx512"
///      forces AVX-512 — an InvalidArgument when the CPU lacks the
///      level, as is any unrecognized value, so a CI job forcing a
///      level fails loudly instead of silently testing the wrong
///      kernels — "auto"/unset detects), and
///   3. CPU detection (auto runs the widest level the CPU has).
///
/// Programs resolve the level once at startup (pvfp_city and pvfp_serve
/// call simd_level() before reading any input), so a bad PVFP_SIMD ends
/// the process with the typed message and a non-zero exit instead of
/// failing every request later.
///
/// Determinism contract: all paths compute elementwise-identical IEEE
/// arithmetic (same operations, same association, no FMA contraction —
/// the build sets -ffp-contract=off), so switching levels never changes
/// a single bit of any result.  tests/solar/test_batched_kernels,
/// tests/geo/test_horizon_kernels and tests/solar/test_sky_artifact pin
/// this.

namespace pvfp {

/// Kernel implementation tiers, in increasing width.
enum class SimdLevel {
    Scalar,  ///< portable loops (still auto-vectorizable)
    Avx2,    ///< AVX2 twins (the horizon march)
    Avx512,  ///< AVX-512 twins plus every AVX2 twin
};

/// True when the executing CPU supports AVX2.
bool cpu_supports_avx2();

/// True when the executing CPU supports the AVX-512 subset the kernels
/// use (avx512f + avx512vl: foundation ops plus 256-bit masked forms)
/// and AVX2, whose twins the avx512 level also runs.
bool cpu_supports_avx512();

/// The level the batched kernels dispatch to right now.
SimdLevel simd_level();

/// Force a level (Avx2/Avx512 throw InvalidArgument when the CPU lacks
/// them).  Only call at a quiescent point — the setting is global.
void set_simd_level(SimdLevel level);

/// Restore the default resolution (PVFP_SIMD env, then CPU detection);
/// throws InvalidArgument on a bad PVFP_SIMD value, like startup does.
void set_simd_level_auto();

/// Human-readable name of a level ("scalar" / "avx2" / "avx512") for
/// bench banners.
const char* simd_level_name(SimdLevel level);

}  // namespace pvfp
