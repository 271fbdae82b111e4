#pragma once
/// \file sky_kernels.hpp
/// Internal elementwise kernels of the batched sky precompute
/// (prepare_sky_artifact).
///
/// The per-step sky prepare splits into scalar-libm passes (the
/// trigonometry: hour-angle cos/sin, asin/atan2 of the sun vector —
/// libm is not vectorizable under the bitwise contract) and two pure
/// elementwise passes over same-day step runs, implemented here:
///
///  - the *geometry* pass: sun-vector components from the per-day
///    ephemeris constants and the per-step hour-angle cos/sin;
///  - the *transposition* pass: normal-equivalent beam magnitude and
///    isotropic diffuse share from the env series.
///
/// Both are plain scalar loops at every SIMD level.  The sky is
/// prepared once per site: `solar.sky_ms` measured 22–32 ms of the
/// multi-second benchmark city run at scalar, AVX2 and AVX-512 alike,
/// so no intrinsics twin earns its place (util/simd.hpp states the
/// one-twin rule).  A wider -march build lets the compiler
/// auto-vectorize them.
///
/// Bitwise contract: both compute the same IEEE operations in the same
/// association as prepare_sky_artifact_reference's inline expressions
/// (no FMA — the build sets -ffp-contract=off), so the artifact is
/// bitwise-identical to the reference.  tests/solar/test_sky_artifact
/// pins this across latitudes, sky models, and SIMD levels.

#include <cstddef>
#include <cstdint>

namespace pvfp::solar::detail {

/// Per-day ephemeris constants hoisted out of the step loop.  The
/// reference computes, per step,
///   up    = sin(phi)*sin(delta) + (cos(phi)*cos(delta))*cos(h)
///   north = cos(phi)*sin(delta) - (sin(phi)*cos(delta))*cos(h)
///   east  = (-cos(delta))*sin(h)
/// where phi (latitude) is constant and delta (declination) only
/// changes per day — so the four products and -cos(delta) hoist with
/// unchanged association, leaving one mul+add per component per step.
struct DayGeometry {
    double a;              ///< sin(phi) * sin(delta)
    double b;              ///< cos(phi) * cos(delta)
    double c;              ///< cos(phi) * sin(delta)
    double d;              ///< sin(phi) * cos(delta)
    double neg_cos_delta;  ///< -cos(delta)
};

/// Geometry pass over one same-day run of \p n steps: from the
/// hour-angle cos/sin, produce the sun vector's up component clamped
/// to [-1, 1] (ready for asin), and the unnormalized north/east
/// components (ready for atan2).
void sky_geometry(const double* cos_h, const double* sin_h, std::size_t n,
                  const DayGeometry& day, double* up_clamped, double* north,
                  double* east);

/// Transposition pass over one same-day run of \p n steps: the
/// reference's per-step beam_eq / dhi_iso computation —
///   no input (ghi<=0 && dhi<=0):        beam_eq = dhi_iso = 0
///   a = hay ? clamp(dni/eo, 0, 1) : 0
///   beam_eq = daylight ? dni + [dhi>0 && hay] (dhi*a)/max(sin_el, 0.01745)
///                      : 0
///   dhi_iso = hay ? dhi * (1 - (daylight ? a : 0)) : dhi
/// with \p eo the day's extraterrestrial normal irradiance and
/// \p daylight the per-step flag bytes.
void sky_transposition(const double* ghi, const double* dni,
                       const double* dhi, const double* sin_el,
                       const std::uint8_t* daylight, std::size_t n,
                       double eo, bool hay, double* beam_eq,
                       double* dhi_iso);

}  // namespace pvfp::solar::detail
