#pragma once
/// \file sky_artifact.hpp
/// The shared per-batch sky precompute (ROADMAP "shared-weather
/// batching").
///
/// Everything the irradiance field derives *per time step* from the
/// weather trace and the site — sun position, the sun unit vector, the
/// normal-equivalent beam magnitude and the isotropic share of the
/// diffuse — depends only on (location, time grid, env series, sky
/// model).  None of it depends on the roof.  A batch of thousands of
/// roofs at one site therefore pays that ~35k-step trigonometry exactly
/// once by preparing a SharedSkyArtifact up front and handing it
/// (immutably, by shared_ptr) to every IrradianceField it builds; the
/// per-roof remainder is two tilt-dependent multiplies per step.
///
/// The artifact path is *bitwise identical* to the self-contained
/// IrradianceField constructor: the per-step arithmetic here is the same
/// double-precision expression sequence that constructor used to run
/// inline, and the field casts to its float SoA planes exactly as
/// before.  The self-contained constructor now simply prepares a private
/// artifact and delegates, so there is one implementation to trust.

#include <cstdint>
#include <memory>
#include <vector>

#include "pvfp/solar/sunpos.hpp"
#include "pvfp/solar/transposition.hpp"
#include "pvfp/util/timegrid.hpp"

namespace pvfp::solar {

/// One time step of weather on the horizontal plane, as produced by the
/// weather substrate (synthetic generator or station CSV import).
struct EnvSample {
    double ghi = 0.0;         ///< global horizontal irradiance [W/m^2]
    double dni = 0.0;         ///< beam normal irradiance [W/m^2]
    double dhi = 0.0;         ///< diffuse horizontal irradiance [W/m^2]
    double temp_air_c = 20.0; ///< ambient air temperature [deg C]
};

/// Roof-independent per-step sky state: env series, sun positions, and
/// the transposition terms that do not involve the roof plane.  Prepared
/// once per (location, grid, env, sky model) and consumed immutably by
/// any number of IrradianceFields.
struct SharedSkyArtifact {
    Location location;
    pvfp::TimeGrid grid{};
    SkyModel sky_model = SkyModel::HayDavies;
    /// The validated env series (one sample per grid step).
    std::vector<EnvSample> env;

    // Per-step precompute, all full precision (the field rounds to its
    // float planes exactly like the inline path did).
    std::vector<double> sun_azimuth;    ///< [rad], clockwise from North
    std::vector<double> sun_elevation;  ///< [rad]
    std::vector<std::uint8_t> daylight; ///< sun above horizon
    /// Sun unit vector (east, north, up).
    std::vector<double> sun_e;
    std::vector<double> sun_n;
    std::vector<double> sun_u;
    /// Normal-equivalent beam magnitude [W/m^2]: DNI plus, under
    /// Hay-Davies, the circumsolar share of the diffuse (horizon-guarded
    /// exactly like the transposition model).
    std::vector<double> beam_eq;
    /// Isotropic share of DHI [W/m^2] (DHI minus the circumsolar share
    /// under Hay-Davies; DHI itself under the isotropic model).  The
    /// per-roof in-plane sky diffuse is dhi_iso * (1 + cos(tilt)) / 2.
    std::vector<double> dhi_iso;

    long steps() const { return static_cast<long>(env.size()); }
};

/// Prepare the artifact: validates \p env (size and non-negativity) and
/// runs the per-step sun-position + transposition precompute over the
/// deterministic parallel substrate (fixed chunks — same bits at any
/// thread count).  The sweep is batched: per-day ephemeris constants are
/// hoisted (association preserved) and the elementwise geometry /
/// transposition passes run as separate loops (sky_kernels.hpp),
/// bitwise-identical to the reference below.
SharedSkyArtifact prepare_sky_artifact(const Location& location,
                                       const pvfp::TimeGrid& grid,
                                       std::vector<EnvSample> env,
                                       SkyModel sky_model);

/// The original unbatched per-step loop (one sun_position call plus the
/// inline transposition block per step).  Kept as the differential
/// oracle: tests pin prepare_sky_artifact against it bitwise across
/// latitudes and sky models, and the micro benchmarks use it as the
/// cold-start baseline.
SharedSkyArtifact prepare_sky_artifact_reference(const Location& location,
                                                 const pvfp::TimeGrid& grid,
                                                 std::vector<EnvSample> env,
                                                 SkyModel sky_model);

/// Convenience overload returning a shared handle ready to hand to many
/// fields/scenarios.
std::shared_ptr<const SharedSkyArtifact> make_shared_sky(
    const Location& location, const pvfp::TimeGrid& grid,
    std::vector<EnvSample> env, SkyModel sky_model);

}  // namespace pvfp::solar
