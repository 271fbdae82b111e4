#include "pvfp/solar/sky_artifact.hpp"

#include <algorithm>
#include <cmath>

#include "pvfp/solar/sky_kernels.hpp"
#include "pvfp/util/error.hpp"
#include "pvfp/util/parallel.hpp"

namespace pvfp::solar {
namespace {

SharedSkyArtifact make_validated_artifact(const Location& location,
                                          const pvfp::TimeGrid& grid,
                                          std::vector<EnvSample> env,
                                          SkyModel sky_model) {
    check_arg(static_cast<long>(env.size()) == grid.total_steps(),
              "prepare_sky_artifact: env series length != time grid steps");
    for (const EnvSample& e : env) {
        check_arg(e.ghi >= 0.0 && e.dni >= 0.0 && e.dhi >= 0.0,
                  "prepare_sky_artifact: negative irradiance in env series");
    }

    SharedSkyArtifact sky;
    sky.location = location;
    sky.grid = grid;
    sky.sky_model = sky_model;
    sky.env = std::move(env);

    const std::size_t n = sky.env.size();
    sky.sun_azimuth.resize(n);
    sky.sun_elevation.resize(n);
    sky.daylight.resize(n);
    sky.sun_e.resize(n);
    sky.sun_n.resize(n);
    sky.sun_u.resize(n);
    sky.beam_eq.resize(n);
    sky.dhi_iso.resize(n);
    return sky;
}

}  // namespace

SharedSkyArtifact prepare_sky_artifact(const Location& location,
                                       const pvfp::TimeGrid& grid,
                                       std::vector<EnvSample> env,
                                       SkyModel sky_model) {
    SharedSkyArtifact sky =
        make_validated_artifact(location, grid, std::move(env), sky_model);
    const bool hay = sky_model == SkyModel::HayDavies;

    // Per-day ephemeris tables: declination, equation of time, and the
    // extraterrestrial irradiance only change once per day, so the
    // reference's per-step recomputation hoists here — with unchanged
    // association (see DayGeometry), keeping every downstream bit equal
    // to prepare_sky_artifact_reference.
    const long spd = grid.steps_per_day();
    const long days = grid.days();
    const double phi = deg2rad(location.latitude_deg);
    const double sin_phi = std::sin(phi);
    const double cos_phi = std::cos(phi);
    const double tz_meridian = 15.0 * location.timezone_hours;
    std::vector<detail::DayGeometry> day_geo(static_cast<std::size_t>(days));
    std::vector<double> day_m60(static_cast<std::size_t>(days));
    std::vector<double> day_eo(static_cast<std::size_t>(days));
    for (long d = 0; d < days; ++d) {
        const std::size_t di = static_cast<std::size_t>(d);
        const int doy = grid.day_of_year(d * spd);
        const double delta = solar_declination(doy);
        const double sin_delta = std::sin(delta);
        const double cos_delta = std::cos(delta);
        day_geo[di] = detail::DayGeometry{
            sin_phi * sin_delta, cos_phi * cos_delta, cos_phi * sin_delta,
            sin_phi * cos_delta, -cos_delta};
        const double minutes = equation_of_time_minutes(doy) +
                               4.0 * (location.longitude_deg - tz_meridian);
        day_m60[di] = minutes / 60.0;
        day_eo[di] = extraterrestrial_normal_irradiance(doy);
    }

    // The per-step sweep splits into four passes per chunk: scalar libm
    // trig of the hour angle, the elementwise geometry kernel, scalar
    // libm angles + sun vector, and the elementwise transposition
    // kernel.  Each step writes only its own slots, so the fixed chunk
    // grid keeps the result bitwise-identical at any thread count.
    parallel_for(0, grid.total_steps(), 512, [&](long sb, long se) {
        const std::size_t cn = static_cast<std::size_t>(se - sb);
        std::vector<double> cos_h(cn);
        std::vector<double> sin_h(cn);
        std::vector<double> up(cn);
        std::vector<double> north(cn);
        std::vector<double> east(cn);
        std::vector<double> sin_el(cn);
        std::vector<double> ghi(cn);
        std::vector<double> dni(cn);
        std::vector<double> dhi(cn);

        for (long s = sb; s < se; ++s) {
            const std::size_t i = static_cast<std::size_t>(s - sb);
            const double t_solar =
                grid.hour_of_day(s) + day_m60[static_cast<std::size_t>(
                                          s / spd)];
            const double h = deg2rad(15.0 * (t_solar - 12.0));
            cos_h[i] = std::cos(h);
            sin_h[i] = std::sin(h);
        }
        for (long r0 = sb; r0 < se;) {
            const long d = r0 / spd;
            const long r1 = std::min(se, (d + 1) * spd);
            const std::size_t off = static_cast<std::size_t>(r0 - sb);
            detail::sky_geometry(cos_h.data() + off, sin_h.data() + off,
                                 static_cast<std::size_t>(r1 - r0),
                                 day_geo[static_cast<std::size_t>(d)],
                                 up.data() + off, north.data() + off,
                                 east.data() + off);
            r0 = r1;
        }
        for (long s = sb; s < se; ++s) {
            const std::size_t i = static_cast<std::size_t>(s - sb);
            const std::size_t si = static_cast<std::size_t>(s);
            // up is already clamped to [-1, 1] by the geometry kernel,
            // exactly as sun_position clamps before asin.
            const double el = std::asin(up[i]);
            const double az = wrap_two_pi(std::atan2(east[i], north[i]));
            sky.sun_azimuth[si] = az;
            sky.sun_elevation[si] = el;
            sky.daylight[si] = el > 0.0 ? 1 : 0;
            const double cos_el = std::cos(el);
            sky.sun_e[si] = cos_el * std::sin(az);
            sky.sun_n[si] = cos_el * std::cos(az);
            const double s_el = std::sin(el);
            sky.sun_u[si] = s_el;
            sin_el[i] = s_el;
            const EnvSample& e = sky.env[si];
            ghi[i] = e.ghi;
            dni[i] = e.dni;
            dhi[i] = e.dhi;
        }
        for (long r0 = sb; r0 < se;) {
            const long d = r0 / spd;
            const long r1 = std::min(se, (d + 1) * spd);
            const std::size_t off = static_cast<std::size_t>(r0 - sb);
            const std::size_t ri = static_cast<std::size_t>(r0);
            detail::sky_transposition(
                ghi.data() + off, dni.data() + off, dhi.data() + off,
                sin_el.data() + off, sky.daylight.data() + ri,
                static_cast<std::size_t>(r1 - r0),
                day_eo[static_cast<std::size_t>(d)], hay,
                sky.beam_eq.data() + ri, sky.dhi_iso.data() + ri);
            r0 = r1;
        }
    });
    return sky;
}

SharedSkyArtifact prepare_sky_artifact_reference(const Location& location,
                                                 const pvfp::TimeGrid& grid,
                                                 std::vector<EnvSample> env,
                                                 SkyModel sky_model) {
    SharedSkyArtifact sky =
        make_validated_artifact(location, grid, std::move(env), sky_model);
    const bool hay = sky_model == SkyModel::HayDavies;

    // Per-step precompute (sun position + roof-independent transposition
    // terms for each of the ~35,040 steps) parallelized over step chunks:
    // each step writes only its own slots, so the fixed chunk grid keeps
    // the result bitwise-identical at any thread count.
    parallel_for(0, grid.total_steps(), 512, [&](long sb, long se) {
    for (long s = sb; s < se; ++s) {
        const std::size_t si = static_cast<std::size_t>(s);
        const EnvSample& e = sky.env[si];
        const int doy = grid.day_of_year(s);
        const double hour = grid.hour_of_day(s);
        const SunPosition sun = sun_position(location, doy, hour);
        const bool daylight = sun.elevation_rad > 0.0;
        sky.sun_azimuth[si] = sun.azimuth_rad;
        sky.sun_elevation[si] = sun.elevation_rad;
        sky.daylight[si] = daylight ? 1 : 0;
        const double cos_el = std::cos(sun.elevation_rad);
        sky.sun_e[si] = cos_el * std::sin(sun.azimuth_rad);
        sky.sun_n[si] = cos_el * std::cos(sun.azimuth_rad);
        sky.sun_u[si] = std::sin(sun.elevation_rad);

        double beam_eq = 0.0;
        double dhi_iso = 0.0;
        if (e.ghi > 0.0 || e.dhi > 0.0) {
            // Extraterrestrial normal irradiance feeds both the
            // circumsolar share and the isotropic split under Hay-Davies.
            double a = 0.0;
            if (hay) {
                a = std::clamp(e.dni / extraterrestrial_normal_irradiance(doy),
                               0.0, 1.0);
            }
            // Normal-equivalent beam magnitude: DNI plus, for Hay-Davies,
            // the circumsolar share of the diffuse (guarded near the
            // horizon exactly like the transposition model).
            if (daylight) {
                beam_eq = e.dni;
                if (hay && e.dhi > 0.0) {
                    const double sin_el_guard =
                        std::max(std::sin(sun.elevation_rad), 0.01745);
                    beam_eq += e.dhi * a / sin_el_guard;
                }
            }
            dhi_iso = e.dhi;
            if (hay) dhi_iso = e.dhi * (1.0 - (daylight ? a : 0.0));
        }
        sky.beam_eq[si] = beam_eq;
        sky.dhi_iso[si] = dhi_iso;
    }
    });
    return sky;
}

std::shared_ptr<const SharedSkyArtifact> make_shared_sky(
    const Location& location, const pvfp::TimeGrid& grid,
    std::vector<EnvSample> env, SkyModel sky_model) {
    return std::make_shared<const SharedSkyArtifact>(
        prepare_sky_artifact(location, grid, std::move(env), sky_model));
}

}  // namespace pvfp::solar
