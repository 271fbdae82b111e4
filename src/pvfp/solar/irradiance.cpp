#include "pvfp/solar/irradiance.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "pvfp/solar/irradiance_kernels.hpp"
#include "pvfp/util/error.hpp"
#include "pvfp/util/parallel.hpp"
#include "pvfp/util/simd.hpp"

namespace pvfp::solar {
namespace {

/// Member-initializer guard: the artifact ctor reads its time grid from
/// the artifact, which must exist before any member touches it.
const pvfp::TimeGrid& sky_grid_checked(
    const std::shared_ptr<const SharedSkyArtifact>& sky) {
    check_arg(sky != nullptr, "IrradianceField: null sky artifact");
    return sky->grid;
}

}  // namespace

IrradianceField::IrradianceField(geo::HorizonMap horizon,
                                 std::vector<EnvSample> env,
                                 const pvfp::TimeGrid& grid, double tilt_rad,
                                 double azimuth_rad,
                                 const FieldConfig& config,
                                 geo::NormalMap normals)
    // Self-contained path: prepare a private sky artifact for this env
    // series and delegate.  One implementation of the per-step math —
    // the shared-sky batch path and this path produce the same bits.
    : IrradianceField(std::move(horizon),
                      make_shared_sky(config.location, grid, std::move(env),
                                      config.sky_model),
                      tilt_rad, azimuth_rad, config, std::move(normals)) {}

IrradianceField::IrradianceField(geo::HorizonMap horizon,
                                 std::shared_ptr<const SharedSkyArtifact> sky,
                                 double tilt_rad, double azimuth_rad,
                                 const FieldConfig& config,
                                 geo::NormalMap normals)
    : horizon_(std::move(horizon)), grid_(sky_grid_checked(sky)),
      tilt_rad_(tilt_rad), azimuth_rad_(azimuth_rad), config_(config),
      normals_(std::move(normals)) {
    check_arg(tilt_rad >= 0.0 && tilt_rad <= kPi / 2.0,
              "IrradianceField: tilt out of range");
    check_arg(config.thermal_k >= 0.0,
              "IrradianceField: thermal_k must be non-negative");
    // The precomputed sun positions and circumsolar split embed the
    // artifact's site and sky model; a mismatched FieldConfig would
    // silently compute a different physics than asked for.
    check_arg(config.location.latitude_deg == sky->location.latitude_deg &&
                  config.location.longitude_deg ==
                      sky->location.longitude_deg &&
                  config.location.timezone_hours ==
                      sky->location.timezone_hours,
              "IrradianceField: config.location != sky artifact location");
    check_arg(config.sky_model == sky->sky_model,
              "IrradianceField: config.sky_model != sky artifact model");
    has_normals_ = normals_.width() > 0;
    if (has_normals_) {
        check_arg(normals_.width() == horizon_.window_width() &&
                      normals_.height() == horizon_.window_height(),
                  "IrradianceField: normal map does not match the window");
    }
    // The footprint kernels address horizon sector planes through int32
    // offsets; a window large enough to overflow them would not fit in
    // memory anyway, but fail loudly rather than wrap.
    check_arg(horizon_.cell_count() *
                      static_cast<long long>(horizon_.sectors()) <=
                  std::numeric_limits<std::int32_t>::max(),
              "IrradianceField: horizon map too large for batch kernels");

    // Uniform plane normal: leans toward the downslope azimuth.
    plane_e_ = std::sin(tilt_rad_) * std::sin(azimuth_rad_);
    plane_n_ = std::sin(tilt_rad_) * std::cos(azimuth_rad_);
    plane_u_ = std::cos(tilt_rad_);

    const std::size_t n = sky->env.size();
    steps_ = StepPack(n);
    temp_air_.resize(n);
    sun_azimuth_.resize(n);
    daylight_.resize(n);

    const int sectors = horizon_.sectors();
    const std::int32_t ncells =
        static_cast<std::int32_t>(horizon_.cell_count());
    const SharedSkyArtifact& a = *sky;
    float* beam_eq = steps_.plane(StepPack::kBeamEq);
    float* sky_diffuse = steps_.plane(StepPack::kSkyDiffuse);
    float* reflected = steps_.plane(StepPack::kReflected);
    float* sun_elevation = steps_.plane(StepPack::kSunElevation);
    float* sun_e = steps_.plane(StepPack::kSunE);
    float* sun_n = steps_.plane(StepPack::kSunN);
    float* sun_u = steps_.plane(StepPack::kSunU);
    std::int32_t* hor_off0 = steps_.hor_off(0);
    std::int32_t* hor_off1 = steps_.hor_off(1);
    double* hor_frac = steps_.hor_frac();

    // Per-roof finish: round the shared per-step precompute into the
    // float SoA planes and apply the only tilt-dependent transposition
    // factors (isotropic-sky and ground-reflected projections).  The
    // expensive per-step work — sun position, circumsolar split — was
    // done once in the artifact; this loop is two multiplies and a
    // handful of casts per step, chunked deterministically.
    parallel_for(0, grid_.total_steps(), 4096, [&](long sb, long se) {
    for (long s = sb; s < se; ++s) {
        const std::size_t si = static_cast<std::size_t>(s);
        const EnvSample& e = a.env[si];
        sun_azimuth_[si] = static_cast<float>(a.sun_azimuth[si]);
        sun_elevation[si] = static_cast<float>(a.sun_elevation[si]);
        daylight_[si] = a.daylight[si];
        temp_air_[si] = static_cast<float>(e.temp_air_c);
        sun_e[si] = static_cast<float>(a.sun_e[si]);
        sun_n[si] = static_cast<float>(a.sun_n[si]);
        sun_u[si] = static_cast<float>(a.sun_u[si]);

        float beam_eq_f = 0.0f;
        float sky_diffuse_f = 0.0f;
        float reflected_f = 0.0f;
        if (e.ghi > 0.0 || e.dhi > 0.0) {
            beam_eq_f = static_cast<float>(a.beam_eq[si]);
            // Isotropic sky share and ground-reflected term on the plane.
            sky_diffuse_f = static_cast<float>(
                a.dhi_iso[si] * (1.0 + std::cos(tilt_rad_)) / 2.0);
            reflected_f = static_cast<float>(
                e.ghi * config_.albedo * (1.0 - std::cos(tilt_rad_)) / 2.0);
        }
        beam_eq[si] = beam_eq_f;
        sky_diffuse[si] = sky_diffuse_f;
        reflected[si] = reflected_f;

        // Horizon interpolation weights for this step's sun azimuth —
        // exactly the arithmetic of HorizonMap::horizon_at_unchecked, so
        // the footprint kernels reproduce the scalar lookup bit for bit.
        const double pos =
            wrap_two_pi(static_cast<double>(sun_azimuth_[si])) / kTwoPi *
            sectors;
        const int s0 = static_cast<int>(pos) % sectors;
        const int s1 = (s0 + 1) % sectors;
        hor_off0[si] = static_cast<std::int32_t>(s0) * ncells;
        hor_off1[si] = static_cast<std::int32_t>(s1) * ncells;
        hor_frac[si] = pos - std::floor(pos);
    }
    });
}

StepPack IrradianceField::pack_steps(std::span<const long> steps) const {
    const long n_steps = this->steps();
    for (const long s : steps)
        check_arg(s >= 0 && s < n_steps,
                  "IrradianceField: step out of range");
    const std::size_t n = steps.size();
    StepPack p(n);
    const auto gather = [&](const auto* from, auto* to) {
        for (std::size_t k = 0; k < n; ++k)
            to[k] = from[static_cast<std::size_t>(steps[k])];
    };
    for (std::size_t i = 0; i < StepPack::kPlanes; ++i) {
        const auto plane = static_cast<StepPack::Plane>(i);
        gather(steps_.plane(plane), p.plane(plane));
    }
    gather(steps_.hor_off(0), p.hor_off(0));
    gather(steps_.hor_off(1), p.hor_off(1));
    gather(steps_.hor_frac(), p.hor_frac());
    return p;
}

double IrradianceField::cell_irradiance(int x, int y, long s) const {
    check_step(s);
    check_arg(x >= 0 && x < width() && y >= 0 && y < height(),
              "IrradianceField: cell out of range");
    return cell_irradiance_unchecked(x, y, s);
}

double IrradianceField::cell_irradiance_unchecked(int x, int y,
                                                  long s) const {
    // Innermost scalar hot path (per cell per step): the iteration
    // domain is validated once at the public call-site boundary.
    assert(s >= 0 && s < static_cast<long>(daylight_.size()));
    const std::size_t si = static_cast<std::size_t>(s);
    const float beam_eq = steps_.plane(StepPack::kBeamEq)[si];
    const float sun_e = steps_.plane(StepPack::kSunE)[si];
    const float sun_n = steps_.plane(StepPack::kSunN)[si];
    const float sun_u = steps_.plane(StepPack::kSunU)[si];
    double g = steps_.plane(StepPack::kReflected)[si];
    g += horizon_.sky_view_factor_unchecked(x, y) *
         steps_.plane(StepPack::kSkyDiffuse)[si];
    if (beam_eq > 0.0f &&
        !horizon_.is_shaded_unchecked(
            x, y, sun_azimuth_[si],
            steps_.plane(StepPack::kSunElevation)[si])) {
        double cosi;
        if (has_normals_) {
            cosi = normals_.east(x, y) * sun_e + normals_.north(x, y) * sun_n +
                   normals_.up(x, y) * sun_u;
        } else {
            cosi = plane_e_ * sun_e + plane_n_ * sun_n + plane_u_ * sun_u;
        }
        if (cosi > 0.0) g += beam_eq * cosi;
    }
    return g;
}

detail::FieldView IrradianceField::view(const StepPack& pack) const {
    detail::FieldView v;
    v.beam_eq = pack.plane(StepPack::kBeamEq);
    v.sky_diffuse = pack.plane(StepPack::kSkyDiffuse);
    v.reflected = pack.plane(StepPack::kReflected);
    v.sun_elevation = pack.plane(StepPack::kSunElevation);
    v.sun_e = pack.plane(StepPack::kSunE);
    v.sun_n = pack.plane(StepPack::kSunN);
    v.sun_u = pack.plane(StepPack::kSunU);
    v.hor_off0 = pack.hor_off(0);
    v.hor_off1 = pack.hor_off(1);
    v.hor_frac = pack.hor_frac();
    v.angles = horizon_.angles_data();
    v.svf = horizon_.svf_data();
    if (has_normals_) {
        v.norm_e = normals_.east.data().data();
        v.norm_n = normals_.north.data().data();
        v.norm_u = normals_.up.data().data();
    }
    v.plane_e = plane_e_;
    v.plane_n = plane_n_;
    v.plane_u = plane_u_;
    v.width = width();
    return v;
}

void IrradianceField::cell_irradiance_packed(const StepPack& pack, int x,
                                             int y, long p0, long p1,
                                             double* out) const {
    check_arg(x >= 0 && x < width() && y >= 0 && y < height(),
              "IrradianceField: cell out of range");
    check_arg(p0 >= 0 && p0 <= p1 && p1 <= pack.size(),
              "IrradianceField: packed range out of range");
    footprint_irradiance_packed_unchecked(pack, x, y, 1, 1,
                                          ModuleIrradiance::AnchorCell, p0,
                                          p1, out);
}

void IrradianceField::footprint_irradiance_packed_unchecked(
    const StepPack& pack, int x, int y, int k1, int k2,
    ModuleIrradiance mode, long p0, long p1, double* out) const {
    assert(k1 >= 1 && k2 >= 1 && x >= 0 && y >= 0 && x + k1 <= width() &&
           y + k2 <= height());
    assert(p0 >= 0 && p0 <= p1 && p1 <= pack.size());
    if (p0 == p1) return;
    const detail::FieldView v = view(pack);
    if (simd_level() == SimdLevel::Avx512 &&
        detail::avx512_kernels_compiled())
        detail::footprint_packed_avx512(v, x, y, k1, k2, mode, p0, p1, out);
    else
        detail::footprint_packed_scalar(v, x, y, k1, k2, mode, p0, p1, out);
}

double IrradianceField::cell_module_temperature(int x, int y, long s) const {
    return air_temperature(s) + config_.thermal_k * cell_irradiance(x, y, s);
}

double IrradianceField::plane_irradiance_unshaded(long s) const {
    check_step(s);
    const std::size_t si = static_cast<std::size_t>(s);
    const double cosi = plane_e_ * steps_.plane(StepPack::kSunE)[si] +
                        plane_n_ * steps_.plane(StepPack::kSunN)[si] +
                        plane_u_ * steps_.plane(StepPack::kSunU)[si];
    return steps_.plane(StepPack::kBeamEq)[si] * std::max(0.0, cosi) +
           steps_.plane(StepPack::kSkyDiffuse)[si] +
           steps_.plane(StepPack::kReflected)[si];
}

double IrradianceField::unshaded_insolation_kwh_m2() const {
    double wh = 0.0;
    for (long s = 0; s < steps(); ++s)
        wh += plane_irradiance_unshaded(s) * grid_.step_hours();
    return wh / 1000.0;
}

}  // namespace pvfp::solar
