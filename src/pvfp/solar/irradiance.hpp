#pragma once
/// \file irradiance.hpp
/// The spatio-temporal irradiance/temperature field G[i,j,t], T[i,j,t] of
/// paper Section III-A, evaluated lazily.
///
/// Storing the full matrices for ~12,000 cells x 35,040 steps would take
/// gigabytes; instead the field factorizes exactly the way the physics
/// does:
///
///   G(cell, t) = visible(cell, t) * beam_plane(t)
///              + svf(cell) * sky_diffuse_plane(t)
///              + ground_reflected_plane(t)
///
/// where the three plane terms depend only on t (one transposition per
/// step, the roof plane is uniform) and the two cell factors come from the
/// horizon map (O(1) per query).  Module temperature follows the paper's
/// Tact = Tair + k*G with k = alpha/h_c (Section III-B1, [12][13]).
///
/// Per-step state is stored as structure-of-arrays planes (one
/// contiguous array per physical quantity) and the horizon interpolation
/// weights (sector pair + fraction, fixed per step) are precomputed, so
/// the two batched entry points — cell_irradiance_row (fixed step, span
/// of cells) and cell_irradiance_series (fixed cell, span of steps) —
/// run as branch-free SIMD-friendly loops.  Both are *bitwise identical*
/// to the scalar cell_irradiance_unchecked per cell, at any SIMD level
/// (see util/simd.hpp for the dispatch contract).
///
/// The per-step planes additionally carry *daylight-packed* twins: the
/// same quantities compacted over daylight steps only, in step order.
/// cell_irradiance_series detects contiguous daylight runs (the default
/// stride-1 sweeps of the evaluator and suitability) and sweeps the
/// packed planes unit-stride — no gathers, no night lanes — via
/// cell_irradiance_packed; packed_to_step()/packed_index() map between
/// the two step domains.

#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "pvfp/geo/horizon.hpp"
#include "pvfp/util/error.hpp"
#include "pvfp/solar/sky_artifact.hpp"
#include "pvfp/solar/sunpos.hpp"
#include "pvfp/solar/transposition.hpp"
#include "pvfp/util/timegrid.hpp"

namespace pvfp::solar {

/// Static configuration of the field.
struct FieldConfig {
    Location location;
    SkyModel sky_model = SkyModel::HayDavies;
    /// Ground albedo for the reflected component.
    double albedo = 0.2;
    /// Temperature coupling k = alpha/h_c [K m^2 / W]: Tact = Tair + k*G.
    /// Default alpha=0.5, h_c=15 W/(K m^2) -> 1/30, i.e. +33 K at STC
    /// irradiance, consistent with NOCT-class modules (paper Sec III-B1).
    double thermal_k = 1.0 / 30.0;
};

namespace detail {

/// Raw pointer view of the field's SoA planes, consumed by the scalar
/// and AVX-512 batch kernels (irradiance_kernels.hpp).  Pointers stay valid
/// for the lifetime of the owning IrradianceField.
struct FieldView {
    // Step-indexed planes (one entry per time step).
    const float* beam_eq = nullptr;
    const float* sky_diffuse = nullptr;
    const float* reflected = nullptr;
    const float* sun_elevation = nullptr;
    const float* sun_e = nullptr;
    const float* sun_n = nullptr;
    const float* sun_u = nullptr;
    /// Horizon interpolation per step: angle-plane offsets of the two
    /// sectors bracketing the sun azimuth (already multiplied by the
    /// cell count) and the interpolation fraction.
    const std::int32_t* hor_off0 = nullptr;
    const std::int32_t* hor_off1 = nullptr;
    const double* hor_frac = nullptr;
    // Daylight-packed step planes: the same per-step quantities
    // compacted over daylight steps only, in step order, so stride-1
    // daylight sweeps read them unit-stride with no gathers and no
    // night lanes.  Values are bitwise copies of the step planes above
    // (the packed kernels recompute nothing).
    const float* p_beam_eq = nullptr;
    const float* p_sky_diffuse = nullptr;
    const float* p_reflected = nullptr;
    const float* p_sun_elevation = nullptr;
    const float* p_sun_e = nullptr;
    const float* p_sun_n = nullptr;
    const float* p_sun_u = nullptr;
    const std::int32_t* p_hor_off0 = nullptr;
    const std::int32_t* p_hor_off1 = nullptr;
    const double* p_hor_frac = nullptr;
    // Cell-indexed planes (row-major over the window).
    const float* angles = nullptr;  ///< sector-major horizon planes
    const float* svf = nullptr;
    const float* norm_e = nullptr;  ///< nullptr => uniform plane normal
    const float* norm_n = nullptr;
    const float* norm_u = nullptr;
    // Uniform plane normal (east, north, up).
    double plane_e = 0.0;
    double plane_n = 0.0;
    double plane_u = 1.0;
    int width = 0;  ///< window width: row stride of the cell planes
};

}  // namespace detail

/// Lazily-evaluated per-cell irradiance and module temperature over a
/// placement-area window (the HorizonMap's window).
class IrradianceField {
public:
    /// \p horizon: per-cell horizons for the placement window (moved in).
    /// \p env: one sample per TimeGrid step (size must match).
    /// \p tilt_rad / \p azimuth_rad: roof plane orientation.
    /// \p normals: optional per-cell surface normals (same window); when
    /// empty, every cell uses the uniform plane normal.  Per-cell normals
    /// make the beam term respond to DSM surface structure — the
    /// fine-grain G variance of the paper's Fig. 6(b).
    IrradianceField(geo::HorizonMap horizon, std::vector<EnvSample> env,
                    const pvfp::TimeGrid& grid, double tilt_rad,
                    double azimuth_rad, const FieldConfig& config = {},
                    geo::NormalMap normals = {});

    /// Shared-sky constructor (ROADMAP "shared-weather batching"): build
    /// from a SharedSkyArtifact prepared once per batch instead of a
    /// private env series.  The time grid comes from the artifact;
    /// \p config.location and \p config.sky_model must match the
    /// artifact's exactly (checked), since the precomputed sun positions
    /// and circumsolar split embed them.  Bitwise identical to the
    /// self-contained constructor above for the same inputs — that
    /// constructor now delegates here.
    IrradianceField(geo::HorizonMap horizon,
                    std::shared_ptr<const SharedSkyArtifact> sky,
                    double tilt_rad, double azimuth_rad,
                    const FieldConfig& config = {},
                    geo::NormalMap normals = {});

    int width() const { return horizon_.window_width(); }
    int height() const { return horizon_.window_height(); }
    long steps() const { return grid_.total_steps(); }
    const pvfp::TimeGrid& time_grid() const { return grid_; }
    const FieldConfig& config() const { return config_; }
    double tilt_rad() const { return tilt_rad_; }
    double azimuth_rad() const { return azimuth_rad_; }
    const geo::HorizonMap& horizon() const { return horizon_; }

    /// True when the sun is above the horizon at step \p s.
    bool is_daylight(long s) const {
        check_step(s);
        return daylight_[static_cast<std::size_t>(s)] != 0;
    }

    /// Number of daylight steps — the length of the packed step planes.
    long packed_steps() const {
        return static_cast<long>(packed_to_step_.size());
    }

    /// Original step index of packed index \p p (ascending in p).
    std::span<const long> packed_to_step() const { return packed_to_step_; }

    /// Packed index of step \p s, or -1 when \p s is a night step.
    long packed_index(long s) const {
        check_step(s);
        return step_to_packed_[static_cast<std::size_t>(s)];
    }

    /// Sun position at step \p s.
    SunPosition sun(long s) const {
        check_step(s);
        return SunPosition{sun_azimuth_[static_cast<std::size_t>(s)],
                           sun_elevation_[static_cast<std::size_t>(s)]};
    }

    /// Ambient air temperature [deg C] at step \p s.
    double air_temperature(long s) const {
        check_step(s);
        return temp_air_[static_cast<std::size_t>(s)];
    }

    /// Plane-of-array irradiance [W/m^2] at cell (x,y) (window-local
    /// coordinates) and step \p s, including shading.  Validates the
    /// cell and step (throws InvalidArgument).
    double cell_irradiance(int x, int y, long s) const;

    /// Unchecked fast path of cell_irradiance for inner loops that have
    /// already validated their iteration domain once at the boundary
    /// (evaluator, suitability).  Precondition (debug-asserted): cell
    /// inside the window and 0 <= s < steps().
    double cell_irradiance_unchecked(int x, int y, long s) const;

    /// Batched row kernel: out[i] = cell_irradiance of cell (x0+i, y) at
    /// step \p s for i in [0, x1-x0).  Bitwise identical to calling
    /// cell_irradiance_unchecked per cell, at any SIMD level; validates
    /// the row, span, and step once (throws InvalidArgument).  This is
    /// the fixed-step hot path of compute_suitability, the Fig. 6 maps,
    /// and the footprint modes of anchor_irradiance_unchecked.
    void cell_irradiance_row(int y, long s, int x0, int x1,
                             double* out) const;

    /// Batched series kernel: out[k] = cell_irradiance of cell (x, y) at
    /// steps[k].  Bitwise identical to the scalar loop at any SIMD
    /// level; validates the cell and every step once (throws
    /// InvalidArgument).  This is the fixed-cell hot path of the
    /// IncrementalEvaluator's per-anchor series build.
    void cell_irradiance_series(int x, int y, std::span<const long> steps,
                                double* out) const;

    /// Unchecked fast path of cell_irradiance_series for callers that
    /// validated the cell and step span once at their own boundary
    /// (anchor_irradiance_series sweeping a footprint, suitability's
    /// per-cell sweep over one prevalidated sampled axis).
    /// Preconditions (debug-asserted): cell inside the window, every
    /// steps[k] in [0, steps()).
    void cell_irradiance_series_unchecked(int x, int y,
                                          std::span<const long> steps,
                                          double* out) const;

    /// Packed series kernel: out[k] = cell_irradiance of cell (x, y) at
    /// step packed_to_step()[p0 + k] for k in [0, p1 - p0) — the
    /// gather-free unit-stride sweep over daylight steps.  Bitwise
    /// identical to cell_irradiance_series on the corresponding original
    /// steps at any SIMD level.  cell_irradiance_series_unchecked calls
    /// this automatically when its step span is a contiguous daylight
    /// run (the stride-1 evaluator/suitability sweeps), so callers only
    /// need it when they already think in packed indices.  Validates the
    /// cell and packed range (throws InvalidArgument).
    void cell_irradiance_packed(int x, int y, long p0, long p1,
                                double* out) const;

    /// Unchecked fast path of cell_irradiance_packed.  Preconditions
    /// (debug-asserted): cell inside the window,
    /// 0 <= p0 <= p1 <= packed_steps().
    void cell_irradiance_packed_unchecked(int x, int y, long p0, long p1,
                                          double* out) const;

    /// Module temperature [deg C] at the cell: Tair + k * G.
    double cell_module_temperature(int x, int y, long s) const;

    /// Unshaded plane-of-array irradiance at step \p s (diagnostics: what a
    /// horizon-free cell with SVF=1 would receive).
    double plane_irradiance_unshaded(long s) const;

    /// Yearly unshaded plane-of-array insolation [kWh/m^2] (diagnostics).
    double unshaded_insolation_kwh_m2() const;

    /// Raw SoA plane view consumed by the batched kernels
    /// (irradiance_kernels.hpp).  Internal surface, exposed for the
    /// kernel micro-benchmarks and differential tests; pointers are
    /// invalidated by destroying the field.
    detail::FieldView view() const;

private:
    /// Validating step guard backing the public per-step methods.
    void check_step(long s) const {
        check_arg(s >= 0 && s < static_cast<long>(daylight_.size()),
                  "IrradianceField: step out of range");
    }

    geo::HorizonMap horizon_;
    pvfp::TimeGrid grid_;
    double tilt_rad_;
    double azimuth_rad_;
    FieldConfig config_;
    geo::NormalMap normals_;  ///< empty => uniform plane normal
    bool has_normals_ = false;
    /// Uniform plane normal (east, north, up).
    double plane_e_ = 0.0;
    double plane_n_ = 0.0;
    double plane_u_ = 1.0;

    // Per-step SoA planes (formerly one array-of-structs).  beam_eq is
    // the beam(+circumsolar) normal-equivalent magnitude [W/m^2]: a
    // cell's plane-of-array beam is beam_eq * max(0, n_cell . s).
    std::vector<float> beam_eq_;
    std::vector<float> sky_diffuse_;  ///< isotropic sky diffuse, in plane
    std::vector<float> reflected_;    ///< ground-reflected, in plane
    std::vector<float> temp_air_;
    std::vector<float> sun_azimuth_;
    std::vector<float> sun_elevation_;
    /// Sun unit vector (east, north, up).
    std::vector<float> sun_e_;
    std::vector<float> sun_n_;
    std::vector<float> sun_u_;
    std::vector<std::uint8_t> daylight_;
    /// Precomputed horizon interpolation per step: the batch kernels
    /// look up angles[hor_off{0,1}[s] + cell] and lerp with hor_frac[s];
    /// values replicate HorizonMap::horizon_at_unchecked bit for bit.
    std::vector<std::int32_t> hor_off0_;
    std::vector<std::int32_t> hor_off1_;
    std::vector<double> hor_frac_;
    /// Daylight-packed twins of the step planes above (bitwise copies,
    /// daylight steps only, in step order) plus the index maps between
    /// the two domains.  step_to_packed_ is -1 on night steps.
    std::vector<float> p_beam_eq_;
    std::vector<float> p_sky_diffuse_;
    std::vector<float> p_reflected_;
    std::vector<float> p_sun_elevation_;
    std::vector<float> p_sun_e_;
    std::vector<float> p_sun_n_;
    std::vector<float> p_sun_u_;
    std::vector<std::int32_t> p_hor_off0_;
    std::vector<std::int32_t> p_hor_off1_;
    std::vector<double> p_hor_frac_;
    std::vector<long> packed_to_step_;
    std::vector<long> step_to_packed_;
};

}  // namespace pvfp::solar
