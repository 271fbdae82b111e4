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
/// weights (sector pair + fraction, fixed per step) are precomputed.
/// The one batched entry point sweeps a *packed* step axis: pack_steps()
/// copies the per-step planes of any step list into a StepPack,
/// contiguous in list order, and footprint_irradiance_packed_unchecked
/// sweeps a pack unit-stride for one module footprint — no lanes for
/// unlisted steps — loading each step's planes once and folding the
/// footprint's cells in registers.  It is *bitwise identical* to the
/// scalar cell_irradiance_unchecked per cell and step, folded in (y, x)
/// cell order, at any SIMD level (see util/simd.hpp for the dispatch
/// contract).  Every batched caller (compute_suitability with 1x1
/// footprints, evaluate_floorplan, the IncrementalEvaluator,
/// ideal_anchor_energies) packs its sampled axis once per call.

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

/// How a multi-cell module footprint aggregates its cells' irradiance.
enum class ModuleIrradiance {
    FootprintMean,  ///< average over covered cells (default, physical)
    WorstCell,      ///< pessimistic: minimum over covered cells
    /// The paper's granularity: the module takes the G/T of its anchor
    /// grid point ("each grid point has a specific value of G and T",
    /// Section III-A).  Cell-scale variance then transfers 1:1 into
    /// module output instead of averaging out — required to reproduce
    /// Table I magnitudes; see the evaluation-granularity ablation.
    AnchorCell,
};

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

/// The per-step planes the footprint kernel reads, over a list of steps:
/// entry k holds bitwise copies of the values of step steps[k], so a
/// kernel sweeping a pack reproduces the scalar per-step values bit for
/// bit.  The field keeps its own planes over all its steps in one, and
/// IrradianceField::pack_steps builds packs over any step list; a pack is
/// only valid with the field that built it.
///
/// The float planes share one block, as do the two offset planes, and
/// each plane is an odd number of 64-byte lines long, so one step's
/// entries of different planes never share an L1 set.  (As separate
/// year-long vectors, each can be page-aligned by the allocator; the
/// kernels read nine planes per step, and those would all map to one
/// set.)
class StepPack {
public:
    /// The float planes.  beam_eq is the beam(+circumsolar)
    /// normal-equivalent magnitude [W/m^2]: a cell's plane-of-array beam
    /// is beam_eq * max(0, n_cell . s).  sky_diffuse (isotropic) and
    /// reflected (ground) are in-plane terms; sun_e/n/u is the sun unit
    /// vector (east, north, up).
    enum Plane : std::size_t {
        kBeamEq,
        kSkyDiffuse,
        kReflected,
        kSunElevation,
        kSunE,
        kSunN,
        kSunU,
        kPlanes
    };

    StepPack() = default;
    /// Zero-filled planes for \p n steps.
    explicit StepPack(std::size_t n)
        : n_(n), stride_((((n + 15) / 16) | 1) * 16),
          planes_(kPlanes * stride_), hor_off_(2 * stride_), hor_frac_(n) {}

    long size() const { return static_cast<long>(n_); }

    const float* plane(Plane p) const {
        return planes_.data() + p * stride_;
    }
    float* plane(Plane p) { return planes_.data() + p * stride_; }

    /// Horizon interpolation per step: angle-plane offsets of the two
    /// sectors (\p i = 0, 1) bracketing the sun azimuth, already
    /// multiplied by the cell count, and the interpolation fraction.
    const std::int32_t* hor_off(int i) const {
        return hor_off_.data() + static_cast<std::size_t>(i) * stride_;
    }
    std::int32_t* hor_off(int i) {
        return hor_off_.data() + static_cast<std::size_t>(i) * stride_;
    }
    const double* hor_frac() const { return hor_frac_.data(); }
    double* hor_frac() { return hor_frac_.data(); }

private:
    std::size_t n_ = 0;
    std::size_t stride_ = 0;  ///< entries from one plane to the next
    std::vector<float> planes_;
    std::vector<std::int32_t> hor_off_;
    std::vector<double> hor_frac_;
};

namespace detail {

/// Raw pointer view of one StepPack's planes plus the field's cell
/// planes, consumed by the scalar and AVX-512 footprint kernels
/// (irradiance_kernels.hpp).  Pointers stay valid while both the owning
/// IrradianceField and the pack live.
struct FieldView {
    // Packed step planes (entry k = the pack's k-th step), read
    // unit-stride: bitwise copies of the field's step planes.
    const float* beam_eq = nullptr;
    const float* sky_diffuse = nullptr;
    const float* reflected = nullptr;
    const float* sun_elevation = nullptr;
    const float* sun_e = nullptr;
    const float* sun_n = nullptr;
    const float* sun_u = nullptr;
    /// Horizon interpolation per packed step: angle-plane offsets of the
    /// two sectors bracketing the sun azimuth (already multiplied by the
    /// cell count) and the interpolation fraction.
    const std::int32_t* hor_off0 = nullptr;
    const std::int32_t* hor_off1 = nullptr;
    const double* hor_frac = nullptr;
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

    /// True when step \p s puts the same G on every cell: no beam reaches
    /// any cell (beam_eq <= 0 or the sun at or below the horizon) and the
    /// sky-diffuse plane is zero, so G = reflected + svf * 0.  Exact for
    /// every cell with a finite sky-view factor; compute_suitability bins
    /// such steps once per roof instead of once per cell.
    bool is_cell_invariant(long s) const {
        check_step(s);
        const std::size_t si = static_cast<std::size_t>(s);
        return !(steps_.plane(StepPack::kBeamEq)[si] > 0.0f &&
                 static_cast<double>(
                     steps_.plane(StepPack::kSunElevation)[si]) > 0.0) &&
               steps_.plane(StepPack::kSkyDiffuse)[si] == 0.0f;
    }

    /// Sun position at step \p s.
    SunPosition sun(long s) const {
        check_step(s);
        const std::size_t si = static_cast<std::size_t>(s);
        return SunPosition{sun_azimuth_[si],
                           steps_.plane(StepPack::kSunElevation)[si]};
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
    /// (the anchor oracle, suitability's folded steps).  Precondition
    /// (debug-asserted): cell inside the window and 0 <= s < steps().
    double cell_irradiance_unchecked(int x, int y, long s) const;

    /// Pack the per-step planes over \p steps (any list of steps in
    /// range, typically a sorted sampled axis): entry k of the result is
    /// step steps[k].  Validates every step (throws InvalidArgument).
    StepPack pack_steps(std::span<const long> steps) const;

    /// out[k] = cell_irradiance of cell (x, y) at the step \p pack holds
    /// at index p0 + k, for k in [0, p1 - p0): the batched kernel on a
    /// 1x1 footprint.  \p pack must come from this field's pack_steps.
    /// Validates the cell and packed range (throws InvalidArgument).
    void cell_irradiance_packed(const StepPack& pack, int x, int y, long p0,
                                long p1, double* out) const;

    /// The batched kernel: out[k] = the irradiance of the k1 x k2
    /// footprint anchored at (x, y) at the step \p pack holds at index
    /// p0 + k, for k in [0, p1 - p0), aggregated by \p mode:
    /// FootprintMean sums the cells in (y, x) order from +0.0 and
    /// divides by k1 * k2; WorstCell folds std::min(acc, cell) from
    /// +Inf in the same order; AnchorCell writes cell (x, y) alone.
    /// Bitwise identical to that fold of cell_irradiance_unchecked at
    /// any SIMD level.  \p pack must come from this field's pack_steps.
    /// Preconditions (debug-asserted): k1, k2 >= 1, footprint inside the
    /// window, 0 <= p0 <= p1 <= pack.size().
    void footprint_irradiance_packed_unchecked(const StepPack& pack, int x,
                                               int y, int k1, int k2,
                                               ModuleIrradiance mode,
                                               long p0, long p1,
                                               double* out) const;

    /// Module temperature [deg C] at the cell: Tair + k * G.
    double cell_module_temperature(int x, int y, long s) const;

    /// Unshaded plane-of-array irradiance at step \p s (diagnostics: what a
    /// horizon-free cell with SVF=1 would receive).
    double plane_irradiance_unshaded(long s) const;

    /// Yearly unshaded plane-of-array insolation [kWh/m^2] (diagnostics).
    double unshaded_insolation_kwh_m2() const;

private:
    /// Raw SoA plane view of \p pack and the cell planes, consumed by
    /// the footprint kernels (irradiance_kernels.hpp); pointers are
    /// invalidated by destroying the field or the pack.
    detail::FieldView view(const StepPack& pack) const;

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

    /// The per-step planes over all steps (the identity pack: what
    /// pack_steps copies from and the scalar path reads), plus the
    /// per-step values only the scalar paths read.
    /// steps_'s horizon interpolation replicates
    /// HorizonMap::horizon_at_unchecked bit for bit.
    StepPack steps_;
    std::vector<float> temp_air_;
    std::vector<float> sun_azimuth_;
    std::vector<std::uint8_t> daylight_;
};

}  // namespace pvfp::solar
