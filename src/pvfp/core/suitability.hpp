#pragma once
/// \file suitability.hpp
/// The suitability metric of paper Section III-C.
///
/// For each valid grid cell, distill the year-long G and Tact traces into
/// a scalar: the k-th percentile of the irradiance distribution (k = 75 in
/// the paper; the mean is a poor summary because the distributions are
/// skewed toward small values), times a temperature correction factor f(T)
/// that "tracks dPmax/dT" — implemented as the module's linear power
/// derating evaluated at the percentile of the cell's actual temperature,
/// normalized to 1 at the reference temperature:
///
///   s_ij = pG75_ij * (p_off - gamma*Tp75_ij) / (p_off - gamma*Tref)
///
/// Percentiles are computed from fixed-range histograms (exact to bin
/// width).  Nothing per cell outlives the cell: steps that light no cell
/// (the nights) are binned once per roof into base counts, the remaining
/// sampled steps are packed once and swept per cell with the unit-stride
/// footprint kernel on a 1x1 footprint, and each cell counts into
/// per-thread scratch on top of the base counts before its outputs are
/// written.

#include "pvfp/geo/suitable_area.hpp"
#include "pvfp/solar/irradiance.hpp"
#include "pvfp/util/grid2d.hpp"

namespace pvfp::core {

/// Knobs of the suitability computation (ablated in bench A1).
struct SuitabilityOptions {
    /// Percentile of the irradiance distribution (paper: 75).
    double percentile = 75.0;
    /// Use the mean instead of a percentile (the "obvious choice" the
    /// paper argues against; kept for the ablation).
    bool use_mean = false;
    /// Apply the temperature correction factor f(T).
    bool temperature_correction = true;
    /// Restrict the distribution to daylight steps (sun above horizon).
    /// Default false = the paper's convention (the percentile is taken
    /// over all NT samples).  This matters: with nights included (~50% of
    /// samples), p75 falls near the *median of the daylight distribution*,
    /// where part-day shading moves the ranking; restricted to daylight
    /// it saturates at the clear-sky envelope and loses discrimination.
    bool daylight_only = false;
    /// Linear power-derating model for f(T) (matches the empirical module
    /// model's corrected coefficients).
    double derating_offset = 1.12;
    double derating_per_k = 0.0048;
    double reference_temp_c = 25.0;
    /// Histogram ranges/resolution.
    int bins = 256;
    double g_max = 1400.0;       ///< W/m^2
    double t_min_c = -30.0;
    double t_max_c = 100.0;
    /// Evaluate only every k-th time step (>=1); speeds tests up.
    long step_stride = 1;
};

/// Output: per-cell statistics over the placement area window.  Cells
/// outside the valid mask hold 0.
struct SuitabilityResult {
    /// The metric s_ij driving the greedy ranking.
    pvfp::Grid2D<double> suitability;
    /// k-th percentile of irradiance [W/m^2] — the map of paper Fig. 6(b).
    pvfp::Grid2D<double> g_percentile;
    /// k-th percentile of module temperature [deg C].
    pvfp::Grid2D<double> t_percentile;
};

/// Compute the suitability matrix for \p area from \p field.  The field's
/// window must match the area's grid (same width/height).
SuitabilityResult compute_suitability(const solar::IrradianceField& field,
                                      const geo::PlacementArea& area,
                                      const SuitabilityOptions& options = {});

/// The temperature correction factor f(T) alone (exposed for tests).
double temperature_correction_factor(double t_c,
                                     const SuitabilityOptions& options);

}  // namespace pvfp::core
