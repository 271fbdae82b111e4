#pragma once
/// \file module.hpp
/// Empirical PV module model (paper Section III-B1).
///
/// The paper derives, from the Mitsubishi PV-MF165EB3 datasheet plots, an
/// empirical model of the module's maximum-power operating point as a
/// function of plane-of-array irradiance G and actual module temperature
/// Tact = Tair + k*G:
///
///   Pmodule(G,T) = Pref * (1.12 - 0.0048*Tact) * 1e-3 * G
///   Vmodule(G,T) = Vmp_ref * (1.08 - 0.0034*Tact) * (0.875 + 0.000125*G)
///   Imodule(G,T) = Pmodule / Vmodule
///
/// NOTE on coefficients: the paper prints 0.048 and 0.34, which give
/// negative power/voltage at 25 degC; the values are off by 10x/100x and
/// are corrected here to reproduce the datasheet STC point exactly
/// (165 W, 24 V at G=1000 W/m^2, Tact=25 C) — see DESIGN.md "Paper typo
/// corrections".  The temperature coefficients match the datasheet's
/// -0.48 %/K (power) and -0.345 %/K (Voc).

#include <algorithm>
#include <string>

namespace pvfp::pv {

/// Geometric and electrical datasheet parameters of one PV module.
struct ModuleSpec {
    std::string name = "Mitsubishi PV-MF165EB3";
    /// Plan dimensions [m]: the paper's 160 x 80 cm module, an exact
    /// multiple of the s = 20 cm grid (k1 = 8, k2 = 4 cells).
    double width_m = 1.60;
    double height_m = 0.80;
    /// STC reference values (datasheet).
    double p_max_ref_w = 165.0;
    double voc_ref_v = 30.4;
    double isc_ref_a = 7.36;
    double vmp_ref_v = 24.0;   ///< ~80% of Voc (paper model step 4)
    /// Empirical model coefficients (paper equations, corrected).
    double p_offset = 1.12;
    double p_temp_coeff = 0.0048;   ///< [1/K]
    double v_offset = 1.08;
    double v_temp_coeff = 0.0034;   ///< [1/K]
    double v_g_offset = 0.875;
    double v_g_slope = 0.000125;    ///< [m^2/W]
    /// Cells in series (used by the one-diode extension).
    int cells_in_series = 50;
};

/// A module's electrical operating point (assumed at maximum power,
/// paper Section III-B1: "each module extracts the maximum power").
struct OperatingPoint {
    double power_w = 0.0;
    double voltage_v = 0.0;
    double current_a = 0.0;
};

/// The paper's empirical maximum-power model.
class EmpiricalModuleModel {
public:
    explicit EmpiricalModuleModel(ModuleSpec spec = {});

    const ModuleSpec& spec() const { return spec_; }

    /// Module area [m^2].
    double area_m2() const { return spec_.width_m * spec_.height_m; }

    /// Maximum power [W] at plane-of-array irradiance \p g [W/m^2] and
    /// actual module temperature \p tact_c [deg C].  Clamped at >= 0.
    double power(double g, double tact_c) const;

    /// Maximum-power voltage [V]; clamped at >= 0.
    double voltage(double g, double tact_c) const;

    /// Maximum-power current [A] = P/V (0 when V == 0).
    double current(double g, double tact_c) const;

    /// All three at once.
    OperatingPoint operating_point(double g, double tact_c) const;

    /// operating_point without the g >= 0 check, for callers that
    /// validated their samples once (core::sample_operating_points).  The
    /// one copy of the model's arithmetic — every accessor above runs
    /// it — and branch-free, so a loop over samples vectorizes.
    OperatingPoint operating_point_unchecked(double g, double tact_c) const {
        const double p_derate = spec_.p_offset - spec_.p_temp_coeff * tact_c;
        const double p =
            std::max(0.0, spec_.p_max_ref_w * p_derate * 1e-3 * g);
        // No illumination, no operating point.
        const double v_derate = spec_.v_offset - spec_.v_temp_coeff * tact_c;
        const double g_term = spec_.v_g_offset + spec_.v_g_slope * g;
        const double v =
            g == 0.0 ? 0.0
                     : std::max(0.0, spec_.vmp_ref_v * v_derate * g_term);
        return {p, v, v > 0.0 ? p / v : 0.0};
    }

    /// Tact = Tair + k*G (paper Section III-B1 step 3; k = alpha/h_c).
    static double actual_temperature(double t_air_c, double g,
                                     double thermal_k);

private:
    ModuleSpec spec_;
};

}  // namespace pvfp::pv
