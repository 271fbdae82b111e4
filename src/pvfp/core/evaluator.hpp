#pragma once
/// \file evaluator.hpp
/// Yearly energy evaluation of a floorplan (the objective of the paper's
/// optimization, Section III-A: "maximize the energy extracted in the
/// interval [0, NT]").
///
/// Per time step: each module sees the mean plane-of-array irradiance over
/// its footprint cells (option: worst cell), its actual temperature
/// Tact = Tair + k*G, and operates at its empirical maximum power point;
/// modules aggregate through the series-parallel min-rules (pv::array) and
/// the sparse placement pays the per-string wiring loss R*Lextra*I^2
/// (pv::wiring).  Integration uses the midpoint rule over the TimeGrid.
///
/// Every evaluation path (evaluate_floorplan, the IncrementalEvaluator,
/// ideal_anchor_energies) samples its time axis through one function,
/// sample_daylight: the stride-sampled daylight steps, their billed
/// hours and air temperatures, the fixed shard grid the energy fold
/// follows, and the steps packed once into a solar::StepPack.  Module
/// irradiance series then come from anchor_irradiance_series sweeping a
/// run of that pack through the field's one batched kernel
/// (IrradianceField::footprint_irradiance_packed_unchecked), and their
/// operating points from the batched sample_operating_points.
///
/// Both evaluators integrate the energy through one function,
/// fold_energy: they differ only in where a module's operating points
/// come from (evaluate_floorplan computes them per shard on demand, the
/// IncrementalEvaluator reads its cached per-anchor series), so they
/// produce the same bits by construction.

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "pvfp/core/layout.hpp"
#include "pvfp/pv/wiring.hpp"
#include "pvfp/solar/irradiance.hpp"

namespace pvfp::core {

/// How a multi-cell module aggregates its footprint irradiance (the
/// field's footprint kernel folds it, so the enum lives with the field).
using ModuleIrradiance = solar::ModuleIrradiance;

struct EvaluationOptions {
    pv::WiringSpec wiring{};
    bool include_wiring_loss = true;
    ModuleIrradiance module_irradiance = ModuleIrradiance::FootprintMean;
    /// Evaluate every k-th step; each sampled step is billed for the real
    /// steps it represents (k, clamped for the trailing interval when the
    /// horizon is not a multiple of k).  Exact at 1.
    long step_stride = 1;
};

/// Stride-grid samples per evaluation shard.  Fixed (independent of the
/// thread count) so the shard grid — and therefore the order in which
/// partial energies are merged — is reproducible at any parallelism.
inline constexpr long kStepsPerShard = 256;

/// The sampled daylight axis of an evaluation: every step_stride-th step
/// of the field, night steps dropped.  Entry k of steps / dt_h / t_air /
/// pack describes the same sample.
struct DaylightAxis {
    std::vector<long> steps;    ///< sampled daylight steps, ascending
    /// Hours each sample is billed for: the stride, clamped for the
    /// trailing interval when the horizon is not a multiple of it.
    std::vector<double> dt_h;
    std::vector<double> t_air;  ///< air temperature [deg C] per sample
    /// Shard c covers stride-grid samples [c, c + 1) * kStepsPerShard;
    /// its daylight samples are [shard_offsets[c], shard_offsets[c + 1]).
    std::vector<long> shard_offsets;
    solar::StepPack pack;  ///< the field's step planes over steps

    long size() const { return static_cast<long>(steps.size()); }
    long shards() const {
        return static_cast<long>(shard_offsets.size()) - 1;
    }
};

/// Build the sampled daylight axis of \p field at \p stride (>= 1,
/// checked).
DaylightAxis sample_daylight(const solar::IrradianceField& field,
                             long stride);

/// Per-string breakdown.
struct StringEnergy {
    double energy_kwh = 0.0;       ///< string share of panel energy (V*Ij)
    double extra_cable_m = 0.0;
    double wiring_loss_kwh = 0.0;
};

/// Totals over the horizon.
struct EvaluationResult {
    /// Net extracted energy (panel minus wiring losses) [kWh].
    double energy_kwh = 0.0;
    /// Energy with ideal per-module MPPT (no mismatch, no wiring) [kWh].
    double ideal_energy_kwh = 0.0;
    /// Series/parallel mismatch loss [kWh].
    double mismatch_loss_kwh = 0.0;
    /// Wiring loss [kWh] and material.
    double wiring_loss_kwh = 0.0;
    double extra_cable_m = 0.0;
    double wiring_cost_usd = 0.0;
    std::vector<StringEnergy> strings;

    double net_mwh() const { return energy_kwh / 1000.0; }
};

/// The time-integrated slice of EvaluationResult: what fold_energy sums.
struct EnergyTotals {
    double energy_kwh = 0.0;
    double ideal_energy_kwh = 0.0;
    double mismatch_loss_kwh = 0.0;
    double wiring_loss_kwh = 0.0;
    std::vector<double> string_energy_kwh;       ///< per string
    std::vector<double> string_wiring_loss_kwh;  ///< per string
};

/// One module's operating points over the packed samples [kb, ke) of a
/// fold: ke - kb values behind each pointer.
struct ModuleSeries {
    const double* power_w = nullptr;
    const double* voltage_v = nullptr;
    const double* current_a = nullptr;
};

/// Buffers a ModuleRun may fill and point its ModuleSeries into.  One
/// per fold shard; pooled across folds, so sized by the callee.
struct ModuleScratch {
    std::vector<double> g;  ///< irradiance series
    std::vector<double> power_w;
    std::vector<double> voltage_v;
    std::vector<double> current_a;
};

/// module_run(i, kb, ke, scratch): module i's operating points over the
/// packed samples [kb, ke).  The series must stay valid until the next
/// call with the same scratch.
using ModuleRun =
    std::function<ModuleSeries(int, long, long, ModuleScratch&)>;

/// The one energy arithmetic of the evaluators (paper Sections III-A and
/// III-B1).  Per shard of \p axis and per sample: string voltage sums and
/// series current minima over each string's modules (series-first order,
/// module j*m + i is module i of string j), the ideal-power sum, the
/// panel voltage min / current sum, the per-string wiring loss
/// R * Lextra_j * I_j^2 when options.include_wiring_loss, then a fold of
/// every total in sample order.  Shards merge in shard order, so the
/// result is the same bits at any thread count.  \p extra_lengths holds
/// one length per string; the topology must already be checked against
/// the module count.  Per-shard scratch is pooled across calls, so a
/// fold allocates little more than one row of totals per shard.
EnergyTotals fold_energy(const DaylightAxis& axis, const pv::Topology& topology,
                         std::span<const double> extra_lengths,
                         const EvaluationOptions& options,
                         const ModuleRun& module_run);

/// \p totals with the geometry-only fields (per-string extra cable, its
/// sum and its cost) filled in from \p extra_lengths.
EvaluationResult make_evaluation_result(const EnergyTotals& totals,
                                        std::span<const double> extra_lengths,
                                        const pv::WiringSpec& wiring);

/// The boundary checks of both evaluators (throw InvalidArgument with
/// \p who as the message prefix): a feasible plan, a field window equal
/// to the area, stride >= 1, a topology matching the module count.
/// Feasibility puts every footprint inside the field window, which is
/// what lets the folds use the unchecked field accessors.
void check_evaluation_inputs(const Floorplan& plan,
                             const geo::PlacementArea& area,
                             const solar::IrradianceField& field,
                             const EvaluationOptions& options,
                             const char* who);

/// Evaluate \p plan against \p field with \p model: check_evaluation_inputs,
/// sample_daylight, then fold_energy over each module's footprint series
/// and operating points, computed per shard on demand.
EvaluationResult evaluate_floorplan(const Floorplan& plan,
                                    const geo::PlacementArea& area,
                                    const solar::IrradianceField& field,
                                    const pv::EmpiricalModuleModel& model,
                                    const EvaluationOptions& options = {});

/// Footprint irradiance of one module at one step (exposed for tests);
/// validates the module index, the step, and that the module footprint
/// lies inside the field window.
double module_irradiance(const Floorplan& plan, int module_index,
                         const solar::IrradianceField& field, long step,
                         ModuleIrradiance mode);

/// Footprint irradiance of a geometry-sized footprint anchored at (x, y)
/// at one step: the scalar oracle of anchor_irradiance_series, folding
/// cell_irradiance_unchecked over the footprint cells in (y, x) order.
/// Preconditions (footprint inside the field window, step in range) are
/// debug-asserted only — validate at the call-site boundary.
double anchor_irradiance_unchecked(const PanelGeometry& geometry, int x, int y,
                                   const solar::IrradianceField& field,
                                   long step, ModuleIrradiance mode);

/// Batched footprint irradiance: out[k] = anchor_irradiance_unchecked of
/// the footprint anchored at (x, y) at the step \p pack holds at index
/// p0 + k, for k in [0, p1 - p0) — bitwise identical to that per-step
/// loop (the field's footprint kernel loads each packed step once and
/// folds the cells in the same order in registers).  This is the
/// per-module hot path of evaluate_floorplan's fold shards, the
/// IncrementalEvaluator's series build, and ideal_anchor_energies.
/// \p pack must come from \p field's pack_steps.  Validates the
/// footprint and the packed range once (throws InvalidArgument).
void anchor_irradiance_series(const PanelGeometry& geometry, int x, int y,
                              const solar::IrradianceField& field,
                              const solar::StepPack& pack, long p0, long p1,
                              ModuleIrradiance mode, double* out);

/// Operating point of one module seeing irradiance \p g at air temperature
/// \p t_air: Tact = Tair + k*G (paper Section III-B1), then the empirical
/// maximum-power model.  Deliberately a non-inline shared kernel so the
/// full and incremental evaluators produce the same bits.
pv::OperatingPoint sample_operating_point(const pv::EmpiricalModuleModel& model,
                                          double g, double t_air,
                                          double thermal_k);

/// Batched sample_operating_point over \p n samples, in structure-of-
/// arrays form: for each k, {power[k], voltage[k], current[k]} is
/// sample_operating_point(model, g[k], t_air[k], thermal_k), bit for bit.
/// Validates once, before writing anything: any !(g[k] >= 0) (negative
/// or NaN) throws the InvalidArgument of the scalar call.  The loop is
/// branch-free so the compiler vectorizes it.
void sample_operating_points(const pv::EmpiricalModuleModel& model,
                             const double* g, const double* t_air,
                             double thermal_k, std::size_t n, double* power,
                             double* voltage, double* current);

}  // namespace pvfp::core
