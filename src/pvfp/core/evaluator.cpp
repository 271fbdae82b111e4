#include "pvfp/core/evaluator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "pvfp/pv/array.hpp"
#include "pvfp/util/error.hpp"
#include "pvfp/util/parallel.hpp"

namespace pvfp::core {
namespace {

/// Per-shard buffers of fold_energy.
struct FoldScratch {
    ModuleScratch module;
    std::vector<double> v;        ///< one string's voltage sum per sample
    std::vector<double> min_v;    ///< min over strings
    std::vector<double> panel_i;  ///< current sum over strings
    std::vector<double> ideal;
    std::vector<double> volt;
    std::vector<double> power;
    std::vector<double> wiring;
    std::vector<double> cur;   ///< n_strings x samples, string-major
    std::vector<double> loss;  ///< n_strings x samples, string-major
    /// This shard's string energies, then string wiring losses (kept
    /// here, not in the shared rows, so threads never share their lines).
    std::vector<double> string_sums;
};

}  // namespace

DaylightAxis sample_daylight(const solar::IrradianceField& field,
                             long stride) {
    check_arg(stride >= 1, "sample_daylight: stride must be >= 1");
    const long n_steps = field.steps();
    const long n_grid = (n_steps + stride - 1) / stride;
    const double step_h = field.time_grid().step_hours();
    DaylightAxis axis;
    for (long k = 0; k < n_grid; ++k) {
        if (k % kStepsPerShard == 0)
            axis.shard_offsets.push_back(axis.size());
        const long s = k * stride;
        if (!field.is_daylight(s)) continue;
        axis.steps.push_back(s);
        // The sampled step stands in for the next `stride` real steps —
        // except the last sample, which only represents the steps that
        // actually remain in the horizon.
        axis.dt_h.push_back(
            step_h * static_cast<double>(std::min(stride, n_steps - s)));
        axis.t_air.push_back(field.air_temperature(s));
    }
    axis.shard_offsets.push_back(axis.size());
    axis.pack = field.pack_steps(axis.steps);
    return axis;
}

double anchor_irradiance_unchecked(const PanelGeometry& g, int x, int y,
                                   const solar::IrradianceField& field,
                                   long step, ModuleIrradiance mode) {
    if (mode == ModuleIrradiance::AnchorCell) {
        return field.cell_irradiance_unchecked(x, y, step);
    }
    if (mode == ModuleIrradiance::WorstCell) {
        double worst = std::numeric_limits<double>::infinity();
        for (int yy = y; yy < y + g.k2; ++yy)
            for (int xx = x; xx < x + g.k1; ++xx)
                worst = std::min(
                    worst, field.cell_irradiance_unchecked(xx, yy, step));
        return worst;
    }
    double acc = 0.0;
    for (int yy = y; yy < y + g.k2; ++yy)
        for (int xx = x; xx < x + g.k1; ++xx)
            acc += field.cell_irradiance_unchecked(xx, yy, step);
    return acc / g.cell_count();
}

void anchor_irradiance_series(const PanelGeometry& g, int x, int y,
                              const solar::IrradianceField& field,
                              const solar::StepPack& pack, long p0, long p1,
                              ModuleIrradiance mode, double* out) {
    // Validate once here, not once per footprint cell.
    check_arg(x >= 0 && y >= 0 && x + g.k1 <= field.width() &&
                  y + g.k2 <= field.height(),
              "anchor_irradiance_series: footprint outside the field "
              "window");
    check_arg(p0 >= 0 && p0 <= p1 && p1 <= pack.size(),
              "anchor_irradiance_series: packed range out of range");
    field.footprint_irradiance_packed_unchecked(pack, x, y, g.k1, g.k2, mode,
                                                p0, p1, out);
}

pv::OperatingPoint sample_operating_point(const pv::EmpiricalModuleModel& model,
                                          double g, double t_air,
                                          double thermal_k) {
    return model.operating_point(g, t_air + thermal_k * g);
}

void sample_operating_points(const pv::EmpiricalModuleModel& model,
                             const double* g, const double* t_air,
                             double thermal_k, std::size_t n, double* power,
                             double* voltage, double* current) {
    bool valid = true;
    for (std::size_t k = 0; k < n; ++k) valid &= g[k] >= 0.0;
    check_arg(valid, "EmpiricalModuleModel::power: negative irradiance");
    for (std::size_t k = 0; k < n; ++k) {
        const pv::OperatingPoint op = model.operating_point_unchecked(
            g[k], t_air[k] + thermal_k * g[k]);
        power[k] = op.power_w;
        voltage[k] = op.voltage_v;
        current[k] = op.current_a;
    }
}

double module_irradiance(const Floorplan& plan, int module_index,
                         const solar::IrradianceField& field, long step,
                         ModuleIrradiance mode) {
    check_arg(module_index >= 0 && module_index < plan.module_count(),
              "module_irradiance: index out of range");
    check_arg(step >= 0 && step < field.steps(),
              "module_irradiance: step out of range");
    const ModulePlacement& m =
        plan.modules[static_cast<std::size_t>(module_index)];
    check_arg(m.x >= 0 && m.y >= 0 &&
                  m.x + plan.geometry.k1 <= field.width() &&
                  m.y + plan.geometry.k2 <= field.height(),
              "module_irradiance: module footprint outside the field "
              "window");
    return anchor_irradiance_unchecked(plan.geometry, m.x, m.y, field, step,
                                       mode);
}

EnergyTotals fold_energy(const DaylightAxis& axis, const pv::Topology& topology,
                         std::span<const double> extra_lengths,
                         const EvaluationOptions& options,
                         const ModuleRun& module_run) {
    const int m = topology.series;
    const int n_str = topology.strings;
    const bool wiring_on = options.include_wiring_loss;
    // Pooled across calls: a delta probe reuses the previous fold's
    // buffers instead of allocating them.
    static ScratchPool<FoldScratch> scratch_pool;
    // One row of totals per shard: energy, ideal, mismatch, wiring, then
    // n_str string energies and n_str string wiring losses.
    const std::size_t width = 4 + 2 * static_cast<std::size_t>(n_str);
    std::vector<double> rows(static_cast<std::size_t>(axis.shards()) * width,
                             0.0);

    // One shard per chunk.  The per-sample work is phrased as elementwise
    // passes over contiguous SoA streams — string voltage sums, the series
    // current min, the ideal-power sum, then the wiring / net folds — so
    // the compiler vectorizes each pass, while every accumulator is still
    // folded sample by sample in ascending k, string by string in
    // ascending j: the summation order pv::aggregate_panel and
    // pv::wiring_power_loss give per sample.
    parallel_for(0L, axis.shards(), 1L, [&](long c, long) {
        const std::size_t kb = static_cast<std::size_t>(
            axis.shard_offsets[static_cast<std::size_t>(c)]);
        const std::size_t ke = static_cast<std::size_t>(
            axis.shard_offsets[static_cast<std::size_t>(c) + 1]);
        const std::size_t nk = ke - kb;
        if (nk == 0) return;
        auto sc = scratch_pool.acquire();
        constexpr double kInf = std::numeric_limits<double>::infinity();
        sc->v.resize(nk);
        sc->min_v.assign(nk, kInf);
        sc->panel_i.assign(nk, 0.0);
        sc->ideal.assign(nk, 0.0);
        sc->volt.resize(nk);
        sc->power.resize(nk);
        sc->wiring.assign(nk, 0.0);
        sc->cur.resize(static_cast<std::size_t>(n_str) * nk);
        sc->loss.resize(static_cast<std::size_t>(n_str) * nk);

        double* const v = sc->v.data();
        double* const ideal = sc->ideal.data();
        double* const min_v = sc->min_v.data();
        double* const panel_i = sc->panel_i.data();
        for (int j = 0; j < n_str; ++j) {
            double* const cur =
                sc->cur.data() + static_cast<std::size_t>(j) * nk;
            std::fill(v, v + nk, 0.0);
            std::fill(cur, cur + nk, kInf);
            for (int i = 0; i < m; ++i) {
                const ModuleSeries s =
                    module_run(j * m + i, static_cast<long>(kb),
                               static_cast<long>(ke), sc->module);
                for (std::size_t k = 0; k < nk; ++k)
                    v[k] += s.voltage_v[k];
                for (std::size_t k = 0; k < nk; ++k)
                    cur[k] = std::min(cur[k], s.current_a[k]);
                for (std::size_t k = 0; k < nk; ++k)
                    ideal[k] += s.power_w[k];
            }
            for (std::size_t k = 0; k < nk; ++k)
                if (!std::isfinite(cur[k])) cur[k] = 0.0;
            for (std::size_t k = 0; k < nk; ++k)
                min_v[k] = std::min(min_v[k], v[k]);
            for (std::size_t k = 0; k < nk; ++k)
                panel_i[k] += cur[k];
        }
        double* const volt = sc->volt.data();
        double* const power = sc->power.data();
        for (std::size_t k = 0; k < nk; ++k)
            volt[k] = std::isfinite(min_v[k]) ? min_v[k] : 0.0;
        for (std::size_t k = 0; k < nk; ++k)
            power[k] = volt[k] * panel_i[k];

        double* const wiring = sc->wiring.data();
        if (wiring_on) {
            for (int j = 0; j < n_str; ++j) {
                const double extra =
                    extra_lengths[static_cast<std::size_t>(j)];
                check_arg(extra >= 0.0,
                          "wiring_power_loss: negative length");
                // ((R * extra) * I) * I: the association of
                // pv::wiring_power_loss.
                const double rl =
                    options.wiring.resistance_ohm_per_m * extra;
                const double* const cur =
                    sc->cur.data() + static_cast<std::size_t>(j) * nk;
                double* const loss =
                    sc->loss.data() + static_cast<std::size_t>(j) * nk;
                for (std::size_t k = 0; k < nk; ++k)
                    loss[k] = rl * cur[k] * cur[k];
                for (std::size_t k = 0; k < nk; ++k)
                    wiring[k] += loss[k];
            }
        }

        // Sample-order fold into the shard's totals (the reduction the
        // determinism contract pins).
        sc->string_sums.assign(2 * static_cast<std::size_t>(n_str), 0.0);
        double* const string_energy = sc->string_sums.data();
        double* const string_wiring = string_energy + n_str;
        double energy = 0.0;
        double ideal_e = 0.0;
        double mismatch = 0.0;
        double wiring_e = 0.0;
        for (std::size_t k = 0; k < nk; ++k) {
            const double dt_h = axis.dt_h[kb + k];
            if (wiring_on) {
                for (int j = 0; j < n_str; ++j)
                    string_wiring[j] +=
                        sc->loss[static_cast<std::size_t>(j) * nk + k] *
                        dt_h / 1000.0;
            }
            const double net = std::max(0.0, power[k] - wiring[k]);
            energy += net * dt_h / 1000.0;
            ideal_e += ideal[k] * dt_h / 1000.0;
            mismatch +=
                std::max(0.0, ideal[k] - power[k]) * dt_h / 1000.0;
            wiring_e += wiring[k] * dt_h / 1000.0;
            for (int j = 0; j < n_str; ++j)
                string_energy[j] +=
                    volt[k] *
                    sc->cur[static_cast<std::size_t>(j) * nk + k] *
                    dt_h / 1000.0;
        }
        double* const row = rows.data() + static_cast<std::size_t>(c) * width;
        row[0] = energy;
        row[1] = ideal_e;
        row[2] = mismatch;
        row[3] = wiring_e;
        std::copy(sc->string_sums.begin(), sc->string_sums.end(), row + 4);
    });

    // Merge the rows in shard order: the same bits at any thread count.
    EnergyTotals total;
    total.string_energy_kwh.assign(static_cast<std::size_t>(n_str), 0.0);
    total.string_wiring_loss_kwh.assign(static_cast<std::size_t>(n_str), 0.0);
    for (std::size_t at = 0; at < rows.size(); at += width) {
        const double* const row = rows.data() + at;
        total.energy_kwh += row[0];
        total.ideal_energy_kwh += row[1];
        total.mismatch_loss_kwh += row[2];
        total.wiring_loss_kwh += row[3];
        for (std::size_t j = 0; j < total.string_energy_kwh.size(); ++j) {
            total.string_energy_kwh[j] += row[4 + j];
            total.string_wiring_loss_kwh[j] += row[4 + n_str + j];
        }
    }
    return total;
}

EvaluationResult make_evaluation_result(const EnergyTotals& totals,
                                        std::span<const double> extra_lengths,
                                        const pv::WiringSpec& wiring) {
    EvaluationResult r;
    r.energy_kwh = totals.energy_kwh;
    r.ideal_energy_kwh = totals.ideal_energy_kwh;
    r.mismatch_loss_kwh = totals.mismatch_loss_kwh;
    r.wiring_loss_kwh = totals.wiring_loss_kwh;
    r.strings.resize(extra_lengths.size());
    for (std::size_t j = 0; j < extra_lengths.size(); ++j) {
        r.strings[j] = {totals.string_energy_kwh[j], extra_lengths[j],
                        totals.string_wiring_loss_kwh[j]};
        r.extra_cable_m += extra_lengths[j];
    }
    r.wiring_cost_usd = pv::wiring_cost(extra_lengths, wiring);
    return r;
}

void check_evaluation_inputs(const Floorplan& plan,
                             const geo::PlacementArea& area,
                             const solar::IrradianceField& field,
                             const EvaluationOptions& options,
                             const char* who) {
    std::string why;  // set by floorplan_feasible only
    const char* what =
        !floorplan_feasible(plan, area, &why) ? "infeasible plan: "
        : field.width() != area.width || field.height() != area.height
            ? "field window does not match area"
        : options.step_stride < 1 ? "step_stride must be >= 1"
                                  : nullptr;
    if (what) throw InvalidArgument(std::string(who) + ": " + what + why);
    pv::check_topology(plan.topology, plan.module_count());
}

EvaluationResult evaluate_floorplan(const Floorplan& plan,
                                    const geo::PlacementArea& area,
                                    const solar::IrradianceField& field,
                                    const pv::EmpiricalModuleModel& model,
                                    const EvaluationOptions& options) {
    check_evaluation_inputs(plan, area, field, options, "evaluate_floorplan");
    const auto extra_lengths = pv::panel_extra_lengths(
        plan.centers_m(area.cell_size), plan.topology, options.wiring);
    const double k_th = field.config().thermal_k;
    const DaylightAxis axis = sample_daylight(field, options.step_stride);

    const EnergyTotals totals = fold_energy(
        axis, plan.topology, extra_lengths, options,
        [&](int i, long kb, long ke, ModuleScratch& sc) {
            const std::size_t nk = static_cast<std::size_t>(ke - kb);
            sc.g.resize(nk);
            sc.power_w.resize(nk);
            sc.voltage_v.resize(nk);
            sc.current_a.resize(nk);
            const ModulePlacement& mp =
                plan.modules[static_cast<std::size_t>(i)];
            anchor_irradiance_series(plan.geometry, mp.x, mp.y, field,
                                     axis.pack, kb, ke,
                                     options.module_irradiance, sc.g.data());
            sample_operating_points(model, sc.g.data(), axis.t_air.data() + kb,
                                    k_th, nk, sc.power_w.data(),
                                    sc.voltage_v.data(), sc.current_a.data());
            return ModuleSeries{sc.power_w.data(), sc.voltage_v.data(),
                                sc.current_a.data()};
        });
    return make_evaluation_result(totals, extra_lengths, options.wiring);
}

}  // namespace pvfp::core
