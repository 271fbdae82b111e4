#include "pvfp/core/evaluator.hpp"

#include <algorithm>
#include <limits>
#include <string>

#include "pvfp/pv/array.hpp"
#include "pvfp/util/error.hpp"
#include "pvfp/util/parallel.hpp"

namespace pvfp::core {
namespace {

/// Per-shard accumulator: the time-dependent slice of EvaluationResult.
/// Shards cover disjoint step ranges and are merged in shard order, so
/// the fold is associative-by-construction and bitwise-reproducible.
struct Partial {
    double energy_kwh = 0.0;
    double ideal_energy_kwh = 0.0;
    double mismatch_loss_kwh = 0.0;
    double wiring_loss_kwh = 0.0;
    std::vector<double> string_energy_kwh;
    std::vector<double> string_wiring_loss_kwh;

    explicit Partial(std::size_t n_strings = 0)
        : string_energy_kwh(n_strings, 0.0),
          string_wiring_loss_kwh(n_strings, 0.0) {}
};

Partial merge(Partial acc, const Partial& p) {
    acc.energy_kwh += p.energy_kwh;
    acc.ideal_energy_kwh += p.ideal_energy_kwh;
    acc.mismatch_loss_kwh += p.mismatch_loss_kwh;
    acc.wiring_loss_kwh += p.wiring_loss_kwh;
    for (std::size_t j = 0; j < acc.string_energy_kwh.size(); ++j) {
        acc.string_energy_kwh[j] += p.string_energy_kwh[j];
        acc.string_wiring_loss_kwh[j] += p.string_wiring_loss_kwh[j];
    }
    return acc;
}

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

EvaluationResult evaluate_floorplan(const Floorplan& plan,
                                    const geo::PlacementArea& area,
                                    const solar::IrradianceField& field,
                                    const pv::EmpiricalModuleModel& model,
                                    const EvaluationOptions& options) {
    std::string why;
    check_arg(floorplan_feasible(plan, area, &why),
              "evaluate_floorplan: infeasible plan: " + why);
    check_arg(field.width() == area.width && field.height() == area.height,
              "evaluate_floorplan: field window does not match area");
    check_arg(options.step_stride >= 1,
              "evaluate_floorplan: step_stride must be >= 1");
    pv::check_topology(plan.topology, plan.module_count());
    // Boundary validation complete: feasibility puts every module
    // footprint inside the area (== the field window) and the step loops
    // below stay inside [0, steps) by construction, so the inner loops
    // use the unchecked field accessors.

    const int n_modules = plan.module_count();
    const int n_strings = plan.topology.strings;

    // Wiring overhead is a property of the geometry, not of time.
    const auto centers = plan.centers_m(area.cell_size);
    const auto extra_lengths =
        pv::panel_extra_lengths(centers, plan.topology, options.wiring);

    EvaluationResult result;
    result.strings.resize(static_cast<std::size_t>(n_strings));
    for (int j = 0; j < n_strings; ++j) {
        result.strings[static_cast<std::size_t>(j)].extra_cable_m =
            extra_lengths[static_cast<std::size_t>(j)];
        result.extra_cable_m += extra_lengths[static_cast<std::size_t>(j)];
    }
    result.wiring_cost_usd = pv::wiring_cost(extra_lengths, options.wiring);

    const double k_th = field.config().thermal_k;
    const DaylightAxis axis = sample_daylight(field, options.step_stride);

    // One map call per shard, each accumulating its own Partial; the
    // partials merge in shard order.  Per shard, each module's irradiance
    // series comes from the footprint kernel and its operating points
    // from the batched model, into module-major SoA planes; each sampled
    // step then aggregates the panel without allocating.  Scratch comes
    // from a pool so a shard reuses the previous shard's allocations.
    struct ShardScratch {
        std::vector<double> g;      ///< one module's irradiance series
        std::vector<double> power;  ///< n_modules x shard samples
        std::vector<double> voltage;
        std::vector<double> current;
        std::vector<pv::OperatingPoint> points;
        pv::PanelOperating panel;
    };
    ScratchPool<ShardScratch> scratch_pool;

    const Partial total = parallel_reduce(
        0L, axis.shards(), 1L, Partial(static_cast<std::size_t>(n_strings)),
        [&](long c, long) {
            Partial p(static_cast<std::size_t>(n_strings));
            const long kb = axis.shard_offsets[static_cast<std::size_t>(c)];
            const long ke =
                axis.shard_offsets[static_cast<std::size_t>(c) + 1];
            const std::size_t nk = static_cast<std::size_t>(ke - kb);
            if (nk == 0) return p;
            auto scratch = scratch_pool.acquire();
            const std::size_t planes =
                static_cast<std::size_t>(n_modules) * nk;
            scratch->g.resize(nk);
            scratch->power.resize(planes);
            scratch->voltage.resize(planes);
            scratch->current.resize(planes);
            for (int i = 0; i < n_modules; ++i) {
                const ModulePlacement& m =
                    plan.modules[static_cast<std::size_t>(i)];
                anchor_irradiance_series(plan.geometry, m.x, m.y, field,
                                         axis.pack, kb, ke,
                                         options.module_irradiance,
                                         scratch->g.data());
                const std::size_t at = static_cast<std::size_t>(i) * nk;
                sample_operating_points(
                    model, scratch->g.data(),
                    axis.t_air.data() + kb, k_th, nk,
                    scratch->power.data() + at, scratch->voltage.data() + at,
                    scratch->current.data() + at);
            }
            std::vector<pv::OperatingPoint>& points = scratch->points;
            points.resize(static_cast<std::size_t>(n_modules));
            pv::PanelOperating& panel = scratch->panel;
            for (std::size_t k = 0; k < nk; ++k) {
                const double dt_h =
                    axis.dt_h[static_cast<std::size_t>(kb) + k];
                for (std::size_t i = 0, at = k; i < points.size();
                     ++i, at += nk)
                    points[i] = {scratch->power[at], scratch->voltage[at],
                                 scratch->current[at]};
                pv::aggregate_panel(points, plan.topology, panel);

                double wiring_w = 0.0;
                if (options.include_wiring_loss) {
                    for (int j = 0; j < n_strings; ++j) {
                        const double loss = pv::wiring_power_loss(
                            extra_lengths[static_cast<std::size_t>(j)],
                            panel.strings[static_cast<std::size_t>(j)]
                                .current_a,
                            options.wiring);
                        wiring_w += loss;
                        p.string_wiring_loss_kwh[static_cast<std::size_t>(
                            j)] += loss * dt_h / 1000.0;
                    }
                }

                const double net_w = std::max(0.0, panel.power_w - wiring_w);
                p.energy_kwh += net_w * dt_h / 1000.0;
                p.ideal_energy_kwh += panel.ideal_power_w * dt_h / 1000.0;
                p.mismatch_loss_kwh += panel.mismatch_loss_w * dt_h / 1000.0;
                p.wiring_loss_kwh += wiring_w * dt_h / 1000.0;
                for (int j = 0; j < n_strings; ++j) {
                    p.string_energy_kwh[static_cast<std::size_t>(j)] +=
                        panel.voltage_v *
                        panel.strings[static_cast<std::size_t>(j)]
                            .current_a *
                        dt_h / 1000.0;
                }
            }
            return p;
        },
        merge);

    result.energy_kwh = total.energy_kwh;
    result.ideal_energy_kwh = total.ideal_energy_kwh;
    result.mismatch_loss_kwh = total.mismatch_loss_kwh;
    result.wiring_loss_kwh = total.wiring_loss_kwh;
    for (int j = 0; j < n_strings; ++j) {
        result.strings[static_cast<std::size_t>(j)].energy_kwh =
            total.string_energy_kwh[static_cast<std::size_t>(j)];
        result.strings[static_cast<std::size_t>(j)].wiring_loss_kwh =
            total.string_wiring_loss_kwh[static_cast<std::size_t>(j)];
    }
    return result;
}

}  // namespace pvfp::core
