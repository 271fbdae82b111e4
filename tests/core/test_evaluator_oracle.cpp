/// Independent oracle of the evaluators' energy arithmetic.
///
/// evaluate_floorplan and the IncrementalEvaluator integrate through the
/// same core::fold_energy, so comparing them with each other no longer
/// checks two implementations.  This suite keeps a second one: a per-step
/// reference built only from the scalar building blocks
/// (anchor_irradiance_unchecked, sample_operating_point,
/// pv::aggregate_panel, pv::wiring_power_loss), summed per
/// kStepsPerShard shard of the stride grid and merged in shard order.
/// Both evaluators must equal it bitwise for every irradiance mode,
/// several strides, wiring loss on and off, a solstice and a polar-night
/// field, 1 and 8 threads, and every runnable SIMD level.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "../test_helpers.hpp"
#include "pvfp/core/evaluator.hpp"
#include "pvfp/core/incremental_evaluator.hpp"
#include "pvfp/pv/array.hpp"
#include "pvfp/pv/wiring.hpp"
#include "pvfp/util/parallel.hpp"
#include "pvfp/util/simd.hpp"

namespace pvfp::core {
namespace {

using pvfp::testing::ShadedSetup;

/// Restores auto dispatch and the default pool size on exit.
struct Restore {
    ~Restore() {
        set_simd_level_auto();
        set_thread_count(0);
    }
};

Floorplan base_plan() {
    Floorplan plan;
    plan.geometry = {4, 2};
    plan.topology = {2, 2};
    plan.modules = {{0, 0}, {4, 0}, {0, 6}, {12, 6}};
    return plan;
}

/// One shard's sums, in the field order of EvaluationResult.
struct Sums {
    double energy = 0.0;
    double ideal = 0.0;
    double mismatch = 0.0;
    double wiring = 0.0;
    std::vector<double> string_energy;
    std::vector<double> string_wiring;
};

/// The per-step reference evaluation.
EvaluationResult oracle(const Floorplan& plan, const geo::PlacementArea& area,
                        const solar::IrradianceField& field,
                        const pv::EmpiricalModuleModel& model,
                        const EvaluationOptions& options) {
    const std::size_t n_str = static_cast<std::size_t>(plan.topology.strings);
    const std::vector<double> extra = pv::panel_extra_lengths(
        plan.centers_m(area.cell_size), plan.topology, options.wiring);
    const long stride = options.step_stride;
    const long n_steps = field.steps();
    const long n_grid = (n_steps + stride - 1) / stride;
    const double step_h = field.time_grid().step_hours();

    std::vector<Sums> shards;
    std::vector<pv::OperatingPoint> points(plan.modules.size());
    for (long k = 0; k < n_grid; ++k) {
        if (k % kStepsPerShard == 0) {
            shards.emplace_back();
            shards.back().string_energy.assign(n_str, 0.0);
            shards.back().string_wiring.assign(n_str, 0.0);
        }
        const long s = k * stride;
        if (!field.is_daylight(s)) continue;
        Sums& p = shards.back();
        const double dt_h =
            step_h * static_cast<double>(std::min(stride, n_steps - s));
        for (std::size_t i = 0; i < points.size(); ++i) {
            const ModulePlacement& m = plan.modules[i];
            points[i] = sample_operating_point(
                model,
                anchor_irradiance_unchecked(plan.geometry, m.x, m.y, field, s,
                                            options.module_irradiance),
                field.air_temperature(s), field.config().thermal_k);
        }
        const pv::PanelOperating panel =
            pv::aggregate_panel(points, plan.topology);
        double wiring_w = 0.0;
        if (options.include_wiring_loss) {
            for (std::size_t j = 0; j < n_str; ++j) {
                const double loss = pv::wiring_power_loss(
                    extra[j], panel.strings[j].current_a, options.wiring);
                wiring_w += loss;
                p.string_wiring[j] += loss * dt_h / 1000.0;
            }
        }
        p.energy += std::max(0.0, panel.power_w - wiring_w) * dt_h / 1000.0;
        p.ideal += panel.ideal_power_w * dt_h / 1000.0;
        p.mismatch += panel.mismatch_loss_w * dt_h / 1000.0;
        p.wiring += wiring_w * dt_h / 1000.0;
        for (std::size_t j = 0; j < n_str; ++j)
            p.string_energy[j] +=
                panel.voltage_v * panel.strings[j].current_a * dt_h / 1000.0;
    }

    EvaluationResult r;
    r.strings.resize(n_str);
    for (const Sums& p : shards) {
        r.energy_kwh += p.energy;
        r.ideal_energy_kwh += p.ideal;
        r.mismatch_loss_kwh += p.mismatch;
        r.wiring_loss_kwh += p.wiring;
        for (std::size_t j = 0; j < n_str; ++j) {
            r.strings[j].energy_kwh += p.string_energy[j];
            r.strings[j].wiring_loss_kwh += p.string_wiring[j];
        }
    }
    for (std::size_t j = 0; j < n_str; ++j) {
        r.strings[j].extra_cable_m = extra[j];
        r.extra_cable_m += extra[j];
    }
    r.wiring_cost_usd = pv::wiring_cost(extra, options.wiring);
    return r;
}

void expect_bitwise_equal(const EvaluationResult& got,
                          const EvaluationResult& want) {
    EXPECT_EQ(got.energy_kwh, want.energy_kwh);
    EXPECT_EQ(got.ideal_energy_kwh, want.ideal_energy_kwh);
    EXPECT_EQ(got.mismatch_loss_kwh, want.mismatch_loss_kwh);
    EXPECT_EQ(got.wiring_loss_kwh, want.wiring_loss_kwh);
    EXPECT_EQ(got.extra_cable_m, want.extra_cable_m);
    EXPECT_EQ(got.wiring_cost_usd, want.wiring_cost_usd);
    ASSERT_EQ(got.strings.size(), want.strings.size());
    for (std::size_t j = 0; j < want.strings.size(); ++j) {
        EXPECT_EQ(got.strings[j].energy_kwh, want.strings[j].energy_kwh);
        EXPECT_EQ(got.strings[j].wiring_loss_kwh,
                  want.strings[j].wiring_loss_kwh);
        EXPECT_EQ(got.strings[j].extra_cable_m,
                  want.strings[j].extra_cable_m);
    }
}

TEST(EvaluatorOracle, BothEvaluatorsMatchThePerStepReferenceBitwise) {
    const ShadedSetup s = pvfp::testing::shaded_setup();
    const solar::IrradianceField polar = pvfp::testing::polar_night_field();
    const struct {
        const char* name;
        const solar::IrradianceField* field;
    } fields[] = {{"solstice", &s.field}, {"polar night", &polar}};
    const Floorplan plan = base_plan();
    // The incremental evaluator starts elsewhere and syncs to the plan,
    // so its totals come from cached series after a committed delta.
    Floorplan start = plan;
    start.modules[0] = {16, 0};
    start.modules[3] = {16, 6};

    Restore restore;
    for (const auto& f : fields) {
        for (const ModuleIrradiance mode :
             {ModuleIrradiance::FootprintMean, ModuleIrradiance::WorstCell,
              ModuleIrradiance::AnchorCell}) {
            for (const long stride : {1L, 4L, 7L}) {
                for (const bool wiring : {true, false}) {
                    EvaluationOptions options;
                    options.module_irradiance = mode;
                    options.step_stride = stride;
                    options.include_wiring_loss = wiring;
                    const EvaluationResult want =
                        oracle(plan, s.area, *f.field, s.model, options);
                    ASSERT_GT(want.energy_kwh, 0.0);
                    if (wiring) {
                        ASSERT_GT(want.wiring_loss_kwh, 0.0);
                    }
                    for (const SimdLevel level :
                         pvfp::testing::runnable_levels()) {
                        set_simd_level(level);
                        for (const int threads : {1, 8}) {
                            set_thread_count(threads);
                            SCOPED_TRACE(std::string(f.name) + " mode " +
                                         std::to_string(static_cast<int>(
                                             mode)) +
                                         " stride " + std::to_string(stride) +
                                         " wiring " + std::to_string(wiring) +
                                         " level " + simd_level_name(level) +
                                         " threads " +
                                         std::to_string(threads));
                            expect_bitwise_equal(
                                evaluate_floorplan(plan, s.area, *f.field,
                                                   s.model, options),
                                want);
                            IncrementalEvaluator inc(start, s.area, *f.field,
                                                     s.model, options);
                            inc.sync_to(plan.modules);
                            expect_bitwise_equal(inc.result(), want);
                        }
                    }
                }
            }
        }
    }
}

}  // namespace
}  // namespace pvfp::core
