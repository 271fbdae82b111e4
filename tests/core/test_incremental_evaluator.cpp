/// Tests for the IncrementalEvaluator: the delta-evaluation engine of the
/// search placers.  Every committed state must agree with a fresh
/// evaluate_floorplan of the same plan to <= 1e-9 kWh (the contract the
/// integration-level differential harness stresses at scale), proposals
/// must be validated by targeted per-footprint checks only, and the
/// anchor cache must never change results.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "../test_helpers.hpp"
#include "pvfp/core/evaluator.hpp"
#include "pvfp/core/incremental_evaluator.hpp"
#include "pvfp/util/error.hpp"
#include "pvfp/util/parallel.hpp"

namespace pvfp::core {
namespace {

using pvfp::testing::ShadedSetup;


ShadedSetup make_setup(int days = 4) { return pvfp::testing::shaded_setup(days); }

Floorplan base_plan() {
    Floorplan plan;
    plan.geometry = {4, 2};
    plan.topology = {2, 2};
    plan.modules = {{0, 0}, {4, 0}, {0, 6}, {12, 6}};
    return plan;
}

/// Committed incremental state vs a fresh full evaluation of the same
/// plan: every kWh field within \p tol, wiring material exact.
void expect_matches_full(const IncrementalEvaluator& ev, const ShadedSetup& s,
                         double tol = 1e-9) {
    const EvaluationResult full = evaluate_floorplan(
        ev.plan(), s.area, s.field, s.model, ev.options());
    const EvaluationResult inc = ev.result();
    EXPECT_NEAR(inc.energy_kwh, full.energy_kwh, tol);
    EXPECT_NEAR(ev.energy_kwh(), full.energy_kwh, tol);
    EXPECT_NEAR(inc.ideal_energy_kwh, full.ideal_energy_kwh, tol);
    EXPECT_NEAR(inc.mismatch_loss_kwh, full.mismatch_loss_kwh, tol);
    EXPECT_NEAR(inc.wiring_loss_kwh, full.wiring_loss_kwh, tol);
    EXPECT_NEAR(inc.extra_cable_m, full.extra_cable_m, 1e-12);
    EXPECT_NEAR(inc.wiring_cost_usd, full.wiring_cost_usd, 1e-12);
    ASSERT_EQ(inc.strings.size(), full.strings.size());
    for (std::size_t j = 0; j < full.strings.size(); ++j) {
        EXPECT_NEAR(inc.strings[j].energy_kwh, full.strings[j].energy_kwh,
                    tol);
        EXPECT_NEAR(inc.strings[j].wiring_loss_kwh,
                    full.strings[j].wiring_loss_kwh, tol);
        EXPECT_NEAR(inc.strings[j].extra_cable_m,
                    full.strings[j].extra_cable_m, 1e-12);
    }
}

TEST(IncrementalEvaluator, FullPassMatchesEvaluateFloorplan) {
    const ShadedSetup s = make_setup();
    const IncrementalEvaluator ev(base_plan(), s.area, s.field, s.model);
    expect_matches_full(ev, s);
    EXPECT_EQ(ev.stats().full_passes, 1);
    EXPECT_GT(ev.energy_kwh(), 0.0);
}

/// Every field of two results, compared bitwise.
void expect_bitwise_equal(const EvaluationResult& a,
                          const EvaluationResult& b) {
    EXPECT_EQ(a.energy_kwh, b.energy_kwh);
    EXPECT_EQ(a.ideal_energy_kwh, b.ideal_energy_kwh);
    EXPECT_EQ(a.mismatch_loss_kwh, b.mismatch_loss_kwh);
    EXPECT_EQ(a.wiring_loss_kwh, b.wiring_loss_kwh);
    EXPECT_EQ(a.extra_cable_m, b.extra_cable_m);
    ASSERT_EQ(a.strings.size(), b.strings.size());
    for (std::size_t j = 0; j < a.strings.size(); ++j) {
        EXPECT_EQ(a.strings[j].energy_kwh, b.strings[j].energy_kwh);
        EXPECT_EQ(a.strings[j].wiring_loss_kwh, b.strings[j].wiring_loss_kwh);
    }
}

TEST(IncrementalEvaluator, PolarNightShardsMatchFullPassBitwise) {
    // At 85 N a year of hourly steps holds a long polar night, so whole
    // kStepsPerShard-sample shards of the sampled axis carry no daylight
    // step; stride 7 also leaves a partial trailing shard.  The full pass
    // and the incremental evaluator must map those shards identically:
    // equal bits, and equal bits at 1 and 8 threads.
    const ShadedSetup base = make_setup();
    const solar::IrradianceField field = pvfp::testing::polar_night_field();

    for (const long stride : {1L, 4L, 7L}) {
        SCOPED_TRACE("stride " + std::to_string(stride));
        const DaylightAxis axis = sample_daylight(field, stride);
        const long n_grid = (field.steps() + stride - 1) / stride;
        ASSERT_EQ(axis.shards(),
                  (n_grid + kStepsPerShard - 1) / kStepsPerShard);
        // Shard c starts at the count of daylight samples before grid
        // sample c * kStepsPerShard.
        long seen = 0;
        for (long k = 0; k < n_grid; ++k) {
            if (k % kStepsPerShard == 0)
                ASSERT_EQ(axis.shard_offsets[static_cast<std::size_t>(
                              k / kStepsPerShard)],
                          seen);
            if (!field.is_daylight(k * stride)) continue;
            ASSERT_EQ(axis.steps[static_cast<std::size_t>(seen)],
                      k * stride);
            ++seen;
        }
        ASSERT_EQ(axis.shard_offsets.back(), seen);
        ASSERT_EQ(axis.size(), seen);
        ASSERT_GT(seen, 0);
        long empty = 0;
        for (long c = 0; c < axis.shards(); ++c)
            if (axis.shard_offsets[static_cast<std::size_t>(c)] ==
                axis.shard_offsets[static_cast<std::size_t>(c) + 1])
                ++empty;
        ASSERT_GT(empty, 0) << "no shard without daylight";

        EvaluationOptions options;
        options.step_stride = stride;
        std::vector<EvaluationResult> full;
        std::vector<EvaluationResult> inc;
        for (const int threads : {1, 8}) {
            set_thread_count(threads);
            full.push_back(evaluate_floorplan(base_plan(), base.area, field,
                                              base.model, options));
            inc.push_back(IncrementalEvaluator(base_plan(), base.area, field,
                                               base.model, options)
                              .result());
        }
        set_thread_count(0);
        EXPECT_GT(full[0].energy_kwh, 0.0);
        expect_bitwise_equal(full[0], inc[0]);
        expect_bitwise_equal(full[0], full[1]);
        expect_bitwise_equal(inc[0], inc[1]);
    }
}

TEST(IncrementalEvaluator, MoveCommitMatchesFull) {
    const ShadedSetup s = make_setup();
    IncrementalEvaluator ev(base_plan(), s.area, s.field, s.model);
    const double before = ev.energy_kwh();
    ASSERT_TRUE(ev.move_feasible(1, {16, 0}));
    const double proposed = ev.delta_move(1, {16, 0});
    // The proposal is not visible until committed.
    EXPECT_EQ(ev.energy_kwh(), before);
    EXPECT_EQ(ev.plan().modules[1], (ModulePlacement{4, 0}));
    ev.commit();
    EXPECT_EQ(ev.plan().modules[1], (ModulePlacement{16, 0}));
    EXPECT_EQ(ev.energy_kwh(), proposed);
    expect_matches_full(ev, s);
}

TEST(IncrementalEvaluator, SwapCommitMatchesFull) {
    const ShadedSetup s = make_setup();
    IncrementalEvaluator ev(base_plan(), s.area, s.field, s.model);
    const auto computed_before = ev.stats().series_computed;
    const double proposed = ev.delta_swap(0, 3);  // across strings
    ev.commit();
    EXPECT_EQ(ev.energy_kwh(), proposed);
    EXPECT_EQ(ev.plan().modules[0], (ModulePlacement{12, 6}));
    EXPECT_EQ(ev.plan().modules[3], (ModulePlacement{0, 0}));
    // A swap reuses both cached series: no new field work.
    EXPECT_EQ(ev.stats().series_computed, computed_before);
    expect_matches_full(ev, s);

    ev.delta_swap(0, 1);  // within one string
    ev.commit();
    expect_matches_full(ev, s);
}

TEST(IncrementalEvaluator, RollbackRestoresCommittedState) {
    const ShadedSetup s = make_setup();
    IncrementalEvaluator ev(base_plan(), s.area, s.field, s.model);
    const double before = ev.energy_kwh();
    const Floorplan plan_before = ev.plan();
    ev.delta_move(2, {16, 6});
    ev.rollback();
    EXPECT_EQ(ev.energy_kwh(), before);
    EXPECT_EQ(ev.plan().modules, plan_before.modules);
    expect_matches_full(ev, s);
    // The evaluator accepts a fresh proposal after a rollback.
    ev.delta_move(2, {16, 6});
    ev.commit();
    expect_matches_full(ev, s);
}

TEST(IncrementalEvaluator, DeltaUpdateMultiMoveMatchesFull) {
    const ShadedSetup s = make_setup();
    IncrementalEvaluator ev(base_plan(), s.area, s.field, s.model);
    // Module 0 takes module 2's exact spot while module 2 vacates it: the
    // intermediate state would overlap if applied one move at a time, but
    // final-state feasibility makes this a single legal delta.
    const std::vector<std::pair<int, ModulePlacement>> moves = {
        {0, {0, 6}}, {2, {16, 0}}};
    ev.delta_update(moves);
    ev.commit();
    EXPECT_EQ(ev.plan().modules[0], (ModulePlacement{0, 6}));
    EXPECT_EQ(ev.plan().modules[2], (ModulePlacement{16, 0}));
    expect_matches_full(ev, s);
}

TEST(IncrementalEvaluator, NoOpProposalKeepsEnergy) {
    const ShadedSetup s = make_setup();
    IncrementalEvaluator ev(base_plan(), s.area, s.field, s.model);
    const double before = ev.energy_kwh();
    const double proposed = ev.delta_move(0, ev.plan().modules[0]);
    EXPECT_EQ(proposed, before);
    ev.commit();
    EXPECT_EQ(ev.energy_kwh(), before);
    expect_matches_full(ev, s);
}

TEST(IncrementalEvaluator, TargetedRejectionWithoutFullPass) {
    const ShadedSetup s = make_setup();
    IncrementalEvaluator ev(base_plan(), s.area, s.field, s.model);
    // Out of the area: footprint leaves the window.
    EXPECT_FALSE(ev.move_feasible(0, {22, 0}));
    EXPECT_THROW(ev.delta_move(0, {22, 0}), InvalidArgument);
    // Onto the chimney keep-out cells.
    EXPECT_FALSE(ev.move_feasible(0, {9, 4}));
    EXPECT_THROW(ev.delta_move(0, {9, 4}), InvalidArgument);
    // Onto another module.
    EXPECT_FALSE(ev.move_feasible(0, {4, 0}));
    EXPECT_THROW(ev.delta_move(0, {4, 0}), InvalidArgument);
    // Rejections ran the targeted checks only: the one constructor pass
    // remains the only full-plan evaluation, no proposal is pending, and
    // the committed state is untouched.
    EXPECT_EQ(ev.stats().full_passes, 1);
    EXPECT_EQ(ev.stats().rejected, 3);
    EXPECT_FALSE(ev.has_pending());
    expect_matches_full(ev, s);
}

TEST(IncrementalEvaluator, PendingDiscipline) {
    const ShadedSetup s = make_setup();
    IncrementalEvaluator ev(base_plan(), s.area, s.field, s.model);
    EXPECT_THROW(ev.commit(), InvalidArgument);
    EXPECT_THROW(ev.rollback(), InvalidArgument);
    ev.delta_move(0, {16, 0});
    EXPECT_TRUE(ev.has_pending());
    EXPECT_THROW(ev.delta_move(1, {16, 6}), InvalidArgument);
    EXPECT_THROW(ev.delta_swap(0, 1), InvalidArgument);
    ev.rollback();
    EXPECT_FALSE(ev.has_pending());
}

TEST(IncrementalEvaluator, OptionsVariantsMatchFull) {
    const ShadedSetup s = make_setup();
    std::vector<EvaluationOptions> variants(4);
    variants[1].module_irradiance = ModuleIrradiance::WorstCell;
    variants[2].module_irradiance = ModuleIrradiance::AnchorCell;
    variants[2].step_stride = 5;  // 96 steps: exercises the trailing clamp
    variants[3].include_wiring_loss = false;
    variants[3].step_stride = 3;
    for (const auto& options : variants) {
        IncrementalEvaluator ev(base_plan(), s.area, s.field, s.model,
                                options);
        expect_matches_full(ev, s);
        ev.delta_move(3, {16, 0});
        ev.commit();
        ev.delta_swap(1, 2);
        ev.commit();
        expect_matches_full(ev, s);
    }
}

TEST(IncrementalEvaluator, AnchorCacheReuseAndEviction) {
    const ShadedSetup s = make_setup();
    IncrementalEvaluator ev(base_plan(), s.area, s.field, s.model);
    const auto computed_after_ctor = ev.stats().series_computed;
    ev.delta_move(0, {16, 0});
    ev.commit();
    const auto computed_after_move = ev.stats().series_computed;
    EXPECT_EQ(computed_after_move, computed_after_ctor + 1);
    // Moving back revisits a cached anchor: reused, not recomputed.
    ev.delta_move(0, {0, 0});
    ev.commit();
    EXPECT_EQ(ev.stats().series_computed, computed_after_move);
    EXPECT_GT(ev.stats().series_reused, 0);
    expect_matches_full(ev, s);

    // A capacity-1 cache evicts on every computation but must never
    // change results.
    IncrementalEvaluator tiny(base_plan(), s.area, s.field, s.model, {}, 1);
    tiny.delta_move(0, {16, 0});
    tiny.commit();
    tiny.delta_move(0, {0, 0});
    tiny.commit();
    tiny.delta_swap(0, 2);
    tiny.commit();
    expect_matches_full(tiny, s);

    // Capacity 2 pins the policy: least recently used goes first, and an
    // anchor the committed plan holds is reused without the cache.
    IncrementalEvaluator two(base_plan(), s.area, s.field, s.model, {}, 2);
    EXPECT_EQ(two.stats().series_computed, 4);  // cache: {12,6} {0,6}
    const auto step = [&](const ModulePlacement& anchor, long computed,
                          long reused) {
        two.delta_move(0, anchor);
        two.commit();
        EXPECT_EQ(two.stats().series_computed, computed)
            << anchor.x << "," << anchor.y;
        EXPECT_EQ(two.stats().series_reused, reused)
            << anchor.x << "," << anchor.y;
    };
    const ModulePlacement p{16, 0};
    const ModulePlacement q{16, 6};
    const ModulePlacement r{20, 0};
    step(p, 5, 0);       // built; cache: p {12,6}
    step(q, 6, 0);       // built; cache: q p
    step(p, 6, 1);       // reused, now most recent; cache: p q
    step(r, 7, 1);       // built, evicts q (FIFO would evict p); cache: r p
    step(p, 7, 2);       // reused; cache: p r
    step(q, 8, 2);       // rebuilt; cache: q p
    step({0, 0}, 9, 2);  // evicted during construction: rebuilt
    two.delta_swap(1, 2);  // both anchors held by the committed plan
    two.commit();
    EXPECT_EQ(two.stats().series_computed, 9);
    EXPECT_EQ(two.stats().series_reused, 4);
    expect_matches_full(two, s);
}

TEST(IncrementalEvaluator, MakeIncrementalObjectiveMatchesClosure) {
    const ShadedSetup s = make_setup();
    IncrementalEvaluator ev(base_plan(), s.area, s.field, s.model);
    const PlacementObjective incremental = make_incremental_objective(ev);
    const PlacementObjective closure = [&](const Floorplan& p) {
        return evaluate_floorplan(p, s.area, s.field, s.model).energy_kwh;
    };
    std::vector<Floorplan> candidates;
    candidates.push_back(base_plan());
    candidates.push_back(base_plan());
    candidates.back().modules[1] = {16, 0};
    candidates.push_back(base_plan());
    std::swap(candidates.back().modules[0], candidates.back().modules[3]);
    candidates.push_back(base_plan());
    candidates.back().modules = {{16, 0}, {4, 0}, {4, 6}, {16, 6}};
    for (const Floorplan& p : candidates)
        EXPECT_NEAR(incremental(p), closure(p), 1e-9);
    // The adapter leaves the evaluator committed at the last candidate.
    EXPECT_EQ(ev.plan().modules, candidates.back().modules);
}

TEST(IncrementalEvaluator, IdealAnchorEnergiesBoundTheObjective) {
    const ShadedSetup s = make_setup();
    const Floorplan plan = base_plan();
    const auto ideals = ideal_anchor_energies(plan.modules, plan.geometry,
                                              s.field, s.model);
    ASSERT_EQ(ideals.size(), plan.modules.size());
    double ideal_sum = 0.0;
    for (double e : ideals) {
        EXPECT_GT(e, 0.0);
        ideal_sum += e;
    }
    const EvaluationResult full =
        evaluate_floorplan(plan, s.area, s.field, s.model);
    // The separable bound dominates the net energy and reproduces the
    // evaluator's ideal (per-module MPPT) total.
    EXPECT_GE(ideal_sum + 1e-9, full.energy_kwh);
    EXPECT_NEAR(ideal_sum, full.ideal_energy_kwh, 1e-9);
}

TEST(IncrementalEvaluator, Validation) {
    const ShadedSetup s = make_setup();
    Floorplan bad = base_plan();
    bad.modules[0] = {9, 4};  // chimney keep-out
    EXPECT_THROW(IncrementalEvaluator(bad, s.area, s.field, s.model),
                 InvalidArgument);
    Floorplan overlapping = base_plan();
    overlapping.modules[1] = {2, 0};
    EXPECT_THROW(
        IncrementalEvaluator(overlapping, s.area, s.field, s.model),
        InvalidArgument);
    EvaluationOptions bad_stride;
    bad_stride.step_stride = 0;
    EXPECT_THROW(
        IncrementalEvaluator(base_plan(), s.area, s.field, s.model,
                             bad_stride),
        InvalidArgument);
    IncrementalEvaluator ev(base_plan(), s.area, s.field, s.model);
    EXPECT_THROW(ev.delta_move(-1, {0, 0}), InvalidArgument);
    EXPECT_THROW(ev.delta_move(4, {0, 0}), InvalidArgument);
    EXPECT_THROW(ev.delta_swap(0, 4), InvalidArgument);
}

}  // namespace
}  // namespace pvfp::core
