#pragma once
/// \file incremental_evaluator.hpp
/// Delta-evaluation of the yearly-energy objective for the search placers.
///
/// evaluate_floorplan recomputes every module's footprint irradiance and
/// operating point at every sampled step for every candidate plan, so the
/// annealing / branch-and-bound / exhaustive extensions pay
/// O(steps x modules x footprint cells) per probe even though a probe
/// changes one or two modules.  The IncrementalEvaluator performs that
/// full pass once, caches per-module per-sampled-step operating points
/// (keyed by anchor — a module's operating point depends only on where it
/// sits, so revisited anchors cost nothing), and answers
/// delta_move / delta_swap / delta_update proposals by recomputing only
/// the affected modules' series and re-aggregating the cached ones.
/// commit()/rollback() turn it into the proposal engine of
/// refine_annealing.  Cost per proposal: the moved module's series is
/// O(steps x footprint cells) — and free when its anchor is cached —
/// plus an O(steps x modules) re-aggregation of cached points whose
/// constant is tiny (a few flops per point vs the footprint-irradiance
/// and empirical-model work the full pass pays per module).  Swaps skip
/// the series work entirely.
///
/// Exactness contract: the IncrementalEvaluator has no energy arithmetic
/// of its own.  It samples the same axis (sample_daylight, built once in
/// the constructor), builds each anchor's series with the same kernels
/// (anchor_irradiance_series, sample_operating_points), and integrates
/// through evaluate_floorplan's one fold (fold_energy) over pointers into
/// its cached series.  Committed totals are therefore bitwise equal to a
/// fresh evaluate_floorplan of the committed plan at every point of any
/// move/swap/rollback sequence, at any thread count (tests/core/
/// test_incremental_evaluator, tests/integration/test_delta_equivalence,
/// and an independent per-step oracle in tests/core/test_evaluator_oracle).

#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "pvfp/core/evaluator.hpp"
#include "pvfp/core/exhaustive_placer.hpp"
#include "pvfp/core/layout.hpp"
#include "pvfp/util/keyed_cache.hpp"

namespace pvfp::core {

/// Counters for tests and benches.  full_passes stays 1 for the lifetime
/// of an evaluator: every proposal is validated and evaluated through
/// targeted per-module work, never a full-plan pass.
struct IncrementalStats {
    long full_passes = 0;     ///< complete O(modules x steps) evaluations
    long proposals = 0;       ///< delta_move/delta_swap/delta_update calls
    long commits = 0;
    long rollbacks = 0;
    long rejected = 0;        ///< proposals rejected by the targeted check
    long series_computed = 0; ///< anchor op-series built from the field
    long series_reused = 0;   ///< anchor op-series served from cache/plan
};

/// Incremental (delta) evaluator over one prepared irradiance field.
/// The field must outlive the evaluator; the placement area is copied.
/// Not thread-safe: one evaluator serves one (serial) search loop, and
/// fans its own heavy passes out through util/parallel internally.
class IncrementalEvaluator {
public:
    /// Runs the one full evaluation pass (parallel, deterministic) and
    /// caches every per-module operating-point series.  Throws
    /// InvalidArgument on an infeasible plan, a field/area mismatch, or a
    /// bad stride — the same boundary checks as evaluate_floorplan.
    /// \p anchor_cache_capacity bounds the number of memoized anchor
    /// series (least recently used evicted first) beyond the ones the
    /// committed plan holds; 0 picks a default from a ~128 MB budget.
    IncrementalEvaluator(Floorplan plan, const geo::PlacementArea& area,
                         const solar::IrradianceField& field,
                         const pv::EmpiricalModuleModel& model,
                         const EvaluationOptions& options = {},
                         std::size_t anchor_cache_capacity = 0);

    /// The committed plan (pending proposals are not visible here).
    const Floorplan& plan() const { return plan_; }
    const geo::PlacementArea& area() const { return area_; }
    const EvaluationOptions& options() const { return options_; }

    /// Committed net energy [kWh] — the objective.
    double energy_kwh() const { return totals_.energy_kwh; }
    /// Committed totals assembled into the evaluate_floorplan result type.
    EvaluationResult result() const;

    /// Targeted feasibility of relocating one module: the proposed
    /// footprint against the area plus overlap against the other
    /// committed modules — O(modules), never a full-plan re-validation.
    bool move_feasible(int module_index, const ModulePlacement& anchor) const;

    /// Propose relocating \p module_index to \p anchor; returns the
    /// proposed plan's net energy [kWh].  The proposal is pending until
    /// commit() or rollback(); proposing twice without resolving throws.
    /// Throws InvalidArgument when the targeted feasibility check fails.
    double delta_move(int module_index, const ModulePlacement& anchor);

    /// Propose exchanging the series positions of modules \p i and \p j
    /// (changes mismatch grouping and wiring, not covered cells).  Costs
    /// only re-aggregation: both anchors' series are already cached.
    double delta_swap(int i, int j);

    /// General form: propose relocating several modules at once.
    /// Feasibility is checked on the final state only, so plans that are
    /// unreachable through single feasible moves (e.g. consecutive
    /// exhaustive-search leaves) can be reached in one delta.
    double delta_update(std::span<const std::pair<int, ModulePlacement>> moves);

    /// Commit the committed plan directly to \p modules (same count,
    /// series-first order): diffs against the current plan and applies
    /// the difference as one committed delta.  Returns the new energy.
    /// This is the one sync primitive behind make_incremental_objective,
    /// exhaustive/bnb leaf scoring, and the annealing best-plan restore.
    double sync_to(std::span<const ModulePlacement> modules);

    /// Accept / discard the pending proposal.  Throws when none is
    /// pending.
    void commit();
    void rollback();
    bool has_pending() const { return pending_.has_value(); }

    const IncrementalStats& stats() const { return stats_; }

    /// Folds this evaluator's lifetime stats into the global obs
    /// registry (`core.incremental.*` counters) when telemetry is on —
    /// proposal/commit totals are a pure function of the search
    /// workload, so the exported counters stay deterministic.
    ~IncrementalEvaluator();

private:
    /// Per-anchor operating points over the sampled steps, stored as
    /// structure-of-arrays: fold_energy reads each shard's run of them
    /// in place.
    struct OpSeries {
        std::vector<double> power_w;
        std::vector<double> voltage_v;
        std::vector<double> current_a;
    };

    struct Pending {
        std::vector<ModulePlacement> modules;
        std::vector<std::shared_ptr<const OpSeries>> ops;
        std::vector<double> extra_lengths;
        EnergyTotals totals;
    };

    std::shared_ptr<const OpSeries> series_for_anchor(
        const ModulePlacement& anchor);
    EnergyTotals accumulate(
        std::span<const std::shared_ptr<const OpSeries>> ops,
        std::span<const double> extra_lengths) const;

    Floorplan plan_;
    geo::PlacementArea area_;
    const solar::IrradianceField* field_;
    pv::EmpiricalModuleModel model_;
    EvaluationOptions options_;

    /// The sampled daylight axis (steps, billing, shard grid, pack),
    /// built once; every series and fold runs over it.
    DaylightAxis axis_;

    std::vector<std::shared_ptr<const OpSeries>> module_ops_;
    std::vector<double> extra_lengths_;
    EnergyTotals totals_;

    /// Memoized anchor series keyed by y * width + x, LRU-bounded by the
    /// anchor cache capacity (one unit per series).
    std::optional<KeyedCache<long long, OpSeries>> cache_;

    std::optional<Pending> pending_;
    IncrementalStats stats_;
};

/// Adapt an evaluator into a PlacementObjective for the search placers:
/// each call diffs the candidate plan against the evaluator's committed
/// plan, applies the difference as one delta_update, commits, and returns
/// the net energy.  Consecutive exhaustive-search leaves share long DFS
/// prefixes, so leaf scoring costs O(steps x changed modules) instead of
/// a full evaluate_floorplan.  The candidate must share the evaluator's
/// module count, geometry, and topology.
PlacementObjective make_incremental_objective(IncrementalEvaluator& evaluator);

/// Ideal (mismatch- and wiring-free) energy [kWh] a module would extract
/// at each anchor: the yearly integral of its maximum power.  This is a
/// *separable upper bound* on any module's net contribution — series/
/// parallel aggregation and wiring can only lose energy relative to
/// per-module MPPT — which is what place_bnb_energy's bound relies on.
std::vector<double> ideal_anchor_energies(
    std::span<const ModulePlacement> anchors, const PanelGeometry& geometry,
    const solar::IrradianceField& field,
    const pv::EmpiricalModuleModel& model,
    const EvaluationOptions& options = {});

}  // namespace pvfp::core
