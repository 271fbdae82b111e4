#include "pvfp/core/incremental_evaluator.hpp"

#include <algorithm>
#include <string>

#include "pvfp/obs/metrics.hpp"
#include "pvfp/util/error.hpp"
#include "pvfp/util/parallel.hpp"

namespace pvfp::core {
namespace {

/// Default anchor-cache memory budget when the caller passes capacity 0.
constexpr std::size_t kCacheBudgetBytes = 128ull << 20;

}  // namespace

IncrementalEvaluator::IncrementalEvaluator(
    Floorplan plan, const geo::PlacementArea& area,
    const solar::IrradianceField& field,
    const pv::EmpiricalModuleModel& model, const EvaluationOptions& options,
    std::size_t anchor_cache_capacity)
    : plan_(std::move(plan)), area_(area), field_(&field), model_(model),
      options_(options) {
    check_evaluation_inputs(plan_, area_, field, options_,
                            "IncrementalEvaluator");
    axis_ = sample_daylight(field, options_.step_stride);

    if (anchor_cache_capacity == 0) {
        const std::size_t bytes_per_series =
            static_cast<std::size_t>(std::max(1L, axis_.size())) * 3 *
            sizeof(double);
        anchor_cache_capacity = std::clamp<std::size_t>(
            kCacheBudgetBytes / bytes_per_series, 16, 1 << 16);
    }
    cache_.emplace(anchor_cache_capacity);

    const auto n = plan_.modules.size();
    module_ops_.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        module_ops_[i] = series_for_anchor(plan_.modules[i]);
    extra_lengths_ = pv::panel_extra_lengths(
        plan_.centers_m(area_.cell_size), plan_.topology, options_.wiring);
    totals_ = accumulate(module_ops_, extra_lengths_);
    stats_.full_passes = 1;
}

std::shared_ptr<const IncrementalEvaluator::OpSeries>
IncrementalEvaluator::series_for_anchor(const ModulePlacement& anchor) {
    // The committed plan may hold a series the cache has already evicted.
    for (std::size_t i = 0; i < plan_.modules.size(); ++i) {
        if (plan_.modules[i] == anchor && module_ops_[i]) {
            ++stats_.series_reused;
            return module_ops_[i];
        }
    }
    const long long key =
        static_cast<long long>(anchor.y) * area_.width + anchor.x;
    bool built = false;
    auto series = cache_->get(
        key, 0,
        [&] {
            auto ops = std::make_shared<OpSeries>();
            const std::size_t n = static_cast<std::size_t>(axis_.size());
            ops->power_w.resize(n);
            ops->voltage_v.resize(n);
            ops->current_a.resize(n);
            const double k_th = field_->config().thermal_k;
            // Disjoint per-sample writes: bitwise-identical at any thread
            // count.  Each chunk sweeps its run of the packed axis for the
            // footprint, then samples the empirical model over the run in
            // one batch.
            parallel_for(0, axis_.size(), kStepsPerShard, [&](long b, long e) {
                static thread_local std::vector<double> g_buf;
                g_buf.resize(static_cast<std::size_t>(e - b));
                anchor_irradiance_series(plan_.geometry, anchor.x, anchor.y,
                                         *field_, axis_.pack, b, e,
                                         options_.module_irradiance,
                                         g_buf.data());
                const std::size_t kb = static_cast<std::size_t>(b);
                sample_operating_points(
                    model_, g_buf.data(), axis_.t_air.data() + kb, k_th,
                    g_buf.size(), ops->power_w.data() + kb,
                    ops->voltage_v.data() + kb, ops->current_a.data() + kb);
            });
            return std::shared_ptr<const OpSeries>(std::move(ops));
        },
        &built);
    ++(built ? stats_.series_computed : stats_.series_reused);
    return series;
}

EnergyTotals IncrementalEvaluator::accumulate(
    std::span<const std::shared_ptr<const OpSeries>> ops,
    std::span<const double> extra_lengths) const {
    return fold_energy(
        axis_, plan_.topology, extra_lengths, options_,
        [ops](int i, long kb, long, ModuleScratch&) {
            const OpSeries& s = *ops[static_cast<std::size_t>(i)];
            return ModuleSeries{s.power_w.data() + kb, s.voltage_v.data() + kb,
                                s.current_a.data() + kb};
        });
}

EvaluationResult IncrementalEvaluator::result() const {
    return make_evaluation_result(totals_, extra_lengths_, options_.wiring);
}

bool IncrementalEvaluator::move_feasible(int module_index,
                                         const ModulePlacement& anchor) const {
    check_arg(module_index >= 0 && module_index < plan_.module_count(),
              "IncrementalEvaluator: module index out of range");
    if (!anchor_fits(area_, plan_.geometry, anchor.x, anchor.y)) return false;
    for (std::size_t i = 0; i < plan_.modules.size(); ++i) {
        if (static_cast<int>(i) == module_index) continue;
        if (modules_overlap(anchor, plan_.modules[i], plan_.geometry))
            return false;
    }
    return true;
}

double IncrementalEvaluator::delta_move(int module_index,
                                        const ModulePlacement& anchor) {
    const std::pair<int, ModulePlacement> mv[1] = {{module_index, anchor}};
    return delta_update(mv);
}

double IncrementalEvaluator::delta_swap(int i, int j) {
    check_arg(i >= 0 && i < plan_.module_count() && j >= 0 &&
                  j < plan_.module_count(),
              "IncrementalEvaluator: swap index out of range");
    const std::pair<int, ModulePlacement> mv[2] = {
        {i, plan_.modules[static_cast<std::size_t>(j)]},
        {j, plan_.modules[static_cast<std::size_t>(i)]}};
    return delta_update(mv);
}

double IncrementalEvaluator::delta_update(
    std::span<const std::pair<int, ModulePlacement>> moves) {
    check_arg(!pending_.has_value(),
              "IncrementalEvaluator: a proposal is already pending — "
              "commit() or rollback() first");
    ++stats_.proposals;

    Pending pend;
    pend.modules = plan_.modules;
    for (const auto& [idx, anchor] : moves) {
        check_arg(idx >= 0 && idx < plan_.module_count(),
                  "IncrementalEvaluator: module index out of range");
        pend.modules[static_cast<std::size_t>(idx)] = anchor;
    }
    std::vector<int> changed;
    for (std::size_t i = 0; i < pend.modules.size(); ++i)
        if (!(pend.modules[i] == plan_.modules[i]))
            changed.push_back(static_cast<int>(i));

    // Targeted feasibility: only changed footprints against the area, and
    // only pairs involving a changed module — never a full-plan pass.
    for (int idx : changed) {
        const ModulePlacement& mp =
            pend.modules[static_cast<std::size_t>(idx)];
        if (!anchor_fits(area_, plan_.geometry, mp.x, mp.y)) {
            ++stats_.rejected;
            throw InvalidArgument(
                "IncrementalEvaluator: proposed footprint of module " +
                std::to_string(idx) + " leaves the placement area");
        }
        for (std::size_t o = 0; o < pend.modules.size(); ++o) {
            if (static_cast<int>(o) == idx) continue;
            if (modules_overlap(mp, pend.modules[o], plan_.geometry)) {
                ++stats_.rejected;
                throw InvalidArgument(
                    "IncrementalEvaluator: proposed modules " +
                    std::to_string(idx) + " and " + std::to_string(o) +
                    " overlap");
            }
        }
    }

    pend.ops = module_ops_;
    for (int idx : changed)
        pend.ops[static_cast<std::size_t>(idx)] =
            series_for_anchor(pend.modules[static_cast<std::size_t>(idx)]);

    // Wiring overhead changes only for the strings that lost or gained a
    // module position.
    pend.extra_lengths = extra_lengths_;
    const int m = plan_.topology.series;
    std::vector<int> affected_strings;
    for (int idx : changed) {
        const int j = idx / m;
        if (std::find(affected_strings.begin(), affected_strings.end(), j) ==
            affected_strings.end())
            affected_strings.push_back(j);
    }
    std::vector<pv::ModulePosition> positions(static_cast<std::size_t>(m));
    for (int j : affected_strings) {
        for (int i = 0; i < m; ++i)
            positions[static_cast<std::size_t>(i)] = module_center_m(
                pend.modules[static_cast<std::size_t>(j * m + i)],
                plan_.geometry, area_.cell_size);
        pend.extra_lengths[static_cast<std::size_t>(j)] =
            pv::string_extra_length(positions, options_.wiring);
    }

    pend.totals = accumulate(pend.ops, pend.extra_lengths);
    const double energy = pend.totals.energy_kwh;
    pending_ = std::move(pend);
    return energy;
}

void IncrementalEvaluator::commit() {
    check_arg(pending_.has_value(),
              "IncrementalEvaluator::commit: no pending proposal");
    plan_.modules = std::move(pending_->modules);
    module_ops_ = std::move(pending_->ops);
    extra_lengths_ = std::move(pending_->extra_lengths);
    totals_ = std::move(pending_->totals);
    pending_.reset();
    ++stats_.commits;
}

void IncrementalEvaluator::rollback() {
    check_arg(pending_.has_value(),
              "IncrementalEvaluator::rollback: no pending proposal");
    pending_.reset();
    ++stats_.rollbacks;
}

double IncrementalEvaluator::sync_to(
    std::span<const ModulePlacement> modules) {
    check_arg(modules.size() == plan_.modules.size(),
              "IncrementalEvaluator::sync_to: module count mismatch");
    std::vector<std::pair<int, ModulePlacement>> moves;
    for (std::size_t i = 0; i < modules.size(); ++i)
        if (!(modules[i] == plan_.modules[i]))
            moves.emplace_back(static_cast<int>(i), modules[i]);
    if (!moves.empty()) {
        delta_update(moves);
        commit();
    }
    return totals_.energy_kwh;
}

PlacementObjective make_incremental_objective(
    IncrementalEvaluator& evaluator) {
    return [&evaluator](const Floorplan& candidate) {
        const Floorplan& committed = evaluator.plan();
        check_arg(candidate.module_count() == committed.module_count() &&
                      candidate.geometry.k1 == committed.geometry.k1 &&
                      candidate.geometry.k2 == committed.geometry.k2 &&
                      candidate.topology.series ==
                          committed.topology.series &&
                      candidate.topology.strings ==
                          committed.topology.strings,
                  "make_incremental_objective: candidate plan shape does "
                  "not match the evaluator");
        return evaluator.sync_to(candidate.modules);
    };
}

std::vector<double> ideal_anchor_energies(
    std::span<const ModulePlacement> anchors, const PanelGeometry& geometry,
    const solar::IrradianceField& field,
    const pv::EmpiricalModuleModel& model, const EvaluationOptions& options) {
    check_arg(options.step_stride >= 1,
              "ideal_anchor_energies: step_stride must be >= 1");
    for (const auto& a : anchors)
        check_arg(a.x >= 0 && a.y >= 0 && a.x + geometry.k1 <= field.width() &&
                      a.y + geometry.k2 <= field.height(),
                  "ideal_anchor_energies: anchor footprint outside the "
                  "field window");

    const double k_th = field.config().thermal_k;
    const DaylightAxis axis = sample_daylight(field, options.step_stride);

    std::vector<double> out(anchors.size(), 0.0);
    // Disjoint per-anchor writes, each a serial in-order sum over the
    // packed axis: deterministic at any thread count and any SIMD level.
    parallel_for(0, static_cast<long>(anchors.size()), 8, [&](long b, long e) {
        static thread_local std::vector<double> g_buf;
        static thread_local std::vector<double> power, voltage, current;
        const std::size_t n = axis.steps.size();
        g_buf.resize(n);
        power.resize(n);
        voltage.resize(n);
        current.resize(n);
        for (long a = b; a < e; ++a) {
            const ModulePlacement& anchor =
                anchors[static_cast<std::size_t>(a)];
            anchor_irradiance_series(geometry, anchor.x, anchor.y, field,
                                     axis.pack, 0, axis.size(),
                                     options.module_irradiance,
                                     g_buf.data());
            sample_operating_points(model, g_buf.data(), axis.t_air.data(),
                                    k_th, n, power.data(), voltage.data(),
                                    current.data());
            double acc = 0.0;
            for (std::size_t k = 0; k < n; ++k)
                acc += power[k] * axis.dt_h[k] / 1000.0;
            out[static_cast<std::size_t>(a)] = acc;
        }
    });
    return out;
}

IncrementalEvaluator::~IncrementalEvaluator() {
    if (!obs::enabled()) return;
    obs::MetricsRegistry& reg = obs::registry();
    const auto fold = [&](const char* name, long value) {
        if (value > 0)
            reg.counter(name).add(static_cast<std::uint64_t>(value));
    };
    fold("core.incremental.full_passes", stats_.full_passes);
    fold("core.incremental.proposals", stats_.proposals);
    fold("core.incremental.commits", stats_.commits);
    fold("core.incremental.rollbacks", stats_.rollbacks);
    fold("core.incremental.rejected", stats_.rejected);
    fold("core.incremental.series_computed", stats_.series_computed);
    fold("core.incremental.series_reused", stats_.series_reused);
}

}  // namespace pvfp::core
