#include "pvfp/core/incremental_evaluator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
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
    std::string why;
    check_arg(floorplan_feasible(plan_, area_, &why),
              "IncrementalEvaluator: infeasible plan: " + why);
    check_arg(field.width() == area.width && field.height() == area.height,
              "IncrementalEvaluator: field window does not match area");
    check_arg(options.step_stride >= 1,
              "IncrementalEvaluator: step_stride must be >= 1");
    pv::check_topology(plan_.topology, plan_.module_count());

    axis_ = sample_daylight(field, options_.step_stride);

    if (anchor_cache_capacity == 0) {
        const std::size_t bytes_per_series =
            static_cast<std::size_t>(std::max(1L, axis_.size())) * 3 *
            sizeof(double);
        anchor_cache_capacity = std::clamp<std::size_t>(
            kCacheBudgetBytes / bytes_per_series, 16, 1 << 16);
    }
    cache_capacity_ = anchor_cache_capacity;

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
    const long long key =
        static_cast<long long>(anchor.y) * area_.width + anchor.x;
    if (auto it = cache_.find(key); it != cache_.end()) {
        ++stats_.series_reused;
        return it->second;
    }
    // The committed plan may hold a series the cache has already evicted.
    for (std::size_t i = 0; i < plan_.modules.size(); ++i) {
        if (plan_.modules[i] == anchor && module_ops_[i]) {
            ++stats_.series_reused;
            return module_ops_[i];
        }
    }

    auto series = std::make_shared<OpSeries>();
    auto& ops = *series;
    const std::size_t n = static_cast<std::size_t>(axis_.size());
    ops.power_w.resize(n);
    ops.voltage_v.resize(n);
    ops.current_a.resize(n);
    const double k_th = field_->config().thermal_k;
    const ModuleIrradiance mode = options_.module_irradiance;
    // Disjoint per-sample writes: bitwise-identical at any thread count.
    // Each chunk sweeps its run of the packed axis for the footprint,
    // then samples the empirical model over the run in one batch.
    parallel_for(0, axis_.size(), kStepsPerShard, [&](long b, long e) {
        static thread_local std::vector<double> g_buf;
        g_buf.resize(static_cast<std::size_t>(e - b));
        anchor_irradiance_series(plan_.geometry, anchor.x, anchor.y, *field_,
                                 axis_.pack, b, e, mode, g_buf.data());
        const std::size_t kb = static_cast<std::size_t>(b);
        sample_operating_points(model_, g_buf.data(),
                                axis_.t_air.data() + kb, k_th, g_buf.size(),
                                ops.power_w.data() + kb,
                                ops.voltage_v.data() + kb,
                                ops.current_a.data() + kb);
    });
    ++stats_.series_computed;

    cache_.emplace(key, series);
    cache_fifo_.push_back(key);
    while (cache_.size() > cache_capacity_ &&
           cache_evict_next_ < cache_fifo_.size()) {
        cache_.erase(cache_fifo_[cache_evict_next_++]);
    }
    return series;
}

IncrementalEvaluator::Totals IncrementalEvaluator::accumulate(
    std::span<const std::shared_ptr<const OpSeries>> ops,
    std::span<const double> extra_lengths) const {
    const int m = plan_.topology.series;
    const int n_str = plan_.topology.strings;
    const bool wiring_on = options_.include_wiring_loss;

    /// Per-shard accumulator mirroring evaluate_floorplan's Partial.
    struct Partial {
        double energy = 0.0;
        double ideal = 0.0;
        double mismatch = 0.0;
        double wiring = 0.0;
        std::vector<double> string_energy;
        std::vector<double> string_wiring;
        explicit Partial(std::size_t n = 0)
            : string_energy(n, 0.0), string_wiring(n, 0.0) {}
    };

    // One shard per map call (chunk size 1 over shard indices), merged in
    // shard order: the same summation tree as evaluate_floorplan.
    //
    // The per-sample work is phrased as elementwise passes over the
    // contiguous SoA operating-point streams — string voltage sums, the
    // series current min, the ideal-power sum, then the wiring / net
    // folds — so the compiler vectorizes each pass, while every
    // accumulator (p.energy, p.string_*, ...) is still folded sample by
    // sample in ascending k, string by string in ascending j: exactly
    // the summation order (hence the bits) of the former scalar loop and
    // of evaluate_floorplan.
    const Partial total = parallel_reduce(
        0L, axis_.shards(), 1L, Partial(static_cast<std::size_t>(n_str)),
        [&](long cb, long ce) {
            Partial p(static_cast<std::size_t>(n_str));
            auto sc = acc_scratch_.acquire();
            for (long c = cb; c < ce; ++c) {
                const std::size_t kb = static_cast<std::size_t>(
                    axis_.shard_offsets[static_cast<std::size_t>(c)]);
                const std::size_t ke = static_cast<std::size_t>(
                    axis_.shard_offsets[static_cast<std::size_t>(c) + 1]);
                const std::size_t nk = ke - kb;
                if (nk == 0) continue;
                constexpr double kInf =
                    std::numeric_limits<double>::infinity();
                sc->v.assign(nk, 0.0);
                sc->min_v.assign(nk, kInf);
                sc->panel_i.assign(nk, 0.0);
                sc->ideal.assign(nk, 0.0);
                sc->volt.resize(nk);
                sc->power.resize(nk);
                sc->wiring.assign(nk, 0.0);
                sc->cur.resize(static_cast<std::size_t>(n_str) * nk);
                sc->loss.resize(static_cast<std::size_t>(n_str) * nk);

                double* const ideal = sc->ideal.data();
                double* const min_v = sc->min_v.data();
                double* const panel_i = sc->panel_i.data();
                for (int j = 0; j < n_str; ++j) {
                    double* const v = sc->v.data();
                    double* const cur =
                        sc->cur.data() + static_cast<std::size_t>(j) * nk;
                    std::fill(v, v + nk, 0.0);
                    std::fill(cur, cur + nk, kInf);
                    for (int i = 0; i < m; ++i) {
                        const OpSeries& s =
                            *ops[static_cast<std::size_t>(j * m + i)];
                        const double* const vol = s.voltage_v.data() + kb;
                        const double* const cu = s.current_a.data() + kb;
                        const double* const pw = s.power_w.data() + kb;
                        for (std::size_t k = 0; k < nk; ++k)
                            v[k] += vol[k];
                        for (std::size_t k = 0; k < nk; ++k)
                            cur[k] = std::min(cur[k], cu[k]);
                        for (std::size_t k = 0; k < nk; ++k)
                            ideal[k] += pw[k];
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
                            options_.wiring.resistance_ohm_per_m * extra;
                        const double* const cur =
                            sc->cur.data() +
                            static_cast<std::size_t>(j) * nk;
                        double* const loss =
                            sc->loss.data() +
                            static_cast<std::size_t>(j) * nk;
                        for (std::size_t k = 0; k < nk; ++k)
                            loss[k] = rl * cur[k] * cur[k];
                        for (std::size_t k = 0; k < nk; ++k)
                            wiring[k] += loss[k];
                    }
                }

                // Sample-order fold into the shard partial (the
                // reduction the determinism contract pins).
                for (std::size_t k = 0; k < nk; ++k) {
                    const double dt_h = axis_.dt_h[kb + k];
                    if (wiring_on) {
                        for (int j = 0; j < n_str; ++j)
                            p.string_wiring[static_cast<std::size_t>(j)] +=
                                sc->loss[static_cast<std::size_t>(j) * nk +
                                         k] *
                                dt_h / 1000.0;
                    }
                    const double net =
                        std::max(0.0, power[k] - wiring[k]);
                    p.energy += net * dt_h / 1000.0;
                    p.ideal += ideal[k] * dt_h / 1000.0;
                    p.mismatch +=
                        std::max(0.0, ideal[k] - power[k]) * dt_h / 1000.0;
                    p.wiring += wiring[k] * dt_h / 1000.0;
                    for (int j = 0; j < n_str; ++j) {
                        p.string_energy[static_cast<std::size_t>(j)] +=
                            volt[k] *
                            sc->cur[static_cast<std::size_t>(j) * nk + k] *
                            dt_h / 1000.0;
                    }
                }
            }
            return p;
        },
        [](Partial acc, const Partial& p) {
            acc.energy += p.energy;
            acc.ideal += p.ideal;
            acc.mismatch += p.mismatch;
            acc.wiring += p.wiring;
            for (std::size_t j = 0; j < acc.string_energy.size(); ++j) {
                acc.string_energy[j] += p.string_energy[j];
                acc.string_wiring[j] += p.string_wiring[j];
            }
            return acc;
        });

    Totals out;
    out.energy_kwh = total.energy;
    out.ideal_energy_kwh = total.ideal;
    out.mismatch_loss_kwh = total.mismatch;
    out.wiring_loss_kwh = total.wiring;
    out.string_energy_kwh = total.string_energy;
    out.string_wiring_loss_kwh = total.string_wiring;
    return out;
}

EvaluationResult IncrementalEvaluator::result() const {
    const int n_str = plan_.topology.strings;
    EvaluationResult r;
    r.energy_kwh = totals_.energy_kwh;
    r.ideal_energy_kwh = totals_.ideal_energy_kwh;
    r.mismatch_loss_kwh = totals_.mismatch_loss_kwh;
    r.wiring_loss_kwh = totals_.wiring_loss_kwh;
    r.strings.resize(static_cast<std::size_t>(n_str));
    for (int j = 0; j < n_str; ++j) {
        auto& s = r.strings[static_cast<std::size_t>(j)];
        s.energy_kwh = totals_.string_energy_kwh[static_cast<std::size_t>(j)];
        s.extra_cable_m = extra_lengths_[static_cast<std::size_t>(j)];
        s.wiring_loss_kwh =
            totals_.string_wiring_loss_kwh[static_cast<std::size_t>(j)];
        r.extra_cable_m += extra_lengths_[static_cast<std::size_t>(j)];
    }
    r.wiring_cost_usd = pv::wiring_cost(extra_lengths_, options_.wiring);
    return r;
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
