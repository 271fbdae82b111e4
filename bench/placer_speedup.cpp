/// \file placer_speedup.cpp
/// Annealing refinement with full re-evaluation vs the incremental
/// delta-evaluator on the golden toy roof: the headline number of the
/// IncrementalEvaluator (ROADMAP "Incremental evaluation for placers").
/// Both paths run the identical proposal sequence (same seed, same RNG
/// stream), so the wall-time ratio is a pure evaluation-cost comparison.
/// `--json <path>` emits one record per timed section with the `threads`
/// field, feeding the BENCH_* trajectory collection.  Exits 1 when the
/// two paths disagree on the refined energy or the accepted-move count:
/// both score through the same fold, so any difference is a bug.

#include <chrono>
#include <iostream>

#include "bench_common.hpp"
#include "pvfp/core/annealing_placer.hpp"
#include "pvfp/core/greedy_placer.hpp"
#include "pvfp/core/incremental_evaluator.hpp"
#include "pvfp/util/parallel.hpp"
#include "pvfp/util/table.hpp"

int main(int argc, char** argv) {
    using namespace pvfp;
    bench::BenchReporter reporter(argc, argv);
    bench::print_banner(std::cout,
                        "Placer speedup: full re-evaluation vs incremental "
                        "delta-evaluator",
                        "Vinco et al., DATE 2018, Section III-A objective");

    // The optimality-gap configuration: toy roof, 30-minute year,
    // stride-4 evaluation inside the search.
    core::ScenarioConfig config;
    config.grid = TimeGrid(30, 1, 365);
    config.weather.seed = 17;
    const auto prepared = core::prepare_scenario(core::make_toy(), config);
    const pv::Topology topology{2, 2};
    const auto greedy = core::place_greedy(
        prepared.area, prepared.suitability.suitability, prepared.geometry,
        topology);
    core::EvaluationOptions eval;
    eval.step_stride = 4;

    core::AnnealingOptions aopt;
    aopt.iterations = 1500;
    aopt.seed = 5;

    double full_ms = 0.0;
    double incremental_ms = 0.0;
    core::AnnealingStats full_stats;
    core::AnnealingStats inc_stats;
    core::Floorplan via_full;
    core::Floorplan via_delta;

    {
        const core::PlacementObjective objective =
            [&](const core::Floorplan& plan) {
                return core::evaluate_floorplan(plan, prepared.area,
                                                prepared.field,
                                                prepared.model, eval)
                    .energy_kwh;
            };
        const auto t0 = std::chrono::steady_clock::now();
        {
            const auto scope =
                reporter.time_section("placer_speedup/full_reeval",
                                      aopt.iterations);
            via_full = core::refine_annealing(greedy, prepared.area,
                                              objective, aopt, &full_stats);
        }
        full_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    }

    core::IncrementalStats ev_stats;
    {
        const auto t0 = std::chrono::steady_clock::now();
        {
            const auto scope =
                reporter.time_section("placer_speedup/incremental",
                                      aopt.iterations);
            // Constructing the evaluator (its one full pass) is part of
            // the incremental cost: that is what a caller pays end to end.
            core::IncrementalEvaluator evaluator(greedy, prepared.area,
                                                 prepared.field,
                                                 prepared.model, eval);
            via_delta = core::refine_annealing(evaluator, aopt, &inc_stats);
            ev_stats = evaluator.stats();
        }
        incremental_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
    }

    const double speedup =
        incremental_ms > 0.0 ? full_ms / incremental_ms : 0.0;

    TextTable table({"path", "wall [ms]", "refined [kWh/yr]", "accepted"});
    table.set_align(0, Align::Left);
    table.add_row({"full re-evaluation", TextTable::num(full_ms, 1),
                   TextTable::num(full_stats.final_objective, 3),
                   std::to_string(full_stats.accepted)});
    table.add_row({"incremental deltas", TextTable::num(incremental_ms, 1),
                   TextTable::num(inc_stats.final_objective, 3),
                   std::to_string(inc_stats.accepted)});
    table.print(std::cout);

    std::cout << "\nSpeedup: " << TextTable::num(speedup, 1) << "x over "
              << aopt.iterations << " iterations at "
              << pvfp::thread_count() << " thread(s)\n"
              << "Evaluator: " << ev_stats.proposals << " proposals, "
              << ev_stats.series_computed << " anchor series computed, "
              << ev_stats.series_reused
              << " reused from the anchor cache, 1 full pass\n";
    if (full_stats.final_objective != inc_stats.final_objective ||
        full_stats.accepted != inc_stats.accepted) {
        std::cerr << "placer_speedup: the incremental path diverged from "
                     "full re-evaluation (refined kWh or accepted count "
                     "differ)\n";
        return 1;
    }
    return 0;
}
