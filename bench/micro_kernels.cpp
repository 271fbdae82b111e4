/// \file micro_kernels.cpp
/// google-benchmark microbenchmarks of the pipeline's hot kernels:
/// horizon ray-marching (the per-cell oracle vs the batched SIMD
/// row-march kernels, per dispatch level), per-cell irradiance
/// sampling, the packed SoA footprint kernel (scalar and AVX-512
/// dispatch vs the per-cell scalar baseline, one cell and one module
/// footprint), a whole floorplan evaluation, per-cell histogram
/// statistics, panel aggregation, and the summed-area table.
/// Benches take one arg per dispatch level that runs distinct code:
/// 0/1/2 (scalar/AVX2/AVX-512) for the horizon march, 0/2 for the
/// irradiance kernels (avx2 runs the scalar ones), none for the sky.
/// These bound the cost drivers behind the paper's "<120 s" end-to-end
/// figure.  scripts/collect_bench_kernels.sh appends the
/// irradiance-kernel records to BENCH_kernels.json for the cross-PR
/// trajectory.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "pvfp/core/evaluator.hpp"
#include "pvfp/core/greedy_placer.hpp"
#include "pvfp/core/pipeline.hpp"
#include "pvfp/core/roof_library.hpp"
#include "pvfp/core/suitability.hpp"
#include "pvfp/geo/horizon.hpp"
#include "pvfp/geo/poly_raster.hpp"
#include "pvfp/geo/scene.hpp"
#include "pvfp/pv/array.hpp"
#include "pvfp/solar/irradiance.hpp"
#include "pvfp/solar/sky_artifact.hpp"
#include "pvfp/util/parallel.hpp"
#include "pvfp/util/rng.hpp"
#include "pvfp/util/simd.hpp"
#include "pvfp/util/stats.hpp"

namespace {

using namespace pvfp;

geo::Raster bench_dsm() {
    geo::SceneBuilder scene(40.0, 20.0);
    geo::MonopitchRoof roof;
    roof.x = 4.0;
    roof.y = 4.0;
    roof.w = 30.0;
    roof.d = 10.0;
    roof.eave_height = 5.0;
    roof.tilt_deg = 26.0;
    scene.add_roof(roof);
    scene.add_box({10.0, 6.0, 2.0, 2.0, 2.0, geo::HeightRef::Surface});
    scene.add_building({35.0, 2.0, 4.0, 16.0, 14.0});
    return scene.rasterize(0.2);
}

void BM_HorizonBuild(benchmark::State& state) {
    const geo::Raster dsm = bench_dsm();
    const int cells = static_cast<int>(state.range(0));
    geo::HorizonOptions opt;
    opt.azimuth_sectors = 72;
    for (auto _ : state) {
        geo::HorizonMap map(dsm, 25, 25, cells, 1, opt);
        benchmark::DoNotOptimize(map.sky_view_factor(0, 0));
    }
    state.SetItemsProcessed(state.iterations() * cells * 72);
}
BENCHMARK(BM_HorizonBuild)->Arg(1)->Arg(16)->Arg(64);

void BM_CellIrradiance(benchmark::State& state) {
    const geo::Raster dsm = bench_dsm();
    const TimeGrid grid(60, 150, 10);
    geo::HorizonMap horizon(dsm, 25, 25, 40, 30, {});
    std::vector<solar::EnvSample> env(
        static_cast<std::size_t>(grid.total_steps()),
        solar::EnvSample{500.0, 400.0, 150.0, 20.0});
    const solar::IrradianceField field(std::move(horizon), std::move(env),
                                       grid, deg2rad(26.0), deg2rad(180.0));
    long s = 0;
    int x = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(field.cell_irradiance(x, x % 30, s));
        s = (s + 7) % grid.total_steps();
        x = (x + 3) % 40;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CellIrradiance);

/// The golden toy roof under the placer-speedup configuration
/// (30-minute year): the reference workload of the batched-kernel
/// acceptance gate.  Prepared once per binary.
const core::PreparedScenario& toy_prepared() {
    static const core::PreparedScenario prepared = [] {
        core::ScenarioConfig config;
        config.grid = TimeGrid(30, 1, 365);
        config.weather.seed = 17;
        return core::prepare_scenario(core::make_toy(), config);
    }();
    return prepared;
}

/// Sampled daylight axis of the toy field (stride 4, the search-loop
/// granularity), packed once as the evaluators pack it.
const core::DaylightAxis& toy_sampled_axis() {
    static const core::DaylightAxis axis =
        core::sample_daylight(toy_prepared().field, 4);
    return axis;
}

/// Apply a bench arg (0 = scalar, 1 = AVX2, 2 = AVX-512) to the kernel
/// dispatch; returns false when the level is unavailable on this CPU.
bool apply_simd_arg(benchmark::State& state) {
    if (state.range(0) == 2) {
        if (!cpu_supports_avx512()) {
            state.SkipWithError("CPU has no AVX-512F/VL");
            return false;
        }
        set_simd_level(SimdLevel::Avx512);
    } else if (state.range(0) == 1) {
        if (!cpu_supports_avx2()) {
            state.SkipWithError("CPU has no AVX2");
            return false;
        }
        set_simd_level(SimdLevel::Avx2);
    } else {
        set_simd_level(SimdLevel::Scalar);
    }
    return true;
}

/// A city-block-scale DSM for the horizon benches: the roof window
/// sits 80+ m from every edge, so sectors march the full default
/// max_distance through neighbouring terrain instead of exiting the
/// raster after a few steps — the run_city context-window workload.
const geo::Raster& horizon_bench_dsm() {
    static const geo::Raster dsm = [] {
        geo::SceneBuilder scene(200.0, 200.0);
        Rng rng(41);
        for (int i = 0; i < 60; ++i)
            scene.add_building({rng.uniform(5.0, 180.0),
                                rng.uniform(5.0, 180.0),
                                rng.uniform(6.0, 14.0),
                                rng.uniform(6.0, 12.0),
                                rng.uniform(3.0, 12.0)});
        return scene.rasterize(0.2);
    }();
    return dsm;
}

/// Baseline: the retained per-cell horizon oracle on a roof-scale
/// window — the pre-batching shadow-engine cost (single-threaded so the
/// ratio against the batched kernels is a pure kernel speedup).
void BM_HorizonMapReference(benchmark::State& state) {
    const geo::Raster& dsm = horizon_bench_dsm();
    geo::HorizonOptions opt;
    opt.azimuth_sectors = 72;
    set_thread_count(1);
    for (auto _ : state) {
        const geo::HorizonMap map =
            geo::horizon_map_reference(dsm, 480, 480, 40, 30, opt);
        benchmark::DoNotOptimize(map.angles_data());
    }
    set_thread_count(0);
    state.SetItemsProcessed(state.iterations() * 40 * 30 * 72);
}
BENCHMARK(BM_HorizonMapReference)->Unit(benchmark::kMillisecond);

/// The batched row-march kernels on the same window at a dispatch level
/// (0 scalar, 1 AVX2, 2 AVX-512) — the horizon-engine headline.
void BM_HorizonMapBatched(benchmark::State& state) {
    if (!apply_simd_arg(state)) return;
    const geo::Raster& dsm = horizon_bench_dsm();
    geo::HorizonOptions opt;
    opt.azimuth_sectors = 72;
    set_thread_count(1);
    for (auto _ : state) {
        const geo::HorizonMap map(dsm, 480, 480, 40, 30, opt);
        benchmark::DoNotOptimize(map.angles_data());
    }
    set_thread_count(0);
    state.SetItemsProcessed(state.iterations() * 40 * 30 * 72);
    set_simd_level_auto();
}
BENCHMARK(BM_HorizonMapBatched)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

/// Baseline: one cell's full sampled-step series through per-cell
/// scalar calls — the pre-batching per-anchor series build.
void BM_IrradianceSeriesScalarCells(benchmark::State& state) {
    const auto& field = toy_prepared().field;
    const auto& steps = toy_sampled_axis().steps;
    std::vector<double> out(steps.size());
    int x = 0;
    for (auto _ : state) {
        for (std::size_t k = 0; k < steps.size(); ++k)
            out[k] = field.cell_irradiance_unchecked(x, 1, steps[k]);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
        x = (x + 1) % field.width();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<long>(steps.size()));
}
BENCHMARK(BM_IrradianceSeriesScalarCells);

/// The packed kernel over the same sampled steps at a given dispatch
/// level (0 scalar, 2 AVX-512).
void BM_IrradiancePackedKernel(benchmark::State& state) {
    if (!apply_simd_arg(state)) return;
    const auto& field = toy_prepared().field;
    const auto& axis = toy_sampled_axis();
    std::vector<double> out(axis.steps.size());
    int x = 0;
    for (auto _ : state) {
        field.cell_irradiance_packed(axis.pack, x, 1, 0, axis.size(),
                                     out.data());
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
        x = (x + 1) % field.width();
    }
    state.SetItemsProcessed(state.iterations() * axis.size());
    set_simd_level_auto();
}
BENCHMARK(BM_IrradiancePackedKernel)->Arg(0)->Arg(2);

/// Footprint-mean anchor series of the toy's 8x4 module footprint over
/// the packed sampled axis, swept in 128-sample runs (about the daylight
/// samples of one evaluator shard), per dispatch level.  Items are
/// cell-steps.
void BM_AnchorSeriesKernel(benchmark::State& state) {
    if (!apply_simd_arg(state)) return;
    const auto& prepared = toy_prepared();
    const auto& axis = toy_sampled_axis();
    constexpr long kRun = 128;
    std::vector<double> out(kRun);
    int x = 0;
    const int x_max = prepared.field.width() - prepared.geometry.k1;
    for (auto _ : state) {
        for (long p0 = 0; p0 < axis.size(); p0 += kRun) {
            core::anchor_irradiance_series(
                prepared.geometry, x, 0, prepared.field, axis.pack, p0,
                std::min(p0 + kRun, axis.size()),
                core::ModuleIrradiance::FootprintMean, out.data());
            benchmark::DoNotOptimize(out.data());
            benchmark::ClobberMemory();
        }
        x = (x + 1) % (x_max + 1);
    }
    state.SetItemsProcessed(state.iterations() * axis.size() *
                            prepared.geometry.cell_count());
    set_simd_level_auto();
}
BENCHMARK(BM_AnchorSeriesKernel)->Arg(0)->Arg(2);

/// evaluate_floorplan of the greedy 8x2 plan on the toy roof at the
/// search-loop stride 4, on one thread, per dispatch level: the footprint
/// kernel, the batched operating points and the per-step panel
/// aggregation together.  Items are module-steps.
void BM_EvaluateFloorplan(benchmark::State& state) {
    if (!apply_simd_arg(state)) return;
    const auto& prepared = toy_prepared();
    const core::Floorplan plan = core::place_greedy(
        prepared.area, prepared.suitability.suitability, prepared.geometry,
        pv::Topology{8, 2});
    core::EvaluationOptions options;
    options.step_stride = 4;
    set_thread_count(1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            core::evaluate_floorplan(plan, prepared.area, prepared.field,
                                     prepared.model, options)
                .energy_kwh);
    }
    set_thread_count(0);
    state.SetItemsProcessed(state.iterations() * plan.module_count() *
                            toy_sampled_axis().size());
    set_simd_level_auto();
}
BENCHMARK(BM_EvaluateFloorplan)->Arg(0)->Arg(2)
    ->Unit(benchmark::kMillisecond);

/// Year of 15-minute weather for the shared-sky prepare benches (the
/// pvfp_serve cold-start workload shape).
std::vector<solar::EnvSample> sky_bench_env(const TimeGrid& grid) {
    std::vector<solar::EnvSample> env(
        static_cast<std::size_t>(grid.total_steps()));
    Rng rng(29);
    for (auto& e : env) {
        e.ghi = rng.uniform(0.0, 900.0);
        e.dni = rng.uniform(0.0, 800.0);
        e.dhi = rng.uniform(0.0, 300.0);
        e.temp_air_c = rng.uniform(-5.0, 32.0);
    }
    return env;
}

/// Baseline: the unbatched per-step sun_position + transposition loop
/// (the pre-batching make_shared_sky, dominant pvfp_serve cold-start
/// cost).
void BM_SharedSkyPrepareReference(benchmark::State& state) {
    const TimeGrid grid(15, 1, 365);
    const auto env = sky_bench_env(grid);
    const solar::Location location;
    for (auto _ : state) {
        const auto sky = solar::prepare_sky_artifact_reference(
            location, grid, env, solar::SkyModel::HayDavies);
        benchmark::DoNotOptimize(sky.beam_eq.data());
    }
    state.SetItemsProcessed(state.iterations() * grid.total_steps());
}
BENCHMARK(BM_SharedSkyPrepareReference);

/// Batched prepare (per-day ephemeris hoisting + elementwise geometry
/// and transposition passes; the same scalar code at every level).
void BM_SharedSkyPrepare(benchmark::State& state) {
    const TimeGrid grid(15, 1, 365);
    const auto env = sky_bench_env(grid);
    const solar::Location location;
    for (auto _ : state) {
        const auto sky = solar::prepare_sky_artifact(
            location, grid, env, solar::SkyModel::HayDavies);
        benchmark::DoNotOptimize(sky.beam_eq.data());
    }
    state.SetItemsProcessed(state.iterations() * grid.total_steps());
}
BENCHMARK(BM_SharedSkyPrepare);

/// A cadastral-scale footprint: a 10^4-vertex star-ribbon ring around
/// the window center (radii alternating, so rows cross many edges).
std::vector<std::array<double, 2>> big_footprint(int vertices) {
    std::vector<std::array<double, 2>> poly;
    poly.reserve(static_cast<std::size_t>(vertices));
    for (int v = 0; v < vertices; ++v) {
        const double ang = v * 2.0 * kPi / vertices;
        const double r = (v % 2 == 0) ? 55.0 : 40.0 + (v % 7);
        poly.push_back(
            {60.0 + r * std::cos(ang), 60.0 + r * std::sin(ang)});
    }
    return poly;
}

/// Baseline: the pre-scanline footprint mask build — one even-odd ray
/// cast per cell, O(cells * edges).
void BM_FootprintMaskPerCell(benchmark::State& state) {
    const auto poly = big_footprint(static_cast<int>(state.range(0)));
    const int w = 120, h = 120;
    pvfp::Grid2D<unsigned char> mask(w, h, 0);
    for (auto _ : state) {
        for (int y = 0; y < h; ++y) {
            const double py = 120.0 - (y + 0.5) * 1.0;
            for (int x = 0; x < w; ++x) {
                const double px = 0.0 + (x + 0.5) * 1.0;
                mask(x, y) =
                    geo::point_in_polygon_even_odd(px, py, poly) ? 1 : 0;
            }
        }
        benchmark::DoNotOptimize(mask.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * w * h);
}
BENCHMARK(BM_FootprintMaskPerCell)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

/// The scanline rasterizer on the same footprint and window,
/// O(rows * edges + cells).
void BM_FootprintMaskScanline(benchmark::State& state) {
    const auto poly = big_footprint(static_cast<int>(state.range(0)));
    const int w = 120, h = 120;
    for (auto _ : state) {
        const auto mask =
            geo::rasterize_polygon_even_odd(poly, w, h, 1.0, 0.0, 120.0);
        benchmark::DoNotOptimize(mask.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * w * h);
}
BENCHMARK(BM_FootprintMaskScanline)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

void BM_HistogramAddPercentile(benchmark::State& state) {
    Rng rng(3);
    std::vector<double> samples(8192);
    for (auto& v : samples) v = rng.uniform(0.0, 1200.0);
    for (auto _ : state) {
        Histogram h(0.0, 1400.0, 256);
        for (double v : samples) h.add(v);
        benchmark::DoNotOptimize(h.percentile(75.0));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<long>(samples.size()));
}
BENCHMARK(BM_HistogramAddPercentile);

void BM_AggregatePanel(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    const pv::Topology topo{8, n / 8};
    Rng rng(5);
    std::vector<pv::OperatingPoint> points(
        static_cast<std::size_t>(n));
    for (auto& p : points) {
        p.power_w = rng.uniform(50.0, 165.0);
        p.voltage_v = rng.uniform(20.0, 25.0);
        p.current_a = p.power_w / p.voltage_v;
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(pv::aggregate_panel(points, topo));
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_AggregatePanel)->Arg(16)->Arg(32)->Arg(64);

void BM_SummedAreaTable(benchmark::State& state) {
    Rng rng(9);
    Grid2D<double> grid(296, 51);
    for (auto& v : grid.data()) v = rng.uniform(0.0, 650.0);
    for (auto _ : state) {
        SummedAreaTable sat(grid);
        benchmark::DoNotOptimize(sat.rect_sum(10, 10, 64, 16));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<long>(grid.size()));
}
BENCHMARK(BM_SummedAreaTable);

}  // namespace

BENCHMARK_MAIN();
