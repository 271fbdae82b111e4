/// \file test_batched_kernels.cpp
/// Property suite for the batched SoA irradiance kernel: the footprint
/// kernel (one k1 x k2 footprint, run of a StepPack) — through
/// cell_irradiance_packed (1x1), anchor_irradiance_series, and
/// footprint_irradiance_packed_unchecked itself — must be *bitwise
/// equal* to the scalar cell_irradiance_unchecked /
/// anchor_irradiance_unchecked loops across randomized roofs, step lists
/// (strided, with nights, scrambled), footprint shapes on every window
/// edge, all three fold modes, run lengths 0-17 and shard tails,
/// per-cell normals on/off, a NaN sky-view factor, both sky models, and
/// every runnable SIMD level.  This is the determinism contract that lets
/// the evaluator, suitability, and incremental-evaluator hot paths run
/// through the kernel without moving a single golden digit.  The batched
/// operating points (sample_operating_points) are pinned against the
/// scalar sample_operating_point, and the suitability binning kernel
/// (bin_series) against Histogram::bin_index.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "pvfp/core/evaluator.hpp"
#include "pvfp/core/suitability.hpp"
#include "pvfp/geo/raster.hpp"
#include "pvfp/pv/module.hpp"
#include "pvfp/solar/irradiance.hpp"
#include "pvfp/solar/irradiance_kernels.hpp"
#include "pvfp/util/rng.hpp"
#include "pvfp/util/simd.hpp"
#include "pvfp/util/stats.hpp"
#include "test_helpers.hpp"

namespace {

using namespace pvfp;

/// Restores auto dispatch when a test that forces a level exits.
struct SimdLevelGuard {
    ~SimdLevelGuard() { set_simd_level_auto(); }
};

// The dedicated Avx512 tests below announce the skip of that tier.
using pvfp::testing::runnable_levels;

struct RandomFieldSpec {
    std::uint64_t seed = 1;
    bool normals = false;
    solar::SkyModel sky = solar::SkyModel::HayDavies;
    int width = 19;  ///< odd width exercises the SIMD tail loops
    int height = 7;
    int days = 3;
    /// Window cell (row-major index) whose sky-view factor is replaced
    /// by NaN, or -1 for none.
    long nan_svf_cell = -1;
};

/// A small rough roof with random obstacles and random (sometimes zero,
/// sometimes night-lit) weather, so every kernel branch — beam on/off,
/// shaded/lit, cosi sign — is exercised.
solar::IrradianceField random_field(const RandomFieldSpec& spec) {
    Rng rng(spec.seed);
    geo::Raster dsm(spec.width + 4, spec.height + 4, 0.2, 5.0);
    for (int y = 0; y < dsm.height(); ++y)
        for (int x = 0; x < dsm.width(); ++x)
            dsm(x, y) += rng.uniform(0.0, 0.3);  // surface roughness
    const int n_obstacles = 2 + static_cast<int>(rng.uniform_int(3));
    for (int o = 0; o < n_obstacles; ++o) {
        const int ox = static_cast<int>(rng.uniform_int(
            static_cast<std::uint64_t>(dsm.width())));
        const int oy = static_cast<int>(rng.uniform_int(
            static_cast<std::uint64_t>(dsm.height())));
        dsm(ox, oy) += rng.uniform(1.0, 5.0);
    }

    const TimeGrid grid(60, 120, spec.days);
    std::vector<solar::EnvSample> env(
        static_cast<std::size_t>(grid.total_steps()));
    for (auto& e : env) {
        if (rng.bernoulli(0.15)) continue;  // dead step: all zeros
        e.ghi = rng.uniform(0.0, 900.0);
        e.dni = rng.bernoulli(0.2) ? 0.0 : rng.uniform(0.0, 850.0);
        e.dhi = rng.uniform(0.0, 350.0);
        e.temp_air_c = rng.uniform(-5.0, 35.0);
    }

    geo::HorizonOptions hopt;
    hopt.azimuth_sectors = 24;
    hopt.max_distance = 12.0;
    geo::HorizonMap horizon(dsm, 2, 2, spec.width, spec.height, hopt);
    if (spec.nan_svf_cell >= 0) {
        const std::size_t planes = static_cast<std::size_t>(
            horizon.cell_count() * horizon.sectors());
        std::vector<float> angles(horizon.angles_data(),
                                  horizon.angles_data() + planes);
        std::vector<float> svf(
            horizon.svf_data(),
            horizon.svf_data() + horizon.cell_count());
        svf[static_cast<std::size_t>(spec.nan_svf_cell)] =
            std::numeric_limits<float>::quiet_NaN();
        horizon = geo::HorizonMap::from_planes(
            2, 2, spec.width, spec.height, horizon.sectors(),
            std::move(angles), std::move(svf));
    }
    geo::NormalMap normals;
    if (spec.normals)
        normals = geo::NormalMap::from_dsm(dsm, 2, 2, spec.width,
                                           spec.height);
    solar::FieldConfig config;
    config.sky_model = spec.sky;
    return solar::IrradianceField(
        std::move(horizon), std::move(env), grid,
        deg2rad(rng.uniform(5.0, 45.0)), deg2rad(rng.uniform(90.0, 270.0)),
        config, std::move(normals));
}

std::vector<RandomFieldSpec> all_specs() {
    std::vector<RandomFieldSpec> specs;
    std::uint64_t seed = 100;
    for (const bool normals : {false, true})
        for (const auto sky :
             {solar::SkyModel::Isotropic, solar::SkyModel::HayDavies}) {
            RandomFieldSpec s;
            s.seed = seed++;
            s.normals = normals;
            s.sky = sky;
            specs.push_back(s);
        }
    return specs;
}

/// A random subset of the field's steps with a few duplicates and
/// out-of-order entries: the packed kernel contract is per-element, not
/// per-sorted-list.
std::vector<long> scrambled_steps(const solar::IrradianceField& field,
                                  std::uint64_t seed) {
    Rng rng(seed);
    std::vector<long> steps;
    for (long s = 0; s < field.steps(); ++s)
        if (rng.bernoulli(0.6)) steps.push_back(s);
    if (steps.size() > 4) {
        steps.push_back(steps[2]);
        std::swap(steps[0], steps[steps.size() / 2]);
    }
    return steps;
}

/// The step lists every packed test sweeps: strided lists (nights
/// included), the daylight steps alone, the night steps alone, a
/// scrambled list with duplicates, and the empty list.
std::vector<std::vector<long>> step_lists(const solar::IrradianceField& field,
                                          std::uint64_t seed) {
    std::vector<std::vector<long>> lists;
    for (const long stride : {1L, 3L, 4L, 7L}) {
        std::vector<long> strided;
        for (long s = stride / 2; s < field.steps(); s += stride)
            strided.push_back(s);
        lists.push_back(std::move(strided));
    }
    std::vector<long> days;
    std::vector<long> nights;
    for (long s = 0; s < field.steps(); ++s)
        (field.is_daylight(s) ? days : nights).push_back(s);
    lists.push_back(std::move(days));
    lists.push_back(std::move(nights));
    lists.push_back(scrambled_steps(field, seed));
    lists.emplace_back();
    return lists;
}

/// Packed runs of a pack of \p n steps: the whole pack, and a run that
/// starts off a vector boundary and ends short of the pack's end.
std::vector<std::pair<long, long>> packed_runs(long n) {
    std::vector<std::pair<long, long>> runs{{0, n}};
    if (n > 5) runs.emplace_back(3, n - 2);
    return runs;
}

void expect_packed_matches(const solar::IrradianceField& field,
                           std::uint64_t seed) {
    for (const auto& steps : step_lists(field, seed)) {
        const solar::StepPack pack = field.pack_steps(steps);
        ASSERT_EQ(pack.size(), static_cast<long>(steps.size()));
        std::vector<double> out(steps.size());
        for (const auto& [p0, p1] : packed_runs(pack.size()))
            for (int y = 0; y < field.height(); y += 2)
                for (int x = 0; x < field.width(); x += 3) {
                    field.cell_irradiance_packed(pack, x, y, p0, p1,
                                                 out.data());
                    for (long p = p0; p < p1; ++p)
                        ASSERT_EQ(out[static_cast<std::size_t>(p - p0)],
                                  field.cell_irradiance_unchecked(
                                      x, y,
                                      steps[static_cast<std::size_t>(p)]))
                            << "list of " << steps.size() << " steps, run ["
                            << p0 << ", " << p1 << "), x=" << x
                            << " y=" << y << " p=" << p;
                }
    }
}

void expect_anchor_series_matches(const solar::IrradianceField& field,
                                  std::uint64_t seed) {
    const core::PanelGeometry geometry{5, 3};
    for (const auto& steps : step_lists(field, seed)) {
        const solar::StepPack pack = field.pack_steps(steps);
        std::vector<double> out(steps.size());
        for (const auto mode :
             {core::ModuleIrradiance::FootprintMean,
              core::ModuleIrradiance::WorstCell,
              core::ModuleIrradiance::AnchorCell})
            for (const auto& [p0, p1] : packed_runs(pack.size()))
                for (int y = 0; y + geometry.k2 <= field.height(); y += 2)
                    for (int x = 0; x + geometry.k1 <= field.width();
                         x += 4) {
                        core::anchor_irradiance_series(geometry, x, y, field,
                                                       pack, p0, p1, mode,
                                                       out.data());
                        for (long p = p0; p < p1; ++p)
                            ASSERT_EQ(
                                out[static_cast<std::size_t>(p - p0)],
                                core::anchor_irradiance_unchecked(
                                    geometry, x, y, field,
                                    steps[static_cast<std::size_t>(p)],
                                    mode))
                                << "anchor series mismatch, list of "
                                << steps.size() << " steps, x=" << x
                                << " y=" << y << " p=" << p << " mode="
                                << static_cast<int>(mode);
                    }
    }
}

TEST(BatchedKernels, AnchorSeriesMatchesScalarAcrossModes) {
    SimdLevelGuard guard;
    for (const auto& spec : all_specs()) {
        const auto field = random_field(spec);
        for (const SimdLevel level : runnable_levels()) {
            set_simd_level(level);
            expect_anchor_series_matches(field, spec.seed + 13);
        }
    }
}

/// Bitwise equality, NaN payloads included (a NaN sky-view factor makes
/// the footprint mean NaN).
bool same_bits(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Packed runs for the footprint kernel over a pack of \p n steps: every
/// length 0-17 from entry 0 and from entry 3 (partial 8-step vectors and
/// tails of every width), the pack's tail of each such length, and the
/// runs of the evaluator's shard grid over \p axis.
std::vector<std::pair<long, long>> footprint_runs(
    long n, const core::DaylightAxis& axis) {
    std::vector<std::pair<long, long>> runs;
    for (long len = 0; len <= 17; ++len)
        for (const long p0 : {0L, 3L, n - len})
            if (p0 >= 0 && p0 + len <= n) runs.emplace_back(p0, p0 + len);
    for (long c = 0; c < axis.shards(); ++c)
        runs.emplace_back(axis.shard_offsets[static_cast<std::size_t>(c)],
                          axis.shard_offsets[static_cast<std::size_t>(c) + 1]);
    return runs;
}

/// The footprint kernel against the scalar per-step fold, for every
/// mode, the landscape 8x4 and portrait 4x8 module footprints plus 1x1
/// and 3x2, anchored against each window edge and inside.
void expect_footprint_matches(const solar::IrradianceField& field) {
    const core::DaylightAxis axis = core::sample_daylight(field, 1);
    const solar::StepPack& pack = axis.pack;
    std::vector<double> out(static_cast<std::size_t>(pack.size()) + 1);
    const double canary = -12345.0;
    for (const core::PanelGeometry geometry :
         {core::PanelGeometry{8, 4}, core::PanelGeometry{4, 8},
          core::PanelGeometry{1, 1}, core::PanelGeometry{3, 2}}) {
        const int x_max = field.width() - geometry.k1;
        const int y_max = field.height() - geometry.k2;
        for (const auto mode :
             {core::ModuleIrradiance::FootprintMean,
              core::ModuleIrradiance::WorstCell,
              core::ModuleIrradiance::AnchorCell})
            for (const int y : {0, y_max / 2, y_max})
                for (const int x : {0, x_max / 2, x_max})
                    for (const auto& [p0, p1] :
                         footprint_runs(pack.size(), axis)) {
                        const std::size_t n =
                            static_cast<std::size_t>(p1 - p0);
                        std::fill(out.begin(), out.end(), canary);
                        field.footprint_irradiance_packed_unchecked(
                            pack, x, y, geometry.k1, geometry.k2, mode, p0,
                            p1, out.data());
                        ASSERT_EQ(out[n], canary)
                            << "wrote past the run of " << n;
                        for (long p = p0; p < p1; ++p) {
                            const double want =
                                core::anchor_irradiance_unchecked(
                                    geometry, x, y, field,
                                    axis.steps[static_cast<std::size_t>(p)],
                                    mode);
                            ASSERT_TRUE(same_bits(
                                out[static_cast<std::size_t>(p - p0)], want))
                                << geometry.k1 << "x" << geometry.k2
                                << " at x=" << x << " y=" << y << " mode="
                                << static_cast<int>(mode) << " run [" << p0
                                << ", " << p1 << ") p=" << p << ": "
                                << out[static_cast<std::size_t>(p - p0)]
                                << " != " << want;
                        }
                    }
    }
}

TEST(BatchedKernels, FootprintKernelMatchesScalarFold) {
    SimdLevelGuard guard;
    for (RandomFieldSpec spec : all_specs()) {
        spec.width = 21;
        spec.height = 11;
        spec.days = 2;
        const auto field = random_field(spec);
        for (const SimdLevel level : runnable_levels()) {
            set_simd_level(level);
            SCOPED_TRACE(simd_level_name(level));
            expect_footprint_matches(field);
        }
    }
}

TEST(BatchedKernels, FootprintKernelMatchesWithNanSkyViewFactor) {
    // A NaN sky-view factor poisons the NaN cell's G: the mean of a
    // footprint holding it is NaN, the worst-cell fold skips it
    // (std::min keeps the accumulator against NaN), and every level
    // must reproduce both bit for bit.
    SimdLevelGuard guard;
    for (const bool normals : {false, true}) {
        RandomFieldSpec spec;
        spec.seed = 77;
        spec.normals = normals;
        spec.width = 21;
        spec.height = 11;
        spec.days = 2;
        spec.nan_svf_cell = 5L * spec.width + 10;  // inside every middle
        const auto field = random_field(spec);
        ASSERT_TRUE(std::isnan(field.horizon().sky_view_factor(10, 5)));
        for (const SimdLevel level : runnable_levels()) {
            set_simd_level(level);
            SCOPED_TRACE(simd_level_name(level));
            expect_footprint_matches(field);
        }
    }
}

TEST(BatchedKernels, OperatingPointBatchMatchesScalar) {
    const pv::EmpiricalModuleModel model;
    const double k_th = 1.0 / 30.0;
    Rng rng(9);
    std::vector<double> g;
    std::vector<double> t_air;
    for (int k = 0; k < 37; ++k) {
        // Dark samples (g = 0) interleave with lit ones; odd counts leave
        // vector tails.
        g.push_back(k % 5 == 0 ? 0.0 : rng.uniform(0.0, 1300.0));
        t_air.push_back(rng.uniform(-25.0, 45.0));
    }
    g.push_back(1e-300);
    t_air.push_back(250.0);  // derate below zero: clamped power
    const std::size_t n = g.size();
    std::vector<double> power(n), voltage(n), current(n);
    core::sample_operating_points(model, g.data(), t_air.data(), k_th, n,
                                  power.data(), voltage.data(),
                                  current.data());
    for (std::size_t k = 0; k < n; ++k) {
        const pv::OperatingPoint op =
            core::sample_operating_point(model, g[k], t_air[k], k_th);
        EXPECT_TRUE(same_bits(power[k], op.power_w)) << "k=" << k;
        EXPECT_TRUE(same_bits(voltage[k], op.voltage_v)) << "k=" << k;
        EXPECT_TRUE(same_bits(current[k], op.current_a)) << "k=" << k;
    }
    EXPECT_EQ(voltage[0], 0.0);
    EXPECT_EQ(current[0], 0.0);
    EXPECT_EQ(power[n - 1], 0.0);

    // One invalid sample anywhere fails the whole batch, before any
    // output is written, with the scalar call's message.
    core::sample_operating_points(model, g.data(), t_air.data(), k_th, 0,
                                  nullptr, nullptr, nullptr);
    for (const double bad : {-1.0, -0.5e-300,
                             std::numeric_limits<double>::quiet_NaN()}) {
        std::vector<double> with_bad = g;
        with_bad[n / 2] = bad;
        std::string scalar_what;
        try {
            core::sample_operating_point(model, bad, 20.0, k_th);
        } catch (const InvalidArgument& e) {
            scalar_what = e.what();
        }
        ASSERT_FALSE(scalar_what.empty()) << "g=" << bad;
        std::vector<double> untouched(n, 7.0);
        try {
            core::sample_operating_points(model, with_bad.data(),
                                          t_air.data(), k_th, n,
                                          untouched.data(), voltage.data(),
                                          current.data());
            ADD_FAILURE() << "no throw for g=" << bad;
        } catch (const InvalidArgument& e) {
            EXPECT_EQ(std::string(e.what()), scalar_what);
        }
        EXPECT_EQ(untouched, std::vector<double>(n, 7.0));
    }
}

TEST(BatchedKernels, PackOfAnyStepListMatchesSeries) {
    // pack_steps over any step list — strided, daylight only, nights
    // only, scrambled with duplicates, or empty — swept by the packed
    // kernel over the whole pack or an inner run must equal the scalar
    // cell_irradiance_unchecked on the listed steps bit for bit.
    SimdLevelGuard guard;
    for (const auto& spec : all_specs()) {
        const auto field = random_field(spec);
        for (const SimdLevel level : runnable_levels()) {
            set_simd_level(level);
            expect_packed_matches(field, spec.seed + 7);
        }
    }
}

TEST(BatchedKernels, SimdLevelsAgreeBitwise) {
    if (!cpu_supports_avx2())
        GTEST_SKIP() << "CPU has no AVX2; single-level build";
    SimdLevelGuard guard;
    RandomFieldSpec spec;
    spec.seed = 321;
    spec.normals = true;
    const auto field = random_field(spec);
    const std::vector<long> steps = scrambled_steps(field, 5);
    const solar::StepPack pack = field.pack_steps(steps);
    std::vector<double> scalar_out(steps.size());
    std::vector<double> simd_out(steps.size());
    for (int y = 0; y < field.height(); ++y)
        for (int x = 0; x < field.width(); ++x) {
            set_simd_level(SimdLevel::Scalar);
            field.cell_irradiance_packed(pack, x, y, 0, pack.size(),
                                         scalar_out.data());
            for (const SimdLevel level : runnable_levels()) {
                if (level == SimdLevel::Scalar) continue;
                set_simd_level(level);
                field.cell_irradiance_packed(pack, x, y, 0, pack.size(),
                                             simd_out.data());
                ASSERT_EQ(scalar_out, simd_out)
                    << "level " << simd_level_name(level);
            }
        }
}

TEST(BatchedKernels, Avx512MatchesScalarBitwise) {
    // The dedicated tier-2 gate: every kernel shape at the AVX-512
    // level against the scalar reference.  Skips visibly on hosts
    // without AVX-512F/VL — the CI avx512 leg greps for this notice.
    if (!cpu_supports_avx512())
        GTEST_SKIP() << "CPU has no AVX-512F/VL; avx512 tier not runnable";
    SimdLevelGuard guard;
    for (const auto& spec : all_specs()) {
        const auto field = random_field(spec);
        set_simd_level(SimdLevel::Avx512);
        expect_packed_matches(field, spec.seed + 7);
        expect_anchor_series_matches(field, spec.seed + 13);
    }
}

TEST(BatchedKernels, BinSeriesMatchesHistogramIncludingNan) {
    // bin_series must give every sample Histogram::bin_index's bin —
    // out-of-range and infinite samples clamp to the edge bins, and a
    // NaN G or air temperature (no defined bin) lands in the top bin —
    // at every runnable level.  Eleven samples leave an AVX-512 tail.
    SimdLevelGuard guard;
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const std::vector<double> g = {0.0, 512.3, nan, -3.0,  1400.0, inf,
                                   -inf, 0.5, 999.9, nan, 1e300};
    const std::vector<double> t_air = {20.0, nan, 5.0,  -60.0, 10.0, 0.0,
                                       30.0, nan, 15.0, 25.0,  -1.0};
    const double k_th = 1.0 / 30.0;
    const Histogram gh(0.0, 1200.0, 64);
    const Histogram th(-20.0, 80.0, 50);
    const solar::detail::BinAxis ga{gh.lo(), gh.hi(), gh.bin_width(),
                                    gh.bin_count()};
    const solar::detail::BinAxis ta{th.lo(), th.hi(), th.bin_width(),
                                    th.bin_count()};
    EXPECT_EQ(gh.bin_index(nan), gh.bin_count() - 1);
    std::vector<std::int32_t> g_bins(g.size());
    std::vector<std::int32_t> t_bins(g.size());
    for (const SimdLevel level : runnable_levels()) {
        set_simd_level(level);
        solar::detail::bin_series(g.data(), g.size(), t_air.data(), k_th, ga,
                                  ta, g_bins.data(), t_bins.data());
        for (std::size_t k = 0; k < g.size(); ++k) {
            EXPECT_EQ(g_bins[k], gh.bin_index(g[k]))
                << "g[" << k << "] level " << simd_level_name(level);
            EXPECT_EQ(t_bins[k], th.bin_index(t_air[k] + k_th * g[k]))
                << "t[" << k << "] level " << simd_level_name(level);
        }
        EXPECT_EQ(g_bins[2], ga.bins - 1);
        EXPECT_EQ(t_bins[1], ta.bins - 1);
    }
}

TEST(BatchedKernels, EvaluatorTotalsInvariantUnderSimd) {
    if (!cpu_supports_avx2())
        GTEST_SKIP() << "CPU has no AVX2; single-level build";
    SimdLevelGuard guard;
    const auto setup = pvfp::testing::shaded_setup();
    core::Floorplan plan;
    plan.geometry = {3, 2};
    plan.topology = {2, 2};
    plan.modules = {{0, 0}, {4, 0}, {0, 4 + 2}, {16, 2}};
    core::EvaluationOptions options;
    options.step_stride = 2;

    set_simd_level(SimdLevel::Scalar);
    const auto scalar_result = core::evaluate_floorplan(
        plan, setup.area, setup.field, setup.model, options);
    for (const SimdLevel level : runnable_levels()) {
        if (level == SimdLevel::Scalar) continue;
        set_simd_level(level);
        const auto simd_result = core::evaluate_floorplan(
            plan, setup.area, setup.field, setup.model, options);
        EXPECT_EQ(scalar_result.energy_kwh, simd_result.energy_kwh);
        EXPECT_EQ(scalar_result.ideal_energy_kwh,
                  simd_result.ideal_energy_kwh);
        EXPECT_EQ(scalar_result.mismatch_loss_kwh,
                  simd_result.mismatch_loss_kwh);
        EXPECT_EQ(scalar_result.wiring_loss_kwh,
                  simd_result.wiring_loss_kwh);
    }
}

TEST(BatchedKernels, SuitabilityInvariantUnderSimd) {
    if (!cpu_supports_avx2())
        GTEST_SKIP() << "CPU has no AVX2; single-level build";
    SimdLevelGuard guard;
    const auto setup = pvfp::testing::shaded_setup();
    core::SuitabilityOptions options;

    set_simd_level(SimdLevel::Scalar);
    const auto scalar_result =
        core::compute_suitability(setup.field, setup.area, options);
    for (const SimdLevel level : runnable_levels()) {
        if (level == SimdLevel::Scalar) continue;
        set_simd_level(level);
        const auto simd_result =
            core::compute_suitability(setup.field, setup.area, options);
        EXPECT_EQ(scalar_result.suitability, simd_result.suitability);
        EXPECT_EQ(scalar_result.g_percentile, simd_result.g_percentile);
        EXPECT_EQ(scalar_result.t_percentile, simd_result.t_percentile);
    }
}

TEST(BatchedKernels, PackedValidatesArguments) {
    const TimeGrid grid = pvfp::testing::coarse_grid(1);
    const auto field = pvfp::testing::flat_field(
        8, 4, grid, pvfp::testing::constant_weather(grid));
    const long bad_step[] = {0, grid.total_steps()};
    const long neg_step[] = {-1};
    EXPECT_THROW(field.pack_steps(bad_step), InvalidArgument);
    EXPECT_THROW(field.pack_steps(neg_step), InvalidArgument);
    const long good[] = {0, 1, 2, 3};
    const solar::StepPack pack = field.pack_steps(good);
    double out[5];
    EXPECT_THROW(field.cell_irradiance_packed(pack, 0, 0, 0, 5, out),
                 InvalidArgument);
    EXPECT_THROW(field.cell_irradiance_packed(pack, 0, 0, -1, 0, out),
                 InvalidArgument);
    EXPECT_THROW(field.cell_irradiance_packed(pack, 0, 0, 3, 2, out),
                 InvalidArgument);
    EXPECT_THROW(field.cell_irradiance_packed(pack, 8, 0, 0, 1, out),
                 InvalidArgument);
    EXPECT_THROW(field.cell_irradiance_packed(pack, 0, 4, 0, 1, out),
                 InvalidArgument);
    EXPECT_NO_THROW(field.cell_irradiance_packed(pack, 0, 0, 4, 4, out));
    EXPECT_NO_THROW(field.cell_irradiance_packed(pack, 7, 3, 0, 4, out));
}

TEST(BatchedKernels, AnchorSeriesValidatesArguments) {
    const TimeGrid grid = pvfp::testing::coarse_grid(1);
    const auto field = pvfp::testing::flat_field(
        8, 4, grid, pvfp::testing::constant_weather(grid));
    const core::PanelGeometry geometry{3, 2};
    const long steps[] = {0, 5, 9};
    const solar::StepPack pack = field.pack_steps(steps);
    const auto mean = core::ModuleIrradiance::FootprintMean;
    double out[4];
    // Packed range outside the pack.
    EXPECT_THROW(core::anchor_irradiance_series(geometry, 0, 0, field, pack,
                                                0, 4, mean, out),
                 InvalidArgument);
    EXPECT_THROW(core::anchor_irradiance_series(geometry, 0, 0, field, pack,
                                                -1, 2, mean, out),
                 InvalidArgument);
    EXPECT_THROW(core::anchor_irradiance_series(geometry, 0, 0, field, pack,
                                                2, 1, mean, out),
                 InvalidArgument);
    // Footprint leaving the window.
    EXPECT_THROW(core::anchor_irradiance_series(geometry, 6, 0, field, pack,
                                                0, 3, mean, out),
                 InvalidArgument);
    EXPECT_THROW(core::anchor_irradiance_series(geometry, 0, 3, field, pack,
                                                0, 3, mean, out),
                 InvalidArgument);
    EXPECT_THROW(core::anchor_irradiance_series(geometry, -1, 0, field, pack,
                                                0, 3, mean, out),
                 InvalidArgument);
    EXPECT_NO_THROW(core::anchor_irradiance_series(geometry, 5, 2, field,
                                                   pack, 0, 3, mean, out));
    EXPECT_NO_THROW(core::anchor_irradiance_series(geometry, 0, 0, field,
                                                   pack, 3, 3, mean, out));
}

TEST(BatchedKernels, EnvValidationStillRejectsNegativeIrradiance) {
    const TimeGrid grid = pvfp::testing::coarse_grid(1);
    auto env = pvfp::testing::constant_weather(grid);
    env[3].dni = -1.0;
    geo::Raster dsm(4, 4, 0.2, 5.0);
    geo::HorizonOptions hopt;
    hopt.azimuth_sectors = 8;
    hopt.max_distance = 2.0;
    geo::HorizonMap horizon(dsm, 0, 0, 4, 4, hopt);
    EXPECT_THROW(solar::IrradianceField(std::move(horizon), std::move(env),
                                        grid, deg2rad(26.0),
                                        deg2rad(180.0)),
                 InvalidArgument);
}

TEST(SimdDispatch, ForcedLevelsRoundTrip) {
    SimdLevelGuard guard;
    set_simd_level(SimdLevel::Scalar);
    EXPECT_EQ(simd_level(), SimdLevel::Scalar);
    if (cpu_supports_avx2()) {
        set_simd_level(SimdLevel::Avx2);
        EXPECT_EQ(simd_level(), SimdLevel::Avx2);
    } else {
        EXPECT_THROW(set_simd_level(SimdLevel::Avx2), InvalidArgument);
    }
    if (cpu_supports_avx512()) {
        set_simd_level(SimdLevel::Avx512);
        EXPECT_EQ(simd_level(), SimdLevel::Avx512);
    } else {
        EXPECT_THROW(set_simd_level(SimdLevel::Avx512), InvalidArgument);
    }
    // Auto resolves to the widest runnable tier when PVFP_SIMD does not
    // force one: clear it around the check (a CI step forcing a level
    // runs this test too) and restore it after.
    const char* forced = std::getenv("PVFP_SIMD");
    const std::string saved = forced != nullptr ? forced : "";
    unsetenv("PVFP_SIMD");
    set_simd_level_auto();
    const SimdLevel resolved = simd_level();
    if (forced != nullptr) setenv("PVFP_SIMD", saved.c_str(), 1);
    if (cpu_supports_avx512())
        EXPECT_EQ(resolved, SimdLevel::Avx512);
    else if (cpu_supports_avx2())
        EXPECT_EQ(resolved, SimdLevel::Avx2);
    else
        EXPECT_EQ(resolved, SimdLevel::Scalar);
}

TEST(SimdDispatch, EnvToggleIsStrict) {
    const char* old = std::getenv("PVFP_SIMD");
    const std::string saved = old != nullptr ? old : "";
    // Unknown values and impossible requests must fail loudly — a CI
    // job forcing a level must never silently test the wrong kernels.
    setenv("PVFP_SIMD", "bogus", 1);
    EXPECT_THROW(set_simd_level_auto(), InvalidArgument);
    setenv("PVFP_SIMD", "scalar", 1);
    set_simd_level_auto();
    EXPECT_EQ(simd_level(), SimdLevel::Scalar);
    if (cpu_supports_avx2()) {
        setenv("PVFP_SIMD", "avx2", 1);
        set_simd_level_auto();
        EXPECT_EQ(simd_level(), SimdLevel::Avx2);
    }
    if (cpu_supports_avx512()) {
        setenv("PVFP_SIMD", "avx512", 1);
        set_simd_level_auto();
        EXPECT_EQ(simd_level(), SimdLevel::Avx512);
    } else {
        setenv("PVFP_SIMD", "avx512", 1);
        EXPECT_THROW(set_simd_level_auto(), InvalidArgument);
    }
    if (old != nullptr)
        setenv("PVFP_SIMD", saved.c_str(), 1);
    else
        unsetenv("PVFP_SIMD");
    set_simd_level_auto();
}

}  // namespace
