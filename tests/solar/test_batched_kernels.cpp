/// \file test_batched_kernels.cpp
/// Property suite for the batched SoA irradiance kernels: the row kernel
/// (fixed step, span of cells), the series kernel (fixed cell, span of
/// steps), and the footprint-level anchor_irradiance_series must be
/// *bitwise equal* to the scalar cell_irradiance_unchecked loops across
/// randomized roofs, per-cell normals on/off, both sky models, and both
/// SIMD dispatch levels.  This is the determinism contract that lets the
/// evaluator, suitability, and incremental-evaluator hot paths run
/// through the kernels without moving a single golden digit.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "pvfp/core/evaluator.hpp"
#include "pvfp/core/suitability.hpp"
#include "pvfp/geo/raster.hpp"
#include "pvfp/solar/irradiance.hpp"
#include "pvfp/util/rng.hpp"
#include "pvfp/util/simd.hpp"
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

/// Every step of the field, plus a scrambled subset, as series spans.
std::vector<long> scrambled_steps(const solar::IrradianceField& field,
                                  std::uint64_t seed) {
    Rng rng(seed);
    std::vector<long> steps;
    for (long s = 0; s < field.steps(); ++s)
        if (rng.bernoulli(0.6)) steps.push_back(s);
    // A few duplicates and out-of-order entries: the kernel contract is
    // per-element, not per-sorted-span.
    if (steps.size() > 4) {
        steps.push_back(steps[2]);
        std::swap(steps[0], steps[steps.size() / 2]);
    }
    return steps;
}

void expect_row_matches(const solar::IrradianceField& field) {
    std::vector<double> out(static_cast<std::size_t>(field.width()));
    for (long s = 0; s < field.steps(); s += 3) {
        for (int y = 0; y < field.height(); ++y) {
            field.cell_irradiance_row(y, s, 0, field.width(), out.data());
            for (int x = 0; x < field.width(); ++x) {
                ASSERT_EQ(out[static_cast<std::size_t>(x)],
                          field.cell_irradiance_unchecked(x, y, s))
                    << "row mismatch at x=" << x << " y=" << y
                    << " s=" << s;
            }
        }
    }
    // Partial spans (offset start exercises unaligned SIMD heads).
    const int x0 = 3;
    const int x1 = field.width() - 2;
    field.cell_irradiance_row(1, 5, x0, x1, out.data());
    for (int x = x0; x < x1; ++x)
        ASSERT_EQ(out[static_cast<std::size_t>(x - x0)],
                  field.cell_irradiance_unchecked(x, 1, 5));
}

void expect_series_matches(const solar::IrradianceField& field,
                           std::uint64_t seed) {
    const std::vector<long> steps = scrambled_steps(field, seed);
    std::vector<double> out(steps.size());
    for (int y = 0; y < field.height(); y += 2) {
        for (int x = 0; x < field.width(); x += 3) {
            field.cell_irradiance_series(x, y, steps, out.data());
            for (std::size_t k = 0; k < steps.size(); ++k) {
                ASSERT_EQ(out[k],
                          field.cell_irradiance_unchecked(x, y, steps[k]))
                    << "series mismatch at x=" << x << " y=" << y
                    << " k=" << k;
            }
        }
    }
}

void expect_anchor_series_matches(const solar::IrradianceField& field,
                                  std::uint64_t seed) {
    const core::PanelGeometry geometry{5, 3};
    const std::vector<long> steps = scrambled_steps(field, seed);
    std::vector<double> out(steps.size());
    for (const auto mode :
         {core::ModuleIrradiance::FootprintMean,
          core::ModuleIrradiance::WorstCell,
          core::ModuleIrradiance::AnchorCell}) {
        for (int y = 0; y + geometry.k2 <= field.height(); y += 2) {
            for (int x = 0; x + geometry.k1 <= field.width(); x += 4) {
                core::anchor_irradiance_series(geometry, x, y, field,
                                               steps, mode, out.data());
                for (std::size_t k = 0; k < steps.size(); ++k) {
                    ASSERT_EQ(out[k], core::anchor_irradiance_unchecked(
                                          geometry, x, y, field, steps[k],
                                          mode))
                        << "anchor series mismatch at x=" << x
                        << " y=" << y << " k=" << k << " mode="
                        << static_cast<int>(mode);
                }
            }
        }
    }
}

TEST(BatchedKernels, RowMatchesScalarAcrossRoofs) {
    SimdLevelGuard guard;
    for (const auto& spec : all_specs()) {
        const auto field = random_field(spec);
        for (const SimdLevel level : runnable_levels()) {
            set_simd_level(level);
            expect_row_matches(field);
        }
    }
}

TEST(BatchedKernels, SeriesMatchesScalarAcrossRoofs) {
    SimdLevelGuard guard;
    for (const auto& spec : all_specs()) {
        const auto field = random_field(spec);
        for (const SimdLevel level : runnable_levels()) {
            set_simd_level(level);
            expect_series_matches(field, spec.seed + 7);
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

TEST(BatchedKernels, PackedPlanesMatchUnpackedSeries) {
    // The daylight-packed planes are bitwise copies: sweeping them via
    // cell_irradiance_packed must reproduce the scalar per-step
    // reference on the mapped original steps, at every dispatch level.
    SimdLevelGuard guard;
    for (const auto& spec : all_specs()) {
        const auto field = random_field(spec);
        const auto packed = field.packed_to_step();
        ASSERT_GT(field.packed_steps(), 0);
        std::vector<double> out(packed.size());
        for (const SimdLevel level : runnable_levels()) {
            set_simd_level(level);
            for (int y = 0; y < field.height(); y += 2)
                for (int x = 0; x < field.width(); x += 3) {
                    field.cell_irradiance_packed(field.daylight_pack(), x,
                                                 y, 0, field.packed_steps(),
                                                 out.data());
                    for (std::size_t k = 0; k < packed.size(); ++k)
                        ASSERT_EQ(out[k], field.cell_irradiance_unchecked(
                                              x, y, packed[k]))
                            << "packed mismatch at x=" << x << " y=" << y
                            << " k=" << k << " level="
                            << simd_level_name(level);
                }
        }
    }
}

TEST(BatchedKernels, PackOfAnyStepListMatchesSeries) {
    // pack_steps over an arbitrary sorted step list — strided, with
    // night steps, or empty — swept by the packed kernel must equal
    // cell_irradiance_series on the same steps bit for bit.
    SimdLevelGuard guard;
    for (const auto& spec : all_specs()) {
        const auto field = random_field(spec);
        std::vector<std::vector<long>> lists;
        for (const long stride : {1L, 3L, 4L, 7L}) {
            std::vector<long> strided;  // nights included
            for (long s = stride / 2; s < field.steps(); s += stride)
                strided.push_back(s);
            lists.push_back(std::move(strided));
        }
        {
            std::vector<long> nights;
            for (long s = 0; s < field.steps(); ++s)
                if (!field.is_daylight(s)) nights.push_back(s);
            lists.push_back(std::move(nights));
        }
        lists.emplace_back();
        for (const auto& steps : lists) {
            const solar::StepPack pack = field.pack_steps(steps);
            ASSERT_EQ(pack.size(), static_cast<long>(steps.size()));
            std::vector<double> packed_out(steps.size());
            std::vector<double> series_out(steps.size());
            for (const SimdLevel level : runnable_levels()) {
                set_simd_level(level);
                for (int y = 0; y < field.height(); y += 2)
                    for (int x = 0; x < field.width(); x += 3) {
                        field.cell_irradiance_packed(pack, x, y, 0,
                                                     pack.size(),
                                                     packed_out.data());
                        field.cell_irradiance_series(x, y, steps,
                                                     series_out.data());
                        ASSERT_EQ(packed_out, series_out)
                            << "list of " << steps.size() << " steps, x="
                            << x << " y=" << y
                            << " level=" << simd_level_name(level);
                    }
            }
        }
    }
    const auto field = random_field(RandomFieldSpec{});
    const long bad[] = {0, field.steps()};
    EXPECT_THROW(field.pack_steps(bad), InvalidArgument);
    const long one[] = {1};
    const solar::StepPack pack = field.pack_steps(one);
    double out[2];
    EXPECT_THROW(field.cell_irradiance_packed(pack, 0, 0, 0, 2, out),
                 InvalidArgument);
}

TEST(BatchedKernels, SeriesDetectsContiguousDaylightRuns) {
    // A step span that lists every daylight step between its endpoints
    // (what the stride-1 evaluator shards produce) takes the packed
    // fast path inside cell_irradiance_series; the result must stay
    // bitwise identical to the scalar reference.  Also probe sub-runs
    // crossing a night gap (contiguous in packed space) and spans that
    // must *not* match (scrambled, strided, night-leading).
    SimdLevelGuard guard;
    RandomFieldSpec spec;
    spec.seed = 777;
    spec.normals = true;
    const auto field = random_field(spec);
    const auto packed = field.packed_to_step();
    ASSERT_GT(packed.size(), 8u);

    std::vector<std::vector<long>> spans;
    spans.emplace_back(packed.begin(), packed.end());  // full daylight run
    spans.emplace_back(packed.begin() + 3,
                       packed.begin() + static_cast<long>(packed.size()) - 2);
    spans.push_back({packed[4]});
    {
        std::vector<long> strided;  // daylight stride 2: not contiguous
        for (std::size_t k = 0; k < packed.size(); k += 2)
            strided.push_back(packed[k]);
        spans.push_back(std::move(strided));
    }
    spans.push_back(scrambled_steps(field, 11));
    {
        std::vector<long> night_first;  // night step leads: gather path
        for (long s = 0; s < field.steps(); ++s)
            if (!field.is_daylight(s)) {
                night_first.push_back(s);
                break;
            }
        night_first.insert(night_first.end(), packed.begin(),
                           packed.begin() + 5);
        spans.push_back(std::move(night_first));
    }

    for (const SimdLevel level : runnable_levels()) {
        set_simd_level(level);
        for (const auto& steps : spans) {
            std::vector<double> out(steps.size());
            for (int y = 0; y < field.height(); y += 3)
                for (int x = 0; x < field.width(); x += 4) {
                    field.cell_irradiance_series(x, y, steps, out.data());
                    for (std::size_t k = 0; k < steps.size(); ++k)
                        ASSERT_EQ(out[k], field.cell_irradiance_unchecked(
                                              x, y, steps[k]))
                            << "span size " << steps.size() << " x=" << x
                            << " y=" << y << " k=" << k;
                }
        }
    }
}

TEST(BatchedKernels, PackedIndexMapsAreConsistent) {
    RandomFieldSpec spec;
    spec.seed = 555;
    const auto field = random_field(spec);
    const auto packed = field.packed_to_step();
    long count = 0;
    for (long s = 0; s < field.steps(); ++s) {
        const long p = field.packed_index(s);
        if (field.is_daylight(s)) {
            ASSERT_EQ(p, count);
            ASSERT_EQ(packed[static_cast<std::size_t>(p)], s);
            ++count;
        } else {
            ASSERT_EQ(p, -1);
        }
    }
    EXPECT_EQ(count, field.packed_steps());
    EXPECT_EQ(count, static_cast<long>(packed.size()));
    double out[1];
    const solar::StepPack& daylight = field.daylight_pack();
    EXPECT_THROW(field.cell_irradiance_packed(daylight, 0, 0, 0,
                                              field.packed_steps() + 1, out),
                 InvalidArgument);
    EXPECT_THROW(field.cell_irradiance_packed(daylight, 0, 0, -1, 0, out),
                 InvalidArgument);
    EXPECT_THROW(
        field.cell_irradiance_packed(daylight, field.width(), 0, 0, 1, out),
        InvalidArgument);
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
    std::vector<double> scalar_out(steps.size());
    std::vector<double> simd_out(steps.size());
    for (int y = 0; y < field.height(); ++y)
        for (int x = 0; x < field.width(); ++x) {
            set_simd_level(SimdLevel::Scalar);
            field.cell_irradiance_series(x, y, steps, scalar_out.data());
            for (const SimdLevel level : runnable_levels()) {
                if (level == SimdLevel::Scalar) continue;
                set_simd_level(level);
                field.cell_irradiance_series(x, y, steps, simd_out.data());
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
        expect_row_matches(field);
        expect_series_matches(field, spec.seed + 7);
        expect_anchor_series_matches(field, spec.seed + 13);
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

TEST(BatchedKernels, RowValidatesArguments) {
    const TimeGrid grid = pvfp::testing::coarse_grid(1);
    const auto field = pvfp::testing::flat_field(
        8, 4, grid, pvfp::testing::constant_weather(grid));
    double out[8];
    EXPECT_THROW(field.cell_irradiance_row(-1, 0, 0, 8, out),
                 InvalidArgument);
    EXPECT_THROW(field.cell_irradiance_row(0, -1, 0, 8, out),
                 InvalidArgument);
    EXPECT_THROW(field.cell_irradiance_row(0, grid.total_steps(), 0, 8, out),
                 InvalidArgument);
    EXPECT_THROW(field.cell_irradiance_row(0, 0, 0, 9, out),
                 InvalidArgument);
    EXPECT_THROW(field.cell_irradiance_row(0, 0, 5, 4, out),
                 InvalidArgument);
    EXPECT_NO_THROW(field.cell_irradiance_row(0, 0, 4, 4, out));
}

TEST(BatchedKernels, SeriesValidatesArguments) {
    const TimeGrid grid = pvfp::testing::coarse_grid(1);
    const auto field = pvfp::testing::flat_field(
        8, 4, grid, pvfp::testing::constant_weather(grid));
    double out[4];
    const long bad_step[] = {0, grid.total_steps()};
    const long neg_step[] = {-1};
    const long good[] = {0, 1, 2, 3};
    EXPECT_THROW(field.cell_irradiance_series(8, 0, bad_step, out),
                 InvalidArgument);
    EXPECT_THROW(field.cell_irradiance_series(0, 0, bad_step, out),
                 InvalidArgument);
    EXPECT_THROW(field.cell_irradiance_series(0, 0, neg_step, out),
                 InvalidArgument);
    EXPECT_NO_THROW(field.cell_irradiance_series(0, 0, good, out));
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
