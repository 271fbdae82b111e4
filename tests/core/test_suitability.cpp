/// Tests for the suitability metric (paper Section III-C): percentile
/// behaviour on shaded vs unshaded cells, the temperature correction
/// factor, option handling (mean ablation, strides, daylight-only), and a
/// differential oracle against a per-step Histogram reference.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../test_helpers.hpp"
#include "pvfp/core/suitability.hpp"
#include "pvfp/geo/raster.hpp"
#include "pvfp/geo/scene.hpp"
#include "pvfp/util/error.hpp"
#include "pvfp/util/rng.hpp"
#include "pvfp/util/simd.hpp"
#include "pvfp/util/stats.hpp"

namespace pvfp::core {
namespace {

using pvfp::testing::coarse_grid;
using pvfp::testing::constant_weather;
using pvfp::testing::flat_area;
using pvfp::testing::flat_field;

TEST(TemperatureCorrection, NormalizedAtReference) {
    const SuitabilityOptions opt;
    EXPECT_NEAR(temperature_correction_factor(25.0, opt), 1.0, 1e-12);
    // Hotter cells are derated, colder ones boosted.
    EXPECT_LT(temperature_correction_factor(60.0, opt), 1.0);
    EXPECT_GT(temperature_correction_factor(0.0, opt), 1.0);
    // Tracks the module's -0.48 %/K.
    EXPECT_NEAR(temperature_correction_factor(35.0, opt), 1.0 - 0.048, 1e-9);
}

TEST(TemperatureCorrection, ClampsAtZero) {
    const SuitabilityOptions opt;
    EXPECT_DOUBLE_EQ(temperature_correction_factor(1000.0, opt), 0.0);
}

TEST(Suitability, UniformFieldGivesUniformMatrix) {
    const TimeGrid grid = coarse_grid(4);
    const auto field = flat_field(6, 4, grid, constant_weather(grid));
    const auto area = flat_area(6, 4);
    const auto result = compute_suitability(field, area);
    const double ref = result.suitability(0, 0);
    EXPECT_GT(ref, 0.0);
    for (int y = 0; y < 4; ++y)
        for (int x = 0; x < 6; ++x)
            EXPECT_DOUBLE_EQ(result.suitability(x, y), ref);
}

TEST(Suitability, InvalidCellsStayZero) {
    const TimeGrid grid = coarse_grid(2);
    const auto field = flat_field(4, 4, grid, constant_weather(grid));
    Grid2D<unsigned char> mask(4, 4, 1);
    mask(2, 2) = 0;
    const auto area = pvfp::testing::masked_area(mask);
    const auto result = compute_suitability(field, area);
    EXPECT_DOUBLE_EQ(result.suitability(2, 2), 0.0);
    EXPECT_GT(result.suitability(0, 0), 0.0);
}

TEST(Suitability, ShadedCellsRankLower) {
    // Real scene: eastern wall shades nearby cells; their p75 and thus
    // suitability must be lower than cells far from the wall.
    const auto& prepared = pvfp::testing::coarse_toy_scenario();
    const auto& s = prepared.suitability.suitability;
    const auto& area = prepared.area;
    // Rightmost valid column (next to the east wall) vs a central one.
    int right_x = -1;
    int mid_x = area.width / 3;
    for (int x = area.width - 1; x >= 0; --x) {
        if (area.valid(x, area.height / 2)) {
            right_x = x;
            break;
        }
    }
    ASSERT_GE(right_x, 0);
    EXPECT_LT(s(right_x, area.height / 2), s(mid_x, area.height / 2));
}

TEST(Suitability, PercentileMapMatchesFig6Semantics) {
    // g_percentile holds the raw p75 irradiance: for a clear-ish constant
    // sky it must sit between zero and the unshaded plane peak.
    const auto& prepared = pvfp::testing::coarse_toy_scenario();
    double peak = 0.0;
    for (long s = 0; s < prepared.field.steps(); ++s)
        peak = std::max(peak, prepared.field.plane_irradiance_unshaded(s));
    const auto& gp = prepared.suitability.g_percentile;
    for (int y = 0; y < prepared.area.height; ++y) {
        for (int x = 0; x < prepared.area.width; ++x) {
            if (!prepared.area.valid(x, y)) continue;
            EXPECT_GE(gp(x, y), 0.0);
            EXPECT_LE(gp(x, y), peak * 1.01);
        }
    }
}

TEST(Suitability, TemperatureCorrectionLowersHotCells) {
    const TimeGrid grid = coarse_grid(3);
    const auto field = flat_field(3, 3, grid,
                                  constant_weather(grid, 700, 600, 150,
                                                   35.0));
    const auto area = flat_area(3, 3);
    SuitabilityOptions with_t;
    with_t.temperature_correction = true;
    SuitabilityOptions without_t;
    without_t.temperature_correction = false;
    const auto a = compute_suitability(field, area, with_t);
    const auto b = compute_suitability(field, area, without_t);
    // Hot climate (35 C + k*G > 25 C): correction strictly lowers S.
    EXPECT_LT(a.suitability(1, 1), b.suitability(1, 1));
    EXPECT_DOUBLE_EQ(b.suitability(1, 1), b.g_percentile(1, 1));
}

TEST(Suitability, MeanAblationDiffersFromPercentile) {
    // Isolate the mean-vs-percentile comparison on the *daylight*
    // distribution, where the paper's skewness argument applies directly:
    // irradiance is skewed toward small values, so mean < p75.
    const auto& prepared = pvfp::testing::coarse_toy_scenario();
    SuitabilityOptions p75_opt = prepared.config.suitability;
    p75_opt.daylight_only = true;
    SuitabilityOptions mean_opt = p75_opt;
    mean_opt.use_mean = true;
    const auto p75_result =
        compute_suitability(prepared.field, prepared.area, p75_opt);
    const auto mean_result =
        compute_suitability(prepared.field, prepared.area, mean_opt);
    int lower = 0;
    int total = 0;
    for (int y = 0; y < prepared.area.height; y += 2) {
        for (int x = 0; x < prepared.area.width; x += 2) {
            if (!prepared.area.valid(x, y)) continue;
            ++total;
            if (mean_result.g_percentile(x, y) <
                p75_result.g_percentile(x, y))
                ++lower;
        }
    }
    EXPECT_GT(lower, total * 0.9);
}

TEST(Suitability, StridePreservesCellRanking) {
    // Subsampling the time axis shifts absolute percentiles (fewer hours
    // of the day are represented) but must preserve the *ranking* of
    // cells, which is all the greedy placer consumes.
    const auto& prepared = pvfp::testing::coarse_toy_scenario();
    SuitabilityOptions strided = prepared.config.suitability;
    strided.step_stride = 4;
    const auto fast =
        compute_suitability(prepared.field, prepared.area, strided);
    int checked = 0;
    int agreed = 0;
    const auto& full = prepared.suitability.suitability;
    const auto& area = prepared.area;
    for (int y1 = 0; y1 < area.height; y1 += 2) {
        for (int x1 = 0; x1 < area.width; x1 += 3) {
            if (!area.valid(x1, y1)) continue;
            // Compare against a fixed reference cell ensemble.
            for (int x2 = 1; x2 < area.width; x2 += 7) {
                const int y2 = (y1 + 5) % area.height;
                if (!area.valid(x2, y2)) continue;
                const double a = full(x1, y1);
                const double b = full(x2, y2);
                if (a < 1.3 * b) continue;  // only clearly-ordered pairs
                ++checked;
                if (fast.suitability(x1, y1) > fast.suitability(x2, y2))
                    ++agreed;
            }
        }
    }
    ASSERT_GT(checked, 20);
    EXPECT_GT(static_cast<double>(agreed) / checked, 0.9);
}

TEST(Suitability, OptionValidation) {
    const TimeGrid grid = coarse_grid(1);
    const auto field = flat_field(3, 3, grid, constant_weather(grid));
    const auto area = flat_area(3, 3);
    SuitabilityOptions bad;
    bad.percentile = 150.0;
    EXPECT_THROW(compute_suitability(field, area, bad), InvalidArgument);
    bad = {};
    bad.bins = 2;
    EXPECT_THROW(compute_suitability(field, area, bad), InvalidArgument);
    bad = {};
    bad.step_stride = 0;
    EXPECT_THROW(compute_suitability(field, area, bad), InvalidArgument);
    // Mismatched area/field dims.
    const auto wrong_area = flat_area(4, 3);
    EXPECT_THROW(compute_suitability(field, wrong_area, {}),
                 InvalidArgument);
}

/// The suitability metric computed the plain way: for every valid cell and
/// sampled step, one cell_irradiance query binned with Histogram::add for
/// G and for the module temperature.
SuitabilityResult reference_suitability(const solar::IrradianceField& field,
                                        const geo::PlacementArea& area,
                                        const SuitabilityOptions& options) {
    SuitabilityResult out;
    out.suitability = Grid2D<double>(area.width, area.height, 0.0);
    out.g_percentile = Grid2D<double>(area.width, area.height, 0.0);
    out.t_percentile = Grid2D<double>(area.width, area.height, 0.0);
    for (int y = 0; y < area.height; ++y)
        for (int x = 0; x < area.width; ++x) {
            if (!area.valid(x, y)) continue;
            Histogram gh(0.0, options.g_max, options.bins);
            Histogram th(options.t_min_c, options.t_max_c, options.bins);
            for (long s = 0; s < field.steps(); s += options.step_stride) {
                if (options.daylight_only && !field.is_daylight(s)) continue;
                gh.add(field.cell_irradiance(x, y, s));
                th.add(field.cell_module_temperature(x, y, s));
            }
            const double gp = options.use_mean
                                  ? gh.approx_mean()
                                  : gh.percentile(options.percentile);
            const double tp = options.use_mean
                                  ? th.approx_mean()
                                  : th.percentile(options.percentile);
            out.g_percentile(x, y) = gp;
            out.t_percentile(x, y) = tp;
            out.suitability(x, y) =
                options.temperature_correction
                    ? gp * temperature_correction_factor(tp, options)
                    : gp;
        }
    return out;
}

/// The weather cases of the oracle, each pinning one shape of the
/// night fold.
enum class Weather {
    /// Day/night series with dark nights (they fold), a few lit night
    /// steps (dhi > 0: they must not fold) and dead daylight steps.
    DayNight,
    /// A polar-night site with no light at all: every step folds.
    PolarNight,
    /// A polar-day site lit at every step: nothing folds.
    PolarDay,
};

struct OracleSetup {
    solar::IrradianceField field;
    geo::PlacementArea area;
};

/// A rough 13x6 roof with obstacles and a masked cell under \p weather.
OracleSetup oracle_setup(Weather weather, bool normals) {
    const int w = 13;
    const int h = 6;
    Rng rng(normals ? 41 : 42);
    geo::Raster dsm(w + 4, h + 4, 0.2, 5.0);
    for (int y = 0; y < dsm.height(); ++y)
        for (int x = 0; x < dsm.width(); ++x)
            dsm(x, y) += rng.uniform(0.0, 0.3);
    dsm(4, 3) += 2.5;
    dsm(12, 6) += 4.0;
    dsm(1, 8) += 1.5;

    solar::FieldConfig config;
    TimeGrid grid(60, 172, 4);
    if (weather != Weather::DayNight) {
        config.location.latitude_deg = 80.0;
        if (weather == Weather::PolarNight) grid = TimeGrid(60, 345, 4);
    }
    std::vector<solar::EnvSample> env(
        static_cast<std::size_t>(grid.total_steps()));
    if (weather == Weather::PolarDay) {
        for (auto& e : env) {
            e.ghi = rng.uniform(200.0, 700.0);
            e.dni = rng.uniform(100.0, 600.0);
            e.dhi = rng.uniform(50.0, 250.0);
            e.temp_air_c = rng.uniform(-2.0, 12.0);
        }
    } else if (weather == Weather::PolarNight) {
        for (auto& e : env) e.temp_air_c = rng.uniform(-35.0, -5.0);
    } else {
        // Daylight from the sun geometry of the same site and grid.
        const auto probe = pvfp::testing::flat_field(
            1, 1, grid, pvfp::testing::constant_weather(grid));
        for (long s = 0; s < grid.total_steps(); ++s) {
            auto& e = env[static_cast<std::size_t>(s)];
            e.temp_air_c = rng.uniform(5.0, 35.0);
            if (!probe.is_daylight(s)) {
                if (s % 11 == 3) e.dhi = rng.uniform(1.0, 20.0);
                continue;
            }
            if (s % 7 == 2) continue;  // dead daylight step
            e.ghi = rng.uniform(50.0, 900.0);
            e.dni = rng.bernoulli(0.2) ? 0.0 : rng.uniform(0.0, 850.0);
            e.dhi = rng.uniform(20.0, 300.0);
        }
    }

    geo::HorizonOptions hopt;
    hopt.azimuth_sectors = 24;
    hopt.max_distance = 12.0;
    geo::HorizonMap horizon(dsm, 2, 2, w, h, hopt);
    geo::NormalMap normal_map;
    if (normals) normal_map = geo::NormalMap::from_dsm(dsm, 2, 2, w, h);
    Grid2D<unsigned char> mask(w, h, 1);
    mask(6, 2) = 0;
    return OracleSetup{
        solar::IrradianceField(std::move(horizon), std::move(env), grid,
                               deg2rad(30.0), deg2rad(170.0), config,
                               std::move(normal_map)),
        pvfp::testing::masked_area(mask)};
}

/// Cell-invariant (foldable) steps among those \p options samples.
long folded_steps(const solar::IrradianceField& field,
                  const SuitabilityOptions& options) {
    long n = 0;
    for (long s = 0; s < field.steps(); s += options.step_stride)
        if ((!options.daylight_only || field.is_daylight(s)) &&
            field.is_cell_invariant(s))
            ++n;
    return n;
}

/// The option grid of the oracle: daylight filter, stride, mean vs
/// percentile, temperature correction, and bin count.
std::vector<SuitabilityOptions> oracle_options() {
    std::vector<SuitabilityOptions> grid;
    for (const bool daylight_only : {false, true})
        for (const long stride : {1L, 3L, 4L})
            for (const bool use_mean : {false, true})
                for (const bool t_corr : {true, false})
                    for (const int bins : {8, 256}) {
                        SuitabilityOptions options;
                        options.daylight_only = daylight_only;
                        options.step_stride = stride;
                        options.use_mean = use_mean;
                        options.temperature_correction = t_corr;
                        options.bins = bins;
                        grid.push_back(options);
                    }
    return grid;
}

std::string describe(const SuitabilityOptions& o) {
    return "daylight_only=" + std::to_string(o.daylight_only) +
           " stride=" + std::to_string(o.step_stride) +
           " mean=" + std::to_string(o.use_mean) +
           " t_corr=" + std::to_string(o.temperature_correction) +
           " bins=" + std::to_string(o.bins);
}

TEST(Suitability, MatchesPerStepReference) {
    struct LevelGuard {
        ~LevelGuard() { set_simd_level_auto(); }
    } guard;
    for (const Weather weather :
         {Weather::DayNight, Weather::PolarNight, Weather::PolarDay}) {
        for (const bool normals : {false, true}) {
            const OracleSetup setup = oracle_setup(weather, normals);
            const auto& field = setup.field;
            // Each case is the fold shape it claims to be.
            const long folded = folded_steps(field, SuitabilityOptions{});
            if (weather == Weather::PolarNight) {
                ASSERT_EQ(folded, field.steps());
            } else if (weather == Weather::PolarDay) {
                ASSERT_EQ(folded, 0);
            } else {
                ASSERT_GT(folded, 0);
                long lit_nights = 0;
                for (long s = 0; s < field.steps(); ++s)
                    if (!field.is_daylight(s) && !field.is_cell_invariant(s))
                        ++lit_nights;
                ASSERT_GT(lit_nights, 0);
            }
            for (const SuitabilityOptions& options : oracle_options()) {
                const std::string tag =
                    "weather=" + std::to_string(static_cast<int>(weather)) +
                    " normals=" + std::to_string(normals) + " " +
                    describe(options);
                if (weather == Weather::PolarNight && options.daylight_only) {
                    // No sampled step at all: both paths refuse.
                    EXPECT_THROW(
                        reference_suitability(field, setup.area, options),
                        InvalidArgument);
                    EXPECT_THROW(
                        compute_suitability(field, setup.area, options),
                        InvalidArgument);
                    continue;
                }
                const SuitabilityResult ref =
                    reference_suitability(field, setup.area, options);
                for (const SimdLevel level :
                     pvfp::testing::runnable_levels()) {
                    set_simd_level(level);
                    const SuitabilityResult got =
                        compute_suitability(field, setup.area, options);
                    const std::string at =
                        tag + " level=" + simd_level_name(level);
                    EXPECT_EQ(got.suitability, ref.suitability) << at;
                    EXPECT_EQ(got.g_percentile, ref.g_percentile) << at;
                    EXPECT_EQ(got.t_percentile, ref.t_percentile) << at;
                }
            }
        }
    }
}

}  // namespace
}  // namespace pvfp::core
