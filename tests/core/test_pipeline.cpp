/// Integration tests: the full scene -> energy pipeline on the toy and
/// residential scenarios, the paper's headline invariants, and the roof
/// library's Table-I geometry.

#include <gtest/gtest.h>

#include "../test_helpers.hpp"
#include "pvfp/core/pipeline.hpp"
#include "pvfp/util/error.hpp"

namespace pvfp::core {
namespace {

TEST(Pipeline, PreparesToyScenarioConsistently) {
    const auto& p = pvfp::testing::coarse_toy_scenario();
    EXPECT_GT(p.area.valid_count, 0);
    EXPECT_EQ(p.field.width(), p.area.width);
    EXPECT_EQ(p.field.height(), p.area.height);
    EXPECT_EQ(p.suitability.suitability.width(), p.area.width);
    EXPECT_EQ(p.geometry.k1, 8);
    EXPECT_EQ(p.geometry.k2, 4);
    // Suitability is positive exactly on valid cells.
    for (int y = 0; y < p.area.height; ++y) {
        for (int x = 0; x < p.area.width; ++x) {
            if (p.area.valid(x, y))
                EXPECT_GT(p.suitability.suitability(x, y), 0.0);
            else
                EXPECT_DOUBLE_EQ(p.suitability.suitability(x, y), 0.0);
        }
    }
}

TEST(Pipeline, ProposedBeatsOrMatchesTraditionalOnToy) {
    const auto& p = pvfp::testing::coarse_toy_scenario();
    const PlacementComparison cmp = compare_placements(p, pv::Topology{2, 2});
    EXPECT_GT(cmp.traditional_eval.energy_kwh, 0.0);
    EXPECT_GT(cmp.proposed_eval.energy_kwh, 0.0);
    // The paper's headline invariant: the suitability-driven sparse
    // placement does not lose to the compact baseline.  On this coarse
    // (73-day, hourly) toy horizon sampling noise can let the baseline
    // tie or edge ahead by a fraction of a percent; the full-year
    // experiments (EXPERIMENTS.md) show the real gap.
    EXPECT_GE(cmp.proposed_eval.energy_kwh,
              0.98 * cmp.traditional_eval.energy_kwh);
    // Both plans feasible and of the right size.
    std::string why;
    EXPECT_TRUE(floorplan_feasible(cmp.proposed, p.area, &why)) << why;
    EXPECT_TRUE(floorplan_feasible(cmp.traditional, p.area, &why)) << why;
    EXPECT_EQ(cmp.proposed.module_count(), 4);
    EXPECT_EQ(cmp.traditional.module_count(), 4);
}

TEST(Pipeline, EnergyScalesWithPlausiblePerModuleYield) {
    // Per-module yearly yield must be physically plausible: a 165 Wp
    // module in a Torino-like climate yields 120-260 kWh/yr.  The coarse
    // toy grid covers 73 days (1/5 year): scale accordingly.
    const auto& p = pvfp::testing::coarse_toy_scenario();
    const PlacementComparison cmp = compare_placements(p, pv::Topology{2, 2});
    const double per_module_year =
        cmp.proposed_eval.energy_kwh / 4.0 * (365.0 / 73.0);
    EXPECT_GT(per_module_year, 90.0);
    EXPECT_LT(per_module_year, 320.0);
}

TEST(Pipeline, ResidentialScenarioRuns) {
    core::ScenarioConfig config;
    config.grid = TimeGrid(60, 1, 37);  // fast: every day sampled hourly
    config.weather.seed = 5;
    config.horizon.azimuth_sectors = 36;
    const auto prepared = prepare_scenario(make_residential(), config);
    EXPECT_GT(prepared.area.valid_count, 100);
    // The south gable plane of a 12x4 m roof hosts at least 4 modules.
    const PlacementComparison cmp =
        compare_placements(prepared, pv::Topology{2, 2});
    EXPECT_GT(cmp.proposed_eval.energy_kwh, 0.0);
}

TEST(Pipeline, GoldenRegressionOnFixedSeed) {
    // Regression anchor with wide tolerance: catches accidental changes
    // to defaults, models, or the RNG stream (any deliberate change must
    // update this value consciously).
    const auto& p = pvfp::testing::coarse_toy_scenario();
    const PlacementComparison cmp = compare_placements(p, pv::Topology{2, 2});
    const double e = cmp.proposed_eval.energy_kwh;
    EXPECT_GT(e, 50.0);
    EXPECT_LT(e, 400.0);
}

TEST(RoofLibrary, PaperGeometryDimensions) {
    // Table I: Roof1 287x51, Roof2 298x51, Roof3 298x52 cells at s=0.2.
    ScenarioConfig config;  // only geometry is needed: tiny horizon cost
    const struct {
        RoofScenario scenario;
        int w;
        int h;
    } cases[] = {
        {make_roof1(), 287, 51},
        {make_roof2(), 298, 51},
        {make_roof3(), 298, 52},
    };
    for (const auto& c : cases) {
        const geo::Raster dsm = c.scenario.scene.rasterize(0.2);
        const geo::PlacementArea area = geo::extract_placement_area(
            dsm, c.scenario.scene, c.scenario.roof_index, config.area);
        // Bounding box within one cell of the paper's numbers (edge
        // margins can trim a row/column).
        EXPECT_NEAR(area.width, c.w, 4) << c.scenario.name;
        EXPECT_NEAR(area.height, c.h, 4) << c.scenario.name;
        // Ng below W*H (obstacles) but a sane fraction of it.
        EXPECT_LT(area.valid_count, area.width * area.height);
        EXPECT_GT(area.valid_count,
                  static_cast<int>(0.45 * area.width * area.height))
            << c.scenario.name;
        // 26 deg lean-to facing S/SW like the paper's roofs.
        EXPECT_NEAR(rad2deg(area.tilt_rad), 26.0, 1e-9);
        EXPECT_GT(rad2deg(area.azimuth_rad), 180.0 - 1e-9);
        EXPECT_LT(rad2deg(area.azimuth_rad), 225.0);
    }
}

TEST(RoofLibrary, ToyAndResidentialProduceValidScenes) {
    const auto toy = make_toy();
    EXPECT_EQ(toy.scene.roof_count(), 1);
    const auto res = make_residential();
    EXPECT_EQ(res.scene.roof_count(), 2);  // gable = two planes
    // The chosen plane faces south.
    EXPECT_NEAR(res.scene.roof(res.roof_index).azimuth_deg, 180.0, 1e-9);
}

TEST(Pipeline, ConfigValidation) {
    ScenarioConfig config;
    config.cell_size = 0.0;
    EXPECT_THROW(prepare_scenario(make_toy(), config), InvalidArgument);
    // Module not aligned to the grid pitch.
    ScenarioConfig config2;
    config2.grid = TimeGrid(60, 1, 2);
    config2.cell_size = 0.3;
    EXPECT_THROW(prepare_scenario(make_toy(), config2), InvalidArgument);
}

TEST(Pipeline, RejectsASharedSkyOfAnotherSite) {
    // A sky whose site differs from config.location only in the 7th
    // decimal would still carry another site's sun geometry: rejected,
    // like a grid mismatch, instead of silently simulated.
    ScenarioConfig config;
    config.grid = TimeGrid(60, 1, 2);
    solar::Location nearby = config.location;
    nearby.latitude_deg += 1e-7;
    config.shared_sky = solar::make_shared_sky(
        nearby, config.grid,
        weather::generate_synthetic_weather(nearby, config.grid,
                                            config.weather),
        config.field.sky_model);
    EXPECT_THROW(prepare_scenario(make_toy(), config), InvalidArgument);

    solar::Location other_zone = config.location;
    other_zone.timezone_hours += 1.0;
    config.shared_sky = solar::make_shared_sky(
        other_zone, config.grid,
        weather::generate_synthetic_weather(other_zone, config.grid,
                                            config.weather),
        config.field.sky_model);
    EXPECT_THROW(prepare_scenario(make_toy(), config), InvalidArgument);

    config.shared_sky = solar::make_shared_sky(
        config.location, config.grid,
        weather::generate_synthetic_weather(config.location, config.grid,
                                            config.weather),
        config.field.sky_model);
    EXPECT_NO_THROW(prepare_scenario(make_toy(), config));
}

}  // namespace
}  // namespace pvfp::core
