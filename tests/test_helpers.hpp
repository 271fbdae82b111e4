#pragma once
/// \file test_helpers.hpp
/// Shared fixtures for the pvfp test suite: small placement areas,
/// synthetic irradiance fields, and a cached coarse toy scenario so that
/// expensive preparation happens once per binary.

#include <vector>

#include "pvfp/core/pipeline.hpp"
#include "pvfp/geo/suitable_area.hpp"
#include "pvfp/solar/irradiance.hpp"
#include "pvfp/util/grid2d.hpp"
#include "pvfp/util/simd.hpp"

namespace pvfp::testing {

/// Every dispatch level this CPU can run: always Scalar, plus Avx2 and
/// Avx512 when supported, so per-level sweeps cover the full tier ladder
/// and skip un-runnable tiers silently.
inline std::vector<SimdLevel> runnable_levels() {
    std::vector<SimdLevel> levels{SimdLevel::Scalar};
    if (cpu_supports_avx2()) levels.push_back(SimdLevel::Avx2);
    if (cpu_supports_avx512()) levels.push_back(SimdLevel::Avx512);
    return levels;
}

/// A fully-valid placement area of the given size (flat, 26 deg S roof).
inline geo::PlacementArea flat_area(int width, int height,
                                    double cell_size = 0.2) {
    geo::PlacementArea area;
    area.width = width;
    area.height = height;
    area.valid = Grid2D<unsigned char>(width, height, 1);
    area.cell_size = cell_size;
    area.tilt_rad = deg2rad(26.0);
    area.azimuth_rad = deg2rad(180.0);
    area.valid_count = width * height;
    return area;
}

/// Area with the given mask (1 = valid).
inline geo::PlacementArea masked_area(const Grid2D<unsigned char>& mask,
                                      double cell_size = 0.2) {
    geo::PlacementArea area;
    area.width = mask.width();
    area.height = mask.height();
    area.valid = mask;
    area.cell_size = cell_size;
    area.tilt_rad = deg2rad(26.0);
    area.azimuth_rad = deg2rad(180.0);
    area.valid_count = 0;
    for (const auto v : mask.data())
        if (v) ++area.valid_count;
    return area;
}

/// A small coarse time grid: \p days days of hourly steps starting at the
/// summer solstice (long daylight keeps tests meaningful and fast).
inline TimeGrid coarse_grid(int days = 8, int minutes = 60) {
    return TimeGrid(minutes, /*start_day=*/172, days);
}

/// A constant-weather series (clear, warm) for a grid.
inline std::vector<solar::EnvSample> constant_weather(const TimeGrid& grid,
                                                      double ghi = 600.0,
                                                      double dni = 500.0,
                                                      double dhi = 180.0,
                                                      double temp = 22.0) {
    return std::vector<solar::EnvSample>(
        static_cast<std::size_t>(grid.total_steps()),
        solar::EnvSample{ghi, dni, dhi, temp});
}

/// IrradianceField over a flat DSM (uniform field: svf = 1, no shadows).
inline solar::IrradianceField flat_field(int width, int height,
                                         const TimeGrid& grid,
                                         std::vector<solar::EnvSample> env,
                                         double tilt_deg = 26.0,
                                         double azimuth_deg = 180.0) {
    geo::Raster dsm(width, height, 0.2, /*fill=*/5.0);
    geo::HorizonOptions hopt;
    hopt.azimuth_sectors = 16;  // flat: horizons are all zero anyway
    hopt.max_distance = 5.0;
    geo::HorizonMap horizon(dsm, 0, 0, width, height, hopt);
    return solar::IrradianceField(std::move(horizon), std::move(env), grid,
                                  deg2rad(tilt_deg), deg2rad(azimuth_deg));
}

/// A small scenario with real spatial structure — a chimney and an
/// eastern ridge cast shadows, and the chimney cells are keep-out — so
/// relocating a module genuinely changes the energy objective (a flat
/// uniform field would only exercise the wiring term).  Shared by the
/// incremental-evaluator, annealing, and optimal-placer suites.
struct ShadedSetup {
    geo::PlacementArea area;
    solar::IrradianceField field;
    pv::EmpiricalModuleModel model;
};

inline ShadedSetup shaded_setup(int days = 4, int w = 24, int h = 10) {
    const TimeGrid grid = coarse_grid(days);
    auto env = constant_weather(grid);
    geo::Raster dsm(w, h, 0.2, 5.0);
    for (int y = 4; y < 6 && y < h; ++y)
        for (int x = 10; x < 12 && x < w; ++x) dsm(x, y) = 7.0;  // chimney
    for (int y = 0; y < h; ++y)
        for (int x = w - 2; x < w; ++x) dsm(x, y) = 9.0;  // eastern ridge
    geo::HorizonOptions hopt;
    hopt.azimuth_sectors = 16;
    hopt.max_distance = 10.0;
    geo::HorizonMap horizon(dsm, 0, 0, w, h, hopt);
    solar::IrradianceField field(std::move(horizon), std::move(env), grid,
                                 deg2rad(26.0), deg2rad(180.0));
    Grid2D<unsigned char> mask(w, h, 1);
    for (int y = 4; y < 6 && y < h; ++y)
        for (int x = 10; x < 12 && x < w; ++x) mask(x, y) = 0;
    return ShadedSetup{masked_area(mask), std::move(field),
                       pv::EmpiricalModuleModel{}};
}

/// The toy scenario prepared with a coarse (fast) configuration, cached
/// per test binary.
inline const core::PreparedScenario& coarse_toy_scenario() {
    static const core::PreparedScenario prepared = [] {
        core::ScenarioConfig config;
        config.grid = TimeGrid(60, 1, 73);  // ~5x faster than a full year
        config.weather.seed = 11;
        config.horizon.azimuth_sectors = 36;
        config.suitability.step_stride = 1;
        return core::prepare_scenario(core::make_toy(), config);
    }();
    return prepared;
}

/// The shaded setup's 24x10 window (eastern ridge only) at 85 N over a
/// year of hourly steps: a long polar night, so whole evaluation shards
/// carry no daylight step.
inline solar::IrradianceField polar_night_field() {
    const TimeGrid grid(60, 1, 365);
    geo::Raster dsm(24, 10, 0.2, 5.0);
    for (int y = 0; y < 10; ++y)
        for (int x = 22; x < 24; ++x) dsm(x, y) = 9.0;  // eastern ridge
    geo::HorizonOptions hopt;
    hopt.azimuth_sectors = 16;
    hopt.max_distance = 10.0;
    solar::FieldConfig config;
    config.location.latitude_deg = 85.0;
    config.location.longitude_deg = 15.0;
    return solar::IrradianceField(geo::HorizonMap(dsm, 0, 0, 24, 10, hopt),
                                  constant_weather(grid), grid, deg2rad(26.0),
                                  deg2rad(180.0), config);
}

}  // namespace pvfp::testing
