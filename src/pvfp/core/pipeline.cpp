#include "pvfp/core/pipeline.hpp"

#include <cmath>
#include <optional>
#include <utility>

#include "pvfp/obs/trace.hpp"
#include "pvfp/util/error.hpp"
#include "pvfp/util/parallel.hpp"

namespace pvfp::core {

PreparedScenario prepare_scenario(const RoofScenario& scenario,
                                  const ScenarioConfig& config) {
    PVFP_TRACE_SPAN("prepare_scenario");
    check_arg(config.cell_size > 0.0,
              "prepare_scenario: cell_size must be positive");

    // Section IV: DSM from GIS data at the grid pitch, so the solar-data
    // resolution coincides with the virtual grid (Sec. III-A).  GIS
    // scenarios carry a measured mosaic (aliased, not copied — windows
    // can be megabytes and a city run prepares thousands); procedural
    // ones rasterize their scene.
    std::shared_ptr<const geo::Raster> dsm_ptr = scenario.dsm;
    if (dsm_ptr) {
        check_arg(std::abs(dsm_ptr->cell_size() - config.cell_size) < 1e-9,
                  "prepare_scenario: scenario DSM cell size != "
                  "config.cell_size");
    } else {
        dsm_ptr = std::make_shared<const geo::Raster>(
            scenario.scene.rasterize(config.cell_size));
    }
    const geo::Raster& dsm = *dsm_ptr;

    // Suitable-area identification.
    geo::PlacementArea area = geo::extract_placement_area(
        dsm, scenario.scene, scenario.roof_index, config.area,
        scenario.placement_mask.get());

    // Shadow/horizon model for the placement window: the shared
    // provider (city/serve horizon cache) when configured, else a local
    // march over this scenario's own mosaic.
    std::optional<geo::HorizonMap> horizon;
    {
        PVFP_TRACE_SPAN("stage.horizon");
        if (config.horizon_provider) {
            horizon = config.horizon_provider(dsm, area.origin_col,
                                              area.origin_row, area.width,
                                              area.height, config.horizon);
            if (horizon) {
                check_arg(horizon->window_x0() == area.origin_col &&
                              horizon->window_y0() == area.origin_row &&
                              horizon->window_width() == area.width &&
                              horizon->window_height() == area.height &&
                              horizon->sectors() ==
                                  config.horizon.azimuth_sectors,
                          "prepare_scenario: horizon_provider window "
                          "mismatch");
            }
        }
        if (!horizon)
            horizon.emplace(dsm, area.origin_col, area.origin_row,
                            area.width, area.height, config.horizon);
    }

    // Sky state: the shared per-batch artifact when the caller prepared
    // one, else a private weather trace (synthetic stand-in for station
    // data) and per-step precompute for this scenario alone.
    std::shared_ptr<const solar::SharedSkyArtifact> sky = config.shared_sky;
    if (sky) {
        // The field reads its time grid and sun geometry from the
        // artifact; a mismatched config.grid or config.location would
        // silently simulate a different horizon or site.
        check_arg(sky->grid.minutes_per_step() ==
                          config.grid.minutes_per_step() &&
                      sky->grid.start_day() == config.grid.start_day() &&
                      sky->grid.days() == config.grid.days(),
                  "prepare_scenario: shared_sky grid != config.grid");
        check_arg(sky->location.latitude_deg ==
                          config.location.latitude_deg &&
                      sky->location.longitude_deg ==
                          config.location.longitude_deg &&
                      sky->location.timezone_hours ==
                          config.location.timezone_hours,
                  "prepare_scenario: shared_sky location != "
                  "config.location");
    }
    if (!sky) {
        PVFP_TRACE_SPAN("stage.sky");
        sky = solar::make_shared_sky(
            config.location, config.grid,
            weather::generate_synthetic_weather(config.location, config.grid,
                                                config.weather),
            config.field.sky_model);
    }

    // Per-cell surface normals: DSM structure (undulation, obstacle
    // flanks) modulates the beam cell-by-cell.
    geo::NormalMap normals = geo::NormalMap::from_dsm(
        dsm, area.origin_col, area.origin_row, area.width, area.height);

    // Irradiance/temperature field on the roof plane.
    solar::FieldConfig field_config = config.field;
    field_config.location = config.location;
    std::optional<solar::IrradianceField> field;
    {
        PVFP_TRACE_SPAN("stage.field");
        field.emplace(std::move(*horizon), std::move(sky), area.tilt_rad,
                      area.azimuth_rad, field_config, std::move(normals));
    }

    // Suitability matrix (Section III-C).
    SuitabilityResult suitability;
    {
        PVFP_TRACE_SPAN("stage.suitability");
        suitability = compute_suitability(*field, area, config.suitability);
    }

    pv::EmpiricalModuleModel model(config.module);
    const PanelGeometry geometry =
        PanelGeometry::from_module(config.module, config.cell_size);

    return PreparedScenario{scenario.name,
                            std::move(dsm_ptr),
                            std::move(area),
                            std::move(*field),
                            std::move(suitability),
                            std::move(model),
                            geometry,
                            config};
}

PlacementComparison compare_placements(const PreparedScenario& prepared,
                                       const pv::Topology& topology,
                                       const GreedyOptions& greedy_options,
                                       const EvaluationOptions& eval_options) {
    PVFP_TRACE_SPAN("stage.place");
    PlacementComparison cmp;

    const CompactResult compact =
        place_compact(prepared.area, prepared.suitability.suitability,
                      prepared.geometry, topology);
    cmp.traditional = compact.plan;
    cmp.traditional_mode = compact.mode;

    cmp.proposed = place_greedy(prepared.area,
                                prepared.suitability.suitability,
                                prepared.geometry, topology, greedy_options,
                                &cmp.greedy_stats);

    cmp.traditional_eval =
        evaluate_floorplan(cmp.traditional, prepared.area, prepared.field,
                           prepared.model, eval_options);
    cmp.proposed_eval =
        evaluate_floorplan(cmp.proposed, prepared.area, prepared.field,
                           prepared.model, eval_options);
    return cmp;
}

std::vector<ScenarioReport> run_scenarios(
    std::span<const RoofScenario> scenarios, const ScenarioConfig& config,
    const BatchOptions& options) {
    check_arg(!options.topologies.empty(),
              "run_scenarios: no topologies to compare");

    const long n = static_cast<long>(scenarios.size());
    // Shared-weather batching: every scenario in the batch sees the same
    // site, grid, and weather options, so the env series and the per-step
    // sun/transposition precompute are prepared exactly once (its own
    // loops parallelize here, before the scenario fan-out) instead of
    // once per roof.  Bitwise-identical to the per-roof path.
    ScenarioConfig batch_config = config;
    if (!batch_config.shared_sky && n > 0) {
        batch_config.shared_sky = solar::make_shared_sky(
            config.location, config.grid,
            weather::generate_synthetic_weather(config.location, config.grid,
                                                config.weather),
            config.field.sky_model);
    }

    // PreparedScenario has no default constructor; build into optionals
    // (one slot per scenario — disjoint writes) and unwrap at the end.
    std::vector<std::optional<ScenarioReport>> slots(
        static_cast<std::size_t>(n));

    const auto process = [&](long i) {
        ScenarioReport report{
            prepare_scenario(scenarios[static_cast<std::size_t>(i)],
                             batch_config),
            {}};
        report.comparisons.reserve(options.topologies.size());
        for (const auto& topology : options.topologies)
            report.comparisons.push_back(
                compare_placements(report.prepared, topology,
                                   options.greedy, options.eval));
        slots[static_cast<std::size_t>(i)] = std::move(report);
    };

    const bool outer =
        options.policy == ParallelPolicy::OuterScenarios ||
        (options.policy == ParallelPolicy::Auto && n >= thread_count());
    if (outer && n > 1) {
        // One scenario per task; SerialScope keeps each scenario's inner
        // loops inline so the pool is not oversubscribed by nested
        // fan-out.
        parallel_for(0, n, 1, [&](long b, long e) {
            SerialScope serial;
            for (long i = b; i < e; ++i) process(i);
        });
    } else {
        // Few big roofs: let each scenario's horizon / field / evaluator
        // loops use the whole pool instead.
        for (long i = 0; i < n; ++i) process(i);
    }

    std::vector<ScenarioReport> reports;
    reports.reserve(static_cast<std::size_t>(n));
    for (auto& slot : slots) reports.push_back(std::move(*slot));
    return reports;
}

}  // namespace pvfp::core
