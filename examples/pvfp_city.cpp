/// \file pvfp_city.cpp
/// `pvfp_city` — city-scale batch ranking over a GIS tile directory:
///
///   pvfp_city --tiles <dir> --index <index.csv|.json> --out <out.jsonl>
///             [options]
///     --summary <path.csv>       also write the final ranking CSV
///     --topologies <m1xn1,...>   topologies per roof (default: 8x2)
///     --minutes <step>           time step in minutes (default: 15)
///     --stride <k>               suitability+evaluation step stride
///                                (default: 4 — production sampling)
///     --sectors <n>              horizon azimuth sectors (default: 72)
///     --seed <u64>               weather seed (default: 42)
///     --shard <N>                roofs prepared per shard (default: 32)
///     --tile-cache <N>           resident decoded tiles (default: 16)
///     --margin <m>               shading context margin (default: 8)
///     --resume                   continue an interrupted run
///     --shared-horizon           share horizon marching across roofs
///                                (macro-tile plane cache; uniform march
///                                distance instead of the per-roof cap)
///     --horizon-cache-mb <MiB>   resident horizon plane budget
///                                (default: 256)
///     --feeder-index <file>      radial feeder index (feeder.csv|.json)
///     --grid-plan <out.jsonl>    grid-aware sequential placement plan
///                                (requires --feeder-index)
///     --grid-summary <path.csv>  per-feeder cap/yield summary
///     --metrics-out <path.json>  write the obs metrics snapshot (enables
///                                telemetry; results stay byte-identical)
///     --trace-out <path.json>    write Chrome trace-event JSON (load in
///                                Perfetto); enables telemetry + spans
///
///   Fixture mode (writes a synthetic city, then exits):
///   pvfp_city --gen-fixture <dir> [--roofs N] [--seed u64]
///
/// A typical end-to-end smoke (also the CI determinism gate):
///   pvfp_city --gen-fixture /tmp/city --roofs 60
///   pvfp_city --tiles /tmp/city --index /tmp/city/index.csv
///             --out /tmp/city/results.jsonl --summary /tmp/city/rank.csv

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "pvfp/gis/city_runner.hpp"
#include "pvfp/gis/fixture.hpp"
#include "pvfp/grid/sequential_place.hpp"
#include "pvfp/obs/metrics.hpp"
#include "pvfp/obs/trace.hpp"
#include "pvfp/util/cli.hpp"
#include "pvfp/util/error.hpp"
#include "pvfp/util/simd.hpp"

namespace {

[[noreturn]] void usage_error(const std::string& message) {
    std::cerr << "pvfp_city: " << message << "\n"
              << "usage: pvfp_city --tiles DIR --index FILE --out OUT.jsonl\n"
              << "                 [--summary rank.csv] [--topologies 8x2,8x4]\n"
              << "                 [--minutes step] [--stride k] [--seed u64]\n"
              << "                 [--shard N] [--tile-cache N] [--margin m]\n"
              << "                 [--resume] [--shared-horizon]\n"
              << "                 [--horizon-cache-mb N]\n"
              << "                 [--feeder-index FILE --grid-plan OUT.jsonl\n"
              << "                  [--grid-summary grid.csv]]\n"
              << "                 [--metrics-out M.json] [--trace-out T.json]\n"
              << "   or: pvfp_city --gen-fixture DIR [--roofs N] [--seed u64]\n";
    std::exit(2);
}

std::vector<pvfp::pv::Topology> parse_topologies(const std::string& spec) {
    std::vector<pvfp::pv::Topology> topologies;
    std::istringstream list(spec);
    std::string item;
    while (std::getline(list, item, ',')) {
        int series = 0, strings = 0;
        char x = 0;
        std::istringstream is(item);
        if (!(is >> series >> x >> strings) || x != 'x' || series <= 0 ||
            strings <= 0)
            usage_error("bad topology '" + item + "' (want e.g. 8x2)");
        topologies.push_back({series, strings});
    }
    if (topologies.empty()) usage_error("empty --topologies list");
    return topologies;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace pvfp;

    std::string tiles_dir, index_path, out_path, summary_path, fixture_dir;
    std::string feeder_path, grid_plan_path, grid_summary_path;
    std::string topologies = "8x2";
    int minutes = 15;
    long stride = 4;
    int sectors = 72;
    std::uint64_t seed = 42;
    bool seed_set = false;
    int shard = 32;
    int tile_cache = 16;
    double margin = 8.0;
    int fixture_roofs = 60;
    bool resume = false;
    bool shared_horizon = false;
    int horizon_cache_mb = 256;
    std::string metrics_out, trace_out;

    try {
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> std::string {
            if (i + 1 >= argc) usage_error("missing value after " + arg);
            return argv[++i];
        };
        if (arg == "--tiles") tiles_dir = next();
        else if (arg == "--index") index_path = next();
        else if (arg == "--out") out_path = next();
        else if (arg == "--summary") summary_path = next();
        else if (arg == "--topologies") topologies = next();
        else if (arg == "--minutes")
            minutes = cli::parse_int(arg, next(), 1, 24 * 60);
        else if (arg == "--stride") stride = cli::parse_long(arg, next(), 1);
        else if (arg == "--sectors") sectors = cli::parse_int(arg, next(), 1);
        else if (arg == "--seed") {
            seed = cli::parse_u64(arg, next());
            seed_set = true;
        }
        else if (arg == "--shard") shard = cli::parse_int(arg, next(), 1);
        else if (arg == "--tile-cache")
            tile_cache = cli::parse_int(arg, next(), 1);
        else if (arg == "--margin")
            margin = cli::parse_double(arg, next(), 0.0);
        else if (arg == "--feeder-index") feeder_path = next();
        else if (arg == "--grid-plan") grid_plan_path = next();
        else if (arg == "--grid-summary") grid_summary_path = next();
        else if (arg == "--resume") resume = true;
        else if (arg == "--shared-horizon") shared_horizon = true;
        else if (arg == "--horizon-cache-mb")
            horizon_cache_mb = cli::parse_int(arg, next(), 1);
        else if (arg == "--metrics-out") metrics_out = next();
        else if (arg == "--trace-out") trace_out = next();
        else if (arg == "--gen-fixture") fixture_dir = next();
        else if (arg == "--roofs") fixture_roofs = cli::parse_int(arg, next(), 1);
        else if (arg == "--help" || arg == "-h") usage_error("help requested");
        else usage_error("unknown option " + arg);
    }
    } catch (const cli::UsageError& e) {
        usage_error(e.what());
    }

    try {
        // Resolve the kernel level before any input is read, so a bad
        // PVFP_SIMD exits here with its typed message (util/simd.hpp).
        (void)simd_level();
        if (!fixture_dir.empty()) {
            gis::CityFixtureOptions options;
            options.roofs = fixture_roofs;
            // Distinct defaults: weather seeds default to 42, the
            // fixture city to 7; an explicit --seed overrides either.
            if (seed_set) options.seed = seed;
            const gis::CityFixture fixture =
                gis::generate_city_fixture(fixture_dir, options);
            std::cout << "fixture: " << fixture.records << " roofs in "
                      << fixture.tiles_written << " tiles under "
                      << fixture.directory << "\n"
                      << "index:   " << fixture.csv_index_path;
            if (!fixture.json_index_path.empty())
                std::cout << " (+ " << fixture.json_index_path << ")";
            std::cout << "\n";
            if (!fixture.csv_feeder_path.empty())
                std::cout << "feeders: " << fixture.feeders << " in "
                          << fixture.csv_feeder_path << " (+ "
                          << fixture.json_feeder_path << ")\n";
            return 0;
        }

        if (tiles_dir.empty() || index_path.empty() || out_path.empty())
            usage_error("--tiles, --index and --out are required");
        if (!grid_plan_path.empty() && feeder_path.empty())
            usage_error("--grid-plan requires --feeder-index");
        if (minutes <= 0 || stride <= 0 || shard <= 0 || tile_cache <= 0 ||
            sectors <= 0)
            usage_error("non-positive numeric option");

        // Telemetry switches before any pipeline work: --metrics-out
        // turns the registry on, --trace-out additionally records span
        // timings.  Neither changes a single output byte (CI-gated).
        if (!metrics_out.empty() || !trace_out.empty())
            obs::set_enabled(true);
        if (!trace_out.empty()) obs::set_trace_enabled(true);

        const gis::TileIndex tiles = gis::TileIndex::scan(tiles_dir);
        const gis::RoofRegistry registry = gis::RoofRegistry::load(index_path);

        gis::CityRunOptions options;
        options.config.grid = TimeGrid(minutes, 1, 365);
        options.config.weather.seed = seed;
        options.config.suitability.step_stride = stride;
        options.config.horizon.azimuth_sectors = sectors;
        options.eval.step_stride = stride;
        options.topologies = parse_topologies(topologies);
        options.build.context_margin_m = margin;
        options.shard_size = shard;
        options.tile_cache_tiles = static_cast<std::size_t>(tile_cache);
        options.resume = resume;
        options.share_horizon = shared_horizon;
        options.horizon_cache_mb =
            static_cast<std::size_t>(horizon_cache_mb);
        options.jsonl_path = out_path;
        options.summary_csv_path = summary_path;

        const gis::CityRunSummary summary =
            gis::run_city(tiles, registry, options);

        std::cout << "city: " << summary.total << " roofs ("
                  << summary.processed << " computed, " << summary.resumed
                  << " resumed, " << summary.failed << " failed) over "
                  << tiles.tile_count() << " tiles at "
                  << tiles.cell_size() << " m\n";
        std::cout << "tile cache: " << summary.tile_cache_hits << " hits / "
                  << summary.tile_cache_misses << " misses\n";
        if (shared_horizon)
            std::cout << "horizon cache: " << summary.horizon_cache_hits
                      << " hits / " << summary.horizon_cache_misses
                      << " misses, " << summary.horizon_cache_evictions
                      << " evictions, "
                      << summary.horizon_cache_bytes / (1024.0 * 1024.0)
                      << " MiB resident\n";
        const std::size_t top =
            std::min<std::size_t>(5, summary.ranking.size());
        for (std::size_t i = 0; i < top; ++i) {
            const gis::RoofResult& r =
                summary.results[summary.ranking[i]];
            std::cout << "  #" << (i + 1) << "  " << r.id << "  "
                      << r.best_kwh << " kWh/yr  (" << r.valid_cells
                      << " cells, tilt " << r.tilt_deg << " deg)\n";
        }
        std::cout << "results: " << out_path << "\n";
        if (!summary_path.empty())
            std::cout << "ranking: " << summary_path << "\n";

        if (!metrics_out.empty()) {
            std::ofstream ms(metrics_out, std::ios::binary);
            ms << obs::registry().snapshot_json() << "\n";
            if (!ms.good())
                throw IoError("cannot write metrics to '" + metrics_out +
                              "'");
            std::cout << "metrics: " << metrics_out << "\n";
        }
        if (!trace_out.empty()) {
            obs::write_chrome_trace(trace_out);
            std::cout << "trace: " << trace_out << " ("
                      << obs::dropped_spans() << " spans dropped)\n";
        }

        if (!grid_plan_path.empty()) {
            const grid::FeederModel model = grid::FeederModel::load(feeder_path);
            model.validate_roofs(registry);
            grid::GridPlaceOptions grid_options;
            grid_options.plan_jsonl_path = grid_plan_path;
            grid_options.summary_csv_path = grid_summary_path;
            const grid::GridPlanResult plan =
                grid::sequential_place(model, summary.results, grid_options);
            long capped = 0;
            for (const auto& skip : plan.skipped)
                if (skip.reason == "capped") ++capped;
            std::cout << "grid: placed " << plan.placements.size() << " of "
                      << plan.attached << " attached roofs over "
                      << plan.feeders.size() << " feeders (" << capped
                      << " capped, " << plan.errors << " errored)\n";
            std::cout << "plan: " << grid_plan_path << "\n";
            if (!grid_summary_path.empty())
                std::cout << "feeders: " << grid_summary_path << "\n";
        }
        return summary.failed == summary.total ? 1 : 0;
    } catch (const std::exception& e) {
        std::cerr << "pvfp_city: " << e.what() << "\n";
        return 1;
    }
}
