/// \file city_scale.cpp
/// City-scale batch bench: shared-sky batching and the shared horizon
/// cache on the synthetic city fixture (ROADMAP "shared-weather
/// batching" / "city-scale batch ingestion").
///
/// Generates a 60-roof city (tiles + index) into a scratch directory,
/// then ranks it with gis::run_city under a production city
/// configuration — 5-minute sky resolution (cloud transients resolved),
/// sampled suitability/evaluation strides, 48 horizon sectors:
///   1. shared sky — one SharedSkyArtifact per site serves the batch,
///      per-roof horizon marching;
///   2. shared-horizon cold — a caller-owned gis::HorizonCache is
///      injected and the run pays the macro-tile marching that
///      populates it (roof windows are disjoint, so this pass does
///      *more* marching than the per-roof path — the cache's cost);
///   3. shared-horizon warm — the same cache serves a second full run
///      from resident planes: the steady-state re-rank / delta-rerun /
///      serve-daemon workload the cache exists for.
/// Runs 2 and 3 are verified byte-identical (cached planes vs
/// freshly-marched planes).  The wall-clock ratio run 1 / run 3 is the
/// shared-horizon *warm* speedup, and roofs/sec the city throughput.
/// Runs 2/3 rank to a different deterministic stream than run 1
/// (uniform march distance over real halo terrain).  `--json
/// BENCH_city.json` records every run for the BENCH_* trajectory
/// (scripts/collect_bench_city.sh).
///
///   bench_city_scale [--roofs N] [--minutes M] [--stride K]
///                    [--json out.json]

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "bench_common.hpp"
#include "pvfp/gis/city_runner.hpp"
#include "pvfp/gis/fixture.hpp"
#include "pvfp/gis/horizon_cache.hpp"
#include "pvfp/util/parallel.hpp"

namespace {

std::string read_file(const std::string& path) {
    std::ifstream is(path);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

}  // namespace

int main(int argc, char** argv) {
    using namespace pvfp;
    using Clock = std::chrono::steady_clock;

    bench::BenchReporter reporter(argc, argv);
    int roofs = 60;
    int minutes = 5;
    long stride = 96;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> const char* {
            return i + 1 < argc ? argv[++i] : "";
        };
        if (arg == "--roofs") roofs = std::atoi(next());
        else if (arg == "--minutes") minutes = std::atoi(next());
        else if (arg == "--stride") stride = std::atol(next());
    }

    bench::print_banner(std::cout, "City-scale batch ranking",
                        "ROADMAP: city-scale ingestion + shared-weather "
                        "batching");

    const std::string dir =
        (std::filesystem::temp_directory_path() / "pvfp_bench_city")
            .string();
    std::filesystem::remove_all(dir);
    gis::CityFixtureOptions fixture_options;
    fixture_options.roofs = roofs;
    const gis::CityFixture fixture =
        gis::generate_city_fixture(dir, fixture_options);
    const gis::TileIndex tiles = gis::TileIndex::scan(dir);
    const gis::RoofRegistry registry =
        gis::RoofRegistry::load(fixture.csv_index_path);
    std::cout << "fixture: " << fixture.records << " roofs, "
              << fixture.tiles_written << " tiles, "
              << minutes << "-minute grid, stride " << stride << ", "
              << thread_count() << " threads\n\n";

    gis::CityRunOptions options;
    options.config.grid = TimeGrid(minutes, 1, 365);
    options.config.suitability.step_stride = stride;
    options.config.horizon.azimuth_sectors = 48;
    // A 40 m march radius: the cold path's per-roof cap (margin +
    // footprint diagonal, ~29 m on the fixture) still binds, so the
    // cold timings are unchanged, while the shared-horizon run marches
    // the full uniform distance — a conservative comparison.
    options.config.horizon.max_distance = 40.0;
    options.eval.step_stride = stride;
    options.topologies = {{8, 2}};

    const auto timed_run = [&](const char* label, const char* record,
                               const char* jsonl,
                               gis::HorizonCache* horizon_cache) {
        options.shared_horizon_cache = horizon_cache;
        options.jsonl_path = dir + "/" + jsonl;
        const auto start = Clock::now();
        const gis::CityRunSummary summary =
            gis::run_city(tiles, registry, options);
        const double ms = std::chrono::duration<double, std::milli>(
                              Clock::now() - start)
                              .count();
        std::cout << label << ": " << ms / 1000.0 << " s  ("
                  << 1000.0 * static_cast<double>(summary.processed) / ms
                  << " roofs/sec, " << summary.failed << " infeasible)\n";
        reporter.record(record, ms, summary.processed);
        return ms;
    };

    // Shared sky with per-roof horizons first, then the horizon cache's
    // cold (populating) and warm (resident) passes through one injected
    // cache.
    const double shared_ms = timed_run(
        "shared sky          ", "city/shared_sky", "shared.jsonl", nullptr);

    gis::TileCache horizon_tiles(16);
    gis::HorizonCacheOptions cache_options;
    cache_options.horizon = options.config.horizon;
    gis::HorizonCache horizon_cache(tiles, &horizon_tiles, cache_options);
    const double cold_ms = timed_run(
        "shared horizon cold ", "city/shared_horizon_cold",
        "shared_horizon_cold.jsonl", &horizon_cache);
    const double warm_ms = timed_run(
        "shared horizon warm ", "city/shared_horizon",
        "shared_horizon.jsonl", &horizon_cache);

    const bool horizon_identical =
        read_file(dir + "/shared_horizon_cold.jsonl") ==
        read_file(dir + "/shared_horizon.jsonl");
    std::cout << "cold/warm horizon byte-identical:    "
              << (horizon_identical ? "yes" : "NO") << "\n";
    std::cout << "shared-horizon cold overhead:        "
              << cold_ms / shared_ms << "x wall\n";
    std::cout << "shared-horizon warm speedup:         "
              << shared_ms / warm_ms << "x\n";
    return horizon_identical ? 0 : 1;
}
