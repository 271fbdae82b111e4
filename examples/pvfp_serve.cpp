/// \file pvfp_serve.cpp
/// `pvfp_serve` — the always-on ranking daemon over a GIS tile set:
///
///   pvfp_serve --tiles <dir> --index <index.csv|.json> [options]
///     --socket <path>            serve an AF_UNIX socket instead of
///                                stdin/stdout (one client at a time)
///     --log <path.jsonl>         append every request (replayable)
///     --feeder-index <file>      radial feeder index enabling the
///                                grid_rank op (feeder.csv|.json)
///     --replay <path.jsonl>      re-execute a request log serially and
///                                exit — byte-identical to the live
///                                session that wrote it
///     --memory-budget-mb <MB>    resident roof/sky/horizon byte budget
///                                (default: 512)
///     --shared-horizon           share horizon marching across roofs
///                                (macro-tile plane cache; uniform march
///                                distance, run_city --shared-horizon
///                                semantics)
///     --topologies <m1xn1,...>   topologies a rank compares
///                                (default: 8x2)
///     --minutes <step>           time step in minutes (default: 15)
///     --stride <k>               suitability+evaluation step stride
///                                (default: 4)
///     --sectors <n>              horizon azimuth sectors, 4..3600
///                                (default: 72)
///     --seed <u64>               weather seed (default: 42)
///     --margin <m>               shading context margin (default: 8)
///     --tile-cache <N>           resident decoded tiles (default: 16)
///     --max-batch <N>            max requests per parallel batch
///                                (default: 2 x threads)
///     --metrics-out <path.json>  write the obs metrics snapshot on exit
///                                (enables telemetry; the `metrics` op
///                                works regardless once PVFP_OBS=1)
///     --trace-out <path.json>    write Chrome trace-event JSON on exit
///                                (Perfetto); enables telemetry + spans
///
/// Requests are newline-delimited JSON, one response line per request
/// in arrival order (see src/pvfp/serve/protocol.hpp).  A typical
/// session:
///
///   printf '%s\n' '{"op":"status"}' '{"op":"rank","id":"R0007"}'
///       '{"op":"plan","id":"R0007","series":6,"strings":2}' '{"op":"quit"}'
///     | pvfp_serve --tiles city/ --index city/index.csv --log req.jsonl
///   (one shell line; wrapped here for width)
///   pvfp_serve --tiles city/ --index city/index.csv --replay req.jsonl

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "pvfp/obs/metrics.hpp"
#include "pvfp/obs/trace.hpp"
#include "pvfp/serve/server.hpp"
#include "pvfp/util/cli.hpp"
#include "pvfp/util/error.hpp"
#include "pvfp/util/simd.hpp"

namespace {

[[noreturn]] void usage_error(const std::string& message) {
    std::cerr << "pvfp_serve: " << message << "\n"
              << "usage: pvfp_serve --tiles DIR --index FILE\n"
              << "                  [--socket PATH] [--log REQ.jsonl]\n"
              << "                  [--replay REQ.jsonl]\n"
              << "                  [--feeder-index FILE]\n"
              << "                  [--memory-budget-mb MB]\n"
              << "                  [--shared-horizon]\n"
              << "                  [--topologies 8x2,8x4] [--minutes step]\n"
              << "                  [--stride k] [--sectors n] [--seed u64]\n"
              << "                  [--margin m] [--tile-cache N]\n"
              << "                  [--max-batch N]\n"
              << "                  [--metrics-out M.json] "
                 "[--trace-out T.json]\n";
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

    std::string tiles_dir, index_path, socket_path, log_path, replay_path;
    std::string feeder_path;
    std::string topologies = "8x2";
    long memory_budget_mb = 512;
    int minutes = 15;
    long stride = 4;
    int sectors = 72;
    std::uint64_t seed = 42;
    double margin = 8.0;
    int tile_cache = 16;
    int max_batch = 0;
    bool shared_horizon = false;
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
        else if (arg == "--socket") socket_path = next();
        else if (arg == "--log") log_path = next();
        else if (arg == "--replay") replay_path = next();
        else if (arg == "--feeder-index") feeder_path = next();
        else if (arg == "--memory-budget-mb")
            memory_budget_mb = cli::parse_long(arg, next(), 1);
        else if (arg == "--topologies") topologies = next();
        else if (arg == "--minutes")
            minutes = cli::parse_int(arg, next(), 1, 24 * 60);
        else if (arg == "--stride") stride = cli::parse_long(arg, next(), 1);
        else if (arg == "--sectors")
            sectors = cli::parse_sectors(arg, next());
        else if (arg == "--seed") seed = cli::parse_u64(arg, next());
        else if (arg == "--margin")
            margin = cli::parse_double(arg, next(), 0.0);
        else if (arg == "--tile-cache")
            tile_cache = cli::parse_int(arg, next(), 1);
        else if (arg == "--max-batch")
            max_batch = cli::parse_int(arg, next(), 1);
        else if (arg == "--shared-horizon") shared_horizon = true;
        else if (arg == "--metrics-out") metrics_out = next();
        else if (arg == "--trace-out") trace_out = next();
        else if (arg == "--help" || arg == "-h") usage_error("help requested");
        else usage_error("unknown option " + arg);
    }
    } catch (const cli::UsageError& e) {
        usage_error(e.what());
    }

    if (tiles_dir.empty() || index_path.empty())
        usage_error("--tiles and --index are required");

    try {
        // Resolve the kernel level before any input is read, so a bad
        // PVFP_SIMD exits here with its typed message (util/simd.hpp).
        (void)simd_level();
        // Telemetry switches before any request is served; response
        // bytes are identical either way (the replay gate).
        if (!metrics_out.empty() || !trace_out.empty())
            obs::set_enabled(true);
        if (!trace_out.empty()) obs::set_trace_enabled(true);

        gis::TileIndex tiles = gis::TileIndex::scan(tiles_dir);
        gis::RoofRegistry registry = gis::RoofRegistry::load(index_path);

        serve::ServerOptions options;
        options.state.config.grid = TimeGrid(minutes, 1, 365);
        options.state.config.weather.seed = seed;
        options.state.config.suitability.step_stride = stride;
        options.state.config.horizon.azimuth_sectors = sectors;
        options.state.eval.step_stride = stride;
        options.state.topologies = parse_topologies(topologies);
        options.state.build.context_margin_m = margin;
        options.state.tile_cache_tiles =
            static_cast<std::size_t>(tile_cache);
        options.state.memory_budget_bytes =
            static_cast<std::size_t>(memory_budget_mb) << 20;
        options.state.share_horizon = shared_horizon;
        options.request_log_path = log_path;
        options.index_path = index_path;
        options.feeder_path = feeder_path;
        options.max_batch = max_batch;

        serve::Server server(std::move(tiles), std::move(registry),
                             std::move(options));

        if (!replay_path.empty()) {
            const long replayed = server.replay(replay_path, std::cout);
            std::cerr << "pvfp_serve: replayed " << replayed
                      << " request(s) from " << replay_path << "\n";
        } else if (!socket_path.empty()) {
            std::cerr << "pvfp_serve: listening on " << socket_path << "\n";
            server.serve_socket(socket_path);
        } else {
            server.serve(std::cin, std::cout);
        }

        // Cache statistics go to stderr only: response bytes must stay a
        // pure function of the request sequence for --replay.
        const serve::ResidentStats stats = server.state().stats();
        std::cerr << "pvfp_serve: " << server.requests_accepted()
                  << " request(s); resident " << stats.entries << " roof(s), "
                  << stats.sky_artifacts << " sky artifact(s), "
                  << (stats.resident_bytes >> 20) << " MB; " << stats.hits
                  << " hit(s) / " << stats.misses << " miss(es), "
                  << stats.evictions << " eviction(s), "
                  << stats.invalidations << " invalidation(s); tiles "
                  << stats.tile_cache_hits << " hit(s) / "
                  << stats.tile_cache_misses << " miss(es)\n";
        if (shared_horizon)
            std::cerr << "pvfp_serve: horizon cache "
                      << stats.horizon_cache_hits << " hit(s) / "
                      << stats.horizon_cache_misses << " miss(es), "
                      << stats.horizon_cache_evictions << " eviction(s), "
                      << (stats.horizon_cache_bytes >> 20)
                      << " MB resident\n";
        if (!metrics_out.empty()) {
            std::ofstream ms(metrics_out, std::ios::binary);
            ms << obs::registry().snapshot_json() << "\n";
            if (!ms.good())
                throw IoError("cannot write metrics to '" + metrics_out +
                              "'");
            std::cerr << "pvfp_serve: metrics -> " << metrics_out << "\n";
        }
        if (!trace_out.empty()) {
            obs::write_chrome_trace(trace_out);
            std::cerr << "pvfp_serve: trace -> " << trace_out << " ("
                      << obs::dropped_spans() << " spans dropped)\n";
        }
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "pvfp_serve: " << e.what() << "\n";
        return 1;
    }
}
