/// \file driver.cpp
/// perfbench_driver — the benchmark's own driver over the pvfp public API.
///
/// It repeats each workload's sequence of public calls with a span around
/// every call into a layer (gis, geo, solar, core, grid, serve), so one
/// run yields a per-layer time profile without any instrumentation inside
/// the library.  The outputs are byte-identical to the shipped programs'
/// (pvfp_city JSONL, pvfp_serve responses), which is what makes the
/// profile describe the same computation; run.py checks that.
///
///   perfbench_driver info
///   perfbench_driver city --tiles D --index I --out F [--trace-out T]
///                         [--counts-out C]
///   perfbench_driver serve --tiles D --index I --feeders FEED --requests R
///                          --budget-mb MB --out F [--trace-out T]
///                          [--counts-out C]
///                          [--checkpoint K --checkpoint-out C2]
///
/// Spans are kept in memory and written at exit as Chrome trace-event JSON
/// ("ph":"X" events; args carry the span index, its parent and the
/// roof/request id).  Counts (--counts-out) are exact work counts that
/// must repeat across repetitions and thread counts.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "pvfp/core/pipeline.hpp"
#include "pvfp/gis/city_runner.hpp"
#include "pvfp/gis/json.hpp"
#include "pvfp/grid/sequential_place.hpp"
#include "pvfp/serve/protocol.hpp"
#include "pvfp/serve/resident_state.hpp"
#include "pvfp/util/error.hpp"
#include "pvfp/util/parallel.hpp"
#include "pvfp/util/simd.hpp"

using namespace pvfp;

namespace {

std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

// ---- Spans -----------------------------------------------------------------

struct SpanRecord {
    const char* name;
    long id;
    int parent;  ///< index of the enclosing span, -1 at top level
    int tid;
    std::uint64_t begin_ns;
    std::uint64_t end_ns;
};

bool g_tracing = false;
std::uint64_t g_start_ns = 0;  ///< process start, for wall times
std::mutex g_span_mutex;
std::vector<SpanRecord> g_spans;
std::atomic<int> g_next_tid{0};
thread_local int t_tid = -1;
thread_local int t_open = -1;  ///< innermost open span on this thread

constexpr int kInherit = -2;

/// One span around a call into a layer.  A no-op when tracing is off.
class Span {
public:
    explicit Span(const char* name, long id = -1, int parent = kInherit) {
        if (!g_tracing) return;
        if (t_tid < 0) t_tid = g_next_tid++;
        const int par = parent == kInherit ? t_open : parent;
        std::lock_guard<std::mutex> lock(g_span_mutex);
        index_ = static_cast<int>(g_spans.size());
        g_spans.push_back({name, id, par, t_tid, now_ns(), 0});
        saved_open_ = t_open;
        t_open = index_;
    }
    ~Span() {
        if (index_ < 0) return;
        const std::uint64_t end = now_ns();
        t_open = saved_open_;
        std::lock_guard<std::mutex> lock(g_span_mutex);
        g_spans[static_cast<std::size_t>(index_)].end_ns = end;
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /// Rename before close (a prepare split by its outcome).
    void rename(const char* name) {
        if (index_ < 0) return;
        std::lock_guard<std::mutex> lock(g_span_mutex);
        g_spans[static_cast<std::size_t>(index_)].name = name;
    }
    int index() const { return index_; }

private:
    int index_ = -1;
    int saved_open_ = -1;
};

void write_trace(const std::string& path) {
    std::ofstream os(path, std::ios::binary);
    check_io(os.good(), "cannot write trace '" + path + "'");
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    std::uint64_t origin = ~0ull;
    for (const SpanRecord& s : g_spans) origin = std::min(origin, s.begin_ns);
    char buf[512];
    for (std::size_t i = 0; i < g_spans.size(); ++i) {
        const SpanRecord& s = g_spans[i];
        std::snprintf(buf, sizeof buf,
                      "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                      "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                      "\"span\":%zu,\"parent\":%d,\"id\":%ld}}",
                      i ? "," : "", s.name, s.tid,
                      static_cast<double>(s.begin_ns - origin) / 1e3,
                      static_cast<double>(s.end_ns - s.begin_ns) / 1e3, i,
                      s.parent, s.id);
        os << buf;
    }
    os << "\n]}\n";
    check_io(os.good(), "trace write failed");
}

// ---- Exact work counts -----------------------------------------------------

struct Counts {
    std::atomic<long long> suitability_cell_steps{0};
    std::atomic<long long> horizon_cell_sectors{0};
    std::atomic<long long> greedy_candidates{0};
    std::atomic<long long> evaluate_module_steps{0};
    std::atomic<long long> roofs_prepared{0};
    long long tile_cache_hits = 0;
    long long tile_cache_misses = 0;
    long long resident_hits = 0;
    long long resident_misses = 0;
    long long resident_evictions = 0;
};

Counts g_counts;

/// Steps compute_suitability samples (stride, optional daylight filter).
long suitability_steps(const solar::IrradianceField& field,
                       const core::SuitabilityOptions& options) {
    long n = 0;
    for (long s = 0; s < field.steps(); s += options.step_stride)
        if (!options.daylight_only || field.is_daylight(s)) ++n;
    return n;
}

/// Sampled daylight steps evaluate_floorplan integrates.
long evaluate_steps(const solar::IrradianceField& field, long stride) {
    long n = 0;
    for (long s = 0; s < field.steps(); s += stride)
        if (field.is_daylight(s)) ++n;
    return n;
}

void count_prepared(const core::PreparedScenario& prepared) {
    const geo::HorizonMap& horizon = prepared.field.horizon();
    g_counts.horizon_cell_sectors += static_cast<long long>(
        horizon.cell_count() * horizon.sectors());
    g_counts.suitability_cell_steps +=
        static_cast<long long>(prepared.area.valid_count) *
        suitability_steps(prepared.field, prepared.config.suitability);
    ++g_counts.roofs_prepared;
}

void count_evaluation(const core::Floorplan& plan,
                      const solar::IrradianceField& field,
                      const core::EvaluationOptions& options) {
    g_counts.evaluate_module_steps +=
        static_cast<long long>(plan.module_count()) *
        evaluate_steps(field, options.step_stride);
}

void write_counts(const std::string& path, std::uint64_t wall_ns) {
    if (path.empty()) return;
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const double cpu_s =
        static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
        static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
    std::ofstream os(path, std::ios::binary);
    os << "{\"core.suitability.cell_steps\":" << g_counts.suitability_cell_steps
       << ",\"geo.horizon.cell_sectors\":" << g_counts.horizon_cell_sectors
       << ",\"core.greedy.candidates\":" << g_counts.greedy_candidates
       << ",\"core.evaluate.module_steps\":" << g_counts.evaluate_module_steps
       << ",\"roofs_prepared\":" << g_counts.roofs_prepared
       << ",\"gis.tile_cache.hits\":" << g_counts.tile_cache_hits
       << ",\"gis.tile_cache.misses\":" << g_counts.tile_cache_misses
       << ",\"serve.resident.hits\":" << g_counts.resident_hits
       << ",\"serve.resident.misses\":" << g_counts.resident_misses
       << ",\"serve.resident.evictions\":" << g_counts.resident_evictions
       << ",\"wall_s\":" << static_cast<double>(wall_ns) / 1e9
       << ",\"cpu_s\":" << cpu_s << ",\"threads\":" << thread_count()
       << ",\"simd\":\"" << simd_level_name(simd_level()) << "\"}\n";
    check_io(os.good(), "counts write failed");
}

// ---- Traced pipeline steps -------------------------------------------------

/// core::prepare_scenario, one span per layer call.  Requires a shared
/// sky (the city run prepares one per site) and no horizon provider (no
/// workload shares horizons).
core::PreparedScenario prepare_traced(const core::RoofScenario& scenario,
                                      const core::ScenarioConfig& config) {
    check_arg(scenario.dsm && config.shared_sky && !config.horizon_provider,
              "prepare_traced: needs a GIS scenario, a shared sky and no "
              "horizon provider");
    const geo::Raster& dsm = *scenario.dsm;
    std::optional<geo::PlacementArea> area;
    {
        Span span("geo.area");
        area.emplace(geo::extract_placement_area(
            dsm, scenario.scene, scenario.roof_index, config.area,
            scenario.placement_mask.get()));
    }
    std::optional<geo::HorizonMap> horizon;
    {
        Span span("geo.horizon");
        horizon.emplace(dsm, area->origin_col, area->origin_row, area->width,
                        area->height, config.horizon);
    }
    std::optional<geo::NormalMap> normals;
    {
        Span span("geo.area");
        normals.emplace(geo::NormalMap::from_dsm(
            dsm, area->origin_col, area->origin_row, area->width,
            area->height));
    }
    solar::FieldConfig field_config = config.field;
    field_config.location = config.location;
    std::optional<solar::IrradianceField> field;
    {
        Span span("solar.field");
        field.emplace(std::move(*horizon), config.shared_sky, area->tilt_rad,
                      area->azimuth_rad, field_config, std::move(*normals));
    }
    core::SuitabilityResult suitability;
    {
        Span span("core.suitability");
        suitability =
            core::compute_suitability(*field, *area, config.suitability);
    }
    core::PreparedScenario prepared{
        scenario.name,
        scenario.dsm,
        std::move(*area),
        std::move(*field),
        std::move(suitability),
        pv::EmpiricalModuleModel(config.module),
        core::PanelGeometry::from_module(config.module, config.cell_size),
        config};
    count_prepared(prepared);
    return prepared;
}

/// core::compare_placements, one span per placer / evaluation.
core::PlacementComparison compare_traced(
    const core::PreparedScenario& prepared, const pv::Topology& topology,
    const core::GreedyOptions& greedy, const core::EvaluationOptions& eval) {
    core::PlacementComparison cmp;
    {
        Span span("core.compact");
        const core::CompactResult compact =
            core::place_compact(prepared.area, prepared.suitability.suitability,
                                prepared.geometry, topology);
        cmp.traditional = compact.plan;
        cmp.traditional_mode = compact.mode;
    }
    {
        Span span("core.greedy");
        cmp.proposed =
            core::place_greedy(prepared.area, prepared.suitability.suitability,
                               prepared.geometry, topology, greedy,
                               &cmp.greedy_stats);
    }
    {
        Span span("core.evaluate");
        cmp.traditional_eval = core::evaluate_floorplan(
            cmp.traditional, prepared.area, prepared.field, prepared.model,
            eval);
    }
    {
        Span span("core.evaluate");
        cmp.proposed_eval = core::evaluate_floorplan(
            cmp.proposed, prepared.area, prepared.field, prepared.model, eval);
    }
    g_counts.greedy_candidates += cmp.greedy_stats.candidate_count;
    count_evaluation(cmp.traditional, prepared.field, eval);
    count_evaluation(cmp.proposed, prepared.field, eval);
    return cmp;
}

std::shared_ptr<const solar::SharedSkyArtifact> make_sky(
    const solar::Location& location, const core::ScenarioConfig& config) {
    Span span("solar.sky");
    return solar::make_shared_sky(
        location, config.grid,
        weather::generate_synthetic_weather(location, config.grid,
                                            config.weather),
        config.field.sky_model);
}

std::string fmt(double v, int decimals) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
    return buf;
}

// ---- CLI -------------------------------------------------------------------

struct Args {
    std::string mode;
    std::map<std::string, std::string> values;

    std::string get(const std::string& key, const std::string& dflt = {}) const {
        const auto it = values.find(key);
        return it == values.end() ? dflt : it->second;
    }
    std::string need(const std::string& key) const {
        const auto it = values.find(key);
        if (it == values.end()) {
            std::cerr << "perfbench_driver " << mode << ": missing --" << key
                      << "\n";
            std::exit(2);
        }
        return it->second;
    }
};

Args parse_args(int argc, char** argv) {
    Args args;
    if (argc < 2) {
        std::cerr << "usage: perfbench_driver info|city|serve "
                     "[--key value ...]\n";
        std::exit(2);
    }
    args.mode = argv[1];
    for (int i = 2; i < argc; ++i) {
        std::string key = argv[i];
        if (key.rfind("--", 0) != 0) {
            std::cerr << "perfbench_driver: unexpected argument " << key << "\n";
            std::exit(2);
        }
        key = key.substr(2);
        if (i + 1 >= argc) {
            std::cerr << "perfbench_driver: missing value after --" << key
                      << "\n";
            std::exit(2);
        }
        args.values[key] = argv[++i];
    }
    return args;
}

// ---- City --------------------------------------------------------------------

/// pvfp_city's default CLI configuration (15-minute grid, stride 4, 72
/// sectors, 8x2, shard 32, 16 cached tiles, 8 m margin, weather seed 42).
gis::CityRunOptions city_options() {
    gis::CityRunOptions options;
    options.config.grid = TimeGrid(15, 1, 365);
    options.config.weather.seed = 42;
    options.config.suitability.step_stride = 4;
    options.config.horizon.azimuth_sectors = 72;
    options.eval.step_stride = 4;
    options.topologies = {{8, 2}};
    options.build.context_margin_m = 8.0;
    options.shard_size = 32;
    options.tile_cache_tiles = 16;
    return options;
}

/// gis::run_city (fresh run, shared sky, per-roof horizon march cap) call
/// by call; writes the same JSONL bytes as pvfp_city.
int run_city_traced(const Args& args) {
    const gis::CityRunOptions options = city_options();
    std::optional<gis::TileIndex> tiles;
    std::optional<gis::RoofRegistry> registry;
    {
        Span span("gis.tile_scan");
        tiles.emplace(gis::TileIndex::scan(args.need("tiles")));
        registry.emplace(gis::RoofRegistry::load(args.need("index")));
    }
    core::ScenarioConfig base = options.config;
    base.cell_size = tiles->cell_size();
    const auto location_of = [&](const gis::RoofRecord& rec) {
        solar::Location loc = base.location;
        if (rec.has_location) {
            loc.latitude_deg = rec.latitude_deg;
            loc.longitude_deg = rec.longitude_deg;
        }
        return loc;
    };

    const std::string out_path = args.need("out");
    std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
    check_io(out.good(), "cannot write '" + out_path + "'");
    gis::TileCache cache(options.tile_cache_tiles);
    std::map<std::pair<double, double>,
             std::shared_ptr<const solar::SharedSkyArtifact>>
        artifacts;
    const long total = registry->size();
    for (long begin = 0; begin < total; begin += options.shard_size) {
        const long end = std::min(total, begin + options.shard_size);
        const long n = end - begin;
        {
            std::set<std::pair<double, double>> needed;
            for (long i = begin; i < end; ++i) {
                const solar::Location loc = location_of(registry->record(i));
                needed.insert({loc.latitude_deg, loc.longitude_deg});
            }
            for (auto it = artifacts.begin(); it != artifacts.end();)
                it = needed.count(it->first) ? std::next(it)
                                             : artifacts.erase(it);
            for (const auto& key : needed)
                if (!artifacts.count(key))
                    artifacts.emplace(
                        key, make_sky({key.first, key.second,
                                       base.location.timezone_hours},
                                      base));
        }
        std::vector<gis::RoofResult> shard(static_cast<std::size_t>(n));
        const auto process = [&](long k, int parent) {
            const gis::RoofRecord& rec = registry->record(begin + k);
            Span roof("city.roof", begin + k, parent);
            gis::RoofResult& r = shard[static_cast<std::size_t>(k)];
            r.id = rec.id;
            try {
                gis::RoofPlaneFit fit;
                gis::WindowOrigin origin;
                std::optional<core::RoofScenario> scenario;
                {
                    Span span("gis.make_scenario");
                    scenario.emplace(gis::make_scenario(
                        rec, *tiles, options.build, &cache, &fit, &origin));
                }
                core::ScenarioConfig config = base;
                config.location = location_of(rec);
                config.horizon.max_distance = std::min(
                    config.horizon.max_distance,
                    options.build.context_margin_m +
                        std::hypot(rec.bbox.width(), rec.bbox.height()));
                config.shared_sky = artifacts.at(
                    {config.location.latitude_deg,
                     config.location.longitude_deg});
                const core::PreparedScenario prepared =
                    prepare_traced(*scenario, config);
                r.valid_cells = prepared.area.valid_count;
                r.area_w = prepared.area.width;
                r.area_h = prepared.area.height;
                r.tilt_deg = fit.tilt_deg;
                r.azimuth_deg = fit.azimuth_deg;
                r.fit_rmse_m = fit.rmse_m;
                for (const pv::Topology& topology : options.topologies) {
                    const core::PlacementComparison cmp = compare_traced(
                        prepared, topology, options.greedy, options.eval);
                    gis::RoofTopologyResult t;
                    t.topology = topology;
                    t.proposed_kwh = cmp.proposed_eval.energy_kwh;
                    t.compact_kwh = cmp.traditional_eval.energy_kwh;
                    t.improvement_pct = cmp.improvement() * 100.0;
                    r.best_kwh = std::max(r.best_kwh, t.proposed_kwh);
                    r.topologies.push_back(t);
                }
                r.ok = true;
            } catch (const std::exception& e) {
                gis::RoofResult failed;
                failed.id = rec.id;
                failed.error = e.what();
                r = std::move(failed);
            }
        };
        {
            Span span("city.shard", begin);
            const int parent = span.index();
            if (n > 1 && n >= thread_count()) {
                parallel_for(0, n, 1, [&](long b, long e) {
                    SerialScope serial;
                    for (long k = b; k < e; ++k) process(k, parent);
                });
            } else {
                for (long k = 0; k < n; ++k) process(k, parent);
            }
        }
        Span span("city.write", begin);
        for (const gis::RoofResult& r : shard)
            out << gis::roof_result_to_jsonl(r) << '\n';
        out.flush();
        check_io(out.good(), "JSONL append failed");
    }
    g_counts.tile_cache_hits = static_cast<long long>(cache.hits());
    g_counts.tile_cache_misses = static_cast<long long>(cache.misses());
    return 0;
}

// ---- Serve -------------------------------------------------------------------

/// The daemon's per-request work (serve::Server::respond_payload) on a
/// ResidentState, one request at a time, with the same response bytes.
class ServeDriver {
public:
    ServeDriver(gis::TileIndex tiles, gis::RoofRegistry registry,
                serve::ServeConfig config, const std::string& feeders)
        : state_(std::move(tiles), std::move(registry), std::move(config)) {
        Span span("grid.load");
        model_.emplace(grid::FeederModel::load(feeders));
        model_->validate_roofs(*state_.registry());
    }

    std::string respond(long seq, const std::string& raw) {
        Span span("serve.request", seq);
        serve::Request request;
        try {
            request = serve::parse_request(raw);
        } catch (const std::exception& e) {
            return serve::error_response(seq, "error", "", e.what());
        }
        try {
            if (request.op == "rank")
                return serve::rank_response(seq, rank_result(request.id));
            if (request.op == "plan") return plan(seq, request);
            if (request.op == "grid_rank") return grid_rank(seq, request);
            if (request.op == "status") return status(seq);
            check_arg(false, "perfbench_driver: unsupported op '" +
                                 request.op + "'");
        } catch (const std::exception& e) {
            return serve::error_response(seq, request.op, request.id, e.what());
        }
        return {};
    }

    void finish() {
        const serve::ResidentStats stats = state_.stats();
        g_counts.tile_cache_hits = static_cast<long long>(stats.tile_cache_hits);
        g_counts.tile_cache_misses =
            static_cast<long long>(stats.tile_cache_misses);
        g_counts.resident_hits = static_cast<long long>(stats.hits);
        g_counts.resident_misses = static_cast<long long>(stats.misses);
        g_counts.resident_evictions = static_cast<long long>(stats.evictions);
    }

private:
    std::shared_ptr<const serve::PreparedRoof> prepare(const std::string& id) {
        Span span("serve.prepare_hit");
        const std::size_t misses = state_.stats().misses;
        auto roof = state_.prepare(id);
        if (state_.stats().misses != misses) {
            span.rename("serve.prepare_miss");
            count_prepared(roof->prepared);
        }
        return roof;
    }

    gis::RoofResult rank_result(const std::string& id) {
        const serve::ServeConfig& config = state_.config();
        gis::RoofResult result;
        result.id = id;
        try {
            const auto roof = prepare(id);
            result.valid_cells = roof->prepared.area.valid_count;
            result.area_w = roof->prepared.area.width;
            result.area_h = roof->prepared.area.height;
            result.tilt_deg = roof->fit.tilt_deg;
            result.azimuth_deg = roof->fit.azimuth_deg;
            result.fit_rmse_m = roof->fit.rmse_m;
            for (const pv::Topology& topology : config.topologies) {
                const core::PlacementComparison cmp = compare_traced(
                    roof->prepared, topology, config.greedy, config.eval);
                gis::RoofTopologyResult t;
                t.topology = topology;
                t.proposed_kwh = cmp.proposed_eval.energy_kwh;
                t.compact_kwh = cmp.traditional_eval.energy_kwh;
                t.improvement_pct = cmp.improvement() * 100.0;
                result.best_kwh = std::max(result.best_kwh, t.proposed_kwh);
                result.topologies.push_back(t);
            }
            result.ok = true;
        } catch (const std::exception& e) {
            gis::RoofResult failed;
            failed.id = id;
            failed.error = e.what();
            result = std::move(failed);
        }
        return result;
    }

    std::string plan(long seq, const serve::Request& request) {
        const serve::ServeConfig& config = state_.config();
        const auto roof = prepare(request.id);
        const core::PanelGeometry geometry =
            request.portrait ? core::PanelGeometry::from_module(
                                   roof->config.module,
                                   roof->config.cell_size, true)
                             : roof->prepared.geometry;
        const pv::Topology topology{request.series, request.strings};
        core::GreedyStats stats;
        std::optional<core::Floorplan> plan;
        {
            Span span("core.greedy");
            plan.emplace(core::place_greedy(
                roof->prepared.area, roof->prepared.suitability.suitability,
                geometry, topology, config.greedy, &stats));
        }
        g_counts.greedy_candidates += stats.candidate_count;
        std::optional<core::EvaluationResult> eval;
        {
            Span span("core.evaluate");
            eval.emplace(core::evaluate_floorplan(
                *plan, roof->prepared.area, roof->prepared.field,
                roof->prepared.model, config.eval));
        }
        count_evaluation(*plan, roof->prepared.field, config.eval);
        std::string out = serve::ok_envelope(seq, "plan");
        out += ",\"id\":\"" + gis::json_escape(request.id) + "\"";
        out += ",\"status\":\"ok\"";
        out += ",\"series\":" + std::to_string(topology.series);
        out += ",\"strings\":" + std::to_string(topology.strings);
        out += std::string(",\"orientation\":\"") +
               (request.portrait ? "portrait" : "landscape") + "\"";
        out += ",\"modules\":[";
        for (std::size_t m = 0; m < plan->modules.size(); ++m) {
            if (m) out += ',';
            out += '[' + std::to_string(plan->modules[m].x) + ',' +
                   std::to_string(plan->modules[m].y) + ']';
        }
        out += "],\"energy_kwh\":" + fmt(eval->energy_kwh, 6);
        out += ",\"mismatch_loss_kwh\":" + fmt(eval->mismatch_loss_kwh, 6);
        out += ",\"wiring_loss_kwh\":" + fmt(eval->wiring_loss_kwh, 6);
        out += '}';
        return out;
    }

    std::string grid_rank(long seq, const serve::Request& request) {
        const grid::FeederModel& model = *model_;
        const long feeder = model.find_feeder(request.feeder);
        check_arg(feeder >= 0,
                  "grid_rank: unknown feeder '" + request.feeder + "'");
        const auto registry = state_.registry();
        std::vector<gis::RoofResult> results;
        for (const gis::RoofRecord& record : registry->records()) {
            const long bus = model.bus_of(record.id);
            if (bus < 0 ||
                model.buses()[static_cast<std::size_t>(bus)].feeder != feeder)
                continue;
            results.push_back(gis::roof_result_from_jsonl(
                gis::roof_result_to_jsonl(rank_result(record.id))));
        }
        grid::GridPlaceOptions grid_options;
        grid_options.feeder_filter = request.feeder;
        std::optional<grid::GridPlanResult> plan;
        {
            Span span("grid.place");
            plan.emplace(grid::sequential_place(model, results, grid_options));
        }
        std::string out = serve::ok_envelope(seq, "grid_rank");
        out += ",\"feeder\":\"" + gis::json_escape(request.feeder) + "\"";
        out += ",\"status\":\"ok\"";
        out += ",\"export_cap_kw\":" +
               fmt(model.feeders()[static_cast<std::size_t>(feeder)]
                       .export_cap_kw,
                   6);
        out += ",\"attached\":" + std::to_string(plan->attached);
        out += ",\"placements\":[";
        for (std::size_t p = 0; p < plan->placements.size(); ++p) {
            if (p) out += ',';
            out += grid::placement_to_jsonl(plan->placements[p]);
        }
        out += "],\"skipped\":[";
        for (std::size_t s = 0; s < plan->skipped.size(); ++s) {
            if (s) out += ',';
            out += "{\"id\":\"" + gis::json_escape(plan->skipped[s].roof_id) +
                   "\",\"reason\":\"" + plan->skipped[s].reason + "\"}";
        }
        out += "]}";
        return out;
    }

    std::string status(long seq) {
        const serve::ServeConfig& config = state_.config();
        const auto registry = state_.registry();
        const serve::ResidentStats rs = state_.stats();
        std::string out = serve::ok_envelope(seq, "status");
        out += ",\"status\":\"ok\",\"protocol\":1";
        out += ",\"roofs\":" + std::to_string(registry->size());
        out += ",\"tiles\":" + std::to_string(state_.tiles().tiles().size());
        out += ",\"cell_size\":" + fmt(state_.tiles().cell_size(), 4);
        out += ",\"topologies\":[";
        for (std::size_t t = 0; t < config.topologies.size(); ++t) {
            if (t) out += ',';
            out += '[' + std::to_string(config.topologies[t].series) + ',' +
                   std::to_string(config.topologies[t].strings) + ']';
        }
        out += "],\"memory_budget_mb\":" +
               std::to_string(config.memory_budget_bytes >> 20);
        out += ",\"resident_bytes\":{\"tiles\":" +
               std::to_string(rs.tile_cache_bytes);
        out += ",\"sky\":" + std::to_string(rs.sky_bytes);
        out += ",\"prepared\":" + std::to_string(rs.prepared_bytes);
        out += ",\"horizon\":" + std::to_string(rs.horizon_cache_bytes) + "}";
        out += '}';
        return out;
    }

    serve::ResidentState state_;
    std::optional<grid::FeederModel> model_;
};

int run_serve(const Args& args) {
    std::vector<std::string> requests;
    {
        std::ifstream in(args.need("requests"));
        check_io(in.good(), "cannot read the request file");
        for (std::string line; std::getline(in, line);)
            if (!line.empty()) requests.push_back(line);
    }
    // pvfp_serve's default CLI configuration.
    serve::ServeConfig config;
    config.config.grid = TimeGrid(15, 1, 365);
    config.config.weather.seed = 42;
    config.config.suitability.step_stride = 4;
    config.config.horizon.azimuth_sectors = 72;
    config.eval.step_stride = 4;
    config.topologies = {{8, 2}};
    config.build.context_margin_m = 8.0;
    config.tile_cache_tiles = 16;
    config.memory_budget_bytes =
        static_cast<std::size_t>(std::stol(args.need("budget-mb"))) << 20;

    std::optional<gis::TileIndex> tiles;
    std::optional<gis::RoofRegistry> registry;
    {
        Span span("gis.tile_scan");
        tiles.emplace(gis::TileIndex::scan(args.need("tiles")));
        registry.emplace(gis::RoofRegistry::load(args.need("index")));
    }
    ServeDriver driver(std::move(*tiles), std::move(*registry),
                       std::move(config), args.need("feeders"));
    const std::string out_path = args.need("out");
    std::ofstream out(out_path, std::ios::binary);
    check_io(out.good(), "cannot write '" + out_path + "'");
    // --checkpoint K also writes the counts (and wall time) as they stand
    // after the first K requests, so a run over just those K requests can
    // be compared with this one.
    const long checkpoint = std::stol(args.get("checkpoint", "0"));
    for (std::size_t seq = 0; seq < requests.size(); ++seq) {
        out << driver.respond(static_cast<long>(seq), requests[seq]) << '\n';
        if (static_cast<long>(seq) + 1 == checkpoint) {
            driver.finish();
            write_counts(args.need("checkpoint-out"), now_ns() - g_start_ns);
        }
    }
    check_io(out.good(), "response write failed");
    driver.finish();
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    const Args args = parse_args(argc, argv);
    g_start_ns = now_ns();
    try {
        g_tracing = !args.get("trace-out").empty();
        int rc = 0;
        if (args.mode == "info") {
            std::cout << "{\"simd\":\"" << simd_level_name(simd_level())
                      << "\",\"threads\":" << thread_count() << "}\n";
            return 0;
        } else if (args.mode == "city") {
            rc = run_city_traced(args);
        } else if (args.mode == "serve") {
            rc = run_serve(args);
        } else {
            std::cerr << "perfbench_driver: unknown mode " << args.mode << "\n";
            return 2;
        }
        const std::uint64_t wall = now_ns() - g_start_ns;
        if (g_tracing) write_trace(args.get("trace-out"));
        write_counts(args.get("counts-out"), wall);
        return rc;
    } catch (const std::exception& e) {
        std::cerr << "perfbench_driver: " << e.what() << "\n";
        return 1;
    }
}
