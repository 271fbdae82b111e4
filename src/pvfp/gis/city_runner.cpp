#include "pvfp/gis/city_runner.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "pvfp/gis/horizon_cache.hpp"
#include "pvfp/gis/json.hpp"
#include "pvfp/gis/jsonl.hpp"
#include "pvfp/obs/metrics.hpp"
#include "pvfp/obs/trace.hpp"
#include "pvfp/util/csv.hpp"
#include "pvfp/util/error.hpp"
#include "pvfp/util/parallel.hpp"

namespace pvfp::gis {

namespace {

std::string num(double v, int decimals) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
    return buf;
}

}  // namespace

std::string roof_result_to_jsonl(const RoofResult& result) {
    std::string line = "{\"id\":\"" + json_escape(result.id) + "\"";
    if (!result.ok) {
        line += ",\"status\":\"error\",\"error\":\"" +
                json_escape(result.error) + "\"}";
        return line;
    }
    line += ",\"status\":\"ok\"";
    line += ",\"valid_cells\":" + std::to_string(result.valid_cells);
    line += ",\"area_w\":" + std::to_string(result.area_w);
    line += ",\"area_h\":" + std::to_string(result.area_h);
    line += ",\"tilt_deg\":" + num(result.tilt_deg, 4);
    line += ",\"azimuth_deg\":" + num(result.azimuth_deg, 4);
    line += ",\"fit_rmse_m\":" + num(result.fit_rmse_m, 5);
    line += ",\"topologies\":[";
    for (std::size_t t = 0; t < result.topologies.size(); ++t) {
        const RoofTopologyResult& topo = result.topologies[t];
        if (t) line += ',';
        line += "{\"series\":" + std::to_string(topo.topology.series);
        line += ",\"strings\":" + std::to_string(topo.topology.strings);
        line += ",\"proposed_kwh\":" + num(topo.proposed_kwh, 6);
        line += ",\"compact_kwh\":" + num(topo.compact_kwh, 6);
        line += ",\"improvement_pct\":" + num(topo.improvement_pct, 6);
        line += '}';
    }
    line += "],\"best_kwh\":" + num(result.best_kwh, 6) + "}";
    return line;
}

RoofResult roof_result_from_jsonl(const std::string& line) {
    const JsonValue v = JsonValue::parse(line);
    RoofResult result;
    result.id = v.at("id").as_string();
    const std::string& status = v.at("status").as_string();
    if (status == "error") {
        result.ok = false;
        result.error = v.at("error").as_string();
        return result;
    }
    check_io(status == "ok", "run_city: unknown result status '" + status +
                                 "' for roof '" + result.id + "'");
    result.ok = true;
    result.valid_cells = static_cast<int>(v.at("valid_cells").as_number());
    result.area_w = static_cast<int>(v.at("area_w").as_number());
    result.area_h = static_cast<int>(v.at("area_h").as_number());
    result.tilt_deg = v.at("tilt_deg").as_number();
    result.azimuth_deg = v.at("azimuth_deg").as_number();
    result.fit_rmse_m = v.at("fit_rmse_m").as_number();
    for (const JsonValue& t : v.at("topologies").as_array()) {
        RoofTopologyResult topo;
        topo.topology.series = static_cast<int>(t.at("series").as_number());
        topo.topology.strings = static_cast<int>(t.at("strings").as_number());
        topo.proposed_kwh = t.at("proposed_kwh").as_number();
        topo.compact_kwh = t.at("compact_kwh").as_number();
        topo.improvement_pct = t.at("improvement_pct").as_number();
        result.topologies.push_back(topo);
    }
    result.best_kwh = v.at("best_kwh").as_number();
    return result;
}

CityRunSummary run_city(const TileIndex& tiles, const RoofRegistry& registry,
                        const CityRunOptions& options) {
    check_arg(!options.jsonl_path.empty(),
              "run_city: jsonl_path is required");
    check_arg(!options.topologies.empty(), "run_city: no topologies");
    check_arg(options.shard_size >= 1, "run_city: shard_size must be >= 1");

    const core::ScenarioConfig& base = options.config;
    const long total = registry.size();
    CityRunSummary summary;
    summary.total = total;

    // ---- Resume: keep the longest valid prefix of the stream. -----------
    // Shards append whole, in registry order, so a valid stream is always
    // line k == record k; anything else (a torn final line from a kill
    // mid-write — even one that still looks string-like because the cut
    // landed inside an escaped JSON string — stale ids after an index
    // edit, CRLF artifacts of a transferred stream) is normalized or
    // recomputed by the shared prefix scanner, the same code path the
    // serving daemon's request-log replay trusts.
    std::vector<RoofResult> kept;
    if (options.resume) {
        read_jsonl_prefix(
            options.jsonl_path,
            [&](long k, const std::string& line) {
                RoofResult r;
                try {
                    r = roof_result_from_jsonl(line);
                } catch (const std::exception&) {
                    return false;
                }
                if (r.id != registry.record(k).id) return false;
                r.from_resume = true;
                kept.push_back(std::move(r));
                return true;
            },
            total);
    }
    summary.resumed = static_cast<long>(kept.size());

    // Rewrite the stream as exactly the kept prefix, then append.
    {
        std::ofstream os(options.jsonl_path, std::ios::trunc);
        check_io(os.good(),
                 "run_city: cannot write '" + options.jsonl_path + "'");
        for (const RoofResult& r : kept)
            os << roof_result_to_jsonl(r) << '\n';
        check_io(os.good(), "run_city: JSONL rewrite failed");
    }

    // ---- Shared sky: one artifact per distinct site, built lazily per
    // shard and dropped when the next shard stops using it, so a
    // per-building-coordinates index cannot accumulate one multi-MB
    // artifact per roof (memory stays bounded by the shard's distinct
    // sites; a single-site city builds exactly one artifact total).
    std::map<std::pair<double, double>,
             std::shared_ptr<const solar::SharedSkyArtifact>>
        artifacts;
    const auto prepare_shard_artifacts = [&](long begin, long end) {
        std::set<std::pair<double, double>> needed;
        for (long i = begin; i < end; ++i) {
            const solar::Location loc =
                roof_location(registry.record(i), base.location);
            needed.insert({loc.latitude_deg, loc.longitude_deg});
        }
        for (auto it = artifacts.begin(); it != artifacts.end();)
            it = needed.count(it->first) ? std::next(it)
                                         : artifacts.erase(it);
        for (const auto& key : needed) {
            if (artifacts.find(key) != artifacts.end()) continue;
            const solar::Location loc{key.first, key.second,
                                      base.location.timezone_hours};
            artifacts.emplace(
                key, solar::make_shared_sky(
                         loc, base.grid,
                         weather::generate_synthetic_weather(
                             loc, base.grid, base.weather),
                         base.field.sky_model));
        }
    };
    const SkyLookup shard_sky = [&](const solar::Location& loc) {
        return artifacts.at({loc.latitude_deg, loc.longitude_deg});
    };

    TileCache cache(options.tile_cache_tiles);
    std::unique_ptr<HorizonCache> owned_horizon_cache;
    HorizonCache* horizon_cache = options.shared_horizon_cache;
    if (horizon_cache != nullptr) {
        // An injected cache carries planes from previous runs; serving
        // them is only sound if this run would march them identically.
        const geo::HorizonOptions& have = horizon_cache->options().horizon;
        const geo::HorizonOptions& want = base.horizon;
        check_arg(have.azimuth_sectors == want.azimuth_sectors &&
                      have.max_distance == want.max_distance &&
                      have.step_factor == want.step_factor &&
                      have.step_growth == want.step_growth &&
                      have.max_step_factor == want.max_step_factor &&
                      have.observer_offset == want.observer_offset,
                  "run_city: shared_horizon_cache options differ from "
                  "config.horizon");
    } else if (options.share_horizon) {
        HorizonCacheOptions hc;
        hc.horizon = base.horizon;
        hc.byte_budget = options.horizon_cache_mb << 20;
        owned_horizon_cache = std::make_unique<HorizonCache>(tiles, &cache, hc);
        horizon_cache = owned_horizon_cache.get();
    }
    summary.results = std::move(kept);
    summary.results.reserve(static_cast<std::size_t>(total));

    std::ofstream out(options.jsonl_path, std::ios::app);
    check_io(out.good(),
             "run_city: cannot append to '" + options.jsonl_path + "'");

    // ---- Stream shards: load -> prepare -> place -> free. ---------------
    for (long shard_begin = summary.resumed; shard_begin < total;
         shard_begin += options.shard_size) {
        const long shard_end =
            std::min(total, shard_begin + static_cast<long>(options.shard_size));
        const long n = shard_end - shard_begin;
        std::vector<RoofResult> shard(static_cast<std::size_t>(n));
        prepare_shard_artifacts(shard_begin, shard_end);

        const auto process = [&](long k) {
            PVFP_TRACE_SPAN("city.roof");
            const RoofRecord& rec = registry.record(shard_begin + k);
            RoofResult& r = shard[static_cast<std::size_t>(k)];
            r.id = rec.id;
            try {
                RoofPlaneFit fit;
                const core::PreparedScenario prepared =
                    prepare_roof(rec, tiles, base, options.build, &cache,
                                 horizon_cache, shard_sky, &fit);
                r.valid_cells = prepared.area.valid_count;
                r.area_w = prepared.area.width;
                r.area_h = prepared.area.height;
                r.tilt_deg = fit.tilt_deg;
                r.azimuth_deg = fit.azimuth_deg;
                r.fit_rmse_m = fit.rmse_m;
                for (const pv::Topology& topology : options.topologies) {
                    const core::PlacementComparison cmp =
                        core::compare_placements(prepared, topology,
                                                 options.greedy,
                                                 options.eval);
                    RoofTopologyResult t;
                    t.topology = topology;
                    t.proposed_kwh = cmp.proposed_eval.energy_kwh;
                    t.compact_kwh = cmp.traditional_eval.energy_kwh;
                    t.improvement_pct = cmp.improvement() * 100.0;
                    r.best_kwh = std::max(r.best_kwh, t.proposed_kwh);
                    r.topologies.push_back(t);
                }
                r.ok = true;
            } catch (const std::exception& e) {
                // One bad roof (footprint off the tiles, nothing
                // placeable, infeasible topology) must not sink a
                // 10,000-roof run: record and continue.
                RoofResult failed;
                failed.id = rec.id;
                failed.error = e.what();
                r = std::move(failed);
            }
        };

        // Same policy as run_scenarios: one roof per task when the shard
        // is at least pool-wide, else let each roof's inner loops fan
        // out.  Either way the per-roof results are identical.
        {
            PVFP_TRACE_SPAN("city.shard");
            if (n > 1 && n >= thread_count()) {
                parallel_for(0, n, 1, [&](long b, long e) {
                    SerialScope serial;
                    for (long k = b; k < e; ++k) process(k);
                });
            } else {
                for (long k = 0; k < n; ++k) process(k);
            }
        }

        for (RoofResult& r : shard) {
            const std::string line = roof_result_to_jsonl(r);
            out << line << '\n';
            // Store the round-tripped record: every consumer (ranking,
            // summary CSV, resumed reruns) then sees the exact same
            // fixed-precision values whether a roof was computed now or
            // parsed back from a previous stream.
            RoofResult stored = roof_result_from_jsonl(line);
            if (!stored.ok) ++summary.failed;
            ++summary.processed;
            summary.results.push_back(std::move(stored));
        }
        out.flush();
        check_io(out.good(), "run_city: JSONL append failed");
    }

    for (long i = 0; i < summary.resumed; ++i)
        if (!summary.results[static_cast<std::size_t>(i)].ok)
            ++summary.failed;

    // ---- City-wide ranking. ---------------------------------------------
    for (std::size_t i = 0; i < summary.results.size(); ++i)
        if (summary.results[i].ok) summary.ranking.push_back(i);
    std::sort(summary.ranking.begin(), summary.ranking.end(),
              [&](std::size_t a, std::size_t b) {
                  const RoofResult& ra = summary.results[a];
                  const RoofResult& rb = summary.results[b];
                  if (ra.best_kwh != rb.best_kwh)
                      return ra.best_kwh > rb.best_kwh;
                  return ra.id < rb.id;
              });

    if (!options.summary_csv_path.empty()) {
        CsvTable csv({"rank", "id", "best_kwh", "valid_cells", "area_w",
                      "area_h", "tilt_deg", "azimuth_deg"});
        for (std::size_t i = 0; i < summary.ranking.size(); ++i) {
            const RoofResult& r = summary.results[summary.ranking[i]];
            csv.add_row({std::to_string(i + 1), r.id, num(r.best_kwh, 6),
                         std::to_string(r.valid_cells),
                         std::to_string(r.area_w), std::to_string(r.area_h),
                         num(r.tilt_deg, 4), num(r.azimuth_deg, 4)});
        }
        csv.write_file(options.summary_csv_path);
    }

    summary.tile_cache_hits = cache.hits();
    summary.tile_cache_misses = cache.misses();
    if (horizon_cache) {
        const HorizonCacheStats hs = horizon_cache->stats();
        summary.horizon_cache_hits = hs.hits + hs.joins;
        summary.horizon_cache_misses = hs.misses;
        summary.horizon_cache_evictions = hs.evictions;
        summary.horizon_cache_bytes = hs.bytes;
    }

    // Re-export the run's component stats through the global registry so
    // one snapshot covers the whole process.  Counts are pure functions
    // of the workload (joins count as hits in the horizon cache), so
    // they are thread-count-invariant; byte totals are point-in-time
    // state and go to gauges.  Registration is the cold path — once per
    // run, not per roof.
    if (obs::enabled()) {
        obs::MetricsRegistry& reg = obs::registry();
        reg.counter("city.roofs_processed")
            .add(static_cast<std::uint64_t>(summary.processed));
        reg.counter("city.roofs_failed")
            .add(static_cast<std::uint64_t>(summary.failed));
        reg.counter("city.roofs_resumed")
            .add(static_cast<std::uint64_t>(summary.resumed));
        reg.counter("gis.tile_cache.hits").add(cache.hits());
        reg.counter("gis.tile_cache.misses").add(cache.misses());
        reg.gauge("gis.tile_cache.bytes")
            .set(static_cast<double>(cache.bytes()));
        if (horizon_cache) {
            const HorizonCacheStats hs = horizon_cache->stats();
            reg.counter("gis.horizon_cache.hits").add(hs.hits);
            reg.counter("gis.horizon_cache.joins").add(hs.joins);
            reg.counter("gis.horizon_cache.misses").add(hs.misses);
            reg.counter("gis.horizon_cache.evictions").add(hs.evictions);
            reg.gauge("gis.horizon_cache.bytes")
                .set(static_cast<double>(hs.bytes));
        }
    }
    return summary;
}

}  // namespace pvfp::gis
