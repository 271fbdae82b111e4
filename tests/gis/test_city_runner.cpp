/// \file test_city_runner.cpp
/// The streaming batch driver against the synthetic city fixture:
/// thread-count-bitwise JSONL, resume-after-kill byte identity,
/// equivalence with the per-roof pipeline (whose private sky pins the
/// shared one), error records, ranking, and the JSONL codec itself.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "pvfp/core/pipeline.hpp"
#include "pvfp/gis/city_runner.hpp"
#include "pvfp/gis/fixture.hpp"
#include "pvfp/gis/horizon_cache.hpp"
#include "pvfp/gis/json.hpp"
#include "pvfp/gis/jsonl.hpp"
#include "pvfp/obs/metrics.hpp"
#include "pvfp/obs/trace.hpp"
#include "pvfp/util/csv.hpp"
#include "pvfp/util/error.hpp"
#include "pvfp/util/math.hpp"
#include "pvfp/util/parallel.hpp"

namespace pvfp::gis {
namespace {

namespace fs = std::filesystem;

std::string temp_dir(const std::string& name) {
    const fs::path dir = fs::path(::testing::TempDir()) / ("pvfp_" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

std::string read_file(const std::string& path) {
    std::ifstream is(path);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

/// One cached small city (9 roofs) + the fast run options every test
/// shares.  Fixture generation is cheap; the cache mainly keeps the
/// directory layout in one place.
struct SmallCity {
    std::string dir;
    TileIndex tiles;
    RoofRegistry registry;

    explicit SmallCity(const std::string& name)
        : dir([&] {
              const std::string d = temp_dir(name);
              CityFixtureOptions options;
              options.roofs = 9;
              options.tile_cells = 96;
              generate_city_fixture(d, options);
              return d;
          }()),
          tiles(TileIndex::scan(dir)),
          registry(RoofRegistry::load(dir + "/index.csv")) {}

    CityRunOptions fast_options(const std::string& jsonl) const {
        CityRunOptions options;
        options.config.grid = TimeGrid(60, 100, 8);
        options.config.horizon.azimuth_sectors = 16;
        options.config.suitability.step_stride = 2;
        options.eval.step_stride = 2;
        options.topologies = {{4, 2}};
        options.build.context_margin_m = 4.0;
        options.shard_size = 4;
        options.jsonl_path = jsonl;
        return options;
    }
};

TEST(CityRunner, JsonlCodecRoundTrips) {
    RoofResult r;
    r.id = "roof \"x\"\\1";
    r.ok = true;
    r.valid_cells = 321;
    r.area_w = 40;
    r.area_h = 22;
    r.tilt_deg = 24.1234;
    r.azimuth_deg = 199.0071;
    r.fit_rmse_m = 0.03125;
    r.topologies.push_back({{8, 2}, 1234.567891, 1200.125, 2.87});
    r.topologies.push_back({{8, 4}, 1250.0, 1201.0, 4.079});
    r.best_kwh = 1250.0;
    const std::string line = roof_result_to_jsonl(r);
    const RoofResult back = roof_result_from_jsonl(line);
    EXPECT_EQ(roof_result_to_jsonl(back), line);
    EXPECT_EQ(back.id, r.id);
    EXPECT_EQ(back.topologies.size(), 2u);
    EXPECT_EQ(back.topologies[1].topology.strings, 4);

    RoofResult err;
    err.id = "bad";
    err.error = "tile \"gap\"";
    const std::string err_line = roof_result_to_jsonl(err);
    const RoofResult err_back = roof_result_from_jsonl(err_line);
    EXPECT_FALSE(err_back.ok);
    EXPECT_EQ(err_back.error, err.error);
    EXPECT_EQ(roof_result_to_jsonl(err_back), err_line);

    EXPECT_THROW(roof_result_from_jsonl("{\"id\":\"torn\",\"sta"), IoError);
    EXPECT_THROW(roof_result_from_jsonl(""), IoError);
}

TEST(CityRunner, RunsTheFixtureAndRanksIt) {
    const SmallCity city("run_basic");
    CityRunOptions options =
        city.fast_options(city.dir + "/results.jsonl");
    options.summary_csv_path = city.dir + "/rank.csv";

    const CityRunSummary summary =
        run_city(city.tiles, city.registry, options);
    EXPECT_EQ(summary.total, 9);
    EXPECT_EQ(summary.processed, 9);
    EXPECT_EQ(summary.resumed, 0);
    ASSERT_EQ(summary.results.size(), 9u);

    // One JSONL line per record, registry order.
    std::ifstream is(options.jsonl_path);
    std::string line;
    long lines = 0;
    while (std::getline(is, line)) {
        const RoofResult r = roof_result_from_jsonl(line);
        EXPECT_EQ(r.id, city.registry.record(lines).id);
        ++lines;
    }
    EXPECT_EQ(lines, 9);

    // Ranking is over successful roofs, descending best_kwh.
    EXPECT_EQ(summary.ranking.size(),
              static_cast<std::size_t>(summary.total - summary.failed));
    for (std::size_t i = 1; i < summary.ranking.size(); ++i)
        EXPECT_GE(summary.results[summary.ranking[i - 1]].best_kwh,
                  summary.results[summary.ranking[i]].best_kwh);

    const CsvTable rank = CsvTable::read_file(options.summary_csv_path);
    ASSERT_EQ(rank.row_count(), summary.ranking.size());
    EXPECT_EQ(rank.cell(0, rank.column("rank")), "1");
    EXPECT_EQ(rank.cell(0, rank.column("id")),
              summary.results[summary.ranking[0]].id);
}

TEST(CityRunner, BitwiseIdenticalAcrossThreadCounts) {
    const SmallCity city("run_threads");
    CityRunOptions options = city.fast_options(city.dir + "/t1.jsonl");

    set_thread_count(1);
    (void)run_city(city.tiles, city.registry, options);
    const std::string one = read_file(options.jsonl_path);

    set_thread_count(8);
    options.jsonl_path = city.dir + "/t8.jsonl";
    (void)run_city(city.tiles, city.registry, options);
    const std::string eight = read_file(options.jsonl_path);
    set_thread_count(0);

    ASSERT_FALSE(one.empty());
    EXPECT_EQ(one, eight);
}

/// The observability contract end to end: turning the full telemetry
/// stack on (metrics + span timing) must not perturb a single output
/// byte, and the deterministic counters it produces must be identical
/// across thread counts.
TEST(CityRunner, TelemetryOnOffAndThreadCountsGiveSameBytes) {
    const SmallCity city("run_obs");
    CityRunOptions options = city.fast_options(city.dir + "/off.jsonl");

    const bool was_enabled = obs::enabled();
    const bool was_trace = obs::trace_enabled();
    obs::set_enabled(false);
    obs::set_trace_enabled(false);
    (void)run_city(city.tiles, city.registry, options);
    const std::string off = read_file(options.jsonl_path);

    const auto run_with_obs = [&](const std::string& jsonl, int threads) {
        obs::registry().reset_for_tests();
        obs::reset_trace_for_tests();
        obs::set_enabled(true);
        obs::set_trace_enabled(true);
        set_thread_count(threads);
        options.jsonl_path = jsonl;
        (void)run_city(city.tiles, city.registry, options);
        set_thread_count(0);
        std::string counters;
        for (const auto& [name, value] :
             obs::registry().snapshot().counters)
            counters += name + "=" + std::to_string(value) + "\n";
        return std::make_pair(read_file(jsonl), counters);
    };
    const auto [on1, counters1] = run_with_obs(city.dir + "/on1.jsonl", 1);
    const auto [on8, counters8] = run_with_obs(city.dir + "/on8.jsonl", 8);
    obs::registry().reset_for_tests();
    obs::reset_trace_for_tests();
    obs::set_enabled(was_enabled);
    obs::set_trace_enabled(was_trace);

    ASSERT_FALSE(off.empty());
    EXPECT_EQ(off, on1);   // telemetry on/off: same bytes
    EXPECT_EQ(on1, on8);   // and thread-count invariant as ever

#ifndef PVFP_OBS_DISABLED
    // The full deterministic counter set — every span.* call count and
    // every city.* event counter — is bitwise thread-count-invariant.
    EXPECT_EQ(counters1, counters8);
    EXPECT_NE(counters1.find("city.roofs_processed=9"), std::string::npos)
        << counters1;
    EXPECT_NE(counters1.find("span.city.roof=9"), std::string::npos)
        << counters1;
    // Suitability folds the dark sampled steps once per roof; the fold
    // and sweep counts are part of the invariant set above.
    const std::string lines = "\n" + counters1;
    const auto counter = [&](const std::string& name) {
        const std::size_t at = lines.find("\n" + name + "=");
        return at == std::string::npos
                   ? 0L
                   : std::stol(lines.substr(at + name.size() + 2));
    };
    EXPECT_GT(counter("core.suitability.folded_steps"), 0) << counters1;
    EXPECT_GT(counter("core.suitability.swept_cell_steps"), 0) << counters1;
    // The horizon march counts its lane-steps and deferred atan2 calls
    // per lane, so both are in the invariant set too.
    EXPECT_GT(counter("geo.horizon.march_steps"), 0) << counters1;
    EXPECT_GT(counter("geo.horizon.atan2_calls"), 0) << counters1;
#endif
}

TEST(CityRunner, SharedHorizonIsThreadIdenticalAndDiffersFromCold) {
    const SmallCity city("run_shared_horizon");
    CityRunOptions options = city.fast_options(city.dir + "/sh1.jsonl");
    options.share_horizon = true;
    // Keep the uniform march distance moderate: the shared mode marches
    // the configured distance over real halo terrain for every roof.
    options.config.horizon.max_distance = 40.0;

    set_thread_count(1);
    const CityRunSummary one_summary =
        run_city(city.tiles, city.registry, options);
    const std::string one = read_file(options.jsonl_path);

    set_thread_count(8);
    options.jsonl_path = city.dir + "/sh8.jsonl";
    (void)run_city(city.tiles, city.registry, options);
    const std::string eight = read_file(options.jsonl_path);
    set_thread_count(0);

    ASSERT_FALSE(one.empty());
    EXPECT_EQ(one, eight);
    EXPECT_EQ(one_summary.failed, 0);
    EXPECT_GT(one_summary.horizon_cache_misses, 0u);
    EXPECT_GT(one_summary.horizon_cache_hits, 0u);
    EXPECT_GT(one_summary.horizon_cache_bytes, 0u);

    // The cold path stays on the per-roof max_distance cap (pinned by
    // MatchesThePerRoofPipeline); the shared stream is a different —
    // equally deterministic — artifact: every roof sees the uniform
    // distance over real neighbouring terrain instead of a clamped
    // margin mosaic.
    CityRunOptions cold = city.fast_options(city.dir + "/cold.jsonl");
    cold.config.horizon.max_distance = 40.0;
    (void)run_city(city.tiles, city.registry, cold);
    EXPECT_NE(one, read_file(cold.jsonl_path));
}

TEST(CityRunner, InjectedHorizonCachePersistsAcrossRuns) {
    const SmallCity city("run_injected_horizon");
    CityRunOptions options = city.fast_options(city.dir + "/self.jsonl");
    options.share_horizon = true;
    options.config.horizon.max_distance = 40.0;
    const CityRunSummary self_owned =
        run_city(city.tiles, city.registry, options);
    const std::string self_bytes = read_file(options.jsonl_path);
    ASSERT_FALSE(self_bytes.empty());

    // A caller-owned cache serves the same bytes, and the second run
    // through it — the warm re-rank workload injection exists for —
    // reuses the resident planes instead of re-marching them.
    TileCache tile_cache(8);
    HorizonCacheOptions cache_options;
    cache_options.horizon = options.config.horizon;
    HorizonCache cache(city.tiles, &tile_cache, cache_options);
    options.share_horizon = false;  // the injected cache alone turns it on
    options.shared_horizon_cache = &cache;

    options.jsonl_path = city.dir + "/injected_cold.jsonl";
    const CityRunSummary cold = run_city(city.tiles, city.registry, options);
    EXPECT_EQ(read_file(options.jsonl_path), self_bytes);
    EXPECT_EQ(cold.horizon_cache_misses, self_owned.horizon_cache_misses);
    EXPECT_GT(cold.horizon_cache_misses, 0u);

    options.jsonl_path = city.dir + "/injected_warm.jsonl";
    const CityRunSummary warm = run_city(city.tiles, city.registry, options);
    EXPECT_EQ(read_file(options.jsonl_path), self_bytes);
    // Stats are cumulative across runs: the warm pass added no misses.
    EXPECT_EQ(warm.horizon_cache_misses, cold.horizon_cache_misses);
    EXPECT_GT(warm.horizon_cache_hits, cold.horizon_cache_hits);

    // Serving planes marched under different options would be silent
    // corruption; the runner refuses instead.
    options.config.horizon.azimuth_sectors += 4;
    EXPECT_THROW(run_city(city.tiles, city.registry, options),
                 InvalidArgument);
}

TEST(CityRunner, ResumeAfterKillReproducesTheFullStream) {
    const SmallCity city("run_resume");
    CityRunOptions options = city.fast_options(city.dir + "/full.jsonl");
    const CityRunSummary full = run_city(city.tiles, city.registry, options);
    const std::string full_bytes = read_file(options.jsonl_path);

    // Kill mid-write: keep 2 whole lines plus a torn third.
    std::istringstream stream(full_bytes);
    std::string l1, l2, l3;
    std::getline(stream, l1);
    std::getline(stream, l2);
    std::getline(stream, l3);
    const std::string torn =
        l1 + "\n" + l2 + "\n" + l3.substr(0, l3.size() / 2);
    options.jsonl_path = city.dir + "/killed.jsonl";
    {
        std::ofstream os(options.jsonl_path);
        os << torn;
    }
    options.resume = true;
    const CityRunSummary resumed =
        run_city(city.tiles, city.registry, options);
    EXPECT_EQ(resumed.resumed, 2);
    EXPECT_EQ(resumed.processed, 7);
    EXPECT_EQ(read_file(options.jsonl_path), full_bytes);

    // The resumed summary ranks exactly like the uninterrupted one.
    ASSERT_EQ(resumed.ranking.size(), full.ranking.size());
    for (std::size_t i = 0; i < full.ranking.size(); ++i)
        EXPECT_EQ(resumed.results[resumed.ranking[i]].id,
                  full.results[full.ranking[i]].id);

    // Resuming a *complete* stream recomputes nothing.
    const CityRunSummary noop = run_city(city.tiles, city.registry, options);
    EXPECT_EQ(noop.resumed, 9);
    EXPECT_EQ(noop.processed, 0);
    EXPECT_EQ(read_file(options.jsonl_path), full_bytes);
}

TEST(CityRunner, MatchesThePerRoofPipeline) {
    const SmallCity city("run_equiv");
    CityRunOptions options = city.fast_options(city.dir + "/equiv.jsonl");
    const CityRunSummary summary =
        run_city(city.tiles, city.registry, options);

    // Recompute roof 0 and roof 4 by hand through make_scenario +
    // prepare_scenario + compare_placements, deriving the per-roof
    // config exactly as the runner documents, and require the identical
    // JSONL line.
    for (const long i : {0L, 4L}) {
        const RoofRecord& rec = city.registry.record(i);
        RoofPlaneFit fit;
        const core::RoofScenario scenario =
            make_scenario(rec, city.tiles, options.build, nullptr, &fit);
        core::ScenarioConfig config = options.config;
        config.cell_size = city.tiles.cell_size();
        if (rec.has_location) {
            config.location.latitude_deg = rec.latitude_deg;
            config.location.longitude_deg = rec.longitude_deg;
        }
        config.horizon.max_distance = std::min(
            config.horizon.max_distance,
            options.build.context_margin_m +
                std::hypot(rec.bbox.width(), rec.bbox.height()));
        const core::PreparedScenario prepared =
            core::prepare_scenario(scenario, config);

        RoofResult expected;
        expected.id = rec.id;
        expected.ok = true;
        expected.valid_cells = prepared.area.valid_count;
        expected.area_w = prepared.area.width;
        expected.area_h = prepared.area.height;
        expected.tilt_deg = fit.tilt_deg;
        expected.azimuth_deg = fit.azimuth_deg;
        expected.fit_rmse_m = fit.rmse_m;
        for (const pv::Topology& topology : options.topologies) {
            const core::PlacementComparison cmp = core::compare_placements(
                prepared, topology, options.greedy, options.eval);
            RoofTopologyResult t;
            t.topology = topology;
            t.proposed_kwh = cmp.proposed_eval.energy_kwh;
            t.compact_kwh = cmp.traditional_eval.energy_kwh;
            t.improvement_pct = cmp.improvement() * 100.0;
            expected.best_kwh = std::max(expected.best_kwh, t.proposed_kwh);
            expected.topologies.push_back(t);
        }
        EXPECT_EQ(
            roof_result_to_jsonl(expected),
            roof_result_to_jsonl(summary.results[static_cast<std::size_t>(i)]))
            << "roof " << i;
    }
}

TEST(CityRunner, BadRoofYieldsAnErrorRecordAndTheRunContinues) {
    const SmallCity city("run_badroof");
    // Append an off-tile record between valid ones by rewriting the CSV.
    const std::string csv = read_file(city.dir + "/index.csv");
    const std::string patched_path = city.dir + "/patched.csv";
    {
        std::ofstream os(patched_path);
        std::istringstream is(csv);
        std::string line;
        long n = 0;
        while (std::getline(is, line)) {
            os << line << "\n";
            if (++n == 3)  // header + 2 records, then the bad one
                os << "roof_off,9000,9000,9010,9008,45.07,7.69,\n";
        }
    }
    const RoofRegistry registry = RoofRegistry::load(patched_path);
    CityRunOptions options = city.fast_options(city.dir + "/bad.jsonl");
    const CityRunSummary summary = run_city(city.tiles, registry, options);
    EXPECT_EQ(summary.total, 10);
    EXPECT_EQ(summary.failed, 1);
    const RoofResult& bad = summary.results[2];
    EXPECT_EQ(bad.id, "roof_off");
    EXPECT_FALSE(bad.ok);
    EXPECT_NE(bad.error.find("footprint"), std::string::npos);
    EXPECT_TRUE(summary.results[3].ok);
}

TEST(CityRunner, Validation) {
    const SmallCity city("run_validate");
    CityRunOptions options = city.fast_options("");
    EXPECT_THROW(run_city(city.tiles, city.registry, options),
                 InvalidArgument);
    options = city.fast_options(city.dir + "/x.jsonl");
    options.topologies.clear();
    EXPECT_THROW(run_city(city.tiles, city.registry, options),
                 InvalidArgument);
    options = city.fast_options(city.dir + "/x.jsonl");
    options.shard_size = 0;
    EXPECT_THROW(run_city(city.tiles, city.registry, options),
                 InvalidArgument);
}

// ---- The shared longest-valid-prefix scanner (PR-6 bugfix) ------------

/// Validator accepting any JSON object line (the shape both resume and
/// replay build on, minus their id/seq checks).
bool valid_object(long, const std::string& line) {
    try {
        return JsonValue::parse(line).is_object();
    } catch (const std::exception&) {
        return false;
    }
}

TEST(JsonlPrefix, KeepsAFinalRecordWithoutTrailingNewline) {
    const std::string dir = temp_dir("jsonl_nonl");
    const std::string path = dir + "/s.jsonl";
    {
        std::ofstream os(path, std::ios::binary);
        os << "{\"id\":\"a\"}\n{\"id\":\"b\"}";  // killed before the '\n'
    }
    const auto prefix = read_jsonl_prefix(path, valid_object);
    ASSERT_EQ(prefix.size(), 2u);
    EXPECT_EQ(prefix[1], "{\"id\":\"b\"}");
}

TEST(JsonlPrefix, StripsCrlfBeforeValidation) {
    const std::string dir = temp_dir("jsonl_crlf");
    const std::string path = dir + "/s.jsonl";
    {
        std::ofstream os(path, std::ios::binary);
        os << "{\"id\":\"a\"}\r\n{\"id\":\"b\"}\r\n";
    }
    const auto prefix = read_jsonl_prefix(path, valid_object);
    ASSERT_EQ(prefix.size(), 2u);
    // The returned lines are ending-free: re-appending them with '\n'
    // reproduces a clean LF stream (what resume's byte-identity needs).
    EXPECT_EQ(prefix[0], "{\"id\":\"a\"}");
    EXPECT_EQ(prefix[1], "{\"id\":\"b\"}");
}

TEST(JsonlPrefix, TornWriteInsideAnEscapedStringEndsTheScan) {
    const std::string dir = temp_dir("jsonl_torn");
    const std::string path = dir + "/s.jsonl";
    {
        std::ofstream os(path, std::ios::binary);
        // The torn tail stops mid-escape: `"id":"x\"` — a prefix that
        // still *looks* string-like but never closes the object.
        os << "{\"id\":\"a\"}\n{\"id\":\"x\\\"";
    }
    const auto prefix = read_jsonl_prefix(path, valid_object);
    ASSERT_EQ(prefix.size(), 1u);
    EXPECT_EQ(prefix[0], "{\"id\":\"a\"}");
}

TEST(JsonlPrefix, EmptyLineMissingFileAndMaxLines) {
    const std::string dir = temp_dir("jsonl_misc");
    EXPECT_TRUE(
        read_jsonl_prefix(dir + "/absent.jsonl", valid_object).empty());

    const std::string path = dir + "/s.jsonl";
    {
        std::ofstream os(path, std::ios::binary);
        // Double newline: the empty line ends the prefix even though a
        // valid record follows it.
        os << "{\"id\":\"a\"}\n\n{\"id\":\"b\"}\n";
    }
    EXPECT_EQ(read_jsonl_prefix(path, valid_object).size(), 1u);

    {
        std::ofstream os(path, std::ios::binary);
        os << "{\"k\":0}\n{\"k\":1}\n{\"k\":2}\n";
    }
    EXPECT_EQ(read_jsonl_prefix(path, valid_object, 2).size(), 2u);
    long calls = 0;
    (void)read_jsonl_prefix(path, [&](long k, const std::string& line) {
        EXPECT_EQ(k, calls);  // 0-based, in order
        ++calls;
        return valid_object(k, line);
    });
    EXPECT_EQ(calls, 3);
}

TEST(CityRunner, ResumesAStreamKilledBeforeTheTrailingNewline) {
    const SmallCity city("run_resume_nonl");
    CityRunOptions options = city.fast_options(city.dir + "/full.jsonl");
    (void)run_city(city.tiles, city.registry, options);
    const std::string full_bytes = read_file(options.jsonl_path);

    // Kill *between* a record's bytes and its '\n': the record is
    // complete and must be kept, not recomputed.
    std::istringstream stream(full_bytes);
    std::string l1, l2;
    std::getline(stream, l1);
    std::getline(stream, l2);
    options.jsonl_path = city.dir + "/killed.jsonl";
    {
        std::ofstream os(options.jsonl_path, std::ios::binary);
        os << l1 << "\n" << l2;  // no trailing newline
    }
    options.resume = true;
    const CityRunSummary resumed =
        run_city(city.tiles, city.registry, options);
    EXPECT_EQ(resumed.resumed, 2);
    EXPECT_EQ(resumed.processed, 7);
    EXPECT_EQ(read_file(options.jsonl_path), full_bytes);
}

TEST(CityRunner, ResumesACrlfRewrittenStream) {
    const SmallCity city("run_resume_crlf");
    CityRunOptions options = city.fast_options(city.dir + "/full.jsonl");
    (void)run_city(city.tiles, city.registry, options);
    const std::string full_bytes = read_file(options.jsonl_path);

    // A partial stream that crossed a text-mode transfer: LF -> CRLF.
    std::istringstream stream(full_bytes);
    std::string l1, l2, l3;
    std::getline(stream, l1);
    std::getline(stream, l2);
    std::getline(stream, l3);
    options.jsonl_path = city.dir + "/crlf.jsonl";
    {
        std::ofstream os(options.jsonl_path, std::ios::binary);
        os << l1 << "\r\n" << l2 << "\r\n" << l3 << "\r\n";
    }
    options.resume = true;
    const CityRunSummary resumed =
        run_city(city.tiles, city.registry, options);
    EXPECT_EQ(resumed.resumed, 3);
    EXPECT_EQ(resumed.processed, 6);
    // Resume rewrites the kept prefix as clean LF lines before
    // appending, so the recovered stream is byte-identical to an
    // uninterrupted run — CRLF artifacts do not survive.
    EXPECT_EQ(read_file(options.jsonl_path), full_bytes);
}

}  // namespace
}  // namespace pvfp::gis
