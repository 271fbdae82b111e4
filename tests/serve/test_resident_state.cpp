/// \file test_resident_state.cpp
/// The daemon's resident hot-state cache: hit/miss identity, byte
/// accounting and LRU eviction under a memory budget, content-hash
/// invalidation after an index edit, error paths (including a build
/// failure joined from several threads), and a mixed
/// prepare/invalidate hammer that the TSan job runs for data races.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <latch>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "pvfp/gis/fixture.hpp"
#include "pvfp/serve/resident_state.hpp"
#include "pvfp/util/error.hpp"

namespace pvfp::serve {
namespace {

namespace fs = std::filesystem;

std::string temp_dir(const std::string& name) {
    const fs::path dir = fs::path(::testing::TempDir()) / ("pvfp_" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

/// The shared 9-roof fixture city plus the fast serve configuration
/// every suite uses (mirrors the city-runner test options).
struct ServeCity {
    std::string dir;
    gis::TileIndex tiles;
    gis::RoofRegistry registry;

    explicit ServeCity(const std::string& name)
        : dir([&] {
              const std::string d = temp_dir(name);
              gis::CityFixtureOptions options;
              options.roofs = 9;
              options.tile_cells = 96;
              gis::generate_city_fixture(d, options);
              return d;
          }()),
          tiles(gis::TileIndex::scan(dir)),
          registry(gis::RoofRegistry::load(dir + "/index.csv")) {}

    ServeConfig fast_config() const {
        ServeConfig config;
        config.config.grid = TimeGrid(60, 100, 8);
        config.config.horizon.azimuth_sectors = 16;
        config.config.suitability.step_stride = 2;
        config.eval.step_stride = 2;
        config.topologies = {{4, 2}};
        config.build.context_margin_m = 4.0;
        return config;
    }

    ResidentState make_state(ServeConfig config) const {
        return ResidentState(tiles, registry, std::move(config));
    }

    std::string roof(long i) const { return registry.record(i).id; }
};

TEST(ResidentState, SecondPrepareIsAHitOnTheSameObject) {
    const ServeCity city("rs_hit");
    ResidentState state = city.make_state(city.fast_config());
    const auto first = state.prepare(city.roof(0));
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(first->id, city.roof(0));
    EXPECT_GT(first->resident_bytes, 0u);
    EXPECT_EQ(first->resident_bytes,
              prepared_scenario_bytes(first->prepared));

    const auto second = state.prepare(city.roof(0));
    EXPECT_EQ(second, first);  // the very same resident object
    const ResidentStats stats = state.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_EQ(stats.sky_artifacts, 1u);
    // Accounting covers the roof and its shared sky artifact.
    EXPECT_GT(stats.resident_bytes, first->resident_bytes);
}

TEST(ResidentState, UnknownRoofThrowsAndCachesNothing) {
    const ServeCity city("rs_unknown");
    ResidentState state = city.make_state(city.fast_config());
    EXPECT_THROW(state.prepare("no_such_roof"), InvalidArgument);
    EXPECT_EQ(state.stats().entries, 0u);
}

TEST(ResidentState, BuildFailureReachesEveryJoinerAndCachesNothing) {
    const ServeCity city("rs_build_error");
    // The index's one roof lies off the tile set, so the build itself
    // fails (an unknown id throws before any build).  The wide footprint
    // keeps the failing mosaic scan running long enough for every
    // concurrent caller to join it.
    const std::string index_path = city.dir + "/off_tiles.csv";
    std::ofstream(index_path) << "id,min_x,min_y,max_x,max_y\n"
                              << "roof_off,9000,9000,9400,9400\n";
    ResidentState state(city.tiles, gis::RoofRegistry::load(index_path),
                        city.fast_config());

    constexpr int kThreads = 4;
    std::latch start(kThreads);
    std::atomic<int> typed_errors{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&] {
            start.arrive_and_wait();
            try {
                (void)state.prepare("roof_off");
            } catch (const Infeasible&) {
                typed_errors.fetch_add(1);
            }
        });
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(typed_errors.load(), kThreads);
    const ResidentStats stats = state.stats();
    EXPECT_EQ(stats.entries, 0u);
    EXPECT_EQ(stats.misses, 1u);  // one build, three joins
    EXPECT_EQ(stats.hits, 3u);
    EXPECT_EQ(stats.sky_artifacts, 0u);  // failed before the sky lookup

    // Nothing was cached: a fifth call builds again.
    EXPECT_THROW(state.prepare("roof_off"), Infeasible);
    EXPECT_EQ(state.stats().misses, 2u);
}

TEST(ResidentState, EvictsPastTheBudgetAndKeepsTheNewestEntry) {
    const ServeCity city("rs_evict");
    ServeConfig config = city.fast_config();
    // A budget one roof already exceeds: after every build exactly the
    // newest entry may stay (the budget bounds additional residency).
    config.memory_budget_bytes = 1;
    ResidentState state = city.make_state(std::move(config));

    std::size_t roof_bytes = 0;
    for (long i = 0; i < 4; ++i) {
        const auto roof = state.prepare(city.roof(i));
        roof_bytes = roof->resident_bytes;
        const ResidentStats stats = state.stats();
        EXPECT_EQ(stats.entries, 1u) << "after roof " << i;
        // Accounting tracks the survivor's actual bytes (plus its sky).
        EXPECT_GE(stats.resident_bytes, roof_bytes);
        EXPECT_EQ(stats.evictions, static_cast<std::size_t>(i));
    }
    // An evicted roof is a miss again — and rebuilds fine.
    const auto again = state.prepare(city.roof(0));
    EXPECT_EQ(again->id, city.roof(0));
    EXPECT_EQ(state.stats().misses, 5u);
    EXPECT_EQ(state.stats().hits, 0u);
}

TEST(ResidentState, BudgetAccountingSumsResidentEntries) {
    const ServeCity city("rs_bytes");
    ResidentState state = city.make_state(city.fast_config());  // 512 MB
    std::size_t expected = 0;
    for (long i = 0; i < 3; ++i)
        expected += state.prepare(city.roof(i))->resident_bytes;
    const ResidentStats stats = state.stats();
    EXPECT_EQ(stats.entries, 3u);
    EXPECT_EQ(stats.evictions, 0u);
    // resident_bytes = sum of entries + the (single-site) sky artifact.
    EXPECT_GT(stats.resident_bytes, expected);
    EXPECT_EQ(stats.sky_artifacts, 1u);
}

TEST(ResidentState, IndexEditInvalidatesExactlyTheChangedRoof) {
    const ServeCity city("rs_invalidate");
    ResidentState state = city.make_state(city.fast_config());
    const auto before_a = state.prepare(city.roof(0));
    const auto before_b = state.prepare(city.roof(1));

    // Edit roof 0's footprint in the index file (shrink the bbox by one
    // cell) and reload — the daemon's `reload` op.
    const std::string index_path = city.dir + "/index.csv";
    std::ifstream is(index_path);
    std::ostringstream edited;
    std::string line;
    std::getline(is, line);  // header
    edited << line << "\n";
    bool first_row = true;
    while (std::getline(is, line)) {
        if (first_row) {
            std::istringstream row(line);
            std::string id, min_x, min_y, rest;
            std::getline(row, id, ',');
            std::getline(row, min_x, ',');
            std::getline(row, min_y, ',');
            std::getline(row, rest);
            char shifted[32];
            std::snprintf(shifted, sizeof shifted, "%.3f",
                          std::stod(min_x) + 0.2);
            edited << id << ',' << shifted << ',' << min_y << ',' << rest
                   << "\n";
            first_row = false;
        } else {
            edited << line << "\n";
        }
    }
    is.close();
    std::ofstream(index_path, std::ios::trunc) << edited.str();

    state.update_registry(gis::RoofRegistry::load(index_path));

    // Roof 0: content hash changed -> stale entry dropped, rebuilt.
    const auto after_a = state.prepare(city.roof(0));
    EXPECT_NE(after_a, before_a);
    EXPECT_NE(after_a->content_hash, before_a->content_hash);
    EXPECT_NE(after_a->prepared.area.valid_count,
              before_a->prepared.area.valid_count);
    // Roof 1: untouched -> still served from cache.
    const auto after_b = state.prepare(city.roof(1));
    EXPECT_EQ(after_b, before_b);
    const ResidentStats stats = state.stats();
    EXPECT_EQ(stats.invalidations, 1u);
    EXPECT_EQ(stats.misses, 3u);
    EXPECT_EQ(stats.hits, 1u);
}

TEST(ResidentState, ExplicitInvalidateDropsOneEntry) {
    const ServeCity city("rs_drop");
    ResidentState state = city.make_state(city.fast_config());
    const auto before = state.prepare(city.roof(2));
    state.invalidate(city.roof(2));
    state.invalidate("no_such_roof");  // no-op
    EXPECT_EQ(state.stats().entries, 0u);
    const auto after = state.prepare(city.roof(2));
    EXPECT_NE(after, before);
    // Identical inputs -> identical content hash (the rebuild is not a
    // semantic change, just a fresh object).
    EXPECT_EQ(after->content_hash, before->content_hash);
}

TEST(ResidentState, RecordHashTracksContentNotPosition) {
    const ServeCity city("rs_hash");
    const gis::ScenarioBuildOptions build;
    const gis::RoofRecord& a = city.registry.record(0);
    gis::RoofRecord b = a;
    EXPECT_EQ(roof_record_hash(a, build), roof_record_hash(b, build));
    b.bbox.x1 += 0.01;
    EXPECT_NE(roof_record_hash(a, build), roof_record_hash(b, build));
    b = a;
    b.polygon.push_back({1.0, 2.0});
    EXPECT_NE(roof_record_hash(a, build), roof_record_hash(b, build));
    gis::ScenarioBuildOptions wider = build;
    wider.context_margin_m += 1.0;
    EXPECT_NE(roof_record_hash(a, build), roof_record_hash(a, wider));
}

TEST(ResidentState, ConcurrentPreparesShareOneBuild) {
    const ServeCity city("rs_join");
    ResidentState state = city.make_state(city.fast_config());
    constexpr int kThreads = 4;
    std::vector<std::shared_ptr<const PreparedRoof>> got(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back(
            [&, t] { got[t] = state.prepare(city.roof(0)); });
    for (std::thread& t : threads) t.join();
    for (int t = 1; t < kThreads; ++t) EXPECT_EQ(got[t], got[0]);
    EXPECT_EQ(state.stats().misses, 1u);  // one build, three joins
    EXPECT_EQ(state.stats().hits, 3u);
}

TEST(ResidentState, HammerMixedPrepareInvalidateUnderContention) {
    // The TSan target: every path of the cache (hit, miss, join,
    // invalidate, evict) exercised from many threads at once.  The
    // budget is sized so eviction fires throughout.
    const ServeCity city("rs_hammer");
    ServeConfig config = city.fast_config();
    config.memory_budget_bytes = 6u << 20;  // a few roofs' worth
    ResidentState state = city.make_state(std::move(config));

    constexpr int kThreads = 8;
    constexpr int kIterations = 12;
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kIterations; ++i) {
                const long r = (t * 7 + i * 3) % city.registry.size();
                try {
                    if (t == 0 && i % 4 == 3) {
                        state.invalidate(city.roof(r));
                        continue;
                    }
                    const auto roof = state.prepare(city.roof(r));
                    if (roof->id != city.roof(r) ||
                        roof->prepared.area.valid_count <= 0)
                        failures.fetch_add(1);
                } catch (const std::exception&) {
                    failures.fetch_add(1);
                }
            }
        });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(failures.load(), 0);

    // Quiescent accounting is exact: rebuild the expected byte total
    // from the surviving entries.
    const ResidentStats stats = state.stats();
    EXPECT_GE(stats.misses, 1u);
    std::size_t entry_bytes = 0;
    std::set<std::string> seen;
    for (long r = 0; r < city.registry.size(); ++r) {
        const auto roof = state.prepare(city.roof(r));
        entry_bytes = roof->resident_bytes;
        seen.insert(roof->id);
    }
    EXPECT_EQ(seen.size(), static_cast<std::size_t>(city.registry.size()));
    EXPECT_GT(entry_bytes, 0u);
}

}  // namespace
}  // namespace pvfp::serve
