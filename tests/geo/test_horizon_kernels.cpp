/// \file test_horizon_kernels.cpp
/// Differential suite for the batched horizon engine and the shared
/// macro-tile horizon cache.
///
/// The batched row-march kernels (scalar / AVX2 / AVX-512) promise
/// *bitwise* identity with the retained per-cell reference builder —
/// the same contract as the irradiance kernel tiers: every SIMD level
/// performs elementwise-identical IEEE arithmetic (mul+add, no FMA), so
/// a HorizonMap is one deterministic artifact no matter which tier the
/// dispatcher picks.  The cache promises that a window assembled from
/// cached macro-tile planes equals a fresh HorizonMap built over the
/// same halo mosaic, through eviction, rebuild, and concurrent access.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "pvfp/geo/asc_grid.hpp"
#include "pvfp/geo/horizon.hpp"
#include "pvfp/geo/horizon_kernels.hpp"
#include "pvfp/geo/scene.hpp"
#include "pvfp/gis/horizon_cache.hpp"
#include "pvfp/gis/tile_index.hpp"
#include "pvfp/solar/irradiance_kernels.hpp"
#include "pvfp/util/error.hpp"
#include "pvfp/util/rng.hpp"
#include "pvfp/util/simd.hpp"

namespace pvfp::geo {
namespace {

namespace fs = std::filesystem;

/// Restore the ambient SIMD level when a test scope ends.
struct SimdLevelGuard {
    SimdLevel saved = simd_level();
    ~SimdLevelGuard() { set_simd_level(saved); }
};

/// The SIMD levels this host can actually execute.
std::vector<SimdLevel> runnable_levels() {
    std::vector<SimdLevel> levels{SimdLevel::Scalar};
    if (cpu_supports_avx2()) levels.push_back(SimdLevel::Avx2);
    if (cpu_supports_avx512()) levels.push_back(SimdLevel::Avx512);
    return levels;
}

/// A pool of structurally different DSMs: procedural buildings, rough
/// random terrain, a smooth slope, and flat ground with a lone spike.
std::vector<Raster> test_dsms() {
    std::vector<Raster> dsms;

    SceneBuilder town(16.0, 16.0);
    town.add_building({3.0, 2.0, 2.5, 3.0, 5.0});
    town.add_building({10.0, 9.0, 4.0, 2.0, 7.5});
    town.add_building({6.5, 11.5, 1.0, 1.0, 12.0});
    dsms.push_back(town.rasterize(0.4));

    Rng rng(0xD5A11u);
    Raster rough(37, 29, 0.5);
    for (int y = 0; y < rough.height(); ++y)
        for (int x = 0; x < rough.width(); ++x)
            rough(x, y) = rng.uniform(0.0, 6.0);
    dsms.push_back(std::move(rough));

    Raster slope(31, 31, 0.25);
    for (int y = 0; y < slope.height(); ++y)
        for (int x = 0; x < slope.width(); ++x)
            slope(x, y) = 0.15 * x + 0.4 * y;
    dsms.push_back(std::move(slope));

    Raster spike(25, 25, 1.0, 2.0);
    spike(12, 12) = 40.0;
    dsms.push_back(std::move(spike));

    return dsms;
}

void expect_bitwise_equal(const HorizonMap& a, const HorizonMap& b,
                          const char* what) {
    ASSERT_EQ(a.sectors(), b.sectors());
    ASSERT_EQ(a.cell_count(), b.cell_count());
    const std::size_t angle_floats =
        static_cast<std::size_t>(a.cell_count()) * a.sectors();
    EXPECT_EQ(std::memcmp(a.angles_data(), b.angles_data(),
                          angle_floats * sizeof(float)),
              0)
        << what << ": angle planes differ";
    EXPECT_EQ(std::memcmp(a.svf_data(), b.svf_data(),
                          static_cast<std::size_t>(a.cell_count()) *
                              sizeof(float)),
              0)
        << what << ": svf planes differ";
}

TEST(HorizonKernels, BatchedMatchesReferenceBitwiseAtEveryLevel) {
    SimdLevelGuard guard;
    const std::vector<Raster> dsms = test_dsms();
    for (const int sectors : {7, 24}) {
        for (std::size_t d = 0; d < dsms.size(); ++d) {
            const Raster& dsm = dsms[d];
            HorizonOptions opt;
            opt.azimuth_sectors = sectors;
            opt.max_distance = 10.0 + 3.0 * static_cast<double>(d);
            // An off-center window exercises the x/y offset paths.
            const int x0 = 2, y0 = 1;
            const int w = dsm.width() - 4, h = dsm.height() - 3;
            const HorizonMap ref =
                horizon_map_reference(dsm, x0, y0, w, h, opt);
            for (const SimdLevel level : runnable_levels()) {
                set_simd_level(level);
                const HorizonMap batched(dsm, x0, y0, w, h, opt);
                expect_bitwise_equal(
                    batched, ref,
                    (std::string("dsm ") + std::to_string(d) + " sectors " +
                     std::to_string(sectors) + " level " +
                     simd_level_name(level))
                        .c_str());
            }
        }
    }
}

TEST(HorizonKernels, SimdTwinsAreCompiledOnX86) {
    // The two intrinsics twins the library keeps: the AVX2 horizon
    // march and the AVX-512 irradiance kernels.
#if defined(__x86_64__) || defined(__amd64__)
    EXPECT_TRUE(detail::horizon_avx2_compiled());
    EXPECT_TRUE(solar::detail::avx512_kernels_compiled());
#else
    GTEST_SKIP() << "non-x86 host: twins delegate to scalar";
#endif
}

TEST(HorizonKernels, DegenerateMaxDistanceYieldsZeroHorizons) {
    // max_distance below one marching step: the march loop never runs,
    // every horizon is 0 and the sky is fully open.
    Raster dsm(12, 12, 1.0);
    dsm(6, 6) = 50.0;
    HorizonOptions opt;
    opt.azimuth_sectors = 8;
    opt.max_distance = 0.5 * dsm.cell_size() * opt.step_factor;
    const HorizonMap map(dsm, 0, 0, 12, 12, opt);
    for (int s = 0; s < opt.azimuth_sectors; ++s)
        for (int wy = 0; wy < 12; ++wy)
            for (int wx = 0; wx < 12; ++wx)
                ASSERT_EQ(map.horizon(wx, wy, s), 0.0);
    EXPECT_DOUBLE_EQ(map.sky_view_factor(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(map.sky_view_factor(7, 7), 1.0);
}

TEST(HorizonKernels, RejectsInvalidObserverAndNonFiniteOptions) {
    Raster dsm(8, 8, 1.0);
    HorizonOptions bad;
    bad.observer_offset = -0.1;
    EXPECT_THROW(HorizonMap(dsm, 0, 0, 4, 4, bad), InvalidArgument);
    EXPECT_THROW(horizon_map_reference(dsm, 0, 0, 4, 4, bad),
                 InvalidArgument);
    for (double* field : {&bad.max_distance, &bad.step_factor,
                          &bad.step_growth, &bad.max_step_factor,
                          &bad.observer_offset}) {
        bad = HorizonOptions{};
        *field = std::nan("");
        EXPECT_THROW(HorizonMap(dsm, 0, 0, 4, 4, bad), InvalidArgument);
    }
    bad = HorizonOptions{};
    bad.max_distance = std::numeric_limits<double>::infinity();
    EXPECT_THROW(HorizonMap(dsm, 0, 0, 4, 4, bad), InvalidArgument);
}

TEST(HorizonKernels, FromPlanesValidatesShapes) {
    EXPECT_THROW(
        HorizonMap::from_planes(0, 0, 2, 2, 4, std::vector<float>(15),
                                std::vector<float>(4)),
        InvalidArgument);
    EXPECT_THROW(
        HorizonMap::from_planes(0, 0, 2, 2, 4, std::vector<float>(16),
                                std::vector<float>(3)),
        InvalidArgument);
    const HorizonMap ok = HorizonMap::from_planes(
        1, 2, 2, 2, 4, std::vector<float>(16, 0.25f),
        std::vector<float>(4, 0.5f));
    EXPECT_EQ(ok.window_x0(), 1);
    EXPECT_EQ(ok.window_y0(), 2);
    EXPECT_DOUBLE_EQ(ok.horizon(1, 1, 3), 0.25f);
    EXPECT_DOUBLE_EQ(ok.sky_view_factor(0, 1), 0.5f);
}

// ---------------------------------------------------------------------
// Shared horizon cache (gis::HorizonCache)
// ---------------------------------------------------------------------

/// A 2x2-tile synthetic terrain written to disk: enough structure that
/// horizons are nonzero across tile seams.
struct TileFixture {
    std::string dir;
    double cell = 0.5;
    int tile_cells = 24;  // 12 m tiles

    explicit TileFixture(const std::string& name) {
        const fs::path p =
            fs::path(::testing::TempDir()) / ("pvfp_" + name);
        fs::remove_all(p);
        fs::create_directories(p);
        dir = p.string();

        SceneBuilder scene(24.0, 24.0);
        scene.add_building({4.0, 5.0, 3.0, 3.0, 6.0});
        scene.add_building({14.0, 13.0, 5.0, 2.0, 9.0});
        scene.add_building({11.0, 3.5, 1.5, 1.5, 12.0});
        const Raster world = scene.rasterize(cell);
        for (int ty = 0; ty < 2; ++ty) {
            for (int tx = 0; tx < 2; ++tx) {
                Raster tile(tile_cells, tile_cells, cell, 0.0,
                            world.origin_x() + tx * tile_cells * cell,
                            world.origin_y() - ty * tile_cells * cell);
                for (int y = 0; y < tile_cells; ++y)
                    for (int x = 0; x < tile_cells; ++x)
                        tile(x, y) = world(tx * tile_cells + x,
                                           ty * tile_cells + y);
                write_asc_grid_file(
                    tile, dir + "/tile_" + std::to_string(ty) +
                              std::to_string(tx) + ".asc");
            }
        }
    }
};

gis::HorizonCacheOptions cache_options(int macro_cells,
                                       std::size_t budget = 256u << 20) {
    gis::HorizonCacheOptions opt;
    opt.horizon.azimuth_sectors = 12;
    opt.horizon.max_distance = 9.0;
    opt.macro_cells = macro_cells;
    opt.byte_budget = budget;
    return opt;
}

/// Rebuild one macro tile exactly as the cache documents: halo mosaic,
/// minimum backfill, HorizonMap over the core window.
HorizonMap fresh_macro_map(const gis::TileIndex& tiles,
                           const gis::HorizonCacheOptions& opt, long mx,
                           long my) {
    const double cs = tiles.cell_size();
    const long M = opt.macro_cells;
    const double ax = tiles.extent().x0, ay = tiles.extent().y1;
    const gis::WorldRect core{ax + mx * M * cs, ay - (my + 1) * M * cs,
                              ax + (mx + 1) * M * cs, ay - my * M * cs};
    Raster mosaic = tiles.read_window(
        core.expanded(opt.horizon.max_distance + 2.0 * cs), nullptr);
    double ground = 0.0;
    bool any = false;
    for (const double v : mosaic.grid().data()) {
        if (v == mosaic.nodata()) continue;
        ground = any ? std::min(ground, v) : v;
        any = true;
    }
    for (int y = 0; y < mosaic.height(); ++y)
        for (int x = 0; x < mosaic.width(); ++x)
            if (mosaic(x, y) == mosaic.nodata()) mosaic(x, y) = ground;
    const int cx0 =
        static_cast<int>(std::llround((core.x0 - mosaic.origin_x()) / cs));
    const int cy0 =
        static_cast<int>(std::llround((mosaic.origin_y() - core.y1) / cs));
    return HorizonMap(mosaic, cx0, cy0, static_cast<int>(M),
                      static_cast<int>(M), opt.horizon);
}

void expect_window_matches_fresh(const gis::TileIndex& tiles,
                                 const gis::HorizonCacheOptions& opt,
                                 const HorizonMap& window, long gx0,
                                 long gy0) {
    const long M = opt.macro_cells;
    std::map<std::pair<long, long>, std::unique_ptr<HorizonMap>> fresh;
    long angle_mismatch = 0, svf_mismatch = 0;
    bool nonzero = false;
    const int w = window.window_width(), h = window.window_height();
    for (int wy = 0; wy < h; ++wy) {
        for (int wx = 0; wx < w; ++wx) {
            const long gx = gx0 + wx, gy = gy0 + wy;
            const long mx = gx / M, my = gy / M;
            auto& fm = fresh[{mx, my}];
            if (!fm)
                fm = std::make_unique<HorizonMap>(
                    fresh_macro_map(tiles, opt, mx, my));
            const int fx = static_cast<int>(gx - mx * M);
            const int fy = static_cast<int>(gy - my * M);
            for (int s = 0; s < window.sectors(); ++s) {
                const float a = window.angles_data()
                    [static_cast<std::size_t>(s) * w * h +
                     static_cast<std::size_t>(wy) * w + wx];
                const float b = fm->angles_data()
                    [static_cast<std::size_t>(s) * M * M +
                     static_cast<std::size_t>(fy) * M + fx];
                if (std::memcmp(&a, &b, sizeof a) != 0) ++angle_mismatch;
                if (a != 0.0f) nonzero = true;
            }
            const float sa =
                window.svf_data()[static_cast<std::size_t>(wy) * w + wx];
            const float sb =
                fm->svf_data()[static_cast<std::size_t>(fy) * M + fx];
            if (std::memcmp(&sa, &sb, sizeof sa) != 0) ++svf_mismatch;
        }
    }
    EXPECT_EQ(angle_mismatch, 0);
    EXPECT_EQ(svf_mismatch, 0);
    EXPECT_TRUE(nonzero) << "window saw no obstruction: vacuous test";
}

TEST(HorizonCache, WindowMatchesFreshMacroMapsBitwise) {
    const TileFixture fx("hcache_identity");
    const gis::TileIndex tiles = gis::TileIndex::scan(fx.dir);
    gis::TileCache tile_cache(8);
    const gis::HorizonCacheOptions opt = cache_options(/*macro_cells=*/20);
    gis::HorizonCache cache(tiles, &tile_cache, opt);

    const double cs = tiles.cell_size();
    const double ax = tiles.extent().x0, ay = tiles.extent().y1;
    // Crosses all four macro tiles of the 48-cell lattice.
    const long gx0 = 9, gy0 = 13;
    const int w = 30, h = 25;
    const HorizonMap window =
        cache.window(ax + gx0 * cs, ay - gy0 * cs, 3, 4, w, h);
    EXPECT_EQ(window.window_x0(), 3);
    EXPECT_EQ(window.window_y0(), 4);
    expect_window_matches_fresh(tiles, opt, window, gx0, gy0);

    // Second request: served resident, byte-identical.
    const HorizonMap again =
        cache.window(ax + gx0 * cs, ay - gy0 * cs, 3, 4, w, h);
    expect_bitwise_equal(window, again, "resident re-request");
    const gis::HorizonCacheStats stats = cache.stats();
    EXPECT_GT(stats.hits, 0u);
    EXPECT_GT(stats.misses, 0u);
    EXPECT_GT(stats.bytes, 0u);

    // Off-lattice origins are rejected.
    EXPECT_THROW(cache.window(ax + 0.3 * cs, ay, 0, 0, 4, 4),
                 InvalidArgument);
}

TEST(HorizonCache, EvictedEntriesRebuildIdentically) {
    const TileFixture fx("hcache_evict");
    const gis::TileIndex tiles = gis::TileIndex::scan(fx.dir);
    gis::TileCache tile_cache(8);
    // Budget of one macro entry: planes = (sectors + 1) * M^2 floats.
    const gis::HorizonCacheOptions opt =
        cache_options(/*macro_cells=*/16, /*budget=*/13 * 16 * 16 * 4);
    gis::HorizonCache cache(tiles, &tile_cache, opt);

    const double cs = tiles.cell_size();
    const double ax = tiles.extent().x0, ay = tiles.extent().y1;
    const auto window_at = [&](long gx0, long gy0) {
        return cache.window(ax + gx0 * cs, ay - gy0 * cs, 0, 0, 12, 12);
    };
    const HorizonMap first = window_at(2, 2);
    window_at(20, 20);  // different macro tiles: evicts the first
    EXPECT_GT(cache.stats().evictions, 0u);
    const HorizonMap rebuilt = window_at(2, 2);
    expect_bitwise_equal(first, rebuilt, "post-eviction rebuild");
    EXPECT_LE(cache.bytes_used(), opt.byte_budget);

    cache.shrink_to(0);
    EXPECT_EQ(cache.bytes_used(), 0u);
    const HorizonMap again = window_at(2, 2);
    expect_bitwise_equal(first, again, "post-shrink rebuild");
}

TEST(HorizonCache, ConcurrentRequestsDedupAndAgree) {
    const TileFixture fx("hcache_mt");
    const gis::TileIndex tiles = gis::TileIndex::scan(fx.dir);
    gis::TileCache tile_cache(8);
    gis::HorizonCache cache(tiles, &tile_cache,
                            cache_options(/*macro_cells=*/20));

    const double cs = tiles.cell_size();
    const double ax = tiles.extent().x0, ay = tiles.extent().y1;
    constexpr int kThreads = 8;
    std::vector<std::unique_ptr<HorizonMap>> maps(kThreads);
    std::atomic<int> failures{0};
    {
        std::vector<std::thread> threads;
        threads.reserve(kThreads);
        for (int i = 0; i < kThreads; ++i) {
            threads.emplace_back([&, i] {
                try {
                    // All threads hit the same macro tiles; half through
                    // one window, half through a shifted one.
                    const long gx0 = (i % 2) ? 8 : 12;
                    maps[static_cast<std::size_t>(i)] =
                        std::make_unique<HorizonMap>(cache.window(
                            ax + gx0 * cs, ay - 10 * cs, 0, 0, 16, 16));
                } catch (...) {
                    failures.fetch_add(1);
                }
            });
        }
        for (std::thread& t : threads) t.join();
    }
    ASSERT_EQ(failures.load(), 0);
    for (int i = 2; i < kThreads; i += 2)
        expect_bitwise_equal(*maps[0], *maps[static_cast<std::size_t>(i)],
                             "concurrent same-window");
    for (int i = 3; i < kThreads; i += 2)
        expect_bitwise_equal(*maps[1], *maps[static_cast<std::size_t>(i)],
                             "concurrent shifted-window");
    const gis::HorizonCacheStats stats = cache.stats();
    // Both windows span the same 2x2 block of macro tiles; each macro
    // tile is built exactly once across all 8 threads — everything else
    // is served resident or joins the in-flight build.
    EXPECT_LE(stats.misses, 4u);
    EXPECT_GT(stats.hits + stats.joins, 0u);
}

}  // namespace
}  // namespace pvfp::geo
