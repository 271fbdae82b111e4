/// \file test_tile_index.cpp
/// Tile discovery + windowed mosaic reads: lattice checks, boundary
/// crossings, NODATA handling, overlap determinism, and the LRU cache.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "pvfp/geo/asc_grid.hpp"
#include "pvfp/gis/tile_index.hpp"
#include "pvfp/util/error.hpp"

namespace pvfp::gis {
namespace {

namespace fs = std::filesystem;

/// Fresh empty directory under the test temp root.
std::string temp_dir(const std::string& name) {
    const fs::path dir = fs::path(::testing::TempDir()) / ("pvfp_" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

/// A 2x2 tile set (each tile 4x3 cells at 0.5 m) holding v = 100*tx +
/// 10*ty + local row-major cell index, rooted at (10, 20).
struct QuadTiles {
    std::string dir;
    static constexpr double cs = 0.5;
    static constexpr int w = 4;
    static constexpr int h = 3;

    explicit QuadTiles(const std::string& name) : dir(temp_dir(name)) {
        for (int ty = 0; ty < 2; ++ty) {
            for (int tx = 0; tx < 2; ++tx) {
                // ty = 0 is the NORTH row of tiles.
                geo::Raster tile(w, h, cs, 0.0, 10.0 + tx * w * cs,
                                 20.0 + (2 - ty) * h * cs);
                for (int y = 0; y < h; ++y)
                    for (int x = 0; x < w; ++x)
                        tile(x, y) = 100.0 * tx + 10.0 * ty + y * w + x;
                geo::write_asc_grid_file(
                    tile, dir + "/t" + std::to_string(ty) +
                              std::to_string(tx) + ".asc");
            }
        }
    }
};

TEST(TileIndex, ScansHeadersAndExtent) {
    const QuadTiles tiles("scan");
    const TileIndex index = TileIndex::scan(tiles.dir);
    EXPECT_EQ(index.tile_count(), 4);
    EXPECT_DOUBLE_EQ(index.cell_size(), 0.5);
    EXPECT_DOUBLE_EQ(index.extent().x0, 10.0);
    EXPECT_DOUBLE_EQ(index.extent().y0, 20.0);
    EXPECT_DOUBLE_EQ(index.extent().x1, 14.0);
    EXPECT_DOUBLE_EQ(index.extent().y1, 23.0);
    // Sorted by filename.
    EXPECT_NE(index.tiles()[0].path.find("t00"), std::string::npos);
    EXPECT_NE(index.tiles()[3].path.find("t11"), std::string::npos);
}

TEST(TileIndex, WindowCrossingAllFourTiles) {
    const QuadTiles tiles("cross");
    const TileIndex index = TileIndex::scan(tiles.dir);
    // Center window straddling both tile rows and columns.
    const geo::Raster window =
        index.read_window({11.0, 20.5, 13.0, 22.0});
    EXPECT_EQ(window.width(), 4);
    EXPECT_EQ(window.height(), 3);
    EXPECT_DOUBLE_EQ(window.origin_x(), 11.0);
    EXPECT_DOUBLE_EQ(window.origin_y(), 22.0);
    // Every cell must equal a direct full-mosaic read of the same spot.
    const geo::Raster full = index.read_window(index.extent());
    for (int y = 0; y < window.height(); ++y) {
        for (int x = 0; x < window.width(); ++x) {
            const int fx = full.col_of(window.world_x(x));
            const int fy = full.row_of(window.world_y(y));
            EXPECT_DOUBLE_EQ(window(x, y), full(fx, fy));
        }
    }
    // No NODATA inside the covered area.
    for (int y = 0; y < window.height(); ++y)
        for (int x = 0; x < window.width(); ++x)
            EXPECT_NE(window(x, y), window.nodata());
}

TEST(TileIndex, FullMosaicReconstructsTiles) {
    const QuadTiles tiles("full");
    const TileIndex index = TileIndex::scan(tiles.dir);
    const geo::Raster full = index.read_window(index.extent());
    EXPECT_EQ(full.width(), 8);
    EXPECT_EQ(full.height(), 6);
    // NW corner cell comes from tile (tx=0, ty=0), local (0,0) -> 0.
    EXPECT_DOUBLE_EQ(full(0, 0), 0.0);
    // NE corner cell: tile tx=1 ty=0, local (3,0) -> 103.
    EXPECT_DOUBLE_EQ(full(7, 0), 103.0);
    // SW corner cell: tile tx=0 ty=1, local (0,2) -> 10 + 8 = 18.
    EXPECT_DOUBLE_EQ(full(0, 5), 18.0);
}

TEST(TileIndex, UncoveredCellsAreNoData) {
    const QuadTiles tiles("uncovered");
    const TileIndex index = TileIndex::scan(tiles.dir);
    // Window poking 1 m west and 0.5 m north past the tile set.
    const geo::Raster window =
        index.read_window({9.0, 22.0, 11.0, 23.5});
    EXPECT_EQ(window.width(), 4);
    EXPECT_EQ(window.height(), 3);
    for (int y = 0; y < window.height(); ++y)
        for (int x = 0; x < window.width(); ++x) {
            const bool covered = window.world_x(x) > 10.0 &&
                                 window.world_y(y) < 23.0;
            EXPECT_EQ(window(x, y) == window.nodata(), !covered)
                << "cell " << x << "," << y;
        }
}

TEST(TileIndex, SourceNoDataPropagates) {
    const std::string dir = temp_dir("srcnodata");
    geo::Raster tile(3, 3, 1.0, 7.0, 0.0, 3.0);
    tile.set_nodata(-1.0);
    tile(1, 1) = -1.0;
    geo::write_asc_grid_file(tile, dir + "/a.asc");
    const TileIndex index = TileIndex::scan(dir);
    const geo::Raster window = index.read_window(index.extent());
    EXPECT_DOUBLE_EQ(window(0, 0), 7.0);
    // The source gap maps to the mosaic's own NODATA convention.
    EXPECT_DOUBLE_EQ(window(1, 1), window.nodata());
}

TEST(TileIndex, OverlapFirstTileInSortedOrderWins) {
    const std::string dir = temp_dir("overlap");
    geo::Raster a(2, 2, 1.0, 1.0, 0.0, 2.0);
    geo::Raster b(2, 2, 1.0, 2.0, 1.0, 2.0);  // shifted east by 1 cell
    geo::write_asc_grid_file(a, dir + "/a.asc");
    geo::write_asc_grid_file(b, dir + "/b.asc");
    const TileIndex index = TileIndex::scan(dir);
    const geo::Raster full = index.read_window(index.extent());
    EXPECT_EQ(full.width(), 3);
    // Overlap column (world x in [1,2)) belongs to 'a' (sorted first).
    EXPECT_DOUBLE_EQ(full(1, 0), 1.0);
    EXPECT_DOUBLE_EQ(full(2, 0), 2.0);
}

TEST(TileIndex, RejectsBadTileSets) {
    // Cell-size mismatch.
    {
        const std::string dir = temp_dir("badcell");
        geo::write_asc_grid_file(geo::Raster(2, 2, 1.0, 0.0, 0.0, 2.0),
                                 dir + "/a.asc");
        geo::write_asc_grid_file(geo::Raster(2, 2, 0.5, 0.0, 2.0, 1.0),
                                 dir + "/b.asc");
        EXPECT_THROW(TileIndex::scan(dir), IoError);
    }
    // Off-lattice tile.
    {
        const std::string dir = temp_dir("badlattice");
        geo::write_asc_grid_file(geo::Raster(2, 2, 1.0, 0.0, 0.0, 2.0),
                                 dir + "/a.asc");
        geo::write_asc_grid_file(geo::Raster(2, 2, 1.0, 0.0, 2.25, 2.0),
                                 dir + "/b.asc");
        EXPECT_THROW(TileIndex::scan(dir), IoError);
    }
    // Empty directory / missing directory.
    EXPECT_THROW(TileIndex::scan(temp_dir("empty")), IoError);
    EXPECT_THROW(TileIndex::scan("/nonexistent/pvfp"), IoError);
}

TEST(TileIndex, CacheBoundsResidencyAndCountsHits) {
    const QuadTiles tiles("cache");
    const TileIndex index = TileIndex::scan(tiles.dir);
    TileCache cache(2);
    // Full mosaic touches all 4 tiles: 4 misses into a 2-slot cache.
    (void)index.read_window(index.extent(), &cache);
    EXPECT_EQ(cache.misses(), 4u);
    EXPECT_EQ(cache.hits(), 0u);
    // A window inside the most recently used tile hits.
    (void)index.read_window({12.5, 20.2, 13.5, 21.0}, &cache);
    EXPECT_GE(cache.hits(), 1u);
    // Cached reads equal uncached reads.
    const geo::Raster cached =
        index.read_window({10.5, 20.5, 13.5, 22.5}, &cache);
    const geo::Raster direct = index.read_window({10.5, 20.5, 13.5, 22.5});
    EXPECT_EQ(cached, direct);
}

TEST(TileIndex, WindowValidation) {
    const QuadTiles tiles("validate");
    const TileIndex index = TileIndex::scan(tiles.dir);
    EXPECT_THROW(index.read_window({5.0, 5.0, 5.0, 6.0}), InvalidArgument);
    EXPECT_THROW(index.read_window({5.0, 5.0, 4.0, 6.0}), InvalidArgument);
}

// ---- Per-key in-flight decode (the PR-6 bugfix) -----------------------
//
// These suites inject an instrumented loader: each decode parks on a
// per-path latch the test releases, so the test can prove which decodes
// run concurrently and which threads joined an in-flight build.

/// Loader whose decodes block until released, counting calls per path.
struct GatedLoader {
    std::mutex mutex;
    std::condition_variable cv;
    std::map<std::string, int> calls;       ///< decodes started, per path
    std::set<std::string> released;         ///< paths allowed to finish
    bool fail = false;                      ///< throw instead of decode

    TileCache::Loader loader() {
        return [this](const std::string& path) {
            std::unique_lock<std::mutex> lock(mutex);
            ++calls[path];
            cv.notify_all();
            const bool ok = cv.wait_for(
                lock, std::chrono::seconds(20),
                [&] { return released.count(path) != 0; });
            if (!ok) throw IoError("GatedLoader: timed out on " + path);
            if (fail) throw IoError("GatedLoader: injected failure");
            return geo::Raster(2, 2, 1.0, 0.0, 0.0, 2.0);
        };
    }

    /// Block (bounded) until \p n decodes of \p path have *started*.
    bool await_started(const std::string& path, int n) {
        std::unique_lock<std::mutex> lock(mutex);
        return cv.wait_for(lock, std::chrono::seconds(20),
                           [&] { return calls[path] >= n; });
    }

    void release(const std::string& path) {
        std::lock_guard<std::mutex> lock(mutex);
        released.insert(path);
        cv.notify_all();
    }
};

TEST(TileCache, ConcurrentMissesOnDifferentTilesOverlap) {
    // The regression this PR fixes: with the decode serialized under the
    // cache-wide mutex (or waiters parked on it), two misses on
    // *different* tiles could never be in flight together.  Here both
    // decodes must start while neither has been allowed to finish —
    // under the old locking this deadlocks the second start, and the
    // bounded waits turn that into a failure instead of a hang.
    GatedLoader gate;
    TileCache cache(4, gate.loader());
    std::thread a([&] { (void)cache.load("tile_a"); });
    std::thread b([&] { (void)cache.load("tile_b"); });
    EXPECT_TRUE(gate.await_started("tile_a", 1));
    EXPECT_TRUE(gate.await_started("tile_b", 1));  // overlap proven
    gate.release("tile_a");
    gate.release("tile_b");
    a.join();
    b.join();
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(cache.hits(), 0u);
}

TEST(TileCache, ConcurrentMissesOnSameTileDecodeOnce) {
    GatedLoader gate;
    TileCache cache(4, gate.loader());
    std::vector<std::thread> threads;
    std::vector<std::shared_ptr<const geo::Raster>> got(4);
    for (int t = 0; t < 4; ++t)
        threads.emplace_back([&, t] { got[t] = cache.load("tile_x"); });
    ASSERT_TRUE(gate.await_started("tile_x", 1));
    gate.release("tile_x");
    for (std::thread& t : threads) t.join();
    {
        std::lock_guard<std::mutex> lock(gate.mutex);
        EXPECT_EQ(gate.calls["tile_x"], 1) << "duplicate decode";
    }
    EXPECT_EQ(cache.misses(), 1u);  // one decode initiated...
    EXPECT_EQ(cache.hits(), 3u);    // ...three joins served without one
    for (int t = 1; t < 4; ++t) EXPECT_EQ(got[t], got[0]);  // shared
}

TEST(TileCache, LoaderErrorPropagatesToAllWaitersAndIsRetryable) {
    GatedLoader gate;
    gate.fail = true;
    TileCache cache(4, gate.loader());
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 3; ++t)
        threads.emplace_back([&] {
            try {
                (void)cache.load("tile_bad");
            } catch (const IoError&) {
                failures.fetch_add(1);
            }
        });
    ASSERT_TRUE(gate.await_started("tile_bad", 1));
    // Fail the decode only once both other threads have joined it (joins
    // count as hits); a thread arriving after the failure would start a
    // decode of its own.
    for (int spin = 0; cache.hits() < 2 && spin < 20000; ++spin)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    gate.release("tile_bad");
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(failures.load(), 3);  // owner and every joiner throw

    // Nothing was cached, so the next load retries the decode — and a
    // now-healthy loader succeeds.
    gate.fail = false;
    EXPECT_NE(cache.load("tile_bad"), nullptr);
    {
        std::lock_guard<std::mutex> lock(gate.mutex);
        EXPECT_EQ(gate.calls["tile_bad"], 2);
    }
}

}  // namespace
}  // namespace pvfp::gis
