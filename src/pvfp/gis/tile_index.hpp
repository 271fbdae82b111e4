#pragma once
/// \file tile_index.hpp
/// Tiled DSM discovery and windowed mosaic reads (city-scale GIS input).
///
/// Real LiDAR campaigns publish DSMs as directories of fixed-size .asc
/// tiles on a common grid (e.g. 1 km x 1 km at 0.5 m).  A TileIndex
/// scans such a directory once — header-only reads, no data loaded —
/// and resolves the world-coordinate extent of every tile; read_window
/// then crops/mosaics an arbitrary world rectangle across tile
/// boundaries into one Raster, marking uncovered cells NODATA.  The
/// per-roof windows of a batch run overlap heavily within a tile, so an
/// optional bounded TileCache keeps recently used tiles decoded
/// (thread-safe LRU — shards of the city runner share one).
///
/// Conventions match geo::Raster: x/easting grows east, y/northing grows
/// north, tile placement comes straight from the .asc lower-left-corner
/// headers.  All tiles must share one cell size and sit on one common
/// cell lattice (checked at scan time) — resampling is out of scope.

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "pvfp/geo/asc_grid.hpp"
#include "pvfp/geo/raster.hpp"
#include "pvfp/util/keyed_cache.hpp"

namespace pvfp::gis {

/// Axis-aligned world rectangle: x east, y north, max edges exclusive
/// for cell-membership purposes.
struct WorldRect {
    double x0 = 0.0;  ///< west edge [m]
    double y0 = 0.0;  ///< south edge [m]
    double x1 = 0.0;  ///< east edge [m]
    double y1 = 0.0;  ///< north edge [m]

    double width() const { return x1 - x0; }
    double height() const { return y1 - y0; }
    bool empty() const { return x1 <= x0 || y1 <= y0; }

    bool intersects(const WorldRect& o) const {
        return x0 < o.x1 && o.x0 < x1 && y0 < o.y1 && o.y0 < y1;
    }
    /// Grow outward by \p margin meters on every side.
    WorldRect expanded(double margin) const {
        return {x0 - margin, y0 - margin, x1 + margin, y1 + margin};
    }
    /// True when world point (wx, wy) falls inside (max edges excluded).
    bool contains(double wx, double wy) const {
        return wx >= x0 && wx < x1 && wy >= y0 && wy < y1;
    }
};

/// One discovered tile: its path and parsed header (no data resident).
struct TileInfo {
    std::string path;
    geo::AscHeader header;

    WorldRect extent() const {
        return {header.xllcorner, header.yllcorner, header.x_max(),
                header.y_max()};
    }
};

/// Thread-safe bounded LRU cache of decoded tiles, keyed by path.
/// Shared by the city runner's concurrent roof windows so a tile
/// crossed by many roofs is parsed once, while total resident tiles
/// stay bounded (load -> mosaic -> evict keeps city-scale memory flat).
/// A KeyedCache underneath: a miss decodes with no cache lock held,
/// concurrent requesters of the same tile share that one decode, and a
/// failed decode reaches every waiter and caches nothing (retryable).
class TileCache {
public:
    /// Decodes one tile file; injectable so tests can instrument
    /// concurrency (latches, counters) without real files.
    using Loader = std::function<geo::Raster(const std::string&)>;

    /// \p capacity: maximum resident tiles (>= 1).  \p loader defaults
    /// to geo::read_asc_grid_file.
    explicit TileCache(std::size_t capacity = 16, Loader loader = {});

    /// Return the decoded tile, loading it on a miss (which may evict
    /// the least recently used entry).  The returned shared_ptr stays
    /// valid after eviction.
    std::shared_ptr<const geo::Raster> load(const std::string& path);

    /// \p hits counts loads served without initiating a decode (resident
    /// entries and joins on an in-flight decode); \p misses counts
    /// decodes initiated.
    std::size_t hits() const;
    std::size_t misses() const;
    /// Heap bytes of every resident (cached) tile's cell grid.
    std::size_t bytes() const;

private:
    Loader loader_;
    KeyedCache<std::string, geo::Raster> tiles_;  ///< one tile costs 1
};

/// The discovered tile set of one DSM directory.
class TileIndex {
public:
    /// Scan \p directory for *.asc tiles (case-insensitive extension,
    /// sorted by filename so every downstream decision is
    /// order-deterministic), reading only headers.  Throws IoError when
    /// the directory cannot be read, contains no tiles, or the tiles
    /// disagree on cell size / lattice alignment.
    static TileIndex scan(const std::string& directory);

    int tile_count() const { return static_cast<int>(tiles_.size()); }
    const std::vector<TileInfo>& tiles() const { return tiles_; }
    double cell_size() const { return cell_size_; }
    /// Union bounding box of all tile extents.
    const WorldRect& extent() const { return extent_; }

    /// Read the smallest lattice-aligned raster covering \p rect,
    /// mosaicking across every intersecting tile.  A cell takes its
    /// value from the first tile in filename order holding *data*
    /// there; NODATA contributors are passed over, so overlapping tiles
    /// fill each other's gaps, and only cells no tile covers with data
    /// hold geo::kDefaultNoData.  \p cache, when non-null, serves the
    /// tile loads.
    geo::Raster read_window(const WorldRect& rect,
                            TileCache* cache = nullptr) const;

private:
    std::vector<TileInfo> tiles_;
    double cell_size_ = 0.0;
    /// Lattice reference point (lower-left corner of the first tile);
    /// every tile's corner offsets from here are whole cell multiples.
    double ref_x_ = 0.0;
    double ref_y_ = 0.0;
    WorldRect extent_{};
};

}  // namespace pvfp::gis
