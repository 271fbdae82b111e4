#pragma once
/// \file horizon_cache.hpp
/// Shared horizon macro-tile cache: compute horizon sector planes once
/// per terrain region, serve every roof whose context window overlaps it.
///
/// City runs recompute per-roof HorizonMaps from scratch even where
/// adjacent roofs' context windows cover the same terrain (the TileCache
/// already shares the raster *reads*; the marching — the dominant
/// prepare-time cost — was still per roof).  The HorizonCache partitions
/// the tile set's cell lattice into square *macro tiles* of
/// macro_cells x macro_cells cells and, on first demand, marches a whole
/// macro tile over a mosaic expanded by a halo of
/// max_distance + 2 cells, so no core cell's rays ever reach the mosaic
/// edge — the **halo contract**: a core cell's horizon is independent of
/// the mosaic extent, hence of which roof (or thread) triggered the
/// build.  A roof's HorizonMap then becomes a window view assembled from
/// the cached sector planes (HorizonMap::from_planes).
///
/// Determinism/bitwise contract:
///  * every cached plane is produced by the ordinary HorizonMap build
///    over the macro mosaic, so a window served from the cache is
///    bitwise-identical to a fresh HorizonMap built over the same mosaic
///    with the same effective parameters (pinned by
///    tests/geo/test_horizon_kernels);
///  * entry values are a pure function of (macro index, tile content,
///    HorizonOptions) — eviction, rebuild order, and thread count can
///    never change a byte of any served window.
///
/// Entries are keyed on the macro index plus a content fingerprint of
/// the contributing tiles (FNV-1a over each intersecting tile's decoded
/// heights, memoized per path) and the effective HorizonOptions + march
/// distance, so a changed tile self-invalidates.  Residency is a
/// KeyedCache versioned by that content key: concurrent requesters of
/// one macro tile march it once and share the planes, and LRU eviction
/// runs under a byte budget.
///
/// NODATA cells of a macro mosaic are backfilled with the mosaic's
/// minimum data height (the make_scenario convention; 0 when the mosaic
/// holds no data at all) before marching — per macro tile, hence still
/// content-pure.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "pvfp/geo/horizon.hpp"
#include "pvfp/gis/tile_index.hpp"
#include "pvfp/util/keyed_cache.hpp"

namespace pvfp::gis {

struct HorizonCacheOptions {
    /// Effective horizon parameters of the run (uniform max_distance —
    /// run_city's shared mode replaces the per-roof cap with this).
    geo::HorizonOptions horizon{};
    /// Macro tile edge length [cells].  Larger tiles amortize the halo
    /// marching over more roofs; smaller tiles keep residency granular.
    int macro_cells = 192;
    /// LRU byte budget over the resident sector planes.
    std::size_t byte_budget = 256ull << 20;
};

struct HorizonCacheStats {
    std::size_t hits = 0;        ///< macro lookups served resident
    std::size_t misses = 0;      ///< macro builds initiated
    std::size_t joins = 0;       ///< waits on another thread's build
    std::size_t evictions = 0;   ///< entries dropped for the budget
    std::size_t bytes = 0;       ///< resident plane bytes
};

/// Thread-safe shared horizon plane cache over one TileIndex.
class HorizonCache {
public:
    /// \p tile_cache serves the mosaic reads (may be null: uncached).
    /// The referenced index/cache must outlive the HorizonCache.
    HorizonCache(const TileIndex& tiles, TileCache* tile_cache,
                 const HorizonCacheOptions& options);

    /// Assemble the HorizonMap of the window whose north-west corner
    /// sits at world (\p origin_x, \p origin_y) and spans \p w x \p h
    /// lattice cells.  (\p x0, \p y0) become the returned map's window
    /// origin (the caller's placement-area coordinates).  The corner
    /// must sit on the tile lattice (checked).
    geo::HorizonMap window(double origin_x, double origin_y, int x0, int y0,
                           int w, int h);

    const HorizonCacheOptions& options() const { return options_; }
    HorizonCacheStats stats() const;
    std::size_t bytes_used() const;

    /// Drop least-recently-used entries until resident bytes <= \p limit
    /// (serve budget integration).  Never interrupts an in-flight build.
    void shrink_to(std::size_t limit);

    /// Drop every resident entry and content memo (serve reload).
    void clear();

private:
    struct Planes {
        int w = 0;
        int h = 0;
        int sectors = 0;
        std::vector<float> angles;  ///< sector-major over the core cells
        std::vector<float> svf;
        std::size_t bytes() const {
            return (angles.size() + svf.size()) * sizeof(float);
        }
    };
    using MacroKey = std::pair<long, long>;

    std::shared_ptr<const Planes> build_macro(long mx, long my) const;
    std::uint64_t content_key(long mx, long my);
    std::uint64_t tile_content_hash(const TileInfo& tile);
    WorldRect macro_core_rect(long mx, long my) const;

    const TileIndex& tiles_;
    TileCache* tile_cache_;
    HorizonCacheOptions options_;
    double halo_m_ = 0.0;
    std::uint64_t options_key_ = 0;

    /// Macro planes, versioned by content_key, priced in bytes.
    KeyedCache<MacroKey, Planes> planes_;
    /// Content hash per tile path (unbounded memo).
    KeyedCache<std::string, std::uint64_t> tile_hashes_;
};

}  // namespace pvfp::gis
