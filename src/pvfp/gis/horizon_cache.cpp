#include "pvfp/gis/horizon_cache.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <utility>

#include "pvfp/util/error.hpp"

namespace pvfp::gis {
namespace {

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xffu;
        h *= kFnvPrime;
    }
    return h;
}

std::uint64_t fnv1a(std::uint64_t h, double v) {
    return fnv1a(h, std::bit_cast<std::uint64_t>(v));
}

/// Division rounding toward negative infinity (macro indices of windows
/// west/north of the tile extent are negative).
long floor_div(long a, long b) {
    const long q = a / b;
    const long r = a % b;
    return (r != 0 && ((r < 0) != (b < 0))) ? q - 1 : q;
}

}  // namespace

HorizonCache::HorizonCache(const TileIndex& tiles, TileCache* tile_cache,
                           const HorizonCacheOptions& options)
    : tiles_(tiles),
      tile_cache_(tile_cache),
      options_(options),
      planes_(options.byte_budget, [](const Planes& p) { return p.bytes(); }) {
    check_arg(options_.macro_cells > 0,
              "HorizonCache: macro_cells must be positive");
    check_arg(std::isfinite(options_.horizon.max_distance) &&
                  options_.horizon.max_distance > 0.0,
              "HorizonCache: invalid max_distance");
    // Bilinear sampling at exactly max_distance touches one cell beyond
    // the sample point; one more cell absorbs the outward lattice snap.
    halo_m_ = options_.horizon.max_distance + 2.0 * tiles_.cell_size();

    std::uint64_t k = kFnvOffset;
    k = fnv1a(k, static_cast<std::uint64_t>(options_.horizon.azimuth_sectors));
    k = fnv1a(k, options_.horizon.max_distance);
    k = fnv1a(k, options_.horizon.step_factor);
    k = fnv1a(k, options_.horizon.step_growth);
    k = fnv1a(k, options_.horizon.max_step_factor);
    k = fnv1a(k, options_.horizon.observer_offset);
    k = fnv1a(k, static_cast<std::uint64_t>(options_.macro_cells));
    k = fnv1a(k, tiles_.cell_size());
    options_key_ = k;
}

WorldRect HorizonCache::macro_core_rect(long mx, long my) const {
    const double cs = tiles_.cell_size();
    const double side = options_.macro_cells * cs;
    const double ax = tiles_.extent().x0;  // lattice-aligned NW anchor
    const double ay = tiles_.extent().y1;
    return {ax + mx * side, ay - (my + 1) * side, ax + (mx + 1) * side,
            ay - my * side};
}

std::uint64_t HorizonCache::tile_content_hash(const TileInfo& tile) {
    return *tile_hashes_.get(tile.path, 0, [&] {
        std::shared_ptr<const geo::Raster> loaded;
        geo::Raster direct;
        const geo::Raster* src = nullptr;
        if (tile_cache_) {
            loaded = tile_cache_->load(tile.path);
            src = loaded.get();
        } else {
            direct = geo::read_asc_grid_file(tile.path);
            src = &direct;
        }
        std::uint64_t h = kFnvOffset;
        h = fnv1a(h, static_cast<std::uint64_t>(src->width()));
        h = fnv1a(h, static_cast<std::uint64_t>(src->height()));
        h = fnv1a(h, src->origin_x());
        h = fnv1a(h, src->origin_y());
        h = fnv1a(h, src->nodata());
        for (const double v : src->grid().data()) h = fnv1a(h, v);
        return std::make_shared<const std::uint64_t>(h);
    });
}

std::uint64_t HorizonCache::content_key(long mx, long my) {
    // Every tile whose data can influence a core cell intersects the
    // halo rectangle.  tiles() is filename-sorted, so the combination
    // order — like read_window's first-wins mosaicking — is stable.
    const WorldRect halo = macro_core_rect(mx, my).expanded(halo_m_);
    std::uint64_t key = options_key_;
    for (const TileInfo& tile : tiles_.tiles()) {
        if (!tile.extent().intersects(halo)) continue;
        key = fnv1a(key, tile_content_hash(tile));
    }
    return key;
}

std::shared_ptr<const HorizonCache::Planes> HorizonCache::build_macro(
    long mx, long my) const {
    const double cs = tiles_.cell_size();
    const WorldRect core = macro_core_rect(mx, my);
    geo::Raster mosaic =
        tiles_.read_window(core.expanded(halo_m_), tile_cache_);

    // Backfill NODATA with the mosaic's minimum data height (the
    // make_scenario convention: gaps become low flat ground that never
    // shades).  Per macro tile, so still a pure function of the key.
    double ground = 0.0;
    bool any_data = false;
    for (const double v : mosaic.grid().data()) {
        if (v == mosaic.nodata()) continue;
        ground = any_data ? std::min(ground, v) : v;
        any_data = true;
    }
    for (int y = 0; y < mosaic.height(); ++y)
        for (int x = 0; x < mosaic.width(); ++x)
            if (mosaic(x, y) == mosaic.nodata()) mosaic(x, y) = ground;

    const int M = options_.macro_cells;
    const int cx0 =
        static_cast<int>(std::llround((core.x0 - mosaic.origin_x()) / cs));
    const int cy0 =
        static_cast<int>(std::llround((mosaic.origin_y() - core.y1) / cs));
    const geo::HorizonMap map(mosaic, cx0, cy0, M, M, options_.horizon);

    auto planes = std::make_shared<Planes>();
    planes->w = M;
    planes->h = M;
    planes->sectors = map.sectors();
    const std::size_t ncells = static_cast<std::size_t>(M) * M;
    planes->angles.assign(map.angles_data(),
                          map.angles_data() + ncells * map.sectors());
    planes->svf.assign(map.svf_data(), map.svf_data() + ncells);
    return planes;
}

geo::HorizonMap HorizonCache::window(double origin_x, double origin_y,
                                     int x0, int y0, int w, int h) {
    check_arg(w > 0 && h > 0, "HorizonCache::window: empty window");
    const double cs = tiles_.cell_size();
    const double ax = tiles_.extent().x0;
    const double ay = tiles_.extent().y1;
    const double fx = (origin_x - ax) / cs;
    const double fy = (ay - origin_y) / cs;
    const long gx0 = std::llround(fx);
    const long gy0 = std::llround(fy);
    check_arg(std::abs(fx - static_cast<double>(gx0)) <= 1e-6 &&
                  std::abs(fy - static_cast<double>(gy0)) <= 1e-6,
              "HorizonCache::window: origin off the tile lattice");

    const long M = options_.macro_cells;
    const int sectors = options_.horizon.azimuth_sectors;
    const std::size_t ncells = static_cast<std::size_t>(w) * h;
    std::vector<float> angles(ncells * static_cast<std::size_t>(sectors));
    std::vector<float> svf(ncells);

    const long mx0 = floor_div(gx0, M);
    const long mx1 = floor_div(gx0 + w - 1, M);
    const long my0 = floor_div(gy0, M);
    const long my1 = floor_div(gy0 + h - 1, M);
    for (long my = my0; my <= my1; ++my) {
        for (long mx = mx0; mx <= mx1; ++mx) {
            const std::shared_ptr<const Planes> sp = planes_.get(
                {mx, my}, content_key(mx, my), [&] { return build_macro(mx, my); });
            const long gxa = std::max(gx0, mx * M);
            const long gxb = std::min(gx0 + w, (mx + 1) * M);
            const long gya = std::max(gy0, my * M);
            const long gyb = std::min(gy0 + h, (my + 1) * M);
            const std::size_t run = static_cast<std::size_t>(gxb - gxa);
            const std::size_t src_cells =
                static_cast<std::size_t>(sp->w) * sp->h;
            for (int s = 0; s < sectors; ++s) {
                const float* splane = sp->angles.data() + s * src_cells;
                float* dplane = angles.data() + s * ncells;
                for (long gy = gya; gy < gyb; ++gy) {
                    const float* srow =
                        splane + (gy - my * M) * sp->w + (gxa - mx * M);
                    float* drow = dplane + (gy - gy0) * w + (gxa - gx0);
                    std::memcpy(drow, srow, run * sizeof(float));
                }
            }
            for (long gy = gya; gy < gyb; ++gy) {
                const float* srow = sp->svf.data() + (gy - my * M) * sp->w +
                                    (gxa - mx * M);
                float* drow = svf.data() + (gy - gy0) * w + (gxa - gx0);
                std::memcpy(drow, srow, run * sizeof(float));
            }
        }
    }
    return geo::HorizonMap::from_planes(x0, y0, w, h, sectors,
                                        std::move(angles), std::move(svf));
}

HorizonCacheStats HorizonCache::stats() const {
    const KeyedCacheStats s = planes_.stats();
    return {.hits = s.hits,
            .misses = s.misses,
            .joins = s.joins,
            .evictions = s.evictions,
            .bytes = s.cost};
}

std::size_t HorizonCache::bytes_used() const { return planes_.cost(); }

void HorizonCache::shrink_to(std::size_t limit) { planes_.shrink_to(limit); }

void HorizonCache::clear() {
    planes_.clear();
    tile_hashes_.clear();
}

}  // namespace pvfp::gis
