#include "pvfp/gis/tile_index.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <filesystem>

#include "pvfp/util/error.hpp"

namespace pvfp::gis {

namespace {

bool has_asc_extension(const std::filesystem::path& p) {
    std::string ext = p.extension().string();
    std::transform(ext.begin(), ext.end(), ext.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    return ext == ".asc";
}

/// Offset of \p value from \p ref in cells; throws when it is not a
/// whole number of cells (tile off the common lattice).
long lattice_offset(double value, double ref, double cell_size,
                    const std::string& path) {
    const double cells = (value - ref) / cell_size;
    const double rounded = std::round(cells);
    check_io(std::abs(cells - rounded) <= 1e-6,
             "tile_index: tile '" + path +
                 "' is not aligned to the common cell lattice");
    return static_cast<long>(rounded);
}

}  // namespace

TileCache::TileCache(std::size_t capacity, Loader loader)
    : loader_(loader ? std::move(loader) : [](const std::string& p) {
          return geo::read_asc_grid_file(p);
      }),
      tiles_(capacity == 0 ? 1 : capacity) {}

std::shared_ptr<const geo::Raster> TileCache::load(const std::string& path) {
    return tiles_.get(path, 0, [&] {
        return std::make_shared<const geo::Raster>(loader_(path));
    });
}

std::size_t TileCache::hits() const {
    const KeyedCacheStats s = tiles_.stats();
    return s.hits + s.joins;
}

std::size_t TileCache::misses() const { return tiles_.stats().misses; }

std::size_t TileCache::bytes() const {
    std::size_t total = 0;
    tiles_.for_each([&](const geo::Raster& tile) {
        total += static_cast<std::size_t>(tile.width()) *
                 static_cast<std::size_t>(tile.height()) * sizeof(double);
    });
    return total;
}

TileIndex TileIndex::scan(const std::string& directory) {
    namespace fs = std::filesystem;
    std::error_code ec;
    check_io(fs::is_directory(directory, ec),
             "tile_index: '" + directory + "' is not a directory");

    std::vector<std::string> paths;
    for (const auto& entry : fs::directory_iterator(directory, ec)) {
        if (entry.is_regular_file() && has_asc_extension(entry.path()))
            paths.push_back(entry.path().string());
    }
    check_io(!ec, "tile_index: cannot read directory '" + directory + "'");
    check_io(!paths.empty(),
             "tile_index: no .asc tiles in '" + directory + "'");
    std::sort(paths.begin(), paths.end());

    TileIndex index;
    index.tiles_.reserve(paths.size());
    for (const std::string& path : paths)
        index.tiles_.push_back({path, geo::read_asc_header_file(path)});

    const geo::AscHeader& first = index.tiles_.front().header;
    index.cell_size_ = first.cellsize;
    index.ref_x_ = first.xllcorner;
    index.ref_y_ = first.yllcorner;
    index.extent_ = index.tiles_.front().extent();
    for (const TileInfo& tile : index.tiles_) {
        check_io(std::abs(tile.header.cellsize - index.cell_size_) <=
                     1e-9 * index.cell_size_,
                 "tile_index: tile '" + tile.path +
                     "' cell size differs from the set's");
        lattice_offset(tile.header.xllcorner, index.ref_x_,
                       index.cell_size_, tile.path);
        lattice_offset(tile.header.yllcorner, index.ref_y_,
                       index.cell_size_, tile.path);
        const WorldRect e = tile.extent();
        index.extent_.x0 = std::min(index.extent_.x0, e.x0);
        index.extent_.y0 = std::min(index.extent_.y0, e.y0);
        index.extent_.x1 = std::max(index.extent_.x1, e.x1);
        index.extent_.y1 = std::max(index.extent_.y1, e.y1);
    }
    return index;
}

geo::Raster TileIndex::read_window(const WorldRect& rect,
                                   TileCache* cache) const {
    check_arg(!rect.empty(), "tile_index: empty window rectangle");
    const double cs = cell_size_;

    // Snap the window outward to the common lattice.  The epsilon keeps
    // an edge that *is* a lattice line (the overwhelmingly common case:
    // windows derived from tile/bbox corners) from absorbing one extra
    // cell row through floating-point dust.
    const double eps = 1e-6;
    const long i0 = static_cast<long>(std::floor((rect.x0 - ref_x_) / cs + eps));
    const long i1 = static_cast<long>(std::ceil((rect.x1 - ref_x_) / cs - eps));
    const long j0 = static_cast<long>(std::floor((rect.y0 - ref_y_) / cs + eps));
    const long j1 = static_cast<long>(std::ceil((rect.y1 - ref_y_) / cs - eps));
    const long w = i1 - i0;
    const long h = j1 - j0;
    check_arg(w > 0 && h > 0, "tile_index: degenerate window");
    check_arg(w * h <= 64LL * 1024 * 1024,
              "tile_index: window too large (>64M cells)");

    geo::Raster out(static_cast<int>(w), static_cast<int>(h), cs,
                    geo::kDefaultNoData, ref_x_ + i0 * cs,
                    ref_y_ + j1 * cs);
    out.set_nodata(geo::kDefaultNoData);

    // j counts lattice rows northward from the reference; raster rows
    // count southward from the north edge.
    for (const TileInfo& tile : tiles_) {
        if (!tile.extent().intersects(
                {ref_x_ + i0 * cs, ref_y_ + j0 * cs, ref_x_ + i1 * cs,
                 ref_y_ + j1 * cs}))
            continue;
        const long ti0 = lattice_offset(tile.header.xllcorner, ref_x_, cs,
                                        tile.path);
        const long tj0 = lattice_offset(tile.header.yllcorner, ref_y_, cs,
                                        tile.path);
        const long ci0 = std::max(i0, ti0);
        const long ci1 = std::min(i1, ti0 + tile.header.ncols);
        const long cj0 = std::max(j0, tj0);
        const long cj1 = std::min(j1, tj0 + tile.header.nrows);
        if (ci0 >= ci1 || cj0 >= cj1) continue;

        std::shared_ptr<const geo::Raster> loaded;
        geo::Raster direct;
        const geo::Raster* src = nullptr;
        if (cache) {
            loaded = cache->load(tile.path);
            src = loaded.get();
        } else {
            direct = geo::read_asc_grid_file(tile.path);
            src = &direct;
        }
        check_io(src->width() == tile.header.ncols &&
                     src->height() == tile.header.nrows,
                 "tile_index: tile '" + tile.path +
                     "' changed size since the scan");

        for (long j = cj0; j < cj1; ++j) {
            const int oy = static_cast<int>(j1 - 1 - j);
            const int sy = static_cast<int>(tj0 + tile.header.nrows - 1 - j);
            for (long i = ci0; i < ci1; ++i) {
                const int ox = static_cast<int>(i - i0);
                const int sx = static_cast<int>(i - ti0);
                if (out(ox, oy) != out.nodata()) continue;  // first wins
                const double v = (*src)(sx, sy);
                if (v == src->nodata()) continue;  // source gap stays NODATA
                out(ox, oy) = v;
            }
        }
    }
    return out;
}

}  // namespace pvfp::gis
