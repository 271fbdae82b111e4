#include "pvfp/gis/roof_registry.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <limits>
#include <optional>
#include <set>
#include <sstream>
#include <utility>

#include "pvfp/geo/poly_raster.hpp"
#include "pvfp/gis/horizon_cache.hpp"
#include "pvfp/gis/json.hpp"
#include "pvfp/obs/trace.hpp"
#include "pvfp/util/csv.hpp"
#include "pvfp/util/error.hpp"
#include "pvfp/util/math.hpp"

namespace pvfp::gis {

namespace {

/// One least-squares pass over the cells where keep is nonzero; returns
/// false when the system is degenerate (fewer than 3 cells or a
/// collinear footprint), in which case the flat fallback applies.
bool plane_pass(const geo::Raster& dsm,
                const pvfp::Grid2D<unsigned char>& keep, double& a,
                double& b, double& c, long& cells) {
    double mx = 0.0, my = 0.0, mz = 0.0;
    long n = 0;
    for (int y = 0; y < dsm.height(); ++y) {
        for (int x = 0; x < dsm.width(); ++x) {
            if (!keep(x, y)) continue;
            mx += dsm.local_x(x);
            my += dsm.local_y(y);
            mz += dsm(x, y);
            ++n;
        }
    }
    cells = n;
    if (n < 3) return false;
    mx /= static_cast<double>(n);
    my /= static_cast<double>(n);
    mz /= static_cast<double>(n);

    double sxx = 0.0, sxy = 0.0, syy = 0.0, sxz = 0.0, syz = 0.0;
    for (int y = 0; y < dsm.height(); ++y) {
        for (int x = 0; x < dsm.width(); ++x) {
            if (!keep(x, y)) continue;
            const double dx = dsm.local_x(x) - mx;
            const double dy = dsm.local_y(y) - my;
            const double dz = dsm(x, y) - mz;
            sxx += dx * dx;
            sxy += dx * dy;
            syy += dy * dy;
            sxz += dx * dz;
            syz += dy * dz;
        }
    }
    const double det = sxx * syy - sxy * sxy;
    if (det <= 1e-12 * std::max(1.0, sxx * syy)) return false;
    a = (sxz * syy - syz * sxy) / det;
    b = (syz * sxx - sxz * sxy) / det;
    c = mz - a * mx - b * my;
    return true;
}

double plane_rmse(const geo::Raster& dsm,
                  const pvfp::Grid2D<unsigned char>& keep, double a,
                  double b, double c) {
    double ss = 0.0;
    long n = 0;
    for (int y = 0; y < dsm.height(); ++y) {
        for (int x = 0; x < dsm.width(); ++x) {
            if (!keep(x, y)) continue;
            const double r =
                dsm(x, y) - (a * dsm.local_x(x) + b * dsm.local_y(y) + c);
            ss += r * r;
            ++n;
        }
    }
    return n > 0 ? std::sqrt(ss / static_cast<double>(n)) : 0.0;
}

std::vector<std::array<double, 2>> parse_polygon_field(
    const std::string& field, const std::string& id) {
    std::vector<std::array<double, 2>> poly;
    std::istringstream vertices(field);
    std::string vertex;
    while (std::getline(vertices, vertex, ';')) {
        if (vertex.find_first_not_of(" \t") == std::string::npos) continue;
        std::istringstream vs(vertex);
        double x = 0.0, y = 0.0;
        check_io(static_cast<bool>(vs >> x >> y),
                 "roof_registry: bad polygon vertex for roof '" + id + "'");
        poly.push_back({x, y});
    }
    check_io(poly.size() >= 3,
             "roof_registry: polygon of roof '" + id +
                 "' needs >= 3 vertices");
    return poly;
}

}  // namespace

RoofPlaneFit fit_roof_plane(const geo::Raster& dsm,
                            const pvfp::Grid2D<unsigned char>& mask,
                            double trim_sigma) {
    check_arg(mask.width() == dsm.width() && mask.height() == dsm.height(),
              "fit_roof_plane: mask does not match the DSM");
    check_arg(trim_sigma >= 0.0, "fit_roof_plane: negative trim_sigma");

    // Only data cells participate.
    pvfp::Grid2D<unsigned char> keep = mask;
    for (int y = 0; y < dsm.height(); ++y)
        for (int x = 0; x < dsm.width(); ++x)
            if (keep(x, y) && dsm(x, y) == dsm.nodata()) keep(x, y) = 0;

    RoofPlaneFit fit;
    bool sloped = plane_pass(dsm, keep, fit.a, fit.b, fit.c, fit.cells);
    if (fit.cells < 3)
        throw Infeasible("fit_roof_plane: fewer than 3 data cells");
    if (!sloped) {
        // Collinear or flat footprint: horizontal plane at the mean.
        double mz = 0.0;
        long n = 0;
        for (int y = 0; y < dsm.height(); ++y)
            for (int x = 0; x < dsm.width(); ++x)
                if (keep(x, y)) { mz += dsm(x, y); ++n; }
        fit.a = 0.0;
        fit.b = 0.0;
        fit.c = mz / static_cast<double>(n);
    }
    fit.rmse_m = plane_rmse(dsm, keep, fit.a, fit.b, fit.c);

    // Trimmed re-fit: encumbrances (chimneys, HVAC) sit entirely above
    // the plane and drag the first fit toward themselves; one residual
    // trim recovers the clean-surface plane.
    if (trim_sigma > 0.0 && fit.rmse_m > 1e-6) {
        pvfp::Grid2D<unsigned char> trimmed = keep;
        long dropped = 0;
        for (int y = 0; y < dsm.height(); ++y) {
            for (int x = 0; x < dsm.width(); ++x) {
                if (!trimmed(x, y)) continue;
                const double r = dsm(x, y) - (fit.a * dsm.local_x(x) +
                                              fit.b * dsm.local_y(y) + fit.c);
                if (std::abs(r) > trim_sigma * fit.rmse_m) {
                    trimmed(x, y) = 0;
                    ++dropped;
                }
            }
        }
        if (dropped > 0) {
            RoofPlaneFit refit;
            if (plane_pass(dsm, trimmed, refit.a, refit.b, refit.c,
                           refit.cells)) {
                refit.rmse_m = plane_rmse(dsm, trimmed, refit.a, refit.b,
                                          refit.c);
                fit = refit;
            }
        }
    }

    // Orientation: z grows along the gradient (a, b) in the local frame
    // (x east, y south), so downslope is -(a, b) -> east = -a,
    // north = +b (local y points south).
    fit.tilt_deg = rad2deg(std::atan(std::hypot(fit.a, fit.b)));
    const double az = std::atan2(-fit.a, fit.b);
    fit.azimuth_deg = rad2deg(az < 0.0 ? az + kTwoPi : az);
    return fit;
}

core::RoofScenario make_scenario(const RoofRecord& record,
                                 const TileIndex& tiles,
                                 const ScenarioBuildOptions& options,
                                 TileCache* cache, RoofPlaneFit* fit_out,
                                 WindowOrigin* origin_out) {
    check_arg(options.context_margin_m >= 0.0,
              "make_scenario: negative context margin");
    check_arg(!record.bbox.empty(),
              "make_scenario: empty bbox for roof '" + record.id + "'");

    std::optional<geo::Raster> dsm_slot;
    {
        PVFP_TRACE_SPAN("stage.mosaic");
        dsm_slot = tiles.read_window(
            record.bbox.expanded(options.context_margin_m), cache);
    }
    geo::Raster& dsm = *dsm_slot;
    const double cs = dsm.cell_size();

    // Footprint mask: bbox AND polygon AND data.  The polygon mask comes
    // from the scanline rasterizer (O(rows·edges) instead of a per-cell
    // even-odd ray cast — the difference between linear and quadratic
    // ingest on 10^4+-vertex cadastral footprints), evaluated on the same
    // cell centers world_x/world_y address.
    pvfp::Grid2D<unsigned char> poly_mask;
    const bool have_poly = !record.polygon.empty();
    if (have_poly)
        poly_mask = geo::rasterize_polygon_even_odd(
            record.polygon, dsm.width(), dsm.height(), cs, dsm.origin_x(),
            dsm.origin_y());
    pvfp::Grid2D<unsigned char> mask(dsm.width(), dsm.height(), 0);
    long footprint_cells = 0;
    for (int y = 0; y < dsm.height(); ++y) {
        for (int x = 0; x < dsm.width(); ++x) {
            const double wx = dsm.world_x(x);
            const double wy = dsm.world_y(y);
            if (!record.bbox.contains(wx, wy)) continue;
            if (have_poly && !poly_mask(x, y)) continue;
            if (dsm(x, y) == dsm.nodata()) continue;
            mask(x, y) = 1;
            ++footprint_cells;
        }
    }
    if (footprint_cells < 3)
        throw Infeasible("make_scenario: footprint of roof '" + record.id +
                         "' holds no data cells (outside the tile set?)");

    RoofPlaneFit fit;
    {
        PVFP_TRACE_SPAN("stage.fit");
        fit = fit_roof_plane(dsm, mask, options.trim_sigma);
    }
    if (fit_out) *fit_out = fit;

    // Backfill NODATA with the window's minimum height: the horizon scan
    // and the normal map must see plausible ground, not a -9999 m pit.
    double ground = std::numeric_limits<double>::infinity();
    for (int y = 0; y < dsm.height(); ++y)
        for (int x = 0; x < dsm.width(); ++x)
            if (dsm(x, y) != dsm.nodata())
                ground = std::min(ground, dsm(x, y));
    for (int y = 0; y < dsm.height(); ++y)
        for (int x = 0; x < dsm.width(); ++x)
            if (dsm(x, y) == dsm.nodata()) dsm(x, y) = ground;

    // Describe the fitted plane as a MonopitchRoof in the window's local
    // frame, so extract_placement_area detects encumbrances as
    // measured-DSM-minus-fitted-plane residuals.
    const double lx0 = record.bbox.x0 - dsm.origin_x();
    const double ly0 = dsm.origin_y() - record.bbox.y1;
    geo::MonopitchRoof roof;
    roof.name = record.id;
    roof.x = lx0;
    roof.y = ly0;
    roof.w = record.bbox.width();
    roof.d = record.bbox.height();
    roof.tilt_deg = fit.tilt_deg;
    roof.azimuth_deg = fit.azimuth_deg;
    // Eave = fitted plane height at the most-downslope footprint corner
    // (the reference corner of roof_plane_height): the plane minimum
    // over the rectangle.
    double eave = std::numeric_limits<double>::infinity();
    for (const auto& [cx, cy] : {std::pair{lx0, ly0},
                                 std::pair{lx0 + roof.w, ly0},
                                 std::pair{lx0, ly0 + roof.d},
                                 std::pair{lx0 + roof.w, ly0 + roof.d}}) {
        eave = std::min(eave, fit.a * cx + fit.b * cy + fit.c);
    }
    roof.eave_height = eave;

    geo::SceneBuilder scene(dsm.width() * cs, dsm.height() * cs, 0.0);
    scene.add_roof(std::move(roof));

    if (origin_out) *origin_out = {dsm.origin_x(), dsm.origin_y()};

    // Rebase the mosaic to the scene-local georeference (NW corner at
    // (0, extent_y), like SceneBuilder::rasterize) now that the
    // world-coordinate work — footprint mask, plane fit — is done: the
    // pipeline's area extraction addresses the raster in that frame.
    geo::Raster local(dsm.width(), dsm.height(), cs, 0.0, 0.0,
                      dsm.height() * cs);
    local.grid() = std::move(dsm.grid());
    local.set_nodata(dsm.nodata());

    return core::RoofScenario{
        record.id, std::move(scene), 0,
        std::make_shared<const geo::Raster>(std::move(local)),
        std::make_shared<const pvfp::Grid2D<unsigned char>>(
            std::move(mask))};
}

solar::Location roof_location(const RoofRecord& record,
                              const solar::Location& base) {
    solar::Location location = base;
    if (record.has_location) {
        location.latitude_deg = record.latitude_deg;
        location.longitude_deg = record.longitude_deg;
    }
    return location;
}

core::PreparedScenario prepare_roof(const RoofRecord& record,
                                    const TileIndex& tiles,
                                    const core::ScenarioConfig& base,
                                    const ScenarioBuildOptions& build,
                                    TileCache* tile_cache,
                                    HorizonCache* horizon_cache,
                                    const SkyLookup& sky,
                                    RoofPlaneFit* fit_out) {
    WindowOrigin origin;
    const core::RoofScenario scenario =
        make_scenario(record, tiles, build, tile_cache, fit_out, &origin);

    core::ScenarioConfig config = base;
    config.cell_size = tiles.cell_size();
    config.location = roof_location(record, base.location);
    if (horizon_cache) {
        // Shared planes answer the full uniform max_distance over real
        // halo terrain, so the window cap below does not apply.  The
        // closure maps the scene-local window back onto the tile lattice
        // via the pre-rebase world origin.
        const double cs = tiles.cell_size();
        config.horizon_provider =
            [horizon_cache, origin, cs](const geo::Raster&, int x0, int y0,
                                        int w, int h,
                                        const geo::HorizonOptions&)
            -> std::optional<geo::HorizonMap> {
            return horizon_cache->window(origin.x + x0 * cs,
                                         origin.y - y0 * cs, x0, y0, w, h);
        };
    } else {
        // The mosaic holds real heights only out to the context margin;
        // marching the horizon rays further would sample the raster's
        // clamped edge values as if they were terrain.  Bound the march
        // by what the window can actually answer (never extend a
        // tighter user bound).
        config.horizon.max_distance = std::min(
            config.horizon.max_distance,
            build.context_margin_m +
                std::hypot(record.bbox.width(), record.bbox.height()));
    }
    config.shared_sky = sky(config.location);
    return core::prepare_scenario(scenario, config);
}

RoofRegistry RoofRegistry::load(const std::string& path) {
    const auto dot = path.find_last_of('.');
    std::string ext = dot == std::string::npos ? "" : path.substr(dot);
    std::transform(ext.begin(), ext.end(), ext.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    return ext == ".json" ? load_json(path) : load_csv(path);
}

RoofRegistry RoofRegistry::load_csv(const std::string& path) {
    const CsvTable table = CsvTable::read_file(path);
    for (const char* required : {"id", "min_x", "min_y", "max_x", "max_y"})
        check_io(table.has_column(required),
                 "roof_registry: CSV index misses column '" +
                     std::string(required) + "'");
    const bool has_lat = table.has_column("lat") && table.has_column("lon");
    const bool has_poly = table.has_column("polygon");

    RoofRegistry registry;
    registry.records_.reserve(table.row_count());
    for (std::size_t r = 0; r < table.row_count(); ++r) {
        RoofRecord record;
        record.id = table.cell(r, table.column("id"));
        record.bbox = {table.cell_as_double(r, "min_x"),
                       table.cell_as_double(r, "min_y"),
                       table.cell_as_double(r, "max_x"),
                       table.cell_as_double(r, "max_y")};
        if (has_lat) {
            const std::string& lat = table.cell(r, table.column("lat"));
            const std::string& lon = table.cell(r, table.column("lon"));
            if (!lat.empty() && !lon.empty()) {
                record.has_location = true;
                record.latitude_deg = table.cell_as_double(r, "lat");
                record.longitude_deg = table.cell_as_double(r, "lon");
            }
        }
        if (has_poly) {
            const std::string& poly = table.cell(r, table.column("polygon"));
            if (!poly.empty())
                record.polygon = parse_polygon_field(poly, record.id);
        }
        registry.records_.push_back(std::move(record));
    }
    registry.validate();
    return registry;
}

RoofRegistry RoofRegistry::load_json(const std::string& path) {
    std::ifstream is(path);
    check_io(is.good(), "roof_registry: cannot open '" + path + "'");
    std::ostringstream buffer;
    buffer << is.rdbuf();
    const JsonValue root = JsonValue::parse(buffer.str());
    check_io(root.is_array(),
             "roof_registry: JSON index root must be an array");

    RoofRegistry registry;
    registry.records_.reserve(root.as_array().size());
    for (const JsonValue& item : root.as_array()) {
        RoofRecord record;
        record.id = item.at("id").as_string();
        const auto& bbox = item.at("bbox").as_array();
        check_io(bbox.size() == 4,
                 "roof_registry: bbox of roof '" + record.id +
                     "' must have 4 numbers");
        record.bbox = {bbox[0].as_number(), bbox[1].as_number(),
                       bbox[2].as_number(), bbox[3].as_number()};
        const JsonValue* lat = item.find("lat");
        const JsonValue* lon = item.find("lon");
        if (lat && lon && !lat->is_null() && !lon->is_null()) {
            record.has_location = true;
            record.latitude_deg = lat->as_number();
            record.longitude_deg = lon->as_number();
        }
        if (const JsonValue* poly = item.find("polygon");
            poly && !poly->is_null()) {
            for (const JsonValue& vertex : poly->as_array()) {
                const auto& xy = vertex.as_array();
                check_io(xy.size() == 2,
                         "roof_registry: polygon vertex of roof '" +
                             record.id + "' must be [x, y]");
                record.polygon.push_back(
                    {xy[0].as_number(), xy[1].as_number()});
            }
            check_io(record.polygon.size() >= 3,
                     "roof_registry: polygon of roof '" + record.id +
                         "' needs >= 3 vertices");
        }
        registry.records_.push_back(std::move(record));
    }
    registry.validate();
    return registry;
}

const RoofRecord& RoofRegistry::record(long i) const {
    check_arg(i >= 0 && i < size(), "roof_registry: record out of range");
    return records_[static_cast<std::size_t>(i)];
}

void RoofRegistry::validate() const {
    check_io(!records_.empty(), "roof_registry: index holds no roofs");
    std::set<std::string> ids;
    for (const RoofRecord& record : records_) {
        check_io(!record.id.empty(), "roof_registry: empty roof id");
        check_io(ids.insert(record.id).second,
                 "roof_registry: duplicate roof id '" + record.id + "'");
        check_io(!record.bbox.empty(),
                 "roof_registry: degenerate bbox for roof '" + record.id +
                     "'");
    }
}

}  // namespace pvfp::gis
