#pragma once
/// \file roof_registry.hpp
/// The footprint index of a city run: which roofs exist, where.
///
/// A RoofRegistry is loaded from a CSV or JSON index file mapping roof
/// ids to world-coordinate footprints (axis-aligned bbox, optionally
/// refined by a polygon) plus optional per-roof site coordinates.  From
/// a registry record and a TileIndex, make_scenario assembles a
/// core::RoofScenario on demand — the bridge from measured GIS input to
/// the paper's pipeline:
///
///   mosaic the roof's context window  ->  mask the footprint
///   ->  least-squares fit the roof plane (trimmed re-fit against
///       encumbrance bias)  ->  describe it as a MonopitchRoof so
///       suitable-area extraction sees residuals against the *fitted*
///       plane of the *measured* DSM.
///
/// prepare_roof continues through the roof's configuration (site,
/// horizon source, sky) to core::prepare_scenario — the one roof
/// preparer of the batch runner and the serving daemon.
///
/// Index formats (world coordinates, meters; ids must be unique):
///   CSV:  id,min_x,min_y,max_x,max_y[,lat,lon][,polygon]
///         polygon = "x y;x y;..." (>= 3 vertices, implicit closure)
///   JSON: [{"id": "...", "bbox": [min_x,min_y,max_x,max_y],
///          "lat": ..., "lon": ..., "polygon": [[x,y],...]}, ...]

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "pvfp/core/pipeline.hpp"
#include "pvfp/core/roof_library.hpp"
#include "pvfp/gis/tile_index.hpp"

namespace pvfp::gis {

class HorizonCache;  // gis/horizon_cache.hpp

/// One roof footprint of the index.
struct RoofRecord {
    std::string id;
    /// Axis-aligned footprint bounding box, world coordinates.
    WorldRect bbox{};
    /// Optional footprint polygon (world coordinates, implicit closure);
    /// empty = the bbox is the footprint.  Cells whose centers fall
    /// outside are masked from placement (they still shade).
    std::vector<std::array<double, 2>> polygon;
    /// Optional per-roof site override (a registry may span sites whose
    /// sun geometry differs); the run's configured timezone applies.
    bool has_location = false;
    double latitude_deg = 0.0;
    double longitude_deg = 0.0;
};

/// Least-squares roof plane in the mosaic's local frame (x east, y south
/// from the window's NW corner): z = a*lx + b*ly + c.
struct RoofPlaneFit {
    double a = 0.0;
    double b = 0.0;
    double c = 0.0;
    double tilt_deg = 0.0;     ///< atan(|grad z|)
    double azimuth_deg = 0.0;  ///< downslope, clockwise from North
    double rmse_m = 0.0;       ///< residual RMS over the kept cells
    long cells = 0;            ///< cells in the final fit
};

/// Knobs of the record -> scenario assembly.
struct ScenarioBuildOptions {
    /// Mosaic margin around the footprint bbox [m]: context that shades
    /// the roof (neighbour buildings, trees) without being placeable.
    double context_margin_m = 8.0;
    /// Trimmed re-fit: after the first least-squares pass, drop cells
    /// whose |residual| exceeds this many RMS and fit once more, so
    /// chimneys/dormers inside the footprint do not tilt the plane.
    /// 0 disables the second pass.
    double trim_sigma = 3.0;
};

/// Fit the roof plane over the cells where \p mask is nonzero (and the
/// DSM holds data).  Throws Infeasible when fewer than 3 cells remain.
/// Exposed for tests; make_scenario calls it internally.
RoofPlaneFit fit_roof_plane(const geo::Raster& dsm,
                            const pvfp::Grid2D<unsigned char>& mask,
                            double trim_sigma = 3.0);

/// World georeference of a scenario's mosaic window.  The scenario
/// raster is rebased to a scene-local frame for the pipeline, which
/// erases where the window sat on the tile lattice; shared-horizon
/// consumers (gis::HorizonCache) need that corner back to address the
/// cached macro-tile planes.
struct WindowOrigin {
    double x = 0.0;  ///< easting of the window's west edge [m]
    double y = 0.0;  ///< northing of the window's north edge [m]
};

/// Assemble the scenario for \p record: mosaic its window from
/// \p tiles, mask its footprint, fit its plane, and package everything
/// as a core::RoofScenario (measured DSM override + placement mask +
/// fitted-plane scene).  NODATA cells are excluded from placement and
/// backfilled with the window's minimum height so the horizon scan sees
/// ground, not a -9999 m canyon.  Throws Infeasible when the footprint
/// holds no data cells.  \p fit_out, when non-null, receives the plane
/// fit diagnostics; \p origin_out the window's world NW corner.
core::RoofScenario make_scenario(const RoofRecord& record,
                                 const TileIndex& tiles,
                                 const ScenarioBuildOptions& options = {},
                                 TileCache* cache = nullptr,
                                 RoofPlaneFit* fit_out = nullptr,
                                 WindowOrigin* origin_out = nullptr);

/// Site of \p record: its registry lat/lon when present, else \p base's;
/// the timezone is always \p base's.
solar::Location roof_location(const RoofRecord& record,
                              const solar::Location& base);

/// The caller's sky store: the shared artifact of one site.
using SkyLookup = std::function<std::shared_ptr<const solar::SharedSkyArtifact>(
    const solar::Location&)>;

/// Run \p record through the per-roof pipeline: make_scenario, then
/// \p base adjusted for the roof, then core::prepare_scenario.  The
/// adjusted config takes the tile set's cell size, the site from
/// roof_location, and the sky from \p sky.  Horizons come from
/// \p horizon_cache when non-null: window views of the shared
/// macro-tile planes at the full base max_distance.  Otherwise they are
/// marched over the roof's own mosaic, with max_distance capped at the
/// context margin plus the footprint diagonal, since the mosaic holds
/// real terrain no further.  The result's config is the adjusted one;
/// \p fit_out, when non-null, receives the plane fit.
core::PreparedScenario prepare_roof(const RoofRecord& record,
                                    const TileIndex& tiles,
                                    const core::ScenarioConfig& base,
                                    const ScenarioBuildOptions& build,
                                    TileCache* tile_cache,
                                    HorizonCache* horizon_cache,
                                    const SkyLookup& sky,
                                    RoofPlaneFit* fit_out = nullptr);

/// The loaded index.
class RoofRegistry {
public:
    /// Load by extension: ".json" -> JSON, anything else -> CSV.
    static RoofRegistry load(const std::string& path);
    static RoofRegistry load_csv(const std::string& path);
    static RoofRegistry load_json(const std::string& path);

    long size() const { return static_cast<long>(records_.size()); }
    const std::vector<RoofRecord>& records() const { return records_; }
    const RoofRecord& record(long i) const;

private:
    void validate() const;  ///< unique non-empty ids, sane bboxes

    std::vector<RoofRecord> records_;
};

}  // namespace pvfp::gis
