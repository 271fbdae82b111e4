#include "pvfp/serve/resident_state.hpp"

#include <bit>
#include <limits>

#include "pvfp/util/error.hpp"
#include "pvfp/weather/synthetic.hpp"

namespace pvfp::serve {

namespace {

void hash_bytes(std::uint64_t& h, const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;  // FNV-1a 64 prime
    }
}

void hash_double(std::uint64_t& h, double v) {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
    hash_bytes(h, &bits, sizeof bits);
}

}  // namespace

std::uint64_t roof_record_hash(const gis::RoofRecord& record,
                               const gis::ScenarioBuildOptions& build) {
    std::uint64_t h = 14695981039346656037ull;  // FNV-1a 64 offset basis
    hash_bytes(h, record.id.data(), record.id.size());
    hash_double(h, record.bbox.x0);
    hash_double(h, record.bbox.y0);
    hash_double(h, record.bbox.x1);
    hash_double(h, record.bbox.y1);
    for (const auto& [x, y] : record.polygon) {
        hash_double(h, x);
        hash_double(h, y);
    }
    const unsigned char has_loc = record.has_location ? 1 : 0;
    hash_bytes(h, &has_loc, 1);
    if (record.has_location) {
        hash_double(h, record.latitude_deg);
        hash_double(h, record.longitude_deg);
    }
    hash_double(h, build.context_margin_m);
    hash_double(h, build.trim_sigma);
    return h;
}

std::size_t prepared_scenario_bytes(const core::PreparedScenario& prepared) {
    std::size_t bytes = 0;
    // The mosaic window (aliased by the scenario, owned here: the cache
    // entry is what keeps it alive).
    if (prepared.dsm)
        bytes += prepared.dsm->grid().size() * sizeof(double);
    // Placement validity mask.
    bytes += prepared.area.valid.size() * sizeof(unsigned char);
    // Horizon planes: sector-major angles + SVF, float each.
    const geo::HorizonMap& horizon = prepared.field.horizon();
    bytes += static_cast<std::size_t>(horizon.cell_count()) *
             (static_cast<std::size_t>(horizon.sectors()) + 1) *
             sizeof(float);
    // Per-cell surface normals (3 float planes over the window).
    bytes += static_cast<std::size_t>(horizon.cell_count()) * 3 *
             sizeof(float);
    // Irradiance SoA step planes, the field's one set over all steps:
    // 9 float planes (7 kernel planes, air temperature, sun azimuth),
    // the daylight bytes, and the horizon-lerp precompute (2 x int32 +
    // 1 x double).  The step packs the evaluators sweep live only for
    // one call and are not resident.
    bytes += static_cast<std::size_t>(prepared.field.steps()) *
             (9 * sizeof(float) + sizeof(std::uint8_t) +
              2 * sizeof(std::int32_t) + sizeof(double));
    // Suitability, G percentile, T percentile grids.
    bytes += (prepared.suitability.suitability.size() +
              prepared.suitability.g_percentile.size() +
              prepared.suitability.t_percentile.size()) *
             sizeof(double);
    return bytes;
}

std::size_t sky_artifact_bytes(const solar::SharedSkyArtifact& artifact) {
    const auto steps = static_cast<std::size_t>(artifact.steps());
    // env (4 doubles) + 7 double series + the daylight byte per step.
    return steps * (sizeof(solar::EnvSample) + 7 * sizeof(double) +
                    sizeof(std::uint8_t));
}

ResidentState::ResidentState(gis::TileIndex tiles, gis::RoofRegistry registry,
                             ServeConfig config)
    : tiles_(std::move(tiles)),
      serve_config_(std::move(config)),
      tile_cache_(serve_config_.tile_cache_tiles),
      roofs_(std::numeric_limits<std::size_t>::max(),
             [](const PreparedRoof& roof) { return roof.resident_bytes; }),
      skies_(std::numeric_limits<std::size_t>::max(), sky_artifact_bytes) {
    check_arg(!serve_config_.topologies.empty(),
              "ResidentState: no topologies configured");
    if (serve_config_.share_horizon) {
        gis::HorizonCacheOptions hc;
        hc.horizon = serve_config_.config.horizon;
        hc.byte_budget = serve_config_.memory_budget_bytes;
        horizon_cache_ = std::make_unique<gis::HorizonCache>(
            tiles_, &tile_cache_, hc);
    }
    update_registry(std::move(registry));
}

void ResidentState::update_registry(gis::RoofRegistry registry) {
    // A reload is the operator's "inputs may have changed" signal: drop
    // the horizon planes and their per-tile content memo so re-written
    // tiles re-hash (roof entries self-invalidate via content_hash).
    if (horizon_cache_) horizon_cache_->clear();
    auto next = std::make_shared<const gis::RoofRegistry>(std::move(registry));
    auto by_id = std::make_shared<std::unordered_map<std::string, long>>();
    by_id->reserve(static_cast<std::size_t>(next->size()));
    for (long i = 0; i < next->size(); ++i)
        (*by_id)[next->record(i).id] = i;
    std::lock_guard<std::mutex> lock(registry_mutex_);
    registry_ = std::move(next);
    by_id_ = std::move(by_id);
}

std::shared_ptr<const gis::RoofRegistry> ResidentState::registry() const {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    return registry_;
}

void ResidentState::invalidate(const std::string& roof_id) {
    roofs_.erase(roof_id);
}

std::size_t ResidentState::sky_bytes_in_use() {
    // use_count == 1: only the cache holds it — no resident roof, no
    // running build.  Safe to drop.
    skies_.erase_if([](const auto& sky) { return sky.use_count() == 1; });
    return skies_.cost();
}

void ResidentState::enforce_budget() {
    // Sky artifacts referenced by resident roofs are part of the
    // resident footprint; an artifact's bytes drop off once the last
    // roof using it is evicted.
    const std::size_t budget = serve_config_.memory_budget_bytes;
    const std::size_t horizon_bytes =
        horizon_cache_ ? horizon_cache_->bytes_used() : 0;
    roofs_.evict_while([&](std::size_t roof_bytes) {
        return roof_bytes + sky_bytes_in_use() + horizon_bytes > budget;
    });
    // Roof entries alone may still exceed the budget (keep-1 floor);
    // shrink the horizon planes into whatever headroom is left.  Planes
    // rebuild bitwise-identically on demand, so this only costs time.
    const std::size_t remaining = roofs_.cost() + sky_bytes_in_use();
    if (horizon_cache_)
        horizon_cache_->shrink_to(budget > remaining ? budget - remaining
                                                     : 0);
}

std::shared_ptr<const PreparedRoof> ResidentState::build_roof(
    const gis::RoofRecord& record, std::uint64_t hash) {
    const core::ScenarioConfig& base = serve_config_.config;
    const gis::SkyLookup sky = [&](const solar::Location& location) {
        return skies_.get(
            {location.latitude_deg, location.longitude_deg}, 0, [&] {
                return solar::make_shared_sky(
                    location, base.grid,
                    weather::generate_synthetic_weather(location, base.grid,
                                                        base.weather),
                    base.field.sky_model);
            });
    };
    gis::RoofPlaneFit fit;
    core::PreparedScenario prepared = gis::prepare_roof(
        record, tiles_, base, serve_config_.build, &tile_cache_,
        horizon_cache_.get(), sky, &fit);
    core::ScenarioConfig config = prepared.config;
    const std::size_t bytes = prepared_scenario_bytes(prepared);
    return std::make_shared<const PreparedRoof>(
        PreparedRoof{record.id, hash, fit, std::move(config),
                     std::move(prepared), bytes});
}

std::shared_ptr<const PreparedRoof> ResidentState::prepare(
    const std::string& roof_id) {
    // Snapshot the registry: a concurrent update_registry swaps the
    // pointer, never mutates the snapshot.
    std::shared_ptr<const gis::RoofRegistry> registry;
    std::shared_ptr<const std::unordered_map<std::string, long>> by_id;
    {
        std::lock_guard<std::mutex> lock(registry_mutex_);
        registry = registry_;
        by_id = by_id_;
    }
    const auto rec_it = by_id->find(roof_id);
    check_arg(rec_it != by_id->end(), "serve: unknown roof '" + roof_id + "'");
    const gis::RoofRecord& record = registry->record(rec_it->second);
    const std::uint64_t hash = roof_record_hash(record, serve_config_.build);

    // A resident entry of another hash is stale (index edit): the cache
    // drops it and rebuilds.  The build runs with no state lock held, so
    // different roofs prepare fully in parallel.
    bool built = false;
    auto roof = roofs_.get(
        roof_id, hash, [&] { return build_roof(record, hash); }, &built);
    if (built) enforce_budget();
    return roof;
}

ResidentStats ResidentState::stats() const {
    ResidentStats s;
    const KeyedCacheStats roofs = roofs_.stats();
    s.entries = roofs.entries;
    s.prepared_bytes = roofs.cost;
    s.hits = roofs.hits + roofs.joins;
    s.misses = roofs.misses;
    s.evictions = roofs.evictions;
    s.invalidations = roofs.invalidations;
    const KeyedCacheStats skies = skies_.stats();
    s.sky_artifacts = skies.entries;
    s.sky_bytes = skies.cost;
    s.resident_bytes = s.prepared_bytes + s.sky_bytes;
    s.tile_cache_hits = tile_cache_.hits();
    s.tile_cache_misses = tile_cache_.misses();
    s.tile_cache_bytes = tile_cache_.bytes();
    if (horizon_cache_) {
        const gis::HorizonCacheStats hs = horizon_cache_->stats();
        s.horizon_cache_hits = hs.hits + hs.joins;
        s.horizon_cache_misses = hs.misses;
        s.horizon_cache_evictions = hs.evictions;
        s.horizon_cache_bytes = hs.bytes;
        s.resident_bytes += hs.bytes;
    }
    return s;
}

}  // namespace pvfp::serve
