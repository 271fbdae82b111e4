#pragma once
/// \file resident_state.hpp
/// The serving daemon's hot state: prepared roofs that stay resident.
///
/// A batch run amortizes tile decode and the ~105k-step sky precompute
/// across one pass and then exits; a serving process must instead keep
/// exactly that state alive between requests so a re-plan costs
/// milliseconds.  ResidentState owns the long-lived layers:
///
///   TileIndex (scanned once)  +  RoofRegistry (swappable snapshot)
///   -> TileCache              (decoded tiles, bounded LRU, PR-5)
///   -> per-site SharedSkyArtifact cache (one sun/transposition
///      precompute per distinct site, shared by every roof there)
///   -> per-roof PreparedRoof cache (mosaic + plane fit + HorizonMap +
///      IrradianceField + suitability — everything a rank/plan request
///      needs), LRU-evicted against a byte budget accounted from the
///      actual buffer sizes.
///
/// Roofs are prepared by gis::prepare_roof, the preparer run_city
/// shares, and held in a KeyedCache versioned by a content hash over
/// the registry record and the build knobs, so an index edit (new bbox,
/// moved polygon, changed site) invalidates exactly the affected roofs
/// on their next request after update_registry — stale state can never
/// serve.  Concurrent requests for the same cold roof join one
/// in-flight build (waiting on that build's own latch, never a
/// state-wide lock); requests for different roofs prepare fully in
/// parallel.  Sky artifacts sit in a second KeyedCache keyed on the
/// exact (lat, lon) site.  All responses derived from a
/// PreparedRoof are bitwise deterministic at any thread count (the
/// PR-2..PR-5 contract), so caching is invisible in the output bytes —
/// the property the serving plane's replay gate rests on.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "pvfp/core/pipeline.hpp"
#include "pvfp/gis/horizon_cache.hpp"
#include "pvfp/gis/roof_registry.hpp"
#include "pvfp/gis/tile_index.hpp"
#include "pvfp/util/keyed_cache.hpp"

namespace pvfp::serve {

/// Everything the daemon applies to every roof it prepares.
struct ServeConfig {
    /// Pipeline configuration shared by every roof (cell_size is
    /// overridden by the tile set's; location by registry lat/lon).
    core::ScenarioConfig config{};
    /// Topologies a `rank` request compares.
    std::vector<pv::Topology> topologies{{8, 2}};
    core::GreedyOptions greedy{};
    core::EvaluationOptions eval{};
    gis::ScenarioBuildOptions build{};
    /// Resident decoded tiles in the shared LRU cache.
    std::size_t tile_cache_tiles = 16;
    /// Byte budget for resident roofs + sky artifacts + shared horizon
    /// planes.  The LRU evicts past it after every build; the most
    /// recent entry is always kept, so a single roof larger than the
    /// budget still serves (the budget then bounds *additional*
    /// residency, not that one roof).
    std::size_t memory_budget_bytes = 512ull << 20;
    /// Share horizon marching across roofs (gis::HorizonCache): sector
    /// planes are computed once per macro tile over a max_distance-halo
    /// mosaic and each prepared roof assembles its window from the
    /// cached planes.  Served results then match a
    /// `run_city --shared-horizon` stream (uniform march distance over
    /// real neighbouring terrain) instead of the cold per-roof-capped
    /// one; either mode is bitwise deterministic.
    bool share_horizon = false;
};

/// One roof's resident hot state — immutable once built, shared with
/// any request currently using it (eviction only drops the cache's
/// reference, never memory in use).
struct PreparedRoof {
    std::string id;
    /// FNV-1a over the registry record + build knobs; a mismatch with
    /// the current registry means the entry is stale.
    std::uint64_t content_hash = 0;
    gis::RoofPlaneFit fit{};
    /// The per-roof adjusted configuration (site override, horizon
    /// march clamp, shared sky) — identical to what run_city applies,
    /// so a served result equals the batch JSONL record bit for bit.
    core::ScenarioConfig config{};
    core::PreparedScenario prepared;
    /// Actual buffer footprint: DSM window + placement mask + horizon
    /// planes + irradiance SoA planes + suitability grids.
    std::size_t resident_bytes = 0;
};

/// Accounting snapshot (approximate under concurrency; exact when
/// quiescent).
struct ResidentStats {
    std::size_t entries = 0;         ///< resident PreparedRoofs
    /// Aggregate: prepared + sky + horizon bytes (the budget's view).
    std::size_t resident_bytes = 0;
    /// Per-cache byte accounting (status op: tiles/sky/prepared/horizon).
    std::size_t tile_cache_bytes = 0;  ///< decoded tiles (outside budget)
    std::size_t sky_bytes = 0;         ///< resident sky artifacts
    std::size_t prepared_bytes = 0;    ///< resident PreparedRoof buffers
    std::size_t sky_artifacts = 0;   ///< distinct resident sites
    std::size_t hits = 0;            ///< served without building
    std::size_t misses = 0;          ///< builds initiated
    std::size_t evictions = 0;       ///< entries dropped for the budget
    std::size_t invalidations = 0;   ///< entries dropped as stale
    std::size_t tile_cache_hits = 0;
    std::size_t tile_cache_misses = 0;
    /// Shared horizon cache accounting (share_horizon; zero otherwise).
    std::size_t horizon_cache_hits = 0;
    std::size_t horizon_cache_misses = 0;
    std::size_t horizon_cache_evictions = 0;
    std::size_t horizon_cache_bytes = 0;
};

class ResidentState {
public:
    ResidentState(gis::TileIndex tiles, gis::RoofRegistry registry,
                  ServeConfig config);

    /// The prepared hot state of \p roof_id: resident entry when fresh,
    /// else built (joining an identical in-flight build when one is
    /// running).  Throws InvalidArgument for an unknown id; build
    /// failures (footprint off the tiles, ...) propagate to every
    /// joined caller and leave nothing cached.
    std::shared_ptr<const PreparedRoof> prepare(const std::string& roof_id);

    /// Swap the registry (an edited index reloaded).  Resident entries
    /// are revalidated lazily: the next prepare() of a changed roof sees
    /// the content-hash mismatch and rebuilds; untouched roofs keep
    /// serving from cache.
    void update_registry(gis::RoofRegistry registry);

    /// Drop one roof's resident entry (no-op when absent).
    void invalidate(const std::string& roof_id);

    /// Registry record for \p roof_id, nullptr when unknown.  The
    /// returned pointer stays valid while the returned snapshot guard
    /// is held.
    std::shared_ptr<const gis::RoofRegistry> registry() const;

    const gis::TileIndex& tiles() const { return tiles_; }
    const ServeConfig& config() const { return serve_config_; }

    ResidentStats stats() const;

private:
    std::shared_ptr<const PreparedRoof> build_roof(
        const gis::RoofRecord& record, std::uint64_t hash);
    /// Evict roofs past memory_budget_bytes, then shrink the horizon
    /// planes into whatever headroom the roofs leave.
    void enforce_budget();
    /// Bytes of the sky artifacts still in use, after dropping the ones
    /// no resident roof or running build holds.
    std::size_t sky_bytes_in_use();

    gis::TileIndex tiles_;
    ServeConfig serve_config_;
    gis::TileCache tile_cache_;
    /// Shared macro-tile horizon planes (share_horizon; else null).
    /// Its bytes count against memory_budget_bytes: the roof eviction
    /// pass shrinks it once the resident roofs alone fit.
    std::unique_ptr<gis::HorizonCache> horizon_cache_;

    mutable std::mutex registry_mutex_;
    std::shared_ptr<const gis::RoofRegistry> registry_;
    /// id -> record index of *registry_ (rebuilt on update_registry).
    std::shared_ptr<const std::unordered_map<std::string, long>> by_id_;

    /// Prepared roofs by id, versioned by roof_record_hash, priced at
    /// resident_bytes.  Evicted by enforce_budget, not by its own budget.
    KeyedCache<std::string, PreparedRoof> roofs_;
    /// Sky artifacts by exact (lat, lon), priced at sky_artifact_bytes.
    KeyedCache<std::pair<double, double>, solar::SharedSkyArtifact> skies_;
};

/// Actual buffer footprint of a prepared scenario (the accounting unit
/// of the memory budget); exposed for the eviction tests.
std::size_t prepared_scenario_bytes(const core::PreparedScenario& prepared);

/// Bytes of one shared sky artifact.
std::size_t sky_artifact_bytes(const solar::SharedSkyArtifact& artifact);

/// FNV-1a content hash of a registry record under \p build — the
/// invalidation key of the resident cache.
std::uint64_t roof_record_hash(const gis::RoofRecord& record,
                               const gis::ScenarioBuildOptions& build);

}  // namespace pvfp::serve
