#pragma once
/// \file city_runner.hpp
/// gis::run_city — the streaming batch driver of the city-scale
/// workload: registry + tiles in, ranked floorplans out.
///
/// Roofs flow through in registry order, sharded so memory stays
/// bounded (shard_size prepared scenarios resident at once: a shard is
/// loaded -> prepared -> placed -> freed before the next one starts,
/// with mosaic tile loads served by one bounded LRU cache).  Inside a
/// shard, roofs run on the PR-2 pool under the same outer/inner policy
/// as core::run_scenarios; all of a shard's results are appended to the
/// JSONL stream only after the shard completes, in registry order, so
/// the output is *bitwise identical at any thread count* and always a
/// prefix of the full run — which is what makes resume trivial: on
/// --resume the runner keeps the longest valid prefix of an interrupted
/// stream (a torn final line from a kill mid-write is discarded) and
/// continues after it, producing the same final bytes as an
/// uninterrupted run.
///
/// Each roof goes through gis::prepare_roof, the preparer the serving
/// daemon shares.  The sky precompute (env series + sun positions +
/// transposition trig) is prepared once per distinct site (lazily,
/// shard by shard, dropping artifacts the next shard no longer needs)
/// and shared immutably by every roof — the ROADMAP "shared-weather
/// batching" item.  A roof that fails (footprint off the tile set, no
/// valid cells, topology infeasible) contributes an error record and
/// the run continues.

#include <string>
#include <vector>

#include "pvfp/core/pipeline.hpp"
#include "pvfp/gis/roof_registry.hpp"
#include "pvfp/gis/tile_index.hpp"

namespace pvfp::gis {

class HorizonCache;  // gis/horizon_cache.hpp

/// Everything a city run needs beyond the tiles and the registry.
struct CityRunOptions {
    /// Pipeline configuration shared by every roof.  cell_size is
    /// overridden by the tile set's; location may be overridden per
    /// record (registry lat/lon, with this config's timezone).
    core::ScenarioConfig config{};
    /// Topologies compared on every roof.
    std::vector<pv::Topology> topologies{{8, 2}};
    core::GreedyOptions greedy{};
    core::EvaluationOptions eval{};
    ScenarioBuildOptions build{};
    /// Roofs prepared concurrently per shard — the memory bound.
    int shard_size = 32;
    /// Resident decoded tiles in the shared LRU cache.
    std::size_t tile_cache_tiles = 16;
    /// Keep the valid prefix of an existing JSONL stream and continue
    /// after it; false truncates and recomputes everything.
    bool resume = false;
    /// Share the horizon marching across roofs (gis::HorizonCache):
    /// sector planes are computed once per macro tile over a
    /// max_distance-halo mosaic and every roof window is assembled from
    /// the cached planes.  The per-roof march cap (see run_city) does
    /// not apply — every roof marches the run-uniform
    /// config.horizon.max_distance over real neighbouring terrain, so
    /// results legitimately differ from the cold path; within the mode
    /// the stream stays bitwise identical at any thread count.
    bool share_horizon = false;
    /// Byte budget [MiB] of the resident horizon planes (shared mode).
    std::size_t horizon_cache_mb = 256;
    /// Optional externally-owned horizon cache: when set, the run uses
    /// it instead of creating its own (and implies share_horizon
    /// semantics).  This is how a caller amortizes the macro-tile
    /// marching across *runs* — re-ranks, delta re-runs, the serve
    /// daemon's workload — where the shared planes pay for themselves;
    /// a single cold pass over disjoint roof windows computes more
    /// cells than it consumes.  The cache's horizon options must match
    /// config.horizon (checked); its stats are cumulative across runs.
    /// The caller keeps ownership and must keep it alive for the run.
    HorizonCache* shared_horizon_cache = nullptr;
    /// Required: incremental JSONL result stream (one object per roof).
    std::string jsonl_path;
    /// Optional: final ranking summary CSV.
    std::string summary_csv_path;
};

/// Per-topology outcome on one roof.
struct RoofTopologyResult {
    pv::Topology topology{};
    double proposed_kwh = 0.0;  ///< greedy floorplanner (the paper's)
    double compact_kwh = 0.0;   ///< traditional compact baseline
    double improvement_pct = 0.0;
};

/// One JSONL record: everything the run learned about one roof.
struct RoofResult {
    std::string id;
    bool ok = false;
    std::string error;  ///< set when !ok
    int valid_cells = 0;
    int area_w = 0;
    int area_h = 0;
    double tilt_deg = 0.0;
    double azimuth_deg = 0.0;
    double fit_rmse_m = 0.0;
    std::vector<RoofTopologyResult> topologies;
    double best_kwh = 0.0;  ///< max proposed_kwh over topologies
    bool from_resume = false;  ///< parsed back from a previous stream
};

/// Run-level accounting.
struct CityRunSummary {
    long total = 0;      ///< registry records
    long processed = 0;  ///< computed this run
    long resumed = 0;    ///< taken from the existing stream
    long failed = 0;     ///< error records (either origin)
    /// One entry per registry record, registry order.
    std::vector<RoofResult> results;
    /// Indices into results, successful roofs only, best_kwh descending
    /// (ties by id) — the city-wide ranking of the summary CSV.
    std::vector<std::size_t> ranking;
    std::size_t tile_cache_hits = 0;
    std::size_t tile_cache_misses = 0;
    /// Horizon cache accounting (share_horizon runs; all zero otherwise).
    std::size_t horizon_cache_hits = 0;
    std::size_t horizon_cache_misses = 0;
    std::size_t horizon_cache_evictions = 0;
    std::size_t horizon_cache_bytes = 0;
};

/// Serialize one result as a JSONL line (no trailing newline).  Fixed
/// key order and fixed-precision numbers: equal results produce equal
/// bytes, the contract behind the thread-count determinism gate.
std::string roof_result_to_jsonl(const RoofResult& result);

/// Parse one JSONL line (resume path); throws IoError on malformed
/// input — including a torn line from an interrupted write.
RoofResult roof_result_from_jsonl(const std::string& line);

/// Rank \p registry's roofs from \p tiles under \p options.  See the
/// file comment for streaming/resume/determinism semantics.
CityRunSummary run_city(const TileIndex& tiles, const RoofRegistry& registry,
                        const CityRunOptions& options);

}  // namespace pvfp::gis
