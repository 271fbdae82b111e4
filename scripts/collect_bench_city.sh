#!/usr/bin/env bash
# Bench-trajectory collector for the city-scale batch runner: runs
# bench_city_scale in JSON mode and appends one record per timed run
# (tagged with the current commit) plus the derived shared-horizon
# speedup record to BENCH_city.json at the repo root, mirroring
# collect_bench_kernels.sh (ROADMAP trajectory item).
#
# Usage: scripts/collect_bench_city.sh [build-dir]   (default: build)

set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-build}"
bench="$repo_root/$build_dir/bench/bench_city_scale"
out="$repo_root/BENCH_city.json"

if [[ ! -x "$bench" ]]; then
    echo "error: $bench not built" >&2
    exit 1
fi

commit="$(git -C "$repo_root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
raw_path="$(mktemp)"
trap 'rm -f "$raw_path"' EXIT

"$bench" --json "$raw_path"

RAW_PATH="$raw_path" COMMIT="$commit" OUT_PATH="$out" python3 - <<'PY'
import json
import os

with open(os.environ["RAW_PATH"]) as f:
    raw = json.load(f)
commit = os.environ["COMMIT"]
out_path = os.environ["OUT_PATH"]

records = []
if os.path.exists(out_path):
    with open(out_path) as f:
        records = json.load(f)
prior = len(records)

by_name = {}
for b in raw:
    rec = {
        "commit": commit,
        "name": b["name"],
        "wall_ms": b["wall_ms"],
        "roofs": b["iterations"],
        "roofs_per_sec": 1000.0 * b["iterations"] / b["wall_ms"]
            if b["wall_ms"] > 0 else None,
        "threads": b["threads"],
    }
    by_name[b["name"]] = rec
    records.append(rec)

shared = by_name.get("city/shared_sky")

# "city/shared_horizon" is the *warm* pass (resident gis::HorizonCache
# planes, the steady-state re-rank workload); the populating pass is
# recorded separately as "city/shared_horizon_cold".
horizon = by_name.get("city/shared_horizon")
if shared and horizon and horizon["wall_ms"] > 0:
    speedup = shared["wall_ms"] / horizon["wall_ms"]
    records.append({
        "commit": commit,
        "name": "city/shared_horizon_speedup",
        "speedup": speedup,
        "threads": horizon["threads"],
    })
    print(f"shared-horizon warm speedup: {speedup:.2f}x "
          f"({horizon['roofs_per_sec']:.1f} roofs/sec warm, "
          f"{shared['roofs_per_sec']:.1f} cold)")

with open(out_path, "w") as f:
    json.dump(records, f, indent=1)
    f.write("\n")
print(f"appended {len(records) - prior} records at {commit} -> {out_path}")
PY
