#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload city|serve_warm|serve_churn \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root.  The first run builds the pvfp library,
pvfp_city, pvfp_serve and perfbench_driver from source into .bench_build/
(CMake, the repository's own flags); later runs rebuild incrementally.
Scratch files live under .bench_work/ and are removed at exit.

Workloads (BENCHMARK.json says why each exists):
  city         pvfp_city, default CLI, over a seeded fixture city
  serve_warm   pvfp_serve, every roof resident, closed-loop client
  serve_churn  pvfp_serve under a quarter-city memory budget, closed loop

--trace 0 measures the shipped programs and prints the end-to-end
metrics.  --trace 1 runs perfbench_driver, which repeats the workload's
public calls with a span around each layer call, and prints the per-layer
metrics (self times, exact work counts, attribution).  Every run checks
its outputs against a reference made by another path; each mismatch,
error response or timeout counts in `failed`.

The last stdout line is the result object:
  {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
"""

import argparse
import bisect
import csv
import hashlib
import itertools
import json
import math
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
CITY_BIN = os.path.join(BUILD, "pvfp", "examples", "example_pvfp_city")
SERVE_BIN = os.path.join(BUILD, "pvfp", "examples", "example_pvfp_serve")
DRIVER_BIN = os.path.join(BUILD, "perfbench_driver")

# The seed at which city outputs must also match golden.json (the
# fixture generator's own default seed).
GOLDEN_SEED = 7

# Workload configurations.  Thread counts are fixed (<= nproc on the
# 4-core reference box); PVFP_SIMD is left at auto and recorded.
CITY = {"threads": 1, "gen_roofs": 96, "roofs": 14, "target_m2": 1200.0}
SERVE = {
    "serve_warm": {"threads": 4, "gen_roofs": 96, "roofs": 12,
                   "target_m2": 1020.0, "budget_mb": 512},
    "serve_churn": {"threads": 4, "gen_roofs": 96, "roofs": 20,
                    "target_m2": 1700.0, "hot_share": 0.8},
}
# The serve traffic is synthetic: no request log of a real deployment
# exists.  Each mix follows a stated rule instead of tuned shares:
#  - serve_warm is a stream of sessions that follow the protocol's own
#    workflow on one roof: status, rank, one plan per shape in
#    PLAN_SHAPES, grid_rank (so op shares are 1 : 1 : 6 : 1);
#  - serve_churn draws roofs from a Zipf-like popularity law, the shape
#    found in web request traces (Breslau et al., "Web Caching and
#    Zipf-like Distributions", INFOCOM 1999), with the exponent at which
#    the most popular quarter of the roofs (what the budget holds) gets
#    hot_share of the requests, and rank and plan in equal shares.
# The Zipf ranks and churn's op choices come from this fixed trace, so
# every seed offers the same hit pattern; the seed picks the city, which
# roof each rank maps to, the session roofs, feeders and plan shapes.
TRACE_SEED = 1729
# Footprint boxes kept: below ~55 m2 a roof cannot host the 8x2
# topology; a narrow band keeps roof sizes, and so per-seed work, alike.
MIN_ROOF_M2, MAX_ROOF_M2 = 65.0, 105.0
# Plan shapes (series, strings, portrait): the default 8x2 topology and
# its shorter 6- and 4-module strings, in both panel orientations.
PLAN_SHAPES = [(series, 2, portrait) for portrait in (False, True)
               for series in (4, 6, 8)]
RESPONSE_TIMEOUT_S = 60.0

# Driver span names that become per-layer time metrics (<name>_ms is the
# total self time, <name>.call_p50_ms the median self time of one call).
LAYER_SPANS = ["gis.tile_scan", "gis.make_scenario", "geo.area",
               "geo.horizon", "solar.sky", "solar.field", "core.suitability",
               "core.compact", "core.greedy", "core.evaluate", "grid.place",
               "serve.prepare_hit", "serve.prepare_miss"]


class BenchError(Exception):
    pass


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


# ---- Statistics --------------------------------------------------------------

def median(values):
    return statistics.median(values) if values else 0.0


def nearest_rank(values, q):
    """The q-quantile (0 < q <= 1) by nearest rank: a sample, never an
    interpolation."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# Serve latency percentiles are taken per window of consecutive requests
# and the median over windows is reported, so one burst of scheduler
# jitter moves one window, not the result.  A window holds at least this
# many requests: >= 10 samples beyond p99.
WINDOW_REQUESTS = 1000


def windowed_quantile(values, q):
    """Median over consecutive windows of >= WINDOW_REQUESTS samples (one
    window when there are fewer) of each window's nearest-rank q-quantile."""
    k = max(1, len(values) // WINDOW_REQUESTS)
    cuts = [len(values) * i // k for i in range(k + 1)]
    return median([nearest_rank(values[cuts[i]:cuts[i + 1]], q)
                   for i in range(k)])


# ---- Build and processes -----------------------------------------------------

def build():
    for need in ("src/CMakeLists.txt", "examples/pvfp_city.cpp",
                 "examples/pvfp_serve.cpp", "CMakeLists.txt"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError(f"repository source {need} not found: run from "
                             "a checkout of the repository")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "perfbench-build.log")
    jobs = str(max(1, os.cpu_count() or 1))
    with open(log_path, "w") as out:
        steps = [["cmake", "-S", HERE, "-B", BUILD],
                 ["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "example_pvfp_city", "example_pvfp_serve",
                  "perfbench_driver"]]
        for step in steps:
            if subprocess.call(step, stdout=out, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise BenchError("build failed: " + " ".join(step))


def env_for(threads):
    env = dict(os.environ)
    env["PVFP_THREADS"] = str(threads)
    env.pop("PVFP_SIMD", None)
    env.pop("PVFP_OBS", None)
    env.pop("PVFP_OBS_TRACE", None)
    return env


def run(cmd, threads, stdout_path=None, ok_codes=(0,)):
    """Run one program to completion; returns (wall_s, peak_rss_mb)."""
    out = open(stdout_path, "wb") if stdout_path else subprocess.DEVNULL
    try:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stdin=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, env=env_for(threads))
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if stdout_path:
            out.close()
    if proc.returncode not in ok_codes:
        raise BenchError(f"{os.path.basename(cmd[0])} exited "
                         f"{proc.returncode}: {err.decode()[-2000:]}")
    return wall, usage.ru_maxrss / 1024.0


def sha256_file(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def read_lines(path):
    with open(path, "rb") as f:
        return f.read().split(b"\n")


def corrupt_file(path):
    """Flip one digit of the file (the self-test's injected defect)."""
    with open(path, "rb") as f:
        data = bytearray(f.read())
    for i in range(len(data) // 2, len(data)):
        if 48 <= data[i] <= 57:
            data[i] = 48 + (data[i] - 47) % 10
            break
    with open(path, "wb") as f:
        f.write(data)


def mismatched_lines(path, ref_path):
    got, want = read_lines(path), read_lines(ref_path)
    bad = sum(1 for a, b in zip(got, want) if a != b)
    return bad + abs(len(got) - len(want))


def stamp_config(workload, seed, threads, extra):
    cache = {}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":")[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "?")
    try:
        version = subprocess.run([compiler, "-dumpfullversion"],
                                 capture_output=True, text=True).stdout.strip()
        compiler = f"{os.path.basename(compiler)} {version}"
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True).stdout.strip()
    except OSError:
        commit = ""
    info = json.loads(subprocess.run([DRIVER_BIN, "info"], env=env_for(threads),
                                     capture_output=True, text=True,
                                     check=True).stdout)
    config = {"workload": workload, "seed": seed,
              "git_commit": commit or "unknown (not a git checkout)",
              "build_type": cache.get("CMAKE_BUILD_TYPE", "?"),
              "cxx_flags": cache.get("CMAKE_CXX_FLAGS_RELASSERT", "?"),
              "compiler": compiler, "simd": info["simd"],
              "PVFP_THREADS": threads, "nproc": os.cpu_count(),
              "minutes": 15, "stride": 4, "sectors": 72}
    config.update(extra)
    return config


# ---- Fixture city ------------------------------------------------------------

def make_fixture(work, name, seed, gen_roofs, roofs, target_m2,
                 uncapped_roofs=0):
    """Generate a seeded fixture city and keep a seeded subset of `roofs`
    of its roofs whose footprint boxes add up to about target_m2, so the
    amount of work is nearly the same at every seed.  uncapped_roofs
    roofs on feeders without an export cap are kept first (grid_rank
    needs them).  The seed also fixes the roofs' popularity order."""
    directory = os.path.join(work, name)
    run([CITY_BIN, "--gen-fixture", directory, "--roofs", str(gen_roofs),
         "--seed", str(seed)], 1)
    with open(os.path.join(directory, "index.csv"), newline="") as f:
        raw = f.read().splitlines()
    header, rows = raw[0], raw[1:]
    records = []
    for line in rows:
        fields = next(csv.reader([line]))
        area = (float(fields[3]) - float(fields[1])) * \
            (float(fields[4]) - float(fields[2]))
        records.append((fields[0], area, line))
    with open(os.path.join(directory, "feeder.csv"), newline="") as f:
        feeder_raw = f.read().splitlines()
    caps, bus_feeder, roof_bus = {}, {}, {}
    for line in feeder_raw[1:]:
        fields = next(csv.reader([line]))
        if fields[0] == "feeder":
            caps[fields[1]] = float(fields[7])
        elif fields[0] == "bus":
            bus_feeder[fields[1]] = fields[2]
        elif fields[0] == "roof":
            roof_bus[fields[1]] = fields[8]

    rng = random.Random(seed * 7919 + 17)
    eligible = [r for r in records if MIN_ROOF_M2 <= r[1] <= MAX_ROOF_M2]
    rng.shuffle(eligible)
    uncapped = [r for r in eligible if caps[bus_feeder[roof_bus[r[0]]]] <= 0.0]
    # The forced roofs sit on distinct feeders, one roof each, and their
    # own boxes come closest to their share of the target, so grid_rank's
    # work is alike at every seed.
    picks = [pick for pick in (rng.sample(uncapped, uncapped_roofs)
                               for _ in range(400))
             if len({bus_feeder[roof_bus[r[0]]] for r in pick}) == len(pick)] \
        if len(uncapped) >= uncapped_roofs > 0 else []
    forced = min(picks, key=lambda pick: abs(sum(r[1] for r in pick) -
                                             target_m2 * uncapped_roofs /
                                             roofs)) if picks else []
    # With forced roofs, no other roof joins their feeders: grid_rank's
    # work stays the same at every seed.
    rest = [r for r in eligible if not forced
            or caps[bus_feeder[roof_bus[r[0]]]] > 0.0]
    need = roofs - len(forced)
    if len(forced) < uncapped_roofs or len(rest) < need:
        raise BenchError("fixture too small for the workload")
    # Of many seeded draws, the subset whose boxes come closest to target.
    chosen = min((forced + rng.sample(rest, need) for _ in range(400)),
                 key=lambda pick: abs(sum(r[1] for r in pick) - target_m2))
    total = sum(r[1] for r in chosen)
    keep = {r[0] for r in chosen}
    with open(os.path.join(directory, "index.csv"), "w", newline="") as f:
        f.write("\n".join([header] + [r[2] for r in records if r[0] in keep])
                + "\n")
    kept_feeder = [line for line in feeder_raw
                   if not line.startswith("roof,")
                   or next(csv.reader([line]))[1] in keep]
    with open(os.path.join(directory, "feeder.csv"), "w", newline="") as f:
        f.write("\n".join(kept_feeder) + "\n")
    for stale in ("index.json", "feeder.json"):
        path = os.path.join(directory, stale)
        if os.path.exists(path):
            os.remove(path)
    ids = [r[0] for r in records if r[0] in keep]
    uncapped_feeders = sorted({bus_feeder[roof_bus[i]] for i in ids
                               if caps[bus_feeder[roof_bus[i]]] <= 0.0})
    # Popularity order: of many seeded orders, the one whose most popular
    # quarter of roofs comes closest to a quarter of the area, so the
    # hot roofs' work is alike at every seed.
    area_of = {r[0]: r[1] for r in chosen}
    hot = hot_roofs(len(ids))
    popular = min((rng.sample(ids, len(ids)) for _ in range(400)),
                  key=lambda order: abs(sum(area_of[i] for i in order[:hot])
                                        - total * hot / len(ids)))
    return {"dir": directory, "index": os.path.join(directory, "index.csv"),
            "feeders": os.path.join(directory, "feeder.csv"), "ids": ids,
            "popular": popular, "area_m2": total,
            "uncapped_feeders": uncapped_feeders}


# ---- Trace analysis ------------------------------------------------------------

def analyse_trace(trace_path, counts):
    """Per-layer self times, attribution and exact counts from one traced
    driver run."""
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    child_time = [0.0] * len(events)
    for e in events:
        parent = e["args"]["parent"]
        if parent >= 0 and events[parent]["tid"] == e["tid"]:
            child_time[parent] += e["dur"]
    self_ms = {}
    top_us = 0.0
    for i, e in enumerate(events):
        self_ms.setdefault(e["name"], []).append(
            (e["dur"] - child_time[i]) / 1e3)
        if e["args"]["parent"] < 0 and e["tid"] == 0:
            top_us += e["dur"]
    wall_s = counts["wall_s"]
    return {"self_ms": self_ms,
            "unattributed_frac": max(0.0, wall_s - top_us / 1e6) / wall_s,
            "pool_idle_frac": max(0.0, 1.0 - counts["cpu_s"] /
                                  (counts["threads"] * wall_s)),
            "counts": counts}


def layer_metrics(analysis, overhead_frac, dispatch_ms):
    self_ms, counts = analysis["self_ms"], analysis["counts"]
    m = {}
    for span in LAYER_SPANS:
        values = self_ms.get(span, [])
        m[span + "_ms"] = (sum(values), "ms")
        m[span + ".call_p50_ms"] = (median(values), "ms")
    cell_sectors = counts["geo.horizon.cell_sectors"]
    cell_steps = counts["core.suitability.cell_steps"]
    m["geo.horizon.cell_sectors"] = (cell_sectors, "count")
    m["geo.horizon.ns_per_cell_sector"] = (
        m["geo.horizon_ms"][0] * 1e6 / cell_sectors
        if cell_sectors and m["geo.horizon_ms"][0] else 0.0, "ns")
    m["core.suitability.cell_steps"] = (cell_steps, "count")
    m["core.suitability.ns_per_cell_step"] = (
        m["core.suitability_ms"][0] * 1e6 / cell_steps
        if cell_steps and m["core.suitability_ms"][0] else 0.0, "ns")
    m["core.greedy.candidates"] = (counts["core.greedy.candidates"], "count")
    m["core.evaluate.module_steps"] = (counts["core.evaluate.module_steps"],
                                       "count")
    tiles = counts["gis.tile_cache.hits"] + counts["gis.tile_cache.misses"]
    m["gis.tile_cache_miss_ratio"] = (
        counts["gis.tile_cache.misses"] / tiles if tiles else 0.0, "ratio")
    prepares = counts["serve.resident.hits"] + counts["serve.resident.misses"]
    m["serve.hit_ratio"] = (
        counts["serve.resident.hits"] / prepares if prepares else 0.0, "ratio")
    m["serve.evictions"] = (counts["serve.resident.evictions"], "count")
    m["serve.dispatch_ms"] = (dispatch_ms, "ms")
    m["util.pool_idle_frac"] = (analysis["pool_idle_frac"], "ratio")
    m["bench.unattributed_frac"] = (analysis["unattributed_frac"], "ratio")
    m["bench.trace_overhead_frac"] = (overhead_frac, "ratio")
    return m


EXACT_COUNTS = ["core.suitability.cell_steps", "geo.horizon.cell_sectors",
                "core.greedy.candidates", "core.evaluate.module_steps",
                "gis.tile_cache.hits", "gis.tile_cache.misses",
                "serve.resident.hits", "serve.resident.misses",
                "serve.resident.evictions"]


def counts_repeat(ledgers):
    """True when every ledger holds the same exact counts."""
    return all(c[k] == ledgers[0][k] for c in ledgers for k in EXACT_COUNTS)


def print_ledger(ledgers):
    threads = sorted({c["threads"] for c in ledgers})
    print(f"  count ledger: {len(ledgers)} runs at PVFP_THREADS {threads}, "
          f"exact counts {'equal' if counts_repeat(ledgers) else 'DIFFER'}")


def ledger_threads(threads):
    """The thread count of the ledger's invariance run: 1, or 2 when the
    workload itself runs at 1 thread."""
    return 2 if threads == 1 else 1


def print_layer_table(metrics):
    print(f"  {'per-layer metric':<38} {'value':>16}  unit")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<38} {value:>16.6g}  {unit}")
    print("  (ROADMAP bar: stage sums within 2% of wall -> "
          f"bench.unattributed_frac = "
          f"{metrics['bench.unattributed_frac'][0]:.4f}; "
          f"trace overhead {metrics['bench.trace_overhead_frac'][0]:+.4f}; "
          "reported, not gated)")


# ---- Batch workloads -----------------------------------------------------------

def batch_metrics(jobs, units_per_job, setups):
    """End-to-end metrics of a batch workload: a request is one job."""
    walls = [w for w, _ in jobs]
    return {"wall_s": (median(walls), "s"),
            "setup_s": (median(setups), "s"),
            "p50_ms": (median(walls) * 1e3, "ms"),
            "p90_ms": (nearest_rank(walls, 0.90) * 1e3, "ms"),
            "p99_ms": (nearest_rank(walls, 0.99) * 1e3, "ms"),
            "throughput_rps": (units_per_job * len(jobs) / sum(walls), "1/s"),
            "peak_rss_mb": (max(r for _, r in jobs), "MiB")}


def city(work, seed, seconds, trace, tiny, corrupt):
    threads = CITY["threads"]
    fixture = make_fixture(work, "city", seed,
                           12 if tiny else CITY["gen_roofs"],
                           2 if tiny else CITY["roofs"],
                           150.0 if tiny else CITY["target_m2"])
    n = len(fixture["ids"])
    config = stamp_config("city", seed, threads, {
        "fixture_roofs": n, "fixture_area_m2": round(fixture["area_m2"], 1),
        "topologies": "8x2", "shard": 32, "program": "pvfp_city"})
    city_cmd = [CITY_BIN, "--tiles", fixture["dir"], "--index",
                fixture["index"]]
    driver_cmd = [DRIVER_BIN, "city", "--tiles", fixture["dir"], "--index",
                  fixture["index"]]
    ref = os.path.join(work, "ref.jsonl")
    failed, attempted, correct = 0, 0, True

    if not trace:
        # Set-up: a job whose one roof lies off the tile set, so it pays
        # start-up, tile scan, index load and the shared sky, and fails
        # its roof at once (pvfp_city then exits 1: every roof failed).
        probe = os.path.join(fixture["dir"], "index_setup.csv")
        with open(fixture["index"]) as f:
            header = f.readline()
        with open(probe, "w") as f:
            f.write(header + "setup_probe,0,0,10,10,45.07,7.69,\n")
        setups = []
        for _ in range(5):
            out = os.path.join(work, "setup.jsonl")
            setups.append(run([CITY_BIN, "--tiles", fixture["dir"], "--index",
                               probe, "--out", out], threads,
                              ok_codes=(1,))[0])
            if b'"status":"error"' not in read_lines(out)[0]:
                raise BenchError("set-up probe roof did not fail")
        # Reference by another path: the benchmark driver's call-by-call
        # replica of run_city.
        run(driver_cmd + ["--out", ref], threads)
        jobs, start = [], time.perf_counter()
        while len(jobs) < 3 or time.perf_counter() - start < seconds:
            out = os.path.join(work, f"job{len(jobs)}.jsonl")
            jobs.append(run(city_cmd + ["--out", out], threads))
            if corrupt and len(jobs) == 1:
                corrupt_file(out)
            bad = mismatched_lines(out, ref)
            errors = sum(1 for line in read_lines(out)
                         if b'"status":"error"' in line)
            failed += max(bad, errors)
            attempted += n
            correct = correct and bad == 0
            os.remove(out)
            if tiny:
                break
        metrics = batch_metrics(jobs, n, setups)
    else:
        # Reference by another path: the shipped pvfp_city, untraced.
        run(city_cmd + ["--out", ref], threads)
        untraced, traced, ledger = [], [], []
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < seconds:
            k = len(traced)
            out = os.path.join(work, f"traced{k}.jsonl")
            tr = os.path.join(work, f"trace{k}.json")
            cp = os.path.join(work, f"counts{k}.json")
            plain = os.path.join(work, f"plain{k}.json")
            untraced.append(run(driver_cmd + ["--out", out, "--counts-out",
                                              plain], threads)[0])
            traced.append(run(driver_cmd + ["--out", out, "--trace-out", tr,
                                            "--counts-out", cp], threads)[0])
            if corrupt and k == 0:
                corrupt_file(out)
            bad = mismatched_lines(out, ref)
            failed += bad
            attempted += n
            correct = correct and bad == 0
            ledger += [load_json(plain), load_json(cp)]
            if tiny:
                break
        other = os.path.join(work, "counts_other.json")
        run(driver_cmd + ["--out", os.path.join(work, "other.jsonl"),
                          "--counts-out", other], ledger_threads(threads))
        ledger.append(load_json(other))
        print_ledger(ledger)
        correct = correct and counts_repeat(ledger)
        best = traced.index(statistics.median_low(traced))
        analysis = analyse_trace(os.path.join(work, f"trace{best}.json"),
                                 load_json(os.path.join(work,
                                                        f"counts{best}.json")))
        metrics = layer_metrics(analysis, median(traced) / median(untraced) - 1,
                                0.0)
    if seed == GOLDEN_SEED and not tiny and not corrupt:
        want = load_json(os.path.join(HERE, "golden.json"))["city"]
        if sha256_file(ref) != want:
            correct = False
            failed += 1
    return config, metrics, attempted, failed, correct


def load_json(path):
    with open(path) as f:
        return json.load(f)


# ---- Serve workloads -----------------------------------------------------------

class Daemon:
    """One pvfp_serve process in pipe mode with a response reader thread."""

    def __init__(self, fixture, threads, budget_mb, log_path, obs=False):
        self.cmd = [SERVE_BIN, "--tiles", fixture["dir"], "--index",
                    fixture["index"], "--feeder-index", fixture["feeders"],
                    "--memory-budget-mb", str(budget_mb), "--log", log_path]
        env = env_for(threads)
        if obs:
            env["PVFP_OBS"] = "1"
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(self.cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE, bufsize=0,
                                     env=env)
        self.responses = []  # (recv_time, line)
        self.cv = threading.Condition()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()
        self.err = b""
        self.err_reader = threading.Thread(target=self._read_err, daemon=True)
        self.err_reader.start()

    def _read(self):
        for line in self.proc.stdout:
            now = time.perf_counter()
            with self.cv:
                self.responses.append((now, line.rstrip(b"\n")))
                self.cv.notify_all()
        with self.cv:
            self.cv.notify_all()

    def _read_err(self):
        self.err = self.proc.stderr.read()

    def send(self, line):
        self.proc.stdin.write(line.encode() + b"\n")
        return time.perf_counter()

    def wait_for(self, count, timeout=RESPONSE_TIMEOUT_S):
        deadline = time.perf_counter() + timeout
        with self.cv:
            while len(self.responses) < count:
                left = deadline - time.perf_counter()
                if left <= 0 or not self.reader.is_alive():
                    return False
                self.cv.wait(min(left, 0.5))
        return True

    def close(self):
        """Quit, wait for exit; returns (wall_s, peak_rss_mb, stderr)."""
        try:
            self.send('{"op":"quit"}')
            self.proc.stdin.close()
        except OSError:
            pass
        deadline = time.perf_counter() + RESPONSE_TIMEOUT_S
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                self.proc.kill()
                pid, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.005)
        wall = time.perf_counter() - self.start
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.reader.join()
        self.err_reader.join()
        return wall, usage.ru_maxrss / 1024.0, self.err.decode()


def request(**fields):
    return json.dumps(fields, separators=(",", ":"))


def hot_roofs(n):
    """How many of n roofs serve_churn's budget holds: a quarter."""
    return max(1, n // 4)


def warm_requests(workload, fixture):
    """The warm-up: serve_warm ranks every roof; serve_churn ranks the most
    popular roofs, one more than its budget holds, so it ends full."""
    if workload == "serve_warm":
        roofs = fixture["ids"]
    else:
        roofs = fixture["popular"][:hot_roofs(len(fixture["ids"])) + 1]
    return [request(op="rank", id=roof) for roof in roofs]


def plan_request(roof, shape):
    series, strings, portrait = shape
    if portrait:
        return request(op="plan", id=roof, series=series, strings=strings,
                       orientation="portrait")
    return request(op="plan", id=roof, series=series, strings=strings)


def warm_stream(fixture, rng):
    """serve_warm's endless stream of sessions: status, rank, every plan
    shape, grid_rank; the roof and the (uncapped) feeder from the seed."""
    while True:
        roof = rng.choice(fixture["ids"])
        yield request(op="status")
        yield request(op="rank", id=roof)
        for shape in PLAN_SHAPES:
            yield plan_request(roof, shape)
        yield request(op="grid_rank",
                      feeder=rng.choice(fixture["uncapped_feeders"]))


def zipf_weights(n, hot, hot_share):
    """Zipf weights 1/k^s of n ranks, with s (found by bisection) the
    exponent at which the first `hot` ranks carry hot_share of the mass."""
    lo, hi = 0.0, 16.0
    for _ in range(100):
        s = (lo + hi) / 2
        weights = [1.0 / (k + 1) ** s for k in range(n)]
        if sum(weights[:hot]) / sum(weights) < hot_share:
            lo = s
        else:
            hi = s
    return s, weights


def churn_stream(fixture, rng, hot_share):
    """serve_churn's endless stream: Zipf popularity ranks and ops from
    the fixed trace, each rank mapped onto the seed's popularity order."""
    trace = random.Random(TRACE_SEED)
    popular = fixture["popular"]
    _, weights = zipf_weights(len(popular), hot_roofs(len(popular)),
                              hot_share)
    cdf = list(itertools.accumulate(weights))
    while True:
        k = bisect.bisect_left(cdf, trace.random() * cdf[-1])
        roof = popular[min(k, len(popular) - 1)]
        yield request(op="rank", id=roof) if trace.random() < 0.5 \
            else plan_request(roof, rng.choice(PLAN_SHAPES))


def barrier_op(raw):
    """status and metrics: responses that depend on the session, not only
    on the request, so they are checked by shape, not against a replay."""
    return '"op":"status"' in raw or '"op":"metrics"' in raw


def strip_seq(line):
    """A response without its {"seq":N, envelope prefix."""
    return line.split(b",", 1)[1] if line.startswith(b'{"seq":') else line


def replay_reference(work, fixture, threads, requests):
    """Expected responses by another path: pvfp_serve --replay of a request
    log holding each distinct request once (responses are a pure function
    of the request; the replay's budget holds every roof)."""
    distinct = []
    for raw in requests:
        if raw not in distinct and not barrier_op(raw):
            distinct.append(raw)
    log_path = os.path.join(work, "replay-log.jsonl")
    with open(log_path, "w") as f:
        for seq, raw in enumerate(distinct):
            f.write(json.dumps({"seq": seq, "request": raw},
                               separators=(",", ":")) + "\n")
    out = os.path.join(work, "replay.jsonl")
    run([SERVE_BIN, "--tiles", fixture["dir"], "--index", fixture["index"],
         "--feeder-index", fixture["feeders"], "--memory-budget-mb", "4096",
         "--replay", log_path], threads, stdout_path=out)
    lines = read_lines(out)
    return {raw: strip_seq(lines[seq]) for seq, raw in enumerate(distinct)}


def check_responses(requests, responses, expected, n_roofs, corrupt):
    """Returns (failed, mismatched): failed counts error responses,
    mismatches against the replay and missing (timed-out) responses."""
    failed = mismatched = 0
    for k, raw in enumerate(requests):
        if k >= len(responses):
            failed += 1
            continue
        got = responses[k]
        if corrupt and k == len(requests) // 2:
            got = got.replace(b'"status":"ok"', b'"status":"OK"', 1)
        if '"op":"metrics"' in raw:
            bad = not got.startswith(b'{"seq":') or \
                b'"status":"ok"' not in got or b'"histograms"' not in got
        elif '"op":"status"' in raw:
            bad = not got.startswith(b'{"seq":') or \
                f'"roofs":{n_roofs},'.encode() not in got or \
                b'"status":"ok"' not in got
        else:
            bad = strip_seq(got) != expected[raw]
        mismatched += bad
        failed += bad or b'"status":"error"' in got
    return failed, mismatched


def parse_daemon_stats(stderr):
    """ResidentState counts from pvfp_serve's exit line."""
    m = re.search(r"(\d+) hit\(s\) / (\d+) miss\(es\), (\d+) eviction\(s\)",
                  stderr)
    if not m:
        raise BenchError("pvfp_serve printed no cache statistics")
    return {"serve.resident.hits": int(m.group(1)),
            "serve.resident.misses": int(m.group(2)),
            "serve.resident.evictions": int(m.group(3))}


def churn_budget_mb(fixture, threads, work):
    """A budget holding the quarter of the roofs that are most popular,
    plus half a roof: measured from a daemon's own byte accounting after
    ranking exactly those roofs."""
    hot = fixture["popular"][:hot_roofs(len(fixture["ids"]))]
    d = Daemon(fixture, threads, 1 << 16, os.path.join(work, "sizing.jsonl"))
    try:
        for roof in hot:
            d.send(request(op="rank", id=roof))
        d.send(request(op="status"))
        if not d.wait_for(len(hot) + 1):
            raise BenchError("sizing daemon timed out")
        status = json.loads(d.responses[-1][1])
    except BaseException:
        d.proc.kill()
        d.close()
        raise
    d.close()
    held = status["resident_bytes"]
    total = held["sky"] + held["prepared"] * (1 + 0.5 / len(hot))
    return math.ceil(total / 2 ** 20)


def serve_session(workload, fixture, threads, budget_mb, work, tag, rng,
                  seconds, measure, tiny, obs=False):
    """Launch, warm up, optionally run the measured phase, quit.
    Returns a dict with timings, requests and responses in seq order.
    With obs the daemon runs with telemetry on and a `metrics` request
    goes just before and just after the measured phase."""
    log_path = os.path.join(work, f"requests-{tag}.jsonl")
    d = Daemon(fixture, threads, budget_mb, log_path, obs)
    requests = [request(op="status")]
    sent = []

    def snapshot():
        requests.append(request(op="metrics"))
        d.send(requests[-1])
        if not d.wait_for(len(requests)):
            raise BenchError("metrics request timed out")

    try:
        d.send(requests[0])
        if not d.wait_for(1):
            raise BenchError("daemon did not answer status")
        # serve_warm pipelines its warm-up; serve_churn's is one request
        # at a time, so which roofs stay resident is exact.
        for raw in warm_requests(workload, fixture):
            d.send(raw)
            requests.append(raw)
            if workload == "serve_churn" and not d.wait_for(len(requests)):
                raise BenchError("warm-up timed out")
        if not d.wait_for(len(requests)):
            raise BenchError("warm-up timed out")
        setup_s = time.perf_counter() - d.start
        if obs:
            snapshot()
        first = len(requests)
        if measure:
            # One closed-loop client: the next request goes out when the
            # previous response is in.
            stream = warm_stream(fixture, rng) if workload == "serve_warm" \
                else churn_stream(fixture, rng, SERVE[workload]["hot_share"])
            t0 = time.perf_counter()
            while (len(sent) < 30 if tiny else
                   time.perf_counter() - t0 < seconds):
                raw = next(stream)
                sent.append(d.send(raw))
                requests.append(raw)
                if not d.wait_for(len(requests)):
                    break
        if obs:
            snapshot()
        with d.cv:
            responses = list(d.responses)
    except BaseException:
        d.proc.kill()
        d.close()
        raise
    wall, rss, stderr = d.close()
    latencies = [responses[first + k][0] - sent[k]
                 for k in range(len(sent)) if first + k < len(responses)]
    end = responses[-1][0] if len(responses) > first else time.perf_counter()
    return {"setup_s": setup_s, "wall_s": wall, "rss_mb": rss,
            "stderr": stderr, "requests": requests,
            "responses": [line for _, line in responses][:len(requests)],
            "first": first, "latencies": latencies,
            "interval_s": (end - sent[0]) if sent else 0.0}


def serve(workload, work, seed, seconds, trace, tiny, corrupt):
    cfg = SERVE[workload]
    threads = cfg["threads"]
    uncapped = 2 if workload == "serve_warm" else 0
    fixture = make_fixture(work, "city", seed, cfg["gen_roofs"],
                           3 if tiny else cfg["roofs"],
                           250.0 if tiny else cfg["target_m2"], uncapped)
    n = len(fixture["ids"])
    if workload == "serve_warm":
        budget_mb = cfg["budget_mb"]
        extra = {"client": "closed loop, 1 client",
                 "mix": "sessions: status, rank, plan x6 shapes, grid_rank",
                 "plan_shapes": PLAN_SHAPES,
                 "grid_rank_feeders": fixture["uncapped_feeders"]}
    else:
        budget_mb = churn_budget_mb(fixture, threads, work)
        zipf_s, _ = zipf_weights(n, hot_roofs(n), cfg["hot_share"])
        extra = {"client": "closed loop, 1 client",
                 "zipf_s": round(zipf_s, 4),
                 "zipf_hot_share": cfg["hot_share"],
                 "mix": "rank 50%, plan 50%", "plan_shapes": PLAN_SHAPES}
    extra.update({"fixture_roofs": n, "memory_budget_mb": budget_mb,
                  "fixture_area_m2": round(fixture["area_m2"], 1),
                  "program": "pvfp_serve (pipe mode)"})
    config = stamp_config(workload, seed, threads, extra)
    rng = random.Random(seed * 104729 + (1 if workload == "serve_warm" else 2))

    sessions = []
    if not trace:
        for k in range(3):
            sessions.append(serve_session(
                workload, fixture, threads, budget_mb, work, str(k),
                random.Random(rng.random()), seconds, k == 2, tiny))
    else:
        sessions.append(serve_session(workload, fixture, threads, budget_mb,
                                      work, "0", random.Random(rng.random()),
                                      seconds, True, tiny, obs=True))
    s = sessions[-1]
    requests, responses, first = s["requests"], s["responses"], s["first"]
    expected = replay_reference(work, fixture, threads, requests)
    failed, mismatched = check_responses(requests, responses, expected, n,
                                         corrupt)
    attempted = len(requests)
    correct = mismatched == 0
    live_counts = parse_daemon_stats(s["stderr"])

    if not trace:
        lat_ms = [x * 1e3 for x in s["latencies"]]
        metrics = {"wall_s": (s["wall_s"], "s"),
                   "setup_s": (median([x["setup_s"] for x in sessions]), "s"),
                   "p50_ms": (windowed_quantile(lat_ms, 0.50), "ms"),
                   "p90_ms": (windowed_quantile(lat_ms, 0.90), "ms"),
                   "p99_ms": (windowed_quantile(lat_ms, 0.99), "ms"),
                   "throughput_rps": (len(lat_ms) / s["interval_s"]
                                      if s["interval_s"] else 0.0, "1/s"),
                   "peak_rss_mb": (s["rss_mb"], "MiB")}
        windows = max(1, len(lat_ms) // WINDOW_REQUESTS)
        print(f"  measured requests: {len(lat_ms)} in {windows} window(s); "
              f"resident {live_counts}")
    else:
        # The traced driver repeats the whole logged session (warm-up and
        # measured requests, seq order; not the metrics requests) on an
        # in-process ResidentState.  Its responses must equal the live
        # ones, seq numbers aside.
        kept = [k for k, raw in enumerate(requests)
                if '"op":"metrics"' not in raw]
        # The untraced repetition and the other-thread-count run replay the
        # first quarter of the session (a full 1-thread replay would take
        # most of a run's time budget); the traced run checkpoints its
        # counts and wall time at the same request.
        prefix = max(1, len(kept) // 4)
        files = {}
        for name, count in (("full", len(kept)), ("prefix", prefix)):
            files[name] = os.path.join(work, f"requests-{name}.jsonl")
            with open(files[name], "w") as f:
                f.write("\n".join(requests[k] for k in kept[:count]) + "\n")
        cmd = [DRIVER_BIN, "serve", "--tiles", fixture["dir"], "--index",
               fixture["index"], "--feeders", fixture["feeders"],
               "--budget-mb", str(budget_mb)]
        trace_path = os.path.join(work, "trace.json")
        part = {name: os.path.join(work, f"{name}-counts.json")
                for name in ("traced", "plain", "other")}
        full_counts = os.path.join(work, "full-counts.json")
        runs = [("traced", "full", threads,
                 ["--trace-out", trace_path, "--counts-out", full_counts,
                  "--checkpoint", str(prefix), "--checkpoint-out",
                  part["traced"]]),
                ("plain", "prefix", threads, ["--counts-out", part["plain"]]),
                ("other", "prefix", ledger_threads(threads),
                 ["--counts-out", part["other"]])]
        mismatch = 0
        for name, requests_file, run_threads, extra in runs:
            out = os.path.join(work, f"{name}.jsonl")
            run(cmd + ["--requests", files[requests_file], "--out", out]
                + extra, run_threads)
            if corrupt and name == "traced":
                corrupt_file(out)
            got = read_lines(out)[:-1]
            mismatch += abs(len(got) - (len(kept) if requests_file == "full"
                                        else prefix))
            mismatch += sum(1 for j, line in enumerate(got)
                            if kept[j] >= len(responses) or
                            strip_seq(line) != strip_seq(responses[kept[j]]))
        failed += mismatch
        # Exact counts repeat across the runs and thread counts, and the
        # driver's resident hits/misses/evictions equal the live daemon's.
        counts = load_json(full_counts)
        ledger = [load_json(part[name]) for name in part]
        print_ledger(ledger)
        correct = correct and mismatch == 0 and counts_repeat(ledger) and \
            all(counts[k] == v for k, v in live_counts.items())
        analysis = analyse_trace(trace_path, counts)
        overhead = ledger[0]["wall_s"] / ledger[1]["wall_s"] - 1
        metrics = layer_metrics(analysis, overhead, dispatch_ms(s, requests))
    return config, metrics, attempted, failed, correct


def dispatch_ms(session, requests):
    """Mean time a measured request spends outside the daemon's request
    handler (parse, log, ring, batching, pipe, write), all from the one
    live session: the client's mean latency minus the mean handler time
    in the daemon's own latency histograms, diffed between the metrics
    snapshots taken just before and just after the measured phase."""
    snaps = [json.loads(session["responses"][k])
             for k, raw in enumerate(requests) if '"op":"metrics"' in raw]
    handled = [[0, 0] for _ in snaps]
    for snap, total in zip(snaps, handled):
        for name, h in snap["metrics"]["histograms"].items():
            if name.startswith("serve.latency_ns.") and \
                    name != "serve.latency_ns.metrics":
                total[0] += h["sum"]
                total[1] += h["count"]
    calls = handled[1][1] - handled[0][1]
    if not calls or not session["latencies"]:
        return 0.0
    handler_ms = (handled[1][0] - handled[0][0]) / calls / 1e6
    return statistics.fmean(session["latencies"]) * 1e3 - handler_ms


# ---- Entry points ----------------------------------------------------------------

def run_workload(args):
    build()
    work = os.path.join(ROOT, ".bench_work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        if args.workload == "city":
            result = city(work, args.seed, args.seconds, args.trace,
                          args.tiny, args.corrupt)
        else:
            result = serve(args.workload, work, args.seed, args.seconds,
                           args.trace, args.tiny, args.corrupt)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    config, metrics, attempted, failed, correct = result
    print("config " + json.dumps(config, sort_keys=True))
    if args.trace:
        print_layer_table(metrics)
    else:
        for name, (value, unit) in metrics.items():
            print(f"  {name:<16} {value:>14.6f}  {unit}")
    print(f"  fail_frac        {failed / max(1, attempted):>14.6f}  "
          f"({failed} of {attempted})")
    return {"correct": bool(correct),
            "attempted": max(1, attempted), "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def selftest():
    """Every workload in a tiny mode: all declared metrics with their
    units, and an injected output defect caught by the correctness gate."""
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            want = spec["per_layer" if trace else "end_to_end"]
            for corrupt in (False, True):
                cmd = [sys.executable, os.path.abspath(__file__),
                       "--workload", workload, "--seed", "3", "--seconds",
                       "1", "--trace", str(trace), "--tiny"]
                if corrupt:
                    cmd.append("--corrupt")
                proc = subprocess.run(cmd, capture_output=True, text=True)
                tag = f"{workload} trace={trace} corrupt={corrupt}"
                if proc.returncode != 0:
                    problems.append(f"{tag}: exit {proc.returncode}: "
                                    f"{proc.stderr[-800:]}")
                    continue
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                for m in want:
                    got = result["metrics"].get(m["name"])
                    if got is None or got["unit"] != m["unit"]:
                        problems.append(f"{tag}: metric {m['name']} missing "
                                        f"or not in {m['unit']}")
                extra = set(result["metrics"]) - {m["name"] for m in want}
                if extra:
                    problems.append(f"{tag}: undeclared metrics {sorted(extra)}")
                if corrupt and (result["failed"] == 0 or result["correct"]):
                    problems.append(f"{tag}: injected defect not caught")
                if not corrupt and (result["failed"] or not result["correct"]):
                    problems.append(f"{tag}: clean run reported failures")
                log(f"selftest {tag}: failed={result['failed']} "
                    f"attempted={result['attempted']}")
    for p in problems:
        log("SELFTEST FAIL " + p)
    print(json.dumps({"selftest": "fail" if problems else "ok",
                      "problems": len(problems)}))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=["city", "serve_warm", "serve_churn"])
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test size: a few roofs / requests")
    parser.add_argument("--corrupt", action="store_true",
                        help="inject one output defect (self-test)")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        try:
            build()
        except BenchError as e:
            log(f"perfbench: {e}")
            return 2
        return selftest()
    if not args.workload:
        parser.error("--workload is required")
    try:
        result = run_workload(args)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
