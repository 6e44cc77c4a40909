"""Compile-service replay: what each cache tier buys.

A synthetic request stream -- ``REPRO_BENCH_REQUESTS`` (default 10,000)
compile requests, zipf-skewed over a catalog of the five conformance
workloads at varied block sizes and options, the way a compile server
sees a handful of hot programs and a long tail -- is replayed against
three configurations:

* ``no_cache``   -- every request is a true cold compile (in-memory
  projection/feasibility caches cleared per request, no disk store);
* ``memory``     -- the in-memory caches persist across requests (the
  process default), but nothing survives and no whole results are
  reused;
* ``disk``       -- the persistent content-addressed store
  (:mod:`repro.polyhedra.diskcache`) serves whole results after one
  cold pass.

Configurations that recompile every request cannot replay 10k requests
in benchmark time, so they serve a truncated prefix of the *same*
trace; the truncation is explicit in the output (``requests`` per row).
Latency percentiles are per-request; ``compiles_per_sec`` is
requests/wall over each config's replay.

Results merge into ``BENCH_poly.json`` as the ``compile_service``
section (read-modify-write; other benches own the other sections) with
one regression guard CI enforces: warm disk p50 must beat the cold p50
by ``WARM_FLOOR`` (10x).
"""

import json
import os
import random
import shutil
import tempfile
import time

from repro.core import compile_distributed, results_equal
from repro.polyhedra import (
    diskcache,
    feasibility_cache_clear,
    projection_cache_clear,
)
from workloads import service_job

BENCH_JSON = os.path.join(os.path.dirname(__file__), "..", "BENCH_poly.json")

REQUESTS = int(os.environ.get("REPRO_BENCH_REQUESTS", "10000"))
#: request budget for configs that pay a full compile per request
COLD_REQUESTS = max(24, REQUESTS // 250)
ZIPF_S = 1.1
SEED = 1993

WARM_FLOOR = 10.0

#: the catalog of distinct jobs: (workload, block, vectorize)
CATALOG = [
    ("fig2", 8, False),
    ("fig2", 16, False),
    ("fig2", 32, False),
    ("fig8", 8, False),
    ("fig8", 16, False),
    ("lu", 16, False),
    ("lu", 16, True),
    ("pipe", 8, False),
    ("pipe", 16, False),
    ("stencil", 8, False),
    ("stencil", 16, False),
    ("stencil", 32, False),
]


def build_trace(n):
    """Zipf-skewed request stream over the catalog (deterministic)."""
    rng = random.Random(SEED)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(CATALOG))]
    return rng.choices(range(len(CATALOG)), weights=weights, k=n)


def _percentile(sorted_values, q):
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[idx]


def _row(name, latencies, wall, requests, note=""):
    lat = sorted(latencies)
    return {
        "config": name,
        "requests": requests,
        "p50_ms": _percentile(lat, 0.50) * 1e3,
        "p95_ms": _percentile(lat, 0.95) * 1e3,
        "compiles_per_sec": requests / wall if wall else 0.0,
        "wall_seconds": wall,
        "note": note,
    }


def _clear_memory_caches():
    projection_cache_clear()
    feasibility_cache_clear()


def _compile(job, cache_dir=None):
    program, comps, options = job
    return compile_distributed(
        program, comps, options=options, cache_dir=cache_dir
    )


def replay_no_cache(trace):
    jobs = [service_job(*spec) for spec in CATALOG]
    latencies = []
    start = time.perf_counter()
    for idx in trace[:COLD_REQUESTS]:
        _clear_memory_caches()
        t0 = time.perf_counter()
        _compile(jobs[idx])
        latencies.append(time.perf_counter() - t0)
    wall = time.perf_counter() - start
    return _row(
        "no_cache", latencies, wall, len(latencies),
        note=f"truncated to {COLD_REQUESTS} of {len(trace)} requests",
    )


def replay_memory(trace):
    jobs = [service_job(*spec) for spec in CATALOG]
    _clear_memory_caches()
    for job in jobs:  # warm the in-memory caches once
        _compile(job)
    latencies = []
    start = time.perf_counter()
    for idx in trace[:COLD_REQUESTS]:
        t0 = time.perf_counter()
        _compile(jobs[idx])
        latencies.append(time.perf_counter() - t0)
    wall = time.perf_counter() - start
    return _row(
        "memory", latencies, wall, len(latencies),
        note=f"truncated to {COLD_REQUESTS} of {len(trace)} requests",
    )


def replay_disk(trace, cache_dir):
    """One cold pass populates the store; the full trace replays warm.

    Returns ``(cold_row, warm_row, sample_pairs)`` where sample_pairs
    are (fresh, cached) results for bit-identity checking.
    """
    jobs = [service_job(*spec) for spec in CATALOG]
    _clear_memory_caches()
    cold_lat = []
    fresh = []
    start = time.perf_counter()
    for job in jobs:
        t0 = time.perf_counter()
        fresh.append(_compile(job, cache_dir=cache_dir))
        cold_lat.append(time.perf_counter() - t0)
    cold_wall = time.perf_counter() - start
    cold = _row(
        "disk_cold", cold_lat, cold_wall, len(jobs),
        note="one cold compile per distinct job, store population",
    )

    warm_lat = []
    cached_samples = {}
    start = time.perf_counter()
    for idx in trace:
        t0 = time.perf_counter()
        result = _compile(jobs[idx], cache_dir=cache_dir)
        warm_lat.append(time.perf_counter() - t0)
        if idx not in cached_samples:
            cached_samples[idx] = result
        assert result.from_cache, (
            f"warm replay of {CATALOG[idx]} missed the result cache"
        )
    wall = time.perf_counter() - start
    warm = _row("disk", warm_lat, wall, len(trace))
    pairs = [(fresh[idx], cached_samples[idx]) for idx in cached_samples]
    return cold, warm, pairs


def _merge_into_bench_json(section):
    """Read-modify-write: preserve sections other benches own."""
    data = {}
    if os.path.exists(BENCH_JSON):
        with open(BENCH_JSON) as fh:
            data = json.load(fh)
    data["compile_service"] = section
    with open(BENCH_JSON, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def test_compile_service_replay(report):
    trace = build_trace(REQUESTS)
    cache_dir = tempfile.mkdtemp(prefix="repro-bench-cache-")
    try:
        rows = [replay_no_cache(trace), replay_memory(trace)]
        cold, warm, pairs = replay_disk(trace, cache_dir)
        rows += [cold, warm]

        # cached artifacts must be bit-identical to fresh
        for fresh_result, cached in pairs:
            assert results_equal(fresh_result, cached)

        by = {r["config"]: r for r in rows}
        warm_speedup = by["disk_cold"]["p50_ms"] / by["disk"]["p50_ms"]

        report("Compile service: zipf replay over the conformance catalog")
        report(
            f"{len(CATALOG)} distinct jobs, {REQUESTS}-request trace "
            f"(zipf s={ZIPF_S}, seed {SEED})"
        )
        report(
            f"{'config':>10} {'requests':>8} {'p50':>9} {'p95':>9} "
            f"{'compiles/s':>11}"
        )
        for row in rows:
            report(
                f"{row['config']:>10} {row['requests']:>8} "
                f"{row['p50_ms']:>8.2f}ms {row['p95_ms']:>8.2f}ms "
                f"{row['compiles_per_sec']:>11.1f}"
            )
            if row["note"]:
                report(f"           ({row['note']})")
        report("")
        report(
            f"warm disk p50 over cold p50:        "
            f"{warm_speedup:.1f}x (floor {WARM_FLOOR:.0f}x)"
        )

        _merge_into_bench_json(
            {
                "catalog_jobs": len(CATALOG),
                "trace_requests": REQUESTS,
                "zipf_s": ZIPF_S,
                "rows": rows,
                "guards": {
                    "warm_over_cold_p50": round(warm_speedup, 2),
                    "warm_floor": WARM_FLOOR,
                },
            }
        )

        assert warm_speedup >= WARM_FLOOR, (
            f"warm disk p50 only {warm_speedup:.1f}x cold "
            f"(floor {WARM_FLOOR:.0f}x)"
        )
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
