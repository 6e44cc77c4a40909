"""serve_warm: the compile server answering from a populated cache.

Closed loop, one client, in-process ``CompileServer.handle_line``.  The
result cache, the serializer and the server do the work and the
polyhedral engine next to none -- the mirror of ``compile_cold``: a
cache-tier change shows here and must not cost ``compile_cold``, and
the other way round.
"""

import json
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass

from repro.codegen import SPMDOptions
from repro.core import (
    compile_distributed,
    dump_result,
    results_equal,
)
from repro.lang import parse
from repro.polyhedra import stats as poly_stats
from repro.service import CompileServer
from repro.service.server import comps_from_blocks

from spans import Untraced

from common import (
    BLOCK_VAR,
    SOURCES,
    Op,
    clear_compiler_caches,
    model_metrics,
    rng_for,
    verification_run,
)

NAME = "serve_warm"

#: 24 distinct compile jobs (LU block-distributed on ``i2``: the line
#: protocol has no ``onto``)
CATALOG = tuple(
    (name, block, vectorize)
    for name in ("fig2", "fig8", "stencil", "lu")
    for block in (8, 16, 32)
    for vectorize in (False, True)
)

REQUESTS_PER_ROUND = 500
ZIPF_S = 1.1


@dataclass
class State:
    cache_dir: str
    server: CompileServer
    array_seed: int
    #: per catalog job: (comps, options, fresh CompileResult, request line)
    jobs: list
    #: catalog indices, one per request of a round, Zipf-distributed
    trace: list


def setup(seed, scratch):
    rng = rng_for(seed, NAME)
    cache_dir = tempfile.mkdtemp(prefix="serve-cache-", dir=scratch)
    clear_compiler_caches()
    jobs = []
    for index, (name, block, vectorize) in enumerate(CATALOG):
        blocks = {BLOCK_VAR[name]: block}
        program = parse(SOURCES[name], name=name)
        comps = comps_from_blocks(program, blocks)
        options = SPMDOptions(vectorize=vectorize)
        fresh = compile_distributed(
            program, comps, options=options, cache_dir=cache_dir
        )
        line = json.dumps({
            "id": index,
            "program": SOURCES[name],
            "name": name,
            "blocks": blocks,
            "options": {"vectorize": vectorize},
            "emit": "python",
        })
        jobs.append((comps, options, fresh, line))
    # popularity rank -> job is a seed-drawn permutation of the catalog;
    # every job is requested at least once so each has a time every round
    by_rank = list(range(len(CATALOG)))
    rng.shuffle(by_rank)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(CATALOG))]
    trace = by_rank + rng.choices(
        by_rank, weights, k=REQUESTS_PER_ROUND - len(CATALOG)
    )
    rng.shuffle(trace)
    return State(
        cache_dir, CompileServer(cache_dir=cache_dir),
        rng.randrange(2**31), jobs, trace,
    )


def teardown(state):
    shutil.rmtree(state.cache_dir, ignore_errors=True)


def _label(index):
    name, block, vectorize = CATALOG[index]
    return f"{name}/b{block}{'v' if vectorize else ''}"


def ops(state):
    # times are pooled per catalog job, so ``op_s`` does not depend on
    # how often the seed's Zipf draw asks for the cheap jobs
    return [
        Op(f"req{position}", _label(index),
           lambda tr, line=state.jobs[index][3]: tr.call(
               "service.server.request", state.server.handle_line, line))
        for position, index in enumerate(state.trace)
    ]


def check(state, _op, result):
    reply = json.loads(result)
    if not reply.get("ok"):
        return False
    fresh = state.jobs[reply["id"]][2]
    return reply["from_cache"] and reply["code"] == fresh.spmd.source


def verify(state, _results):
    """Every cached artifact must equal its fresh compile and compute
    what the interpreter computes; the server must have answered from
    the cache."""
    failed = 0
    runs, sources = [], []
    for (name, _block, _vec), (comps, options, fresh, _line) in zip(
        CATALOG, state.jobs
    ):
        program = fresh.spmd.program
        cached = compile_distributed(
            program, comps, options=options, cache_dir=state.cache_dir
        )
        ok, run = verification_run(
            name, cached.spmd, comps, state.array_seed
        )
        failed += not (
            ok
            and not fresh.from_cache
            and cached.from_cache
            and results_equal(cached, fresh)
        )
        runs.append(run)
        sources.append(cached.spmd.source)
    failed += state.server.stats()["hit_rate"] < 0.99
    return len(CATALOG) + 1, failed, model_metrics(runs, sources)


def layers(state, _results, _exact):
    """Two more untraced rounds (1000 requests, so ten samples lie
    beyond p99) for the request-latency distribution and the cache
    counters, plus the serializer timed directly."""
    before = poly_stats.snapshot()
    latencies = []
    for op in ops(state) * 2:
        start = time.perf_counter()
        op.run(Untraced)
        latencies.append(time.perf_counter() - start)
    delta = poly_stats.delta_since(before)
    start = time.perf_counter()
    blobs = [dump_result(fresh) for _c, _o, fresh, _l in state.jobs]
    dump_s = (time.perf_counter() - start) / len(blobs)
    cuts = statistics.quantiles(latencies, n=100)
    return {
        "core.serialize_dump_s": dump_s,
        "core.artifact_bytes": sum(len(blob) for blob in blobs),
        "polyhedra.disk_hits": delta["disk_cache_hits"],
        "polyhedra.disk_misses": delta["disk_cache_misses"],
        "service.server.hit_rate": state.server.stats()["hit_rate"],
        "service.server.request_p50_ms": cuts[49] * 1e3,
        "service.server.request_p99_ms": cuts[98] * 1e3,
        "service.server.requests_per_s": len(latencies) / sum(latencies),
    }
