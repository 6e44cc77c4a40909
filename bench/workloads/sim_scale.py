"""sim_scale: simulator host throughput with the compiler idle.

Four precompiled programs separate the simulator's layers: a long
message pipeline (node execution + transport), LU (multicast, the most
events), a stencil that sends nothing (pure node-program execution,
transport bypassed) and a wide machine whose ranks are mostly parked
(scheduler).
"""

import time
from dataclasses import dataclass

from repro.codegen import SPMDOptions
from repro.core import compile_distributed
from repro.lang import parse
from repro.runtime import run_spmd

from spans import Untraced

from common import (
    BACKEND,
    IPSC,
    SOURCES,
    Op,
    block_for,
    build_comps,
    clear_compiler_caches,
    geomean,
    model_fractions,
    model_metrics,
    owned_values_match,
    rng_for,
    same_arrays,
)

NAME = "sim_scale"

#: op key -> (program, pinned parameters)
CASES = {
    "fig2-pipeline": ("fig2", {"N": 4096, "T": 40, "P": 64}),
    "lu-multicast": ("lu", {"N": 96, "P": 8}),
    "stencil-local": ("stencil", {"N": 4096, "T": 40, "P": 64}),
    "fig2-wide": ("fig2", {"N": 2048, "T": 3, "P": 256}),
}


@dataclass
class State:
    order: list
    array_seed: int
    #: key -> (comps, CompileResult, fault-free coop reference run)
    compiled: dict


def _build(name, params, options=None):
    program = parse(SOURCES[name], name=name)
    if name == "lu":
        block = None
    else:
        # one block per rank: every rank owns work, none owns two blocks
        hi = params["N"] + (1 if name == "stencil" else 0)
        block = block_for(0, hi, params["P"])
    comps = build_comps(name, program, block)
    return comps, compile_distributed(program, comps, options=options)


def setup(seed, _scratch):
    rng = rng_for(seed, NAME)
    order = list(CASES)
    rng.shuffle(order)
    array_seed = rng.randrange(2**31)
    clear_compiler_caches()
    compiled = {}
    for key, (name, params) in CASES.items():
        comps, result = _build(name, params)
        reference = run_spmd(
            result.spmd, params, cost=IPSC, backend="coop", seed=array_seed
        )
        compiled[key] = (comps, result, reference)
    return State(order, array_seed, compiled)


def teardown(_state):
    pass


def _run(state, key, tr, **kwargs):
    spmd = kwargs.pop("spmd", state.compiled[key][1].spmd)
    kwargs.setdefault("backend", BACKEND)
    return tr.call(
        "runtime.machine.run", run_spmd, spmd, CASES[key][1],
        cost=IPSC, seed=state.array_seed, **kwargs
    )


def ops(state):
    return [
        Op(key, key, lambda tr, key=key: _run(state, key, tr))
        for key in state.order
    ]


def check(state, op, result):
    reference = state.compiled[op.key][2]
    return (
        result.makespan == reference.makespan
        and result.total_messages == reference.total_messages
        and same_arrays(result, reference)
    )


def verify(state, results):
    """The coop reference every timed run was compared with is itself
    checked, once, against the sequential interpreter."""
    failed = 0
    for key, (_name, params) in CASES.items():
        comps, compiled, reference = state.compiled[key]
        failed += not owned_values_match(
            compiled.spmd, comps, params, reference, state.array_seed
        )
    runs = [results[key] for key in CASES]
    sources = [state.compiled[key][1].spmd.source for key in CASES]
    return len(CASES), failed, model_metrics(runs, sources)


def _timed(state, key, **kwargs):
    start = time.perf_counter()
    result = _run(state, key, Untraced, **kwargs)
    return time.perf_counter() - start, result


def _wall_ratio(state, base, variant):
    """Geometric mean over the four programs of (variant wall / event
    vectorized wall), one run a side."""
    return geomean(
        _timed(state, key, **variant(key))[0] / base[key]
        for key in state.order
    )


def layers(state, results, _exact):
    base, traced, events = {}, {}, 0
    for key in state.order:
        base[key], _run_result = _timed(state, key)
        traced[key], run = _timed(state, key, trace=True)
        events += len(run.trace)
    scalar = {
        key: _build(name, params, SPMDOptions(vectorize=False))[1].spmd
        for key, (name, params) in CASES.items()
    }
    runs = [results[key] for key in state.order]
    out = model_fractions(runs)
    out.update({
        "runtime.machine.sim_events": sum(r.sim_events for r in runs),
        "runtime.scheduler.wakeups": sum(r.sched_wakeups for r in runs),
        "runtime.scheduler.coop_over_event": _wall_ratio(
            state, base, lambda key: {"backend": "coop"}
        ),
        "runtime.node.scalar_over_vector": _wall_ratio(
            state, base, lambda key: {"spmd": scalar[key]}
        ),
        "runtime.trace.overhead_s": (
            sum(traced.values()) - sum(base.values())
        ) / len(base),
        "runtime.trace.events": events,
    })
    return out
