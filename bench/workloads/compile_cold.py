"""compile_cold: source text -> node program, every cache empty.

The compiler (dataflow, core, polyhedra, codegen) does all the work and
the simulator none, so a compile-phase optimisation shows here and
nowhere in ``sim_*``.  Ten jobs a round: each of the five programs at
the conformance decomposition (block 16; LU ``onto`` rows) and at one
seed-drawn block size (LU: blocked on ``i2``).
"""

from dataclasses import dataclass, field

from repro.core import canonical_bytes, compile_distributed
from repro.dataflow import all_trees
from repro.lang import parse
from repro.polyhedra import diskcache

from common import (
    BLOCK_POOL,
    SOURCES,
    Op,
    build_comps,
    clear_compiler_caches,
    compile_counters,
    model_metrics,
    pinned_block,
    rng_for,
    verification_run,
)

NAME = "compile_cold"


@dataclass
class State:
    #: (program name, block or None for LU onto, carries exact metrics?)
    jobs: list
    array_seed: int
    #: canonical bytes of each job's first compile; every later round
    #: must reproduce them (determinism, which the exact metrics rely on)
    reference: dict = field(default_factory=dict)


def setup(seed, _scratch):
    rng = rng_for(seed, NAME)
    jobs = []
    for name in SOURCES:
        jobs.append((name, pinned_block(name), True))
        jobs.append((name, rng.choice(BLOCK_POOL), False))
    rng.shuffle(jobs)
    return State(jobs, rng.randrange(2**31))


def teardown(_state):
    pass


def _key(name, block):
    return f"{name}/{'onto' if block is None else f'b{block}'}"


def _compile(name, block, tr):
    clear_compiler_caches()
    program = tr.call("lang.parse", parse, SOURCES[name], name=name)
    comps = tr.call("decomp.build", build_comps, name, program, block)
    result = tr.call("core.compile", compile_distributed, program, comps)
    return comps, result


def ops(state):
    return [
        Op(_key(name, block), _key(name, block),
           lambda tr, name=name, block=block: _compile(name, block, tr))
        for name, block, _exact in state.jobs
    ]


def check(state, op, result):
    _comps, compiled = result
    blob = canonical_bytes(compiled)
    return (
        diskcache.active() is None
        and not compiled.from_cache
        and state.reference.setdefault(op.key, blob) == blob
    )


def verify(state, results):
    """Run every artifact of the last round against the interpreter; the
    pinned-decomposition artifacts carry the exact metrics."""
    failed = 0
    runs, sources = [], []
    for name, block, exact in state.jobs:
        comps, compiled = results[_key(name, block)]
        ok, run = verification_run(
            name, compiled.spmd, comps, state.array_seed
        )
        failed += not ok
        if exact:
            runs.append(run)
            sources.append(compiled.spmd.source)
    return len(state.jobs), failed, model_metrics(runs, sources)


def layers(state, results, exact):
    compiled = [results[_key(n, b)][1] for n, b, _e in state.jobs]
    leaves = sum(
        len(tree.writer_leaves())
        for result in compiled
        for tree in all_trees(result.spmd.program).values()
    )
    out = compile_counters(compiled)
    out["dataflow.lwt_leaves"] = leaves
    out["core.words_per_message"] = (
        exact["comm_words"] / exact["comm_messages"]
    )
    return out
