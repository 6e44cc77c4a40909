"""e2e_validate: source text -> validated arrays.

What a ``repro run`` user waits for: parse, decomposition, cold compile,
simulation and the check against sequential execution.  Every layer is
on the path, so this workload shows whether a layer's gain survives to
the user.
"""

from dataclasses import dataclass, field

from repro.core import compile_distributed
from repro.lang import parse
from repro.runtime import check_against_sequential

from common import (
    BACKEND,
    IPSC,
    SOURCES,
    Op,
    build_comps,
    clear_compiler_caches,
    compile_counters,
    model_fractions,
    model_metrics,
    owned_values_match,
    pinned_block,
    rng_for,
    same_arrays,
)

NAME = "e2e_validate"

#: pinned machine configurations, sized so no one program dominates
PARAMS = {
    "fig2": {"N": 1023, "T": 8, "P": 16},
    "fig8": {"N": 1023, "T": 8, "P": 16},
    "lu": {"N": 40, "P": 4},
    "pipe": {"N": 4095, "P": 16},
    "stencil": {"N": 1024, "T": 8, "P": 16},
}


@dataclass
class State:
    order: list
    array_seed: int
    #: each program's first RunResult; later rounds must equal it bit
    #: for bit
    reference: dict = field(default_factory=dict)


def setup(seed, _scratch):
    rng = rng_for(seed, NAME)
    order = list(SOURCES)
    rng.shuffle(order)
    return State(order, rng.randrange(2**31))


def teardown(_state):
    pass


def _validate(name, seed, tr):
    clear_compiler_caches()
    program = tr.call("lang.parse", parse, SOURCES[name], name=name)
    comps = tr.call(
        "decomp.build", build_comps, name, program, pinned_block(name)
    )
    compiled = tr.call("core.compile", compile_distributed, program, comps)
    run = tr.call(
        "runtime.validate.check",
        check_against_sequential,
        compiled.spmd,
        comps,
        PARAMS[name],
        seed=seed,
        cost=IPSC,
        backend=BACKEND,
    )
    return comps, compiled, run


def ops(state):
    return [
        Op(name, name,
           lambda tr, name=name: _validate(name, state.array_seed, tr))
        for name in state.order
    ]


def check(state, op, result):
    run = result[2]
    first = state.reference.setdefault(op.key, run)
    return run.makespan == first.makespan and same_arrays(run, first)


def verify(state, results):
    failed = 0
    for name in state.order:
        comps, compiled, run = results[name]
        failed += not owned_values_match(
            compiled.spmd, comps, PARAMS[name], run, state.array_seed
        )
    runs = [results[name][2] for name in state.order]
    sources = [results[name][1].spmd.source for name in state.order]
    return len(state.order), failed, model_metrics(runs, sources)


def layers(state, results, exact):
    runs = [results[name][2] for name in state.order]
    out = compile_counters([results[name][1] for name in state.order])
    out.update(model_fractions(runs))
    out["core.words_per_message"] = (
        exact["comm_words"] / exact["comm_messages"]
    )
    out["runtime.machine.sim_events"] = sum(r.sim_events for r in runs)
    out["runtime.scheduler.wakeups"] = sum(r.sched_wakeups for r in runs)
    return out
