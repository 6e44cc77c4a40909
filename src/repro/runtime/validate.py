"""End-to-end validation: generated SPMD output vs. sequential semantics.

The strongest whole-system check in the repository: run the node
program on the simulator, then verify that every array element is held
with the correct final value by the processor that owns it -- where the
owner of an element is the processor that executed its last write
(derived from the computation decompositions), or every final owner
under an explicit final data decomposition.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

import numpy as np

from ..decomp import DataDecomp
from ..ir import Program, live_out_writes, run
from .machine import Machine, RunResult


def run_spmd(
    spmd,
    params: Mapping[str, int],
    initial_data: Optional[Dict[str, DataDecomp]] = None,
    seed: int = 0,
    **machine_kwargs,
) -> RunResult:
    """Execute a generated SPMD program on the simulator.

    Every other keyword is a :class:`~.machine.Machine` option, with
    its default defined there: ``cost``; ``fault_plan`` /
    ``reliability`` / ``max_retries`` (reliability subsystem);
    ``checkpoint`` / ``max_restarts`` / ``log_bytes_cap`` (fail-stop
    crash tolerance: only the crashed rank restarts, fed from the
    sender message log; ``recovery="local"`` names that one mode);
    ``checksums`` (self-checking transports; ``None`` = on exactly
    when the plan can corrupt); ``trace=True`` (typed event trace on
    ``RunResult.trace``, off by default and observably free);
    ``timeout``.  Every run is driven by the one deterministic event
    scheduler; ``backend`` is accepted for existing callers, where
    ``"event"`` and ``"coop"`` both name it.
    """
    machine = Machine(spmd.program, spmd.space, params, **machine_kwargs)
    return machine.run(spmd.node, initial_data=initial_data, seed=seed)


def check_against_sequential(
    spmd,
    comps,
    params: Mapping[str, int],
    initial_data: Optional[Dict[str, DataDecomp]] = None,
    final_data: Optional[Dict[str, DataDecomp]] = None,
    seed: int = 0,
    rtol: float = 1e-9,
    **machine_kwargs,
) -> RunResult:
    """Run and assert correctness; returns the RunResult on success.

    For every location written during execution, the physical processor
    that executed the last write must hold the sequential value.  With
    ``final_data``, every final owner must hold it instead (requires
    finalization communication in the generated program).  Other
    keywords are :class:`~.machine.Machine` options (see
    :func:`run_spmd`).

    With a ``fault_plan``, this is the reliability subsystem's
    strongest end-to-end check: the generated program must produce the
    exact sequential answer *through* a lossy, duplicating, reordering
    network.
    """
    program: Program = spmd.program
    expected = run(program, params, seed=seed)
    result = run_spmd(
        spmd, params, initial_data=initial_data, seed=seed, **machine_kwargs
    )
    writers = live_out_writes(program, params)
    space = spmd.space
    mismatches = []
    for (array_name, location), write in writers.items():
        want = expected[array_name][location]
        if final_data and array_name in final_data:
            decomp = final_data[array_name]
            owners = [
                decomp.space.to_physical(tuple(o), params)
                for o in decomp.owners(location, params)
            ]
        else:
            stmt = program.statement(write.stmt)
            env = dict(params)
            env.update(zip(stmt.iter_vars, write.iteration))
            virtual = comps[write.stmt].owner(env)
            owners = [space.to_physical(virtual, params)]
        for owner in owners:
            got = result.arrays[tuple(owner)][array_name][location]
            if not np.isclose(got, want, rtol=rtol, equal_nan=False):
                mismatches.append(
                    (array_name, location, tuple(owner), want, got)
                )
    if mismatches:
        sample = mismatches[:10]
        raise AssertionError(
            f"{len(mismatches)} owned locations hold wrong values; "
            f"first: {sample}"
        )
    return result
