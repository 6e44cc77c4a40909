"""End-to-end validation: generated SPMD output vs. sequential semantics.

The strongest whole-system check in the repository: run the node
program on the simulator, then verify that every array element is held
with the correct final value by the processor that owns it -- where the
owner of an element is the processor that executed its last write
(derived from the computation decompositions), or every final owner
under an explicit final data decomposition.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

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
    ``RunResult.trace``, off by default and observably free; a
    caller-owned ``TraceBuffer`` is recorded into).  Every run is driven
    by the one deterministic event scheduler, with no wall-clock budget;
    ``backend`` is accepted for existing callers, where ``"event"`` and
    ``"coop"`` both name it.
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
    # one comparison per array; ``ordinal`` is the location's place in
    # writer order, which the reported sample follows
    by_array: Dict[str, List[tuple]] = {}
    for ordinal, ((array_name, location), write) in enumerate(writers.items()):
        by_array.setdefault(array_name, []).append((ordinal, location, write))
    count = 0
    sample: List[tuple] = []
    for array_name, entries in by_array.items():
        if final_data and array_name in final_data:
            rows = _final_owners(final_data[array_name], entries, params)
        else:
            rows = _writer_owners(program, comps, spmd.space, entries, params)
        bad, first = _compare(
            array_name, *rows, expected[array_name], result.arrays, rtol
        )
        count += bad
        sample = sorted(sample + first, key=lambda m: m[0])[:10]
    if count:
        raise AssertionError(
            f"{count} owned locations hold wrong values; "
            f"first: {[m[1] for m in sample]}"
        )
    return result


def _writer_owners(program, comps, space, entries, params):
    """Each location's owner: the physical processor that executed its
    last write, from the writer's computation decomposition evaluated
    over all of its instances at once."""
    rows_of: Dict[str, List[int]] = {}
    for row, (_, _, write) in enumerate(entries):
        rows_of.setdefault(write.stmt, []).append(row)
    owners = np.zeros((len(entries), len(space.pdims)), dtype=np.int64)
    for stmt_name, rows in rows_of.items():
        stmt = program.statement(stmt_name)
        its = np.array(
            [entries[r][2].iteration for r in rows], dtype=np.int64
        ).reshape(len(rows), stmt.depth)
        env = dict(params)
        env.update((v, its[:, k]) for k, v in enumerate(stmt.iter_vars))
        # owner() and to_physical() are elementwise over index vectors
        physical = space.to_physical(comps[stmt_name].owner(env), params)
        for d, column in enumerate(physical):
            owners[rows, d] = column
    return [e[0] for e in entries], [e[1] for e in entries], owners


def _final_owners(decomp: DataDecomp, entries, params):
    """Every final owner of each location, one row per (location,
    owner) in the decomposition's enumeration order."""
    ordinals, locations, owners = [], [], []
    for ordinal, location, _ in entries:
        for virtual in decomp.owners(location, params):
            ordinals.append(ordinal)
            locations.append(location)
            owners.append(decomp.space.to_physical(tuple(virtual), params))
    return ordinals, locations, np.array(owners, dtype=np.int64)


def _gather(array: np.ndarray, locs: np.ndarray) -> np.ndarray:
    """``array[loc]`` for every row of ``locs``."""
    if array.ndim == 0:
        return np.full(len(locs), array[()])
    return array[tuple(locs.T)]


def _compare(array_name, ordinals, locations, owners, want_array,
             arrays_by_rank, rtol):
    """One ``isclose`` over every (location, owner) row of one array.

    Returns the mismatch count and up to ten ``(ordinal, mismatch)``
    pairs, earliest first.
    """
    n = len(locations)
    locs = np.array(locations, dtype=np.intp).reshape(n, want_array.ndim)
    want = _gather(want_array, locs)
    # every rank's copy has the sequential arrays' dtype (Machine
    # allocates it from the same initial values)
    got = np.empty_like(want)
    ranks, inverse = np.unique(owners, axis=0, return_inverse=True)
    inverse = inverse.reshape(n)
    for k, rank in enumerate(ranks):
        rows = np.flatnonzero(inverse == k)
        local = arrays_by_rank[tuple(int(c) for c in rank)][array_name]
        got[rows] = _gather(local, locs[rows])
    bad = np.flatnonzero(~np.isclose(got, want, rtol=rtol, equal_nan=False))
    first = [
        (
            ordinals[r],
            (array_name, locations[r], tuple(int(c) for c in owners[r]),
             want[r], got[r]),
        )
        for r in bad[:10]
    ]
    return len(bad), first
