"""Byte pins on how communication sets are lowered to send/receive code.

Every optimization switch that reaches the lowering in ``codegen/spmd``
is swept: the five conformance jobs under each of the 2^5 settings of
``aggregate``/``self_reuse``/``multicast``/``early_placement``/
``skip_same_physical`` and both values of ``early_puts``; Figure 2 with
block and replicated initial layouts, each with no final layout, a
smaller block final layout and a reversed one (the preload and
finalization sides); and LU with a row-block final layout.  A cell's
fingerprint is the C text, the Python node source, the plan
descriptions and the comm-set descriptions, so a refactor of the
lowering that changes any buffer name, guard, tag or loop shows here.

One test item per job keeps the tier-1 count honest; each compares a
BLAKE2 digest over all of that job's cells.  Regenerate (only for an
intended codegen change)::

    PYTHONPATH=src python -m tests.codegen.test_lowering_pins
"""

import hashlib
import itertools

import pytest

from repro.codegen import SPMDOptions, generate_spmd
from repro.decomp import block, replicated

from ..runtime.trace_workloads import JOBS, fig2_job, lu_job

#: (aggregate, self_reuse, multicast, early_placement, skip_same_physical)
SWITCHES = list(itertools.product([True, False], repeat=5))

OPTIONS = [
    SPMDOptions(
        aggregate=agg,
        self_reuse=reuse,
        multicast=mc,
        early_placement=early,
        skip_same_physical=skip,
        early_puts=puts,
    )
    for agg, reuse, mc, early, skip in SWITCHES
    for puts in (False, True)
]


def _fig2_layouts(arr):
    """The six (initial, final) layout pairs of Figure 2's array X."""
    initials = [block(arr, [16]), replicated(arr)]
    finals = [None, block(arr, [8]), block(arr, [16], reverse=[True])]
    return [(d_init, d_final) for d_init in initials for d_final in finals]


def _cells(job):
    """Yield ``(label, SPMD)`` for every cell of one pinned job."""
    if job in JOBS:
        for options in OPTIONS:
            program, comps = JOBS[job]()
            yield repr(options), generate_spmd(program, comps, options=options)
    elif job == "fig2-layouts":
        for index in range(6):
            for options in OPTIONS:
                program, comps = fig2_job()
                d_init, d_final = _fig2_layouts(program.arrays["X"])[index]
                yield f"{index} {options!r}", generate_spmd(
                    program,
                    comps,
                    initial_data={"X": d_init},
                    final_data=None if d_final is None else {"X": d_final},
                    options=options,
                )
    elif job == "lu-final":
        for options in OPTIONS:
            program, comps = lu_job()
            d_final = block(program.arrays["X"], [4], dims=[0])
            yield repr(options), generate_spmd(
                program, comps, final_data={"X": d_final}, options=options
            )
    else:
        raise KeyError(job)


def fingerprint(job: str) -> str:
    digest = hashlib.blake2b(digest_size=16)
    for label, spmd in _cells(job):
        for part in (
            label,
            spmd.c_text,
            spmd.source,
            *(plan.describe() for plan in spmd.plans),
            *(cs.describe() for cs in spmd.commsets),
        ):
            digest.update(part.encode())
            digest.update(b"\0")
    return digest.hexdigest()


PINS = {
    "fig2": "1727ed7cead2ccf573023fd6cff84afb",
    "fig8": "e36feca797c77b0f6d5f303552517465",
    "lu": "462061efd8ebb75eee55c5f8b520c0cb",
    "pipe": "20153048c271bcf4e7ef7f342f461760",
    "stencil": "4ed9deac1b3f6df782e01efa5424e19d",
    "fig2-layouts": "2133846829e43627ae9e309f453068aa",
    "lu-final": "70b4329dcf4a003614f6e43d0103bb9b",
}


@pytest.mark.parametrize("job", sorted(PINS))
def test_lowering_is_pinned(job):
    assert fingerprint(job) == PINS[job]


if __name__ == "__main__":
    for name in (*JOBS, "fig2-layouts", "lu-final"):
        print(f'    "{name}": "{fingerprint(name)}",')
