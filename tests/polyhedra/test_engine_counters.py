"""Same search, fewer allocations.

The arithmetic kernel under the Omega test may get cheaper, but it must
keep asking the same questions in the same order: for the five
conformance programs at the pinned decomposition, a cold compile's
engine counters and the BLAKE2 digest of its ``canonical_bytes`` are
pinned to the values recorded on the commit *before* the kernel was
rebuilt (2ffd41e).  A change that moves any of them changed the search
or the artifact, not just its cost.  fig2's digest was re-pinned once,
when its compute loop became a range-kernel block call (the node
program text is part of the artifact); its counters did not move.
"""

import hashlib

import pytest

from repro.core import canonical_bytes, compile_distributed
from repro.polyhedra import (
    diskcache,
    feasibility_cache_clear,
    projection_cache_clear,
    stats,
)
from tests.runtime.trace_workloads import JOBS

FIELDS = (
    "eliminations",
    "pairs_considered",
    "pairs_materialized",
    "subsumed_dropped",
    "feasibility_cache_hits",
    "feasibility_cache_misses",
    "projection_cache_hits",
    "projection_cache_misses",
    "peak_system_size",
)

#: workload -> (blake2b-128 of canonical_bytes, counters in FIELDS order)
RECORDED = {
    "fig2": ("216d1f83a31ac78b65fccd591e1901c5",
             (127, 342, 333, 178, 6, 80, 0, 23, 19)),
    "fig8": ("74adf58e07cef5013277ee9c84ac5aa7",
             (379, 1081, 1052, 550, 26, 236, 0, 61, 19)),
    "lu": ("2831c05aa45b2b33c2aad9e85be399e6",
           (609, 1479, 1457, 971, 82, 372, 23, 114, 24)),
    "pipe": ("8f9fd2138640a490e02c7e66c5913de7",
             (120, 352, 352, 132, 4, 69, 0, 19, 14)),
    "stencil": ("b73308d7bc989d15aad306613eb6517a",
                (11, 18, 18, 5, 0, 8, 0, 4, 6)),
}


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_cold_compile_counters_and_digest(name):
    program, comps = JOBS[name]()
    assert diskcache.active() is None
    projection_cache_clear()
    feasibility_cache_clear()
    stats.reset()  # peak_system_size is a process-wide high-water mark
    result = compile_distributed(program, comps)
    digest, counters = RECORDED[name]
    assert dict(
        zip(FIELDS, (result.poly_stats[f] for f in FIELDS))
    ) == dict(zip(FIELDS, counters))
    assert hashlib.blake2b(
        canonical_bytes(result), digest_size=16
    ).hexdigest() == digest
