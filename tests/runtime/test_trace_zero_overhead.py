"""Tracing must be provably free when disabled (ISSUE 5 acceptance).

Two layers of protection:

* **Within this build**: a traced run and an untraced run of the same
  workload are bit-identical in arrays, makespans, per-processor
  clocks and ProcStats -- event emission is observation only.
* **Against the seed**: untraced runs still reproduce the goldens
  captured *before* the tracing subsystem existed
  (``tests/runtime/golden/trace_off_{fig2,lu}.json``: makespan,
  message/word totals, per-processor stats, array SHA-256) -- the
  instrumentation did not move a single charge.  Only stat fields
  present in the golden are compared, so fields added later (e.g. the
  decomposition buckets this PR introduced) don't invalidate the
  baseline.
"""

import dataclasses
import hashlib
import json
import pathlib

import numpy as np
import pytest

from repro.codegen import SPMDOptions
from repro.runtime import run_spmd

from .trace_workloads import VECTORIZE, WORKLOADS

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def assert_bit_identical(base, other, label):
    assert other.makespan == base.makespan, label
    assert other.clocks == base.clocks, label
    assert other.stats == base.stats, label
    for myp in base.arrays:
        for name in base.arrays[myp]:
            assert np.array_equal(
                other.arrays[myp][name],
                base.arrays[myp][name],
                equal_nan=True,
            ), f"{label}: array {name} differs on {myp}"


class TestTracedEqualsUntraced:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_tracing_changes_nothing_observable(self, name):
        build, params = WORKLOADS[name]
        for vec in VECTORIZE:
            spmd = build(SPMDOptions(vectorize=vec))
            off = run_spmd(spmd, params)
            on = run_spmd(spmd, params, trace=True)
            assert off.trace is None
            assert on.trace is not None and len(on.trace) > 0
            assert_bit_identical(off, on, f"{name} vectorize={vec}")

    def test_off_by_default_everywhere(self):
        build, params = WORKLOADS["pipe"]
        result = run_spmd(build(SPMDOptions()), params)
        assert result.trace is None


class TestSeedGoldens:
    """Untraced runs must stay bit-identical to the pre-PR machine."""

    @pytest.mark.parametrize("name", ["fig2", "lu"])
    def test_untraced_run_matches_pre_pr_golden(self, name):
        golden = json.loads(
            (GOLDEN_DIR / f"trace_off_{name}.json").read_text()
        )
        build, params = WORKLOADS[name]
        result = run_spmd(build(SPMDOptions()), params)
        assert result.makespan == golden["makespan"]
        assert result.total_messages == golden["total_messages"]
        assert result.total_words == golden["total_words"]
        for myp in sorted(result.stats):
            want = golden["stats"][repr(myp)]
            got = dataclasses.asdict(result.stats[myp])
            for key, value in want.items():
                assert got[key] == value, (
                    f"{name} {myp}: ProcStats.{key} was {value} at the "
                    f"seed, now {got[key]}"
                )
            digests = golden["array_sha256"][repr(myp)]
            for arr_name, digest in digests.items():
                actual = hashlib.sha256(
                    result.arrays[myp][arr_name].tobytes()
                ).hexdigest()
                assert actual == digest, (
                    f"{name} {myp}: array {arr_name} drifted from the "
                    f"pre-PR golden"
                )
