"""Transport ledger: every reliability mode pinned on two workloads.

The conformance grid (:mod:`.trace_workloads`) compares only the two
full-service transports with each other; ``direct`` and
``unreliable`` are deliberately absent there, so nothing else pins
their traces.  This ledger does, for all four modes at once: one row
per ``(workload, mode, fault scenario)`` records

* a sha256 of the final arrays (every rank, every array, raw bytes);
* the per-rank finish clocks;
* every :class:`~repro.runtime.ProcStats` field per rank;
* a sha256 of the full normalized trace over every event kind (which
  covers each event's ``seq``, ``attempt`` and ``note``).

A run that is expected to fail (``unreliable`` losing a message
deadlocks; ``direct`` detecting corruption raises) records the
exception type and message instead.

Scenarios: no fault plan; drop + duplicate + reorder + ack loss;
payload corruption; and, for the two ARQ modes only, one scheduled
crash recovered from ``CheckpointPolicy(every_ops=...)`` snapshots.
Workloads: fig2 and LU at the pinned parameters of
``trace_workloads.WORKLOADS``.

Regenerate the golden (only when a behaviour change is intended)::

    PYTHONPATH=src python -m tests.runtime.test_transport_ledger
"""

import dataclasses
import hashlib
import json
import pathlib

import numpy as np
import pytest

from repro.runtime import CheckpointPolicy, FaultPlan, ProcStats, run_spmd

from .trace_workloads import WORKLOADS, compiled_spmd

GOLDEN = pathlib.Path(__file__).parent / "golden" / "transport_ledger.json"

MODES = ("direct", "unreliable", "reliable", "onesided")
ARQ_MODES = ("reliable", "onesided")

#: scheduled crash per workload: ``(rank, model time, every_ops)``,
#: each time inside rank 1's fault-free lifetime
CRASHES = {"fig2": (1, 1500.0, 20), "lu": (1, 12000.0, 25)}


def _scenario(workload, scenario):
    """``(fault_plan, checkpoint_policy)`` for one scenario."""
    if scenario == "clean":
        return None, None
    if scenario == "lossy":
        return FaultPlan(
            seed=3, drop_rate=0.1, dup_rate=0.1, reorder_rate=0.1,
            ack_drop_rate=0.1,
        ), None
    if scenario == "corrupt":
        return FaultPlan(seed=4, corrupt_rate=0.02), None
    rank, when, every = CRASHES[workload]
    return (
        FaultPlan(seed=5, crashes={rank: when}),
        CheckpointPolicy(every_ops=every),
    )


ROWS = [
    (workload, mode, scenario)
    for workload in ("fig2", "lu")
    for mode in MODES
    for scenario in ("clean", "lossy", "corrupt", "crash")
    if scenario != "crash" or mode in ARQ_MODES
]


def _row_id(row):
    return "/".join(row)


def _arrays_digest(result):
    digest = hashlib.sha256()
    for myp in sorted(result.arrays):
        for name in sorted(result.arrays[myp]):
            arr = np.ascontiguousarray(result.arrays[myp][name])
            digest.update(repr((myp, name, arr.dtype.str, arr.shape)).encode())
            digest.update(arr.tobytes())
    return digest.hexdigest()


def ledger_row(workload, mode, scenario):
    """The ledger entry for one run (plain JSON data)."""
    _build, params = WORKLOADS[workload]
    plan, policy = _scenario(workload, scenario)
    try:
        result = run_spmd(
            compiled_spmd(workload), params, fault_plan=plan,
            reliability=mode, checkpoint=policy, trace=True,
        )
    except Exception as exc:  # noqa: BLE001 - the failure is the datum
        return {"error": type(exc).__name__, "message": str(exc)}
    trace = repr(result.trace.normalized()).encode()
    return {
        "arrays_sha256": _arrays_digest(result),
        "clocks": {repr(myp): clock for myp, clock in sorted(result.clocks.items())},
        "stats": {
            repr(myp): {
                field.name: getattr(stats, field.name)
                for field in dataclasses.fields(ProcStats)
            }
            for myp, stats in sorted(result.stats.items())
        },
        "trace_sha256": hashlib.sha256(trace).hexdigest(),
    }


def _golden():
    return json.loads(GOLDEN.read_text())


def test_golden_has_exactly_the_ledger_rows():
    assert sorted(_golden()) == sorted(_row_id(row) for row in ROWS)


def test_expected_failures_are_recorded():
    golden = _golden()
    assert golden["lu/unreliable/lossy"]["error"] == "DeadlockError"
    corrupt = golden["lu/direct/corrupt"]
    assert corrupt["error"] == "CorruptionError"
    assert "channel message #" in corrupt["message"]
    for row in ROWS:
        if row[1] in ARQ_MODES:
            assert "error" not in golden[_row_id(row)], row


@pytest.mark.parametrize("row", ROWS, ids=_row_id)
def test_ledger_row_unchanged(row):
    want = _golden()[_row_id(row)]
    # a JSON round trip turns the computed row into the golden's types
    got = json.loads(json.dumps(ledger_row(*row)))
    assert got == want, (
        f"{_row_id(row)} changed; if intended, regenerate with "
        f"PYTHONPATH=src python -m tests.runtime.test_transport_ledger"
    )


def _regenerate():
    rows = {_row_id(row): ledger_row(*row) for row in ROWS}
    GOLDEN.write_text(json.dumps(rows, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(rows)} rows to {GOLDEN}")


if __name__ == "__main__":
    _regenerate()
