"""Run ledger: absolute totals for every conformance cell.

The conformance suites mostly compare two runs with each other, so a
change that moves both runs the same way (any codegen change does)
passes them.  This ledger pins what a fault-free run *produces*, one
row per ``(workload, vectorize, early_puts)`` cell of
``trace_workloads.WORKLOADS`` at its pinned parameters:

* ``total_messages``, ``total_words`` and ``makespan``;
* the finish clock of each rank;
* the words sent under each comm-set label (the first element of a
  message tag), which sum to ``total_words``;
* a sha256 of the final arrays (every rank, every array, raw bytes).

A failing row names the fields and the comm-set labels that moved.

Regenerate the golden (only when a behaviour change is intended, and
show the diff with the change)::

    PYTHONPATH=src python -m tests.runtime.test_run_ledger
"""

import json
import pathlib
from collections import Counter

import pytest

from repro.runtime import run_spmd

from .test_transport_ledger import _arrays_digest
from .trace_workloads import VECTORIZE, WORKLOADS, compiled_spmd

GOLDEN = pathlib.Path(__file__).parent / "golden" / "ledger.json"

#: the trace kinds of a message's first transmission (a ``multicast``
#: event only marks the fan-out; each destination gets its own ``send``)
FIRST_TRANSMISSIONS = ("send", "put")

ROWS = [
    (workload, vectorize, early_puts)
    for workload in sorted(WORKLOADS)
    for vectorize in VECTORIZE
    for early_puts in (False, True)
]


def _row_id(row):
    workload, vectorize, early_puts = row
    return (
        f"{workload}/{'vector' if vectorize else 'scalar'}"
        f"/{'early_puts' if early_puts else 'late_puts'}"
    )


def words_by_label(trace):
    """{comm-set label: words first transmitted under it}."""
    words = Counter()
    for event in trace.events():
        if event.kind in FIRST_TRANSMISSIONS:
            words[event.tag[0]] += event.words
    return dict(sorted(words.items()))


def ledger_row(workload, vectorize, early_puts):
    """The ledger entry for one fault-free run (plain JSON data)."""
    _build, params = WORKLOADS[workload]
    result = run_spmd(
        compiled_spmd(workload, vectorize, early_puts), params, trace=True
    )
    return {
        "arrays_sha256": _arrays_digest(result),
        "clocks": {
            repr(myp): clock for myp, clock in sorted(result.clocks.items())
        },
        "makespan": result.makespan,
        "total_messages": result.total_messages,
        "total_words": result.total_words,
        "words_by_label": words_by_label(result.trace),
    }


def _golden():
    return json.loads(GOLDEN.read_text())


def _moved(got, want):
    """The fields and labels on which ``got`` differs from ``want``."""
    moved = [key for key in sorted(want) if got.get(key) != want[key]]
    labels = got["words_by_label"], want["words_by_label"]
    moved += [
        f"label {label}: {labels[1].get(label, 0)} -> "
        f"{labels[0].get(label, 0)} words"
        for label in sorted(set(labels[0]) | set(labels[1]))
        if labels[0].get(label) != labels[1].get(label)
    ]
    return moved


def test_golden_has_exactly_the_ledger_rows():
    golden = _golden()
    assert sorted(golden) == sorted(_row_id(row) for row in ROWS)
    for row_id, row in golden.items():
        assert sum(row["words_by_label"].values()) == row["total_words"], row_id


@pytest.mark.parametrize("row", ROWS, ids=_row_id)
def test_ledger_row_unchanged(row):
    want = _golden()[_row_id(row)]
    # a JSON round trip turns the computed row into the golden's types
    got = json.loads(json.dumps(ledger_row(*row)))
    assert got == want, (
        f"{_row_id(row)} moved: {'; '.join(_moved(got, want))}. If "
        f"intended, regenerate with "
        f"PYTHONPATH=src python -m tests.runtime.test_run_ledger"
    )


def _regenerate():
    rows = {_row_id(row): ledger_row(*row) for row in ROWS}
    GOLDEN.write_text(json.dumps(rows, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(rows)} rows to {GOLDEN}")


if __name__ == "__main__":
    _regenerate()
