"""Smoke test of the benchmark itself (not tier-1; a few minutes):

    python -m pytest bench -q

Runs ``bench/run.py --quick`` twice over all five workloads and checks
the schema, the metric names, that nothing failed, that the exact
metrics repeat, and that the runs leave the working tree clean.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
EXACT = ("makespan_model", "comm_messages", "comm_words", "node_source_bytes")


def _git_status():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    return subprocess.run(
        ["git", "status", "--short"], cwd=ROOT, check=True,
        stdout=subprocess.PIPE, text=True,
    ).stdout


def _quick_run(out):
    subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--seed", "7", "--quick", "--out", out],
        cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
    )
    with open(out) as handle:
        return json.load(handle)["runs"][-1]["workloads"]


def test_quick_twice():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    declared = {
        "trace0": [m["name"] for m in contract["end_to_end"]],
        "trace1": [m["name"] for m in contract["per_layer"]],
    }
    names = declared["trace0"] + declared["trace1"] + [
        w["name"] for w in contract["workloads"]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert "setup_s" in declared["trace0"]
    assert all(m["bound"] <= 0.25 for m in contract["end_to_end"])

    before = _git_status()
    out = os.path.join(HERE, "out", "smoke-results.json")
    if os.path.exists(out):
        os.remove(out)
    first, second = _quick_run(out), _quick_run(out)
    produced = set()
    for rows in (first, second):
        assert list(rows) == [w["name"] for w in contract["workloads"]]
        for row in rows.values():
            for mode, record in row.items():
                assert record["failed"] == 0 and record["attempted"] >= 1
                assert list(record["metrics"]) == declared[mode]
                for name, entry in record["metrics"].items():
                    assert isinstance(entry["value"], (int, float))
                    if entry["value"]:
                        produced.add(name)
            assert all(
                row["trace0"]["metrics"][m]["value"] > 0
                for m in declared["trace0"]
            )
    # every declared layer metric is produced by at least one workload
    assert produced >= set(declared["trace1"]) - {
        "polyhedra.disk_misses", "bench.trace_overhead_frac",
    }
    for workload in first:
        for metric in EXACT:
            assert (
                first[workload]["trace0"]["metrics"][metric]
                == second[workload]["trace0"]["metrics"][metric]
            ), (workload, metric)
    leftovers = [
        name for name in os.listdir(os.path.join(HERE, "out"))
        if name.startswith("serve-cache-")
    ]
    assert not leftovers
    assert _git_status() == before
