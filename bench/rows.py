"""Turning measured parts into one result record.  Imports nothing of
the program under test, so the process that only spawns the measuring
processes and combines their parts stays small."""

import math
import os
import platform
import statistics

#: an untraced run is measured in this many fresh processes, one after
#: the other, each with its own imports and set-up.  That gives three
#: set-up samples (the median is reported: a later change may move work
#: into set-up) and three address-space layouts: `serve_warm`, whose
#: time is mostly `compile()` and unpickling, runs up to 15 % faster or
#: slower from one process to the next with identical inputs.
PARTS = 3


def geomean(values):
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def seconds_per_op(means):
    """``op_s`` and its per-program rows from :func:`round_means`.

    A program's figure is its *fastest* round, and ``op_s`` is the
    geometric mean over programs.  Fastest, not median: the sandbox
    slows by 20-40 % in bursts of about ten seconds (a neighbour on the
    host), which shifts a run's median by that much and its minimum
    hardly at all -- noise here only ever adds time.  The median and
    the slowest round stay in the rows.
    """
    rows = {
        program: {
            "min_s": min(values),
            "median_s": statistics.median(values),
            "max_s": max(values),
            "rounds": len(values),
        }
        for program, values in sorted(means.items())
    }
    return geomean(row["min_s"] for row in rows.values()), rows


def combine(name, seed, trace, parts):
    """One record from the parts measured in separate processes.

    Round times are pooled, so a program's fastest round is the fastest
    under any of the parts' address-space layouts; set-up time is the
    median over the parts and peak memory their maximum; the exact
    metrics come from the part that verified.
    """
    means = {}
    for part in parts:
        for program, values in part["round_means"].items():
            means.setdefault(program, []).extend(values)
    op_s, rows = seconds_per_op(means)
    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "parts": len(parts),
        "ops_per_round": parts[0]["ops_per_round"],
        "programs": rows,
        "attempted": sum(part["attempted"] for part in parts),
        "failed": sum(part["failed"] for part in parts),
    }
    if trace:
        record["metrics"] = parts[0]["layers"]
        record["spans"] = parts[0]["spans"]
    else:
        record["metrics"] = {
            "setup_s": statistics.median(p["setup_s"] for p in parts),
            "op_s": op_s,
            **parts[0]["exact"],
            "peak_rss_mb": max(part["peak_rss_mb"] for part in parts),
        }
    return record
