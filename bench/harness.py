"""Measure one part of a run in this process: set-up, warm-up, timed
rounds, optionally two traced rounds and the checks against the
interpreter.  ``rows.combine`` turns the parts into one record."""

import gc
import os
import resource
import sys
import time
import traceback

from rows import seconds_per_op
from spans import Tracer, Untraced

TRACED_ROUNDS = 2

#: traced-run span -> per-layer metric; "incl" is the span's whole
#: duration, "self" its duration minus its child spans
SPAN_METRICS = (
    ("lang.parse_s", "lang.parse", "incl"),
    ("decomp.build_s", "decomp.build", "incl"),
    ("dataflow.lwt_s", "dataflow.lwt", "incl"),
    ("core.commsets_s", "core.commsets", "incl"),
    ("core.redundancy_s", "core.redundancy", "incl"),
    ("core.aggregation_s", "core.aggregation", "incl"),
    ("polyhedra.scan_s", "polyhedra.scan", "incl"),
    ("codegen.assemble_s", "codegen.generate_spmd", "self"),
    ("codegen.emit_py_s", "codegen.emit_py", "incl"),
    ("codegen.emit_c_s", "codegen.emit_c", "incl"),
    ("ir.interp_s", "ir.interp", "incl"),
    ("ir.live_out_s", "ir.live_out", "incl"),
    ("runtime.validate.compare_s", "runtime.validate.check", "self"),
    ("runtime.machine.run_s", "runtime.machine.run", "incl"),
    ("core.job_key_s", "core.job_key", "incl"),
    ("core.serialize_load_s", "core.serialize_load", "incl"),
)


class Tally:
    """Operations attempted and failed, counted wherever one can fail."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def fail(self, what):
        self.failed += 1
        print(f"FAILED: {what}", file=sys.stderr)


def run_round(workload, state, ops, tr, tally, results):
    """One pass over ``ops``; returns {program: [seconds per op]}.

    An op that raises or whose output check fails counts as failed and
    contributes no time.  ``results`` keeps each op's latest good result.
    """
    times = {}
    for op_id, op in enumerate(ops):
        tr.op_id = op_id
        tally.attempted += 1
        start = time.perf_counter()
        try:
            result = tr.call("bench.op", op.run, tr)
        except Exception:  # the boundary that must keep measuring
            traceback.print_exc(file=sys.stderr)
            tally.fail(f"{op.key} raised")
            continue
        elapsed = time.perf_counter() - start
        if not workload.check(state, op, result):
            tally.fail(f"{op.key} produced a wrong output")
            continue
        times.setdefault(op.program, []).append(elapsed)
        results[op.key] = result
    tr.op_id = -1
    return times


def round_means(rounds):
    """{program: [mean seconds per op, one per round]}."""
    means = {}
    for times in rounds:
        for program, samples in times.items():
            means.setdefault(program, []).append(sum(samples) / len(samples))
    return means


def _timed_rounds(workload, state, ops, tally, results, seconds):
    """Rounds for about ``seconds`` (at least one): another round starts
    only if, going by the last one, most of it fits in the window."""
    rounds = []
    started = time.perf_counter()
    while True:
        gc.collect()
        round_started = time.perf_counter()
        rounds.append(run_round(workload, state, ops, Untraced, tally, results))
        now = time.perf_counter()
        if now - started + 0.5 * (now - round_started) >= seconds:
            return rounds


def measure(workload, seed, seconds, trace, verify, started, out_dir):
    """Measure in this process: one set-up, one warm-up round, timed
    rounds for ``seconds``, two traced rounds if ``trace``, the checks
    against the interpreter if ``verify``.  ``started`` is when this
    process began importing, so set-up time includes the imports.
    Returns one part record for :func:`combine`.
    """
    os.makedirs(out_dir, exist_ok=True)
    state = workload.setup(seed, out_dir)
    setup_s = time.perf_counter() - started
    try:
        return _measure(
            workload, state, seconds, trace, verify, setup_s, out_dir
        )
    finally:
        workload.teardown(state)


def _measure(workload, state, seconds, trace, verify, setup_s, out_dir):
    tally = Tally()
    ops = workload.ops(state)
    results = {}
    run_round(workload, state, ops, Untraced, tally, results)  # warm-up
    rounds = _timed_rounds(workload, state, ops, tally, results, seconds)
    means = round_means(rounds)

    tracer = Tracer()
    traced = []
    if trace:
        with tracer.installed():
            for _ in range(TRACED_ROUNDS):
                gc.collect()
                traced.append(
                    run_round(workload, state, ops, tracer, tally, results)
                )

    exact = {}
    if len(results) != len(ops):
        tally.fail("an op never succeeded; nothing to verify")
    elif verify:
        attempted, failed, exact = workload.verify(state, results)
        tally.attempted += attempted
        for _ in range(failed):
            tally.fail("verification against the interpreter")

    part = {
        "setup_s": setup_s,
        "round_means": means,
        "ops_per_round": len(ops),
        "exact": exact,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF
        ).ru_maxrss / 1024.0,
        "attempted": tally.attempted,
        "failed": tally.failed,
    }
    if trace:
        part["layers"] = _layer_metrics(
            workload, state, results, exact, tracer, traced,
            seconds_per_op(means)[0], len(ops),
        )
        part["spans"] = {
            name: {"incl_s": incl, "self_s": self_, "calls": calls}
            for name, (incl, self_, calls) in sorted(tracer.totals().items())
        }
        tracer.write_chrome(
            os.path.join(out_dir, f"trace-{workload.NAME}.json")
        )
    return part


def _layer_metrics(workload, state, results, exact, tracer, traced, op_s,
                   ops_per_round):
    totals = tracer.totals()
    traced_ops = TRACED_ROUNDS * ops_per_round
    metrics = {}
    for metric, span, which in SPAN_METRICS:
        incl, self_, _calls = totals.get(span, (0.0, 0.0, 0))
        metrics[metric] = (incl if which == "incl" else self_) / traced_ops
    if exact:
        metrics.update(workload.layers(state, results, exact))
    run_s = metrics["runtime.machine.run_s"] * ops_per_round
    if run_s and "runtime.machine.sim_events" in metrics:
        metrics["runtime.machine.events_per_s"] = (
            metrics["runtime.machine.sim_events"] / run_s
        )
    traced_op_s, _rows = seconds_per_op(round_means(traced))
    metrics["bench.trace_overhead_frac"] = traced_op_s / op_s - 1.0
    return metrics
