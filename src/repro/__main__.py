"""Command-line driver: compile, inspect and simulate programs.

Usage::

    python -m repro analyze  program.loop            # LWTs + dependence info
    python -m repro compile  program.loop --block i=32
    python -m repro run      program.loop --block i=32 -D N=70 -D T=2 -D P=3

Programs are written in the paper's pseudo-language (see
``repro.lang``); the ``--block`` option distributes the named loop(s)
of every statement in blocks across the processors.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List

from . import (
    CheckpointPolicy,
    CrashError,
    DeadlockError,
    FaultPlan,
    TransportError,
    block_loop,
    check_against_sequential,
    generate_spmd,
    last_write_tree,
    parse,
)
from .codegen import SPMDOptions
from .core import communication_report, compile_distributed
from .dataflow import all_dependences
from .polyhedra import stats as poly_stats


def _load(path: str):
    with open(path) as fh:
        return parse(fh.read(), name=path)


def _parse_defs(defs: List[str]) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for item in defs or []:
        name, _, value = item.partition("=")
        out[name] = int(value)
    return out


def _build_comps(program, blocks: List[str]):
    """--block i=32 [j=8 ...]: block-distribute those loops everywhere."""
    specs = []
    for item in blocks or []:
        name, _, size = item.partition("=")
        specs.append((name, int(size)))
    if not specs:
        raise SystemExit("--block LOOPVAR=SIZE is required for this command")
    comps = {}
    space = None
    for stmt in program.statements():
        vars_ = [v for v, _s in specs if v in stmt.iter_vars]
        sizes = [s for v, s in specs if v in stmt.iter_vars]
        if len(vars_) != len(specs):
            raise SystemExit(
                f"statement {stmt.name} lacks blocked loop(s) "
                f"{[v for v, _ in specs]}"
            )
        comp = block_loop(stmt, vars_, sizes, space=space)
        space = comp.space
        comps[stmt.name] = comp
    return comps


def cmd_analyze(args) -> int:
    program = _load(args.program)
    print("== program ==")
    print(program.pretty())
    print("\n== data dependences (location-centric view) ==")
    for dep in all_dependences(program):
        print(" ", dep)
    print("\n== last write trees (value-centric view) ==")
    for stmt in program.statements():
        for access in stmt.reads:
            tree = last_write_tree(program, stmt, access)
            print(tree.describe())
            print()
    return 0


def cmd_compile(args) -> int:
    program = _load(args.program)
    comps = _build_comps(program, args.block)
    options = SPMDOptions(
        aggregate=not args.no_aggregate,
        multicast=not args.no_multicast,
    )
    result = compile_distributed(
        program, comps, options=options, cache_dir=args.cache_dir
    )
    if args.emit == "python":
        print(result.spmd.source)
    else:
        print(result.c_text)
    if args.poly_stats:
        print(poly_stats.summary(result.poly_stats), file=sys.stderr)
        print(
            f"  compile time:           {result.compile_seconds:.3f}s"
            f"{' (cached result)' if result.from_cache else ''}",
            file=sys.stderr,
        )
    if args.cache_dir:
        from .polyhedra import diskcache

        cache = diskcache.DiskCache(args.cache_dir)
        print(diskcache.summarize_cache(cache.stats()), file=sys.stderr)
    return 0


def cmd_cache(args) -> int:
    from .polyhedra import diskcache

    cache = diskcache.DiskCache(args.cache_dir, max_bytes=args.max_bytes)
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} entries from {cache.path}")
        return 0
    info = cache.gc() if args.action == "gc" else cache.stats()
    print(f"cache at {info['path']}")
    print(f"  entries:     {info['entries']}")
    print(f"  bytes:       {info['bytes']} (cap {info['max_bytes']})")
    print(f"  fingerprint: {info['fingerprint']}")
    return 0


def cmd_serve(args) -> int:
    from .service import CompileServer, serve_stdio, serve_tcp

    server = CompileServer(
        cache_dir=args.cache_dir, max_bytes=args.cache_max_bytes
    )
    if args.port is None:
        return serve_stdio(server)
    return serve_tcp(
        server, args.host, args.port,
        announce=lambda port: print(
            f"repro serve: listening on {args.host}:{port}",
            file=sys.stderr, flush=True,
        ),
    )


def _rate(text: str) -> float:
    """argparse type for a probability flag: a float in [0, 1]."""
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"must be a probability in [0, 1], got {text}"
        )
    return value


def _nonneg_float(text: str) -> float:
    """argparse type for a duration/amount flag: a float >= 0."""
    value = float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def _pos_float(text: str) -> float:
    """argparse type for an interval flag: a float > 0."""
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def _nonneg_int(text: str) -> int:
    """argparse type for a count/budget flag: an int >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def _pos_int(text: str) -> int:
    """argparse type for a cadence flag: an int >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def _crash_spec(text: str):
    """argparse type for --crash-at: ``RANK@TIME`` or ``i,j@TIME``."""
    rank, sep, when = text.partition("@")
    if not sep:
        raise argparse.ArgumentTypeError(
            f"expected RANK@TIME (e.g. 0@5000 or 1,0@5000), got {text!r}"
        )
    try:
        coords = tuple(int(c) for c in rank.split(","))
        return coords, float(when)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected RANK@TIME with integer rank and numeric time, "
            f"got {text!r}"
        ) from None


def _corrupt_spec(text: str):
    """argparse type for --corrupt-at: ``SRC>DST:SEQ[@WORD]``."""
    head, sep, word = text.partition("@")
    src, arrow, rest = head.partition(">")
    dst, colon, seq = rest.partition(":")
    if not arrow or not colon:
        raise argparse.ArgumentTypeError(
            f"expected SRC>DST:SEQ[@WORD] (e.g. 0>1:3 or 0,1>2,0:5@7), "
            f"got {text!r}"
        )
    try:
        key = (
            tuple(int(c) for c in src.split(",")),
            tuple(int(c) for c in dst.split(",")),
            int(seq),
        )
        return key, (int(word) if sep else 0)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected SRC>DST:SEQ[@WORD] with integer coordinates, "
            f"got {text!r}"
        ) from None


def _ckpt_corrupt_spec(text: str):
    """argparse type for --checkpoint-corrupt-at: ``RANK@ORDINAL``."""
    rank, sep, ordinal = text.partition("@")
    if not sep:
        raise argparse.ArgumentTypeError(
            f"expected RANK@ORDINAL (e.g. 0@2 or 1,0@2), got {text!r}"
        )
    try:
        return tuple(int(c) for c in rank.split(",")), int(ordinal)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected RANK@ORDINAL with integer fields, got {text!r}"
        ) from None


def _build_fault_plan(args) -> FaultPlan | None:
    """CLI fault-injection flags -> a FaultPlan (None when no faults)."""
    rates = (args.drop_rate, args.dup_rate, args.reorder_rate,
             args.stall_rate, args.ack_drop_rate, args.crash_rate,
             args.corrupt_rate, args.checkpoint_corrupt_rate)
    schedules = (args.crash_at, args.corrupt_at,
                 args.checkpoint_corrupt_at)
    if not any(r for r in rates if r is not None) and not any(schedules):
        return None
    return FaultPlan(
        seed=args.fault_seed,
        drop_rate=args.drop_rate,
        dup_rate=args.dup_rate,
        reorder_rate=args.reorder_rate,
        max_delay=args.max_delay,
        ack_drop_rate=args.ack_drop_rate,
        stall_rate=args.stall_rate,
        stall_time=args.stall_time,
        crash_rate=args.crash_rate,
        crashes=dict(args.crash_at) if args.crash_at else None,
        corrupt_rate=args.corrupt_rate,
        corruptions=dict(args.corrupt_at) if args.corrupt_at else None,
        checkpoint_corrupt_rate=args.checkpoint_corrupt_rate,
        checkpoint_corruptions=(
            args.checkpoint_corrupt_at
            if args.checkpoint_corrupt_at else None
        ),
    )


def _build_checkpoint_policy(args) -> CheckpointPolicy | None:
    """CLI checkpoint flags -> a CheckpointPolicy (None when off)."""
    if args.checkpoint_interval is None and args.checkpoint_every_ops is None:
        return None
    return CheckpointPolicy(
        every_ops=args.checkpoint_every_ops,
        interval=args.checkpoint_interval,
    )


def cmd_run(args) -> int:
    program = _load(args.program)
    comps = _build_comps(program, args.block)
    options = SPMDOptions(
        vectorize=not args.no_vectorize,
        early_puts=args.early_puts,
    )
    spmd = generate_spmd(program, comps, options=options)
    params = _parse_defs(args.define)
    plan = _build_fault_plan(args)
    policy = _build_checkpoint_policy(args)
    if plan is not None:
        print(f"injecting faults: {plan.describe()}")
    want_trace = bool(args.trace or args.trace_summary)
    try:
        result = check_against_sequential(
            spmd,
            comps,
            params,
            fault_plan=plan,
            reliability=args.reliability,
            max_retries=args.max_retries,
            checkpoint=policy,
            max_restarts=args.max_restarts,
            trace=want_trace or None,
            checksums={"auto": None, "on": True, "off": False}[
                args.checksums
            ],
            recovery=args.recovery_mode,
            log_bytes_cap=args.log_bytes_cap,
        )
    except (CrashError, DeadlockError, TransportError) as exc:
        print(f"run FAILED: {type(exc).__name__}")
        print(exc)
        for note in getattr(exc, "__notes__", ()):
            print(f"  note: {note}")
        return 2
    print(f"validated against sequential execution: OK")
    print(f"messages:  {result.total_messages}")
    print(f"words:     {result.total_words}")
    print(f"makespan:  {result.makespan:.0f} time units")
    if result.wall_seconds > 0:
        nranks = max(1, len(result.clocks))
        print(
            f"sim rate:  {result.sim_events} events in "
            f"{result.wall_seconds:.3f}s wall "
            f"({result.events_per_sec:,.0f} events/sec), "
            f"{result.sched_wakeups / nranks:.1f} wakeups/rank"
        )
    retrans = result.stat_sum("retransmissions")
    if plan is not None or retrans:
        print(
            f"reliability: {retrans:.0f} retransmissions, "
            f"{result.stat_sum('acks_lost'):.0f} acks lost, "
            f"{result.stat_sum('duplicates_dropped'):.0f} duplicates "
            f"dropped at receivers, "
            f"{result.stat_sum('timeout_time'):.0f} time units in "
            f"retransmission timeouts"
        )
    corrupted = result.stat_sum("corruptions_injected")
    if corrupted or result.stat_sum("corrupt_dropped") \
            or result.snapshots_rejected:
        print(
            f"integrity: {corrupted:.0f} corrupted copies injected, "
            f"{result.stat_sum('corrupt_dropped'):.0f} discarded by "
            f"checksum at receivers, "
            f"{result.snapshots_rejected} checkpoint snapshot(s) "
            f"rejected by digest"
        )
    if result.crash_events or result.checkpoints:
        print(
            f"resilience: {len(result.crash_events)} crash(es), "
            f"{result.restarts} {result.recovery_mode} restart(s), "
            f"{result.checkpoints} checkpoint(s) taken, "
            f"{result.recovery_time:.0f} time units spent recovering, "
            f"{result.work_wasted:.0f} time units of work discarded"
        )
        if result.log_bytes_peak:
            print(
                f"  sender message log peak: {result.log_bytes_peak} bytes"
            )
        for event in result.crash_events:
            print(f"  {event.describe()}")
    if args.trace and result.trace is not None:
        result.trace.write_chrome(args.trace)
        print(
            f"trace: {len(result.trace)} events written to {args.trace} "
            f"(Chrome trace_event JSON; open in https://ui.perfetto.dev)"
        )
    if args.trace_summary and result.trace is not None:
        from .runtime import summarize

        print(summarize(result))
    report = communication_report(
        spmd, {k: v for k, v in params.items() if not k.startswith("P")}
    )
    for label, counts in report.per_set.items():
        print(f"  {label}: {counts['transfers']} transfers "
              f"in {counts['messages']} messages")
    return 0


def cmd_chaos(args) -> int:
    import json
    import os

    from .runtime import chaos
    from .runtime import transport as _transport

    if args.replay:
        doc = chaos.load_reproducer(args.replay)
        reproduced, observed = chaos.replay_reproducer(doc)
        print(
            f"replaying {args.replay}: recorded {doc['observed']!r}, "
            f"observed {observed!r}"
        )
        if reproduced:
            print("reproduced: the recorded failure replays deterministically")
            return 0
        print("NOT reproduced: the replay diverged from the recording")
        return 1
    workloads = list(dict.fromkeys(args.workload or sorted(chaos.WORKLOADS)))
    recovery_modes = (
        ("global", "local")
        if args.recovery_mode == "both"
        else (args.recovery_mode,)
    )
    transports = list(
        dict.fromkeys(args.transport or ["reliable", "onesided"])
    )
    saved = _transport._VERIFY_DISABLED
    if args.inject_bug:
        _transport._VERIFY_DISABLED = True
    try:
        report = chaos.explore(
            workloads=workloads,
            seeds=args.seeds,
            corrupt_rate=args.corrupt_rate,
            targeted=not args.no_targeted,
            vectorize=args.vectorize,
            shrink_budget=args.shrink_budget,
            recovery_modes=recovery_modes,
            crashes=not args.no_crashes,
            transports=transports,
            log=lambda msg: print(f"chaos: {msg}"),
        )
    finally:
        _transport._VERIFY_DISABLED = saved
    print(report.format())
    if args.out and report.findings:
        os.makedirs(args.out, exist_ok=True)
        for index, finding in enumerate(report.findings):
            path = os.path.join(
                args.out,
                f"chaos-{finding.scenario}-{finding.transport}-{index}.json",
            )
            with open(path, "w") as fh:
                json.dump(finding.reproducer, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"  reproducer written to {path}")
    return 0 if report.ok else 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PLDI'93 distributed-memory compiler reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="dependences + LWTs")
    p_analyze.add_argument("program")
    p_analyze.set_defaults(fn=cmd_analyze)

    p_compile = sub.add_parser("compile", help="generate SPMD code")
    p_compile.add_argument("program")
    p_compile.add_argument("--block", action="append", metavar="VAR=SIZE")
    p_compile.add_argument(
        "--emit", choices=["c", "python"], default="c"
    )
    p_compile.add_argument("--no-aggregate", action="store_true")
    p_compile.add_argument("--no-multicast", action="store_true")
    p_compile.add_argument(
        "--poly-stats", action="store_true",
        help="print polyhedral-engine work counters to stderr "
        "(FM pairs avoided, cache hit rates, codegen volume)",
    )
    p_compile.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="persistent compile cache: FM projections, feasibility "
        "verdicts and whole results are stored content-addressed under "
        "DIR and reused across runs (default: no persistent cache)",
    )
    p_compile.set_defaults(fn=cmd_compile)

    p_cache = sub.add_parser(
        "cache", help="inspect or maintain a persistent compile cache"
    )
    p_cache.add_argument(
        "action", choices=["stats", "clear", "gc"],
        help="stats = occupancy and fingerprint; clear = drop every "
        "entry; gc = enforce the byte cap now (LRU eviction)",
    )
    p_cache.add_argument("--cache-dir", metavar="DIR", required=True)
    p_cache.add_argument(
        "--max-bytes", type=_pos_int, default=None, metavar="BYTES",
        help="byte cap used by gc (default 256 MiB)",
    )
    p_cache.set_defaults(fn=cmd_cache)

    p_serve = sub.add_parser(
        "serve",
        help="long-lived compile server (JSON lines on stdio or TCP)",
        description="Start a compile server that keeps every cache "
        "tier warm across requests.  Each request is one JSON object "
        "per line ({'program': SOURCE, 'blocks': {VAR: SIZE}, "
        "'options': {...}, 'emit': 'c'|'python'|'none'}), or a JSON "
        "array of such objects for a batch; control ops: ping, stats, "
        "shutdown.  Default transport is stdio; --port serves a local "
        "TCP socket instead (0 = ephemeral).",
    )
    p_serve.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="share a persistent compile cache across server sessions",
    )
    p_serve.add_argument(
        "--cache-max-bytes", type=_pos_int, default=None, metavar="BYTES",
        help="persistent-cache byte cap (default 256 MiB)",
    )
    p_serve.add_argument(
        "--port", type=_nonneg_int, default=None, metavar="PORT",
        help="serve a TCP socket on --host instead of stdio "
        "(0 binds an ephemeral port, announced on stderr)",
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", metavar="HOST",
        help="TCP bind address (default 127.0.0.1)",
    )
    p_serve.set_defaults(fn=cmd_serve)

    p_run = sub.add_parser("run", help="simulate and validate")
    p_run.add_argument("program")
    p_run.add_argument("--block", action="append", metavar="VAR=SIZE")
    p_run.add_argument(
        "-D", "--define", action="append", metavar="NAME=VALUE",
        help="parameter values (N, T, P, ...)",
    )
    p_run.add_argument(
        "--trace", metavar="FILE", default=None,
        help="record a typed event trace and write it as Chrome "
        "trace_event JSON (viewable in Perfetto / chrome://tracing)",
    )
    p_run.add_argument(
        "--trace-summary", action="store_true",
        help="record a trace and print its analyses: per-(sender, "
        "receiver) communication matrix, per-processor makespan "
        "decomposition, and the critical path",
    )
    p_run.add_argument(
        "--no-vectorize", action="store_true",
        help="disable vectorized node-program loops (compile innermost "
        "loops to scalar per-iteration calls, as before)",
    )
    p_run.add_argument(
        "--early-puts", action="store_true",
        help="lower aggregated sends to one-sided window puts at their "
        "proved-earliest placement and receives to fenced window reads "
        "(pair with --reliability onesided to price fences instead of "
        "receive overhead; on two-sided transports the program is its "
        "own bit-exact oracle)",
    )
    rel = p_run.add_argument_group("reliability / fault injection")
    rel.add_argument(
        "--drop-rate", type=_rate, default=0.0, metavar="P",
        help="probability a transmission attempt is lost (default 0)",
    )
    rel.add_argument(
        "--dup-rate", type=_rate, default=0.0, metavar="P",
        help="probability a delivery is duplicated (default 0)",
    )
    rel.add_argument(
        "--reorder-rate", type=_rate, default=0.0, metavar="P",
        help="probability a delivery is delayed/reordered (default 0)",
    )
    rel.add_argument(
        "--max-delay", type=_nonneg_float, default=400.0, metavar="T",
        help="maximum extra delay of a reordered delivery, in model "
        "time units (default 400)",
    )
    rel.add_argument(
        "--ack-drop-rate", type=_rate, default=None, metavar="P",
        help="probability an acknowledgement is lost (defaults to "
        "--drop-rate; forces spurious retransmissions)",
    )
    rel.add_argument(
        "--stall-rate", type=_rate, default=0.0, metavar="P",
        help="probability of a transient processor stall per comm call",
    )
    rel.add_argument(
        "--stall-time", type=_nonneg_float, default=200.0, metavar="T",
        help="mean transient-stall duration in model time units "
        "(default 200)",
    )
    rel.add_argument(
        "--fault-seed", type=int, default=0, metavar="SEED",
        help="seed of the deterministic fault plan (default 0)",
    )
    rel.add_argument(
        "--max-retries", type=_nonneg_int, default=10, metavar="N",
        help="reliable-transport retransmission cap (default 10)",
    )
    rel.add_argument(
        "--corrupt-rate", type=_rate, default=0.0, metavar="P",
        help="probability a transmitted payload copy is silently "
        "corrupted on the wire (one flipped word; default 0)",
    )
    rel.add_argument(
        "--corrupt-at", type=_corrupt_spec, action="append",
        metavar="SRC>DST:SEQ[@WORD]",
        help="corrupt one scheduled message: the SEQ-th payload from "
        "processor SRC to DST (word WORD of it, default 0); repeatable",
    )
    rel.add_argument(
        "--checksums", choices=["auto", "on", "off"], default="auto",
        help="payload checksum verification at receivers: auto = on "
        "exactly when corruption faults are injected (default)",
    )
    rel.add_argument(
        "--reliability",
        choices=["auto", "direct", "reliable", "unreliable", "onesided"],
        default="auto",
        help="transport: auto = reliable iff faults are injected "
        "(default), direct = historical exactly-once channel, "
        "unreliable = raw faulty network with no recovery, onesided = "
        "PGAS-style remote windows (puts/gets/fences) over the same "
        "ARQ machinery, bit-exact with reliable",
    )
    res = p_run.add_argument_group("crash tolerance")
    res.add_argument(
        "--crash-rate", type=_rate, default=0.0, metavar="P",
        help="probability a processor dies (fail-stop) at each "
        "communication call (default 0)",
    )
    res.add_argument(
        "--crash-at", type=_crash_spec, action="append",
        metavar="RANK@TIME",
        help="schedule a fail-stop crash: processor RANK (an integer, "
        "or comma-separated coordinates) dies when its clock reaches "
        "TIME; repeatable",
    )
    res.add_argument(
        "--checkpoint-interval", type=_pos_float, default=None,
        metavar="T",
        help="checkpoint every T model-time units (off by default; "
        "without any checkpoint flag, recovery replays from the start)",
    )
    res.add_argument(
        "--checkpoint-every-ops", type=_pos_int, default=None, metavar="K",
        help="checkpoint every K processor operations (off by default)",
    )
    res.add_argument(
        "--checkpoint-corrupt-rate", type=_rate, default=0.0, metavar="P",
        help="probability each checkpoint snapshot is silently "
        "corrupted at rest (detected by digest at restore; default 0)",
    )
    res.add_argument(
        "--checkpoint-corrupt-at", type=_ckpt_corrupt_spec,
        action="append", metavar="RANK@ORDINAL",
        help="corrupt processor RANK's ORDINAL-th checkpoint snapshot "
        "(restore falls back to its last valid one); repeatable",
    )
    res.add_argument(
        "--max-restarts", type=_nonneg_int, default=3, metavar="N",
        help="coordinated rollbacks to attempt before giving up with a "
        "crash report (default 3)",
    )
    res.add_argument(
        "--recovery-mode", choices=["global", "local"], default="global",
        help="crash recovery discipline: global = roll every rank back "
        "to its checkpoint (default), local = restart only the crashed "
        "rank, re-serving its messages from the sender log",
    )
    res.add_argument(
        "--log-bytes-cap", type=_pos_int, default=None, metavar="BYTES",
        help="cap the sender message log per channel; exceeding it "
        "fails fast with a structured LogOverflowError instead of "
        "growing without bound (default: uncapped)",
    )
    p_run.set_defaults(fn=cmd_run)

    p_chaos = sub.add_parser(
        "chaos",
        help="deterministic fault-space exploration with shrinking "
        "reproducers",
        description="Enumerate corruption fault schedules over the "
        "built-in conformance workloads, run each, check the runs "
        "against bit-exact array oracles and "
        "trace invariants, and shrink any failure to a minimal "
        "replayable JSON reproducer.  Exit status: 0 = every schedule "
        "met its expectation, 3 = findings (reproducers describe them).",
    )
    p_chaos.add_argument(
        "--workload", action="append", metavar="NAME",
        choices=["fig2", "fig8", "lu", "pipe", "stencil"],
        help="workload(s) to explore (repeatable; default: all five)",
    )
    p_chaos.add_argument(
        "--transport", action="append",
        choices=["reliable", "onesided"],
        help="transport(s) the network-fault and corruption trials run "
        "under (repeatable; default: both -- the one-sided window path "
        "must survive the same schedules bit-exactly)",
    )
    p_chaos.add_argument(
        "--seeds", type=_nonneg_int, default=8, metavar="N",
        help="number of rate-based fault-plan seeds to sweep "
        "(default 8)",
    )
    p_chaos.add_argument(
        "--corrupt-rate", type=_rate, default=0.05, metavar="P",
        help="corruption probability for the seed sweep (default 0.05)",
    )
    p_chaos.add_argument(
        "--no-targeted", action="store_true",
        help="skip the explicit schedules aimed at critical-path "
        "messages",
    )
    p_chaos.add_argument(
        "--recovery-mode", choices=["global", "local", "both"],
        default="both",
        help="crash-recovery discipline(s) the scheduled crash trials "
        "run under (default: both)",
    )
    p_chaos.add_argument(
        "--no-crashes", action="store_true",
        help="skip the scheduled fail-stop crash trials",
    )
    p_chaos.add_argument(
        "--vectorize", action="store_true",
        help="explore the vectorized node programs instead of scalar",
    )
    p_chaos.add_argument(
        "--shrink-budget", type=_nonneg_int, default=150, metavar="N",
        help="max extra runs spent shrinking failing schedules "
        "(default 150)",
    )
    p_chaos.add_argument(
        "--out", metavar="DIR", default=None,
        help="write one replayable reproducer JSON per finding here",
    )
    p_chaos.add_argument(
        "--replay", metavar="FILE", default=None,
        help="replay a reproducer JSON instead of exploring; exit 0 "
        "iff the recorded failure reproduces",
    )
    p_chaos.add_argument(
        "--inject-bug", action="store_true", help=argparse.SUPPRESS,
    )
    p_chaos.set_defaults(fn=cmd_chaos)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
