"""Deterministic chaos exploration with shrinking reproducers.

The fault-injection stack (PR 1 network faults, PR 3 crashes, this
PR's corruption) samples *one* deterministic schedule per seed.  This
module turns that into a **search**: enumerate many fault schedules,
run each, check the run against oracles
the tracing subsystem already pins down, and -- when a schedule breaks
something -- *shrink* it to a minimal reproducer emitted as a
replayable JSON artifact.

Schedules come from two generators:

* **seed sweeps** -- ``FaultPlan(seed=s, corrupt_rate=r)`` for a range
  of seeds: broad, unbiased sampling of the fault space;
* **targeted schedules** -- derived from the fault-free run's trace:
  the messages on the :func:`~.analysis.critical_path` are exactly the
  ones whose loss or corruption the run can least afford, so each gets
  an explicit ``corruptions={(src, dst, seq): word}`` schedule (the
  channel ordinal ``seq`` is recovered by counting each sender's
  ``send`` events per destination in program order -- the same order
  the reliable transport assigns sequence numbers in).

Every trial runs against an **expectation**:

* ``"oracle"`` -- the run must complete with final arrays bit-identical
  to the fault-free oracle and every trace invariant intact
  (self-checking reliable transport: corruption is recovered);
* ``"corruption-error"`` -- the run must raise a structured
  :class:`~.transport.CorruptionError` (direct transport: corruption
  is detected but unrecoverable).

A trial whose observation differs from its expectation is a
**finding**.  Findings with explicit schedules are shrunk by greedy
chunked event removal (ddmin-style): repeatedly re-run with subsets of
the schedule, keeping any subset that still reproduces the same
observation, until no single event can be removed.  Rate-based
findings are first *explicitized* -- the traced run names exactly
which wire copies were corrupted -- and then shrunk the same way.

The reproducer JSON is self-contained: it embeds the program source,
the decomposition spec, the parameters, the serialized fault plan and
the transport, so :func:`replay_reproducer` can rebuild
and re-run the exact failing configuration with no other inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import transport as _transport
from .analysis import Decomposition, comm_matrix, critical_path, unmatched_receives
from .checkpoint import CheckpointPolicy
from .faults import FaultPlan
from .transport import CorruptionError

__all__ = [
    "ChaosFinding",
    "ChaosReport",
    "Scenario",
    "WORKLOADS",
    "explore",
    "load_reproducer",
    "plan_from_json",
    "plan_to_json",
    "replay_reproducer",
]


# ---------------------------------------------------------------------------
# scenarios: self-contained buildable workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """A workload the explorer can rebuild from data alone.

    ``comps`` is a tuple of decomposition specs, each a mapping with:

    * ``stmt`` -- statement name (``None`` = the program's only one);
    * ``kind`` -- ``"block"`` (:func:`~repro.decomp.block_loop` over
      ``vars``/``sizes``) or ``"onto"`` (:func:`~repro.decomp.onto`
      over the index expressions named by ``vars``);
    * ``space_of`` -- share the processor space of an earlier
      statement's decomposition (optional).

    That vocabulary covers every conformance workload, and -- because
    it is plain data -- the whole scenario serializes into the
    reproducer JSON and back.
    """

    name: str
    source: str
    comps: Tuple[dict, ...]
    params: Dict[str, int]
    vectorize: bool = False

    def build(self):
        """Compile the scenario to a generated SPMD program."""
        # compiler imports are deferred: repro.runtime must stay
        # importable without dragging the whole compiler package in
        from ..codegen import SPMDOptions, generate_spmd
        from ..decomp import block_loop, onto
        from ..lang import parse
        from ..polyhedra import var

        program = parse(self.source, name=self.name)
        comps = {}
        for spec in self.comps:
            stmt = (
                program.statement(spec["stmt"])
                if spec.get("stmt")
                else program.statements()[0]
            )
            space = None
            if spec.get("space_of"):
                space = comps[spec["space_of"]].space
            if spec.get("kind", "block") == "onto":
                exprs = [var(v) for v in spec["vars"]]
                comp = (
                    onto(stmt, exprs, space=space)
                    if space is not None
                    else onto(stmt, exprs)
                )
            else:
                vars_ = list(spec["vars"])
                sizes = list(spec["sizes"])
                comp = (
                    block_loop(stmt, vars_, sizes, space=space)
                    if space is not None
                    else block_loop(stmt, vars_, sizes)
                )
            comps[stmt.name] = comp
        options = SPMDOptions(vectorize=self.vectorize)
        return generate_spmd(program, comps, options=options)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "source": self.source,
            "comps": [dict(spec) for spec in self.comps],
            "params": dict(self.params),
            "vectorize": self.vectorize,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "Scenario":
        return cls(
            name=doc["name"],
            source=doc["source"],
            comps=tuple(doc["comps"]),
            params={k: int(v) for k, v in doc["params"].items()},
            vectorize=bool(doc.get("vectorize", False)),
        )


_FIG2_SRC = """
array X[N + 1]
assume N >= 3
assume T >= 0
for t = 0 to T do
  for i = 3 to N do
    X[i] = X[i - 3]
"""

_FIG8_SRC = """
array X[N + 1]
assume N >= 3
assume T >= 0
for t = 0 to T do
  for i = 3 to N do
    X[i] = f(X[i], X[i - 1], X[i - 2], X[i - 3])
"""

_LU_SRC = """
array X[N + 1][N + 1]
assume N >= 1
for i1 = 0 to N do
  for i2 = i1 + 1 to N do
    s1: X[i2][i1] = X[i2][i1] / X[i1][i1]
    for i3 = i1 + 1 to N do
      s2: X[i2][i3] = X[i2][i3] - X[i2][i1] * X[i1][i3]
"""

_PIPE_SRC = """
array X[N + 1]
array Y[N + 1]
assume N >= 2
for i = 0 to N do
  s1: X[i] = i + 1
for j = 1 to N do
  s2: Y[j] = Y[j] + X[j - 1]
"""

_STENCIL_SRC = """
array A[N + 2]
array B[N + 2]
assume N >= 1
for t = 1 to T do
  for i = 1 to N do
    B[i] = (A[i - 1] + A[i] + A[i + 1]) / 3
"""

#: the five conformance workloads (same programs, decompositions and
#: parameters the trace-invariant and execution-equivalence suites pin)
WORKLOADS: Dict[str, Scenario] = {
    "fig2": Scenario(
        name="fig2",
        source=_FIG2_SRC,
        comps=({"kind": "block", "vars": ["i"], "sizes": [16]},),
        params={"N": 70, "T": 2, "P": 3},
    ),
    "fig8": Scenario(
        name="fig8",
        source=_FIG8_SRC,
        comps=({"kind": "block", "vars": ["i"], "sizes": [16]},),
        params={"N": 70, "T": 2, "P": 3},
    ),
    "lu": Scenario(
        name="lu",
        source=_LU_SRC,
        comps=(
            {"stmt": "s1", "kind": "onto", "vars": ["i2"]},
            {"stmt": "s2", "kind": "onto", "vars": ["i2"], "space_of": "s1"},
        ),
        params={"N": 24, "P": 3},
    ),
    "pipe": Scenario(
        name="pipe",
        source=_PIPE_SRC,
        comps=(
            {"stmt": "s1", "kind": "block", "vars": ["i"], "sizes": [16]},
            {
                "stmt": "s2",
                "kind": "block",
                "vars": ["j"],
                "sizes": [16],
                "space_of": "s1",
            },
        ),
        params={"N": 44, "P": 2},
    ),
    "stencil": Scenario(
        name="stencil",
        source=_STENCIL_SRC,
        comps=({"kind": "block", "vars": ["i"], "sizes": [16]},),
        params={"N": 64, "T": 3, "P": 2},
    ),
}


# ---------------------------------------------------------------------------
# fault-plan (de)serialization
# ---------------------------------------------------------------------------


def plan_to_json(plan: FaultPlan) -> dict:
    """A :class:`FaultPlan` as plain JSON-safe data."""
    return {
        "seed": plan.seed,
        "drop_rate": plan.drop_rate,
        "dup_rate": plan.dup_rate,
        "reorder_rate": plan.reorder_rate,
        "max_delay": plan.max_delay,
        "ack_drop_rate": plan.ack_drop_rate,
        "stall_rate": plan.stall_rate,
        "stall_time": plan.stall_time,
        "crash_rate": plan.crash_rate,
        "crashes": [[list(c), t] for c, t in (plan.crashes or ())],
        "corrupt_rate": plan.corrupt_rate,
        "corruptions": [
            [list(src), list(dst), seq, word]
            for (src, dst, seq), word in (plan.corruptions or ())
        ],
        "checkpoint_corrupt_rate": plan.checkpoint_corrupt_rate,
        "checkpoint_corruptions": [
            [list(c), o] for c, o in (plan.checkpoint_corruptions or ())
        ],
    }


def plan_from_json(doc: dict) -> FaultPlan:
    crashes = {tuple(c): t for c, t in doc.get("crashes") or []}
    corruptions = {
        (tuple(src), tuple(dst), seq): word
        for src, dst, seq, word in doc.get("corruptions") or []
    }
    ckpt = [(tuple(c), o) for c, o in doc.get("checkpoint_corruptions") or []]
    return FaultPlan(
        seed=int(doc.get("seed", 0)),
        drop_rate=doc.get("drop_rate", 0.0),
        dup_rate=doc.get("dup_rate", 0.0),
        reorder_rate=doc.get("reorder_rate", 0.0),
        max_delay=doc.get("max_delay", 400.0),
        ack_drop_rate=doc.get("ack_drop_rate"),
        stall_rate=doc.get("stall_rate", 0.0),
        stall_time=doc.get("stall_time", 200.0),
        crash_rate=doc.get("crash_rate", 0.0),
        crashes=crashes or None,
        corrupt_rate=doc.get("corrupt_rate", 0.0),
        corruptions=corruptions or None,
        checkpoint_corrupt_rate=doc.get("checkpoint_corrupt_rate", 0.0),
        checkpoint_corruptions=ckpt or None,
    )


# ---------------------------------------------------------------------------
# oracles and observation
# ---------------------------------------------------------------------------


def _same_arrays(got, want) -> bool:
    """Bit-identical per-rank arrays (NaN poison compares equal)."""
    if set(got) != set(want):
        return False
    for myp, arrays in want.items():
        mine = got[myp]
        if set(mine) != set(arrays):
            return False
        for name, arr in arrays.items():
            if not np.array_equal(mine[name], arr, equal_nan=True):
                return False
    return True


def _invariant_violation(result) -> Optional[str]:
    """First PR 5 trace invariant the run violates, or None.

    Checks the fault-compatible invariants: decomposition identity
    (buckets sum exactly to each finish clock, stats- and
    trace-derived), comm-matrix/stats reconciliation, and the
    no-unmatched-receives audit.  (Critical path == makespan is exact
    only fault-free, so it is not part of the fault-trial oracle.)

    After a restart the trace retains the discarded pre-crash events
    while the stats counters are rewound to the checkpoint, so every
    trace-vs-stats reconciliation is exact only when ``restarts == 0``;
    the stats-only decomposition identity must hold regardless.
    """
    trace = result.trace
    if trace is None:
        return None
    for myp, stats in result.stats.items():
        deco = Decomposition.from_stats(stats)
        if deco.total() != result.clocks[myp]:
            return "decomposition-total"
        if result.restarts == 0:
            if Decomposition.from_trace(trace, myp) != deco:
                return "decomposition-trace-vs-stats"
    if result.restarts > 0:
        return None
    matrix = comm_matrix(trace)
    if matrix.total_messages != result.total_messages:
        return "matrix-total-messages"
    if matrix.total_words != result.total_words:
        return "matrix-total-words"
    for myp, stats in result.stats.items():
        sent = matrix.sent_by(myp)
        if sent.messages != stats.messages_sent:
            return "matrix-messages-sent"
        if sent.words != stats.words_sent:
            return "matrix-words-sent"
        if sent.retransmissions != stats.retransmissions:
            return "matrix-retransmissions"
        msgs, words = matrix.received_words(trace, myp)
        if msgs != stats.messages_received:
            return "matrix-messages-received"
        if words != stats.words_received:
            return "matrix-words-received"
    if unmatched_receives(trace):
        return "unmatched-receives"
    return None


def _observe(
    spmd,
    params,
    plan,
    transport,
    oracle_arrays,
    checkpoint: Optional[CheckpointPolicy] = None,
) -> str:
    """Run one trial and name the outcome.

    ``"clean"`` = completed, arrays bit-identical to the oracle, all
    invariants hold.  Any other string is a failure kind:
    ``"corruption-error"``, ``"error:<Type>"``, ``"array-mismatch"``,
    or ``"invariant:<name>"``.
    """
    from .validate import run_spmd

    try:
        result = run_spmd(
            spmd,
            params,
            fault_plan=plan,
            reliability=transport,
            trace=True,
            checkpoint=checkpoint,
        )
    except CorruptionError:
        return "corruption-error"
    except Exception as exc:  # noqa: BLE001 - the kind IS the observation
        return f"error:{type(exc).__name__}"
    if not _same_arrays(result.arrays, oracle_arrays):
        return "array-mismatch"
    violated = _invariant_violation(result)
    if violated:
        return f"invariant:{violated}"
    return "clean"


# ---------------------------------------------------------------------------
# targeted schedules from the fault-free trace
# ---------------------------------------------------------------------------


def _critical_channel_messages(trace, limit: int) -> List[Tuple[tuple, tuple, int]]:
    """(src, dst, seq) for the first ``limit`` messages on the
    critical path of a fault-free trace.

    The channel ordinal is recovered by counting each sender's ``send``
    events per destination in emission (program) order -- exactly the
    order ``Processor.next_seq`` hands out sequence numbers in, so the
    triple names the same logical message on any transport."""
    ordinals: Dict[int, Tuple[tuple, tuple, int]] = {}
    for rank in trace.proc_ranks():
        counts: Dict[tuple, int] = {}
        for ev in trace.per_rank(rank):
            if ev.kind == "send" and ev.peer is not None:
                seq = counts.get(ev.peer, 0)
                counts[ev.peer] = seq + 1
                ordinals[id(ev)] = (ev.rank, ev.peer, seq)
    path = critical_path(trace)
    out: List[Tuple[tuple, tuple, int]] = []
    seen = set()
    for ev in path.chain:
        triple = ordinals.get(id(ev))
        if triple is not None and triple not in seen:
            seen.add(triple)
            out.append(triple)
            if len(out) >= limit:
                break
    return out


def _explicitize(spmd, params, plan, transport) -> List[tuple]:
    """Re-express a rate-based corruption plan as explicit events.

    Runs the trial traced and reads off which wire copies the plan
    corrupted (send/retransmit events noted ``corrupted`` or
    ``corrupted-unchecked`` that carry a channel ordinal); each
    becomes an explicit ``((src, dst, seq), word)`` entry (explicit
    entries fire on the original transmission).  The word index is
    recomputed from the plan's own hash stream, so the entry flips the
    same word the rate-based run flipped."""
    from .validate import run_spmd

    try:
        result = run_spmd(
            spmd, params, fault_plan=plan, reliability=transport, trace=True
        )
    except Exception:  # noqa: BLE001 - fall back to the rate-based plan
        return []
    if result.trace is None:
        return []
    entries: Dict[tuple, int] = {}
    for ev in result.trace.by_kind("send", "retransmit"):
        if not ev.note.startswith("corrupted") or ev.seq is None:
            continue
        key = (tuple(ev.rank), tuple(ev.peer), ev.seq)
        if key in entries:
            continue
        entries[key] = plan.corrupt_word(
            max(ev.words, 1), ev.rank, ev.peer, ev.seq, ev.attempt
        )
    return sorted(entries.items())


# ---------------------------------------------------------------------------
# shrinking
# ---------------------------------------------------------------------------


def _ddmin(entries: List[tuple], fails, budget: List[int]) -> List[tuple]:
    """Greedy chunked event removal (ddmin-style).

    Repeatedly tries dropping chunks of the schedule, keeping any
    subset that still reproduces the failure; halves the chunk size
    until single-event removals stop working.  ``budget`` (a one-item
    list, mutated) caps the number of re-runs."""
    current = list(entries)
    chunk = max(1, len(current) // 2)
    while current:
        removed = False
        i = 0
        while i < len(current):
            if budget[0] <= 0:
                return current
            candidate = current[:i] + current[i + chunk:]
            budget[0] -= 1
            if candidate != current and fails(candidate):
                current = candidate
                removed = True
            else:
                i += chunk
        if chunk == 1 and not removed:
            return current
        chunk = max(1, chunk // 2)
    return current


# ---------------------------------------------------------------------------
# findings, report, explorer
# ---------------------------------------------------------------------------


@dataclass
class ChaosFinding:
    """One trial whose observation diverged from its expectation."""

    scenario: str
    transport: str
    expected: str
    observed: str
    plan: FaultPlan
    #: explicit fault events in the shrunk schedule (0 when the finding
    #: could not be explicitized and the rate-based plan is recorded)
    events: int
    #: self-contained replayable artifact (see :func:`replay_reproducer`)
    reproducer: dict

    def describe(self) -> str:
        return (
            f"{self.scenario} [{self.transport}] "
            f"expected {self.expected}, observed {self.observed} "
            f"({self.events} fault event(s) after shrinking)"
        )


@dataclass
class ChaosReport:
    """Everything one :func:`explore` call did."""

    trials: int = 0
    findings: List[ChaosFinding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def format(self) -> str:
        lines = [
            f"chaos: {self.trials} trial(s), "
            f"{len(self.findings)} finding(s)"
        ]
        for finding in self.findings:
            lines.append(f"  FINDING: {finding.describe()}")
        if self.ok:
            lines.append(
                "  every schedule met its expectation (oracle arrays, "
                "trace invariants, structured corruption errors)"
            )
        return "\n".join(lines)


def _policy_to_json(policy: Optional[CheckpointPolicy]) -> Optional[dict]:
    if policy is None:
        return None
    return {"every_ops": policy.every_ops, "interval": policy.interval}


def _policy_from_json(doc: Optional[dict]) -> Optional[CheckpointPolicy]:
    if not doc:
        return None
    return CheckpointPolicy(
        every_ops=doc.get("every_ops"), interval=doc.get("interval")
    )


def _make_reproducer(
    scenario: Scenario,
    transport: str,
    plan: FaultPlan,
    expected: str,
    observed: str,
    checkpoint: Optional[CheckpointPolicy] = None,
) -> dict:
    return {
        "version": 1,
        "scenario": scenario.to_json(),
        "transport": transport,
        "verify_disabled": _transport._VERIFY_DISABLED,
        "plan": plan_to_json(plan),
        "expected": expected,
        "observed": observed,
        "checkpoint": _policy_to_json(checkpoint),
    }


#: checkpoint cadence the crash trials run under -- frequent enough
#: that every workload takes several cuts, cheap enough to explore
_CRASH_POLICY = CheckpointPolicy(every_ops=25)
#: crash instants as fractions of the fault-free makespan
_CRASH_FRACTIONS = (0.3, 0.6)


def explore(
    workloads: Sequence[str] = ("fig2",),
    seeds: int = 8,
    corrupt_rate: float = 0.05,
    targeted: bool = True,
    targeted_limit: int = 4,
    vectorize: bool = False,
    shrink_budget: int = 150,
    crashes: bool = True,
    transports: Sequence[str] = ("reliable",),
    log=None,
) -> ChaosReport:
    """Enumerate fault schedules, check oracles, shrink failures.

    Trials per workload: ``seeds`` rate-based corruption plans and (when
    ``targeted``) explicit schedules for the first ``targeted_limit``
    critical-path messages, each under every entry of ``transports`` (``"reliable"`` and/or ``"onesided"`` -- the
    one-sided window path must survive the same fault schedules
    bit-exactly, verifying corrupted puts before window commit) -- plus,
    for each targeted schedule, a direct-transport trial expecting a
    structured ``CorruptionError``.  With ``crashes`` (the default),
    scheduled fail-stop crash plans -- each rank killed at fractions of
    the fault-free makespan -- run under localized sender-log recovery,
    expecting bit-exact oracle arrays.  Returns a
    :class:`ChaosReport`; findings carry shrunk, replayable
    reproducers.
    """
    if not 0.0 <= corrupt_rate <= 1.0:
        raise ValueError(
            f"corrupt_rate must be a probability in [0, 1], "
            f"got {corrupt_rate!r}"
        )
    if seeds < 0:
        raise ValueError(f"seeds must be >= 0, got {seeds!r}")
    for tr in transports:
        if tr not in ("reliable", "onesided"):
            raise ValueError(
                f"unknown chaos transport {tr!r} "
                f"(expected 'reliable' or 'onesided')"
            )
    say = log or (lambda _msg: None)
    report = ChaosReport()
    budget = [shrink_budget]
    for name in workloads:
        scenario = WORKLOADS[name]
        if vectorize and not scenario.vectorize:
            scenario = Scenario(
                name=scenario.name,
                source=scenario.source,
                comps=scenario.comps,
                params=scenario.params,
                vectorize=True,
            )
        spmd = scenario.build()
        params = scenario.params
        # the fault-free oracle: arrays are the bit-exact target, the
        # trace seeds the targeted schedules
        from .validate import run_spmd

        oracle = run_spmd(spmd, params, reliability="direct", trace=True)
        oracle_arrays = {
            myp: {n: a.copy() for n, a in arrays.items()}
            for myp, arrays in oracle.arrays.items()
        }

        # (expected, plan, transport, checkpoint)
        trials: List[tuple] = []
        for seed in range(seeds):
            plan = FaultPlan(seed=seed, corrupt_rate=corrupt_rate)
            for transport in transports:
                trials.append(("oracle", plan, transport, None))
        if targeted:
            for src, dst, seq in _critical_channel_messages(
                oracle.trace, targeted_limit
            ):
                plan = FaultPlan(corruptions={(src, dst, seq): 0})
                for transport in transports:
                    trials.append(("oracle", plan, transport, None))
                trials.append(
                    ("corruption-error", plan, "direct", None)
                )
        if crashes:
            ranks = sorted(oracle.arrays)
            targets = ranks[: min(2, len(ranks))]
            for frac in _CRASH_FRACTIONS:
                for rank in targets:
                    plan = FaultPlan(
                        crashes={rank: oracle.makespan * frac}
                    )
                    trials.append(("oracle", plan, "reliable", _CRASH_POLICY))

        for expected, plan, transport, policy in trials:
            report.trials += 1
            observed = _observe(
                spmd, params, plan, transport, oracle_arrays,
                checkpoint=policy,
            )
            met = (
                observed == "clean"
                if expected == "oracle"
                else observed == expected
            )
            if met:
                continue
            say(
                f"{name} [{transport}]: "
                f"expected {expected}, "
                f"observed {observed} -- shrinking"
            )
            entries_field = "corruptions"
            entries = list(plan.corruptions or ())
            if not entries and plan.crashes:
                entries_field = "crashes"
                entries = list(plan.crashes)
            if not entries and plan.corrupt_rate > 0:
                entries = _explicitize(spmd, params, plan, transport)

            def fails(candidate, _plan=plan,
                      _transport=transport, _observed=observed,
                      _policy=policy,
                      _field=entries_field):
                trial_plan = FaultPlan(
                    seed=_plan.seed,
                    **{_field: dict(candidate) or None},
                )
                return (
                    _observe(
                        spmd, params, trial_plan, _transport,
                        oracle_arrays, checkpoint=_policy,
                    )
                    == _observed
                )

            shrunk_plan = plan
            events = len(entries)
            if entries and fails(entries):
                shrunk = _ddmin(entries, fails, budget)
                shrunk_plan = FaultPlan(
                    seed=plan.seed,
                    **{entries_field: dict(shrunk) or None},
                )
                events = len(shrunk)
            report.findings.append(ChaosFinding(
                scenario=name,
                transport=transport,
                expected=expected,
                observed=observed,
                plan=shrunk_plan,
                events=events,
                reproducer=_make_reproducer(
                    scenario, transport, shrunk_plan,
                    expected, observed, checkpoint=policy,
                ),
            ))
    return report


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------


def load_reproducer(path: str) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("version") != 1:
        raise ValueError(
            f"unsupported reproducer version {doc.get('version')!r}"
        )
    return doc


def replay_reproducer(doc: dict) -> Tuple[bool, str]:
    """Re-run a reproducer; returns ``(reproduced, observed)``.

    ``reproduced`` is True when the replay observes exactly the failure
    kind the reproducer recorded -- the determinism guarantee the chaos
    harness promises.  The ``backend`` and ``recovery`` fields older
    reproducers carry are ignored: every run uses the one scheduler
    and recovers crashes locally."""
    from .validate import run_spmd

    scenario = Scenario.from_json(doc["scenario"])
    plan = plan_from_json(doc["plan"])
    spmd = scenario.build()
    oracle = run_spmd(spmd, scenario.params, reliability="direct")
    oracle_arrays = {
        myp: {n: a.copy() for n, a in arrays.items()}
        for myp, arrays in oracle.arrays.items()
    }
    saved = _transport._VERIFY_DISABLED
    _transport._VERIFY_DISABLED = bool(doc.get("verify_disabled", False))
    try:
        observed = _observe(
            spmd,
            scenario.params,
            plan,
            doc["transport"],
            oracle_arrays,
            checkpoint=_policy_from_json(doc.get("checkpoint")),
        )
    finally:
        _transport._VERIFY_DISABLED = saved
    return observed == doc["observed"], observed
