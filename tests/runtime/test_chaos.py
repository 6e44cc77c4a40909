"""Chaos exploration harness (ISSUE 6 acceptance).

The explorer must (a) certify the healthy stack -- every enumerated
fault schedule meets its expectation; (b) when a bug is seeded (here:
checksum verification disabled via the ``_VERIFY_DISABLED`` hook),
*find* it, *shrink* the failing schedule to a handful of fault events,
and emit a JSON reproducer that replays deterministically.
"""

import json

import pytest

from repro.runtime import chaos
from repro.runtime import transport as transport_mod
from repro.runtime.chaos import (
    WORKLOADS,
    explore,
    plan_from_json,
    plan_to_json,
    replay_reproducer,
)
from repro.runtime.faults import FaultPlan


@pytest.fixture
def verification_disabled():
    """Seed the bug: receivers stop verifying checksums."""
    saved = transport_mod._VERIFY_DISABLED
    transport_mod._VERIFY_DISABLED = True
    try:
        yield
    finally:
        transport_mod._VERIFY_DISABLED = saved


class TestHealthyStack:
    def test_every_schedule_meets_its_expectation(self):
        report = explore(
            workloads=("fig2", "pipe"),
            seeds=3,
            corrupt_rate=0.3,
            targeted_limit=2,
        )
        assert report.ok
        assert report.trials > 0
        assert "0 finding(s)" in report.format()

    def test_scenarios_are_self_contained(self):
        for name, scenario in WORKLOADS.items():
            doc = json.loads(json.dumps(scenario.to_json()))
            rebuilt = chaos.Scenario.from_json(doc)
            assert rebuilt == scenario, name


class TestOneSidedTrials:
    def test_transport_axis_multiplies_network_trials_only(self):
        """The transports axis applies to seed + targeted oracle trials
        (both window and two-sided paths must survive the same fault
        schedules); crash trials and the direct-transport detection
        trials stay single-transport."""
        base = explore(
            workloads=("fig2",), seeds=2,
            targeted=False, crashes=False,
        )
        both = explore(
            workloads=("fig2",), seeds=2,
            targeted=False, crashes=False,
            transports=("reliable", "onesided"),
        )
        assert base.ok and both.ok
        assert both.trials == 2 * base.trials

    def test_onesided_corruption_trials_meet_the_oracle(self):
        report = explore(
            workloads=("fig2",), seeds=2,
            corrupt_rate=0.3, targeted=True, targeted_limit=2,
            crashes=False, transports=("onesided",),
        )
        assert report.ok, report.format()
        assert report.trials > 0

    def test_explore_rejects_unknown_transport(self):
        with pytest.raises(ValueError, match="transport"):
            explore(workloads=(), transports=("direct",))

    def test_onesided_finding_reproducer_records_transport(
        self, verification_disabled
    ):
        """With verification seeded off, the onesided window commits a
        corrupted put -- the finding's reproducer must name the
        onesided transport and replay deterministically."""
        report = explore(
            workloads=("fig2",), seeds=0,
            targeted_limit=2, crashes=False,
            transports=("onesided",),
        )
        assert not report.ok, "seeded bug went undetected on onesided"
        for finding in report.findings:
            if finding.transport == "direct":
                continue
            assert finding.transport == "onesided"
            doc = json.loads(
                json.dumps(finding.reproducer, sort_keys=True)
            )
            assert doc["transport"] == "onesided"
            reproduced, observed = replay_reproducer(doc)
            assert reproduced, (
                f"onesided reproducer did not replay: recorded "
                f"{finding.observed}, observed {observed}"
            )


class TestInjectedBug:
    def test_finds_shrinks_and_replays(self, verification_disabled):
        report = explore(
            workloads=("fig2",),
            seeds=0,
            targeted_limit=2,
        )
        assert not report.ok, "seeded bug went undetected"
        for finding in report.findings:
            # shrunk to a minimal schedule (acceptance: <= 3 events)
            assert 1 <= finding.events <= 3
            # and the artifact survives a JSON round trip + replay
            doc = json.loads(
                json.dumps(finding.reproducer, sort_keys=True)
            )
            assert "backend" not in doc
            # older reproducers carry a backend field; replay ignores it
            doc["backend"] = "threads"
            reproduced, observed = replay_reproducer(doc)
            assert reproduced, (
                f"reproducer did not replay: recorded "
                f"{finding.observed}, observed {observed}"
            )

    def test_findings_are_deterministic(self, verification_disabled):
        def run():
            report = explore(
                workloads=("fig2",),
                seeds=0,
                targeted_limit=1,
            )
            return [
                (f.scenario, f.transport, f.expected,
                 f.observed, f.events, plan_to_json(f.plan))
                for f in report.findings
            ]

        assert run() == run()


class TestPlanSerialization:
    def test_round_trip_preserves_every_knob(self):
        plan = FaultPlan(
            seed=11,
            drop_rate=0.1,
            dup_rate=0.05,
            reorder_rate=0.2,
            max_delay=123.0,
            ack_drop_rate=0.3,
            stall_rate=0.01,
            stall_time=77.0,
            crash_rate=0.002,
            crashes={(1,): 500.0},
            corrupt_rate=0.04,
            corruptions={((0,), (1,), 3): 2},
            checkpoint_corrupt_rate=0.5,
            checkpoint_corruptions=[((1,), 2)],
        )
        doc = json.loads(json.dumps(plan_to_json(plan), sort_keys=True))
        assert plan_from_json(doc) == plan

    def test_defaults_round_trip(self):
        plan = FaultPlan(seed=0, corrupt_rate=0.1)
        assert plan_from_json(plan_to_json(plan)) == plan


class TestInputValidation:
    def test_explore_rejects_bad_rate(self):
        with pytest.raises(ValueError, match="probability"):
            explore(workloads=(), corrupt_rate=1.5)

    def test_explore_rejects_negative_seeds(self):
        with pytest.raises(ValueError, match="seeds"):
            explore(workloads=(), seeds=-1)

    def test_load_reproducer_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 99}')
        with pytest.raises(ValueError, match="version"):
            chaos.load_reproducer(str(path))
