"""Silent-data-corruption tolerance (ISSUE 6 acceptance).

Four guarantees under test:

* **Recovery**: with payload corruption injected, the self-checking
  reliable transport delivers final arrays *bit-identical* to the
  fault-free oracle on every conformance workload and vectorization
  mode -- and the PR 5 trace invariants still hold.
* **Detection**: on the direct transport (no retransmission protocol)
  corruption surfaces as a structured :class:`CorruptionError` naming
  the channel message.
* **Checkpoint integrity**: corrupted snapshots are rejected by digest
  at restore and recovery falls back to the last valid cut.
* **Zero overhead**: with no corruption injected, checksummed runs are
  bit-identical to unchecksummed ones; checksum time appears exactly
  when the cost model prices it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codegen import SPMDOptions
from repro.runtime import (
    CheckpointPolicy,
    CorruptionError,
    CostModel,
    FaultPlan,
    Machine,
    run_spmd,
)
from repro.runtime.transport import BACKOFF

from .trace_workloads import (
    TRANSPORTS,
    VECTORIZE,
    WORKLOADS,
    assert_same_arrays,
    assert_trace_invariants as assert_invariants,
    compiled_spmd,
)


class TestCorruptionRecovery:
    """Reliable transport + checksums: corruption is invisible in the
    final answer, on every workload and vectorization mode."""

    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_arrays_bit_identical_to_fault_free_oracle(
        self, name, transport
    ):
        """Both full-service transports: on onesided, a corrupted put
        is verified *before* window commit (the stash) -- the reader
        can never observe a corrupted word through a fence."""
        _build, params = WORKLOADS[name]
        plan = FaultPlan(seed=1, corrupt_rate=0.4)
        injected = 0
        messages = 0
        for vec in VECTORIZE:
            spmd = compiled_spmd(name, vectorize=vec)
            oracle = run_spmd(spmd, params)
            messages += oracle.total_messages
            label = f"{name} vectorize={vec}"
            result = run_spmd(
                spmd, params, fault_plan=plan, reliability=transport,
                trace=True,
            )
            assert_same_arrays(result, oracle, label)
            assert_invariants(result, label)
            injected += result.stat_sum("corruptions_injected")
            # every corrupted copy was caught (discarded, then the
            # clean retransmission got through)
            assert result.stat_sum("corrupt_dropped") == result.stat_sum(
                "corruptions_injected"
            ), label
        if messages:
            assert injected > 0, f"{name}: fault plan never fired"


class TestCorruptionDetection:
    """Direct transport: detected, structured, deterministic."""

    def test_direct_raises_structured_error(self):
        _build, params = WORKLOADS["fig2"]
        spmd = compiled_spmd("fig2")
        plan = FaultPlan(corruptions={((1,), (2,), 0): 0})
        with pytest.raises(CorruptionError) as info:
            run_spmd(spmd, params, fault_plan=plan, reliability="direct")
        err = info.value
        assert err.src == (1,)
        assert err.receiver == (2,)
        assert err.seq == 0

    def test_unreliable_transport_stays_silent(self):
        """The unreliable transport demonstrates the failure mode:
        corruption is injected but nothing detects it."""
        _build, params = WORKLOADS["fig2"]
        spmd = compiled_spmd("fig2")
        plan = FaultPlan(seed=3, corrupt_rate=0.5)
        result = run_spmd(
            spmd, params, fault_plan=plan, reliability="unreliable"
        )
        assert result.stat_sum("corruptions_injected") > 0
        assert result.stat_sum("corrupt_dropped") == 0


_SWEEP = {}


def _sweep_case(name):
    if name not in _SWEEP:
        _build, params = WORKLOADS[name]
        spmd = compiled_spmd(name)
        _SWEEP[name] = (spmd, params, run_spmd(spmd, params))
    return _SWEEP[name]


class TestCorruptionSweep:
    @settings(max_examples=12, deadline=None)
    @given(
        name=st.sampled_from(["fig2", "lu", "pipe"]),
        seed=st.integers(min_value=0, max_value=10_000),
        rate=st.sampled_from([0.02, 0.1, 0.3]),
    )
    def test_any_seed_any_rate_recovers_exactly(self, name, seed, rate):
        spmd, params, oracle = _sweep_case(name)
        plan = FaultPlan(seed=seed, corrupt_rate=rate)
        result = run_spmd(spmd, params, fault_plan=plan)
        assert_same_arrays(result, oracle, f"{name} seed={seed} rate={rate}")


class TestCheckpointDigests:
    def test_corrupted_snapshots_rejected_and_recovery_falls_back(self):
        _build, params = WORKLOADS["fig2"]
        spmd = compiled_spmd("fig2")
        oracle = run_spmd(spmd, params)
        # every post-baseline snapshot is corrupted at rest, so the
        # crash must recover from the baseline cut (ordinal 0, which
        # the injector never touches)
        plan = FaultPlan(
            crashes={(1,): 1500.0}, checkpoint_corrupt_rate=1.0
        )
        result = run_spmd(
            spmd,
            params,
            fault_plan=plan,
            checkpoint=CheckpointPolicy(every_ops=4),
            max_restarts=5,
        )
        assert result.restarts >= 1
        assert result.snapshots_rejected >= 1
        assert_same_arrays(result, oracle, "checkpoint fallback")

    def test_clean_snapshots_verify(self):
        _build, params = WORKLOADS["fig2"]
        spmd = compiled_spmd("fig2")
        plan = FaultPlan(crashes={(1,): 1500.0}, corrupt_rate=0.1)
        result = run_spmd(
            spmd,
            params,
            fault_plan=plan,
            checkpoint=CheckpointPolicy(every_ops=4),
            max_restarts=5,
        )
        assert result.restarts >= 1
        assert result.snapshots_rejected == 0


class TestZeroOverhead:
    def test_checksums_free_without_corruption(self):
        for name in ("fig2", "lu"):
            _build, params = WORKLOADS[name]
            spmd = compiled_spmd(name)
            off = run_spmd(spmd, params, trace=True)
            on = run_spmd(spmd, params, trace=True, checksums=True)
            assert on.makespan == off.makespan, name
            assert on.clocks == off.clocks, name
            assert on.stats == off.stats, name
            assert on.trace.normalized() == off.trace.normalized(), name
            assert_same_arrays(on, off, name)

    def test_checksum_time_appears_only_when_priced(self):
        _build, params = WORKLOADS["fig2"]
        spmd = compiled_spmd("fig2")
        cost = CostModel(checksum_word_time=5.0)
        off = run_spmd(spmd, params, cost=cost)
        on = run_spmd(spmd, params, cost=cost, checksums=True)
        assert on.makespan > off.makespan
        assert_same_arrays(on, off, "priced checksums")

    def test_auto_enables_exactly_with_corruption_faults(self):
        assert not FaultPlan(seed=1, drop_rate=0.2).any_corruption_faults
        assert FaultPlan(seed=1, corrupt_rate=0.1).any_corruption_faults
        assert FaultPlan(
            corruptions={((0,), (1,), 0): 0}
        ).any_corruption_faults
        plan = FaultPlan(checkpoint_corrupt_rate=0.5)
        assert not plan.any_corruption_faults
        assert plan.any_checkpoint_corruption
        # checkpoint-only corruption must not force the ARQ transport
        assert not plan.any_network_faults


class TestAdaptiveRto:
    """The per-channel adaptive RTO is the ARQ's only timer: it must
    recover bit-exactly and keep its state per (sender, destination)
    channel within ``[base, base * BACKOFF**max_retries]``."""

    def _run(self):
        _build, params = WORKLOADS["fig2"]
        spmd = compiled_spmd("fig2")
        machine = Machine(
            spmd.program,
            spmd.space,
            params,
            fault_plan=FaultPlan(seed=5, ack_drop_rate=0.6),
            reliability="reliable",
        )
        return machine, machine.run(spmd.node)

    def test_recovers_exactly(self):
        _build, params = WORKLOADS["fig2"]
        oracle = run_spmd(compiled_spmd("fig2"), params)
        _machine, result = self._run()
        assert result.stat_sum("retransmissions") > 0
        assert_same_arrays(result, oracle, "adaptive RTO")

    def test_rto_state_is_per_channel_and_bounded(self):
        machine, _result = self._run()
        transport = machine.transport
        base = transport._initial_rto(machine.cost)
        cap = base * BACKOFF ** transport.max_retries
        channels = {
            (proc.myp, dest): rto
            for proc in machine.procs.values()
            for dest, rto in proc._arq_rto.items()
        }
        assert channels, "the ARQ never recorded channel state"
        for (src, dest), rto in channels.items():
            assert dest in machine.procs and dest != src
            assert base <= rto <= cap
        # channels that timed out remember an inflated RTO
        assert any(rto > base for rto in channels.values())
