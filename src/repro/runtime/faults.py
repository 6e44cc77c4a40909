"""Deterministic, seed-driven fault injection for the machine simulator.

The iPSC/860's message layer presents reliable, ordered point-to-point
channels to the node program; the generated SPMD code (and the paper)
assume them.  Real substrates are not so kind.  This module models an
*unreliable network* underneath the simulator so the transport layer
(:mod:`repro.runtime.transport`) can be exercised -- and so benchmarks
can quantify what reliability costs.

Every fault decision is a pure function of ``(seed, kind, src, dest,
tag, attempt)`` hashed through BLAKE2b, so a run's fault pattern is

* **reproducible**: the same seed gives the same drops/duplicates/
  delays on every run;
* **independent per message**: decisions are i.i.d. uniform variates,
  one stream per decision kind, with no shared-RNG ordering hazards
  between processors.

Fault classes modeled (all optional, all off by default):

``drop_rate``
    probability a transmission attempt is lost in the network;
``ack_drop_rate``
    probability the acknowledgement for a *delivered* attempt is lost
    (defaults to ``drop_rate``; forces spurious retransmission and
    exercises receiver-side dedup);
``dup_rate``
    probability a delivered attempt is duplicated by the network;
``reorder_rate`` / ``max_delay``
    probability a delivered attempt is delayed by up to ``max_delay``
    model-time units, arriving out of order relative to later sends;
``stall_rate`` / ``stall_time``
    probability a processor suffers a transient stall (OS jitter,
    contention) at a communication call, costing about ``stall_time``
    model-time units;
``crash_rate`` / ``crashes``
    **fail-stop processor crashes**: ``crash_rate`` is the probability
    a processor dies at a communication call, and ``crashes`` is an
    explicit schedule ``{rank: model_time}`` -- the named processor
    dies the first time its clock reaches that model time.  Crash
    decisions are keyed by ``(proc, op_index, incarnation)``, so a
    restarted incarnation re-rolls its dice (a rebooted node is not
    doomed to die at the same instruction forever), while the whole
    run remains a pure function of the seed.  Recovery lives in
    :mod:`repro.runtime.checkpoint`.
``corrupt_rate`` / ``corruptions``
    **silent data corruption**: ``corrupt_rate`` is the probability a
    delivered payload copy has one word flipped in flight, and
    ``corruptions`` is an explicit schedule ``{(src, dst, seq):
    word_index}`` naming exactly which word of which logical message is
    flipped (``seq`` is the per-``(src, dst)`` channel message ordinal,
    counted from 0 in the sender's deterministic program order --
    identical across transports, so schedules are
    replayable anywhere).  Explicit corruptions hit the original
    transmission (attempt 0); the rate stream is keyed by ``(src, dst,
    seq, attempt)`` so ARQ retransmissions re-roll.  Detection and
    recovery live in :mod:`repro.runtime.transport` (checksums).
``checkpoint_corrupt_rate`` / ``checkpoint_corruptions``
    **stable-storage corruption**: a taken snapshot has one array word
    flipped after its digest was recorded, keyed by ``(rank,
    checkpoint_ordinal)``.  A corrupted snapshot is detected at
    restore time (digest mismatch) and recovery falls back to the
    previous valid snapshot (see :mod:`repro.runtime.checkpoint`).
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import blake2b
from typing import Mapping, Optional, Tuple, Union

import numpy as np

__all__ = ["FaultPlan", "ProcessorCrashed", "flip_word"]

#: the bit flipped in a corrupted float64 word: a mid-mantissa bit, so
#: every normal value changes detectably without jumping to inf/NaN
_FLIP_BIT = np.uint64(1 << 26)


def flip_word(payload, index: int) -> None:
    """Flip one bit of word ``index`` of ``payload``, in place.

    Payloads are float64 numpy vectors on the generated-code path and
    plain float lists from hand-written harnesses; both are corrupted
    through their IEEE-754 bit pattern so the flip is always observable
    to a checksum (and to any bit-exact oracle, NaN payloads aside).
    """
    if isinstance(payload, np.ndarray):
        payload.view(np.uint64)[index] ^= _FLIP_BIT
        return
    word = np.array([payload[index]], dtype=np.float64)
    word.view(np.uint64)[0] ^= _FLIP_BIT
    payload[index] = float(word[0])


class ProcessorCrashed(Exception):
    """A fail-stop crash fault fired on one processor.

    Raised inside the processor's node program to kill it mid-program;
    the scheduler catches it and either restarts that processor from
    its last checkpoint or gives up with a
    :class:`~repro.runtime.diagnostics.CrashError`.
    """

    def __init__(
        self,
        myp: Tuple[int, ...],
        model_time: float,
        op_index: int,
        incarnation: int,
        cause: str,
    ):
        super().__init__(
            f"processor {myp} crashed at t={model_time:g} "
            f"(op {op_index}, incarnation {incarnation}, {cause})"
        )
        self.myp = myp
        self.model_time = model_time
        self.op_index = op_index
        self.incarnation = incarnation
        self.cause = cause


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible schedule of network/processor faults.

    All rates are probabilities in ``[0, 1]``; delays and stalls are in
    the simulator's abstract time units (same scale as
    :class:`~repro.runtime.machine.CostModel`).
    """

    seed: int = 0
    drop_rate: float = 0.0
    dup_rate: float = 0.0
    reorder_rate: float = 0.0
    max_delay: float = 400.0
    ack_drop_rate: float | None = None
    stall_rate: float = 0.0
    stall_time: float = 200.0
    crash_rate: float = 0.0
    #: explicit fail-stop schedule: ``{rank: model_time}``.  Ranks may
    #: be ints (1-D spaces) or coordinate tuples; normalized to a
    #: sorted tuple of ``(coords, time)`` pairs so the plan stays
    #: hashable.
    crashes: Union[
        Mapping[Union[int, Tuple[int, ...]], float],
        Tuple[Tuple[Tuple[int, ...], float], ...],
        None,
    ] = None
    corrupt_rate: float = 0.0
    #: explicit corruption schedule: ``{(src, dst, seq): word_index}``
    #: with ``seq`` the per-channel message ordinal; normalized to a
    #: sorted tuple of ``((src, dst, seq), word_index)`` entries.
    corruptions: Union[
        Mapping[tuple, int],
        Tuple[Tuple[Tuple[Tuple[int, ...], Tuple[int, ...], int], int], ...],
        None,
    ] = None
    checkpoint_corrupt_rate: float = 0.0
    #: explicit snapshot-corruption schedule: ``{(rank, ordinal)}`` or
    #: an iterable of such pairs (``ordinal`` counts the policy-taken
    #: checkpoints of that rank from 0; the free pc=0 baseline is never
    #: corrupted, so recovery always terminates).
    checkpoint_corruptions: Union[
        Tuple[Tuple[Tuple[int, ...], int], ...], None,
    ] = None

    def __post_init__(self) -> None:
        for name in (
            "drop_rate", "dup_rate", "reorder_rate", "stall_rate",
            "crash_rate", "corrupt_rate", "checkpoint_corrupt_rate",
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(
                    f"{name} must be a probability in [0, 1], got {rate!r}"
                )
        if self.ack_drop_rate is not None and not 0.0 <= self.ack_drop_rate <= 1.0:
            raise ValueError(
                f"ack_drop_rate must be in [0, 1], got {self.ack_drop_rate!r}"
            )
        if self.max_delay < 0 or self.stall_time < 0:
            raise ValueError("max_delay and stall_time must be non-negative")
        if self.crashes is not None:
            normalized = []
            items = (
                self.crashes.items()
                if isinstance(self.crashes, Mapping)
                else self.crashes
            )
            for rank, when in items:
                coords = (rank,) if isinstance(rank, int) else tuple(rank)
                if when < 0:
                    raise ValueError(
                        f"crash time must be non-negative, got {when!r}"
                    )
                normalized.append((coords, float(when)))
            object.__setattr__(self, "crashes", tuple(sorted(normalized)))
        if self.corruptions is not None:
            normalized = []
            items = (
                self.corruptions.items()
                if isinstance(self.corruptions, Mapping)
                else self.corruptions
            )
            for key, word in items:
                src, dst, seq = key
                src = (src,) if isinstance(src, int) else tuple(src)
                dst = (dst,) if isinstance(dst, int) else tuple(dst)
                if seq < 0 or word < 0:
                    raise ValueError(
                        f"corruption schedule entries need seq >= 0 and "
                        f"word_index >= 0, got {key!r}: {word!r}"
                    )
                normalized.append(((src, dst, int(seq)), int(word)))
            object.__setattr__(
                self, "corruptions", tuple(sorted(normalized))
            )
        if self.checkpoint_corruptions is not None:
            normalized = []
            for rank, ordinal in self.checkpoint_corruptions:
                coords = (rank,) if isinstance(rank, int) else tuple(rank)
                if ordinal < 0:
                    raise ValueError(
                        f"checkpoint ordinal must be >= 0, got {ordinal!r}"
                    )
                normalized.append((coords, int(ordinal)))
            object.__setattr__(
                self, "checkpoint_corruptions", tuple(sorted(normalized))
            )

    # -- derived ------------------------------------------------------------

    @property
    def effective_ack_drop_rate(self) -> float:
        if self.ack_drop_rate is None:
            return self.drop_rate
        return self.ack_drop_rate

    @property
    def any_network_faults(self) -> bool:
        return (
            self.drop_rate > 0
            or self.dup_rate > 0
            or self.reorder_rate > 0
            or self.effective_ack_drop_rate > 0
            or self.any_corruption_faults
        )

    @property
    def any_crash_faults(self) -> bool:
        return self.crash_rate > 0 or bool(self.crashes)

    @property
    def any_corruption_faults(self) -> bool:
        return self.corrupt_rate > 0 or bool(self.corruptions)

    @property
    def any_checkpoint_corruption(self) -> bool:
        return self.checkpoint_corrupt_rate > 0 or bool(
            self.checkpoint_corruptions
        )

    # -- the deterministic variate stream -----------------------------------

    def _frac(self, kind: str, *key) -> float:
        """Uniform variate in [0, 1) for one (kind, key) decision."""
        material = repr((self.seed, kind) + key).encode()
        digest = blake2b(material, digest_size=8).digest()
        return int.from_bytes(digest, "big") / 2.0**64

    # -- per-attempt network decisions --------------------------------------

    def drops(
        self,
        src: Tuple[int, ...],
        dest: Tuple[int, ...],
        tag: tuple,
        attempt: int,
    ) -> bool:
        """Is this transmission attempt lost in the network?"""
        return self._frac("drop", src, dest, tag, attempt) < self.drop_rate

    def drops_ack(
        self,
        src: Tuple[int, ...],
        dest: Tuple[int, ...],
        tag: tuple,
        attempt: int,
    ) -> bool:
        """Is the acknowledgement for this delivered attempt lost?"""
        return (
            self._frac("ack", src, dest, tag, attempt)
            < self.effective_ack_drop_rate
        )

    def duplicates(
        self,
        src: Tuple[int, ...],
        dest: Tuple[int, ...],
        tag: tuple,
        attempt: int,
    ) -> bool:
        """Does the network deliver a second copy of this attempt?"""
        return self._frac("dup", src, dest, tag, attempt) < self.dup_rate

    def delay(
        self,
        src: Tuple[int, ...],
        dest: Tuple[int, ...],
        tag: tuple,
        attempt: int,
    ) -> float:
        """Extra wire time for this attempt (0.0 when not reordered)."""
        if self._frac("reorder", src, dest, tag, attempt) >= self.reorder_rate:
            return 0.0
        return self._frac("delay", src, dest, tag, attempt) * self.max_delay

    # -- silent data corruption ----------------------------------------------

    def scheduled_corruption(
        self,
        src: Tuple[int, ...],
        dest: Tuple[int, ...],
        seq: int,
    ) -> Optional[int]:
        """The explicit word index scheduled for this logical message,
        if any (explicit corruptions hit the original transmission)."""
        if not self.corruptions:
            return None
        key = (tuple(src), tuple(dest), seq)
        for entry, word in self.corruptions:
            if entry == key:
                return word
        return None

    def corrupts(
        self,
        src: Tuple[int, ...],
        dest: Tuple[int, ...],
        seq: int,
        attempt: int,
    ) -> bool:
        """Is this delivered payload copy corrupted in flight?"""
        if attempt == 0 and self.scheduled_corruption(src, dest, seq) is not None:
            return True
        if self.corrupt_rate <= 0:
            return False
        return (
            self._frac("corrupt", src, dest, seq, attempt)
            < self.corrupt_rate
        )

    def corrupt_word(
        self,
        nwords: int,
        src: Tuple[int, ...],
        dest: Tuple[int, ...],
        seq: int,
        attempt: int,
    ) -> int:
        """Which word of the payload the corruption flips."""
        if attempt == 0:
            word = self.scheduled_corruption(src, dest, seq)
            if word is not None:
                return min(word, nwords - 1)
        return int(
            self._frac("corrupt-word", src, dest, seq, attempt) * nwords
        )

    def corrupts_checkpoint(self, myp: Tuple[int, ...], ordinal: int) -> bool:
        """Is this rank's ``ordinal``-th policy checkpoint corrupted on
        stable storage?"""
        if self.checkpoint_corruptions:
            if (tuple(myp), ordinal) in self.checkpoint_corruptions:
                return True
        if self.checkpoint_corrupt_rate <= 0:
            return False
        return (
            self._frac("ckpt-corrupt", myp, ordinal)
            < self.checkpoint_corrupt_rate
        )

    def checkpoint_corrupt_word(
        self, nwords: int, myp: Tuple[int, ...], ordinal: int
    ) -> int:
        return int(
            self._frac("ckpt-corrupt-word", myp, ordinal) * nwords
        )

    # -- per-processor stalls ------------------------------------------------

    def stall(self, myp: Tuple[int, ...], op_index: int) -> float:
        """Transient stall injected at this processor's op_index-th
        communication call (0.0 when no stall fires)."""
        if self._frac("stall", myp, op_index) >= self.stall_rate:
            return 0.0
        jitter = self._frac("stall-amount", myp, op_index)
        return self.stall_time * (0.5 + jitter)

    # -- fail-stop crashes ----------------------------------------------------

    def crashes_at(
        self, myp: Tuple[int, ...], op_index: int, incarnation: int
    ) -> bool:
        """Does this processor die at this communication call?"""
        if self.crash_rate <= 0:
            return False
        return (
            self._frac("crash", myp, op_index, incarnation)
            < self.crash_rate
        )

    def scheduled_crash(self, myp: Tuple[int, ...]) -> Optional[float]:
        """The model time at which ``myp`` is scheduled to die, if any."""
        if not self.crashes:
            return None
        for coords, when in self.crashes:
            if coords == tuple(myp):
                return when
        return None

    # -- presentation --------------------------------------------------------

    def describe(self) -> str:
        parts = [f"seed={self.seed}"]
        if self.drop_rate:
            parts.append(f"drop={self.drop_rate:.0%}")
        if self.effective_ack_drop_rate and self.ack_drop_rate is not None:
            parts.append(f"ack-drop={self.effective_ack_drop_rate:.0%}")
        if self.dup_rate:
            parts.append(f"dup={self.dup_rate:.0%}")
        if self.reorder_rate:
            parts.append(
                f"reorder={self.reorder_rate:.0%} (<= {self.max_delay:g}t)"
            )
        if self.stall_rate:
            parts.append(
                f"stall={self.stall_rate:.0%} (~{self.stall_time:g}t)"
            )
        if self.crash_rate:
            parts.append(f"crash={self.crash_rate:.1%}")
        if self.crashes:
            sched = ", ".join(
                f"{coords}@{when:g}" for coords, when in self.crashes
            )
            parts.append(f"crash-at=[{sched}]")
        if self.corrupt_rate:
            parts.append(f"corrupt={self.corrupt_rate:.2%}")
        if self.corruptions:
            sched = ", ".join(
                f"{src}->{dst}#{seq}[{word}]"
                for (src, dst, seq), word in self.corruptions
            )
            parts.append(f"corrupt-at=[{sched}]")
        if self.checkpoint_corrupt_rate:
            parts.append(
                f"ckpt-corrupt={self.checkpoint_corrupt_rate:.2%}"
            )
        if self.checkpoint_corruptions:
            sched = ", ".join(
                f"{rank}#{ordinal}"
                for rank, ordinal in self.checkpoint_corruptions
            )
            parts.append(f"ckpt-corrupt-at=[{sched}]")
        if len(parts) == 1:
            parts.append("no faults")
        return "FaultPlan(" + ", ".join(parts) + ")"
