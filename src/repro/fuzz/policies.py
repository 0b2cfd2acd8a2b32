"""Tie-break policies: pluggable same-instant event ordering.

The event queue pops in ``(time, tie_key)`` order.  With no policy
installed the tie key is the scheduling sequence number — strict FIFO,
the engine's historical behaviour, byte-identical with or without the
hook (:class:`FifoTieBreak` maps ``(when, seq) -> seq`` exactly).  A
policy's keys order the events inside each calendar bucket (see
:mod:`repro.sim.core`); time still picks the bucket.

:class:`ShuffledTieBreak` replaces the key with a keyed 64-bit hash of
``(seed, when, seq)``: events that share a timestamp are processed in
hash order instead of scheduling order — a deterministic pseudo-random
permutation of every same-tick group, reproducible from the seed alone.
Events at *different* timestamps are never reordered (time remains the
major key), so every shuffled schedule is a legal schedule of the
simulated machine: it respects all causality the simulation expresses
through time, and permutes only orderings the engine never promised.

The low 64 bits of every shuffled key carry the sequence number, so
keys stay unique within a bucket and equal-hash collisions degrade to
FIFO.
"""

from __future__ import annotations

__all__ = ["FifoTieBreak", "ShuffledTieBreak", "TieBreakPolicy"]

_MASK64 = (1 << 64) - 1
#: golden-ratio / splitmix64 mixing constants
_C1 = 0x9E3779B97F4A7C15
_C2 = 0xBF58476D1CE4E5B9
_C3 = 0x94D049BB133111EB


class TieBreakPolicy:
    """Interface: map a scheduling ``(when, seq)`` pair to a tie key.
    Keys must be unique per ``seq`` and are compared only among events
    that share ``when``."""

    def key(self, when: int, seq: int) -> int:  # pragma: no cover
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__


class FifoTieBreak(TieBreakPolicy):
    """Strict scheduling order — identical to no policy at all.

    Exists so the parity guarantee ("the hook with the default policy
    is byte-identical to the hook-less engine") is testable as code
    rather than asserted in prose.
    """

    def key(self, when: int, seq: int) -> int:
        return seq

    def describe(self) -> str:
        return "fifo"


class ShuffledTieBreak(TieBreakPolicy):
    """Seeded deterministic permutation of same-timestamp events.

    Each distinct seed is one alternative legal schedule; the same seed
    always reproduces the same schedule, so a failing run can be
    replayed (and shrunk) exactly.
    """

    __slots__ = ("seed", "_mixed")

    def __init__(self, seed: int):
        self.seed = int(seed)
        # Pre-mix the seed once so key() is two multiplies + shifts.
        x = (self.seed * _C1 + _C2) & _MASK64
        x ^= x >> 30
        self._mixed = (x * _C3) & _MASK64

    def key(self, when: int, seq: int) -> int:
        # splitmix64-style finalizer over (seed, when, seq): adjacent
        # sequence numbers at one timestamp land at unrelated keys.
        x = (self._mixed ^ (when * _C1) ^ (seq * _C2)) & _MASK64
        x ^= x >> 30
        x = (x * _C2) & _MASK64
        x ^= x >> 27
        x = (x * _C3) & _MASK64
        x ^= x >> 31
        # seq in the low bits keeps keys unique and ties deterministic.
        return (x << 64) | seq

    def describe(self) -> str:
        return f"shuffled(seed={self.seed})"
