"""Lemma-level twist calculus, kept as an oracle for the support tables.

``twist_segment`` implements the one-step rule for a twist acting on a
two-term segment or a single module summand; chaining it reproduces the
odd-n support tables of ``braiddyn.twistcalc.letter_support`` without
reading them.  ``unit_charge`` and ``support_charge`` give the central
charges that pin the level of every table entry through
Z(sigma_i X) = s_i Z(X).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from braiddyn.fusion import delta_value
from braiddyn.twistcalc import SemistableUnit, unit_phase


@dataclass(frozen=True)
class RawObject:
    """A single summand P_vertex (x) Pi_label <k>[l]."""

    vertex: int  # 1 or 2
    label: int
    k: int
    l: int

    def shifted(self, dk: int, dl: int) -> RawObject:
        return RawObject(self.vertex, self.label, self.k + dk, self.l + dl)

    def level(self) -> int:
        return self.l - self.k


@dataclass(frozen=True)
class Segment:
    """Two-term complex P_{i+-1} (x) Pi_a <k>[l] -> P_i (x) Pi_{a-1} <k-1>[l-1]."""

    head: RawObject
    tail: RawObject

    def __post_init__(self):
        ok = (
            self.head.vertex != self.tail.vertex
            and self.head.label == self.tail.label + 1
            and self.head.k == self.tail.k + 1
            and self.head.l == self.tail.l + 1
        )
        if not ok:
            raise ValueError("not a braid-relation segment")


def twist_segment(n: int, i: int, obj: Segment | RawObject) -> Segment | RawObject:
    """One twist sigma_{P_i} applied via the closed-form cone rules.

    Segment with tail vertex i and head label a: becomes the shifted
    segment (a != n-2) or collapses to its head (a = n-2).  A single
    summand at vertex i just picks up <2>[1]; at the other vertex it
    becomes the cone segment with a Pi_1 head.
    """
    if i not in (1, 2):
        raise ValueError("twist generator must be 1 or 2")
    if isinstance(obj, Segment):
        if obj.tail.vertex != i:
            raise ValueError("segment tail does not match the twist generator")
        a, k, l = obj.head.label, obj.head.k, obj.head.l
        if a == n - 2:
            return obj.head
        return Segment(RawObject(i, a + 1, k + 1, l + 1), obj.head)
    if obj.vertex == i:
        return obj.shifted(2, 1)
    if obj.label != 0:
        raise ValueError("cone rule needs an undecorated summand")
    return Segment(RawObject(i, 1, obj.k + 1, obj.l + 1), obj)


def unit_charge(n: int, u: SemistableUnit) -> complex:
    """Central charge Delta_label * exp(i pi phase)."""
    return delta_value(n, u.label) * cmath.exp(1j * math.pi * float(unit_phase(n, u)))


def support_charge(n: int, support: dict[SemistableUnit, int]) -> complex:
    return sum(w * unit_charge(n, u) for u, w in support.items())
