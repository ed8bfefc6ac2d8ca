"""Closed-form twist action on the canonical semistable objects.

The stable objects of the root stability condition come in three
families of *units*, indexed by powers of gamma = s2 s1:

    V1[j] = gamma^j P_1,   V2[j] = gamma^j P_2,   U[j] = gamma^j s2(P_1),

with U only present for even n.  Indices run mod n for odd n and mod n/2
for even n; wrapping around applies the shift identity gamma^n(X) =
X<2n>[2n-2] (odd) or gamma^(n/2)(X) = X (x) Pi_{n-2} <n>[n-1] (even).  A
``SemistableUnit`` is such a unit decorated by a simple class Pi_a and a
level c (cohomological shift minus internal shift); its mass as a
function of t is Delta_a(2cos(pi/n)) * e^((phase+c) t) and its central
charge is Delta_a * e^(i pi (phase+c)).

``twist_segment`` implements the one-step rule for a twist acting on a
two-term segment or a single module summand; chaining it reproduces the
support tables for odd n.  ``letter_support`` is the workhorse: it maps
(twist letter, unit) to the list of decorated units in the
Harder-Narasimhan support of the image, by reducing the letter to the
base generator with gamma conjugation and reading a fixed per-parity
table at the base.  The even-n sigma_2 table cannot be reached by
chaining ``twist_segment`` (the segments point the wrong way); its rows
are fixed by the n=4 matrices together with central-charge additivity
Z(sigma_i X) = s_i Z(X), which pins every s-exponent.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .braidword import TwistLetter, twist_modulus
from .fusion import FusionVec, MassPoly, _fusion_table, delta_value

__all__ = [
    "RawObject",
    "Segment",
    "SemistableUnit",
    "gamma_on_unit",
    "letter_support",
    "log_support_mass",
    "support_charge",
    "support_mass",
    "twist_segment",
    "unit_charge",
    "unit_mass",
    "unit_phase",
]

V1, V2, U = "V1", "V2", "U"
_FAMILIES = (V1, V2, U)


@dataclass(frozen=True)
class SemistableUnit:
    """A canonical unit gamma^index(...) decorated by (x) Pi_label and a level."""

    family: str
    index: int
    label: int = 0
    level: int = 0

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")


def _check_unit(n: int, u: SemistableUnit) -> None:
    if u.family == U and n % 2:
        raise ValueError("family U exists only for even n")
    if not 0 <= u.index < twist_modulus(n):
        raise ValueError(f"unit index {u.index} out of range for n={n}")
    if not 0 <= u.label <= n - 2:
        raise ValueError(f"unit label {u.label} out of range for n={n}")


def _phase_numerator(n: int, family: str, index: int) -> int:
    """n times the phase of the undecorated level-0 unit."""
    if family == V1:
        return -2 * index
    if family == V2:
        return n - 2 * index - 1
    return n - 2 * index - 2


def unit_phase(n: int, u: SemistableUnit) -> Fraction:
    """Exact phase; the decoration level shifts it by an integer."""
    _check_unit(n, u)
    return Fraction(_phase_numerator(n, u.family, u.index), n) + u.level


def unit_mass(n: int, u: SemistableUnit, t: float) -> float:
    return delta_value(n, u.label) * math.exp(float(unit_phase(n, u)) * t)


def unit_charge(n: int, u: SemistableUnit) -> complex:
    """Central charge Delta_label * exp(i pi phase)."""
    return delta_value(n, u.label) * cmath.exp(1j * math.pi * float(unit_phase(n, u)))


def gamma_on_unit(n: int, u: SemistableUnit, direction: int) -> SemistableUnit:
    """Apply gamma (direction +1) or gamma^-1 (-1); phase moves by -+2/n exactly.

    Wrapping past the index range applies the central shift: level -2 for
    odd n, level -1 plus the label involution a -> n-2-a for even n (and
    the inverse adjustments in direction -1).
    """
    _check_unit(n, u)
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    m = twist_modulus(n)
    j = u.index + direction
    if 0 <= j < m:
        return SemistableUnit(u.family, j, u.label, u.level)
    j %= m
    if n % 2:
        return SemistableUnit(u.family, j, u.label, u.level - 2 * direction)
    return SemistableUnit(u.family, j, n - 2 - u.label, u.level - direction)


# ---------------------------------------------------------------------------
# raw two-term calculus (lemma-level engine)


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


# ---------------------------------------------------------------------------
# base support tables

# Entries are lists of (slot, label, level) where slot indexes the target
# basis: (V1[0], V2[0]) for sigma_1 and (V2[0], U[0]) for sigma_2.  A None
# entry marks the forbidden source (no arrow; callers must not ask).


def _base_pieces_odd_s1(n: int, family: str, j: int):
    half = (n - 1) // 2
    if family == V1:
        if j == 0:
            return [(0, 0, -1)]
        if 1 <= j <= half - 1:
            return [(0, 2 * j, -1), (1, 2 * j - 1, -1)]
        if j == half:
            return None
        return [(0, 2 * n - 2 * j - 2, -2), (1, 2 * n - 2 * j - 1, -2)]
    if family == V2:
        if 0 <= j <= half - 1:
            return [(0, 2 * j + 1, 0), (1, 2 * j, 0)]
        if j == half:
            return None
        if j <= n - 2:
            return [(0, 2 * n - 2 * j - 3, -1), (1, 2 * n - 2 * j - 2, -1)]
        return [(1, 0, -1)]
    raise ValueError("family U does not exist for odd n")


def _base_pieces_even_s1(n: int, family: str, j: int):
    half = n // 2
    if family == V1:
        if j == 0:
            return [(0, 0, -1)]
        return [(0, 2 * j, -1), (1, 2 * j - 1, -1)]
    if family == V2:
        if j <= half - 2:
            return [(0, 2 * j + 1, 0), (1, 2 * j, 0)]
        return [(1, n - 2, 0)]
    # family U
    if j <= half - 2:
        return [(0, 2 * j + 2, 0), (1, 2 * j + 1, 0)]
    return None


def _base_pieces_even_s2(n: int, family: str, j: int):
    half = n // 2
    if family == V2:
        if j == 0:
            return [(0, 0, -1)]
        return [(0, 2 * j, -1), (1, 2 * j - 1, 0)]
    if family == U:
        if j <= half - 2:
            return [(0, 2 * j + 1, -1), (1, 2 * j, 0)]
        return [(1, n - 2, 0)]
    # family V1; the level -2 head is forced by central-charge additivity
    if j == 0:
        return None
    return [(0, 2 * j - 1, -2), (1, 2 * j - 2, -1)]


def _base_pieces(n: int, gen: int, family: str, j: int):
    if n % 2:
        if gen != 1:
            raise ValueError("odd n letters are normalised to the P_1 family")
        return _base_pieces_odd_s1(n, family, j)
    if gen == 1:
        return _base_pieces_even_s1(n, family, j)
    return _base_pieces_even_s2(n, family, j)


def _slot_units(gen: int) -> tuple[SemistableUnit, SemistableUnit]:
    if gen == 1:
        return (SemistableUnit(V1, 0), SemistableUnit(V2, 0))
    return (SemistableUnit(V2, 0), SemistableUnit(U, 0))


def letter_support(
    n: int, letter: TwistLetter, u: SemistableUnit
) -> dict[SemistableUnit, int]:
    """HN support of ``letter`` applied to a decorated unit.

    The twist sigma_{gamma^j P_i} is gamma^j sigma_i gamma^-j, so the
    unit is pulled back by gamma^j, the base table for sigma_i is read,
    the unit's own decoration is fused into each piece, and the pieces
    are pushed forward by gamma^j again.  Non-viable (letter, unit)
    combinations - the unit sits over the forbidden source vertex -
    raise LookupError; normal forms never produce them.

    The support of the unit at level 0 is computed once per (n, letter,
    family, index, label) and kept; a call shifts each cached piece by
    the unit's level.  That is exact because the level only ever moves by
    a constant: ``gamma_on_unit`` and the base tables add offsets that
    depend on family, index and label but never on the level itself.
    Each call returns a new dict.
    """
    _check_unit(n, u)
    shift = u.level
    return {
        SemistableUnit(family, index, label, level + shift): mult
        for (family, index, label, level), mult in _level0_support(
            n, letter, u.family, u.index, u.label
        )
    }


@lru_cache(maxsize=None)
def _level0_support(
    n: int, letter: TwistLetter, family: str, index: int, label: int
) -> tuple[tuple[tuple[str, int, int, int], int], ...]:
    # Fewer than 2n^3 entries per n: letters x units x labels.  A forbidden
    # source raises, and lru_cache keeps no entry for it.
    red = SemistableUnit(family, index, label)
    for _ in range(letter.index):
        red = gamma_on_unit(n, red, -1)
    pieces = _base_pieces(n, letter.family, red.family, red.index)
    if pieces is None:
        raise LookupError(
            f"no arrow labelled {letter.label()} out of the vertex of "
            f"{red.family}[{red.index}]"
        )
    slots = _slot_units(letter.family)
    out: dict[SemistableUnit, int] = {}
    for slot, x, c in pieces:
        for b in _fusion_table(n)[x][red.label]:
            piece = SemistableUnit(slots[slot].family, slots[slot].index, b, c + red.level)
            for _ in range(letter.index):
                piece = gamma_on_unit(n, piece, 1)
            out[piece] = out.get(piece, 0) + 1
    return tuple(((p.family, p.index, p.label, p.level), mult) for p, mult in out.items())


def support_mass(n: int, support: dict[SemistableUnit, int], t: float) -> float:
    return sum(w * unit_mass(n, u, t) for u, w in support.items())


def log_support_mass(n: int, support: dict[SemistableUnit, int], t: float) -> float:
    """log support_mass(n, support, t), summed in the log domain.

    Each term is kept as phase*t + log(weight * Delta_label) and the sum
    is taken as a log-sum-exp, so it is finite however large |t| is.  The
    phase numerator over n and log Delta_label are read from a table kept
    per (n, family, index, label); the phase is then one correctly
    rounded integer division, the same float as ``float(unit_phase(n, u))``.
    """
    logs = []
    for u, w in support.items():
        num, log_delta = _unit_log_terms(n, u.family, u.index, u.label)
        logs.append((num + u.level * n) / n * t + math.log(w) + log_delta)
    top = max(logs)
    return top + math.log(sum(math.exp(x - top) for x in logs))


@lru_cache(maxsize=None)
def _unit_log_terms(n: int, family: str, index: int, label: int) -> tuple[int, float]:
    # at most 3n^2 entries per n: families x indices x labels
    _check_unit(n, SemistableUnit(family, index, label))
    return _phase_numerator(n, family, index), math.log(delta_value(n, label))


def support_charge(n: int, support: dict[SemistableUnit, int]) -> complex:
    return sum(w * unit_charge(n, u) for u, w in support.items())


def support_column(
    n: int, letter: TwistLetter, u: SemistableUnit, basis: tuple[SemistableUnit, SemistableUnit]
) -> tuple[MassPoly, MassPoly]:
    """Coordinates of letter_support(u) in a target vertex basis."""
    rows = [MassPoly.zero(n), MassPoly.zero(n)]
    for piece, w in letter_support(n, letter, u).items():
        for r, b in enumerate(basis):
            if (piece.family, piece.index) == (b.family, b.index):
                rows[r] = rows[r] + MassPoly.from_dict(
                    n, {piece.level: FusionVec.simple(n, piece.label).scaled(w)}
                )
                break
        else:
            raise AssertionError(f"piece {piece} missed the target basis")
    return rows[0], rows[1]
