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

``letter_support`` is the workhorse: it maps (twist letter, unit) to the
list of decorated units in the Harder-Narasimhan support of the image,
by reducing the letter to the base generator with gamma conjugation and
reading a fixed per-parity table at the base.  The odd-n tables are what
chaining the one-step twist rule on two-term segments gives (the tests
keep that rule as an oracle).  The even-n sigma_2 table cannot be
reached by such chaining (the segments point the wrong way); its rows
are fixed by the n=4 matrices together with central-charge additivity
Z(sigma_i X) = s_i Z(X), which pins every s-exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .braidword import TwistLetter, twist_modulus
from .fusion import _fusion_table, delta_value

__all__ = [
    "FoldedKey",
    "SemistableUnit",
    "gamma_on_unit",
    "letter_support",
    "log_support_mass",
    "support_mass",
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


# a unit folded onto level 0: (family, index, label); see ``log_support_mass``
FoldedKey = tuple[str, int, int]


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


def gamma_on_unit(n: int, u: SemistableUnit, e: int) -> SemistableUnit:
    """Apply gamma^e for any integer e; the phase moves by -2e/n exactly.

    With wraps, j = divmod(index + e, m), the index becomes j and each
    wrap past the index range applies the central shift once: the level
    moves by -2 wraps for odd n, and by -wraps for even n, where an odd
    number of wraps also applies the label involution a -> n-2-a.
    """
    _check_unit(n, u)
    wraps, j = divmod(u.index + e, twist_modulus(n))
    if n % 2:
        return SemistableUnit(u.family, j, u.label, u.level - 2 * wraps)
    label = n - 2 - u.label if wraps % 2 else u.label
    return SemistableUnit(u.family, j, label, u.level - wraps)


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
    unit is pulled back by gamma^-j, the base table for sigma_i is read,
    the unit's own decoration is fused into each piece, and the pieces
    are pushed forward by gamma^j again, each move one closed-form
    ``gamma_on_unit`` call.  Non-viable (letter, unit) combinations - the
    unit sits over the forbidden source vertex - raise LookupError;
    normal forms never produce them.

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
    red = gamma_on_unit(n, SemistableUnit(family, index, label), -letter.index)
    pieces = _base_pieces(n, letter.family, red.family, red.index)
    if pieces is None:
        raise LookupError(
            f"no arrow labelled {letter.label()} out of the vertex of "
            f"{red.family}[{red.index}]"
        )
    slots = _slot_units(letter.family)
    out: dict[SemistableUnit, int] = {}
    for slot, x, c in pieces:
        base = slots[slot]
        for b in _fusion_table(n)[x][red.label]:
            piece = SemistableUnit(base.family, base.index, b, c + red.level)
            piece = gamma_on_unit(n, piece, letter.index)
            out[piece] = out.get(piece, 0) + 1
    return tuple(((p.family, p.index, p.label, p.level), mult) for p, mult in out.items())


def support_mass(n: int, support: dict[SemistableUnit, int], t: float) -> float:
    return sum(w * unit_mass(n, u, t) for u, w in support.items())


def log_support_mass(n: int, support: dict[FoldedKey, float], t: float) -> float:
    """log of the mass at t of a level-folded support.

    A folded support maps (family, index, label) to a log weight L: the
    units of that key stand for e^L copies of the level-0 unit, a unit at
    level c with weight w counting as w e^(c t) copies.  That is exact
    because a unit's mass at level c is e^(c t) times its level-0 mass.  Each key contributes phase*t + log weight +
    log Delta_label, and the sum is taken as a log-sum-exp, so it is
    finite however large |t| is.  The phase numerator over n and log
    Delta_label are read from a table kept per (n, family, index,
    label); the phase is then one correctly rounded integer division,
    the same float as ``float(unit_phase(n, u))`` of the level-0 unit.
    """
    logs = []
    for (family, index, label), log_weight in support.items():
        num, log_delta = _unit_log_terms(n, family, index, label)
        logs.append(num / n * t + log_weight + log_delta)
    return _log_sum_exp(logs)


def _log_sum_exp(logs: list[float]) -> float:
    """log(sum(e^x for x in logs)), without overflow; exact for one term."""
    if len(logs) == 1:
        return logs[0]
    top = max(logs)
    return top + math.log(sum(math.exp(x - top) for x in logs))


@lru_cache(maxsize=None)
def _unit_log_terms(n: int, family: str, index: int, label: int) -> tuple[int, float]:
    # at most 3n^2 entries per n: families x indices x labels
    _check_unit(n, SemistableUnit(family, index, label))
    return _phase_numerator(n, family, index), math.log(delta_value(n, label))
