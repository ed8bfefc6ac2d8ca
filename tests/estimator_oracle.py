"""Oracle for the growth estimator: the support iterated with one key per level.

``classify._estimate`` folds every unit onto its level-0 copy and keeps
one log weight per (family, index, label).  This module iterates the
same word the direct way: the support is keyed by the whole decorated
unit, level included, with exact integer weights, gamma^s is applied as
|s| single gamma steps off ``automaton_oracle.letters_applied``, and the mass
of each unit is read from its exact ``unit_phase``.  Its dict grows with
the number of steps times the word length, so keep N small.
"""

from __future__ import annotations

import math
from functools import lru_cache

from braiddyn import automaton as am
from braiddyn.braidword import NormalForm
from braiddyn.fusion import delta_value
from braiddyn.twistcalc import SemistableUnit, gamma_on_unit, letter_support, unit_phase

from automaton_oracle import letters_applied


def log_mass_by_levels(n: int, support: dict[SemistableUnit, int], t: float) -> float:
    """log of the mass at t of a support with integer weights, one unit per level."""
    logs = [
        float(unit_phase(n, u)) * t + math.log(w) + math.log(delta_value(n, u.label))
        for u, w in support.items()
    ]
    top = max(logs)
    return top + math.log(sum(math.exp(x - top) for x in logs))


@lru_cache(maxsize=None)
def _automaton(n: int) -> am.MassAutomaton:
    return am.build(n)


def iterate_by_levels(res, N: int, t: float) -> tuple[list[float], int]:
    """(log m_0, ..., log m_N) for a ``ClassificationResult``, and the power iterated.

    The estimate is (log m_N - log m_{N-1}) / power; power is 2 when the
    word has no closed path and its square gamma^(2s+1) is iterated.
    """
    n = res.n
    auto = _automaton(n)
    power = 1
    nf, witness = res.normal_form, res.path
    if witness is None:
        if nf.blocks:
            power = 2
            nf = NormalForm(n, (), 2 * nf.gamma_exp + 1)
        witness = am.recognize(auto, nf, require_closed=True)
        if witness is None:
            raise ValueError("word has no recognised expression to iterate")
    letters = letters_applied(nf)
    support: dict[SemistableUnit, int] = {unit: 1 for unit in auto.vertices[witness.start].basis}
    log_masses = [log_mass_by_levels(n, support, t)]
    for _ in range(N):
        for letter in letters:
            new: dict[SemistableUnit, int] = {}
            for unit, weight in support.items():
                if isinstance(letter, int):
                    pieces = {gamma_on_unit(n, unit, letter): 1}
                else:
                    pieces = letter_support(n, letter, unit)
                for piece, mult in pieces.items():
                    new[piece] = new.get(piece, 0) + weight * mult
            support = new
        log_masses.append(log_mass_by_levels(n, support, t))
    return log_masses, power
