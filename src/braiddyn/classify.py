"""The classification algorithm and closed-form mass growth.

Given a word, rewrite it into automaton normal form
b_k^{m_k} ... b_1^{m_1} gamma^s and run:

1. no twist letters: the braid is gamma^s, periodic;
2. one twist letter b: if b cannot follow itself across gamma^s
   (``automaton.joins(n, b, s, b)`` fails) the squared word is not
   recognised, the braid squares to gamma^(2s+1) and is periodic;
   otherwise the word itself is recognised by a closed path;
3. two or more: the conjugated word b_k^{m_k-1} ... b_1^{m_1} gamma^s b_k
   is recognised exactly when b_1 can follow b_k across gamma^s,
   ``joins(n, b_k, s, b_1)``, since the normal form already makes every
   other adjacent pair viable and a letter can always follow itself.
   That is an O(1) test per round.  If it fails, conjugation shortens
   the normal form strictly (b_1 gamma^s b_k collapses into gamma^(s+1))
   and we loop;
4. with a closed path in hand, the zero pattern of its mass matrix
   decides everything: diagonal = periodic, triangular = reducible with
   an explicit conjugate sigma_i^k chi^l, full = pseudo-Anosov with mass
   growth log PF of the matrix.

The loop only records the peeled twist letters; the conjugate and the
conjugator are spelled out as words once, when the verdict is returned.
The zero pattern comes from the Boolean product of the arrow supports
(``automaton.path_zero_pattern``) and the pseudo-Anosov growth from a
rescaled float product (``automaton.log_pf``), so classification forms
no exact matrix product.  The exact matrix M(p) is built on first read
of ``ClassificationResult.matrix`` or ``LogPFGrowth.matrix`` (the two
share one build) and kept with the result.

Mass growths: periodic beta^k = gamma^(l n) has h_t = -(2l/k) t;
reducible sigma_i^k chi^l has the piecewise-linear growth of
`growth_reducible`; pseudo-Anosov h_t = log PF(M(p))(t) >= log 2 at
t = 0.  `estimate_growth` is an independent estimator that never forms
matrix products: it pushes the start vertex's basis units through the
letter sequence with the unit-level support tables and returns a ratio
of masses, taken as a difference of log masses so that it stays finite
at large |t|.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from . import automaton as am
from .automaton import MassAutomaton, MassMatrix, PathWitness
from .braidword import (
    BraidWord,
    NormalForm,
    TwistLetter,
    to_normal_form,
    twist_modulus,
)
from .twistcalc import SemistableUnit, gamma_on_unit, letter_support, log_support_mass
from .twistcalc import support_mass  # noqa: F401  the bench tracer wraps classify.support_mass

__all__ = [
    "ClassificationResult",
    "LinearGrowth",
    "LogPFGrowth",
    "PiecewiseGrowth",
    "classify",
    "estimate_growth",
    "growth_periodic",
    "growth_reducible",
    "reducible_witness",
]

logger = logging.getLogger(__name__)

PERIODIC, REDUCIBLE, PSEUDO_ANOSOV = "periodic", "reducible", "pseudo_anosov"


@dataclass(frozen=True)
class LinearGrowth:
    """h_t = slope * t (periodic braids)."""

    slope: Fraction

    def evaluate(self, t: float) -> float:
        return float(self.slope) * t

    def describe(self) -> str:
        return f"h_t = {self.slope}*t"

    def to_json(self) -> dict:
        return {"kind": "linear", "slope": str(self.slope)}


@dataclass(frozen=True)
class PiecewiseGrowth:
    """h_t = slope_neg * t for t < 0, slope_pos * t for t >= 0 (reducible)."""

    slope_neg: Fraction
    slope_pos: Fraction

    def evaluate(self, t: float) -> float:
        return float(self.slope_neg if t < 0 else self.slope_pos) * t

    def describe(self) -> str:
        return f"h_t = {self.slope_neg}*t (t<0), {self.slope_pos}*t (t>=0)"

    def to_json(self) -> dict:
        return {
            "kind": "piecewise",
            "slope_neg": str(self.slope_neg),
            "slope_pos": str(self.slope_pos),
        }


@dataclass(frozen=True)
class LogPFGrowth:
    """h_t = log of the Perron-Frobenius eigenvalue of a closed-path matrix M(p).

    ``evaluate`` multiplies the path's arrow matrices in floats at t,
    rescaled at every step (``automaton.log_pf``), so it does not
    overflow at large |t|.  The exact ``matrix`` is built on first read
    and kept.
    """

    auto: MassAutomaton = field(repr=False, compare=False)
    path: PathWitness

    @cached_property
    def matrix(self) -> MassMatrix:
        return am.path_matrix(self.auto, self.path)

    def evaluate(self, t: float) -> float:
        return am.log_pf(self.path, t)

    def describe(self) -> str:
        return "h_t = log PF(M(p))(t)"

    def to_json(self) -> dict:
        return {
            "kind": "log_pf",
            "matrix": [[self.matrix[r][c].to_json() for c in range(2)] for r in range(2)],
        }


MassGrowth = LinearGrowth | PiecewiseGrowth | LogPFGrowth


def growth_periodic(n: int, k: int, l: int) -> LinearGrowth:
    """Mass growth of a periodic braid with beta^k = gamma^(l n)."""
    if k == 0:
        raise ValueError("periodic exponent k must be nonzero")
    return LinearGrowth(Fraction(-2 * l, k))


def growth_reducible(n: int, i: int, k: int, l: int) -> PiecewiseGrowth:
    """Mass growth of sigma_i^k chi^l; chi = gamma^n (odd) or gamma^(n/2) (even)."""
    if k == 0:
        raise ValueError("reducible exponent k must be nonzero")
    central = 2 * l if n % 2 else l
    if k >= 1:
        return PiecewiseGrowth(Fraction(-k - central), Fraction(-central))
    return PiecewiseGrowth(Fraction(-central), Fraction(-k - central))


@dataclass(frozen=True)
class ClassificationResult:
    n: int
    braid_type: str
    out_beta: BraidWord  # conjugate of the input realising the verdict
    conjugator: BraidWord  # out_beta = conjugator * input * conjugator^-1
    normal_form: NormalForm  # final normal form reached by the loop
    path: PathWitness | None  # closed path, absent for early-exit periodic
    growth: MassGrowth
    params: tuple | None  # (k, l) periodic / (i, k, l) reducible
    rounds: int  # conjugation rounds used

    @cached_property
    def matrix(self) -> MassMatrix | None:
        """Exact M(p) of the closed path, built on first read; None without a path."""
        if isinstance(self.growth, LogPFGrowth):
            return self.growth.matrix
        if self.path is None:
            return None
        return am.path_matrix(_automaton(self.n), self.path)

    def h0(self) -> float:
        return self.growth.evaluate(0.0)


def _central_word(n: int, l: int) -> BraidWord:
    return BraidWord.gamma_power(n, l * twist_modulus(n))


def _witness_word(n: int, i: int, k: int, l: int) -> BraidWord:
    return BraidWord.generator(n, i) ** k * _central_word(n, l)


def reducible_witness(
    n: int, nf: NormalForm, pattern: str
) -> tuple[int, int, int, BraidWord]:
    """Extract (i, k, l, conjugator c) with sigma_i^k chi^l = c * beta * c^-1.

    Upper-triangular matrices come from a single twist block looping at
    one vertex: beta = sigma_{gamma^j P_i}^K gamma^s with s a multiple of
    the index modulus, conjugate to sigma_i^K chi^(s/m) by gamma^-j.
    Lower-triangular matrices come from an index-ascending chain of
    multiplicity-one letters; unwinding sigma_X gamma^-1 = (previous
    generator)^-1 turns the chain into a negative generator power times
    a central element.
    """
    m = twist_modulus(n)
    s = nf.gamma_exp
    if pattern == "upper":
        if len(nf.blocks) != 1:
            raise ValueError("upper-triangular path must carry a single block")
        letter, mult = nf.blocks[0]
        if s % m:
            raise ValueError("gamma exponent of a loop-only path must be central")
        conj = BraidWord.gamma_power(n, -letter.index)
        return letter.family, mult, s // m, conj
    if pattern != "lower":
        raise ValueError(f"no reducible witness for pattern {pattern!r}")
    letters = [letter for letter, mult in nf.blocks for _ in range(mult)]
    count = len(letters)
    fam = letters[0].family
    if any(l.family != fam for l in letters) or any(
        letters[i + 1].index != (letters[i].index + 1) % m for i in range(count - 1)
    ):
        raise ValueError("lower-triangular path must be an ascending twist chain")
    if (s + count) % m:
        raise ValueError("chain closure forces s + length to be central")
    l = (s + count) // m
    shift = BraidWord.gamma_power(n, -(letters[0].index + count))
    if fam == 1:
        # chain of P_1 twists collapses to sigma_1^-1 sigma_2^-K sigma_1 chi^l
        conj = BraidWord.generator(n, 1) * shift
        return 2, -count, l, conj
    # chain of P_2 twists (even n) collapses to sigma_1^-K chi^l directly
    return 1, -count, l, shift


_AUTOMATA: dict[int, MassAutomaton] = {}


def _automaton(n: int) -> MassAutomaton:
    if n not in _AUTOMATA:
        _AUTOMATA[n] = am.build(n)
    return _AUTOMATA[n]


def _conjugator(n: int, peeled: list[TwistLetter]) -> BraidWord:
    """c with c * beta * c^-1 the final conjugate, for letters peeled in this order.

    Each round conjugates by the peeled letter sigma_{gamma^j P_i} =
    gamma^j s_i gamma^-j, so c is the inverse of their product.
    """
    letters: list[tuple[int, int]] = []
    for letter in reversed(peeled):
        letters += BraidWord.gamma_power(n, letter.index).letters
        letters.append((letter.family, -1))
        letters += BraidWord.gamma_power(n, -letter.index).letters
    return BraidWord(n, tuple(letters))


def classify(n: int, w: BraidWord) -> ClassificationResult:
    """Decide periodic / reducible / pseudo-Anosov and the exact mass growth."""
    if w.n != n:
        raise ValueError("word does not belong to the requested group")
    auto = _automaton(n)
    nf = to_normal_form(w)
    peeled: list[TwistLetter] = []  # conjugating twist letters, in order
    guard = nf.length() + 1
    rounds = 0

    while True:
        total = nf.twist_count()
        s = nf.gamma_exp

        if total == 0:
            # beta = gamma^s, so beta^n = gamma^(s n)
            growth = growth_periodic(n, n, s)
            return ClassificationResult(
                n, PERIODIC, nf.to_word(), _conjugator(n, peeled), nf, None,
                growth, (n, s), rounds,
            )

        b_1, b_k = nf.blocks[0][0], nf.blocks[-1][0]
        if total == 1:
            if not am.joins(n, b_1, s, b_1):
                if n % 2 == 0:
                    logger.warning("even-n squared word unrecognised; unexpected")
                # beta^2 = gamma^(2s+1), so beta^(2n) = gamma^((2s+1) n)
                growth = growth_periodic(n, 2 * n, 2 * s + 1)
                return ClassificationResult(
                    n, PERIODIC, nf.to_word(), _conjugator(n, peeled), nf, None,
                    growth, (2 * n, 2 * s + 1), rounds,
                )
            break

        if am.joins(n, b_k, s, b_1):
            break

        # shorten: b_1 gamma^s b_k = gamma^(s+1) after pushing gammas right
        blocks = [list(b) for b in nf.blocks]
        blocks[0][1] -= 1
        blocks[-1][1] -= 1
        new_blocks = tuple((l, c) for l, c in blocks if c > 0)
        peeled.append(b_k)
        nf = NormalForm(n, new_blocks, s + 1)
        rounds += 1
        if rounds > guard:
            raise RuntimeError("conjugation loop exceeded its termination bound")

    path = am.recognize(auto, nf, require_closed=True)
    if path is None or not path.closed:
        raise RuntimeError("recognised word lost its closed path")
    pattern = am.path_zero_pattern(path)
    conj = _conjugator(n, peeled)

    if pattern == "full":
        growth = LogPFGrowth(auto, path)
        return ClassificationResult(
            n, PSEUDO_ANOSOV, nf.to_word(), conj, nf, path, growth, None, rounds
        )
    if pattern == "diagonal":
        # unreachable per the structure theory once twist letters remain
        logger.warning("diagonal pattern with twist letters present; anomaly")
        growth = growth_periodic(n, n, nf.gamma_exp)
        return ClassificationResult(
            n, PERIODIC, nf.to_word(), conj, nf, path, growth,
            (n, nf.gamma_exp), rounds,
        )
    i, k, l, extra = reducible_witness(n, nf, pattern)
    growth = growth_reducible(n, i, k, l)
    out = _witness_word(n, i, k, l)
    return ClassificationResult(
        n, REDUCIBLE, out, extra * conj, nf, path, growth, (i, k, l), rounds
    )


def estimate_growth(n: int, w: BraidWord, N: int = 24, t: float = 0.0) -> float:
    """Ratio estimator log(m_N / m_{N-1}) for the mass growth at parameter t.

    Classifies first and iterates on the conjugate out(beta), pushing the
    witness vertex's basis units through the letter sequence with the
    unit-level support tables (no arrow matrices are multiplied).
    """
    return _estimate(classify(n, w), N, t)


def _estimate(res: ClassificationResult, N: int, t: float) -> float:
    """``estimate_growth`` for a word already classified as ``res``."""
    if N < 2:
        raise ValueError("need at least two iterations")
    n = res.n
    auto = _automaton(n)
    if res.path is not None:
        nf, witness = res.normal_form, res.path
    else:
        nf = to_normal_form(res.out_beta)
        witness = am.recognize(auto, nf, require_closed=True)
        if witness is None:
            raise ValueError("word has no recognised expression to iterate")
    letters = nf.letters_applied()
    support: dict[SemistableUnit, int] = {
        unit: 1 for unit in auto.vertices[witness.start].basis
    }
    # masses are kept as logs: e^(level t) overflows a float at large |t|
    log_masses = [log_support_mass(n, support, t)]
    for _ in range(N):
        for letter in letters:
            new: dict[SemistableUnit, int] = {}
            if isinstance(letter, int):
                for unit, weight in support.items():
                    moved = gamma_on_unit(n, unit, letter)
                    new[moved] = new.get(moved, 0) + weight
            else:
                for unit, weight in support.items():
                    try:
                        pieces = letter_support(n, letter, unit)
                    except LookupError as exc:
                        # happens only when the witness is not closed and
                        # the repetition wraps onto a forbidden pair
                        raise ValueError(
                            "support propagation left the recognised region; "
                            "the word cannot be iterated"
                        ) from exc
                    for piece, mult in pieces.items():
                        new[piece] = new.get(piece, 0) + weight * mult
            support = new
        log_masses.append(log_support_mass(n, support, t))
    return log_masses[N] - log_masses[N - 1]
