"""Oracles for the mass automaton: the base-and-wrap construction and ``mat_mul``.

``automaton.build`` reads every arrow off the unit action.  This module
builds the same automaton the earlier way: only the base letters
twist1[0] (and twist2[0] for even n) are read from the support tables,
piece by piece; every other twist arrow is the gamma-conjugate of a base
arrow, times one central monomial when the pull-back crosses the index
wraparound; and the gamma arrows are written down by hand.

``automaton.path_matrix`` multiplies in a balanced product tree;
``mat_mul`` is the plain 2x2 product, entry by entry, that a
left-to-right fold of a path must agree with.

``automaton.log_pf`` and ``automaton.path_zero_pattern`` walk arrow runs
and raise each run to its multiplicity by repeated squaring;
``fold_log_pf`` and ``fold_zero_pattern`` are the per-arrow folds over
the expanded arrows that they replaced.  ``log_pf`` and
``path_zero_pattern`` fold only the path's factors, its runs less the
identity gamma arrows; ``runs_log_pf`` is the run-length fold over every
run, identity arrows included, whose float ``log_pf`` must reproduce bit
for bit.  ``path_from_arrows`` merges an
arrow sequence into runs, and ``letters_applied`` spells a normal form
out letter by letter.
"""

from __future__ import annotations

import math

from braiddyn.automaton import (
    _LN2,
    _WINDOW,
    Arrow,
    MassAutomaton,
    MassMatrix,
    PathWitness,
    Vertex,
    _eval_arrow,
    _rescaled,
    _support_pattern,
    _vertex_basis,
)
from braiddyn.braidword import (
    NormalForm,
    TwistLetter,
    forbidden_source,
    target_vertex,
    twist_modulus,
)
from braiddyn.fusion import FusionVec, MassPoly, mass_mul, pf_dim
from braiddyn.twistcalc import SemistableUnit, letter_support


def mat_mul(a: MassMatrix, b: MassMatrix) -> MassMatrix:
    """The 2x2 product a b, entry by entry: the left-to-right reference for path products."""
    return tuple(
        tuple(mass_mul(a[i][0], b[0][j]) + mass_mul(a[i][1], b[1][j]) for j in range(2))
        for i in range(2)
    )


def identity_matrix(n: int) -> MassMatrix:
    one, zero = MassPoly.one(n), MassPoly.zero(n)
    return ((one, zero), (zero, one))


def scalar_matrix(n: int, label: int, exp: int) -> MassMatrix:
    s = MassPoly.monomial(n, label, exp)
    zero = MassPoly.zero(n)
    return ((s, zero), (zero, s))


def support_column(
    n: int, letter: TwistLetter, u: SemistableUnit, basis: tuple[SemistableUnit, SemistableUnit]
) -> tuple[MassPoly, MassPoly]:
    """Coordinates of letter_support(u) in a target vertex basis, one piece at a time."""
    rows = [MassPoly.zero(n), MassPoly.zero(n)]
    for piece, w in letter_support(n, letter, u).items():
        for r, b in enumerate(basis):
            if (piece.family, piece.index) == (b.family, b.index):
                rows[r] = rows[r] + MassPoly.monomial(n, piece.label, piece.level, w)
                break
        else:
            raise AssertionError(f"piece {piece} missed the target basis")
    return rows[0], rows[1]


def build_by_wrap(n: int) -> MassAutomaton:
    """The automaton from base-letter matrices, gamma conjugation and hand-written gammas."""
    m = twist_modulus(n)
    kinds = ("v",) if n % 2 else ("v", "u")
    ids = [(kind, j) for kind in kinds for j in range(m)]
    vertices = {vid: Vertex(vid, _vertex_basis(n, vid)) for vid in ids}

    arrows: list[Arrow] = []
    twist_arrows: dict = {}
    gamma_arrows: dict = {}

    # Pulling the source back by gamma^-j crosses the index wraparound at
    # most once, contributing one central monomial factor (s^2 odd,
    # [Pi_{n-2}] s even).
    wrap = (
        MassPoly.monomial(n, 0, 2)
        if n % 2
        else MassPoly.monomial(n, n - 2, 1)
    )
    base_letters = [TwistLetter(1, 0)] + ([TwistLetter(2, 0)] if n % 2 == 0 else [])
    base_matrices: dict = {}
    for letter in base_letters:
        tgt_basis = _vertex_basis(n, target_vertex(n, letter))
        banned = forbidden_source(n, letter)
        for src in ids:
            if src == banned:
                continue
            cols = [support_column(n, letter, unit, tgt_basis) for unit in vertices[src].basis]
            base_matrices[(letter.family, src)] = (
                (cols[0][0], cols[1][0]),
                (cols[0][1], cols[1][1]),
            )

    letters = [TwistLetter(f, j) for f in ([1] if n % 2 else [1, 2]) for j in range(m)]
    for letter in letters:
        tgt = target_vertex(n, letter)
        banned = forbidden_source(n, letter)
        j = letter.index
        for src in ids:
            if src == banned:
                continue
            matrix = base_matrices[(letter.family, (src[0], (src[1] - j) % m))]
            if src[1] < j:  # the gamma^-j pull-back crossed the wraparound
                matrix = tuple(tuple(mass_mul(entry, wrap) for entry in row) for row in matrix)
            arrow = Arrow(src, tgt, letter, matrix)
            arrows.append(arrow)
            twist_arrows[(letter, src)] = arrow

    for kind in kinds:
        for j in range(m):
            fwd_src, fwd_tgt = (kind, j), (kind, (j + 1) % m)
            if j + 1 < m:
                fwd_matrix = bwd_matrix = identity_matrix(n)
            elif n % 2:
                fwd_matrix, bwd_matrix = scalar_matrix(n, 0, -2), scalar_matrix(n, 0, 2)
            else:
                fwd_matrix = scalar_matrix(n, n - 2, -1)
                bwd_matrix = scalar_matrix(n, n - 2, 1)
            fwd = Arrow(fwd_src, fwd_tgt, 1, fwd_matrix)
            bwd = Arrow(fwd_tgt, fwd_src, -1, bwd_matrix)
            arrows += [fwd, bwd]
            gamma_arrows[(1, fwd_src)] = fwd
            gamma_arrows[(-1, fwd_tgt)] = bwd

    return MassAutomaton(n, vertices, tuple(arrows), twist_arrows, gamma_arrows)


def letters_applied(nf: NormalForm) -> list[TwistLetter | int]:
    """Letter sequence of a normal form in application order; gammas as +-1 integers."""
    out: list[TwistLetter | int] = []
    step = 1 if nf.gamma_exp >= 0 else -1
    out.extend([step] * abs(nf.gamma_exp))
    for letter, mult in nf.blocks:
        out.extend([letter] * mult)
    return out


def path_from_arrows(start, arrows, closed: bool) -> PathWitness:
    """The path through ``arrows`` in order, repeats of one arrow merged into a run."""
    runs: list[list] = []
    for arrow in arrows:
        if runs and runs[-1][0] is arrow:
            runs[-1][1] += 1
        else:
            runs.append([arrow, 1])
    return PathWitness(start, tuple((arrow, mult) for arrow, mult in runs), closed)


def fold_zero_pattern(path: PathWitness) -> str:
    """Boolean product of the arrow supports, one arrow at a time."""
    a, b, c, d = True, False, False, True
    for arrow in path.arrows:
        (p, q), (r, s) = arrow.support
        a, b, c, d = (
            (p and a) or (q and c),
            (p and b) or (q and d),
            (r and a) or (s and c),
            (r and b) or (s and d),
        )
    return _support_pattern(((a, b), (c, d)))


def fold_log_pf(path: PathWitness, t: float) -> float:
    """log PF of the path matrix at t, one arrow at a time, rescaled at every step.

    Each arrow is evaluated at t as exp(e t - top) with top its largest
    e t (once per distinct arrow); the running product is divided by its
    largest entry after every step, and both scales are summed in the log
    domain.
    """
    at_t: dict[int, tuple] = {}
    a, b, c, d = 1.0, 0.0, 0.0, 1.0
    log_scale = 0.0
    for arrow in path.arrows:
        x = at_t.get(id(arrow))
        if x is None:
            terms = [
                [(e, pf_dim(entry.n, FusionVec(entry.n, row))) for e, row in entry.terms]
                for row in arrow.matrix
                for entry in row
            ]
            top = max(e * t for entry in terms for e, _ in entry)
            x = at_t[id(arrow)] = (
                *(sum(w * math.exp(e * t - top) for e, w in entry) for entry in terms),
                top,
            )
        p, q, r, s, top = x
        a, b, c, d = p * a + q * c, p * b + q * d, r * a + s * c, r * b + s * d
        big = max(a, b, c, d)
        a, b, c, d = a / big, b / big, c / big, d / big
        log_scale += top + math.log(big)
    pf = 0.5 * (a + d + math.sqrt((a - d) * (a - d) + 4.0 * b * c))
    return math.log(pf) + log_scale


def runs_log_pf(path: PathWitness, t: float) -> float:
    """``automaton.log_pf`` as it was before factors: the same rescaled fold, over every run.

    Identity arrows are evaluated and multiplied like any other, so
    ``log_pf`` over the factors must return the identical float.
    """
    if not path.runs:
        return 0.0
    lo, hi = _WINDOW
    a, b, c, d = 1.0, 0.0, 0.0, 1.0
    scale = level = 0
    for arrow, mult in path.runs:
        p, q, r, s, x_level = _eval_arrow(arrow, t)
        level += mult * x_level
        x_scale = 0
        while True:
            if mult & 1:
                a, b, c, d = p * a + q * c, p * b + q * d, r * a + s * c, r * b + s * d
                scale += x_scale
                if a > hi or b > hi or c > hi or d > hi or (
                    a < lo and b < lo and c < lo and d < lo
                ):
                    a, b, c, d, e = _rescaled(a, b, c, d)
                    scale += e
            mult >>= 1
            if not mult:
                break
            p, q, r, s = p * p + q * r, q * (p + s), r * (p + s), s * s + q * r
            x_scale += x_scale
            if p > hi or q > hi or r > hi or s > hi or (
                p < lo and q < lo and r < lo and s < lo
            ):
                p, q, r, s, e = _rescaled(p, q, r, s)
                x_scale += e
    pf = 0.5 * (a + d + math.sqrt((a - d) * (a - d) + 4.0 * b * c))
    mantissa, e = math.frexp(pf)
    return math.log(mantissa) + (scale + e) * _LN2 + level * t
