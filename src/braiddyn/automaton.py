"""The mass automaton: vertices, weighted arrows, recognition, spectra.

For odd n the automaton has n vertices v_0..v_{n-1} with basis
(V1[j], V2[j]); every vertex receives one incoming arrow per twist
letter sigma_{gamma^j P_1} from each vertex except v_{j+(n-1)/2}, plus
gamma / gamma^-1 arrows shifting the index.  For even n there are n/2
v-vertices as before and n/2 u-vertices with basis (V2[j], U[j]);
sigma_{gamma^j P_1} arrows point into v_j from everything except
u_{j+n/2-1}, and sigma_{gamma^j P_2} arrows into u_j from everything
except v_j.

Every arrow matrix is built by one rule.  It is 2x2 with MassPoly
entries, and column c of the arrow (label, source) is the HN support of
the label applied to the c-th basis unit of the source, read in the
target basis: a piece over the r-th target unit with label a, level e
and multiplicity w adds w [Pi_a] s^e to row r.  The support of a twist
letter is ``twistcalc.letter_support``; that of gamma^{+-1} is the one
unit ``twistcalc.gamma_on_unit``, which carries the central shift at the
index wraparound.  Entries always have nonnegative coefficients, so an
entry is strictly positive for every t exactly when it is a nonzero
polynomial; zero patterns are read off symbolically.  An entry holds its
coefficient rows as the kernel's ``fusion.Terms``, and the arrow's
``Leaf`` and float table read them as they are, with no per-term object.

Recognition is one deterministic pass.  Gamma arrows leave every vertex,
and a twist letter y leaves every vertex except forbidden_source(y), so a
letter sequence is recognised exactly when every pair of consecutive
twist letters x ... y with g net gammas between them has
forbidden_source(y) != gamma^g(target_vertex(x)) (``braidword.joins``).
A ``NormalForm`` checks that rule for its adjacent blocks when it is
built, so ``recognize`` never jams.  The start vertex matters only for
gamma^s before the first block, and the end vertex, the target of the
last block, does not depend on it at all, so the start is read off the
normal form.  A path is kept as runs (arrow, multiplicity): gamma^s is
one run per step, and a block b^m is the arrow of b at the current
vertex followed by the loop of b at its target taken m - 1 times, so
recognition costs at most two arrow lookups per block.
``PathWitness.arrows`` expands the runs for readers that want every step.
Every gamma arrow is a scalar matrix c I, and c = 1 except across the
index wraparound, where c is s^-+2 (odd n) or s^-+1 [Pi_{n-2}] (even n,
Pi_{n-2} the simple current); no twist arrow is the identity
(``tests/test_automaton.py::test_gamma_arrows_are_scalar``).  So a path
also keeps its factors (``PathWitness.factors``): the runs less those
whose arrow is the identity, about one per m gamma steps instead of one
per step.  The three path folds below walk factors, not runs; the
identity changes no entry, in floats or exactly, so they give the same
result bit for bit.

Classification never forms the exact product of a path.  Its zero
pattern is two ORs over the factors' off-diagonal bits, exact because
every arrow's diagonal is nonzero (``path_zero_pattern``,
``tests/test_automaton.py::test_twist_arrow_shapes``).  The growth
h_t = log PF(M(p))(t) comes from a float product at t.  An
arrow is evaluated from its compiled float table (``Arrow.float_table``)
once per (automaton, t): the evaluation is kept on the arrow
(``Arrow.at_t``) for its last few values of t.  Each run is raised to its
multiplicity by repeated squaring on four floats whose scale is an exact
power of two, and the arrows' levels are summed as integers, so neither
drifts with the multiplicities.  The pattern costs O(factors), and h_t
O(factors * log multiplicity) once its arrows are evaluated at t.
``path_terms``, ``path_matrix``, ``zero_pattern`` and ``pf_eigenvalue``
are the exact route, used when the matrix itself is wanted:
``path_terms`` hands the factors to ``fusion.product_tree``, which raises
each to its multiplicity by repeated squaring on packed entries, and
returns the entries as terms; ``path_matrix`` checks them into
``MassPoly`` entries as they are.  ``pf_eigenvalue`` is inf only where
the eigenvalue at t is past the floats, even when an entry is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter

from .braidword import (
    NormalForm,
    TwistLetter,
    _code,
    check_n,
    forbidden_source,
    joins,
    make_twist,
    target_vertex,
    twist_modulus,
)
from .fusion import Leaf, MassPoly, Terms, _pf_rows, eval_mass, leaf, product_tree
from .fusion import mass_mul  # noqa: F401  the bench tracer wraps automaton.mass_mul
from .twistcalc import U, V1, V2, SemistableUnit, gamma_on_unit, letter_support

__all__ = [
    "Arrow",
    "MassAutomaton",
    "MassMatrix",
    "PathWitness",
    "Vertex",
    "build",
    "joins",
    "log_pf",
    "path_matrix",
    "path_terms",
    "path_zero_pattern",
    "pf_eigenvalue",
    "recognize",
    "zero_pattern",
]

VertexId = tuple[str, int]
MassMatrix = tuple[tuple[MassPoly, MassPoly], tuple[MassPoly, MassPoly]]
Support = tuple[tuple[bool, bool], tuple[bool, bool]]  # entry is nonzero
FloatTable = tuple[int, int, tuple[tuple[int, int, float], ...]]
ArrowAtT = tuple[float, float, float, float, int]  # (p, q, r, s, level), see _eval_arrow

_KEPT_T = 4  # values of t at which each arrow keeps its evaluation (Arrow.at_t)
_WINDOW = (2.0**-64, 2.0**64)  # log_pf rescales when the largest entry leaves it
_LN2 = math.log(2.0)


@dataclass(frozen=True)
class Vertex:
    id: VertexId
    basis: tuple[SemistableUnit, SemistableUnit]


@dataclass(frozen=True)
class Arrow:
    source: VertexId
    target: VertexId
    label: TwistLetter | int  # twist letter, or +-1 for gamma^{+-1}
    matrix: MassMatrix

    def label_text(self) -> str:
        if isinstance(self.label, int):
            return "gamma" if self.label == 1 else "gamma^-1"
        return self.label.label()

    @cached_property
    def support(self) -> Support:
        return _support(self.matrix)

    @cached_property
    def is_identity(self) -> bool:
        """Is the matrix exactly [[1, 0], [0, 1]], so that no path fold multiplies by it?"""
        (a, b), (c, d) = self.matrix
        one = ((0, (1,) + (0,) * (a.n - 2)),)  # the terms of MassPoly.one(n)
        return a.terms == one == d.terms and not b.terms and not c.terms

    @cached_property
    def leaf(self) -> Leaf:
        """The matrix as a ``fusion.Leaf``, the factor ``fusion.product_tree`` takes."""
        return leaf(self.matrix[0][0].n, [entry.terms for row in self.matrix for entry in row])

    @cached_property
    def float_table(self) -> FloatTable:
        """(lowest level, highest level, ((entry, level, PF weight), ...)).

        Entries 0..3 are a, b, c, d; each term is one s^level [Pi] of the
        entry with the PF dimension of its coefficient, in entry order.
        """
        terms = tuple(
            (k, e, w)
            for k, entry in enumerate(entry for row in self.matrix for entry in row)
            for (e, _), w in zip(entry.terms, _pf_rows(entry.n, map(itemgetter(1), entry.terms)))
        )
        levels = [e for _, e, _ in terms]
        return min(levels), max(levels), terms

    @cached_property
    def at_t(self) -> dict[float, ArrowAtT]:
        """t -> ``_eval_arrow(self, t)`` for the last ``_KEPT_T`` values of t, oldest first.

        Filled by ``log_pf``; a value of t is evaluated again only after
        ``_KEPT_T`` newer ones have pushed it out.
        """
        return {}


@dataclass(frozen=True)
class PathWitness:
    """A path as runs (arrow, multiplicity >= 1); runs[0] is traversed first.

    ``recognize`` emits one run per gamma step and at most two per block,
    and adjacent runs carry different arrows.  ``factors`` are the runs
    whose arrow is not the identity (``Arrow.is_identity``), in order:
    the path matrix is their product, and ``log_pf``,
    ``path_zero_pattern`` and ``path_terms`` fold them.  Every gamma arrow
    is a scalar matrix, the identity except across the index wraparound
    (``tests/test_automaton.py::test_gamma_arrows_are_scalar``), so a
    gamma^s segment adds about |s| / m factors to its |s| runs.  They are
    filtered from ``runs`` once, when the path is built.
    """

    start: VertexId
    runs: tuple[tuple[Arrow, int], ...]
    closed: bool
    factors: tuple[tuple[Arrow, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # a list, not a generator: tuple() of a generator raised peak RSS by
        # about 55 B per pa_random op on CPython 3.11 (3.2 MB over 60000 ops),
        # a list did not
        factors = tuple([run for run in self.runs if not run[0].is_identity])
        object.__setattr__(self, "factors", factors)

    @property
    def arrows(self) -> tuple[Arrow, ...]:
        """The runs expanded to one arrow per step."""
        return tuple(arrow for arrow, mult in self.runs for arrow in (arrow,) * mult)

    def end(self) -> VertexId:
        return self.runs[-1][0].target if self.runs else self.start


@dataclass(frozen=True)
class MassAutomaton:
    n: int
    vertices: dict[VertexId, Vertex]
    arrows: tuple[Arrow, ...]
    twist_arrows: dict[tuple[TwistLetter, VertexId], Arrow]
    gamma_arrows: dict[tuple[int, VertexId], Arrow]

    @cached_property
    def _twist_table(self) -> tuple[tuple[Arrow | None, ...], ...]:
        """``twist_arrows`` as ``[letter code][source code]``, with None at forbidden sources.

        Codes are those of ``braidword._letter_table``, and a vertex has the
        code of the letters into it (v_j is j, u_j is m + j), so a lookup
        is two index reads and hashes no ``TwistLetter``.
        """
        m = twist_modulus(self.n)
        table: list[list[Arrow | None]] = [[None] * len(self.vertices) for _ in self.vertices]
        for (letter, (kind, j)), arrow in self.twist_arrows.items():
            table[_code(m, letter)][j if kind == "v" else m + j] = arrow
        return tuple(tuple(row) for row in table)

    def vertex_order(self) -> list[VertexId]:
        """v_0, v_1, ..., then u_0, u_1, ...: the order ``build`` inserts vertices in."""
        return list(self.vertices)

    def letters(self) -> list[TwistLetter]:
        m = twist_modulus(self.n)
        out = [TwistLetter(1, j) for j in range(m)]
        if self.n % 2 == 0:
            out += [TwistLetter(2, j) for j in range(m)]
        return out

    def to_json(self) -> dict:
        verts = [
            {
                "id": f"{vid[0]}{vid[1]}",
                "basis": [
                    {"family": b.family, "index": b.index} for b in self.vertices[vid].basis
                ],
            }
            for vid in self.vertex_order()
        ]
        arrows = [
            {
                "from": f"{a.source[0]}{a.source[1]}",
                "to": f"{a.target[0]}{a.target[1]}",
                "label": a.label_text(),
                "matrix": [[a.matrix[r][c].to_json() for c in range(2)] for r in range(2)],
            }
            for a in self.arrows
        ]
        return {"n": self.n, "vertices": verts, "arrows": arrows}


def _vertex_basis(n: int, vid: VertexId) -> tuple[SemistableUnit, SemistableUnit]:
    kind, j = vid
    if kind == "v":
        return (SemistableUnit(V1, j), SemistableUnit(V2, j))
    return (SemistableUnit(V2, j), SemistableUnit(U, j))


def _arrow_matrix(
    n: int,
    columns: list[dict[SemistableUnit, int]],
    basis: tuple[SemistableUnit, SemistableUnit],
) -> MassMatrix:
    """The matrix whose column c is the support columns[c] read in ``basis``.

    Coefficient rows are accumulated per entry and exponent of s, and each
    entry is built once.
    """
    slot = {(b.family, b.index): r for r, b in enumerate(basis)}
    acc: list[list[dict[int, list[int]]]] = [[{}, {}], [{}, {}]]
    for c, support in enumerate(columns):
        for piece, w in support.items():
            entry = acc[slot[(piece.family, piece.index)]][c]
            entry.setdefault(piece.level, [0] * (n - 1))[piece.label] += w
    return tuple(
        tuple(MassPoly.from_dict(n, {e: tuple(r) for e, r in entry.items()}) for entry in row)
        for row in acc
    )


def build(n: int) -> MassAutomaton:
    """Construct the full automaton; matrices are precomputed on arrows.

    Raises ValueError for n outside 3..``braidword.MAX_N``.
    """
    check_n(n)
    m = twist_modulus(n)
    kinds = ("v",) if n % 2 else ("v", "u")
    ids = [(kind, j) for kind in kinds for j in range(m)]
    vertices = {vid: Vertex(vid, _vertex_basis(n, vid)) for vid in ids}

    def arrow(src: VertexId, tgt: VertexId, label: TwistLetter | int) -> Arrow:
        units = vertices[src].basis
        if isinstance(label, int):
            columns = [{gamma_on_unit(n, unit, label): 1} for unit in units]
        else:
            columns = [letter_support(n, label, unit) for unit in units]
        return Arrow(src, tgt, label, _arrow_matrix(n, columns, vertices[tgt].basis))

    twist_arrows: dict[tuple[TwistLetter, VertexId], Arrow] = {}
    for family in (1,) if n % 2 else (1, 2):
        for j in range(m):
            letter = make_twist(n, family, j)  # the one object per letter, as in normal forms
            tgt, banned = target_vertex(n, letter), forbidden_source(n, letter)
            for src in ids:
                if src != banned:
                    twist_arrows[(letter, src)] = arrow(src, tgt, letter)

    gamma_arrows: dict[tuple[int, VertexId], Arrow] = {}
    for kind in kinds:
        for j in range(m):
            src, tgt = (kind, j), (kind, (j + 1) % m)
            gamma_arrows[(1, src)] = arrow(src, tgt, 1)
            gamma_arrows[(-1, tgt)] = arrow(tgt, src, -1)

    arrows = (*twist_arrows.values(), *gamma_arrows.values())
    return MassAutomaton(n, vertices, arrows, twist_arrows, gamma_arrows)


def simulate(
    auto: MassAutomaton, letters: list[TwistLetter | int], start: VertexId
) -> tuple[Arrow, ...] | None:
    """Follow a letter sequence from a start vertex; None if it jams."""
    cur = start
    out: list[Arrow] = []
    for letter in letters:
        if isinstance(letter, int):
            arrow = auto.gamma_arrows[(letter, cur)]
        else:
            arrow = auto.twist_arrows.get((letter, cur))
            if arrow is None:
                return None
        out.append(arrow)
        cur = arrow.target
    return tuple(out)


def recognize(
    auto: MassAutomaton, nf: NormalForm, require_closed: bool = False
) -> PathWitness:
    """Deterministic word recognition in one pass over the blocks.

    The start vertex is read off the normal form in O(1).  Under
    ``require_closed`` it is the end vertex, the target of the last block
    and the only start that can close up, when the first block's letter
    can leave it after gamma^s.  Otherwise it is the first vertex in the
    order v_0.., u_0.. that the first letter can leave (v_0 with no block),
    as a scan of every start in that order would return.  Then gamma^s is
    one run per step, and a block b^mult is the arrow of b at the current
    vertex followed by the loop of b at its target, taken mult - 1 times
    (one run when the two coincide): at most two arrow lookups per block,
    each two index reads in ``MassAutomaton._twist_table`` by letter code
    (``NormalForm.codes``) and vertex code.
    """
    n, m = auto.n, twist_modulus(auto.n)
    starts = iter(auto.vertices)  # v_0, v_1, ..., u_0, ...
    start = next(starts)
    if nf.blocks:
        banned = forbidden_source(n, nf.blocks[0][0])

        def legal(v: VertexId) -> bool:
            return (v[0], (v[1] + nf.gamma_exp) % m) != banned

        end = target_vertex(n, nf.blocks[-1][0])
        if require_closed and legal(end):
            start = end
        elif not legal(start):
            start = next(starts)  # only one vertex is banned
    cur = start
    runs: list[tuple[Arrow, int]] = []
    step = 1 if nf.gamma_exp >= 0 else -1
    for _ in range(abs(nf.gamma_exp)):
        arrow = auto.gamma_arrows[(step, cur)]
        runs.append((arrow, 1))
        cur = arrow.target
    table = auto._twist_table
    c = cur[1] if cur[0] == "v" else m + cur[1]  # the code of the current vertex
    for x, (letter, mult) in zip(nf.codes, nf.blocks):
        entry = table[x][c]
        if entry is None:
            raise ValueError(f"{letter.label()} cannot leave the vertex of code {c}")
        loop = table[x][x]  # a letter can always follow itself, and ends at vertex x
        if loop is entry:
            runs.append((entry, mult))
        else:
            runs.append((entry, 1))
            if mult > 1:
                runs.append((loop, mult - 1))
        c = x
    return PathWitness(start, tuple(runs), (runs[-1][0].target if runs else start) == start)


def recognizes_word(auto: MassAutomaton, letters: list[TwistLetter | int]) -> bool:
    """Is the letter sequence read from some start vertex?  One pass, no arrows.

    Gammas leave every vertex and a twist letter leaves all but one, so
    the sequence jams exactly when two consecutive twist letters with g
    net gammas between them fail ``braidword.joins``.
    """
    prev: TwistLetter | None = None
    g = 0  # net gammas since the last twist letter
    for letter in letters:
        if isinstance(letter, int):
            g += letter
            continue
        if prev is not None and not joins(auto.n, prev, g, letter):
            return False
        prev, g = letter, 0
    return True


def path_terms(auto: MassAutomaton, path: PathWitness) -> tuple[Terms, Terms, Terms, Terms]:
    """Entries a, b, c, d of M(p) = M(e_k) ... M(e_1) as ``fusion.Terms``; empty path: identity.

    ``fusion.product_tree`` takes the path's factors (``PathWitness.factors``,
    the runs less the identity arrows), last first, with each arrow's
    cached ``Arrow.leaf``: a run of mult steps is one power,
    raised by repeated squaring on the packed entries, so nothing walks
    the expanded arrows.  ``MassPoly`` takes the terms as they are
    (``path_matrix``), and nothing is built per term.
    """
    return product_tree(auto.n, [(arrow.leaf, mult) for arrow, mult in reversed(path.factors)])


def path_matrix(auto: MassAutomaton, path: PathWitness) -> MassMatrix:
    """Ordered product M(e_k) ... M(e_1) as a ``MassMatrix``; the empty path gives the identity.

    It is ``path_terms``, each of the four entries built once through the
    checking ``MassPoly`` constructor.
    """
    return _mass_matrix(auto.n, path_terms(auto, path))


def _mass_matrix(n: int, terms: tuple[Terms, Terms, Terms, Terms]) -> MassMatrix:
    a, b, c, d = (MassPoly(n, entry) for entry in terms)
    return ((a, b), (c, d))


def _support(matrix: MassMatrix) -> Support:
    return tuple(tuple(not entry.is_zero() for entry in row) for row in matrix)


def _support_pattern(support: Support) -> str:
    """Shape of a 2x2 support: 'diagonal', 'lower', 'upper' (triangular) or 'full'.

    A zero diagonal entry cannot occur for path matrices and is reported
    as a structural error.
    """
    (a, b), (c, d) = support
    if not (a and d):
        raise ValueError("path matrix with a vanishing diagonal entry")
    if not (b or c):
        return "diagonal"
    if not b:
        return "lower"
    if not c:
        return "upper"
    return "full"


def zero_pattern(matrix: MassMatrix) -> str:
    """Symbolic shape of an exact matrix; see ``_support_pattern``.

    Nonnegative coefficients make 'nonzero polynomial' equivalent to
    'strictly positive for every t'.
    """
    return _support_pattern(_support(matrix))


def path_zero_pattern(path: PathWitness) -> str:
    """Same as ``zero_pattern(path_matrix(auto, path))``, in one pass over the factors.

    Every arrow's diagonal is nonzero (``test_twist_arrow_shapes``), so
    (XY)_12 = x_11 y_12 + x_12 y_22 is nonzero exactly when x_12 or y_12
    is: the pattern is two ORs over the factors' off-diagonal bits.
    """
    b = c = False
    for arrow, _ in path.factors:
        (_, q), (r, _) = arrow.support
        b = b or q
        c = c or r
    return _support_pattern(((True, b), (c, True)))


def _eval_arrow(arrow: Arrow, t: float) -> ArrowAtT:
    """(p, q, r, s, level): the arrow at t is exp(level t) [[p, q], [r, s]].

    level is the highest level for t >= 0 and the lowest for t < 0, so
    level t is the largest e t and no term exp(e t - level t) overflows.
    """
    lo, hi, terms = arrow.float_table
    level = hi if t >= 0 else lo
    top = level * t
    m = [0.0, 0.0, 0.0, 0.0]
    exp = math.exp
    for k, e, w in terms:
        m[k] += w * exp(e * t - top)
    return m[0], m[1], m[2], m[3], level


def _evaluated(arrow: Arrow, t: float) -> ArrowAtT:
    """``_eval_arrow(arrow, t)``, kept in ``Arrow.at_t``; the oldest t is dropped first."""
    kept = arrow.at_t
    if len(kept) >= _KEPT_T:
        kept.pop(next(iter(kept)), None)  # None: another thread may have dropped it already
    kept[t] = x = _eval_arrow(arrow, t)
    return x


def _rescaled(a: float, b: float, c: float, d: float) -> tuple[float, float, float, float, int]:
    """(a, b, c, d) times 2^-e, and e, so that the largest entry is in [1/2, 1).

    Scaling by a power of two is exact; all-zero entries stay as they are.
    """
    e = math.frexp(max(a, b, c, d))[1]
    ldexp = math.ldexp
    return ldexp(a, -e), ldexp(b, -e), ldexp(c, -e), ldexp(d, -e), e


def log_pf(path: PathWitness, t: float) -> float:
    """``log pf_eigenvalue(path_matrix(auto, path), t)`` from an exactly rescaled float product.

    The product is folded over the path's factors (``PathWitness.factors``):
    a multiplication by the identity is exact in floats, and skipping it
    leaves every entry, and so every rescale, as it was.  An empty product
    still goes through the identity's PF, so that t = nan gives nan.  Each
    arrow is evaluated at t once and kept on the arrow for its last
    ``_KEPT_T`` values of t (``Arrow.at_t``), so a call costs only its
    factors: the product is folded on four floats, and a run is raised to
    its multiplicity by repeated squaring, in O(factors * log mult) 2x2
    products.  The scale is an integer power of two, changed only when
    the largest entry leaves [2^-64, 2^64], and the arrows' levels are
    summed as the integer sum of mult * level, multiplied by t once at the
    end; so no step overflows however large |t| is, and the scale does
    not drift with the multiplicities.
    """
    if not path.runs:
        return 0.0  # the identity matrix
    lo, hi = _WINDOW
    a, b, c, d = 1.0, 0.0, 0.0, 1.0
    scale = level = 0  # the product is 2^scale exp(level t) [[a, b], [c, d]]
    for arrow, mult in path.factors:
        x = arrow.at_t.get(t)
        if x is None:
            x = _evaluated(arrow, t)
        p, q, r, s, x_level = x
        level += mult * x_level
        x_scale = 0  # the current power of the arrow is 2^x_scale [[p, q], [r, s]]
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


def _log_mass(p: MassPoly, t: float) -> float:
    """``log eval_mass(p, t)``, summed in the log domain: finite past the floats.

    Each row is shifted right to 100 bits of its largest coefficient, far
    more than a float holds, before ``_pf_rows``; zero gives -inf.
    """
    logs = []
    for e, row in p.terms:
        k = max(0, max(row).bit_length() - 100)
        (pf,) = _pf_rows(p.n, ([c >> k for c in row],))
        logs.append(math.log(pf) + k * _LN2 + e * t)
    top = max(logs, default=-math.inf)
    return top + math.log(sum(math.exp(x - top) for x in logs)) if logs else top


def pf_eigenvalue(matrix: MassMatrix, t: float) -> float:
    """Largest eigenvalue of the (entrywise nonnegative) matrix at parameter t.

    It is (a + d)/2 + hypot((a - d)/2, r), r = sqrt(b) sqrt(c), which
    overflows no intermediate and flushes neither factor of b c.  An inf
    diagonal entry (``eval_mass`` past the floats) makes it inf; with an
    inf off-diagonal entry, b c may still be finite, and r is taken from
    the entries' logs (``_log_mass``).
    """
    a, b, c, d = (eval_mass(entry, t) for row in matrix for entry in row)
    if math.inf in (a, d):
        return math.inf
    if math.inf in (b, c):
        try:
            r = math.exp(0.5 * (_log_mass(matrix[0][1], t) + _log_mass(matrix[1][0], t)))
        except OverflowError:
            return math.inf
    else:
        r = math.sqrt(b) * math.sqrt(c)
    return 0.5 * a + 0.5 * d + math.hypot(0.5 * (a - d), r)
