"""The mass automaton: vertices, weighted arrows, recognition, spectra.

For odd n the automaton has n vertices v_0..v_{n-1} with basis
(V1[j], V2[j]); every vertex receives one incoming arrow per twist
letter sigma_{gamma^j P_1} from each vertex except v_{j+(n-1)/2}, plus
gamma / gamma^-1 arrows shifting the index.  For even n there are n/2
v-vertices as before and n/2 u-vertices with basis (V2[j], U[j]);
sigma_{gamma^j P_1} arrows point into v_j from everything except
u_{j+n/2-1}, and sigma_{gamma^j P_2} arrows into u_j from everything
except v_j.

Arrow matrices are 2x2 with MassPoly entries: column c holds the
coordinates, in the target basis, of the image of the c-th source basis
unit.  Twist matrices come from the letter-support tables; gamma arrows
are the identity except across the index wraparound, which carries the
full central shift (s^-2 for odd n, the class Pi_{n-2} times s^-1 for
even n, and the inverses on gamma^-1).  Entries always have nonnegative
coefficients, so an entry is strictly positive for every t exactly when
it is a nonzero polynomial; zero patterns are read off symbolically.

Recognition is one deterministic pass.  Gamma arrows leave every vertex,
and a twist letter y leaves every vertex except forbidden_source(y), so a
letter sequence is recognised exactly when every pair of consecutive
twist letters x ... y with g net gammas between them has
forbidden_source(y) != gamma^g(target_vertex(x)) (``joins``).  The start
vertex matters only for the gammas before the first twist letter, and
the end vertex does not depend on it at all, so the witness is fixed
without trying start vertices.

Classification never forms the exact product of a path.  Its zero
pattern is the product of the arrows' 2x2 Boolean supports: the supports
are read from the exact entries, and a product of nonzero entries with
nonnegative coefficients is never zero, so the Boolean product is exact.
The growth log PF(M(p))(t) comes from a float product of the arrow
matrices at t, rescaled at every step.  ``path_matrix``, ``zero_pattern``
and ``pf_eigenvalue`` are the exact route, used when the matrix itself is
wanted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .braidword import NormalForm, TwistLetter, forbidden_source, target_vertex, twist_modulus
from .fusion import FusionVec, MassPoly, eval_mass, mass_dot, mass_mul, pf_dim
from .twistcalc import U, V1, V2, SemistableUnit, support_column

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
    "path_zero_pattern",
    "pf_eigenvalue",
    "recognize",
    "zero_pattern",
]

VertexId = tuple[str, int]
MassMatrix = tuple[tuple[MassPoly, MassPoly], tuple[MassPoly, MassPoly]]
Support = tuple[tuple[bool, bool], tuple[bool, bool]]  # entry is nonzero


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
    def weighted_terms(self) -> tuple[tuple[tuple[int, float], ...], ...]:
        """(exponent of s, PF dimension of the coefficient) per term of a, b, c, d."""
        return tuple(
            tuple((e, pf_dim(entry.n, vec)) for e, vec in entry.terms)
            for row in self.matrix
            for entry in row
        )


@dataclass(frozen=True)
class PathWitness:
    start: VertexId
    arrows: tuple[Arrow, ...]  # arrows[0] is traversed first
    closed: bool

    def end(self) -> VertexId:
        return self.arrows[-1].target if self.arrows else self.start


def _identity_matrix(n: int) -> MassMatrix:
    one, zero = MassPoly.one(n), MassPoly.zero(n)
    return ((one, zero), (zero, one))


def _scalar_matrix(n: int, label: int, exp: int) -> MassMatrix:
    s = MassPoly.from_dict(n, {exp: FusionVec.simple(n, label)})
    zero = MassPoly.zero(n)
    return ((s, zero), (zero, s))


def mat_mul(a: MassMatrix, b: MassMatrix) -> MassMatrix:
    return tuple(
        tuple(mass_dot(((a[i][0], b[0][j]), (a[i][1], b[1][j]))) for j in range(2))
        for i in range(2)
    )


@dataclass(frozen=True)
class MassAutomaton:
    n: int
    vertices: dict[VertexId, Vertex]
    arrows: tuple[Arrow, ...]
    twist_arrows: dict[tuple[TwistLetter, VertexId], Arrow]
    gamma_arrows: dict[tuple[int, VertexId], Arrow]

    def vertex_order(self) -> list[VertexId]:
        m = twist_modulus(self.n)
        ids = [("v", j) for j in range(m)]
        if self.n % 2 == 0:
            ids += [("u", j) for j in range(m)]
        return ids

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


def build(n: int) -> MassAutomaton:
    """Construct the full automaton; matrices are precomputed on arrows."""
    if n < 3:
        raise ValueError(f"need n >= 3, got n={n}")
    m = twist_modulus(n)
    vertices: dict[VertexId, Vertex] = {}
    ids = [("v", j) for j in range(m)] + ([("u", j) for j in range(m)] if n % 2 == 0 else [])
    for vid in ids:
        vertices[vid] = Vertex(vid, _vertex_basis(n, vid))

    arrows: list[Arrow] = []
    twist_arrows: dict[tuple[TwistLetter, VertexId], Arrow] = {}
    gamma_arrows: dict[tuple[int, VertexId], Arrow] = {}

    # Base-letter matrices come from the support tables; every other twist
    # arrow is the exact gamma-conjugate of a base arrow.  Pulling the
    # source back by gamma^-j crosses the index wraparound at most once,
    # contributing one central monomial factor (s^2 odd, [Pi_{n-2}] s even).
    wrap = (
        MassPoly.from_dict(n, {2: FusionVec.simple(n, 0)})
        if n % 2
        else MassPoly.from_dict(n, {1: FusionVec.simple(n, n - 2)})
    )
    base_letters = [TwistLetter(1, 0)] + ([TwistLetter(2, 0)] if n % 2 == 0 else [])
    base_matrices: dict[tuple[int, VertexId], MassMatrix] = {}
    for letter in base_letters:
        tgt_basis = _vertex_basis(n, target_vertex(n, letter))
        banned = forbidden_source(n, letter)
        for src in ids:
            if src == banned:
                continue
            cols = [
                support_column(n, letter, unit, tgt_basis)
                for unit in vertices[src].basis
            ]
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
            base_src = (src[0], (src[1] - j) % m)
            matrix = base_matrices[(letter.family, base_src)]
            if src[1] < j:  # the gamma^-j pull-back crossed the wraparound
                matrix = tuple(
                    tuple(mass_mul(entry, wrap) for entry in row) for row in matrix
                )
            arrow = Arrow(src, tgt, letter, matrix)
            arrows.append(arrow)
            twist_arrows[(letter, src)] = arrow

    for kind in {vid[0] for vid in ids}:
        for j in range(m):
            fwd_src, fwd_tgt = (kind, j), (kind, (j + 1) % m)
            if j + 1 < m:
                fwd_matrix = _identity_matrix(n)
                bwd_matrix = _identity_matrix(n)
            elif n % 2:
                fwd_matrix = _scalar_matrix(n, 0, -2)
                bwd_matrix = _scalar_matrix(n, 0, 2)
            else:
                fwd_matrix = _scalar_matrix(n, n - 2, -1)
                bwd_matrix = _scalar_matrix(n, n - 2, 1)
            fwd = Arrow(fwd_src, fwd_tgt, 1, fwd_matrix)
            bwd = Arrow(fwd_tgt, fwd_src, -1, bwd_matrix)
            arrows.append(fwd)
            arrows.append(bwd)
            gamma_arrows[(1, fwd_src)] = fwd
            gamma_arrows[(-1, fwd_tgt)] = bwd

    return MassAutomaton(n, vertices, tuple(arrows), twist_arrows, gamma_arrows)


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


def joins(n: int, first: TwistLetter, gammas: int, second: TwistLetter) -> bool:
    """Can ``second`` be read after ``first`` followed by ``gammas`` net gamma steps?

    ``first`` ends at its target vertex, gamma^g moves the index of that
    vertex by g, and ``second`` leaves every vertex but its forbidden
    source.  ``joins(n, x, 0, x)`` always holds.
    """
    kind, j = target_vertex(n, first)
    return forbidden_source(n, second) != (kind, (j + gammas) % twist_modulus(n))


def _witness_start(
    auto: MassAutomaton, letters: list[TwistLetter | int], require_closed: bool
) -> VertexId | None:
    """Start vertex of the witness for a letter sequence; None if it jams everywhere.

    One pass checks ``joins`` for each pair of consecutive twist letters.
    With no twist letter every start is legal and v_0 is taken.
    Otherwise the end vertex, gamma^g(target of the last twist letter),
    is the same from every start, so the only start that can close up is
    the end vertex itself; it is taken under ``require_closed`` when the
    first twist letter can leave it after the leading gammas.  Failing
    that, the start is the first vertex in ``vertex_order`` that the first
    twist letter can leave.  That is the witness a scan of all start
    vertices in that order would return.
    """
    n = auto.n
    first: TwistLetter | None = None
    prev: TwistLetter | None = None
    lead = g = 0  # net gammas before the first twist letter / since the last one
    for letter in letters:
        if isinstance(letter, int):
            g += letter
            continue
        if prev is None:
            first, lead = letter, g
        elif not joins(n, prev, g, letter):
            return None
        prev, g = letter, 0
    order = auto.vertex_order()
    if first is None:
        return order[0]
    m = twist_modulus(n)
    banned = forbidden_source(n, first)

    def legal(v: VertexId) -> bool:
        return (v[0], (v[1] + lead) % m) != banned

    kind, j = target_vertex(n, prev)
    end = (kind, (j + g) % m)
    if require_closed and legal(end):
        return end
    return next(v for v in order if legal(v))


def recognize(
    auto: MassAutomaton, nf: NormalForm, require_closed: bool = False
) -> PathWitness | None:
    """Deterministic word recognition in one pass (see ``_witness_start``).

    Returns the witness from the first start vertex in the order v_0..,
    u_0.. from which the word is read; with ``require_closed`` a closed
    witness is preferred, falling back to that first witness when none
    closes up.  Only the end vertex can close up, so the choice needs no
    scan over start vertices; the arrows are then followed once.
    """
    letters = nf.letters_applied()
    start = _witness_start(auto, letters, require_closed)
    if start is None:
        return None
    path = simulate(auto, letters, start)
    end = path[-1].target if path else start
    return PathWitness(start, path, end == start)


def recognizes_word(auto: MassAutomaton, letters: list[TwistLetter | int]) -> bool:
    """Is the letter sequence read from some start vertex?  One pass, no arrows."""
    return _witness_start(auto, letters, False) is not None


def path_matrix(auto: MassAutomaton, path: PathWitness) -> MassMatrix:
    """Ordered product M(e_k) ... M(e_1); the empty path gives the identity."""
    out = _identity_matrix(auto.n)
    for arrow in path.arrows:
        out = mat_mul(arrow.matrix, out)
    return out


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
    """Same as ``zero_pattern(path_matrix(auto, path))``, in O(path).

    The pattern is the Boolean product of the arrow supports.
    """
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


def log_pf(path: PathWitness, t: float) -> float:
    """``log pf_eigenvalue(path_matrix(auto, path), t)`` from a rescaled float product.

    Each arrow is evaluated at t as exp(e t - top) with top its largest
    e t, so no term overflows; the running product is divided by its
    largest entry after every step.  Both scales are summed in the log
    domain, so no step overflows however large |t| is.
    """
    a, b, c, d = 1.0, 0.0, 0.0, 1.0
    log_scale = 0.0
    for arrow in path.arrows:
        terms = arrow.weighted_terms
        top = max(e * t for entry in terms for e, _ in entry)
        p, q, r, s = (sum(w * math.exp(e * t - top) for e, w in entry) for entry in terms)
        a, b, c, d = p * a + q * c, p * b + q * d, r * a + s * c, r * b + s * d
        big = max(a, b, c, d)
        a, b, c, d = a / big, b / big, c / big, d / big
        log_scale += top + math.log(big)
    pf = 0.5 * (a + d + math.sqrt((a - d) * (a - d) + 4.0 * b * c))
    return math.log(pf) + log_scale


def pf_eigenvalue(matrix: MassMatrix, t: float) -> float:
    """Largest eigenvalue of the (entrywise nonnegative) matrix at parameter t."""
    a = eval_mass(matrix[0][0], t)
    b = eval_mass(matrix[0][1], t)
    c = eval_mass(matrix[1][0], t)
    d = eval_mass(matrix[1][1], t)
    tr, det = a + d, a * d - b * c
    disc = max(tr * tr - 4.0 * det, 0.0)
    return 0.5 * (tr + math.sqrt(disc))
