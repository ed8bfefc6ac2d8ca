"""Exact arithmetic for the rank-two Temperley-Lieb-Jones fusion ring.

For each n >= 3 the fusion ring has a free Z-basis of simple classes
[Pi_0], ..., [Pi_{n-2}], with [Pi_0] the unit and multiplication given by
the truncated Clebsch-Gordan rule.  A ``FusionVec`` stores a nonnegative
integer coefficient per simple class; every quantity handled by this
package is a nonnegative combination of simple classes, so negativity is
rejected at construction.  We deliberately do *not* work in the quotient
presentation Z[w]/(D_{n-1}(w)): the defining Chebyshev polynomial is
reducible for general n, the quotient has zero divisors, and the basis
representation keeps zero-detection exact.

A ``MassPoly`` is a Laurent polynomial in s = e^t whose coefficients are
FusionVecs.  These are the entries of all mass matrices: the exponent of s
records the level (cohomological shift minus internal shift) of a
summand, the FusionVec records which simple classes decorate it.  Numeric
evaluation sends [Pi_a] to its Perron-Frobenius dimension
Delta_a(2 cos(pi/n)) and s to e^t; all structural decisions (zero
patterns) are made on the symbolic side, never on floats.

Every exact product in the package runs through one kernel.  The
structure constants are multiplicity free, so ``_fusion_table(n)[a][b]``
lists the labels c with [Pi_a] [Pi_b] containing [Pi_c], computed once
per n.  ``_fuse_into`` adds the product of two coefficient rows into a
plain list of ints, and ``_sparse_dot`` accumulates a sum of Laurent
products x_1 y_1 + x_2 y_2 + ... into exponent -> row, so a 2x2 matrix
entry a b + c d is one call.  Intermediate products are plain rows;
results become ``FusionVec``/``MassPoly`` objects through their checking
constructors.  Signed coefficients are allowed only in the kernel and in
the Burau entries (``braidword.QLaurent``), which share it.

Long products of 2x2 matrices (path matrices, Burau matrices) run through
``product_tree``: neighbours are multiplied pairwise, level by level, with
entries kept as sparse terms (exponent, nonzero (label, coefficient)
pairs) between levels, and the caller builds each of the four result
entries once through its checking constructor.  Pairing factors of equal
size keeps the cost close to the size of the result: the entries of a
block power M^k are geometric sums, and a tree builds them in about
k log k term products where a left-to-right fold needs about k^2.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

__all__ = [
    "FusionVec",
    "MassPoly",
    "chebyshev",
    "delta_value",
    "fuse",
    "pf_dim",
    "ring_mul",
    "product_tree",
    "sparse_entry",
    "mass_mul",
    "eval_mass",
]


def _check_n(n: int) -> None:
    if n < 3:
        raise ValueError(f"rank-two fusion data needs n >= 3, got n={n}")


@lru_cache(maxsize=None)
def chebyshev(k: int) -> tuple[int, ...]:
    """Coefficients (ascending powers) of the normalised Chebyshev polynomial.

    Delta_0 = 1, Delta_1 = d, Delta_{k+1} = d*Delta_k - Delta_{k-1}.
    """
    if k < 0:
        raise ValueError("chebyshev index must be nonnegative")
    if k == 0:
        return (1,)
    if k == 1:
        return (0, 1)
    prev2, prev1 = chebyshev(k - 2), chebyshev(k - 1)
    shifted = (0,) + prev1
    return tuple(
        shifted[i] - (prev2[i] if i < len(prev2) else 0) for i in range(len(shifted))
    )


@lru_cache(maxsize=None)
def _delta_table(n: int) -> tuple[float, ...]:
    # Delta_a(2 cos(pi/n)) for a = 0..n-1; the last entry vanishes.
    d = 2.0 * math.cos(math.pi / n)
    vals = [1.0, d]
    for _ in range(2, n):
        vals.append(d * vals[-1] - vals[-2])
    return tuple(vals)


def delta_value(n: int, a: int) -> float:
    """Perron-Frobenius dimension of the simple class [Pi_a]."""
    _check_n(n)
    if not 0 <= a <= n - 2:
        raise ValueError(f"label {a} out of range for n={n}")
    return _delta_table(n)[a]


@dataclass(frozen=True)
class FusionVec:
    """Nonnegative integer combination of the simple classes [Pi_a]."""

    n: int
    coeffs: tuple[int, ...]  # slot a = multiplicity of [Pi_a], length n-1

    def __post_init__(self):
        _check_n(self.n)
        if len(self.coeffs) != self.n - 1:
            raise ValueError(
                f"expected {self.n - 1} coefficients for n={self.n}, "
                f"got {len(self.coeffs)}"
            )
        if any(c < 0 for c in self.coeffs):
            raise ValueError("fusion coefficients must be nonnegative")

    @classmethod
    def zero(cls, n: int) -> FusionVec:
        return cls(n, (0,) * (n - 1))

    @classmethod
    def simple(cls, n: int, a: int) -> FusionVec:
        """The basis class [Pi_a]."""
        _check_n(n)
        if not 0 <= a <= n - 2:
            raise ValueError(f"label {a} out of range for n={n}")
        return cls(n, tuple(1 if i == a else 0 for i in range(n - 1)))

    @classmethod
    def unit(cls, n: int) -> FusionVec:
        return cls.simple(n, 0)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def fold(self) -> FusionVec:
        """Canonical form modulo the involution [Pi_a] -> [Pi_{n-2-a}].

        The involution is multiplication by the invertible class
        [Pi_{n-2}], so folding is a ring congruence; it identifies
        exactly the classes with equal Perron-Frobenius dimension.
        """
        out = [0] * (self.n - 1)
        for a, c in enumerate(self.coeffs):
            out[min(a, self.n - 2 - a)] += c
        return FusionVec(self.n, tuple(out))

    def __add__(self, other: FusionVec) -> FusionVec:
        if self.n != other.n:
            raise ValueError("mismatched fusion parameters")
        return FusionVec(self.n, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def scaled(self, m: int) -> FusionVec:
        if m < 0:
            raise ValueError("fusion coefficients must stay nonnegative")
        return FusionVec(self.n, tuple(m * c for c in self.coeffs))


@lru_cache(maxsize=None)
def _fusion_table(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Entry [a][b] lists the c with N_ab^c = 1 (truncated Clebsch-Gordan rule).

    The summands of [Pi_a] [Pi_b] are Pi_{|a-b|}, Pi_{|a-b|+2}, ... up to
    Pi_{a+b} when a+b <= n-2 and up to Pi_{2n-(a+b)-4} otherwise.
    """
    _check_n(n)

    def summands(a: int, b: int) -> tuple[int, ...]:
        top = a + b if a + b <= n - 2 else 2 * n - (a + b) - 4
        return tuple(range(abs(a - b), top + 1, 2))

    return tuple(tuple(summands(a, b) for b in range(n - 1)) for a in range(n - 1))


def _nonzero(row) -> list[tuple[int, int]]:
    return [(a, c) for a, c in enumerate(row) if c]


def _fuse_into(
    table, acc: list[int], u: list[tuple[int, int]], v: list[tuple[int, int]]
) -> None:
    """Add the product of u and v into the dense row ``acc``.

    u and v are the nonzero (label, coefficient) pairs of two rows, as
    given by ``_nonzero``; the coefficients may carry signs.
    """
    for a, ca in u:
        by_b = table[a]
        for b, cb in v:
            m = ca * cb
            for c in by_b[b]:
                acc[c] += m


def _sparse_dot(n: int, table, pairs) -> dict[int, list[int]]:
    """Sum of the Laurent products x * y over ``pairs``, as exponent -> dense row.

    x and y are sequences of sparse terms (exponent, nonzero pairs of the
    row, as given by ``_nonzero``); exponents add and rows multiply in the
    fusion ring.  Rows that cancel to zero are kept.
    """
    acc: dict[int, list[int]] = {}
    for x, y in pairs:
        for e1, u in x:
            for e2, v in y:
                out = acc.get(e1 + e2)
                if out is None:
                    out = acc[e1 + e2] = [0] * (n - 1)
                _fuse_into(table, out, u, v)
    return acc


SparseMatrix = tuple  # (a, b, c, d) of [[a, b], [c, d]], each a sequence of sparse terms


def _sparse_matrix_mul(n: int, table, x: SparseMatrix, y: SparseMatrix) -> SparseMatrix:
    a, b, c, d = x
    p, q, r, s = y
    return tuple(
        [(e, u) for e, row in _sparse_dot(n, table, pairs).items() if (u := _nonzero(row))]
        for pairs in (((a, p), (b, r)), ((a, q), (b, s)), ((c, p), (d, r)), ((c, q), (d, s)))
    )


def product_tree(n: int, mats: Sequence[SparseMatrix]) -> tuple[dict[int, list[int]], ...]:
    """Product mats[0] mats[1] ... of 2x2 matrices, as four exponent -> dense row dicts.

    A matrix is the tuple (a, b, c, d) of its entries [[a, b], [c, d]],
    each a sequence of sparse terms (exponent, nonzero (label, coefficient)
    pairs).  Neighbours are multiplied pairwise, level by level, with an
    odd tail carried up unchanged, so the two factors of every product have
    comparable size and the cost follows the size of the result.  Entries
    stay sparse between levels; the caller builds its checked objects
    from the returned rows (``MassPoly.from_rows``).  The empty product is
    the identity.
    """
    table = _fusion_table(n)
    level = list(mats) or [(((0, ((0, 1),)),), (), (), ((0, ((0, 1),)),))]
    while len(level) > 1:
        paired = [
            _sparse_matrix_mul(n, table, level[i], level[i + 1])
            for i in range(0, len(level) - 1, 2)
        ]
        level = paired + level[len(paired) * 2 :]
    return tuple(_dense_rows(n, entry) for entry in level[0])


def sparse_entry(terms) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
    """(exponent, coefficient row) terms as the sparse terms of ``product_tree``."""
    return tuple((e, tuple(_nonzero(row))) for e, row in terms)


def _dense_rows(n: int, entry) -> dict[int, list[int]]:
    rows: dict[int, list[int]] = {}
    for e, pairs in entry:
        row = rows[e] = [0] * (n - 1)
        for a, c in pairs:
            row[a] = c
    return rows


def fuse(n: int, a: int, b: int) -> FusionVec:
    """Decompose [Pi_a] * [Pi_b] as a multiplicity-free sum of simples.

    The summands are listed by ``_fusion_table``.
    """
    _check_n(n)
    for lbl in (a, b):
        if not 0 <= lbl <= n - 2:
            raise ValueError(f"label {lbl} out of range for n={n}")
    coeffs = [0] * (n - 1)
    for c in _fusion_table(n)[a][b]:
        coeffs[c] = 1
    return FusionVec(n, tuple(coeffs))


def ring_mul(u: FusionVec, v: FusionVec) -> FusionVec:
    """Bilinear extension of ``fuse`` to arbitrary nonnegative combinations."""
    if u.n != v.n:
        raise ValueError("mismatched fusion parameters")
    out = [0] * (u.n - 1)
    _fuse_into(_fusion_table(u.n), out, _nonzero(u.coeffs), _nonzero(v.coeffs))
    return FusionVec(u.n, tuple(out))


def pf_dim(n: int, v: FusionVec) -> float:
    """Ring homomorphism to R sending [Pi_a] to Delta_a(2 cos(pi/n))."""
    _check_n(n)
    if v.n != n:
        raise ValueError("mismatched fusion parameters")
    table = _delta_table(n)
    return sum(c * table[a] for a, c in enumerate(v.coeffs))


@dataclass(frozen=True)
class MassPoly:
    """Laurent polynomial in s = e^t with FusionVec coefficients.

    ``terms`` maps the exponent of s to a nonzero FusionVec; the empty
    polynomial is zero.  Evaluation at any real t is nonnegative and
    vanishes only for the empty polynomial.
    """

    n: int
    terms: tuple[tuple[int, FusionVec], ...]  # sorted by exponent, no zero vecs

    def __post_init__(self):
        _check_n(self.n)
        exps = [e for e, _ in self.terms]
        if exps != sorted(exps) or len(set(exps)) != len(exps):
            raise ValueError("terms must be sorted by exponent and distinct")
        for e, vec in self.terms:
            if vec.n != self.n:
                raise ValueError("mismatched fusion parameters in term")
            if vec.is_zero():
                raise ValueError("zero coefficient must not be stored")

    @classmethod
    def from_dict(cls, n: int, d: dict[int, FusionVec]) -> MassPoly:
        return cls(n, tuple(sorted((e, v) for e, v in d.items() if not v.is_zero())))

    @classmethod
    def from_rows(cls, n: int, rows: dict[int, list[int]]) -> MassPoly:
        """From exponent -> coefficient row; zero rows are dropped, the rest checked."""
        return cls(
            n, tuple((e, FusionVec(n, tuple(row))) for e, row in sorted(rows.items()) if any(row))
        )

    @classmethod
    def zero(cls, n: int) -> MassPoly:
        return cls(n, ())

    @classmethod
    def monomial(cls, n: int, a: int, e: int = 0, mult: int = 1) -> MassPoly:
        """mult * [Pi_a] * s^e"""
        if mult == 0:
            return cls.zero(n)
        return cls.from_dict(n, {e: FusionVec.simple(n, a).scaled(mult)})

    @classmethod
    def one(cls, n: int) -> MassPoly:
        return cls.monomial(n, 0)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: MassPoly) -> MassPoly:
        if self.n != other.n:
            raise ValueError("mismatched fusion parameters")
        acc = {e: v for e, v in self.terms}
        for e, v in other.terms:
            acc[e] = acc[e] + v if e in acc else v
        return MassPoly.from_dict(self.n, acc)

    def shifted(self, e: int) -> MassPoly:
        """Multiply by s^e."""
        return MassPoly(self.n, tuple((k + e, v) for k, v in self.terms))

    def fold(self) -> MassPoly:
        """Fold every coefficient; see :meth:`FusionVec.fold`."""
        return MassPoly.from_dict(self.n, {e: v.fold() for e, v in self.terms})

    def to_json(self) -> list[dict]:
        return [{"e": e, "coeffs": list(v.coeffs)} for e, v in self.terms]

    @classmethod
    def from_json(cls, n: int, data: list[dict]) -> MassPoly:
        return cls.from_dict(
            n, {int(t["e"]): FusionVec(n, tuple(t["coeffs"])) for t in data}
        )


def mass_mul(p: MassPoly, q: MassPoly) -> MassPoly:
    """Product of mass polynomials; exponents add, coefficients fuse."""
    if p.n != q.n:
        raise ValueError("mismatched fusion parameters")
    x, y = (sparse_entry((e, v.coeffs) for e, v in r.terms) for r in (p, q))
    return MassPoly.from_rows(p.n, _sparse_dot(p.n, _fusion_table(p.n), [(x, y)]))


def eval_mass(p: MassPoly, t: float) -> float:
    """Evaluate at s = e^t; the result is >= 0, and 0 only for the zero polynomial."""
    return sum(pf_dim(p.n, v) * math.exp(e * t) for e, v in p.terms)
