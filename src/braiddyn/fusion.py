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

A ``MassPoly`` is a Laurent polynomial in s = e^t with nonnegative
fusion-ring coefficients.  These are the entries of all mass matrices:
the exponent of s records the level (cohomological shift minus internal
shift) of a summand, the coefficient row which simple classes decorate
it.  It is one kind of ``LaurentTerms``, which holds the kernel's
``Terms`` as they are and checks their canonical form once; the signed
Burau entries ``braidword.QLaurent`` are the other.  ``FusionVec`` is
the ring API (``fuse``, ``ring_mul``, ``pf_dim``, ``FusionVec.fold``).
Numeric evaluation sends [Pi_a] to its Perron-Frobenius dimension
Delta_a(2 cos(pi/n)) and s to e^t, a row at a time by one routine
(``_pf_rows``); all structural decisions (zero patterns) are made on the
symbolic side, never on floats.

Every exact product in the package runs through one kernel,
``product_tree``, on Kronecker-packed big ints (Harvey, arXiv:0712.4046).
The structure constants are multiplicity free, so ``_fusion_table(n)[a][b]``
lists the labels c with [Pi_a] [Pi_b] containing [Pi_c], computed once
per n.  A factor is a ``Leaf``, prepared once per arrow or generator:
each 2x2 matrix is shifted by s^(-lowest exponent) (the scalar commutes
and is added back at the end), and each entry is stored per label as
the label's polynomial in s evaluated at s = 2^(8 size), with the
coefficients as balanced digits in slots of ``size`` bytes.  An entry
product then adds X_a * Y_b into every label c of the table's [a][b]: one
C-level big-int multiply per label pair, not one loop step per pair of
terms.  A run L^m of one leaf is raised by repeated squaring on the packed
ints, and the run powers are multiplied pairwise, level by level, so
factors of comparable size meet.

Evaluation at s = 2^(8 size) is a ring homomorphism, so every packed
product is exact; a slot size only has to hold the coefficients of the
product that is read back in slots.  Two rules pick it.

- A bound fixed in advance.  Let P be the 2x2 matrix of PF masses
  sum |coeff| Delta_a(2 cos pi/n) of a leaf at s = 1.  The structure
  constants are nonnegative, so |x y| <= |x| |y| coefficientwise; the PF
  dimension is a ring homomorphism on nonnegative classes; and every
  Delta_a >= 1.  Hence every coefficient of a product is at most the
  largest entry of the product of the P's, computed in log2 with each
  product rescaled.  Consecutive runs whose bound fits slots of at most
  ``_FIXED_MAX`` bytes form a group, multiplied at that one size with no
  measuring; most products are one such group.
- Measured coefficients.  The bound is tight for nonnegative entries,
  but signed Burau entries cancel (gamma^n is central), and no bound fixed
  in advance sees that.  So the group products, and any run whose power
  is past ``_FIXED_MAX`` bytes alone, meet in a tree where each product
  takes its size from the coefficients its children actually hold
  (``_node_mul``), read off their slots in O(slots).

Reading slots is linear too: half a slot is added to every slot, which
turns the balanced (signed) digits nonnegative, then one ``to_bytes``
hands back every slot.  The root's slots, all labels of an entry in one
buffer, are read back in C-level passes (``_read_terms``): each slot's
top bit is flipped back, slots of at most 8 bytes are read through one
``memoryview.cast`` to C ints, the labels are transposed into rows, and
zero rows are dropped.  ``product_tree`` hands each entry back as
``Terms``, (exponent, coefficient row) pairs, which ``MassPoly`` and
``braidword.QLaurent`` take as they are and check in bulk; ``eval_mass``
reads them in C-level passes too, with no per-term object.  Signed
coefficients occur only in the kernel and in the Burau entries.
``mass_mul`` and ``ring_mul`` are one-entry products through the same
kernel.
"""

from __future__ import annotations

import math
import struct
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain, compress, repeat
from operator import add, itemgetter, lt, mul
from typing import ClassVar, NamedTuple

__all__ = [
    "FusionVec",
    "LaurentTerms",
    "MassPoly",
    "chebyshev",
    "delta_value",
    "fuse",
    "pf_dim",
    "ring_mul",
    "Leaf",
    "leaf",
    "product_tree",
    "mass_mul",
    "eval_mass",
    "check_nonnegative",
    "Terms",
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
        check_nonnegative((self.coeffs,))

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
        return FusionVec(self.n, _folded(self.n, self.coeffs))

    def __add__(self, other: FusionVec) -> FusionVec:
        if self.n != other.n:
            raise ValueError("mismatched fusion parameters")
        return FusionVec(self.n, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def scaled(self, m: int) -> FusionVec:
        if m < 0:
            raise ValueError("fusion coefficients must stay nonnegative")
        return FusionVec(self.n, tuple(m * c for c in self.coeffs))


def _folded(n: int, row: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * (n - 1)
    for a, c in enumerate(row):
        out[min(a, n - 2 - a)] += c
    return tuple(out)


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


def check_nonnegative(rows: Iterable[tuple[int, ...]]) -> None:
    """Raise ``FusionVec``'s error if a coefficient of any of the (nonempty) rows is negative."""
    if min(map(min, rows), default=0) < 0:
        raise ValueError("fusion coefficients must be nonnegative")


Terms = tuple[tuple[int, tuple[int, ...]], ...]  # (exponent, coefficient row), ascending, no zero row
Bound = tuple[float, float, float, float, float]  # (a, b, c, d, log2 scale), largest entry 1
_TINY = 2.0**-500  # floor of a positive bound entry, so no product of two underflows


class _Node(NamedTuple):
    """A 2x2 matrix with Kronecker-packed entries.

    Each entry maps a label to its polynomial in s as a little-endian
    byte string of ``size``-byte slots, slot i holding the coefficient of
    s^i plus half a slot (the bias turns balanced digits nonnegative).
    Every coefficient fits ``fit`` bytes in two's complement, and the
    nonzero ones lie within ``span`` consecutive slots.
    """

    size: int
    fit: int
    span: int
    entries: tuple[dict[int, bytes], ...]


class Leaf:
    """A 2x2 matrix prepared once for ``product_tree``; build it with ``leaf``.

    ``lo`` is the lowest exponent over the four entries.  ``bound`` is
    the matrix of PF masses at s = 1 of entries a, b, c, d (sum of
    |coefficient| Delta_label), held as (a, b, c, d, log2 scale) with the
    largest entry 1.  ``node`` holds the entries times s^(-lo), packed at
    the fewest bytes their coefficients fit.
    """

    __slots__ = ("lo", "bound", "node", "_fixed")

    def __init__(self, lo: int, bound: Bound, node: _Node):
        self.lo, self.bound, self.node = lo, bound, node
        self._fixed: dict[int, tuple[dict[int, int], ...]] = {}

    def fixed(self, size: int) -> tuple[dict[int, int], ...]:
        """Entries a, b, c, d as label -> packed int at ``size``-byte slots.

        Kept per size: ``product_tree`` asks for sizes up to ``_FIXED_MAX``
        only, so a leaf holds at most that many small copies, and one arrow
        or generator serves every product it appears in.
        """
        out = self._fixed.get(size)
        if out is None:
            node = self.node
            out = self._fixed[size] = tuple(
                {a: _repack(buf, node.size, node.fit, size) for a, buf in entry.items()}
                for entry in node.entries
            )
        return out


def leaf(n: int, entries) -> Leaf:
    """The matrix [[a, b], [c, d]] from its entries (a, b, c, d) as a ``Leaf``.

    Each entry is a sequence of (exponent, coefficient row) pairs, a row
    holding one signed integer per label; terms on one exponent add, and
    zero coefficients are dropped.
    """
    merged = []
    for entry in entries:
        acc: dict[tuple[int, int], int] = {}
        for e, row in entry:
            for a, c in enumerate(row):
                if c:
                    acc[a, e] = acc.get((a, e), 0) + c
        merged.append({key: c for key, c in acc.items() if c})
    table = _delta_table(n)
    masses = [_log2_mass(table, [(a, c) for (a, _), c in acc.items()]) for acc in merged]
    top = max(masses)
    if top == -math.inf:
        bound = (0.0, 0.0, 0.0, 0.0, 0.0)
    else:
        bound = (*(max(2.0 ** (m - top), _TINY) if m > -math.inf else 0.0 for m in masses), top)
    lo = min((e for acc in merged for _, e in acc), default=0)
    span = max((e - lo for acc in merged for _, e in acc), default=0) + 1
    fit = (max((abs(c).bit_length() for acc in merged for c in acc.values()), default=0) + 8) // 8
    node = _Node(fit, fit, span, tuple(_pack(acc, lo, fit, span) for acc in merged))
    return Leaf(lo, bound, node)


def _log2_mass(table, pairs) -> float:
    """log2 of sum |c| Delta_a over the (label, coefficient) pairs, or -inf if none.

    Coefficients past the float range are cut to their top 64 bits,
    rounded up, so the result stays an upper bound.
    """
    top = max((abs(c).bit_length() for _, c in pairs), default=0)
    if not top:
        return -math.inf
    cut = max(0, top - 64)
    mass = sum(((abs(c) >> cut) + (cut > 0)) * table[a] for a, c in pairs)
    return math.log2(mass) + cut


def _bound_mul(x: Bound, y: Bound) -> Bound:
    """x y for PF-mass bounds, divided by its largest entry, the scales adding in log2.

    A positive entry is kept at least ``_TINY``: raising an entry keeps
    an upper bound an upper bound, and no product of positive entries
    underflows to zero.
    """
    p, q, r, s, lx = x
    a, b, c, d, ly = y
    a, b, c, d = p * a + q * c, p * b + q * d, r * a + s * c, r * b + s * d
    big = max(a, b, c, d)
    if not big:
        return (0.0, 0.0, 0.0, 0.0, 0.0)
    return (
        a and max(a / big, _TINY),
        b and max(b / big, _TINY),
        c and max(c / big, _TINY),
        d and max(d / big, _TINY),
        lx + ly + math.log2(big),
    )


def _power(mul, x, k: int):
    """x^k for k >= 1 by repeated squaring; ``mul(x, y)`` is the product x y."""
    out = None
    while True:
        if k & 1:
            out = x if out is None else mul(x, out)
        k >>= 1
        if not k:
            return out
        x = mul(x, x)


_FLIP = bytes(b ^ 0x80 for b in range(256))  # toggles a byte's top bit
_SIGN = bytes(0xFF if b & 0x80 else 0 for b in range(256))  # a byte's top bit, spread over it
_CARRY = bytes(b >> 7 for b in range(256))  # a byte's top bit, as 0 or 1


def _half_slots(size: int, k: int) -> bytes:
    """k slots of ``size`` bytes, each holding half a slot: the biased form of zero."""
    return (bytes(size - 1) + b"\x80") * k


def _pack(terms: dict[tuple[int, int], int], lo: int, size: int, k: int) -> dict[int, bytes]:
    """{(label, exponent): coefficient} as label -> k biased slots of ``size`` bytes, from s^lo."""
    half = 1 << (8 * size - 1)
    out: dict[int, bytearray] = {}
    for (a, e), c in terms.items():
        buf = out.get(a)
        if buf is None:
            buf = out[a] = bytearray(_half_slots(size, k))
        i = (e - lo) * size
        buf[i : i + size] = (c + half).to_bytes(size, "little")
    return out


def _biased(v: int, size: int) -> bytes:
    """The packed int v as biased slots of ``size`` bytes, in O(slots).

    Every balanced digit lies in [-2^(8 size - 1), 2^(8 size - 1)), so
    adding half a slot to each slot makes them all nonnegative, and one
    ``to_bytes`` hands back every slot.
    """
    k = abs(v).bit_length() // (8 * size) + 1  # the top nonzero digit sits below slot k
    return (v + int.from_bytes(_half_slots(size, k), "little")).to_bytes(k * size, "little")


def _column(buf: bytes, size: int, j: int) -> bytes:
    """Byte j of every slot in two's complement; the bias only toggles the top byte's top bit."""
    col = buf[j::size]
    return col if j < size - 1 else col.translate(_FLIP)


def _fit(buf: bytes, size: int) -> int:
    """The fewest bytes holding every coefficient of a packed entry in two's complement.

    A top byte can go when, in every slot, it only repeats the sign and
    the byte below carries the same sign bit.
    """
    sign = _column(buf, size, size - 1).translate(_SIGN)
    fit = size
    while (
        fit > 1
        and _column(buf, size, fit - 1) == sign
        and _column(buf, size, fit - 2).translate(_SIGN) == sign
    ):
        fit -= 1
    return fit


def _repack(buf: bytes, size: int, fit: int, wide: int) -> int:
    """A packed entry as its polynomial evaluated at s = 2^(8 wide), for any wide >= fit.

    The low ``fit`` bytes of each slot are copied, column by column, into
    slots of ``wide`` bytes, which holds each coefficient modulo
    2^(8 fit); then 2^(8 fit) is taken back off every negative one.
    """
    k = len(buf) // size
    out, neg = bytearray(k * wide), bytearray(k * wide)
    for j in range(fit):
        out[j::wide] = _column(buf, size, j)
    neg[::wide] = out[fit - 1 :: wide].translate(_CARRY)
    return int.from_bytes(out, "little") - (int.from_bytes(neg, "little") << (8 * fit))


def _packed_mul(table, x, y):
    """2x2 product x y of matrices whose entries are label -> packed int.

    Each entry is x_i1 y_1j + x_i2 y_2j: one big-int multiply per label
    pair, added into every label the pair fuses to.
    """
    a, b, c, d = x
    p, q, r, s = y
    out = []
    for pairs in (((a, p), (b, r)), ((a, q), (b, s)), ((c, p), (d, r)), ((c, q), (d, s))):
        acc: dict[int, int] = {}
        get = acc.get
        for u, v in pairs:
            if u and v:
                for la, xa in u.items():
                    by_b = table[la]
                    for lb, yb in v.items():
                        m = xa * yb
                        for lc in by_b[lb]:
                            acc[lc] = get(lc, 0) + m
        out.append(acc)
    return tuple(out)


def _node_mul(table, x: _Node, y: _Node) -> _Node:
    """x y at the slot size that the children's measured coefficients call for.

    A coefficient of x y sums at most 2 (n-1)^2 min(span) products of one
    coefficient of each child, each at most 2^(8 fit - 1) in absolute
    value; the slot size keeps that sum below half a slot, so every
    balanced digit of a product int is a coefficient.  The product's own
    fit is then read off its slots.
    """
    count = 2 * len(table) ** 2 * min(x.span, y.span)
    size = x.fit + y.fit + (count.bit_length() + 6) // 8
    xs, ys = (
        tuple({a: _repack(buf, m.size, m.fit, size) for a, buf in e.items()} for e in m.entries)
        for m in (x, y)
    )
    product = _packed_mul(table, xs, ys)
    entries = tuple({a: _biased(v, size) for a, v in entry.items() if v} for entry in product)
    fit = max((_fit(buf, size) for entry in entries for buf in entry.values()), default=1)
    return _Node(size, fit, _span(product, size), entries)


def _span(product, size: int) -> int:
    """The slots from the lowest to the highest nonzero coefficient of packed entries, at least 1.

    Every coefficient is below half a slot in absolute value, so a packed
    int whose top nonzero coefficient sits in slot t has a bit length in
    [8 size t, 8 size (t + 1)); one whose lowest sits in slot t is
    divisible by 2^(8 size t) and has a nonzero bit in that slot.
    """
    ints = [v for entry in product for v in entry.values() if v]
    if not ints:
        return 1
    w = 8 * size
    high = max(abs(v).bit_length() for v in ints) // w
    low = min((v & -v).bit_length() - 1 for v in ints) // w
    return high - low + 1


_BLOCK = 1024  # slots compared at once when reading: a zero block costs one comparison
_LITTLE = sys.byteorder == "little"
_CAST = {struct.calcsize(c): c for c in "bhilq"}  # a signed C int format per width: 1, 2, 4, 8


def _signed(buf: bytes, size: int):
    """The biased slots of ``buf`` as a sequence of signed ints, one per slot.

    The bias only toggles each slot's top bit, so flipping it back gives
    two's complement.  Slots of at most 8 bytes are copied column by
    column into C ints of 1, 2, 4 or 8 bytes in the host's byte order,
    the top column's sign spread over the added bytes, and read through
    one ``memoryview.cast``; wider slots are read one ``int.from_bytes``
    each.
    """
    if size > 8:
        half, end = 1 << (8 * size - 1), len(buf)
        slots = map(buf.__getitem__, map(slice, range(0, end, size), range(size, end + size, size)))
        return list(map(int.__sub__, map(int.from_bytes, slots, repeat("little")), repeat(half)))
    wide = 1 << (size - 1).bit_length()
    if wide == size and _LITTLE:
        out = bytearray(buf)
        out[size - 1 :: size] = out[size - 1 :: size].translate(_FLIP)
    else:
        out = bytearray(len(buf) // size * wide)
        top = _column(buf, size, size - 1)
        columns = [_column(buf, size, j) for j in range(size - 1)] + [top]
        columns += [top.translate(_SIGN)] * (wide - size)
        for j, col in enumerate(columns):
            out[j if _LITTLE else wide - 1 - j :: wide] = col
    return memoryview(out).cast(_CAST[wide])


def _read_terms(n: int, lo: int, size: int, entry: dict[int, bytes]) -> Terms:
    """A packed entry as its nonzero terms (exponent, coefficient row), exponents ascending from s^lo.

    All labels' slots go into one buffer, read in one pass (``_signed``)
    and transposed into rows by ``zip``; a block of slots that is zero on
    every label is left out first, so sparse entries with far-apart
    exponents cost their terms, not their span.
    """
    if not entry:
        return ()
    k = max(map(len, entry.values())) // size
    bufs = [buf + _half_slots(size, k - len(buf) // size) for buf in entry.values()]
    exps: Iterable[int] = range(lo, lo + k)
    if k > _BLOCK:
        step, end = _BLOCK * size, k * size
        zero, blocks = _half_slots(size, _BLOCK), range(0, end, step)
        kept = [i for i in blocks if not all(zero.startswith(buf[i : i + step]) for buf in bufs)]
        if len(kept) < len(blocks):
            bufs = [b"".join(buf[i : i + step] for i in kept) for buf in bufs]
            exps = chain.from_iterable(range(lo + i // size, lo + min(i + step, end) // size) for i in kept)
    m = len(bufs[0]) // size
    ints = _signed(b"".join(bufs), size)
    cols: list = [repeat(0)] * (n - 1)
    for j, a in enumerate(entry):
        cols[a] = ints[j * m : (j + 1) * m]
    rows = list(zip(*cols))
    # a tuple of a list: tuple() of the iterator itself grows the tuple step
    # by step, and in a long run that left the heap fragmented (RSS rising)
    return tuple(list(compress(zip(exps, rows), map(any, rows))))


def _pairwise(mul, level: list):
    """The product of ``level`` in order, multiplying neighbours level by level."""
    while len(level) > 1:
        paired = [mul(level[i], level[i + 1]) for i in range(0, len(level) - 1, 2)]
        level = paired + level[len(paired) * 2 :]
    return level[0]


_ONE = (((0, (1,)),), (), (), ((0, (1,)),))  # the identity matrix, as leaf entries
_FIXED_MAX = 8  # bytes: the largest slot size one group of runs shares without measuring


def _slot_size(bound: Bound, fit: int) -> int:
    """Bytes per slot for a product under a PF-mass bound whose leaves fit ``fit`` bytes."""
    # every final |coefficient| is at most 2^scale; one bit more for the sign, one spare
    return max(math.ceil((max(0.0, bound[4]) + 2) / 8), fit)


def _groups(runs):
    """Consecutive runs as (group, slot size), each group as long as its size stays at most
    ``_FIXED_MAX``; a run whose power is past that alone is a group of its own."""
    group, bound, fit = [], (1.0, 0.0, 0.0, 1.0, 0.0), 1
    for lf, mult in runs:
        power = _power(_bound_mul, lf.bound, mult)
        joined, joined_fit = _bound_mul(bound, power), max(fit, lf.node.fit)
        if group and (joined[4] > 8 * _FIXED_MAX - 2 or joined_fit > _FIXED_MAX):
            yield group, _slot_size(bound, fit)
            group, joined, joined_fit = [], power, lf.node.fit
        group.append((lf, mult))
        bound, fit = joined, joined_fit
    yield group, _slot_size(bound, fit)


def _group_product(table, group, size: int) -> _Node:
    """The product of a group of runs from ``_groups``.

    Up to ``_FIXED_MAX`` bytes every product of the group is taken at the
    one slot size, on the leaves' cached copies, with nothing measured;
    past it the group is one run, and each of its squares is measured.
    """
    if size > _FIXED_MAX:
        ((lf, mult),) = group
        return _power(partial(_node_mul, table), lf.node, mult)
    mul = partial(_packed_mul, table)
    root = _pairwise(mul, [_power(mul, lf.fixed(size), mult) for lf, mult in group])
    entries = tuple({a: _biased(v, size) for a, v in entry.items() if v} for entry in root)
    return _Node(size, size, _span(root, size), entries)


def product_tree(n: int, runs) -> tuple[Terms, Terms, Terms, Terms]:
    """Product of 2x2 matrices given as runs (leaf, mult), as the four entries' ``Terms``.

    The product is L_0^m_0 L_1^m_1 ..., each L a ``Leaf`` and each
    m >= 1; the empty product is the identity.  Each run is raised to its
    power by repeated squaring, and products are taken pairwise, level by
    level.  The leaves' PF-mass bounds split the runs into groups whose
    product fits slots of at most ``_FIXED_MAX`` bytes; a group is
    multiplied at its one slot size, and the group products meet in a
    tree where each product picks its size from its children's measured
    coefficients (``_node_mul``): signed (Burau) entries cancel, and a
    bound fixed in advance does not see that.  Each entry comes back as
    its nonzero terms (exponent, coefficient row) in ascending exponent
    order, the form ``LaurentTerms`` takes.
    """
    table = _fusion_table(n)
    runs = list(runs) or [(leaf(n, _ONE), 1)]
    nodes = [_group_product(table, group, size) for group, size in _groups(runs)]
    root = _pairwise(partial(_node_mul, table), nodes)
    lo = sum(lf.lo * mult for lf, mult in runs)
    return tuple(_read_terms(n, lo, root.size, entry) for entry in root.entries)


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
    terms = _entry_product(u.n, ((0, u.coeffs),), ((0, v.coeffs),))
    return FusionVec(u.n, terms[0][1]) if terms else FusionVec.zero(u.n)


def _pf_rows(n: int, rows: Iterable[tuple[int, ...]]) -> Iterator[float]:
    """The PF dimension sum(map(mul, row, Delta)) of each coefficient row, in C-level passes.

    A coefficient past the float range raises OverflowError when its
    row is read.
    """
    return map(sum, map(map, repeat(mul), rows, repeat(_delta_table(n))))


def pf_dim(n: int, v: FusionVec) -> float:
    """Ring homomorphism to R sending [Pi_a] to Delta_a(2 cos(pi/n))."""
    _check_n(n)
    if v.n != n:
        raise ValueError("mismatched fusion parameters")
    try:
        return next(_pf_rows(n, (v.coeffs,)))
    except OverflowError:  # a coefficient past the float range: so is the value
        return math.inf


@dataclass(frozen=True)
class LaurentTerms:
    """A Laurent polynomial with fusion-ring coefficients, held as the kernel's ``Terms``.

    ``terms`` are (exponent, coefficient row) pairs, a row being a tuple
    of n - 1 ints, one per label; the empty tuple is zero.  The
    constructor checks the canonical form in bulk passes (exponents
    ascending and distinct, rows tuples of n - 1 ints, no zero row, and
    no negative coefficient unless ``SIGNED``), so equal polynomials have
    equal terms.  The two kinds are subclasses that fix the variable's
    JSON key ``KEY`` and ``SIGNED``: ``MassPoly`` (s, nonnegative) and
    ``braidword.QLaurent`` (q, signed).
    """

    KEY: ClassVar[str]
    SIGNED: ClassVar[bool]

    n: int
    terms: Terms

    def __post_init__(self):
        _check_n(self.n)
        if not self.terms:
            return
        # two lists, not zip(*terms): that passes each term as an argument
        exps, rows = list(map(itemgetter(0), self.terms)), list(map(itemgetter(1), self.terms))
        if not all(map(lt, exps, exps[1:])):
            raise ValueError("terms must be sorted by exponent and distinct")
        if not all(map(isinstance, rows, repeat(tuple))) or set(map(len, rows)) != {self.n - 1}:
            raise ValueError(f"expected a tuple of {self.n - 1} coefficients for n={self.n}")
        if not all(map(any, rows)):
            raise ValueError("zero coefficient must not be stored")
        if not self.SIGNED:
            check_nonnegative(rows)

    @classmethod
    def zero(cls, n: int):
        return cls(n, ())

    @classmethod
    def from_dict(cls, n: int, d: dict[int, tuple[int, ...]]):
        """From exponent -> coefficient row; zero rows are dropped."""
        return cls(n, tuple(sorted((e, v) for e, v in d.items() if any(v))))

    def is_zero(self) -> bool:
        return not self.terms

    def to_json(self) -> list[dict]:
        return [{self.KEY: e, "coeffs": list(v)} for e, v in self.terms]


class MassPoly(LaurentTerms):
    """Laurent polynomial in s = e^t with nonnegative fusion-ring coefficients.

    Evaluation at any real t is nonnegative and vanishes only for the
    zero polynomial.
    """

    KEY = "e"
    SIGNED = False

    @classmethod
    def monomial(cls, n: int, a: int, e: int = 0, mult: int = 1) -> MassPoly:
        """mult * [Pi_a] * s^e"""
        return cls.from_dict(n, {e: FusionVec.simple(n, a).scaled(mult).coeffs})

    @classmethod
    def one(cls, n: int) -> MassPoly:
        return cls.monomial(n, 0)

    def __add__(self, other: MassPoly) -> MassPoly:
        if self.n != other.n:
            raise ValueError("mismatched fusion parameters")
        acc = dict(self.terms)
        for e, v in other.terms:
            acc[e] = tuple(map(add, acc[e], v)) if e in acc else v
        return MassPoly.from_dict(self.n, acc)

    def shifted(self, e: int) -> MassPoly:
        """Multiply by s^e."""
        return MassPoly(self.n, tuple((k + e, v) for k, v in self.terms))

    def fold(self) -> MassPoly:
        """Fold every coefficient; see :meth:`FusionVec.fold`."""
        return MassPoly.from_dict(self.n, {e: _folded(self.n, v) for e, v in self.terms})

    @classmethod
    def from_json(cls, n: int, data: list[dict]) -> MassPoly:
        return cls.from_dict(n, {int(t["e"]): tuple(t["coeffs"]) for t in data})


def mass_mul(p: MassPoly, q: MassPoly) -> MassPoly:
    """Product of mass polynomials; exponents add, coefficients fuse."""
    if p.n != q.n:
        raise ValueError("mismatched fusion parameters")
    return MassPoly(p.n, _entry_product(p.n, p.terms, q.terms))


def _entry_product(n: int, x, y) -> Terms:
    """x y for entries given as (exponent, row) pairs, as ``Terms``.

    It is entry a of [[x, 0], [0, 0]] [[y, 0], [0, 0]]: one kernel serves
    every product.
    """
    return product_tree(n, [(leaf(n, (entry, (), (), ())), 1) for entry in (x, y)])[0]


def eval_mass(p: MassPoly, t: float) -> float:
    """Evaluate at s = e^t; the result is >= 0, and 0 only for the zero polynomial.

    The rows' PF dimensions (``_pf_rows``) times e^(e t), summed in
    exponent order, in C-level passes.  A coefficient or an e^(e t) past
    the float range (as at large |t|) makes the value inf.  At t = 0
    every e^(e t) is 1.0, so the value is the plain sum of the rows' PF
    dimensions, bit for bit.
    """
    terms = p.terms
    weights = map(math.exp, map(mul, map(itemgetter(0), terms), repeat(t)))
    try:
        return sum(map(mul, _pf_rows(p.n, map(itemgetter(1), terms)), weights))
    except OverflowError:
        return math.inf
