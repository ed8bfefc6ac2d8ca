import math
import random
import re
from functools import lru_cache, partial

import pytest
from hypothesis import given, settings, strategies as st

from braiddyn import fusion
from braiddyn.fusion import (
    FusionVec,
    MassPoly,
    chebyshev,
    delta_value,
    eval_mass,
    fuse,
    mass_mul,
    pf_dim,
    leaf,
    product_tree,
    ring_mul,
)

from kernel_oracle import sparse_matrix, sparse_product

GOLDEN = (1 + math.sqrt(5)) / 2


# --- independent polynomial oracle -----------------------------------------
# Everything below works on plain integer coefficient lists so that it shares
# no code with the FusionVec arithmetic it checks.


def cheb_poly(k):
    if k == 0:
        return [1]
    if k == 1:
        return [0, 1]
    a, b = [1], [0, 1]
    for _ in range(k - 1):
        nxt = [0] + b
        nxt = [c - (a[i] if i < len(a) else 0) for i, c in enumerate(nxt)]
        a, b = b, nxt
    return b


def poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def poly_rem(p, mod):
    p = list(p)
    while len(p) >= len(mod):
        lead = p[-1]
        if lead:
            shift = len(p) - len(mod)
            for i, c in enumerate(mod):
                p[shift + i] -= lead * c
        while p and p[-1] == 0:
            p.pop()
        if not p:
            break
    return p


def to_delta_basis(p, n):
    """Greedy expansion of a degree <= n-2 polynomial in Delta_0..Delta_{n-2}."""
    p = list(p) + [0] * (n - 1 - len(p))
    coeffs = [0] * (n - 1)
    for deg in range(n - 2, -1, -1):
        c = p[deg]
        if c:
            coeffs[deg] = c
            for i, b in enumerate(cheb_poly(deg)):
                p[i] -= c * b
    assert all(c == 0 for c in p)
    return coeffs


def fuse_oracle(n, a, b):
    prod = poly_mul(cheb_poly(a), cheb_poly(b))
    rem = poly_rem(prod, cheb_poly(n - 1))
    rem = rem + [0] * (n - 1 - len(rem))
    return tuple(to_delta_basis(rem, n))


# --- chebyshev ---------------------------------------------------------------


def test_chebyshev_base_cases():
    assert chebyshev(0) == (1,)
    assert chebyshev(1) == (0, 1)
    assert chebyshev(2) == (-1, 0, 1)  # d^2 - 1


def test_chebyshev_vanishes_at_quantum_root():
    d = 2 * math.cos(math.pi / 5)
    value = sum(c * d**i for i, c in enumerate(chebyshev(4)))
    assert abs(value) < 1e-12


def test_chebyshev_rejects_negative():
    with pytest.raises(ValueError):
        chebyshev(-1)


# --- pf_dim ------------------------------------------------------------------


def test_pf_dim_golden_ratio():
    assert pf_dim(5, FusionVec.simple(5, 1)) == pytest.approx(GOLDEN, abs=1e-10)


def test_pf_dim_unit_class():
    for n in range(3, 10):
        assert pf_dim(n, FusionVec.unit(n)) == 1.0


def test_pf_dim_sqrt2():
    assert pf_dim(4, FusionVec.simple(4, 1)) == pytest.approx(math.sqrt(2), abs=1e-12)


def test_pf_dim_rejects_small_n():
    with pytest.raises(ValueError):
        delta_value(2, 0)


def test_pf_dim_label_symmetry():
    for n in range(3, 13):
        for k in range(n - 1):
            assert pf_dim(n, FusionVec.simple(n, k)) == pytest.approx(
                pf_dim(n, FusionVec.simple(n, n - 2 - k)), abs=1e-9
            )


# --- fuse / ring_mul ---------------------------------------------------------


def test_fuse_examples():
    assert fuse(5, 1, 1).coeffs == (1, 0, 1, 0)  # Pi_0 + Pi_2
    for n in range(3, 9):
        for b in range(n - 1):
            assert fuse(n, 0, b) == FusionVec.simple(n, b)
            assert fuse(n, n - 2, b) == FusionVec.simple(n, n - 2 - b)


def test_fuse_rejects_out_of_range():
    with pytest.raises(ValueError):
        fuse(5, 4, 0)


def test_ring_mul_examples():
    d = FusionVec.simple(5, 1)
    assert ring_mul(d, d).coeffs == (1, 0, 1, 0)
    # derived via the polynomial oracle: Pi_2 * Pi_3 in n=7
    prod = ring_mul(FusionVec.simple(7, 2), FusionVec.simple(7, 3))
    assert prod.coeffs == (0, 1, 0, 1, 0, 1)
    assert prod.coeffs == fuse_oracle(7, 2, 3)


def test_ring_mul_rejects_mismatched_n():
    with pytest.raises(ValueError):
        ring_mul(FusionVec.unit(5), FusionVec.unit(6))


def test_fuse_matches_polynomial_oracle_everywhere():
    for n in range(3, 13):
        for a in range(n - 1):
            for b in range(n - 1):
                assert fuse(n, a, b).coeffs == fuse_oracle(n, a, b), (n, a, b)


@st.composite
def fusion_vec(draw, n):
    coeffs = draw(
        st.lists(st.integers(0, 3), min_size=n - 1, max_size=n - 1).map(tuple)
    )
    return FusionVec(n, coeffs)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pf_dim_is_ring_homomorphism(data):
    n = data.draw(st.integers(3, 12))
    u = data.draw(fusion_vec(n))
    v = data.draw(fusion_vec(n))
    assert pf_dim(n, ring_mul(u, v)) == pytest.approx(
        pf_dim(n, u) * pf_dim(n, v), abs=1e-9
    )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_fuse_symmetry(data):
    n = data.draw(st.integers(3, 12))
    a = data.draw(st.integers(0, n - 2))
    b = data.draw(st.integers(0, n - 2))
    assert fuse(n, a, b) == fuse(n, b, a)


# --- MassPoly ----------------------------------------------------------------


def test_mass_mul_exponents_add():
    p = MassPoly.monomial(5, 1, -1)  # [Pi_1] s^-1
    prod = mass_mul(p, p)
    assert prod == MassPoly.from_dict(5, {-2: (1, 0, 1, 0)})


def test_eval_mass_examples():
    assert eval_mass(MassPoly.zero(5), 0.7) == 0.0
    assert eval_mass(MassPoly.monomial(5, 0, 1), 0.0) == 1.0
    # delta * (s^-1 + delta s^-2) at t=0 equals delta + delta^2 = 2 delta + 1
    d = MassPoly.monomial(5, 1, 0)
    p = mass_mul(d, MassPoly.monomial(5, 0, -1) + mass_mul(d, MassPoly.monomial(5, 0, -2)))
    assert eval_mass(p, 0.0) == pytest.approx(2 * GOLDEN + 1, abs=1e-9)


def test_eval_mass_nonnegative():
    p = MassPoly.from_dict(5, {-2: (1, 2, 0, 1), 3: FusionVec.unit(5).coeffs})
    for t in (-1.5, -0.3, 0.0, 0.4, 2.0):
        assert eval_mass(p, t) > 0


def test_mass_poly_zero_coefficients_rejected():
    with pytest.raises(ValueError):
        MassPoly(5, ((0, FusionVec.zero(5).coeffs),))


def test_fusion_vec_rejects_negative():
    with pytest.raises(ValueError):
        FusionVec(5, (1, -1, 0, 0))


UNIT5 = FusionVec.unit(5).coeffs
UNSORTED = "terms must be sorted by exponent and distinct"
ROW_LENGTH = "expected a tuple of 4 coefficients for n=5"


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: FusionVec(5, (1, 0, 0)), "expected 4 coefficients for n=5, got 3"),
        (lambda: FusionVec(5, (1, 0, 0, 0, 0)), "expected 4 coefficients for n=5, got 5"),
        (lambda: FusionVec(5, (1, 0, 0, -1)), "fusion coefficients must be nonnegative"),
        (lambda: FusionVec(2, (1,)), "rank-two fusion data needs n >= 3, got n=2"),
        (lambda: MassPoly(2, ()), "rank-two fusion data needs n >= 3, got n=2"),
        (lambda: MassPoly(5, ((1, UNIT5), (0, UNIT5))), UNSORTED),
        (lambda: MassPoly(5, ((0, UNIT5), (2, UNIT5), (2, UNIT5))), UNSORTED),
        (lambda: MassPoly(5, ((0, UNIT5), (1, FusionVec.zero(5).coeffs))), "zero coefficient must not be stored"),
        # a row carries no n of its own: one of n=6 is a row of the wrong length,
        # and two n meet only in arithmetic
        (lambda: MassPoly(5, ((0, UNIT5), (1, FusionVec.unit(6).coeffs))), ROW_LENGTH),
        (lambda: MassPoly.one(5) + MassPoly.one(6), "mismatched fusion parameters"),
        (lambda: MassPoly(5, ((0, (1, 0, 0, 0)), (0, (0, 1, 0, 0)))), UNSORTED),
        (lambda: MassPoly(5, ((0, (1, 0, 0, 0)), (1, (0, 0, 1)))), ROW_LENGTH),
        (lambda: MassPoly(5, ((0, (1, 0, 0, 0)), (1, (0, -2, 1, 0)))), "fusion coefficients must be nonnegative"),
        (lambda: MassPoly(5, ((0, (1, 0, 0, 0)), (1, (0, 0, 0, 0)))), "zero coefficient must not be stored"),
        (lambda: fusion.check_nonnegative([(1, 2), (0, -1)]), "fusion coefficients must be nonnegative"),
    ],
)
def test_constructors_reject_with_their_messages(make, message):
    # the checks run in bulk; a defect in a later term is found as in the first
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


def expected_rejection(n, terms, signed):
    """The message a canonical-form checker gives for ``terms``, None if they are canonical."""
    exps = [e for e, _ in terms]
    if any(a >= b for a, b in zip(exps, exps[1:])):
        return UNSORTED
    if any(not isinstance(row, tuple) or len(row) != n - 1 for _, row in terms):
        return f"expected a tuple of {n - 1} coefficients for n={n}"
    if not all(any(row) for _, row in terms):
        return "zero coefficient must not be stored"
    if not signed and any(c < 0 for _, row in terms for c in row):
        return "fusion coefficients must be nonnegative"
    return None


def rejection(kind, n, terms):
    try:
        kind(n, terms)
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_both_kinds_reject_malformed_terms_with_one_checker(data):
    # unsorted or repeated exponents, a row of the wrong length, a row that is
    # not a tuple and a zero row, alone or together, anywhere in the terms:
    # MassPoly and QLaurent give the same message; only MassPoly rejects a
    # negative coefficient
    from braiddyn.braidword import QLaurent

    n = data.draw(st.integers(3, 8))
    low = data.draw(st.sampled_from((-3, 0)))
    row = st.lists(st.integers(low, 3), min_size=n - 1, max_size=n - 1).filter(any).map(tuple)
    exps = sorted(data.draw(st.sets(st.integers(-5, 5), min_size=1, max_size=5)))
    terms = [(e, data.draw(row)) for e in exps]
    for defect in data.draw(st.lists(st.sampled_from(("swap", "repeat", "length", "list", "zero")), max_size=2)):
        i = data.draw(st.integers(0, len(terms) - 1))
        e, r = terms[i]
        if defect == "swap" and i + 1 < len(terms):
            terms[i], terms[i + 1] = terms[i + 1], terms[i]
        elif defect == "repeat":
            terms.insert(i + 1, (e, data.draw(row)))
        elif defect == "length":
            terms[i] = (e, tuple(r) + (1,) if data.draw(st.booleans()) else tuple(r)[:-1])
        elif defect == "list":
            terms[i] = (e, list(r))
        elif defect == "zero":
            terms[i] = (e, (0,) * (n - 1))
    terms = tuple(terms)
    assert rejection(MassPoly, n, terms) == expected_rejection(n, terms, signed=False)
    assert rejection(QLaurent, n, terms) == expected_rejection(n, terms, signed=True)
    if expected_rejection(n, terms, signed=True) is not None:
        assert rejection(MassPoly, n, terms) == rejection(QLaurent, n, terms)


def test_mass_poly_json_round_trip():
    p = MassPoly.from_dict(6, {-1: (1, 0, 2, 0, 1), 4: FusionVec.unit(6).coeffs})
    assert MassPoly.from_json(6, p.to_json()) == p
    assert p.to_json() == [
        {"e": -1, "coeffs": [1, 0, 2, 0, 1]},
        {"e": 4, "coeffs": [1, 0, 0, 0, 0]},
    ]


def test_fold_preserves_dimension_and_multiplies():
    for n in (4, 5, 6, 7):
        u = FusionVec(n, tuple(range(1, n)))
        assert pf_dim(n, u.fold()) == pytest.approx(pf_dim(n, u), abs=1e-9)
        v = FusionVec.simple(n, n - 2)
        assert ring_mul(u, v).fold() == u.fold()


# --- differential tests of the shared product kernel ---------------------------
# The reference multiplies plain lists through the polynomial oracle above; it
# shares no code with the structure-constant table.


@lru_cache(maxsize=None)
def oracle_table(n):
    return [[fuse_oracle(n, a, b) for b in range(n - 1)] for a in range(n - 1)]


def oracle_row_mul(n, u, v):
    out = [0] * (n - 1)
    table = oracle_table(n)
    for a, ca in enumerate(u):
        for b, cb in enumerate(v):
            for c, m in enumerate(table[a][b]):
                out[c] += ca * cb * m
    return out


def oracle_laurent_dot(n, pairs):
    """Sum of x * y over pairs of {exponent: row} dicts; zero rows dropped."""
    acc = {}
    for x, y in pairs:
        for e1, u in x.items():
            for e2, v in y.items():
                row = acc.setdefault(e1 + e2, [0] * (n - 1))
                for c, m in enumerate(oracle_row_mul(n, u, v)):
                    row[c] += m
    return {e: tuple(row) for e, row in acc.items() if any(row)}


def as_dict(p):
    return dict(p.terms)


@st.composite
def mass_poly(draw, n):
    terms = draw(
        st.dictionaries(
            st.integers(-4, 4),
            st.lists(st.integers(0, 5), min_size=n - 1, max_size=n - 1),
            max_size=4,
        )
    )
    return MassPoly.from_dict(n, {e: FusionVec(n, tuple(c)).coeffs for e, c in terms.items()})


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_ring_mul_matches_oracle(data):
    n = data.draw(st.integers(3, 12))
    u = data.draw(fusion_vec(n))
    v = data.draw(fusion_vec(n))
    assert list(ring_mul(u, v).coeffs) == oracle_row_mul(n, u.coeffs, v.coeffs)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mass_mul_and_fused_entry_match_oracle(data):
    n = data.draw(st.integers(3, 12))
    a, b, c, d = (data.draw(mass_poly(n)) for _ in range(4))
    assert as_dict(mass_mul(a, b)) == oracle_laurent_dot(n, [(as_dict(a), as_dict(b))])
    want = oracle_laurent_dot(n, [(as_dict(a), as_dict(b)), (as_dict(c), as_dict(d))])
    # one entry of a 2x2 product is the fused a*b + c*d, in one accumulation
    zero = MassPoly.zero(n)
    x, y = (
        leaf(n, [p.terms for p in mat])
        for mat in ((a, c, zero, zero), (b, zero, d, zero))
    )
    assert as_dict(MassPoly(n, product_tree(n, [(x, 1), (y, 1)])[0])) == want


def test_negative_coefficient_from_a_product_is_rejected():
    # a FusionVec planted with a negative coefficient, bypassing its check,
    # must not survive a product: results go through the checking constructor
    bad = object.__new__(FusionVec)
    object.__setattr__(bad, "n", 5)
    object.__setattr__(bad, "coeffs", (0, -1, 0, 0))
    with pytest.raises(ValueError, match="nonnegative"):
        ring_mul(bad, FusionVec.simple(5, 1))
    planted = object.__new__(MassPoly)
    object.__setattr__(planted, "n", 5)
    object.__setattr__(planted, "terms", ((1, bad.coeffs),))
    with pytest.raises(ValueError, match="nonnegative"):
        mass_mul(planted, MassPoly.monomial(5, 2, -1))


def test_pf_dim_past_the_floats_is_infinite():
    # a coefficient past 2^1024 has no float value; the homomorphism says so
    assert pf_dim(5, FusionVec(5, (0, 2**1100, 0, 0))) == math.inf
    assert eval_mass(MassPoly.monomial(5, 1, 0, 2**1100), 0.0) == math.inf


def test_products_past_the_floats():
    # the slot width comes from float PF masses; coefficients past 2^1024 still fit
    u, v = FusionVec(5, (2**2000, 1, 0, 7)), FusionVec(5, (0, 2**1500 - 1, 3, 2**1100))
    assert list(ring_mul(u, v).coeffs) == oracle_row_mul(5, u.coeffs, v.coeffs)
    p, q = MassPoly.from_dict(5, {-1: u.coeffs, 2: v.coeffs}), MassPoly.from_dict(5, {0: v.coeffs, 3: u.coeffs})
    assert as_dict(mass_mul(p, q)) == oracle_laurent_dot(5, [(as_dict(p), as_dict(q))])


# --- the packed kernel against the term-by-term kernel ---------------------

# +-(2^k - 1) with k at a byte boundary: a coefficient that fills whole bytes
PLANTED = tuple(sign * (2**k - 1) for k in (8, 16, 32, 64) for sign in (1, -1))


def coefficients(signed):
    small = st.integers(-4, 4) if signed else st.integers(0, 4)
    planted = st.sampled_from(PLANTED if signed else PLANTED[::2])
    return st.one_of(small, small, planted).filter(bool)


@st.composite
def laurent_entry(draw, n, signed, max_terms=3, exponents=st.integers(-3, 3)):
    """(exponent, coefficient row) terms; the rows are sparse, the entry may be zero."""
    terms = draw(
        st.dictionaries(
            exponents,
            st.dictionaries(st.integers(0, n - 2), coefficients(signed), min_size=1, max_size=3),
            max_size=max_terms,
        )
    )
    return tuple(
        (e, tuple(row.get(a, 0) for a in range(n - 1))) for e, row in sorted(terms.items())
    )


@st.composite
def general_matrix(draw, n, signed):
    """Four entries of up to 3 terms each; one in eight matrices is all zero."""
    if draw(st.integers(0, 7)) == 0:
        return ((), (), (), ())
    return tuple(draw(laurent_entry(n, signed)) for _ in range(4))


@st.composite
def triangular_matrix(draw, n, signed):
    """[[x, y], [0, z]]: x and z are +-1 or +-2 times an invertible class [Pi_0] or
    [Pi_{n-2}] times a power of s (or zero), so a power's entries stay linear in
    its exponent and the term-by-term oracle stays fast."""

    def diagonal():
        if draw(st.integers(0, 5)) == 0:
            return ()
        row = [0] * (n - 1)
        scale = draw(st.sampled_from((1, 2, -1, -2) if signed else (1, 2)))
        row[draw(st.sampled_from((0, n - 2)))] = scale
        return ((draw(st.integers(-2, 2)), tuple(row)),)

    return diagonal(), draw(laurent_entry(n, signed, max_terms=2)), (), diagonal()


def kernel_rows(entries):
    """product_tree's entries as exponent -> row dicts, once their form is checked:
    tuples of (exponent, row tuple) terms, exponents ascending, no zero row."""
    for entry in entries:
        assert isinstance(entry, tuple)
        exps = [e for e, _ in entry]
        assert exps == sorted(set(exps))
        assert all(isinstance(row, tuple) and any(row) for _, row in entry)
    return tuple(dict(entry) for entry in entries)


def oracle_rows(rows):
    return tuple({e: tuple(row) for e, row in entry.items() if any(row)} for entry in rows)


def check_against_oracle(n, matrices, mults):
    runs = [(leaf(n, m), k) for m, k in zip(matrices, mults)]
    expanded = [sparse_matrix(m) for m, k in zip(matrices, mults) for _ in range(k)]
    assert kernel_rows(product_tree(n, runs)) == oracle_rows(sparse_product(n, expanded))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_packed_kernel_matches_sparse_oracle(data):
    # signed (Burau-like) and nonnegative (path-like) leaves, zero entries,
    # all-zero leaves and planted byte-filling coefficients, in runs of 1 to 3
    n = data.draw(st.integers(3, 16))
    signed = data.draw(st.booleans())
    matrices = data.draw(st.lists(general_matrix(n, signed), max_size=4))
    mults = [data.draw(st.sampled_from((1, 2, 3))) for _ in matrices]
    check_against_oracle(n, matrices, mults)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_packed_kernel_runs_match_sparse_oracle(data):
    # long runs raised by squaring, against the oracle's product of every copy
    n = data.draw(st.integers(3, 16))
    signed = data.draw(st.booleans())
    matrices = data.draw(st.lists(triangular_matrix(n, signed), min_size=1, max_size=3))
    mults = [data.draw(st.sampled_from((1, 2, 3, 64, 1000))) for _ in matrices]
    check_against_oracle(n, matrices, mults)


@pytest.mark.parametrize("n", [3, 4, 8, 16])
def test_packed_kernel_edge_products(n):
    identity = {0: (1,) + (0,) * (n - 2)}
    assert kernel_rows(product_tree(n, [])) == (identity, {}, {}, identity)
    zero = leaf(n, ((), (), (), ()))
    assert kernel_rows(product_tree(n, [(zero, 1000)])) == ({}, {}, {}, {})
    # a planted coefficient alone in its product fills its bytes exactly
    for c in PLANTED:
        one = ((0, (c,) + (0,) * (n - 2)),)
        check_against_oracle(n, [(one, (), (), one)], [1])
        check_against_oracle(n, [(one, one, (), one), (one, (), one, ())], [1, 2])
    # every coefficient at the largest size its bytes allow, on every label
    # and exponent: products reach the worst case their slot sizes allow
    for c in (-127, 2**71 - 1, -(2**71 - 1)):
        full = tuple((e, (c,) * (n - 1)) for e in range(3))
        check_against_oracle(n, [(full,) * 4, (full,) * 4], [1, 1])
        check_against_oracle(n, [(full, full, (), full)], [3])


# --- slot sizes read off the coefficients ----------------------------------


@st.composite
def packed_digits(draw):
    """Signed digits, planted ones at the edges of a byte, and a slot size that holds them."""
    edge = st.sampled_from([s * 2**k + d for k in (7, 15, 31) for s in (1, -1) for d in (-1, 0, 1)])
    digits = draw(st.lists(st.one_of(st.integers(-300, 300), edge), min_size=1, max_size=12))
    if not any(digits):
        digits[0] = 1
    fit = max(((d if d >= 0 else ~d).bit_length() + 8) // 8 for d in digits)
    return digits, fit, fit + draw(st.integers(0, 3))


@settings(max_examples=200, deadline=None)
@given(packed_digits(), st.integers(0, 3))
def test_fit_and_repack_read_the_slots(case, extra):
    # _fit is the fewest bytes holding every digit in two's complement
    # (-128 fits one byte, 128 needs two); _repack re-packs at any size
    # from fit up, as the polynomial evaluated at the new slot width
    digits, fit, size = case
    buf = fusion._pack({(0, e): d for e, d in enumerate(digits) if d}, 0, size, len(digits))[0]
    assert fusion._fit(buf, size) == fit
    wide = fit + extra
    want = sum(d << (8 * wide * e) for e, d in enumerate(digits))
    assert fusion._repack(buf, size, fit, wide) == want
    if fit > 1:  # one byte less would lose a digit
        assert fusion._repack(buf, size, fit - 1, wide) != want


def measured_root(n, runs):
    """product_tree's last product, as a packed node, for white-box checks of its slot size."""
    table = fusion._fusion_table(n)
    nodes = [fusion._group_product(table, group, size) for group, size in fusion._groups(runs)]
    return fusion._pairwise(partial(fusion._node_mul, table), nodes)


@pytest.mark.parametrize("n", [3, 5, 8])
def test_cancelling_products_keep_narrow_slots(n):
    # signed Burau entries cancel: s1 s1^-1 repeated, and gamma^(3k) at
    # n=3 (central), stay small however long the product, and each slot
    # follows them; a bound fixed in advance grows with the length
    from braiddyn.braidword import _generator_leaves

    g = _generator_leaves(n)
    identity = {0: (1,) + (0,) * (n - 2)}
    runs = [(g[1, 1], 1), (g[2, 1], 1), (g[2, -1], 1), (g[1, -1], 1)] * 500
    assert kernel_rows(product_tree(n, runs)) == (identity, {}, {}, identity)
    # bytes; the bound in advance needs hundreds.  Each product's span is
    # measured, so once the entries cancel to s^0 it counts one term per
    # coefficient (the span x.span + y.span - 1 gave 4, 4 and 6 bytes)
    root = measured_root(n, runs)
    assert root.size <= {3: 3, 5: 3, 8: 5}[n] and root.span == 1
    if n == 3:
        root = measured_root(3, [(g[2, 1], 1), (g[1, 1], 1)] * 3000)
        assert root.size <= 3 and root.fit == 1 and root.span == 1


@st.composite
def packed_entries(draw):
    """Up to four entries of packed ints, their nonzero (exponent -> coefficient), the slot size."""
    size = draw(st.integers(1, 3))
    half = 2 ** (8 * size - 1)
    small = min(300, half - 1)
    coeff = st.one_of(st.integers(-small, small), st.sampled_from([1 - half, half - 1]))
    entries, terms = [], {}
    for _ in range(draw(st.integers(1, 4))):
        entry = {}
        for label in range(draw(st.integers(0, 3))):
            digits = draw(st.dictionaries(st.integers(0, 60), coeff, max_size=6))
            entry[label] = sum(d << (8 * size * e) for e, d in digits.items())
            terms.update({e: d for e, d in digits.items() if d})
        entries.append(entry)
    return tuple(entries), terms, size


@settings(max_examples=300, deadline=None)
@given(packed_entries())
def test_span_is_the_width_of_the_nonzero_slots(case):
    # every coefficient below half a slot: the lowest and highest nonzero
    # slots are read off the ints' lowest set bit and bit length
    entries, terms, size = case
    want = max(terms) - min(terms) + 1 if terms else 1
    assert fusion._span(entries, size) == want


def test_mass_mul_of_a_long_operand():
    # packing and reading slots are linear in the operand's length
    n, rng = 5, random.Random(7)
    p = MassPoly.from_dict(n, {e: tuple(rng.randint(0, 9) for _ in range(n - 1)) for e in range(100_000)})
    q = MassPoly.from_dict(n, {-2: FusionVec.simple(n, 1).coeffs, 3: (2, 0, 0, 1)})
    want = oracle_laurent_dot(n, [(as_dict(p), as_dict(q))])
    assert as_dict(mass_mul(p, q)) == want
    # far-apart exponents: the slots between them are skipped block by block
    sparse = MassPoly.from_dict(n, {-5: FusionVec.simple(n, 2).coeffs, 300_000: (1, 0, 4, 0)})
    assert as_dict(mass_mul(sparse, q)) == oracle_laurent_dot(n, [(as_dict(sparse), as_dict(q))])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_read_terms_matches_a_slot_by_slot_reader(data):
    # slots of 1, 2, 4 and 8 bytes are cast, 3, 5, 6 and 7 widened first,
    # wider ones read one by one; labels are missing or of unequal lengths,
    # and entries longer than a block have zero blocks between their terms
    size = data.draw(st.integers(1, 12))
    n = data.draw(st.integers(3, 8))
    lo = data.draw(st.integers(-5000, 5000))
    half = 1 << (8 * size - 1)
    small = min(300, half - 1)
    coeff = st.one_of(st.integers(-small, small), st.sampled_from([-half, 1 - half, half - 1]))
    entry = {}
    for a in data.draw(st.sets(st.integers(0, n - 2))):
        digits = data.draw(st.dictionaries(st.integers(0, 3 * fusion._BLOCK), coeff, min_size=1, max_size=5))
        entry[a] = bytes(fusion._pack({(a, e): c for e, c in digits.items()}, 0, size, max(digits) + 1)[a])
    rows = {}
    for a, buf in entry.items():
        for i in range(len(buf) // size):
            digit = int.from_bytes(buf[i * size : (i + 1) * size], "little") - half
            if digit:
                rows.setdefault(lo + i, [0] * (n - 1))[a] = digit
    want = tuple((e, tuple(row)) for e, row in sorted(rows.items()))
    assert fusion._read_terms(n, lo, size, entry) == want


@pytest.mark.parametrize("size", [1, 3, 8, 9])
def test_far_apart_slots_are_read_past_the_zero_blocks(monkeypatch, size):
    # two nonzero slots 3 * 10^6 apart: the all-zero blocks between them are
    # left out before any slot is read, so a reader of every slot fails the count
    n, gap = 5, 3_000_000
    low = 1 - (1 << (8 * size - 1))
    packed = fusion._pack({(1, 0): 5, (3, gap): low}, 0, size, gap + 1)
    entry = {a: bytes(buf) for a, buf in packed.items()}
    read = []
    real = fusion._signed
    monkeypatch.setattr(fusion, "_signed", lambda buf, size: read.append(len(buf) // size) or real(buf, size))
    assert fusion._read_terms(n, -7, size, entry) == ((-7, (0, 5, 0, 0)), (gap - 7, (0, 0, 0, low)))
    assert 0 < sum(read) <= 2 * 2 * fusion._BLOCK  # two labels, at most two blocks each


@pytest.mark.parametrize("size", range(1, 9))
def test_signed_writes_the_hosts_byte_order(monkeypatch, size):
    # the slots come back as C ints of 1, 2, 4 or 8 bytes in the host's byte
    # order; _LITTLE = False runs the big-endian branch on any host
    half = 1 << (8 * size - 1)
    digits = [0, 1, -1, half - 1, -half, (half - 1) // 3, -(half // 5), 7]
    buf = bytes(fusion._pack({(0, e): d for e, d in enumerate(digits) if d}, 0, size, len(digits))[0])
    wide = 1 << (size - 1).bit_length()
    for little, order in ((True, "little"), (False, "big")):
        monkeypatch.setattr(fusion, "_LITTLE", little)
        got = fusion._signed(buf, size)
        assert bytes(got) == b"".join(d.to_bytes(wide, order, signed=True) for d in digits)
