import math
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from braiddyn.fusion import (
    FusionVec,
    MassPoly,
    chebyshev,
    delta_value,
    eval_mass,
    fuse,
    mass_mul,
    pf_dim,
    product_tree,
    ring_mul,
    sparse_entry,
)

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
    assert prod == MassPoly.from_dict(
        5, {-2: FusionVec(5, (1, 0, 1, 0))}
    )


def test_eval_mass_examples():
    assert eval_mass(MassPoly.zero(5), 0.7) == 0.0
    assert eval_mass(MassPoly.monomial(5, 0, 1), 0.0) == 1.0
    # delta * (s^-1 + delta s^-2) at t=0 equals delta + delta^2 = 2 delta + 1
    d = MassPoly.monomial(5, 1, 0)
    p = mass_mul(d, MassPoly.monomial(5, 0, -1) + mass_mul(d, MassPoly.monomial(5, 0, -2)))
    assert eval_mass(p, 0.0) == pytest.approx(2 * GOLDEN + 1, abs=1e-9)


def test_eval_mass_nonnegative():
    p = MassPoly.from_dict(5, {-2: FusionVec(5, (1, 2, 0, 1)), 3: FusionVec.unit(5)})
    for t in (-1.5, -0.3, 0.0, 0.4, 2.0):
        assert eval_mass(p, t) > 0


def test_mass_poly_zero_coefficients_rejected():
    with pytest.raises(ValueError):
        MassPoly(5, ((0, FusionVec.zero(5)),))


def test_fusion_vec_rejects_negative():
    with pytest.raises(ValueError):
        FusionVec(5, (1, -1, 0, 0))


def test_mass_poly_json_round_trip():
    p = MassPoly.from_dict(6, {-1: FusionVec(6, (1, 0, 2, 0, 1)), 4: FusionVec.unit(6)})
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
    return {e: v.coeffs for e, v in p.terms}


@st.composite
def mass_poly(draw, n):
    terms = draw(
        st.dictionaries(
            st.integers(-4, 4),
            st.lists(st.integers(0, 5), min_size=n - 1, max_size=n - 1),
            max_size=4,
        )
    )
    return MassPoly.from_dict(n, {e: FusionVec(n, tuple(c)) for e, c in terms.items()})


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
        tuple(sparse_entry((e, v.coeffs) for e, v in p.terms) for p in mat)
        for mat in ((a, c, zero, zero), (b, zero, d, zero))
    )
    assert as_dict(MassPoly.from_rows(n, product_tree(n, [x, y])[0])) == want


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
    object.__setattr__(planted, "terms", ((1, bad),))
    with pytest.raises(ValueError, match="nonnegative"):
        mass_mul(planted, MassPoly.monomial(5, 2, -1))
