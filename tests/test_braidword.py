import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from braiddyn.braidword import (
    BraidWord,
    QLaurent,
    TwistLetter,
    WordSyntaxError,
    burau,
    burau_equal,
    coxeter_matrix,
    forbidden_source,
    make_twist,
    pair_viable,
    parse_word,
    positive_roots,
    target_vertex,
    to_normal_form,
    twist_modulus,
)
from test_fusion import oracle_laurent_dot


# --- parsing -----------------------------------------------------------------


def test_parse_examples():
    assert parse_word("s1 s1 s2 s2", 5).letters == ((1, 1), (1, 1), (2, 1), (2, 1))
    assert parse_word("s1 s1^-1", 5).letters == ()
    assert parse_word("s2^-2 s1 s2", 4).letters == ((2, -1), (2, -1), (1, 1), (2, 1))


def test_parse_errors_carry_offsets():
    with pytest.raises(WordSyntaxError) as err:
        parse_word("s1 s3", 5)
    assert err.value.offset == 3
    with pytest.raises(WordSyntaxError) as err:
        parse_word("s1 s2^x", 5)
    assert err.value.offset == 3
    with pytest.raises(WordSyntaxError):
        parse_word("s2^0", 5)
    with pytest.raises(ValueError):
        parse_word("s1", 2)


def test_word_text_round_trip():
    w = parse_word("s2^-2 s1 s2^3", 6)
    assert parse_word(w.text(), 6) == w
    assert w.text() == "s2^-2 s1 s2^3"
    assert parse_word("s1^4", 5).text() == "s1^4"
    assert parse_word("s1^-3", 5).text() == "s1^-3"


def test_free_reduction_and_inverse():
    w = parse_word("s1 s2 s2^-1 s1^-1 s2", 5)
    assert w.letters == ((2, 1),)
    assert (w * w.inverse()).letters == ()


@pytest.mark.parametrize("text", ["s1", "s1 s2 s1^-1", "s2^-1 s1^2 s2", "s1^2 s2^-3 s1^-2", ""])
def test_power_equals_repeated_product(text):
    w = parse_word(text, 5)
    for e in range(-6, 7):
        base = w if e >= 0 else w.inverse()
        want = BraidWord.identity(5)
        for _ in range(abs(e)):
            want = want * base
        assert (w ** e).letters == want.letters, e


# --- Burau -------------------------------------------------------------------


def test_burau_generator_matrices():
    for n in range(3, 9):
        m = burau(BraidWord.generator(n, 1))
        # rho(s1) = [[-q^2, -[Pi_1] q], [0, 1]]
        assert m[0][0].terms == ((2, (-1,) + (0,) * (n - 2)),)
        assert m[0][1].terms == ((1, (0, -1) + (0,) * (n - 3)),)
        assert m[1][0].is_zero()
        assert m[1][1] == QLaurent.scalar(n, 1)
        m2 = burau(BraidWord.generator(n, 2))
        assert m2[0][0] == QLaurent.scalar(n, 1)
        assert m2[0][1].is_zero()
        assert m2[1][0].terms == ((1, (0, -1) + (0,) * (n - 3)),)
        assert m2[1][1].terms == ((2, (-1,) + (0,) * (n - 2)),)


def test_burau_identity_and_inverses():
    for n in (3, 4, 5):
        e = burau(BraidWord.identity(n))
        assert e[0][0] == QLaurent.scalar(n, 1) and e[1][1] == QLaurent.scalar(n, 1)
        for i in (1, 2):
            w = BraidWord.generator(n, i) * BraidWord.generator(n, i, -1)
            assert burau_equal(burau(w), e)


def test_braid_relation_symbolically():
    for n in range(3, 9):
        left = [(1, 1) if k % 2 == 0 else (2, 1) for k in range(n)]
        right = [(2, 1) if k % 2 == 0 else (1, 1) for k in range(n)]
        assert burau_equal(burau(BraidWord(n, tuple(left))), burau(BraidWord(n, tuple(right))))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_burau_is_a_homomorphism(data):
    n = data.draw(st.integers(3, 7))
    letters = st.tuples(st.sampled_from((1, 2)), st.sampled_from((1, -1)))
    u = BraidWord(n, tuple(data.draw(st.lists(letters, max_size=6))))
    v = BraidWord(n, tuple(data.draw(st.lists(letters, max_size=6))))
    from braiddyn.braidword import _mat_mul

    assert burau_equal(burau(u * v), _mat_mul(burau(u), burau(v)))


# --- Coxeter specialisation and roots ----------------------------------------


def test_coxeter_generator_matrix():
    for n in (3, 4, 5, 7):
        m = coxeter_matrix(BraidWord.generator(n, 1))
        d = 2 * math.cos(math.pi / n)
        assert np.allclose(m, [[-1.0, d], [0.0, 1.0]], atol=1e-12)


def test_coxeter_element_has_order_n():
    for n in range(3, 9):
        m = coxeter_matrix(BraidWord.gamma_power(n, n))
        assert np.allclose(m, np.eye(2), atol=1e-9)


def test_coxeter_s2_image_of_alpha1():
    m = coxeter_matrix(BraidWord.generator(4, 2))
    assert np.allclose(m @ np.array([1.0, 0.0]), [1.0, math.sqrt(2)], atol=1e-12)


def test_positive_roots():
    r5 = positive_roots(5)
    assert np.allclose(r5, np.exp(1j * np.pi * np.arange(5) / 5))
    for n in range(3, 9):
        assert np.allclose(np.abs(positive_roots(n)), 1.0, atol=1e-12)
    r3 = positive_roots(3)
    assert np.allclose(r3, [1, np.exp(1j * np.pi / 3), np.exp(2j * np.pi / 3)])


# --- normal form -------------------------------------------------------------


def test_normal_form_n5_positive_example():
    nf = to_normal_form(parse_word("s1 s1 s2 s2", 5))
    assert nf.gamma_exp == 0
    assert nf.blocks == (
        (TwistLetter(1, 3), 2),
        (TwistLetter(1, 0), 2),
    )


def test_normal_form_n5_long_example():
    nf = to_normal_form(parse_word("s2 s1 s2 s1^-1 s2 s1 s2^-1 s1 s2^3 s1", 5))
    # word order: twist1[4] twist1[3] twist1[1] twist1[0] twist1[3]^2 gamma
    assert nf.gamma_exp == 1
    assert nf.blocks == (
        (TwistLetter(1, 3), 2),
        (TwistLetter(1, 0), 1),
        (TwistLetter(1, 1), 1),
        (TwistLetter(1, 3), 1),
        (TwistLetter(1, 4), 1),
    )


def test_normal_form_n4_example():
    nf = to_normal_form(parse_word("s2^2 s1^3", 4))
    assert nf.gamma_exp == 1
    assert nf.blocks == ((TwistLetter(1, 1), 2), (TwistLetter(2, 0), 1))


def test_normal_form_preserves_group_element():
    rng = random.Random(11)
    for n in (3, 4, 5, 6):
        for _ in range(25):
            letters = tuple(
                (rng.choice((1, 2)), rng.choice((1, -1)))
                for _ in range(rng.randint(0, 10))
            )
            w = BraidWord(n, letters)
            nf = to_normal_form(w)
            assert burau_equal(burau(w), burau(nf.to_word())), (n, w.text())


def test_to_word_equals_piecewise_product():
    # to_word reduces the spelled-out blocks once; free reduction is
    # confluent, so it must equal multiplying the block words one by one
    rng = random.Random(29)
    for n in (3, 4, 5, 8):
        for _ in range(25):
            letters = tuple(
                (rng.choice((1, 2)), rng.choice((1, -1)))
                for _ in range(rng.randint(0, 30))
            )
            nf = to_normal_form(BraidWord(n, letters))
            want = BraidWord.gamma_power(n, nf.gamma_exp)
            for letter, mult in nf.blocks:
                g = BraidWord.gamma_power(n, letter.index)
                want = g * BraidWord.generator(n, letter.family) ** mult * g.inverse() * want
            assert nf.to_word() == want, (n, nf.text())


def test_normal_form_blocks_are_pair_viable():
    rng = random.Random(23)
    for n in (3, 4, 5, 6, 7):
        for _ in range(25):
            letters = tuple(
                (rng.choice((1, 2)), rng.choice((1, -1)))
                for _ in range(rng.randint(0, 10))
            )
            nf = to_normal_form(BraidWord(n, letters))
            seq = [l for l, m in nf.blocks for _ in range(m)]
            for first, second in zip(seq, seq[1:]):
                assert pair_viable(n, second, first), (n, nf.text())


def test_twist_index_mod_identities():
    # gamma^m is central, so sigma_{gamma^(j+m) P_i} = sigma_{gamma^j P_i}
    for n in (3, 4, 5, 6):
        m = twist_modulus(n)
        for fam in ((1, 2) if n % 2 == 0 else (1,)):
            g = BraidWord.gamma_power(n, m)
            tw = BraidWord.generator(n, fam)
            assert burau_equal(burau(g * tw * g.inverse()), burau(tw))
            assert make_twist(n, fam, m + 1) == make_twist(n, fam, 1)


def test_odd_sigma2_normalisation():
    assert make_twist(5, 2, 0) == TwistLetter(1, 3)
    assert make_twist(7, 2, 0) == TwistLetter(1, 4)


def test_target_and_forbidden_vertices():
    assert target_vertex(5, TwistLetter(1, 2)) == ("v", 2)
    assert forbidden_source(5, TwistLetter(1, 0)) == ("v", 2)
    assert target_vertex(4, TwistLetter(2, 1)) == ("u", 1)
    assert forbidden_source(4, TwistLetter(2, 1)) == ("v", 1)
    assert forbidden_source(4, TwistLetter(1, 0)) == ("u", 1)


# --- signed products through the shared kernel ---------------------------------


@st.composite
def signed_laurent(draw, n):
    terms = draw(
        st.dictionaries(
            st.integers(-4, 4),
            st.lists(st.integers(-4, 4), min_size=n - 1, max_size=n - 1).map(tuple),
            max_size=4,
        )
    )
    return QLaurent.from_dict(n, terms)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_qlaurent_products_match_oracle(data):
    from braiddyn.braidword import _mat_mul

    n = data.draw(st.integers(3, 12))
    a, b, c, d = (data.draw(signed_laurent(n)) for _ in range(4))
    assert dict((a * b).terms) == oracle_laurent_dot(n, [(dict(a.terms), dict(b.terms))])
    zero = QLaurent.zero(n)
    (entry, _), _ = _mat_mul(((a, c), (zero, zero)), ((b, zero), (d, zero)))
    assert dict(entry.terms) == oracle_laurent_dot(
        n, [(dict(a.terms), dict(b.terms)), (dict(c.terms), dict(d.terms))]
    )
