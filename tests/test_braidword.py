import math
import random
import re
from itertools import groupby

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from braiddyn.braidword import (
    MAX_N,
    MAX_WORD_LETTERS,
    BraidWord,
    NormalForm,
    QLaurent,
    TwistLetter,
    WordSyntaxError,
    _TOKEN_RUNS,
    _burau_generators,
    _letter_table,
    burau,
    burau_equal,
    coxeter_matrix,
    forbidden_source,
    joins,
    make_twist,
    parse_word,
    positive_roots,
    target_vertex,
    to_normal_form,
    twist_modulus,
)
from braiddyn.classify import _conjugator
from braiddyn.fusion import leaf, product_tree
from letter_oracle import (
    conjugator_by_blocks,
    joins_by_vertices,
    normal_form_by_letters,
    parse_by_regex,
    word_by_blocks,
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


letter_lists = st.lists(st.tuples(st.sampled_from((1, 2)), st.sampled_from((1, -1))), max_size=40)


@settings(max_examples=200, deadline=None)
@given(st.integers(3, 16), letter_lists)
def test_parse_inverts_text(n, letters):
    w = BraidWord(n, tuple(letters))
    assert parse_word(w.text(), n) == w


BAD_TOKENS = [
    "s3",
    "s1^0",
    "s2^x",
    "\u00e9",
    "s1^\u00e9",
    "s1^\u0663",  # a Unicode decimal digit (Arabic-Indic 3)
    "s2^1_0",
    "s1^+2",
    f"s2^{MAX_WORD_LETTERS + 1}",
    f"s1^-{MAX_WORD_LETTERS + 1}",
]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(3, 16),
    # exponents are ASCII only, so a valid prefix is ASCII; the multi-byte
    # characters sit in the bad tokens
    st.sampled_from(["", "s1^-3 "]),
    letter_lists,
    st.sampled_from([" ", "  ", "\t", "\n"]),
    st.sampled_from(BAD_TOKENS),
    st.sampled_from(["", " s1", " s2^-2"]),
)
def test_parse_error_offset_counts_prefix_bytes(n, lead, letters, sep, bad, tail):
    prefix = lead + BraidWord(n, tuple(letters)).text() + sep
    with pytest.raises(WordSyntaxError) as err:
        parse_word(prefix + bad + tail, n)
    assert err.value.offset == len(prefix.encode())


@pytest.mark.parametrize(
    "text, offset",
    [
        ("s1^\u0663", 0),
        ("s1 s2^1_0 s1", 3),
        ("s2^-2  s1^+2", 7),
        ("s1^\u0663 s1^\u00e9", 0),  # the first bad token is reported, in bytes
        ("s2 s1^\u00e9 s1^x", 3),
    ],
)
def test_exponent_grammar_is_ascii_digits(text, offset):
    with pytest.raises(WordSyntaxError) as err:
        parse_word(text, 5)
    assert err.value.offset == offset
    assert "bad exponent" in str(err.value)


@pytest.mark.parametrize("n", [2, MAX_N + 1, 100000])
def test_n_outside_the_cap_is_rejected(n):
    from braiddyn.automaton import build

    with pytest.raises(ValueError, match=f"3 <= n <= {MAX_N}"):
        parse_word("s1", n)
    with pytest.raises(ValueError, match=f"3 <= n <= {MAX_N}"):
        build(n)


def test_word_length_cap():
    assert len(parse_word("s1^200000", 5)) == 200000
    assert len(parse_word(f"s1^{MAX_WORD_LETTERS - 1} s2", 3)) == MAX_WORD_LETTERS
    with pytest.raises(WordSyntaxError) as err:
        parse_word("s1^99999999999999999999999", 5)
    assert err.value.offset == 0
    with pytest.raises(WordSyntaxError) as err:
        parse_word("s1^600000 s2^600000", 5)
    assert err.value.offset == 10


@pytest.mark.parametrize("zeros", [1, 4999])
def test_leading_zeros_and_long_exponents(zeros):
    assert parse_word("s1^" + "0" * zeros + "7", 5) == parse_word("s1^7", 5)
    assert parse_word("s2^-" + "0" * zeros + "3", 5) == parse_word("s2^-3", 5)
    with pytest.raises(WordSyntaxError, match="zero exponent") as err:
        parse_word("s1 s2^-" + "0" * zeros, 5)
    assert err.value.offset == 3
    # more digits than int() reads by default, and than the cap has
    for digits in ("9" * 5000, "1" + "0" * 7, "0" * zeros + "1" + "0" * 7):
        with pytest.raises(WordSyntaxError, match="past 1000000 letters") as err:
            parse_word("s2 s1^" + digits, 5)
        assert err.value.offset == 3
    assert len(parse_word("s1^" + "0" * zeros + str(MAX_WORD_LETTERS), 5)) == MAX_WORD_LETTERS


def parse_outcome(parse, text, n):
    """The runs a parser returns, or the message and byte offset it raises."""
    try:
        return parse(text, n).runs
    except WordSyntaxError as err:
        return str(err), err.offset


def test_token_table_matches_the_regex_parser():
    # every table entry, and the tokens just past it, one by one (no merging)
    texts = {token.decode() for token in _TOKEN_RUNS}
    texts |= {f"s{g}^{k}" for g in (1, 2) for k in range(-101, 102)}
    texts |= {f"s{g}^{sign}0{k}" for g in (1, 2) for sign in ("", "-") for k in (0, 1, 9, 99)}
    for text in sorted(texts):
        assert parse_outcome(parse_word, text, 5) == parse_outcome(parse_by_regex, text, 5), text


def test_separators_match_the_regex_parser():
    # every ASCII character, and whitespace outside ASCII, between two tokens
    for c in [*map(chr, range(128)), "\x85", "\u00a0", "\u2003", "\u2028", "\u3000"]:
        text = f"s1{c}s2^-2"
        assert parse_outcome(parse_word, text, 5) == parse_outcome(parse_by_regex, text, 5), text


# the ASCII whitespace that separates tokens, and whitespace that does not
SEPARATORS = [" ", "\t", "\n", "\r", "\v", "\f"]
NOT_SEPARATORS = ["\u00a0", "\u2003"]
generators = st.sampled_from((1, 2))
signs = st.sampled_from(("", "-"))
word_tokens = st.one_of(
    st.sampled_from(["s1", "s2"]),
    # table tokens, and exponents just past the table
    st.builds("s{}^{}".format, generators, st.integers(-99, 99).filter(bool)),
    st.builds("s{}^{}".format, generators, st.sampled_from((-100, -99, -1, 1, 99, 100))),
    # leading zeros (a zero exponent among them)
    st.builds(
        lambda g, sign, zeros, k: f"s{g}^{sign}{'0' * zeros}{k}",
        generators, signs, st.sampled_from((1, 2, 4999)), st.integers(0, 150),
    ),
    # 5000 digits, more than int() reads by default
    st.builds(lambda g, sign: f"s{g}^{sign}{'9' * 5000}", generators, signs),
    # long runs: two or three of them cross MAX_WORD_LETTERS
    st.builds("s{}^{}".format, generators, st.integers(-600000, 600000).filter(bool)),
    st.sampled_from(BAD_TOKENS),
    st.text(alphabet="s12^-09x\u00e9", min_size=1, max_size=6),
)


@st.composite
def word_texts(draw):
    gaps = st.text(alphabet=SEPARATORS + NOT_SEPARATORS, min_size=1, max_size=3)
    parts = [draw(st.sampled_from(["", *SEPARATORS]))]
    for token in draw(st.lists(word_tokens, max_size=10)):
        parts += [token, draw(gaps)]
    return "".join(parts)


@settings(max_examples=400, deadline=None)
@given(st.integers(3, 16), word_texts())
@example(5, "s1\u00a0s2")
@example(5, "s1\u2003s2^-3")
@example(5, "s1 \t\n\r\v\fs2^-99\fs1^100")
@example(5, f"s1^{MAX_WORD_LETTERS - 1} s2^-1 s1")
def test_parse_matches_regex_oracle(n, text):
    # the same runs, or the same message at the same byte offset
    assert parse_outcome(parse_word, text, n) == parse_outcome(parse_by_regex, text, n)


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


# --- runs ------------------------------------------------------------------------
# Words used to be stored letter by letter; that reduction and the letter-level
# normal form pass are kept here as oracles for the run-level code.


def oracle_free_reduce(letters):
    out = []
    for g, s in letters:
        if out and out[-1][0] == g and out[-1][1] == -s:
            out.pop()
        else:
            out.append((g, s))
    return tuple(out)


def oracle_to_normal_form(w):
    n = w.n
    seq = []  # application order; raw indices
    offset = 0  # true index = raw + offset (mod m)
    s = 0

    def prepend_gamma(e):
        nonlocal offset, s
        offset += e
        s += e

    def prepend_twist(family):
        letter = make_twist(n, family, 0)
        if seq:
            last = seq[-1]
            last_true = make_twist(n, last.family, last.index + offset)
            if not joins(n, last_true, 0, letter):
                seq.pop()
                prepend_gamma(1)
                return
        seq.append(make_twist(n, letter.family, letter.index - offset))

    for g, sign in reversed(w.letters):
        if sign == 1:
            prepend_twist(g)
        elif g == 1:
            prepend_twist(2)
            prepend_gamma(-1)
        else:
            prepend_gamma(-1)
            prepend_twist(1)

    blocks = []
    for raw in seq:
        letter = make_twist(n, raw.family, raw.index + offset)
        if blocks and blocks[-1][0] == letter:
            blocks[-1] = (letter, blocks[-1][1] + 1)
        else:
            blocks.append((letter, 1))
    return NormalForm(n, tuple(blocks), s)


run_lists = st.lists(
    st.tuples(st.sampled_from((1, 2)), st.integers(-12, 12).filter(bool)), max_size=16
)


def expand(runs):
    return tuple((g, 1 if k > 0 else -1) for g, k in runs for _ in range(abs(k)))


@settings(max_examples=300, deadline=None)
@given(st.integers(3, 16), run_lists)
def test_runs_agree_with_letters(n, runs):
    letters = expand(runs)
    w = BraidWord(n, tuple(runs))
    assert w == BraidWord(n, letters)
    assert w.letters == oracle_free_reduce(letters)
    assert expand(w.runs) == w.letters
    assert all(a[0] != b[0] for a, b in zip(w.runs, w.runs[1:]))
    assert len(w) == len(w.letters)
    assert w.exponent_sums() == tuple(
        sum(s for g, s in letters if g == gen) for gen in (1, 2)
    )
    assert parse_word(w.text(), n) == w
    assert parse_word(" ".join(f"s{g}^{k}" for g, k in runs), n) == w
    assert w.inverse().letters == oracle_free_reduce(tuple((g, -s) for g, s in reversed(letters)))


# every n from 3 to 16, and odd and even n up to MAX_N
LETTER_NS = [*range(3, 17), 17, 31, 64, 127, 128]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(LETTER_NS), run_lists)
def test_normal_form_matches_letter_level_oracle(n, runs):
    w = BraidWord(n, tuple(runs))
    nf = to_normal_form(w)
    assert nf == oracle_to_normal_form(w) == normal_form_by_letters(w)
    # the letters are the one object per letter of make_twist
    assert all(letter is make_twist(n, letter.family, letter.index) for letter, _ in nf.blocks)


@pytest.mark.parametrize("n", [3, 4, 5, 8, 16, 17, 64, 127, 128])
def test_normal_form_of_long_runs_matches_oracle(n):
    rng = random.Random(700 + n)
    cases = [
        tuple(
            (rng.choice((1, 2)), rng.choice((1, -1)) * rng.randint(1, 400))
            for _ in range(rng.randint(1, 6))
        )
        for _ in range(20)
    ]
    # long negative runs go letter by letter, one block per step or a collapse
    cases += [((1, -2000),), ((2, -2000),), ((1, -1500), (2, 3)), ((2, -700), (1, -900))]
    cases += [
        tuple((rng.choice((1, 2)), -rng.randint(300, 1200)) for _ in range(rng.randint(2, 4)))
        for _ in range(4)
    ]
    for runs in cases:
        w = BraidWord(n, runs)
        assert to_normal_form(w) == oracle_to_normal_form(w) == normal_form_by_letters(w), w.text()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(LETTER_NS), st.data())
def test_letter_table_is_the_vertex_pair_rule(n, data):
    # the ban table read is the vertex-tuple rule, for every letter pair
    m, letters, ban = _letter_table(n)
    g = data.draw(st.integers(-2 * m, 2 * m))
    assert len(letters) == (m if n % 2 else 2 * m) == len(ban)
    for code, x in enumerate(letters):
        assert target_vertex(n, x) == (("v", code) if code < m else ("u", code - m))
        assert make_twist(n, x.family, x.index + m) is x
        for y in letters:
            assert joins(n, x, g, y) == joins_by_vertices(n, x, g, y), (x, g, y)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(LETTER_NS), run_lists, st.data())
def test_spellers_match_block_by_block_spelling(n, runs, data):
    # gamma^(j_next - j_prev) between powers is what spelling each power on
    # its own leaves after free reduction
    nf = to_normal_form(BraidWord(n, tuple(runs)))
    nf = NormalForm(n, nf.blocks, nf.gamma_exp + data.draw(st.integers(-3 * n, 3 * n)))
    assert nf.to_word().runs == word_by_blocks(nf).runs
    letters = _letter_table(n).letters
    peeled = data.draw(st.lists(st.sampled_from(letters), max_size=20))
    grouped = [[x, len(list(group))] for x, group in groupby(peeled)]
    assert _conjugator(n, grouped).runs == conjugator_by_blocks(n, peeled).runs


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


def burau_mat_mul(a, b):
    """The 2x2 product a b, each entry from ``oracle_laurent_dot``; it shares no code with the kernel."""
    n = a[0][0].n
    return tuple(
        tuple(
            QLaurent.from_dict(
                n, oracle_laurent_dot(n, [(dict(a[i][k].terms), dict(b[k][j].terms)) for k in range(2)])
            )
            for j in range(2)
        )
        for i in range(2)
    )


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_burau_is_a_homomorphism(data):
    n = data.draw(st.integers(3, 7))
    letters = st.tuples(st.sampled_from((1, 2)), st.sampled_from((1, -1)))
    u = BraidWord(n, tuple(data.draw(st.lists(letters, max_size=6))))
    v = BraidWord(n, tuple(data.draw(st.lists(letters, max_size=6))))
    assert burau_equal(burau(u * v), burau_mat_mul(burau(u), burau(v)))


def fold_burau(w):
    """The generator matrices multiplied left to right with ``burau_mat_mul``, the oracle."""
    zero, one = QLaurent.zero(w.n), QLaurent.scalar(w.n, 1)
    out = ((one, zero), (zero, one))
    gens = _burau_generators(w.n)
    for letter in w.letters:
        out = burau_mat_mul(out, gens[letter])
    return out


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([3, 4, 5, 8, 16]), letter_lists)
def test_burau_tree_equals_fold(n, letters):
    w = BraidWord(n, tuple(letters))
    assert burau(w) == fold_burau(w)


@pytest.mark.parametrize("k", [1, 7, 2000])
def test_burau_of_a_generator_power_closed_form(k):
    # burau(s1^k) = [[(-q^2)^k, -[Pi_1] sum_{i<k} (-1)^i q^(2i+1)], [0, 1]]
    n = 5
    a = QLaurent.term(n, 2 * k, ((-1) ** k, 0, 0, 0))
    b = QLaurent.from_dict(n, {2 * i + 1: (0, -((-1) ** i), 0, 0) for i in range(k)})
    want = ((a, b), (QLaurent.zero(n), QLaurent.scalar(n, 1)))
    assert burau(BraidWord(n, ((1, 1),) * k)) == want


def test_burau_of_a_long_word_is_the_product_of_its_halves():
    n = 5
    long_power, tail = BraidWord(n, ((1, 1),) * 2000), BraidWord(n, ((2, -1),) * 3)
    assert burau(long_power * tail) == burau_mat_mul(burau(long_power), burau(tail))


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
                assert forbidden_source(n, second) != target_vertex(n, first), (n, nf.text())


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


def test_letters_outside_the_twist_alphabet_are_rejected():
    with pytest.raises(ValueError):
        make_twist(4, 3, 0)
    for n, letter in [(4, TwistLetter(3, 0)), (5, TwistLetter(2, 0)), (6, TwistLetter(1, 3))]:
        with pytest.raises(ValueError):
            NormalForm(n, ((letter, 1),), 0)


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


def product_entry(n, x, y):
    """Entry (0, 0) of the product_tree of two signed 2x2 matrices, as a QLaurent."""
    runs = [(leaf(n, [p.terms for p in mat]), 1) for mat in (x, y)]
    return QLaurent(n, product_tree(n, runs)[0])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_qlaurent_products_match_oracle(data):
    n = data.draw(st.integers(3, 12))
    a, b, c, d = (data.draw(signed_laurent(n)) for _ in range(4))
    zero = QLaurent.zero(n)
    ab = product_entry(n, (a, zero, zero, zero), (b, zero, zero, zero))
    assert dict(ab.terms) == oracle_laurent_dot(n, [(dict(a.terms), dict(b.terms))])
    # one entry of a 2x2 product is the fused a*b + c*d; signed rows may cancel
    entry = product_entry(n, (a, c, zero, zero), (b, zero, d, zero))
    assert dict(entry.terms) == oracle_laurent_dot(
        n, [(dict(a.terms), dict(b.terms)), (dict(c.terms), dict(d.terms))]
    )


@pytest.mark.parametrize(
    "terms, message",
    [
        (((1, (1, 0, 0, 0)), (0, (1, 0, 0, 0))), "sorted"),
        (((0, (1, 0, 0, 0)), (0, (0, 1, 0, 0))), "distinct"),
        (((0, (1, 0, 0)),), "4 coefficients"),
        (((0, [1, 0, 0, 0]),), "tuple"),
        (((0, (0, 0, 0, 0)),), "zero coefficient"),
        # the checks run in bulk: a defect in a later term is found too
        (((0, (1, 0, 0, 0)), (2, (1, 0, 0, 0)), (2, (0, 1, 0, 0))), "distinct"),
        (((0, (1, 0, 0, 0)), (1, (1, 0, 0, 0, 0))), "4 coefficients"),
        (((0, (1, 0, 0, 0)), (1, [1, 0, 0, 0])), "tuple"),
        (((0, (1, 0, 0, 0)), (1, (0, 0, 0, 0))), "zero coefficient"),
    ],
)
def test_qlaurent_rejects_non_canonical_terms(terms, message):
    full = {
        "sorted": "terms must be sorted by exponent and distinct",
        "distinct": "terms must be sorted by exponent and distinct",
        "4 coefficients": "expected a tuple of 4 coefficients for n=5",
        "tuple": "expected a tuple of 4 coefficients for n=5",
        "zero coefficient": "zero coefficient must not be stored",
    }[message]
    with pytest.raises(ValueError, match=f"^{re.escape(full)}$"):
        QLaurent(5, terms)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_burau_equal_is_equality_of_the_polynomials(data):
    # canonical terms make term equality the same as a - b == 0, computed by the oracle
    n = data.draw(st.integers(3, 8))
    x = [data.draw(signed_laurent(n)) for _ in range(4)]
    y = list(x) if data.draw(st.booleans()) else [data.draw(signed_laurent(n)) for _ in range(4)]
    minus_one = {0: (-1,) + (0,) * (n - 2)}
    difference_is_zero = all(
        not oracle_laurent_dot(n, [(dict(p.terms), {0: (1,) + (0,) * (n - 2)}), (dict(q.terms), minus_one)])
        for p, q in zip(x, y)
    )
    got = burau_equal(((x[0], x[1]), (x[2], x[3])), ((y[0], y[1]), (y[2], y[3])))
    assert got == difference_is_zero
