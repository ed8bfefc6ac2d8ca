import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import braiddyn.automaton as am
from braiddyn.braidword import (
    BraidWord,
    NormalForm,
    TwistLetter,
    burau,
    burau_equal,
    joins,
    make_twist,
    parse_word,
    to_normal_form,
    twist_modulus,
)
from braiddyn.classify import (
    classify,
    estimate_growth,
    growth_periodic,
    growth_reducible,
    reducible_witness,
)
from estimator_oracle import iterate_by_levels

GOLDEN = (1 + math.sqrt(5)) / 2
PA5 = math.log(2 * math.sqrt(math.sqrt(5) + 2) + math.sqrt(5) + 2)
PA4 = math.log(5 + 2 * math.sqrt(6))


def random_word(rng, n, max_len):
    k = rng.randint(0, max_len)
    return BraidWord(n, tuple((rng.choice((1, 2)), rng.choice((1, -1))) for _ in range(k)))


# --- growth formulas -----------------------------------------------------------


def test_growth_periodic_values():
    assert growth_periodic(5, 1, -1).slope == 2
    assert growth_periodic(5, 1, 3).slope == -6
    assert growth_periodic(4, 4, 1).slope == Fraction(-1, 2)
    assert growth_periodic(3, 6, 3).slope == -1
    with pytest.raises(ValueError):
        growth_periodic(5, 0, 1)


def test_growth_reducible_values():
    g = growth_reducible(5, 1, 1, 0)
    assert (g.slope_neg, g.slope_pos) == (-1, 0)  # h_t(sigma_i) = max(0, -t)
    g = growth_reducible(5, 1, -1, 0)
    assert (g.slope_neg, g.slope_pos) == (0, 1)  # h_t(sigma_i^-1) = max(0, t)
    g = growth_reducible(5, 2, -2, 1)
    assert (g.slope_neg, g.slope_pos) == (-2, 0)
    g = growth_reducible(6, 1, 3, -1)
    assert (g.slope_neg, g.slope_pos) == (-2, 1)
    with pytest.raises(ValueError):
        growth_reducible(5, 1, 0, 1)


def test_growth_descriptions_evaluate():
    g = growth_reducible(5, 1, 1, 0)
    assert g.evaluate(-2.0) == 2.0
    assert g.evaluate(1.5) == 0.0
    assert growth_periodic(5, 5, 5).evaluate(0.25) == -0.5


# --- reducible witness ----------------------------------------------------------


def test_reducible_witness_single_twist():
    nf = to_normal_form(BraidWord.generator(5, 1))
    i, k, l, conj = reducible_witness(5, nf, "upper")
    assert (i, k, l) == (1, 1, 0)
    assert conj.letters == ()


def test_reducible_witness_n5_worked_example():
    res = classify(5, parse_word("s2 s1 s2 s1^-1 s2 s1 s2^-1 s1 s2^3 s1", 5))
    assert res.braid_type == "reducible"
    assert res.params == (2, -2, 1)
    assert res.h0() == 0.0
    # final conjugate normal form sigma_{gamma P_1} sigma_{P_1} gamma^3
    assert res.normal_form.blocks == (
        (TwistLetter(1, 0), 1),
        (TwistLetter(1, 1), 1),
    )
    assert res.normal_form.gamma_exp == 3
    from braiddyn.fusion import eval_mass

    at0 = [[eval_mass(res.matrix[r][c], 0.0) for c in range(2)] for r in range(2)]
    assert at0[0][0] == pytest.approx(1.0)
    assert at0[0][1] == 0
    assert at0[1][0] == pytest.approx(2 * GOLDEN, abs=1e-9)
    assert at0[1][1] == pytest.approx(1.0)


# --- classification fixtures ------------------------------------------------------


def test_classify_n5_pseudo_anosov():
    res = classify(5, parse_word("s1 s1 s2 s2", 5))
    assert res.braid_type == "pseudo_anosov"
    assert res.h0() == pytest.approx(PA5, abs=1e-9)
    # one shortening round: s1 s1 s2 s2 ~ sigma_{P_1} sigma_{gamma^3 P_1} gamma
    assert res.rounds == 1
    assert res.normal_form.blocks == (
        (TwistLetter(1, 3), 1),
        (TwistLetter(1, 0), 1),
    )
    assert res.normal_form.gamma_exp == 1


def test_classify_n4_pseudo_anosov():
    res = classify(4, parse_word("s2^2 s1^3", 4))
    assert res.braid_type == "pseudo_anosov"
    assert res.h0() == pytest.approx(PA4, abs=1e-9)


def test_classify_n4_periodic():
    w = parse_word("s2 s1 s2 s1^-1 s2^-1 s1", 4)
    res = classify(4, w)
    assert res.braid_type == "periodic"
    assert res.h0() == 0.0
    assert res.params == (4, 1)
    # out(beta) is gamma itself here
    assert res.out_beta == BraidWord.gamma_power(4, 1)
    assert burau_equal(
        burau(res.conjugator * w * res.conjugator.inverse()), burau(res.out_beta)
    )


def test_classify_n4_parity_obstructed_word():
    # s2^-2 s1 s2 has exponent sums (1, -1); any sigma_i^k chi^l conjugate
    # would need an even entry in one slot, so no reducible witness exists
    # and the closed-path matrix is genuinely full.
    w = parse_word("s2^-2 s1 s2", 4)
    e1, e2 = w.exponent_sums()
    # sigma_1^k chi^l has even s2-sum, sigma_2^k chi^l even s1-sum; both fail
    assert e1 % 2 == 1 and e2 % 2 == 1
    res = classify(4, w)
    assert res.braid_type == "pseudo_anosov"
    assert res.h0() == pytest.approx(math.log(2 + math.sqrt(3)), abs=1e-9)


def test_classify_identity_and_gamma_powers():
    res = classify(5, parse_word("", 5))
    assert res.braid_type == "periodic"
    assert res.growth.slope == 0
    for n in (3, 4, 5, 6, 8):
        for l in (-2, -1, 1, 2):
            res = classify(n, BraidWord.gamma_power(n, l * n))
            assert res.braid_type == "periodic"
            assert res.growth.slope == -2 * l


def test_classify_generators_reducible():
    for n in range(3, 9):
        for i in (1, 2):
            for sign, slopes in ((1, (-1, 0)), (-1, (0, 1))):
                res = classify(n, BraidWord.generator(n, i, sign))
                assert res.braid_type == "reducible"
                g = res.growth
                assert (g.slope_neg, g.slope_pos) == slopes


def test_classify_n3_classical_dilatation():
    # for n=3 the group is the three-strand braid group, where s1 s2^-1
    # has the classical dilatation (3+sqrt5)/2
    res = classify(3, parse_word("s1 s2^-1", 3))
    assert res.braid_type == "pseudo_anosov"
    assert res.h0() == pytest.approx(math.log((3 + math.sqrt(5)) / 2), abs=1e-12)


def test_classify_odd_half_twist_periodic():
    # sigma_1 sigma_2 sigma_1 squares to the n=3 full twist gamma^3
    res = classify(3, parse_word("s1 s2 s1", 3))
    assert res.braid_type == "periodic"
    assert res.params == (6, 3)
    assert res.growth.slope == -1
    assert burau_equal(
        burau(res.out_beta ** 6), burau(BraidWord.gamma_power(3, 9))
    )


def test_trichotomy_matches_zero_pattern():
    from braiddyn.automaton import zero_pattern

    rng = random.Random(31)
    seen = set()
    for n in (3, 4, 5):
        for _ in range(40):
            res = classify(n, random_word(rng, n, 10))
            if res.matrix is None:
                assert res.braid_type == "periodic"
                continue
            pattern = zero_pattern(res.matrix)
            seen.add(pattern)
            if pattern == "full":
                assert res.braid_type == "pseudo_anosov"
            else:
                assert res.braid_type == "reducible"
    assert {"full", "upper", "lower"} <= seen


def test_witness_soundness_random():
    rng = random.Random(91)
    for n in (3, 4, 5, 6):
        for _ in range(20):
            w = random_word(rng, n, 10)
            res = classify(n, w)
            assert burau_equal(
                burau(res.conjugator * w * res.conjugator.inverse()),
                burau(res.out_beta),
            ), (n, w.text())


def test_periodic_soundness_random():
    rng = random.Random(17)
    checked = 0
    for n in (3, 4, 5):
        for _ in range(30):
            w = random_word(rng, n, 8)
            res = classify(n, w)
            if res.braid_type != "periodic":
                continue
            k, l = res.params
            if k > 12:  # keep the exact power computation small
                continue
            checked += 1
            assert burau_equal(
                burau(res.out_beta ** k), burau(BraidWord.gamma_power(n, l * n))
            )
    assert checked > 5


def test_pa_growth_function_is_path_independent():
    # conjugates land on different closed paths with different matrices;
    # their h_t functions must still agree at every t, which pins all the
    # s-exponents in the support tables and the wraparound shifts
    rng = random.Random(12345)
    for n in (4, 5, 6):
        for _ in range(25):
            w = random_word(rng, n, 10)
            res = classify(n, w)
            if res.braid_type != "pseudo_anosov":
                continue
            c = random_word(rng, n, 6)
            res2 = classify(n, c * w * c.inverse())
            for t in (-0.7, -0.2, 0.4, 1.1):
                assert res2.growth.evaluate(t) == pytest.approx(
                    res.growth.evaluate(t), abs=1e-9
                ), (n, w.text(), c.text(), t)


def test_conjugation_invariance():
    rng = random.Random(47)
    for n in (3, 4, 5, 6):
        for _ in range(15):
            w = random_word(rng, n, 9)
            c = random_word(rng, n, 6)
            res = classify(n, w)
            res_c = classify(n, c * w * c.inverse())
            assert res_c.braid_type == res.braid_type
            assert res_c.h0() == pytest.approx(res.h0(), abs=1e-9)


def test_loop_terminates_within_bound():
    rng = random.Random(3)
    for n in (3, 4, 5, 6, 7):
        for _ in range(20):
            w = random_word(rng, n, 12)
            res = classify(n, w)
            assert res.rounds <= to_normal_form(w).length() + 1


def _reduced_word(rng, n, length):
    letters = []
    while len(letters) < length:
        letter = (rng.choice((1, 2)), rng.choice((1, -1)))
        if not letters or letters[-1] != (letter[0], -letter[1]):
            letters.append(letter)
    return BraidWord(n, tuple(letters))


LONG_CONJUGATES = [(5, "s1^2"), (5, "s1 s2"), (4, "s1^2 s2^-2"), (4, "s2^3")]


@pytest.mark.parametrize("n, beta", LONG_CONJUGATES)
def test_long_conjugate_simulates_at_most_once(monkeypatch, n, beta):
    # the round test is O(1) (braidword.joins); only the final witness is
    # followed through the automaton, once
    calls = []
    real = am.simulate

    def counting(auto, letters, start):
        calls.append(start)
        return real(auto, letters, start)

    c = _reduced_word(random.Random(400 + n), n, 400)
    w = parse_word(beta, n)
    want = classify(n, w)
    monkeypatch.setattr(am, "simulate", counting)
    res = classify(n, c * w * c.inverse())
    assert len(calls) <= 1
    assert res.rounds > 100
    assert res.braid_type == want.braid_type and res.params == want.params
    assert res.h0() == pytest.approx(want.h0(), abs=1e-9)


@pytest.mark.parametrize("n, beta", LONG_CONJUGATES)
def test_long_conjugate_builds_two_normal_forms(monkeypatch, n, beta):
    # one from to_normal_form and the final one; the rounds build none
    builds = []
    real = NormalForm.__post_init__

    def counting(self):
        builds.append(len(self.blocks))
        real(self)

    c = _reduced_word(random.Random(400 + n), n, 400)
    w = c * parse_word(beta, n) * c.inverse()
    monkeypatch.setattr(NormalForm, "__post_init__", counting)
    res = classify(n, w)
    assert res.rounds > 100
    assert len(builds) <= 2


def _round_loop(n, w):
    """The conjugation loop with one checked NormalForm per round: (final form, peeled)."""
    nf = to_normal_form(w)
    peeled = []
    while nf.twist_count() >= 2:
        b_1, b_k = nf.blocks[0][0], nf.blocks[-1][0]
        if joins(n, b_k, nf.gamma_exp, b_1):
            break
        blocks = [list(b) for b in nf.blocks]
        blocks[0][1] -= 1
        blocks[-1][1] -= 1
        peeled.append(b_k)
        nf = NormalForm(n, tuple((l, c) for l, c in blocks if c > 0), nf.gamma_exp + 1)
    return nf, peeled


def _check_against_round_loop(n, w):
    nf, peeled = _round_loop(n, w)
    res = classify(n, w)
    assert res.normal_form == nf
    assert res.rounds == len(peeled)
    # each round conjugates by the peeled letter gamma^j s_i gamma^-j
    conj = BraidWord.identity(n)
    for letter in peeled:
        g = BraidWord.gamma_power(n, letter.index)
        conj = g * BraidWord.generator(n, letter.family, -1) * g.inverse() * conj
    if res.braid_type == "reducible":
        conj = reducible_witness(n, nf, am.path_zero_pattern(res.path))[3] * conj
    assert res.conjugator == conj
    return nf


@st.composite
def conjugates(draw):
    n = draw(st.integers(3, 16))
    letters = st.tuples(st.sampled_from((1, 2)), st.sampled_from((1, -1)))
    c = BraidWord(n, tuple(draw(st.lists(letters, max_size=60))))
    kind = draw(st.sampled_from(["word", "block", "gamma", "letter"]))
    if kind == "word":
        beta = BraidWord(n, tuple(draw(st.lists(letters, max_size=12))))
    elif kind == "block":  # peels down to a single block, or lo == hi
        k = draw(st.integers(1, 6)) * draw(st.sampled_from((1, -1)))
        beta = BraidWord.generator(n, draw(st.sampled_from((1, 2)))) ** k
    elif kind == "gamma":  # peels down to gamma^s
        beta = BraidWord.gamma_power(n, draw(st.integers(-2 * n, 2 * n)))
    else:  # peels down to a single letter
        beta = BraidWord.generator(n, draw(st.sampled_from((1, 2))), draw(st.sampled_from((1, -1))))
    return n, c * beta * c.inverse()


@settings(max_examples=300, deadline=None)
@given(conjugates())
def test_peel_matches_round_loop(case):
    _check_against_round_loop(*case)


@pytest.mark.parametrize(
    "n, text, final",
    [
        # twist1[0]^3 gamma^2: b cannot follow itself across gamma^2, so the
        # first round peels both ends of one block (lo == hi)
        (5, "s1^3 s2 s1 s2 s1", "twist1[0] gamma^3"),
        (5, "s1^2 s2 s1 s2 s1", "gamma^3"),
    ],
)
def test_peel_matches_round_loop_examples(n, text, final):
    assert _check_against_round_loop(n, parse_word(text, n)).text() == final


def test_large_exponent_reducible():
    res = classify(5, parse_word("s1^20000", 5))
    assert res.braid_type == "reducible" and res.params == (1, 20000, 0)
    assert res.out_beta.text() == "s1^20000"


# --- independent entropy oracle ------------------------------------------------


def _artin_gen_at_minus_one(nstrands, i):
    """Reduced Burau matrix of the i-th Artin generator of B_nstrands at t=-1."""
    import numpy as np

    size = nstrands - 1
    m = np.eye(size)
    j = i - 1
    if j - 1 >= 0:
        m[j - 1, j] = -1.0
    m[j, j] = 1.0
    if j + 1 < size:
        m[j + 1, j] = 1.0
    return m


def _strand_image_spectral_log(n, word):
    """log spectral radius of the word's image in the n-strand braid group.

    s1 maps to the product of the odd-index Artin generators, s2 to the
    even-index ones (disjoint supports, so each block is well defined);
    the homology action of the image bounds its entropy from below.
    """
    import numpy as np

    blocks = {}
    for g, idx in ((1, range(1, n, 2)), (2, range(2, n, 2))):
        m = np.eye(n - 1)
        for i in idx:
            m = m @ _artin_gen_at_minus_one(n, i)
        blocks[(g, 1)] = m
        blocks[(g, -1)] = np.linalg.inv(m)
    out = np.eye(n - 1)
    for letter in word.letters:
        out = out @ blocks[letter]
    return math.log(max(abs(np.linalg.eigvals(out))))


def test_h0_matches_strand_image_entropy():
    # end-to-end oracle sharing nothing with the mass machinery: on every
    # sampled word the computed h0 coincides with the log spectral radius
    # of the braid's image under the odd/even generator-block embedding
    rng = random.Random(314)
    for n, text in ((5, "s1 s1 s2 s2"), (4, "s2^2 s1^3"), (4, "s2^-2 s1 s2")):
        w = parse_word(text, n)
        assert classify(n, w).h0() == pytest.approx(
            _strand_image_spectral_log(n, w), abs=1e-9
        )
    for n in (4, 5, 6):
        for _ in range(40):
            w = random_word(rng, n, 9)
            res = classify(n, w)
            assert res.h0() == pytest.approx(
                _strand_image_spectral_log(n, w), abs=1e-6
            ), (n, w.text(), res.braid_type)


# --- estimator ---------------------------------------------------------------------


def test_estimator_on_fixtures():
    for n, text, growth in (
        (5, "s1 s1 s2 s2", PA5),
        (4, "s2^2 s1^3", PA4),
    ):
        w = parse_word(text, n)
        res = classify(n, w)
        for t in (-0.5, 0.0, 0.5):
            est = estimate_growth(n, w, N=24, t=t)
            assert est == pytest.approx(res.growth.evaluate(t), abs=0.08)
        assert estimate_growth(n, w, N=24, t=0.0) == pytest.approx(growth, abs=0.05)


def test_estimator_on_gamma():
    for n in (3, 4, 5, 6):
        est = estimate_growth(n, BraidWord.gamma_power(n, 1), N=10, t=0.0)
        assert abs(est) < 1e-9


def _periodic_words_n3(max_len):
    seen = set()
    for k in range(max_len + 1):
        for code in range(4**k):
            letters = tuple(((code >> (2 * i)) & 1) + 1 for i in range(k))
            signs = tuple(1 - 2 * ((code >> (2 * i + 1)) & 1) for i in range(k))
            w = BraidWord(3, tuple(zip(letters, signs)))
            if len(w) == k and w not in seen:
                seen.add(w)
                yield w


def test_estimator_on_odd_n_periodic_words():
    # words with one twist letter that cannot follow itself have no closed
    # path; the estimator iterates their square gamma^(2s+1) instead
    words = [parse_word("s2 s1 s2", 3), parse_word("s1 s2 s1 s2 s2", 5)]
    words += [w for w in _periodic_words_n3(6) if classify(3, w).braid_type == "periodic"]
    squares = 0
    for w in words:
        res = classify(w.n, w)
        assert res.braid_type == "periodic"
        squares += res.path is None and bool(res.normal_form.blocks)
        for t in (-1.0, 0.0, 0.5):
            assert estimate_growth(w.n, w, t=t) == pytest.approx(
                res.growth.evaluate(t), rel=0, abs=1e-9
            ), (w.text(), t)
    assert squares > 10


def test_estimator_reuses_the_normal_form(monkeypatch):
    # a periodic word without a path is iterated from res.normal_form,
    # which is what normalising out(beta) again would give
    import sys

    cl = sys.modules["braiddyn.classify"]  # the package attribute is the function

    words = [(3, "s2 s1 s2"), (5, "s1 s2 s1 s2 s2"), (4, "s1 s2"), (5, "")]
    results = [classify(n, parse_word(w, n)) for n, w in words]
    for res in results:
        assert res.path is None and to_normal_form(res.out_beta) == res.normal_form
    monkeypatch.setattr(cl, "to_normal_form", None)
    for res in results:
        assert cl._estimate(res, 8, 0.5) == pytest.approx(res.growth.evaluate(0.5), abs=1e-9)


def test_estimator_rejects_tiny_n_steps():
    with pytest.raises(ValueError):
        estimate_growth(5, parse_word("s1", 5), N=1)


# Penner words whose ratio estimate converges to the closed form within a few steps
LONG_PENNER = " ".join(["s1 s2^-1"] * 20)
PENNER_WORDS = ((5, "s1 s2^-1"), (8, "s1^2 s2^-1"), (3, "s1 s2^-2"), (5, LONG_PENNER))


@pytest.mark.parametrize("n, text", PENNER_WORDS)
def test_estimator_matches_closed_form(n, text):
    w = parse_word(text, n)
    res = classify(n, w)
    assert res.braid_type == "pseudo_anosov"
    for N in (8, 24):
        for t in (-2.0, -1.0, 0.0, 1.0, 2.0):
            assert estimate_growth(n, w, N=N, t=t) == pytest.approx(
                res.growth.evaluate(t), abs=1e-9
            ), (N, t)


@pytest.mark.parametrize("n, text", PENNER_WORDS)
def test_estimator_at_large_t(n, text):
    # unit masses e^(phase t) overflow a float here; the log masses do not
    w = parse_word(text, n)
    res = classify(n, w)
    for t in (-1000.0, -300.0, 300.0, 1000.0):
        est = estimate_growth(n, w, N=24, t=t)
        assert math.isfinite(est)
        assert est == pytest.approx(res.growth.evaluate(t), rel=1e-12), t


# --- the level-folded estimator against the level-keyed oracle ---------------------

ORACLE_T = (-1000.0, -0.7, 0.0, 0.5, 1000.0)


def _check_against_levels(res, N, t):
    cl = sys.modules["braiddyn.classify"]  # the package attribute is the function
    logs, power = iterate_by_levels(res, N, t)
    want = (logs[N] - logs[N - 1]) / power
    # the estimate is a difference of two log masses; the routes agree to
    # 1e-12 relative to the larger of those (or to 1, near mass 1)
    scale = max(1.0, abs(logs[N]), abs(logs[N - 1]))
    got = cl._estimate(res, N, t)
    assert abs(got - want) <= 1e-12 * scale, (res.n, res.normal_form.text(), N, t, got, want)


@st.composite
def estimator_cases(draw):
    n = draw(st.sampled_from((3, 4, 5, 6, 8, 16)))
    tokens = draw(
        st.lists(st.tuples(st.sampled_from((1, 2)), st.sampled_from((-2, -1, 1, 2))), max_size=4)
    )
    text = " ".join(f"s{g}^{e}" for g, e in tokens)
    return n, text, draw(st.integers(2, 10)), draw(st.sampled_from(ORACLE_T))


@settings(max_examples=150, deadline=None)
@given(estimator_cases())
def test_folded_estimator_matches_level_oracle(case):
    n, text, N, t = case
    _check_against_levels(classify(n, parse_word(text, n)), N, t)


@pytest.mark.parametrize("n, text", [(3, "s1 s2 s1"), (3, "s2 s1 s2"), (5, "s1 s2 s1 s2 s2")])
def test_folded_estimator_matches_level_oracle_on_squared_words(n, text):
    # out(beta) has no closed path; both routes iterate its square
    res = classify(n, parse_word(text, n))
    assert res.path is None and res.normal_form.blocks
    for N in range(2, 11):
        for t in ORACLE_T:
            _check_against_levels(res, N, t)


SLOW_N16 = "s2^-3 s2^-3 s1^-3 s1^-1 s2^2 s1^2 s2^-3 s2^-3 s1^-2"


@pytest.mark.parametrize(
    "n, text, N",
    [
        pytest.param(5, LONG_PENNER, 24, id="penner40-N24"),
        pytest.param(5, LONG_PENNER, 200, id="penner40-N200"),
        pytest.param(16, SLOW_N16, 12, id="n16-22letters-N12"),
        pytest.param(4, "s2^2 s1^3", 200, id="n4-pA-N200"),
        pytest.param(3, "s1 s2 s1", 50, id="n3-squared-N50"),
    ],
)
def test_estimator_work_is_bounded_by_the_folded_keys(monkeypatch, n, text, N):
    # each twist letter reads the support of at most 3 m (n-1) keys, each at level 0
    cl = sys.modules["braiddyn.classify"]
    levels = []
    real = cl.letter_support

    def counting(n_, letter, unit):
        levels.append(unit.level)
        return real(n_, letter, unit)

    monkeypatch.setattr(cl, "letter_support", counting)
    res = classify(n, parse_word(text, n))
    value = cl._estimate(res, N, 0.5)
    bound = N * res.normal_form.twist_count() * 3 * twist_modulus(n) * (n - 1)
    assert len(levels) <= bound
    assert set(levels) <= {0}
    assert math.isfinite(value)


# --- classification without exact products ----------------------------------------

# a pseudo-Anosov word whose exact path matrix overflows math.exp at |t| = 300
LARGE_T_WORD = "s1^2 s2^-2 s1 s2^-3 s1^2 s2^-1 s1 s2^-2"


@pytest.mark.parametrize("n", [3, 4, 5, 8, 16])
def test_verdict_and_growth_match_exact_route(n):
    # type and params as if decided on zero_pattern(path_matrix(...)); h_t as
    # log pf_eigenvalue of the exact matrix
    rng = random.Random(4000 + n)
    auto = am.build(n)
    full = 0
    for _ in range(20):
        res = classify(n, random_word(rng, n, 14))
        if res.path is None:
            assert res.braid_type == "periodic"
            continue
        exact = am.path_matrix(auto, res.path)
        pattern = am.zero_pattern(exact)
        assert res.matrix == exact
        want = {"full": "pseudo_anosov", "diagonal": "periodic"}.get(pattern, "reducible")
        assert res.braid_type == want
        if pattern in ("upper", "lower"):
            assert res.params == reducible_witness(n, res.normal_form, pattern)[:3]
        if pattern == "full":
            full += 1
            for t in (-1.0, -0.5, 0.0, 0.5, 1.0):
                assert res.growth.evaluate(t) == pytest.approx(
                    math.log(am.pf_eigenvalue(exact, t)), rel=1e-9, abs=1e-12
                )
    assert full >= 5


def test_exact_matrix_is_built_once_and_only_on_demand(monkeypatch):
    calls = []
    real = am.path_matrix

    def counting(auto, path):
        calls.append(path)
        return real(auto, path)

    monkeypatch.setattr(am, "path_matrix", counting)
    res = classify(5, parse_word("s1 s1 s2 s2", 5))
    assert res.braid_type == "pseudo_anosov" and res.h0() == pytest.approx(PA5, abs=1e-12)
    assert calls == []
    assert res.matrix is res.growth.matrix
    assert res.growth.to_json()["matrix"][0][0] == res.matrix[0][0].to_json()
    assert len(calls) == 1
    assert res.matrix == real(am.build(5), res.path)

    calls.clear()
    red = classify(5, parse_word("s2 s1 s2 s1^-1 s2 s1 s2^-1 s1 s2^3 s1", 5))
    assert red.braid_type == "reducible" and calls == []
    assert red.matrix is red.matrix and len(calls) == 1
    assert classify(5, parse_word("s1 s2", 5)).matrix is None


def test_pseudo_anosov_growth_at_large_t():
    # the rescaled float product stays finite far beyond exp overflow, and
    # log PF of a matrix with log-convex entries is convex in t
    res = classify(5, parse_word(LARGE_T_WORD, 5))
    assert res.braid_type == "pseudo_anosov"
    with pytest.raises(OverflowError):
        am.pf_eigenvalue(res.matrix, 300.0)
    ts = (-1000.0, -300.0, 0.0, 300.0, 1000.0)
    hs = [res.growth.evaluate(t) for t in ts]
    assert all(math.isfinite(h) for h in hs)
    slopes = [(hs[i + 1] - hs[i]) / (ts[i + 1] - ts[i]) for i in range(len(ts) - 1)]
    assert all(a <= b + 1e-12 for a, b in zip(slopes, slopes[1:])), slopes
    # against the exact matrix evaluated in the log domain, term by term
    for t, h in zip(ts, hs):
        assert h == pytest.approx(_log_domain_log_pf(res.matrix, t), rel=1e-12)


def _log_domain_log_pf(matrix, t):
    from braiddyn.fusion import pf_dim

    def log_entry(p):
        logs = [math.log(pf_dim(p.n, v)) + e * t for e, v in p.terms]
        if not logs:
            return -math.inf
        top = max(logs)
        return top + math.log(sum(math.exp(x - top) for x in logs))

    (a, b), (c, d) = [[log_entry(p) for p in row] for row in matrix]
    top = max(a, b, c, d)
    a, b, c, d = (math.exp(x - top) for x in (a, b, c, d))
    return top + math.log(0.5 * (a + d + math.sqrt((a - d) ** 2 + 4 * b * c)))


def test_long_run_is_a_few_arrow_runs(monkeypatch):
    # counting, not timing: the block twist1[0]^200001 is its entry arrow
    # and one loop run, so the path has at most 4 twist runs after the
    # |gamma_exp| gamma steps; log_pf evaluates each distinct arrow once
    # per t, a second call at the same t evaluates none, and a run is
    # raised by squaring, so even 2^62 steps of a loop finish
    res = classify(5, parse_word("s1^200000 s2^-3", 5))
    assert res.braid_type == "pseudo_anosov"
    gammas = abs(res.normal_form.gamma_exp)
    assert all(isinstance(arrow.label, int) for arrow, _ in res.path.runs[:gammas])
    assert len(res.path.runs) - gammas <= 4
    assert sum(mult for _, mult in res.path.runs) == 200006
    evals = []
    real_eval = am._eval_arrow
    monkeypatch.setattr(am, "_eval_arrow", lambda *a: evals.append(1) or real_eval(*a))
    t = 0.4375  # no other test evaluates at this t, so no arrow keeps it yet
    h = res.growth.evaluate(t)
    assert math.isfinite(h)
    assert len(evals) == len({id(arrow) for arrow, _ in res.path.runs})
    evals.clear()
    assert res.growth.evaluate(t) == h and evals == []
    # the loop twist1[0] at v0 is [[s^-1, [Pi_1]], [0, 1]]: h_t of its
    # k-th power is k max(0, -t)
    loop = am.build(5).twist_arrows[(make_twist(5, 1, 0), ("v", 0))]
    path = am.PathWitness(("v", 0), ((loop, 2**62),), True)
    for t in (-0.5, 0.0, 0.5):
        assert am.log_pf(path, t) == 2**62 * max(0.0, -t)


def test_long_run_growth_matches_exact_matrix():
    res = classify(5, parse_word("s1^2000 s2^-3", 5))
    assert max(mult for _, mult in res.path.runs) == 2000
    for t in (-0.5, 0.0, 0.5):
        assert res.growth.evaluate(t) == pytest.approx(
            _log_domain_log_pf(res.matrix, t), rel=1e-12
        )


# --- n = 3 trace oracle at long lengths ---------------------------------------------


def _sl2_trace(runs):
    """Trace of the B3 image in SL(2, Z): s1 -> [[1,1],[0,1]], s2 -> [[1,0],[-1,1]]."""
    a, b, c, d = 1, 0, 0, 1
    for g, e in runs:
        if g == 1:  # right-multiply by [[1, e], [0, 1]]
            b, d = a * e + b, c * e + d
        else:  # right-multiply by [[1, 0], [-e, 1]]
            a, c = a - b * e, c - d * e
    return a + d


def _run_text(runs):
    return " ".join(f"s{g}^{e}" for g, e in runs)


def test_n3_trace_oracle_long_words():
    # B3 maps onto SL(2, Z); |tr| > 2 is pseudo-Anosov with dilatation the
    # larger eigenvalue, |tr| < 2 is periodic.  Random long words are almost
    # all pseudo-Anosov, so conjugates of periodic roots by long random
    # words cover the other branch.
    rng = random.Random(2023)

    def random_runs():
        count = rng.randint(40, 120)
        return [(rng.choice((1, 2)), rng.choice((1, -1)) * rng.randint(1, 3)) for _ in range(count)]

    words = [random_runs() for _ in range(200)]
    for root in ([(1, 1), (2, 1)], [(1, 1), (2, 1), (1, 1)], [(2, -1), (1, -1)] * 2):
        for _ in range(10):
            c = random_runs()
            words.append(c + root + [(g, -e) for g, e in reversed(c)])
    seen = {"pseudo_anosov": 0, "periodic": 0}
    for runs in words:
        tr = abs(_sl2_trace(runs))
        res = classify(3, parse_word(_run_text(runs), 3))
        if tr > 2:
            x = float(tr)
            h0 = math.log(x) + math.log((1.0 + math.sqrt(1.0 - 4.0 / (x * x))) / 2.0)
            assert res.braid_type == "pseudo_anosov", _run_text(runs)
            assert res.h0() == pytest.approx(h0, rel=1e-8), _run_text(runs)
            seen["pseudo_anosov"] += 1
        elif tr < 2:
            assert res.braid_type == "periodic", _run_text(runs)
            seen["periodic"] += 1
    assert seen["pseudo_anosov"] >= 190 and seen["periodic"] == 30
