import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from braiddyn.automaton import (
    PathWitness,
    _identity_matrix,
    _witness_start,
    build,
    joins,
    log_pf,
    mat_mul,
    path_matrix,
    path_zero_pattern,
    pf_eigenvalue,
    recognize,
    recognizes_word,
    simulate,
    zero_pattern,
)
from braiddyn.braidword import (
    BraidWord,
    NormalForm,
    TwistLetter,
    pair_viable,
    to_normal_form,
    twist_modulus,
)
from braiddyn.fusion import FusionVec, MassPoly, eval_mass, mass_mul

SQ2 = math.sqrt(2)


def mono(n, a, e, mult=1):
    return MassPoly.monomial(n, a, e, mult)


def eval_matrix(m, t=0.0):
    return [[eval_mass(m[r][c], t) for c in range(2)] for r in range(2)]


def matrices_close(got, want, tol=1e-9):
    return all(abs(got[r][c] - want[r][c]) <= tol for r in range(2) for c in range(2))


# --- structure ----------------------------------------------------------------


def test_build_counts():
    for n in range(3, 9):
        auto = build(n)
        assert len(auto.vertices) == n
        twist = [a for a in auto.arrows if not isinstance(a.label, int)]
        gammas = [a for a in auto.arrows if isinstance(a.label, int)]
        assert len(twist) == n * (n - 1)
        assert len(gammas) == 2 * n
        incoming = Counter(a.target for a in twist)
        assert all(c == n - 1 for c in incoming.values())
        # each letter misses exactly one source vertex
        per_letter = Counter(a.label for a in twist)
        assert all(c == n - 1 for c in per_letter.values())


def test_build_rejects_small_n():
    with pytest.raises(ValueError):
        build(2)


def test_n4_forbidden_arrow_absent():
    auto = build(4)
    assert (TwistLetter(2, 0), ("v", 0)) not in auto.twist_arrows
    assert (TwistLetter(1, 0), ("u", 1)) not in auto.twist_arrows
    labels = {
        (a.source, a.target)
        for a in auto.arrows
        if not isinstance(a.label, int) and a.label == TwistLetter(2, 0)
    }
    assert (("v", 0), ("u", 0)) not in labels


def test_n5_example_arrow_matrix():
    auto = build(5)
    arrow = auto.twist_arrows[(TwistLetter(1, 0), ("v", 1))]
    delta = 2 * math.cos(math.pi / 5)
    want = [[delta, 1.0], [delta, delta]]
    got = eval_matrix(arrow.matrix, 0.0)
    assert matrices_close(got, want)
    # symbolically, folded: [[d s^-1, 1], [d s^-1, d]] with d = [Pi_1]
    expect = (
        (mono(5, 1, -1), mono(5, 0, 0)),
        (mono(5, 1, -1), mono(5, 1, 0)),
    )
    for r in range(2):
        for c in range(2):
            assert arrow.matrix[r][c].fold() == expect[r][c].fold()


def test_n4_fixture_matrices_at_zero():
    auto = build(4)
    fixtures = {
        (TwistLetter(2, 0), ("u", 0)): [[1, SQ2], [0, 1]],
        (TwistLetter(1, 0), ("v", 0)): [[1, SQ2], [0, 1]],
        (TwistLetter(2, 0), ("u", 1)): [[1, 0], [SQ2, 1]],
        (TwistLetter(1, 0), ("v", 1)): [[1, 0], [SQ2, 1]],
        (TwistLetter(2, 0), ("v", 1)): [[SQ2, 1], [1, SQ2]],
        (TwistLetter(1, 0), ("u", 0)): [[SQ2, 1], [1, SQ2]],
    }
    for key, want in fixtures.items():
        got = eval_matrix(auto.twist_arrows[key].matrix, 0.0)
        assert matrices_close(got, want), key


def test_gamma_wraparound_scalars():
    auto5 = build(5)
    wrap = auto5.gamma_arrows[(1, ("v", 4))]
    assert wrap.target == ("v", 0)
    assert eval_mass(wrap.matrix[0][0], 1.0) == pytest.approx(math.exp(-2.0))
    assert auto5.gamma_arrows[(-1, ("v", 0))].target == ("v", 4)
    auto4 = build(4)
    wrap4 = auto4.gamma_arrows[(1, ("u", 1))]
    assert wrap4.target == ("u", 0)
    assert wrap4.matrix[0][0] == MassPoly.from_dict(4, {-1: FusionVec.simple(4, 2)})
    # non-wraparound gammas are identities
    assert auto5.gamma_arrows[(1, ("v", 0))].matrix == _identity_matrix(5)


# --- recognition ---------------------------------------------------------------


def test_recognize_closed_path_example():
    auto = build(5)
    nf = NormalForm(5, ((TwistLetter(1, 3), 1), (TwistLetter(1, 0), 1)), 1)
    witness = recognize(auto, nf, require_closed=True)
    assert witness is not None and witness.closed
    assert witness.start == ("v", 0)
    hops = [(a.source, a.label_text(), a.target) for a in witness.arrows]
    assert hops == [
        (("v", 0), "gamma", ("v", 1)),
        (("v", 1), "twist1[3]", ("v", 3)),
        (("v", 3), "twist1[0]", ("v", 0)),
    ]


def test_unrecognised_word():
    # sigma_1 sigma_2^2 sigma_1 read as raw twist letters jams everywhere
    auto = build(5)
    letters = [TwistLetter(1, 0), TwistLetter(1, 3), TwistLetter(1, 3), TwistLetter(1, 0)]
    assert not recognizes_word(auto, letters)
    assert all(simulate(auto, letters, start) is None for start in auto.vertex_order())


def test_empty_word_trivial_closed_path():
    auto = build(5)
    witness = recognize(auto, NormalForm(5, (), 0), require_closed=True)
    assert witness is not None and witness.closed and witness.start == ("v", 0)
    assert witness.arrows == ()


def test_recognize_prefers_closed_but_falls_back():
    auto = build(5)
    # a single gamma never closes up; the scan falls back to the v0 start
    nf = NormalForm(5, (), 1)
    witness = recognize(auto, nf, require_closed=True)
    assert witness is not None and not witness.closed and witness.start == ("v", 0)
    # sigma_{P_1} gamma^5: closed only from v0, which the scan prefers
    nf = NormalForm(5, ((TwistLetter(1, 0), 1),), 5)
    witness = recognize(auto, nf, require_closed=True)
    assert witness is not None and witness.closed and witness.start == ("v", 0)


# The scan over every start vertex that recognition used before it became one
# pass; kept here as the oracle for the pass.


def scan_witness(auto, letters, require_closed=False):
    first = None
    for start in auto.vertex_order():
        path = simulate(auto, letters, start)
        if path is None:
            continue
        end = path[-1].target if path else start
        witness = PathWitness(start, path, end == start)
        if not require_closed:
            return witness
        if witness.closed:
            return witness
        if first is None:
            first = witness
    return first


def scan_recognize(auto, nf, require_closed=False):
    return scan_witness(auto, nf.letters_applied(), require_closed)


def scan_recognizes_word(auto, letters):
    return any(simulate(auto, letters, start) is not None for start in auto.vertex_order())


_AUTOMATA = {n: build(n) for n in range(3, 17)}


def twist_letters(n):
    return _AUTOMATA[n].letters()


@st.composite
def letter_sequences(draw):
    n = draw(st.integers(3, 16))
    letter = st.one_of(st.sampled_from([1, -1]), st.sampled_from(twist_letters(n)))
    return n, draw(st.lists(letter, max_size=14))


@st.composite
def normal_forms(draw):
    n = draw(st.integers(3, 16))
    m = twist_modulus(n)
    blocks, prev = [], None
    for _ in range(draw(st.integers(0, 6))):
        allowed = [
            x for x in twist_letters(n) if prev is None or (x != prev and pair_viable(n, x, prev))
        ]
        prev = draw(st.sampled_from(allowed))
        blocks.append((prev, draw(st.integers(1, 3))))
    return NormalForm(n, tuple(blocks), draw(st.integers(-2 * m, 2 * m)))


@settings(max_examples=400, deadline=None)
@given(letter_sequences())
def test_one_pass_matches_scan_on_letter_sequences(case):
    n, letters = case
    auto = _AUTOMATA[n]
    assert recognizes_word(auto, letters) == scan_recognizes_word(auto, letters)
    for require_closed in (False, True):
        want = scan_witness(auto, letters, require_closed)
        got = _witness_start(auto, letters, require_closed)
        assert got == (want.start if want else None)


@settings(max_examples=300, deadline=None)
@given(normal_forms(), st.booleans())
def test_one_pass_matches_scan_on_normal_forms(nf, require_closed):
    auto = _AUTOMATA[nf.n]
    got = recognize(auto, nf, require_closed=require_closed)
    assert got == scan_recognize(auto, nf, require_closed=require_closed)
    assert got is not None  # a normal form is always recognised
    doubled = nf.letters_applied() * 2
    assert recognizes_word(auto, doubled) == scan_recognizes_word(auto, doubled)


@pytest.mark.parametrize("n", [3, 4, 5, 8, 16])
def test_one_pass_matches_scan_on_random_words(n):
    rng = random.Random(3000 + n)
    auto = _AUTOMATA[n]
    closed = 0
    for _ in range(150):
        k = rng.randint(0, 20)
        w = BraidWord(n, tuple((rng.choice((1, 2)), rng.choice((1, -1))) for _ in range(k)))
        nf = to_normal_form(w)
        for require_closed in (False, True):
            got = recognize(auto, nf, require_closed=require_closed)
            assert got == scan_recognize(auto, nf, require_closed=require_closed)
            closed += got.closed
    assert closed > 0


def test_joins_is_the_pair_rule():
    for n in range(3, 17):
        m = twist_modulus(n)
        for x in twist_letters(n):
            assert joins(n, x, 0, x)
            for y in twist_letters(n):
                assert joins(n, x, 0, y) == pair_viable(n, y, x)
                for g in range(-m - 1, m + 2):
                    gammas = [1 if g > 0 else -1] * abs(g)
                    assert joins(n, x, g, y) == scan_recognizes_word(
                        _AUTOMATA[n], [x, *gammas, y]
                    )


# --- path matrices --------------------------------------------------------------


def test_identity_path_matrix():
    auto = build(5)
    witness = recognize(auto, NormalForm(5, (), 0))
    assert path_matrix(auto, witness) == _identity_matrix(5)


def test_n4_fixture_product():
    auto = build(4)
    nf = to_normal_form(BraidWord(4, ((2, 1),) * 2 + ((1, 1),) * 3))
    witness = recognize(auto, nf, require_closed=True)
    m = path_matrix(auto, witness)
    want = [[5.0, 4 * SQ2], [3 * SQ2, 5.0]]
    assert matrices_close(eval_matrix(m, 0.0), want)
    assert pf_eigenvalue(m, 0.0) == pytest.approx(5 + 2 * math.sqrt(6), abs=1e-9)


def test_zero_patterns():
    n = 5
    up = ((mono(n, 0, -1), mono(n, 1, 0)), (MassPoly.zero(n), mono(n, 0, 0)))
    assert zero_pattern(up) == "upper"
    lo = ((mono(n, 0, 0), MassPoly.zero(n)), (mono(n, 1, 0), mono(n, 0, 0)))
    assert zero_pattern(lo) == "lower"
    assert zero_pattern(_identity_matrix(n)) == "diagonal"
    full = ((mono(n, 0, 0), mono(n, 0, 0)), (mono(n, 0, 0), mono(n, 0, 0)))
    assert zero_pattern(full) == "full"
    broken = ((MassPoly.zero(n), mono(n, 0, 0)), (mono(n, 0, 0), mono(n, 0, 0)))
    with pytest.raises(ValueError):
        zero_pattern(broken)


def test_pf_eigenvalue_examples():
    assert pf_eigenvalue(_identity_matrix(5), 0.37) == 1.0
    n = 4
    m = (
        (mono(n, 0, 0, 5), mono(n, 1, 0, 4)),
        (mono(n, 1, 0, 3), mono(n, 0, 0, 5)),
    )
    assert pf_eigenvalue(m, 0.0) == pytest.approx(5 + 2 * math.sqrt(6), abs=1e-12)


# --- algebraic invariants --------------------------------------------------------


def test_path_matrix_functoriality():
    rng = random.Random(5)
    for n in (4, 5, 6):
        auto = build(n)
        for _ in range(15):
            start = rng.choice(auto.vertex_order())
            arrows = []
            cur = start
            for _ in range(rng.randint(1, 6)):
                outgoing = [
                    a
                    for a in auto.arrows
                    if a.source == cur
                ]
                arrow = rng.choice(outgoing)
                arrows.append(arrow)
                cur = arrow.target
            cut = rng.randint(0, len(arrows))
            from braiddyn.automaton import PathWitness

            whole = PathWitness(start, tuple(arrows), False)
            left = PathWitness(start, tuple(arrows[:cut]), False)
            right = PathWitness(arrows[cut - 1].target if cut else start, tuple(arrows[cut:]), False)
            assert path_matrix(auto, whole) == mat_mul(
                path_matrix(auto, right), path_matrix(auto, left)
            )


def test_conjugation_coherence_exact():
    for n in (3, 4, 5, 6, 7, 8):
        auto = build(n)
        m = twist_modulus(n)
        for (letter, src), arrow in auto.twist_arrows.items():
            shifted_letter = TwistLetter(letter.family, (letter.index + 1) % m)
            shifted_src = (src[0], (src[1] + 1) % m)
            translated = auto.twist_arrows[(shifted_letter, shifted_src)]
            g_out = auto.gamma_arrows[(1, arrow.target)]
            g_in = auto.gamma_arrows[(-1, shifted_src)]
            assert translated.matrix == mat_mul(
                g_out.matrix, mat_mul(arrow.matrix, g_in.matrix)
            ), (n, letter.label(), src)


def test_arrow_matrices_match_unit_level_supports():
    # independent recomputation: every arrow column must agree with the
    # letter-support bookkeeping applied to the source basis units
    from braiddyn.twistcalc import support_column

    rng = random.Random(77)
    for n in (4, 5, 6, 7):
        auto = build(n)
        keys = sorted(auto.twist_arrows, key=lambda k: (k[0].family, k[0].index, k[1]))
        sample = rng.sample(keys, min(30, len(keys)))
        for letter, src in sample:
            arrow = auto.twist_arrows[(letter, src)]
            tgt_basis = auto.vertices[arrow.target].basis
            for c, unit in enumerate(auto.vertices[src].basis):
                col = support_column(n, letter, unit, tgt_basis)
                assert (arrow.matrix[0][c], arrow.matrix[1][c]) == col, (
                    n,
                    letter.label(),
                    src,
                )


def test_entries_nonnegative_at_sample_points():
    for n in (4, 5, 6):
        auto = build(n)
        for arrow in auto.arrows:
            for t in (-1.0, 0.0, 1.0):
                for r in range(2):
                    for c in range(2):
                        assert eval_mass(arrow.matrix[r][c], t) >= 0.0


def test_full_closed_matrices_have_pf_at_least_two():
    rng = random.Random(9)
    from braiddyn.automaton import PathWitness

    for n in (4, 5):
        auto = build(n)
        found = 0
        for _ in range(200):
            start = rng.choice(auto.vertex_order())
            cur, arrows = start, []
            for _ in range(rng.randint(2, 6)):
                arrow = rng.choice([a for a in auto.arrows if a.source == cur])
                arrows.append(arrow)
                cur = arrow.target
            if cur != start:
                continue
            matrix = path_matrix(auto, PathWitness(start, tuple(arrows), True))
            if zero_pattern(matrix) == "full":
                found += 1
                assert pf_eigenvalue(matrix, 0.0) >= 2.0 - 1e-12
        assert found > 10


def test_basepoint_independence():
    from braiddyn.classify import classify

    for n, letters in ((5, ((1, 1), (1, 1), (2, 1), (2, 1))), (4, ((2, 1), (2, 1), (1, 1), (1, 1), (1, 1)))):
        auto = build(n)
        res = classify(n, BraidWord(n, letters))
        base = res.matrix
        arrows = list(res.path.arrows)
        for r in range(1, len(arrows)):
            rotated = arrows[r:] + arrows[:r]
            m = _identity_matrix(n)
            for a in rotated:
                m = mat_mul(a.matrix, m)
            assert (m[0][0] + m[1][1]) == (base[0][0] + base[1][1])
            lhs = mass_mul(m[0][0], m[1][1]) + mass_mul(base[0][1], base[1][0])
            rhs = mass_mul(base[0][0], base[1][1]) + mass_mul(m[0][1], m[1][0])
            assert lhs == rhs


def test_json_dump_shape():
    auto = build(5)
    data = auto.to_json()
    assert data["n"] == 5
    assert len(data["vertices"]) == 5
    assert len(data["arrows"]) == 30
    assert data["vertices"][0] == {
        "id": "v0",
        "basis": [{"family": "V1", "index": 0}, {"family": "V2", "index": 0}],
    }
    auto4 = build(4)
    data4 = auto4.to_json()
    assert len(data4["vertices"]) == 4
    assert len(data4["arrows"]) == 20
    assert not any(
        a["from"] == "v0" and a["to"] == "u0" for a in data4["arrows"]
    )


# --- the classification route against the exact product -------------------------


def _random_recognised_paths(rng, n, count, max_len):
    """Paths of recognised normal forms of seeded random words, closed or not."""
    auto = build(n)
    out = []
    while len(out) < count:
        k = rng.randint(1, max_len)
        w = BraidWord(n, tuple((rng.choice((1, 2)), rng.choice((1, -1))) for _ in range(k)))
        path = recognize(auto, to_normal_form(w), require_closed=True)
        if path is not None and path.arrows:
            out.append(path)
    return auto, out


def _pattern_or_error(pattern_of, arg):
    try:
        return pattern_of(arg)
    except ValueError:
        return "vanishing diagonal"


@pytest.mark.parametrize("n", [3, 4, 5, 8, 16])
def test_boolean_path_pattern_matches_exact_product(n):
    # the verdict's zero pattern comes from Boolean arrow supports; it must
    # equal the pattern of the exact MassPoly product on every path
    rng = random.Random(1000 + n)
    auto, paths = _random_recognised_paths(rng, n, 25, 14)
    seen = Counter()
    for path in paths:
        want = _pattern_or_error(zero_pattern, path_matrix(auto, path))
        assert _pattern_or_error(path_zero_pattern, path) == want
        seen[want] += 1
    # random arrow walks, closed or not, reach every shape
    for _ in range(60):
        cur, arrows = rng.choice(auto.vertex_order()), []
        start = cur
        for _ in range(rng.randint(1, 6)):
            arrow = rng.choice([a for a in auto.arrows if a.source == cur])
            arrows.append(arrow)
            cur = arrow.target
        walk = PathWitness(start, tuple(arrows), cur == start)
        want = _pattern_or_error(zero_pattern, path_matrix(auto, walk))
        assert _pattern_or_error(path_zero_pattern, walk) == want
        seen[want] += 1
    assert seen["full"] > 0


@pytest.mark.parametrize("n", [3, 4, 5, 8, 16])
def test_log_pf_matches_exact_eigenvalue(n):
    rng = random.Random(2000 + n)
    auto, paths = _random_recognised_paths(rng, n, 25, 14)
    checked = 0
    for path in paths:
        if not path.closed:
            continue
        matrix = path_matrix(auto, path)
        for t in (-1.0, -0.5, 0.0, 0.5, 1.0):
            want = math.log(pf_eigenvalue(matrix, t))
            assert log_pf(path, t) == pytest.approx(want, rel=1e-9, abs=1e-12), (t, path)
        checked += 1
    assert checked > 5


def test_log_pf_of_empty_path_is_zero():
    assert log_pf(PathWitness(("v", 0), (), True), 123.0) == 0.0
