import json
import math
import random
import sys
import threading
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from braiddyn import automaton
from braiddyn.automaton import (
    Arrow,
    PathWitness,
    _KEPT_T,
    _arrow_matrix,
    _eval_arrow,
    build,
    joins,
    log_pf,
    path_matrix,
    path_terms,
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
    forbidden_source,
    parse_word,
    target_vertex,
    to_normal_form,
    twist_modulus,
)
from braiddyn.classify import _AUTOMATA as _CLASSIFY_AUTOMATA, _automaton, classify
from braiddyn.fusion import MassPoly, eval_mass, mass_mul, product_tree
from braiddyn.twistcalc import V1, V2, SemistableUnit, letter_support

from automaton_oracle import (
    build_by_wrap,
    fold_log_pf,
    fold_zero_pattern,
    identity_matrix,
    letters_applied,
    mat_mul,
    path_from_arrows,
    runs_log_pf,
    support_column,
)

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
    assert wrap4.matrix[0][0] == MassPoly.monomial(4, 2, -1)
    # non-wraparound gammas are identities
    assert auto5.gamma_arrows[(1, ("v", 0))].matrix == identity_matrix(5)


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
        witness = path_from_arrows(start, path, end == start)
        if not require_closed:
            return witness
        if witness.closed:
            return witness
        if first is None:
            first = witness
    return first


def scan_recognize(auto, nf, require_closed=False):
    return scan_witness(auto, letters_applied(nf), require_closed)


def scan_recognizes_word(auto, letters):
    return any(simulate(auto, letters, start) is not None for start in auto.vertex_order())


_AUTOMATA = {n: build(n) for n in range(3, 17)}


def twist_letters(n):
    return (_AUTOMATA.get(n) or _automaton(n)).letters()


@st.composite
def letter_sequences(draw):
    n = draw(st.integers(3, 16))
    letter = st.one_of(st.sampled_from([1, -1]), st.sampled_from(twist_letters(n)))
    return n, draw(st.lists(letter, max_size=14))


@st.composite
def normal_forms(draw, mults=st.integers(1, 3), ns=st.integers(3, 16), gammas=None):
    n = draw(ns)
    m = twist_modulus(n)
    blocks, prev = [], None
    for _ in range(draw(st.integers(0, 6))):
        allowed = [
            x for x in twist_letters(n) if prev is None or (x != prev and joins(n, prev, 0, x))
        ]
        prev = draw(st.sampled_from(allowed))
        blocks.append((prev, draw(mults)))
    gamma_exp = draw(st.integers(-2 * m, 2 * m) if gammas is None else gammas)
    return NormalForm(n, tuple(blocks), gamma_exp)


@settings(max_examples=400, deadline=None)
@given(letter_sequences())
def test_one_pass_matches_scan_on_letter_sequences(case):
    n, letters = case
    auto = _AUTOMATA[n]
    assert recognizes_word(auto, letters) == scan_recognizes_word(auto, letters)


@settings(max_examples=300, deadline=None)
@given(normal_forms(), st.booleans())
def test_one_pass_matches_scan_on_normal_forms(nf, require_closed):
    auto = _AUTOMATA[nf.n]
    got = recognize(auto, nf, require_closed=require_closed)
    assert got == scan_recognize(auto, nf, require_closed=require_closed)
    assert got is not None  # a normal form is always recognised
    doubled = letters_applied(nf) * 2
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
                assert joins(n, x, 0, y) == (forbidden_source(n, y) != target_vertex(n, x))
                for g in range(-m - 1, m + 2):
                    gammas = [1 if g > 0 else -1] * abs(g)
                    assert joins(n, x, g, y) == scan_recognizes_word(
                        _AUTOMATA[n], [x, *gammas, y]
                    )


# --- path matrices --------------------------------------------------------------


def test_identity_path_matrix():
    auto = build(5)
    witness = recognize(auto, NormalForm(5, (), 0))
    assert path_matrix(auto, witness) == identity_matrix(5)


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
    assert zero_pattern(identity_matrix(n)) == "diagonal"
    full = ((mono(n, 0, 0), mono(n, 0, 0)), (mono(n, 0, 0), mono(n, 0, 0)))
    assert zero_pattern(full) == "full"
    broken = ((MassPoly.zero(n), mono(n, 0, 0)), (mono(n, 0, 0), mono(n, 0, 0)))
    with pytest.raises(ValueError):
        zero_pattern(broken)


def test_pf_eigenvalue_examples():
    assert pf_eigenvalue(identity_matrix(5), 0.37) == 1.0
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
            whole = path_from_arrows(start, tuple(arrows), False)
            left = path_from_arrows(start, tuple(arrows[:cut]), False)
            right = path_from_arrows(arrows[cut - 1].target if cut else start, tuple(arrows[cut:]), False)
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
    # letter-support bookkeeping applied to the source basis units, both
    # through `_arrow_matrix` and piece by piece
    rng = random.Random(77)
    for n in (4, 5, 6, 7):
        auto = build(n)
        keys = sorted(auto.twist_arrows, key=lambda k: (k[0].family, k[0].index, k[1]))
        sample = rng.sample(keys, min(30, len(keys)))
        for letter, src in sample:
            arrow = auto.twist_arrows[(letter, src)]
            tgt_basis = auto.vertices[arrow.target].basis
            units = auto.vertices[src].basis
            columns = [letter_support(n, letter, unit) for unit in units]
            assert _arrow_matrix(n, columns, tgt_basis) == arrow.matrix
            for c, unit in enumerate(units):
                col = support_column(n, letter, unit, tgt_basis)
                assert (arrow.matrix[0][c], arrow.matrix[1][c]) == col, (
                    n,
                    letter.label(),
                    src,
                )


@pytest.mark.parametrize("n", [*range(3, 20), 32])
def test_build_equals_base_and_wrap_oracle(n):
    # arrow for arrow, in the same order, with the same lookup tables and dump
    auto, want = build(n), build_by_wrap(n)
    assert auto.vertices == want.vertices
    assert auto.arrows == want.arrows
    assert list(auto.twist_arrows.items()) == list(want.twist_arrows.items())
    assert list(auto.gamma_arrows.items()) == list(want.gamma_arrows.items())
    assert json.dumps(auto.to_json()) == json.dumps(want.to_json())


def test_arrow_matrix_sums_pieces_on_one_entry():
    # two pieces on the same row and level add coefficient rows; a piece
    # outside the target basis is an error
    n = 5
    basis = (SemistableUnit(V1, 0), SemistableUnit(V2, 0))
    columns = [
        {SemistableUnit(V1, 0, 1, -1): 2, SemistableUnit(V1, 0, 3, -1): 1},
        {SemistableUnit(V2, 0, 0, 2): 1},
    ]
    (a, b), (c, d) = _arrow_matrix(n, columns, basis)
    assert a == MassPoly(n, ((-1, (0, 2, 0, 1)),))
    assert b.is_zero() and c.is_zero()
    assert d == mono(n, 0, 2)
    with pytest.raises(KeyError):
        _arrow_matrix(n, [{SemistableUnit(V1, 1): 1}, {}], basis)


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
            matrix = path_matrix(auto, path_from_arrows(start, tuple(arrows), True))
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
            m = identity_matrix(n)
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
        walk = path_from_arrows(start, tuple(arrows), cur == start)
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
    assert log_pf(path_from_arrows(("v", 0), (), True), 123.0) == 0.0


# --- run-length paths against the per-arrow folds --------------------------------

T_GRID = (-1000.0, -0.5, 0.0, 0.5, 1000.0)
LONG_MULTS = st.one_of(st.integers(1, 3), st.sampled_from([64, 1000]))


def _outcome(f, *args):
    try:
        return f(*args)
    except (ValueError, ZeroDivisionError) as exc:  # no PF eigenvalue, vanishing diagonal
        return type(exc).__name__


def assert_runs_match_folds(path):
    """The run-length pattern and log_pf against the per-arrow folds of the oracle.

    log_pf agrees to 1e-12 relative to max(1, |h|): h near 0 is a
    cancellation of log scales.  A product of L arrows whose entries are
    each exact to one ulp is itself exact only to about L ulps, by either
    route, so 2 L ulps are allowed on top.
    """
    assert _outcome(path_zero_pattern, path) == _outcome(fold_zero_pattern, path)
    for t in T_GRID:
        assert_log_pf_matches_fold(path, t)


def assert_log_pf_matches_fold(path, t):
    """log_pf(path, t) against ``fold_log_pf``, within the bound above; returns log_pf's outcome."""
    got, want = _outcome(log_pf, path, t), _outcome(fold_log_pf, path, t)
    if isinstance(want, str):
        assert got == want, t
        return got
    length = sum(mult for _, mult in path.runs)
    bound = 1e-12 * max(1.0, abs(want)) + 2 * length * sys.float_info.epsilon
    assert abs(got - want) <= bound, (t, got, want)
    return got


@settings(max_examples=150, deadline=None)
@given(normal_forms(mults=LONG_MULTS), st.booleans())
def test_run_length_folds_on_recognised_paths(nf, require_closed):
    auto = _AUTOMATA[nf.n]
    path = recognize(auto, nf, require_closed=require_closed)
    assert path.arrows == simulate(auto, letters_applied(nf), path.start)
    assert all(mult >= 1 for _, mult in path.runs)
    assert all(x is not y for (x, _), (y, _) in zip(path.runs, path.runs[1:]))
    assert len(path.runs) <= abs(nf.gamma_exp) + 2 * len(nf.blocks)
    assert_runs_match_folds(path)


@settings(max_examples=150, deadline=None)
@given(st.integers(3, 16), st.data())
def test_run_length_folds_on_random_walks(n, data):
    # any walk, closed or not; a loop arrow (source == target) may repeat
    auto = _AUTOMATA[n]
    cur = start = data.draw(st.sampled_from(auto.vertex_order()))
    runs = []
    for _ in range(data.draw(st.integers(0, 8))):
        arrow = data.draw(st.sampled_from([a for a in auto.arrows if a.source == cur]))
        mult = data.draw(LONG_MULTS) if arrow.target == cur else 1
        if runs and runs[-1][0] is arrow:
            runs[-1] = (arrow, runs[-1][1] + mult)
        else:
            runs.append((arrow, mult))
        cur = arrow.target
    path = PathWitness(start, tuple(runs), cur == start)
    assert path == path_from_arrows(start, path.arrows, cur == start)
    assert path.end() == cur
    assert path.arrows == simulate(auto, [a.label for a in path.arrows], start)
    assert_runs_match_folds(path)


@pytest.mark.parametrize("n", [3, 4, 5, 8, 16])
def test_run_length_folds_on_a_loop_taken_100000_times(n):
    # a recognised path whose middle block is one loop arrow repeated 10^5 - 1 times
    rng = random.Random(4000 + n)
    auto = _AUTOMATA[n]
    x = rng.choice(auto.letters())
    y = rng.choice([w for w in auto.letters() if w != x and joins(n, w, 0, x)])
    z = rng.choice([w for w in auto.letters() if w != x and joins(n, x, 0, w)])
    nf = NormalForm(n, ((y, 2), (x, 10**5), (z, 1)), rng.randint(-3, 3))
    path = recognize(auto, nf)
    loop, mult = max(path.runs, key=lambda run: run[1])
    assert loop.source == loop.target and mult == 10**5 - 1
    assert path.arrows == simulate(auto, letters_applied(nf), path.start)
    assert_runs_match_folds(path)


@pytest.mark.parametrize("n", [3, 5, 8, 16])
def test_log_pf_scale_does_not_drift_on_a_long_run(n):
    # one loop run of N steps: h_t = N (log rho(X) + level t), X and level
    # from _eval_arrow.  A loop matrix is triangular, so rho(X) = max(p, s).
    # The scale is a power of two and the levels an integer sum, both
    # exact, so even N = 2^62 stays within 1e-12; a scale summed as float
    # logs drifts by about N ulps
    loops = [arrow for arrow in _AUTOMATA[n].arrows if arrow.source == arrow.target]
    assert loops
    for loop in loops:
        for N in (10**6, 2**40, 2**62):
            path = PathWitness(loop.source, ((loop, N),), True)
            for t in (0.0, 0.5, -0.5, 1000.0, -1000.0):
                p, q, r, s, level = _eval_arrow(loop, t)
                assert q * r == 0
                want = N * (math.log(max(p, s)) + level * t)
                got = log_pf(path, t)
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (loop.label, N, t, got)


# more values than an arrow keeps, so kept evaluations are pushed out and redone
T_POOL = (-1000.0, -40.0, -3.0, -0.5, -0.0, 0.0, 0.25, 0.5, 3.0, 1000.0)


@settings(max_examples=100, deadline=None)
@given(
    normal_forms(mults=LONG_MULTS),
    st.booleans(),
    st.lists(st.sampled_from(T_POOL), min_size=1, max_size=30),
)
def test_kept_arrow_evaluations_match_folds(nf, require_closed, ts):
    path = recognize(_AUTOMATA[nf.n], nf, require_closed=require_closed)
    first: dict[str, object] = {}
    for t in ts:
        got = assert_log_pf_matches_fold(path, t)
        # a repeated t gives the identical float (or error), kept or not
        assert repr(first.setdefault(repr(t), got)) == repr(got), t
        assert all(len(arrow.at_t) <= _KEPT_T for arrow, _ in path.runs)
    for t in (math.nan, math.inf, -math.inf):
        # the empty path is the identity, whose h_t is 0 at every t
        assert repr(log_pf(path, t)) == ("nan" if path.runs else "0.0"), t
    for t in (1e308, -1e308):
        # e t overflows for |e| >= 2: an arrow whose top term is then
        # inf - inf makes both routes nan.  Otherwise the fold's float sum of
        # scales may overflow or absorb its log terms, so only nan is compared
        got = log_pf(path, t)
        assert not math.isnan(got) or math.isnan(fold_log_pf(path, t)), t


def test_kept_arrow_evaluations_stay_bounded():
    # counting, not timing: after 10^4 distinct t, the arrows of the path's
    # factors hold the last _KEPT_T values of t and no other arrow holds
    # any, not even an identity gamma arrow of the path
    auto = build(5)  # not shared with other tests
    path = recognize(auto, to_normal_form(BraidWord(5, ((1, 2), (2, -1), (1, 1), (2, -3)))))
    ts = [k / 64 - 70.0 for k in range(10**4)]
    for t in ts:
        log_pf(path, t)
    on_path = {id(arrow) for arrow, _ in path.factors}
    for arrow in auto.arrows:
        want = ts[-_KEPT_T:] if id(arrow) in on_path else []
        assert list(arrow.at_t) == want, arrow.label_text()


# --- the product tree against the left-to-right fold ----------------------------

TREE_NS = [3, 4, 5, 8, 16]


def fold_path_matrix(n, arrows):
    """M(e_k) ... M(e_1) multiplied left to right with ``mat_mul``, the oracle."""
    out = identity_matrix(n)
    for arrow in arrows:
        out = mat_mul(arrow.matrix, out)
    return out


_OUTGOING = {
    n: {v: [a for a in _AUTOMATA[n].arrows if a.source == v] for v in _AUTOMATA[n].vertex_order()}
    for n in TREE_NS
}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(TREE_NS), st.sampled_from([0, 1, 2, 3, 4, 7, 8, 17, 32]), st.data())
def test_path_matrix_tree_equals_fold_on_walks(n, length, data):
    auto = _AUTOMATA[n]
    cur = start = data.draw(st.sampled_from(auto.vertex_order()))
    arrows = []
    for _ in range(length):
        arrow = data.draw(st.sampled_from(_OUTGOING[n][cur]))
        arrows.append(arrow)
        cur = arrow.target
    walk = path_from_arrows(start, tuple(arrows), cur == start)
    assert path_matrix(auto, walk) == fold_path_matrix(n, arrows)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(TREE_NS),
    st.lists(st.tuples(st.sampled_from((1, 2)), st.sampled_from((1, -1))), max_size=40),
)
def test_path_matrix_tree_equals_fold_on_recognised_words(n, letters):
    auto = _AUTOMATA[n]
    # every normal form is recognised
    path = recognize(auto, to_normal_form(BraidWord(n, tuple(letters))), require_closed=True)
    assert path_matrix(auto, path) == fold_path_matrix(n, path.arrows)


def test_path_matrix_of_a_long_block_power():
    # a loop arrow taken k times: the tree splits unevenly at every level
    auto = _AUTOMATA[5]
    for k in (1, 2, 3, 63, 64, 65, 200):
        path = recognize(auto, to_normal_form(BraidWord(5, ((1, 1),) * k + ((2, -1),) * 3)))
        assert path_matrix(auto, path) == fold_path_matrix(5, path.arrows)


def test_path_matrix_rejects_a_negative_arrow_entry():
    # an arrow planted with a negative coefficient, bypassing the checks,
    # must not survive the product: each entry goes through MassPoly
    auto = _AUTOMATA[5]
    arrow = auto.twist_arrows[(TwistLetter(1, 0), ("v", 1))]
    entry = object.__new__(MassPoly)
    object.__setattr__(entry, "n", 5)
    object.__setattr__(entry, "terms", ((0, (0, -1, 0, 0)),))
    (a, b), (c, d) = arrow.matrix
    planted = Arrow(arrow.source, arrow.target, arrow.label, ((a, entry), (c, d)))
    with pytest.raises(ValueError, match="nonnegative"):
        path_matrix(auto, path_from_arrows(("v", 1), (planted,), False))


@pytest.mark.parametrize("n", [3, 4, 5, 8])
def test_twist_table_holds_the_twist_arrows(n):
    auto = _AUTOMATA[n]
    m = twist_modulus(n)
    code = {("v", j): j for j in range(m)} | {("u", j): m + j for j in range(m)}
    # twist_arrows is read first: it fills every slot of the lazy table
    want = {(code[target_vertex(n, letter)], code[src]): arrow
            for (letter, src), arrow in auto.twist_arrows.items()}
    got = {(x, c): arrow for x, row in enumerate(auto._twist_table)
           for c, arrow in enumerate(row) if arrow is not None}
    assert got == want
    assert all(len(row) == len(auto.vertices) for row in auto._twist_table)


def test_recognize_hashes_no_twist_letter(monkeypatch):
    # 200000 blocks: arrows are read by letter and vertex code, not by a dict of letters
    auto = _AUTOMATA[5]
    nf = to_normal_form(BraidWord(5, ((1, -200000), (2, 3))))
    want = recognize(auto, nf, require_closed=True)
    calls = []
    real = TwistLetter.__hash__

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(TwistLetter, "__hash__", counting)
    assert recognize(auto, nf, require_closed=True) == want
    assert calls == []


# --- identity arrows are not factors ----------------------------------------------


@pytest.mark.parametrize("n", [*range(3, 33), 63, 64])
def test_gamma_arrows_are_scalar(n):
    # every gamma arrow is c I, with c = 1 except across the index
    # wraparound: s^-+2 [Pi_0] for odd n (two arrows), s^-+1 [Pi_{n-2}] for
    # even n (four arrows; Pi_{n-2} is the simple current).  No twist arrow
    # is the identity, and no arrow has a zero diagonal entry, which
    # _support_pattern's "vanishing diagonal" error relies on
    auto = _automaton(n)
    m = twist_modulus(n)
    label, level = (0, 2) if n % 2 else (n - 2, 1)
    kinds = ("v",) if n % 2 else ("v", "u")
    wraps = {(1, (kind, m - 1)): mono(n, label, -level) for kind in kinds}
    wraps |= {(-1, (kind, 0)): mono(n, label, level) for kind in kinds}
    for key, arrow in auto.gamma_arrows.items():
        (a, b), (c, d) = arrow.matrix
        assert a == d and b.is_zero() and c.is_zero(), key
        assert a == wraps.get(key, MassPoly.one(n)), key
        assert arrow.is_identity == (key not in wraps), key
    assert not any(arrow.is_identity for arrow in auto.twist_arrows.values())
    assert all(not a.is_zero() and not d.is_zero() for (a, _), (_, d) in
               (arrow.matrix for arrow in auto.arrows))


def _vertex_code(m, vertex):
    kind, j = vertex
    return j if kind == "v" else m + j


@pytest.mark.parametrize("n", [*range(3, 33), 63, 64, 65, 127, 128])
def test_twist_arrow_shapes(n):
    # x is a letter's code, which is also its target vertex's code: the loop
    # from x is upper triangular, the arrow from the same family's previous
    # index x - x % m + (x - 1) % m lower triangular, and every other twist
    # arrow full (zero_pattern also rejects a zero diagonal entry).  These
    # are reducible_witness's two shapes, and every twist arrow has a
    # nonzero off-diagonal entry, which path_zero_pattern's ORs rely on.
    # Past n = 64 the automaton is built here and dropped, not kept by
    # classify._automaton: n = 127 and 128 hold about 135 MB each
    auto = _automaton(n) if n <= 64 else build(n)
    m = twist_modulus(n)
    for (letter, source), arrow in auto.twist_arrows.items():
        x = _vertex_code(m, arrow.target)
        assert x == (letter.index if letter.family == 1 else m + letter.index)
        src = _vertex_code(m, source)
        want = "upper" if src == x else "lower" if src == x - x % m + (x - 1) % m else "full"
        assert zero_pattern(arrow.matrix) == want, (letter, source)


FACTOR_NS = [*range(3, 17), 17, 31, 64]
FACTOR_TS = (0.0, 0.5, -0.5, 3.0, -3.0, 1000.0, -1000.0, math.nan, math.inf, -math.inf)


@st.composite
def words_with_long_negative_runs(draw):
    # s_i^-k rewrites to about k gamma^-1 steps and k blocks: a few hundred
    # gamma steps, crossing the wraparound about |gamma_exp| / m times
    n = draw(st.sampled_from(FACTOR_NS))
    exps = st.one_of(st.integers(-3, 3).filter(bool), st.integers(-300, -64))
    runs = draw(st.lists(st.tuples(st.sampled_from((1, 2)), exps), min_size=1, max_size=4))
    return to_normal_form(BraidWord(n, tuple(runs)))


def assert_factors_fold_as_every_run(path):
    for t in FACTOR_TS:
        assert repr(_outcome(log_pf, path, t)) == repr(_outcome(runs_log_pf, path, t)), t
    assert _outcome(path_zero_pattern, path) == _outcome(fold_zero_pattern, path)


@settings(max_examples=60, deadline=None)
@given(words_with_long_negative_runs(), st.booleans())
def test_factors_fold_as_every_run(nf, require_closed):
    # log_pf, path_zero_pattern and path_terms fold the factors; each
    # agrees exactly with a fold over every run, identities included
    auto = _automaton(nf.n)
    path = recognize(auto, nf, require_closed=require_closed)
    assert_factors_fold_as_every_run(path)
    every_run = [(arrow.leaf, mult) for arrow, mult in reversed(path.runs)]
    assert path_terms(auto, path) == product_tree(nf.n, every_run)


@settings(max_examples=40, deadline=None)
@given(
    normal_forms(ns=st.sampled_from(FACTOR_NS), gammas=st.integers(-300, 300)), st.booleans()
)
def test_factors_product_as_every_arrow(nf, require_closed):
    # gamma^s of a few hundred steps and a few short blocks: cheap to
    # multiply out one arrow at a time
    auto = _automaton(nf.n)
    path = recognize(auto, nf, require_closed=require_closed)
    assert_factors_fold_as_every_run(path)
    a, b, c, d = path_terms(auto, path)
    assert ((a, b), (c, d)) == tuple(
        tuple(entry.terms for entry in row) for row in fold_path_matrix(nf.n, path.arrows)
    )


# --- arrows on demand -------------------------------------------------------------


def count_arrow_rules(monkeypatch) -> Counter:
    """Count the calls build()'s arrow rule makes to letter_support and gamma_on_unit."""
    calls: Counter = Counter()
    for name in ("letter_support", "gamma_on_unit"):
        def counting(*args, real=getattr(automaton, name), name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(automaton, name, counting)
    return calls


@pytest.fixture
def fresh_automaton_8():
    # classify() reads classify._AUTOMATA: swap in an n = 8 automaton with no arrow made yet
    kept = dict(_CLASSIFY_AUTOMATA)
    _CLASSIFY_AUTOMATA[8] = build(8)
    yield _CLASSIFY_AUTOMATA[8]
    _CLASSIFY_AUTOMATA.clear()
    _CLASSIFY_AUTOMATA.update(kept)


def test_build_makes_arrows_on_first_lookup(monkeypatch, fresh_automaton_8):
    calls = count_arrow_rules(monkeypatch)
    for n in (5, 16, 128):
        build(n)
    assert calls == Counter()
    res = classify(8, parse_word("s1 s2^-1 s1^3 s2^-2", 8))
    arrows = {arrow for arrow, _ in res.path.runs}
    twists = sum(not isinstance(arrow.label, int) for arrow in arrows)
    # each arrow reads the support of its two source basis units
    assert 0 < calls["letter_support"] <= 2 * twists
    assert calls["gamma_on_unit"] <= 2 * (len(arrows) - twists)
    # a reader of every arrow makes the rest, as the eager oracle has them
    assert fresh_automaton_8.arrows == build_by_wrap(8).arrows


def _seeded_words_8(count):
    rng = random.Random(8)
    exps = (-3, -2, -1, 1, 2, 3)
    return [
        BraidWord(8, tuple((rng.choice((1, 2)), rng.choice(exps)) for _ in range(rng.randint(1, 8))))
        for _ in range(count)
    ]


def _outcomes(words):
    out = []
    for w in words:
        res = classify(8, w)
        out.append((res.braid_type, res.h0(), res.path))
    return out


def test_concurrent_first_lookups_share_one_arrow_per_slot(fresh_automaton_8):
    # four threads miss the same slots of a fresh automaton at once; each
    # slot is filled once, so every thread's paths hold the same arrows
    words = _seeded_words_8(40)
    want = _outcomes(words)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the arrow rule too
    try:
        for _ in range(10):  # a race shows only when two threads miss one slot together
            _CLASSIFY_AUTOMATA[8] = build(8)
            start = threading.Barrier(4)
            got: list = [None] * 4

            def work(k):
                start.wait(timeout=60)
                got[k] = _outcomes(words)

            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            for outcomes in got:
                for (kind, h0, path), (want_kind, want_h0, want_path) in zip(
                    outcomes, want, strict=True
                ):
                    assert kind == want_kind
                    assert repr(h0) == repr(want_h0)  # bit for bit
                    assert (path and path.runs) == (want_path and want_path.runs)
            for outcomes in got[1:]:
                for (_, _, path), (_, _, first) in zip(outcomes, got[0]):
                    if path is not None:
                        pairs = zip(path.runs, first.runs, strict=True)
                        assert all(a is b for (a, _), (b, _) in pairs)
    finally:
        sys.setswitchinterval(switch)
