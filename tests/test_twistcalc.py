import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from braiddyn.braidword import BraidWord, TwistLetter, coxeter_matrix, twist_modulus
from braiddyn.fusion import delta_value, fuse
from braiddyn.twistcalc import (
    U,
    V1,
    V2,
    RawObject,
    Segment,
    SemistableUnit,
    gamma_on_unit,
    letter_support,
    log_support_mass,
    support_charge,
    support_mass,
    twist_segment,
    unit_charge,
    unit_mass,
    unit_phase,
)


def all_units(n):
    m = twist_modulus(n)
    fams = [V1, V2] + ([U] if n % 2 == 0 else [])
    return [SemistableUnit(f, j) for f in fams for j in range(m)]


def all_letters(n):
    m = twist_modulus(n)
    out = [TwistLetter(1, j) for j in range(m)]
    if n % 2 == 0:
        out += [TwistLetter(2, j) for j in range(m)]
    return out


# --- gamma action ------------------------------------------------------------


def test_gamma_full_cycle_odd():
    u = SemistableUnit(V1, 0)
    for n in (3, 5, 7):
        v = u
        for _ in range(n):
            v = gamma_on_unit(n, v, 1)
        assert v == SemistableUnit(V1, 0, 0, -2)


def test_gamma_half_cycle_even():
    for n in (4, 6, 8):
        for fam in (V1, V2, U):
            v = SemistableUnit(fam, 0, 1, 0)
            for _ in range(n // 2):
                v = gamma_on_unit(n, v, 1)
            assert v == SemistableUnit(fam, 0, n - 3, -1)


def test_gamma_phase_bookkeeping_example():
    # n=5: gamma(gamma^2 P_2) has phase -2/5 = phase(gamma^2 P_2) - 2/5
    u = SemistableUnit(V2, 2)
    v = gamma_on_unit(5, u, 1)
    assert v == SemistableUnit(V2, 3)
    assert unit_phase(5, v) == Fraction(-2, 5)
    assert unit_phase(5, u) - Fraction(2, 5) == unit_phase(5, v)


def test_gamma_phase_step_everywhere():
    for n in range(3, 11):
        for u in all_units(n):
            for direction in (1, -1):
                v = gamma_on_unit(n, u, direction)
                assert unit_phase(n, v) == unit_phase(n, u) - Fraction(2 * direction, n)
                assert gamma_on_unit(n, v, -direction) == u


def test_gamma_scales_mass_functions():
    for n in (4, 5, 6):
        for u in all_units(n):
            v = gamma_on_unit(n, u, 1)
            for t in (-0.7, 0.0, 1.3):
                assert unit_mass(n, v, t) == pytest.approx(
                    unit_mass(n, u, t) * math.exp(-2 * t / n), rel=1e-12
                )


# --- twist_segment -----------------------------------------------------------


def test_twist_segment_shift_rule():
    assert twist_segment(5, 1, RawObject(1, 0, 0, 0)) == RawObject(1, 0, 2, 1)


def test_twist_segment_cone_rule():
    seg = twist_segment(5, 1, RawObject(2, 0, 0, 0))
    assert seg == Segment(RawObject(1, 1, 1, 1), RawObject(2, 0, 0, 0))


def test_twist_segment_braid_relation_example():
    # sigma_2 sigma_1 (P_2) = (P_2 x Pi_2 <2>[2] -> P_1 x Pi_1 <1>[1]) for n=5
    step1 = twist_segment(5, 1, RawObject(2, 0, 0, 0))
    step2 = twist_segment(5, 2, step1)
    assert step2 == Segment(RawObject(2, 2, 2, 2), RawObject(1, 1, 1, 1))


def test_twist_segment_collapse_at_top_label():
    seg = Segment(RawObject(2, 3, 4, 4), RawObject(1, 2, 3, 3))
    assert twist_segment(5, 1, seg) == RawObject(2, 3, 4, 4)


def test_twist_segment_rejects_wrong_tail():
    seg = Segment(RawObject(2, 1, 1, 1), RawObject(1, 0, 0, 0))
    with pytest.raises(ValueError):
        twist_segment(5, 2, seg)


# --- letter_support fixtures --------------------------------------------------


def test_support_n5_sigma1_on_gamma_p1():
    supp = letter_support(5, TwistLetter(1, 0), SemistableUnit(V1, 1))
    assert supp == {
        SemistableUnit(V1, 0, 2, -1): 1,
        SemistableUnit(V2, 0, 1, -1): 1,
    }


def test_support_n5_sigma1_on_gamma_p2():
    supp = letter_support(5, TwistLetter(1, 0), SemistableUnit(V2, 1))
    assert supp == {
        SemistableUnit(V1, 0, 3, 0): 1,
        SemistableUnit(V2, 0, 2, 0): 1,
    }


def test_support_n4_sigma2_loop_column():
    supp = letter_support(4, TwistLetter(2, 0), SemistableUnit(U, 0))
    assert supp == {
        SemistableUnit(V2, 0, 1, -1): 1,
        SemistableUnit(U, 0, 0, 0): 1,
    }
    assert support_mass(4, supp, 0.0) == pytest.approx(math.sqrt(2) + 1)


def test_support_rejects_forbidden_pairs():
    with pytest.raises(LookupError):
        letter_support(5, TwistLetter(1, 0), SemistableUnit(V1, 2))
    with pytest.raises(LookupError):
        letter_support(4, TwistLetter(2, 0), SemistableUnit(V1, 0))
    with pytest.raises(LookupError):
        letter_support(4, TwistLetter(1, 0), SemistableUnit(U, 1))


# --- consistency suite --------------------------------------------------------


def reflection_of(n, letter):
    g = BraidWord.gamma_power(n, letter.index)
    w = g * BraidWord.generator(n, letter.family) * g.inverse()
    return coxeter_matrix(w)


def charge_to_coords(n, z):
    alpha2 = cmath.exp(1j * math.pi * (1 - 1 / n))
    mat = np.array([[1.0, alpha2.real], [0.0, alpha2.imag]])
    return np.linalg.solve(mat, np.array([z.real, z.imag]))


def coords_to_charge(n, ab):
    alpha2 = cmath.exp(1j * math.pi * (1 - 1 / n))
    return complex(ab[0] + ab[1] * alpha2)


def test_central_charge_additivity_binds_the_tables():
    # Z(sigma(u)) must equal the reflection image of Z(u) for every table
    # entry; this pins every level exponent, not just the t=0 values.
    for n in range(3, 11):
        for letter in all_letters(n):
            refl = reflection_of(n, letter)
            for u in all_units(n):
                try:
                    supp = letter_support(n, letter, u)
                except LookupError:
                    continue
                lhs = support_charge(n, supp)
                rhs = coords_to_charge(n, refl @ charge_to_coords(n, unit_charge(n, u)))
                assert abs(lhs - rhs) < 1e-8, (n, letter.label(), u)


def test_units_have_unit_modulus_charges():
    # roots are unit vectors, measured through the Coxeter orbit
    for n in range(3, 9):
        for u in all_units(n):
            assert abs(abs(unit_charge(n, u)) - 1.0) < 1e-9, (n, u)
            # cross-check against the reflection orbit of the simple roots
            if u.family == V1:
                w = BraidWord.gamma_power(n, u.index)
                start = np.array([1.0, 0.0])
            elif u.family == V2:
                w = BraidWord.gamma_power(n, u.index)
                start = np.array([0.0, 1.0])
            else:
                w = BraidWord.gamma_power(n, u.index) * BraidWord.generator(n, 2)
                start = np.array([1.0, 0.0])
            z = coords_to_charge(n, coxeter_matrix(w) @ start)
            assert abs(abs(z) - 1.0) < 1e-9
            assert abs(z - unit_charge(n, u)) < 1e-8, (n, u)


class _Chain:
    """Drive gamma/sigma chains with twist_segment, tracking a Pi_{n-2} factor."""

    def __init__(self, n, obj, dec=0):
        self.n, self.obj, self.dec = n, obj, dec

    def apply(self, g):
        obj = self.obj
        if isinstance(obj, RawObject) and obj.vertex != g and obj.label != 0:
            merged = fuse(self.n, self.dec, obj.label)
            (self.dec,) = [a for a, c in enumerate(merged.coeffs) if c]
            obj = RawObject(obj.vertex, 0, obj.k, obj.l)
        self.obj = twist_segment(self.n, g, obj)

    def pieces(self):
        raw = [self.obj] if isinstance(self.obj, RawObject) else [self.obj.head, self.obj.tail]
        out = []
        for r in raw:
            for a, c in enumerate(fuse(self.n, r.label, self.dec).coeffs):
                out.extend([(r.vertex, a, r.level())] * c)
        return sorted(out)


def test_n5_tables_match_the_twist_engine():
    n = 5
    for fam in (V1, V2):
        for j in range(n):
            if j == 2:  # forbidden source of sigma_{P_1}
                continue
            chain = _Chain(n, RawObject(1 if fam == V1 else 2, 0, 0, 0))
            for _ in range(j):
                chain.apply(1)
                chain.apply(2)
            chain.apply(1)
            table = sorted(
                (1 if p.family == V1 else 2, p.label, p.level)
                for p, w in letter_support(n, TwistLetter(1, 0), SemistableUnit(fam, j)).items()
                for _ in range(w)
            )
            assert chain.pieces() == table, (fam, j)


def test_decorations_fuse_through_letters():
    # support of a decorated unit = decorated support of the bare unit
    n = 6
    letter = TwistLetter(2, 1)
    u = SemistableUnit(V2, 0, 2, -1)
    supp = letter_support(n, letter, u)
    bare = letter_support(n, letter, SemistableUnit(V2, 0))
    rebuilt: dict[SemistableUnit, int] = {}
    for piece, w in bare.items():
        for b, c in enumerate(fuse(n, piece.label, 2).coeffs):
            if c:
                key = SemistableUnit(piece.family, piece.index, b, piece.level - 1)
                rebuilt[key] = rebuilt.get(key, 0) + w * c
    assert supp == rebuilt


# --- the level-0 support cache -------------------------------------------------------


def _support_uncached(n, letter, u):
    """letter_support by the definition: pull back, read the base table, fuse, push forward."""
    from braiddyn.twistcalc import _base_pieces, _slot_units

    red = u
    for _ in range(letter.index):
        red = gamma_on_unit(n, red, -1)
    pieces = _base_pieces(n, letter.family, red.family, red.index)
    if pieces is None:
        return None
    out = {}
    for slot, x, c in pieces:
        for b, mult in enumerate(fuse(n, x, red.label).coeffs):
            if mult:
                base = _slot_units(letter.family)[slot]
                piece = SemistableUnit(base.family, base.index, b, c + red.level)
                for _ in range(letter.index):
                    piece = gamma_on_unit(n, piece, 1)
                out[piece] = out.get(piece, 0) + mult
    return out


def _shifted(support, level):
    return {
        SemistableUnit(p.family, p.index, p.label, p.level + level): w
        for p, w in support.items()
    }


def test_level_shift_commutes_with_support():
    for n in range(3, 10):
        for letter in all_letters(n):
            for bare in all_units(n):
                for label in range(n - 1):
                    at0 = SemistableUnit(bare.family, bare.index, label, 0)
                    want0 = _support_uncached(n, letter, at0)
                    for level in (-3, 0, 5):
                        u = SemistableUnit(bare.family, bare.index, label, level)
                        if want0 is None:
                            with pytest.raises(LookupError):
                                letter_support(n, letter, u)
                            continue
                        got = letter_support(n, letter, u)
                        assert got == _shifted(letter_support(n, letter, at0), level)
                        assert got == _support_uncached(n, letter, u), (n, letter, u)


def test_support_result_is_a_fresh_dict():
    letter, u = TwistLetter(1, 0), SemistableUnit(V2, 1, 1, 2)
    first = letter_support(5, letter, u)
    want = dict(first)
    assert want
    first.clear()
    first[SemistableUnit(V1, 0)] = 99
    assert letter_support(5, letter, u) == want


def test_forbidden_pair_raises_on_every_call():
    for _ in range(2):
        with pytest.raises(LookupError):
            letter_support(5, TwistLetter(1, 0), SemistableUnit(V1, 2, 1, 4))
        with pytest.raises(LookupError):
            letter_support(4, TwistLetter(2, 0), SemistableUnit(V1, 0, 0, -2))


def test_log_support_mass_equals_the_unit_phase_formula():
    # the cached phase numerators must give exactly the floats of the
    # Fraction phases, so estimates stay bit-for-bit the same
    rng = random.Random(5)
    for n in range(3, 17):
        units = all_units(n)
        for t in (-1000.0, -0.7, 0.0, 0.3, 1.9, 1000.0):
            support = {
                SemistableUnit(u.family, u.index, rng.randrange(n - 1), rng.randint(-40, 40)):
                    rng.randint(1, 9)
                for u in rng.sample(units, min(len(units), 6))
            }
            logs = [
                float(unit_phase(n, u)) * t + math.log(w) + math.log(delta_value(n, u.label))
                for u, w in support.items()
            ]
            top = max(logs)
            want = top + math.log(sum(math.exp(x - top) for x in logs))
            assert log_support_mass(n, support, t) == want, (n, t)
    with pytest.raises(ValueError):
        log_support_mass(5, {SemistableUnit(U, 0): 1}, 0.0)
