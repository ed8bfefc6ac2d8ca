"""Words in the rank-two Artin group and their matrix representations.

A ``BraidWord`` is a freely reduced word in the generators s1, s2 of the
Artin group with relation s1 s2 s1 ... = s2 s1 s2 ... (n letters each
side).  Words compose right-to-left: the rightmost letter acts first.
A word is stored only as its runs (generator, nonzero exponent), adjacent
runs carrying different generators: ``parse_word`` splits the text once
and reads a token s_i^k as one run from a table of the common tokens
(any other token on its own, and a malformed word by one regex match per
token, for its error), free reduction merges runs, and
``BraidWord.letters`` expands them for the readers that want letters.

The Burau representation is kept exact: matrix entries are Laurent
polynomials in q whose coefficients are signed integer combinations of
the simple fusion classes (signs appear because -q times the class of
Pi_1 shows up in the generator matrices); ``fusion.product_tree``
multiplies them, and ``burau_equal`` compares canonical entries.
Specialising q to -1 and taking Perron-Frobenius dimensions of the
coefficients recovers the reflection representation of the dihedral group.

Rewriting into automaton normal form uses the extended alphabet of twist
letters sigma_{gamma^j P_i} together with gamma = s2 s1.  The only
relations used are

    s2^-1 = s1 gamma^-1,        s1^-1 = gamma^-1 s2,
    gamma^e sigma_{gamma^j P_i} = sigma_{gamma^(j+e) P_i} gamma^e,

plus the collapse of non-viable adjacent twist pairs to a single gamma.
Twist indices are taken mod n for odd n and mod n/2 for even n, since
gamma^n (odd) and gamma^(n/2) (even) act on the defining objects by
shifts (and tensoring by the invertible class Pi_{n-2}), neither of
which changes the twist functor.

The rewrite runs on small-int letter codes, with one table per n
(``_Letters``): the pair rule ``joins`` is one list read, and letter
objects are built once, when the normal form is returned.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from operator import itemgetter
from typing import TYPE_CHECKING, NamedTuple

from .fusion import LaurentTerms, Leaf, _pf_rows, leaf, product_tree

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "MAX_N",
    "MAX_WORD_LETTERS",
    "BraidWord",
    "BurauMatrix",
    "NormalForm",
    "QLaurent",
    "TwistLetter",
    "WordSyntaxError",
    "burau",
    "burau_equal",
    "check_n",
    "coxeter_matrix",
    "forbidden_source",
    "gamma_letters",
    "joins",
    "make_twist",
    "parse_word",
    "positive_roots",
    "target_vertex",
    "to_normal_form",
    "twist_modulus",
]


# ---------------------------------------------------------------------------
# words


class WordSyntaxError(ValueError):
    """Raised on malformed word text; carries the byte offset of the error."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


@dataclass(frozen=True)
class BraidWord:
    """Freely reduced word, stored as runs (generator in {1,2}, nonzero exponent).

    Adjacent runs carry different generators, so equal words have equal
    runs.  The constructor accepts any such pairs, letters (g, +-1) among
    them, and merges them.
    """

    n: int
    runs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"need n >= 3, got n={self.n}")
        object.__setattr__(self, "runs", _free_reduce(self.runs))

    @property
    def letters(self) -> tuple[tuple[int, int], ...]:
        """The runs expanded to letters (generator, sign in {+1,-1})."""
        return tuple(
            letter
            for g, k in self.runs
            for letter in ((g, 1 if k > 0 else -1),) * abs(k)
        )

    @classmethod
    def identity(cls, n: int) -> BraidWord:
        return cls(n, ())

    @classmethod
    def generator(cls, n: int, i: int, sign: int = 1) -> BraidWord:
        if i not in (1, 2) or sign not in (1, -1):
            raise ValueError("generator must be 1 or 2 with sign +-1")
        return cls(n, ((i, sign),))

    @classmethod
    def gamma_power(cls, n: int, e: int) -> BraidWord:
        """(s2 s1)^e, freely reduced."""
        return cls(n, gamma_letters(e))

    def __mul__(self, other: BraidWord) -> BraidWord:
        if self.n != other.n:
            raise ValueError("mismatched group parameters")
        return BraidWord(self.n, self.runs + other.runs)

    def inverse(self) -> BraidWord:
        return BraidWord(self.n, tuple((g, -k) for g, k in reversed(self.runs)))

    def __pow__(self, e: int) -> BraidWord:
        """|e| copies of the word (of its inverse for e < 0), reduced once.

        Free reduction is confluent, so this equals |e| products.
        """
        base = self if e >= 0 else self.inverse()
        return BraidWord(self.n, base.runs * abs(e))

    def __len__(self) -> int:
        return sum(abs(k) for _, k in self.runs)

    def exponent_sums(self) -> tuple[int, int]:
        """Signed letter counts (s1 total, s2 total); conjugation invariant."""
        e1 = sum(k for g, k in self.runs if g == 1)
        e2 = sum(k for g, k in self.runs if g == 2)
        return e1, e2

    def text(self) -> str:
        """Render in the word grammar (s1/s2 tokens with exponents)."""
        return " ".join(f"s{g}" if k == 1 else f"s{g}^{k}" for g, k in self.runs)


def gamma_letters(e: int) -> tuple[tuple[int, int], ...]:
    """The letters of (s2 s1)^e, already freely reduced; no word is built."""
    if e >= 0:
        return ((2, 1), (1, 1)) * e
    return ((1, -1), (2, -1)) * (-e)


def _free_reduce(runs: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
    """Merge adjacent runs of one generator and drop the ones that cancel."""
    out: list[tuple[int, int]] = []
    for g, k in runs:
        if g not in (1, 2) or not isinstance(k, int) or k == 0:
            raise ValueError(f"bad run {(g, k)}")
        if out and out[-1][0] == g:
            k += out.pop()[1]
            if k == 0:
                continue
        out.append((g, k))
    return tuple(out)


MAX_WORD_LETTERS = 1_000_000  # cap on a parsed word's length, before free reduction

# Cap on n for parsed words and built automata.  ``automaton.build(n)``
# makes Theta(n^2) arrows whose entries hold up to n-1 labels, and its
# fusion table lists Theta(n^2) label pairs of up to n summands: on one
# Intel Xeon core, build(128) takes 3.3 s and 135 MB, build(256) 20 s and
# 724 MB, and n = 100000 runs out of memory.
MAX_N = 128


def check_n(n: int) -> None:
    """Raise ValueError unless 3 <= n <= ``MAX_N``."""
    if not 3 <= n <= MAX_N:
        raise ValueError(f"need 3 <= n <= {MAX_N}, got n={n}")


# A well-formed token (groups 1-3: generator, sign, ASCII digits), else any
# other run of non-space bytes; group 4 is set when that one has an exponent.
_TOKEN = re.compile(rb"s([12])(?:\^(-?)([0-9]+))?(?!\S)|(s[12]\^\S*)|\S+")
_MAX_DIGITS = len(str(MAX_WORD_LETTERS))
# The run of every well-formed token s_g^k with |k| <= 99 written without
# leading zeros, s1 and s2 among them: 398 entries.
_TOKEN_RUNS: dict[bytes, tuple[int, int]] = {
    **{b"s%d" % g: (g, 1) for g in (1, 2)},
    **{b"s%d^%d" % (g, k): (g, k) for g in (1, 2) for k in range(-99, 100) if k},
}


def parse_word(text: str, n: int) -> BraidWord:
    """Parse the word grammar: whitespace-separated s1/s2 tokens, optional ^k.

    An exponent k is an optional minus sign followed by ASCII digits, and
    not zero.  Raises :class:`WordSyntaxError` with the byte offset of the
    offending token, also of the token that takes the word past
    ``MAX_WORD_LETTERS`` letters, and ValueError for n outside 3..``MAX_N``.

    The text is split once by ``bytes.split``, on the ASCII whitespace
    that the grammar's ``\\s`` matches, and each token is looked up in
    ``_TOKEN_RUNS``; a token the table lacks (leading zeros, |k| > 99, or
    malformed) is read on its own by ``_token_run``.  Only when a token is
    malformed or takes the word past the cap is the text scanned again,
    one ``_TOKEN`` match per token, for the error and its byte offset.
    """
    check_n(n)
    runs: list[tuple[int, int]] = []
    count = 0  # letters so far, before free reduction
    for token in text.encode().split():
        run = _TOKEN_RUNS.get(token) or _token_run(token)
        if run is None:
            break
        count += abs(run[1])
        if count > MAX_WORD_LETTERS:
            break
        runs.append(run)
    else:
        return BraidWord(n, tuple(runs))
    return BraidWord(n, _scan_runs(text))  # raises the WordSyntaxError


def _token_run(token: bytes) -> tuple[int, int] | None:
    """The run of one token, None if it is malformed or its exponent zero.

    An exponent with more digits than the cap has is past the cap, and
    int() never reads it.
    """
    gen, minus, digits, _ = _TOKEN.fullmatch(token).groups()
    if gen is None:
        return None
    digits = b"1" if digits is None else digits.lstrip(b"0")
    if not digits:
        return None
    k = int(digits) if len(digits) <= _MAX_DIGITS else MAX_WORD_LETTERS + 1
    return int(gen), -k if minus else k


def _scan_runs(text: str) -> tuple[tuple[int, int], ...]:
    """``parse_word``'s runs by one ``_TOKEN`` match per token, raising its syntax errors."""
    runs: list[tuple[int, int]] = []
    count = 0  # letters so far, before free reduction
    for match in _TOKEN.finditer(text.encode()):
        run = _token_run(match[0])
        if run is None:
            gen, _, _, bad_exponent = match.groups()
            kind = (
                "zero exponent in" if gen
                else "bad exponent in" if bad_exponent
                else "unknown token"
            )
            raise WordSyntaxError(f"{kind} {match[0].decode()!r}", match.start())
        count += abs(run[1])
        if count > MAX_WORD_LETTERS:
            raise WordSyntaxError(
                f"{match[0].decode()!r} takes the word past {MAX_WORD_LETTERS} letters",
                match.start(),
            )
        runs.append(run)
    return tuple(runs)


# ---------------------------------------------------------------------------
# signed Laurent arithmetic in q


class QLaurent(LaurentTerms):
    """Laurent polynomial in q; coefficients are signed class combinations.

    A ``fusion.LaurentTerms`` whose coefficients may be negative: its
    constructor checks that the terms are canonical, so equal means
    equal terms.
    """

    KEY = "q"
    SIGNED = True

    @classmethod
    def term(cls, n: int, e: int, vec: tuple[int, ...]) -> QLaurent:
        return cls.from_dict(n, {e: vec})

    @classmethod
    def scalar(cls, n: int, value: int) -> QLaurent:
        return cls.term(n, 0, (value,) + (0,) * (n - 2))

    def eval_coxeter(self) -> float:
        """Specialise q = -1 and take Perron-Frobenius dimensions."""
        values = _pf_rows(self.n, map(itemgetter(1), self.terms))
        return sum((-x if e % 2 else x for (e, _), x in zip(self.terms, values)), 0.0)


BurauMatrix = tuple[tuple[QLaurent, QLaurent], tuple[QLaurent, QLaurent]]


def _burau_generators(n: int) -> dict[tuple[int, int], BurauMatrix]:
    zero, one = QLaurent.zero(n), QLaurent.scalar(n, 1)
    delta = (0, 1) + (0,) * (n - 3)  # class of Pi_1
    neg_delta = tuple(-c for c in delta)
    mq2 = QLaurent.term(n, 2, (-1,) + (0,) * (n - 2))  # -q^2
    mq2i = QLaurent.term(n, -2, (-1,) + (0,) * (n - 2))  # -q^-2
    mdq = QLaurent.term(n, 1, neg_delta)  # -[Pi_1] q
    mdqi = QLaurent.term(n, -1, neg_delta)  # -[Pi_1] q^-1
    return {
        (1, 1): ((mq2, mdq), (zero, one)),
        (2, 1): ((one, zero), (mdq, mq2)),
        (1, -1): ((mq2i, mdqi), (zero, one)),
        (2, -1): ((one, zero), (mdqi, mq2i)),
    }


@lru_cache(maxsize=None)
def _generator_leaves(n: int) -> dict[tuple[int, int], Leaf]:
    """The generator matrices as the ``fusion.Leaf`` factors of ``product_tree``."""
    return {
        letter: leaf(n, [entry.terms for row in matrix for entry in row])
        for letter, matrix in _burau_generators(n).items()
    }


def burau(w: BraidWord) -> BurauMatrix:
    """Exact Burau matrix of a word: the product of the letters' matrices in order.

    ``fusion.product_tree`` takes the word's runs: a run s_i^k is the
    generator's (or its inverse's) leaf raised to |k| by repeated squaring
    on the packed entries, so the letters are never expanded.  Each entry
    is built once, from the kernel's terms as they are, through the
    checking ``QLaurent`` constructor.
    """
    leaves = _generator_leaves(w.n)
    a, b, c, d = (
        QLaurent(w.n, terms)
        for terms in product_tree(
            w.n, [(leaves[(g, 1 if k > 0 else -1)], abs(k)) for g, k in w.runs]
        )
    )
    return ((a, b), (c, d))


def burau_equal(a: BurauMatrix, b: BurauMatrix) -> bool:
    """Exact equality: ``QLaurent`` terms are canonical, so entries compare as terms."""
    return a == b


def coxeter_matrix(w: BraidWord) -> np.ndarray:
    """Burau at q = -1: the reflection representation of the dihedral group."""
    import numpy as np  # only here and in positive_roots, so the CLI never loads it

    m = burau(w)
    return np.array([[m[i][j].eval_coxeter() for j in range(2)] for i in range(2)])


def positive_roots(n: int) -> np.ndarray:
    """The n positive roots of the dihedral root system, as unit complex numbers."""
    import numpy as np

    if n < 3:
        raise ValueError(f"need n >= 3, got n={n}")
    return np.exp(1j * np.pi * np.arange(n) / n)


# ---------------------------------------------------------------------------
# twist letters and normal form


def twist_modulus(n: int) -> int:
    """Twist indices live mod n (odd) or mod n/2 (even)."""
    return n if n % 2 else n // 2


@dataclass(frozen=True)
class TwistLetter:
    """sigma_{gamma^index P_family}; for odd n only family 1 occurs."""

    family: int  # 1 or 2
    index: int  # reduced mod twist_modulus(n)

    def label(self) -> str:
        return f"twist{self.family}[{self.index}]"


class _Letters(NamedTuple):
    """The twist letters of one n by small-int code, and the pair rule on codes.

    Family 1 letter index j has code j and family 2 (even n) code m + j,
    m = ``twist_modulus(n)``.  The code of a letter is also the code of
    its target vertex, v_j being j and u_j being m + j, and gamma^g moves
    a code c within its family, to c - c % m + (c + g) % m.
    ``letters[c]`` is the one ``TwistLetter`` of code c, and ``ban[c]``
    the code of its forbidden source, so y can follow x exactly when
    ban[y] != x.
    """

    m: int
    letters: tuple[TwistLetter, ...]
    ban: tuple[int, ...]


@lru_cache(maxsize=None)
def _letter_table(n: int) -> _Letters:
    m = twist_modulus(n)
    letters = tuple(
        TwistLetter(family, j) for family in ((1,) if n % 2 else (1, 2)) for j in range(m)
    )

    def code(vertex: tuple[str, int]) -> int:
        kind, j = vertex
        return j if kind == "v" else m + j

    return _Letters(m, letters, tuple(code(forbidden_source(n, letter)) for letter in letters))


def _code(m: int, letter: TwistLetter) -> int:
    """A letter's ``_letter_table`` code."""
    return letter.index if letter.family == 1 else m + letter.index


def make_twist(n: int, family: int, index: int) -> TwistLetter:
    """The letter sigma_{gamma^index P_family} of this n, index reduced; one object per letter."""
    m, letters, _ = _letter_table(n)
    if family not in (1, 2):
        raise ValueError(f"twist family must be 1 or 2, got {family}")
    if n % 2 and family == 2:
        # odd n: sigma_{gamma^j P_2} = sigma_{gamma^(j+(n+1)/2) P_1}
        family, index = 1, index + (n + 1) // 2
    return letters[index % m if family == 1 else m + index % m]


def target_vertex(n: int, letter: TwistLetter) -> tuple[str, int]:
    """Every arrow labelled by a twist letter ends at one fixed vertex."""
    fam = "v" if letter.family == 1 else "u"
    return (fam, letter.index)


def forbidden_source(n: int, letter: TwistLetter) -> tuple[str, int]:
    """The unique vertex with no outgoing arrow labelled by ``letter``."""
    m = twist_modulus(n)
    if n % 2:
        return ("v", (letter.index + (n - 1) // 2) % m)
    if letter.family == 1:
        return ("u", (letter.index + n // 2 - 1) % m)
    return ("v", letter.index)


def joins(n: int, first: TwistLetter, gammas: int, second: TwistLetter) -> bool:
    """Can ``second`` be read after ``first`` followed by ``gammas`` net gamma steps?

    ``first`` ends at its target vertex, gamma^g moves the index of that
    vertex by g, and ``second`` leaves every vertex but its forbidden
    source: one read of the ``_letter_table`` ban list, on letters as
    ``make_twist`` gives them.  ``joins(n, x, 0, x)`` always holds.
    """
    m, _, ban = _letter_table(n)
    x = _code(m, first)
    return ban[_code(m, second)] != x - x % m + (x + gammas) % m


@dataclass(frozen=True)
class NormalForm:
    """b_k^{m_k} ... b_1^{m_1} gamma^s over the twist alphabet.

    ``blocks`` is stored in application order: blocks[0] is b_1 (applied
    first, after gamma^s), with multiplicities >= 1 and adjacent blocks
    carrying distinct letters.  ``codes`` holds their ``_letter_table``
    codes, derived once by the checker for ``classify`` and ``recognize``;
    it is not a constructor argument, and is neither compared nor shown.
    """

    n: int
    blocks: tuple[tuple[TwistLetter, int], ...]
    gamma_exp: int
    codes: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m, _, ban = _letter_table(self.n)
        families = (1,) if self.n % 2 else (1, 2)
        codes: list[int] = []
        prev, x = None, -1  # the previous block's letter and its code
        for letter, mult in self.blocks:
            if mult < 1:
                raise ValueError("block multiplicities must be positive")
            if not 0 <= letter.index < m:
                raise ValueError(f"letter index {letter.index} not reduced mod {m}")
            if letter.family not in families:
                raise ValueError(
                    "odd n letters are normalised to the P_1 family"
                    if self.n % 2
                    else f"twist family must be 1 or 2, got {letter.family}"
                )
            y = _code(m, letter)
            if y == x:
                raise ValueError("adjacent blocks must carry distinct letters")
            if ban[y] == x:
                raise ValueError(f"{letter.label()} cannot follow {prev.label()}")
            codes.append(y)
            prev, x = letter, y
        # tuple() of a list, not of a generator, as in to_normal_form
        object.__setattr__(self, "codes", tuple(codes))

    def twist_count(self) -> int:
        return sum(m for _, m in self.blocks)

    def length(self) -> int:
        return self.twist_count() + abs(self.gamma_exp)

    def to_word(self) -> BraidWord:
        """Expand back to a word in s1, s2 (freely reduced), through ``_twist_runs``."""
        return BraidWord(self.n, _twist_runs(reversed(self.blocks), self.gamma_exp))

    def text(self) -> str:
        parts = [
            f"{letter.label()}" + (f"^{mult}" if mult > 1 else "")
            for letter, mult in reversed(self.blocks)
        ]
        if self.gamma_exp or not parts:
            parts.append(f"gamma^{self.gamma_exp}" if self.gamma_exp != 1 else "gamma")
        return " ".join(parts)


def _twist_runs(powers, gamma_exp: int) -> tuple[tuple[int, int], ...]:
    """The runs of x_1^e_1 ... x_k^e_k gamma^gamma_exp for twist powers (x_i, e_i) in word order.

    Each sigma_{gamma^j P_i}^e is gamma^j s_i^e gamma^-j.  Spelled power
    by power, the gamma^-j_prev gamma^j_next between two powers cancel to
    gamma^(j_next - j_prev), so only that is written: k generator runs
    and O(k m + |gamma_exp|) gamma letters, none of which cancel.  Free
    reduction is confluent, so the ``BraidWord`` of these runs is the
    product of the powers reduced one by one.
    """
    runs: list[tuple[int, int]] = []
    j = 0
    for letter, e in powers:
        runs += gamma_letters(letter.index - j)
        runs.append((letter.family, e))
        j = letter.index
    runs += gamma_letters(gamma_exp - j)
    return tuple(runs)


def to_normal_form(w: BraidWord) -> NormalForm:
    """Rewrite a word into automaton normal form.

    Runs are consumed in application order (rightmost first); inverse
    generators are eliminated via s2^-1 = s1 gamma^-1 and
    s1^-1 = gamma^-1 s2, gammas are pushed to the right (tracked lazily
    as an index offset, their count s), and non-viable adjacent twist
    pairs collapse to gamma.  Each collapse strictly shortens the word
    over the extended alphabet, so the pass terminates.

    The blocks are two int lists: the letters' ``_letter_table`` codes at
    raw indices (true index = raw + s) and their multiplicities.  A new
    letter collapses with the last block when ban[raw] == last, read on
    raw codes, since the rule is unchanged when both indices shift by the
    same amount.  A letter can always follow itself, so once one letter
    of a positive run is pushed the rest of the run joins its block at
    once.  The codes become interned letters once, at the end.
    """
    n = w.n
    m, letters, ban = _letter_table(n)
    codes: list[int] = []  # raw codes of the blocks, application order
    mults: list[int] = []
    # the code of sigma_{P_f}; after s pushed gammas its raw code is that moved by -s
    home = (0, _code(m, make_twist(n, 1, 0)), _code(m, make_twist(n, 2, 0)))
    s = 0  # gammas pushed to the right so far
    for g, k in reversed(w.runs):
        if k > 0:  # sigma_{P_g}^k, one step
            family, reps, count, before, after = g, 1, k, 0, 0
        elif g == 1:  # s1^-1 = gamma^-1 s2, letter by letter
            family, reps, count, before, after = 2, -k, 1, 0, -1
        else:  # s2^-1 = s1 gamma^-1, letter by letter
            family, reps, count, before, after = 1, -k, 1, -1, 0
        h = home[family]
        base = h - h % m
        for _ in range(reps):
            s += before
            left = count
            while left:
                raw = base + (h - s) % m
                last = codes[-1] if codes else -1
                if raw == last:
                    mults[-1] += left
                    break
                if ban[raw] != last:
                    codes.append(raw)
                    mults.append(left)
                    break
                # raw * last = gamma; push it to the right
                if mults[-1] == 1:
                    codes.pop()
                    mults.pop()
                else:
                    mults[-1] -= 1
                s += 1
                left -= 1
            s += after

    shift = s % m
    # tuple() of a list, not of a generator: that one is built at a guessed
    # length and resized, and the interpreter's free lists of short tuples
    # keep each freed size, so a long run of calls grows the resident memory
    blocks = [(letters[raw - raw % m + (raw + shift) % m], mult) for raw, mult in zip(codes, mults)]
    return NormalForm(n, tuple(blocks), s)
