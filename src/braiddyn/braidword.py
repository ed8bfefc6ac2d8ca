"""Words in the rank-two Artin group and their matrix representations.

A ``BraidWord`` is a freely reduced word in the generators s1, s2 of the
Artin group with relation s1 s2 s1 ... = s2 s1 s2 ... (n letters each
side).  Words compose right-to-left: the rightmost letter acts first.

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
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fusion import delta_value, product_tree, sparse_entry

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
    """Freely reduced word; letters are (generator in {1,2}, sign in {+1,-1})."""

    n: int
    letters: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"need n >= 3, got n={self.n}")
        object.__setattr__(self, "letters", _free_reduce(self.letters))

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
        return BraidWord(self.n, self.letters + other.letters)

    def inverse(self) -> BraidWord:
        return BraidWord(self.n, tuple((g, -s) for g, s in reversed(self.letters)))

    def __pow__(self, e: int) -> BraidWord:
        """|e| copies of the word (of its inverse for e < 0), reduced once.

        Free reduction is confluent, so this equals |e| products.
        """
        base = self if e >= 0 else self.inverse()
        return BraidWord(self.n, base.letters * abs(e))

    def __len__(self) -> int:
        return len(self.letters)

    def exponent_sums(self) -> tuple[int, int]:
        """Signed letter counts (s1 total, s2 total); conjugation invariant."""
        e1 = sum(s for g, s in self.letters if g == 1)
        e2 = sum(s for g, s in self.letters if g == 2)
        return e1, e2

    def text(self) -> str:
        """Render in the word grammar (s1/s2 tokens with exponents)."""
        runs: list[list[int]] = []  # [generator, sign, count]
        for g, s in self.letters:
            if runs and runs[-1][0] == g and runs[-1][1] == s:
                runs[-1][2] += 1
            else:
                runs.append([g, s, 1])
        return " ".join(
            f"s{g}" if s * c == 1 else f"s{g}^{s * c}" for g, s, c in runs
        )


def gamma_letters(e: int) -> tuple[tuple[int, int], ...]:
    """The letters of (s2 s1)^e, already freely reduced; no word is built."""
    if e >= 0:
        return ((2, 1), (1, 1)) * e
    return ((1, -1), (2, -1)) * (-e)


def _free_reduce(letters: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
    out: list[tuple[int, int]] = []
    for g, s in letters:
        if g not in (1, 2) or s not in (1, -1):
            raise ValueError(f"bad letter {(g, s)}")
        if out and out[-1][0] == g and out[-1][1] == -s:
            out.pop()
        else:
            out.append((g, s))
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


_EXPONENT = re.compile(r"-?[0-9]+")  # ASCII digits only: no "+", "_" or other scripts


def parse_word(text: str, n: int) -> BraidWord:
    """Parse the word grammar: whitespace-separated s1/s2 tokens, optional ^k.

    An exponent k is an optional minus sign followed by ASCII digits, and
    not zero.  Raises :class:`WordSyntaxError` with the byte offset of the
    offending token, also of the token that takes the word past
    ``MAX_WORD_LETTERS`` letters, and ValueError for n outside 3..``MAX_N``.
    """
    check_n(n)
    letters: list[tuple[int, int]] = []
    pos = 0
    raw = text.encode()
    while pos < len(raw):
        if raw[pos : pos + 1].isspace():
            pos += 1
            continue
        end = pos
        while end < len(raw) and not raw[end : end + 1].isspace():
            end += 1
        token = raw[pos:end].decode()
        if not (token.startswith("s1") or token.startswith("s2")):
            raise WordSyntaxError(f"unknown token {token!r}", pos)
        gen = int(token[1])
        rest = token[2:]
        if rest == "":
            exp = 1
        elif rest.startswith("^"):
            if not _EXPONENT.fullmatch(rest[1:]):
                raise WordSyntaxError(f"bad exponent in {token!r}", pos)
            exp = int(rest[1:])
            if exp == 0:
                raise WordSyntaxError(f"zero exponent in {token!r}", pos)
        else:
            raise WordSyntaxError(f"unknown token {token!r}", pos)
        if len(letters) + abs(exp) > MAX_WORD_LETTERS:
            raise WordSyntaxError(f"{token!r} takes the word past {MAX_WORD_LETTERS} letters", pos)
        sign = 1 if exp > 0 else -1
        letters.extend([(gen, sign)] * abs(exp))
        pos = end
    return BraidWord(n, tuple(letters))


# ---------------------------------------------------------------------------
# signed Laurent arithmetic in q


@dataclass(frozen=True)
class QLaurent:
    """Laurent polynomial in q; coefficients are signed class combinations.

    The constructor checks that the terms are canonical (sorted, distinct
    exponents, nonzero tuples of n - 1 ints), so equal means equal terms.
    """

    n: int
    terms: tuple[tuple[int, tuple[int, ...]], ...]  # (exponent, signed vector)

    def __post_init__(self):
        exps = [e for e, _ in self.terms]
        if exps != sorted(exps) or len(set(exps)) != len(exps):
            raise ValueError("terms must be sorted by exponent and distinct")
        for _, vec in self.terms:
            if not isinstance(vec, tuple) or len(vec) != self.n - 1:
                raise ValueError(f"expected a tuple of {self.n - 1} coefficients for n={self.n}")
            if not any(vec):
                raise ValueError("zero coefficient must not be stored")

    @classmethod
    def zero(cls, n: int) -> QLaurent:
        return cls(n, ())

    @classmethod
    def from_dict(cls, n: int, d: dict[int, tuple[int, ...]]) -> QLaurent:
        return cls(
            n, tuple(sorted((e, v) for e, v in d.items() if any(c != 0 for c in v)))
        )

    @classmethod
    def from_rows(cls, n: int, rows: dict[int, list[int]]) -> QLaurent:
        return cls.from_dict(n, {e: tuple(row) for e, row in rows.items()})

    @classmethod
    def term(cls, n: int, e: int, vec: tuple[int, ...]) -> QLaurent:
        return cls.from_dict(n, {e: vec})

    @classmethod
    def scalar(cls, n: int, value: int) -> QLaurent:
        return cls.term(n, 0, (value,) + (0,) * (n - 2))

    def is_zero(self) -> bool:
        return not self.terms

    def eval_coxeter(self) -> float:
        """Specialise q = -1 and take Perron-Frobenius dimensions."""
        total = 0.0
        for e, vec in self.terms:
            total += (-1) ** (e % 2) * sum(
                c * delta_value(self.n, a) for a, c in enumerate(vec)
            )
        return total

    def to_json(self) -> list[dict]:
        return [{"q": e, "coeffs": list(v)} for e, v in self.terms]


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
def _sparse_generators(n: int) -> dict[tuple[int, int], tuple]:
    """The generator matrices as (a, b, c, d) of sparse terms, for ``product_tree``."""
    return {
        letter: tuple(sparse_entry(entry.terms) for row in matrix for entry in row)
        for letter, matrix in _burau_generators(n).items()
    }


def burau(w: BraidWord) -> BurauMatrix:
    """Exact Burau matrix of a word: the product of the letters' matrices in order.

    The generator matrices are multiplied in a balanced product tree
    (``fusion.product_tree``) and each entry is built once, through
    ``QLaurent.from_rows``.
    """
    gens = _sparse_generators(w.n)
    a, b, c, d = (
        QLaurent.from_rows(w.n, rows)
        for rows in product_tree(w.n, [gens[letter] for letter in w.letters])
    )
    return ((a, b), (c, d))


def burau_equal(a: BurauMatrix, b: BurauMatrix) -> bool:
    """Exact equality: ``QLaurent`` terms are canonical, so entries compare as terms."""
    return a == b


def coxeter_matrix(w: BraidWord) -> np.ndarray:
    """Burau at q = -1: the reflection representation of the dihedral group."""
    m = burau(w)
    return np.array([[m[i][j].eval_coxeter() for j in range(2)] for i in range(2)])


def positive_roots(n: int) -> np.ndarray:
    """The n positive roots of the dihedral root system, as unit complex numbers."""
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


def make_twist(n: int, family: int, index: int) -> TwistLetter:
    m = twist_modulus(n)
    if n % 2 and family == 2:
        # odd n: sigma_{gamma^j P_2} = sigma_{gamma^(j+(n+1)/2) P_1}
        family, index = 1, index + (n + 1) // 2
    return TwistLetter(family, index % m)


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
    source.  ``joins(n, x, 0, x)`` always holds.
    """
    kind, j = target_vertex(n, first)
    return forbidden_source(n, second) != (kind, (j + gammas) % twist_modulus(n))


@dataclass(frozen=True)
class NormalForm:
    """b_k^{m_k} ... b_1^{m_1} gamma^s over the twist alphabet.

    ``blocks`` is stored in application order: blocks[0] is b_1 (applied
    first, after gamma^s), with multiplicities >= 1 and adjacent blocks
    carrying distinct letters.
    """

    n: int
    blocks: tuple[tuple[TwistLetter, int], ...]
    gamma_exp: int

    def __post_init__(self):
        m = twist_modulus(self.n)
        prev: TwistLetter | None = None
        for letter, mult in self.blocks:
            if mult < 1:
                raise ValueError("block multiplicities must be positive")
            if not 0 <= letter.index < m:
                raise ValueError(f"letter index {letter.index} not reduced mod {m}")
            if self.n % 2 and letter.family != 1:
                raise ValueError("odd n letters are normalised to the P_1 family")
            if prev is not None:
                if prev == letter:
                    raise ValueError("adjacent blocks must carry distinct letters")
                if not joins(self.n, prev, 0, letter):
                    raise ValueError(
                        f"{letter.label()} cannot follow {prev.label()}"
                    )
            prev = letter

    def twist_count(self) -> int:
        return sum(m for _, m in self.blocks)

    def length(self) -> int:
        return self.twist_count() + abs(self.gamma_exp)

    def letters_applied(self) -> list[TwistLetter | int]:
        """Letter sequence in application order; gammas as +-1 integers."""
        out: list[TwistLetter | int] = []
        step = 1 if self.gamma_exp >= 0 else -1
        out.extend([step] * abs(self.gamma_exp))
        for letter, mult in self.blocks:
            out.extend([letter] * mult)
        return out

    def to_word(self) -> BraidWord:
        """Expand back to a word in s1, s2 (freely reduced).

        The blocks are spelled out into one letter sequence that is reduced
        once; free reduction is confluent, so this equals reducing piece by
        piece.
        """
        n = self.n
        letters: list[tuple[int, int]] = []
        for letter, mult in reversed(self.blocks):
            # sigma_{gamma^j P_i}^mult = gamma^j s_i^mult gamma^-j
            letters += gamma_letters(letter.index)
            letters += [(letter.family, 1)] * mult
            letters += gamma_letters(-letter.index)
        letters += gamma_letters(self.gamma_exp)
        return BraidWord(n, tuple(letters))

    def text(self) -> str:
        parts = [
            f"{letter.label()}" + (f"^{mult}" if mult > 1 else "")
            for letter, mult in reversed(self.blocks)
        ]
        if self.gamma_exp or not parts:
            parts.append(f"gamma^{self.gamma_exp}" if self.gamma_exp != 1 else "gamma")
        return " ".join(parts)


def to_normal_form(w: BraidWord) -> NormalForm:
    """Rewrite a word into automaton normal form.

    Letters are consumed in application order (rightmost first); inverse
    generators are eliminated via s2^-1 = s1 gamma^-1 and
    s1^-1 = gamma^-1 s2, gammas are pushed to the right (tracked lazily
    as an index offset), and non-viable adjacent twist pairs collapse to
    gamma.  Each collapse strictly shortens the word over the extended
    alphabet, so the pass terminates.
    """
    n = w.n
    m = twist_modulus(n)
    seq: list[TwistLetter] = []  # application order; raw indices
    offset = 0  # true index = raw + offset (mod m)
    s = 0

    def prepend_gamma(e: int) -> None:
        nonlocal offset, s
        offset += e
        s += e

    def prepend_twist(family: int, true_index: int) -> None:
        nonlocal offset, s
        letter = make_twist(n, family, true_index)
        if seq:
            last = seq[-1]
            last_true = make_twist(n, last.family, last.index + offset)
            if not joins(n, last_true, 0, letter):
                # letter * last_true = gamma; push it to the right
                seq.pop()
                prepend_gamma(1)
                return
        seq.append(make_twist(n, letter.family, letter.index - offset))

    for g, sign in reversed(w.letters):
        if sign == 1:
            prepend_twist(g, 0)
        elif g == 1:  # s1^-1 = gamma^-1 s2
            prepend_twist(2, 0)
            prepend_gamma(-1)
        else:  # s2^-1 = s1 gamma^-1
            prepend_gamma(-1)
            prepend_twist(1, 0)

    blocks: list[tuple[TwistLetter, int]] = []
    for raw in seq:
        letter = make_twist(n, raw.family, raw.index + offset)
        if blocks and blocks[-1][0] == letter:
            blocks[-1] = (letter, blocks[-1][1] + 1)
        else:
            blocks.append((letter, 1))
    return NormalForm(n, tuple(blocks), s)
