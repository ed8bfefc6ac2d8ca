"""Oracles: the regex parser, and twist letters as objects.

``braiddyn.braidword`` reads word text with one split and a token table,
and runs the rewrite on small-int letter codes and one ban table per n;
``braiddyn.classify`` peels on those codes too.  This module keeps the
earlier versions as oracles: ``parse_by_regex`` reads a token per regex
match, ``joins_by_vertices`` compares the vertex tuples of
``target_vertex`` and ``forbidden_source``, ``normal_form_by_letters`` is
the run-level rewrite that builds a ``TwistLetter`` per step,
``peel_by_letters`` is the conjugation loop with one ``joins`` call per
round, and ``word_by_blocks`` / ``conjugator_by_blocks`` spell each twist
power as gamma^j s_i^e gamma^-j on its own, leaving the gammas between
powers to free reduction.
"""

from __future__ import annotations

import re
from itertools import groupby

from braiddyn.braidword import (
    MAX_WORD_LETTERS,
    BraidWord,
    NormalForm,
    TwistLetter,
    WordSyntaxError,
    check_n,
    forbidden_source,
    gamma_letters,
    joins,
    make_twist,
    target_vertex,
    to_normal_form,
    twist_modulus,
)

# A well-formed token (groups 1-3: generator, sign, ASCII digits), else any
# other run of non-space bytes; group 4 is set when that one has an exponent.
_TOKEN = re.compile(rb"s([12])(?:\^(-?)([0-9]+))?(?!\S)|(s[12]\^\S*)|\S+")
_MAX_DIGITS = len(str(MAX_WORD_LETTERS))


def parse_by_regex(text: str, n: int) -> BraidWord:
    """``parse_word`` with one regex match per token, its errors and byte offsets."""
    check_n(n)
    runs: list[tuple[int, int]] = []
    count = 0  # letters so far, before free reduction
    for match in _TOKEN.finditer(text.encode()):
        gen, minus, digits, bad_exponent = match.groups()
        if gen is None:
            kind = "bad exponent in" if bad_exponent else "unknown token"
            raise WordSyntaxError(f"{kind} {match[0].decode()!r}", match.start())
        digits = b"1" if digits is None else digits.lstrip(b"0")
        if not digits:
            raise WordSyntaxError(f"zero exponent in {match[0].decode()!r}", match.start())
        # more digits than the cap has is past it, and int() never reads them
        k = int(digits) if len(digits) <= _MAX_DIGITS else MAX_WORD_LETTERS + 1
        if count + k > MAX_WORD_LETTERS:
            raise WordSyntaxError(
                f"{match[0].decode()!r} takes the word past {MAX_WORD_LETTERS} letters",
                match.start(),
            )
        count += k
        runs.append((int(gen), -k if minus else k))
    return BraidWord(n, tuple(runs))


def joins_by_vertices(n: int, first: TwistLetter, gammas: int, second: TwistLetter) -> bool:
    """``second`` can follow ``first`` and ``gammas`` net gammas: vertex tuples compared."""
    kind, j = target_vertex(n, first)
    return forbidden_source(n, second) != (kind, (j + gammas) % twist_modulus(n))


def normal_form_by_letters(w: BraidWord) -> NormalForm:
    """The run-level rewrite into normal form, one ``TwistLetter`` per step."""
    n = w.n
    blocks: list[list] = []  # [raw letter, multiplicity], application order
    s = 0  # gammas pushed to the right so far; true index = raw + s (mod m)

    def prepend_twist(family: int, count: int) -> None:
        nonlocal s
        while count:
            raw = make_twist(n, family, -s)
            if blocks and blocks[-1][0] == raw:
                blocks[-1][1] += count
                return
            if blocks and not joins_by_vertices(n, blocks[-1][0], 0, raw):
                # raw * last = gamma; push it to the right
                blocks[-1][1] -= 1
                if not blocks[-1][1]:
                    blocks.pop()
                s += 1
                count -= 1
                continue
            blocks.append([raw, count])
            return

    for g, k in reversed(w.runs):
        if k > 0:
            prepend_twist(g, k)
            continue
        for _ in range(-k):
            if g == 1:  # s1^-1 = gamma^-1 s2
                prepend_twist(2, 1)
                s -= 1
            else:  # s2^-1 = s1 gamma^-1
                s -= 1
                prepend_twist(1, 1)

    return NormalForm(
        n,
        tuple((make_twist(n, raw.family, raw.index + s), mult) for raw, mult in blocks),
        s,
    )


def word_by_blocks(nf: NormalForm) -> BraidWord:
    """``nf.to_word()`` spelled block by block, each as gamma^j s_i^mult gamma^-j."""
    runs: list[tuple[int, int]] = []
    for letter, mult in reversed(nf.blocks):
        runs += gamma_letters(letter.index)
        runs.append((letter.family, mult))
        runs += gamma_letters(-letter.index)
    runs += gamma_letters(nf.gamma_exp)
    return BraidWord(nf.n, tuple(runs))


def conjugator_by_blocks(n: int, peeled: list[TwistLetter]) -> BraidWord:
    """The inverse of the product of the letters peeled in this order, power by power."""
    runs: list[tuple[int, int]] = []
    for letter, group in groupby(reversed(peeled)):
        runs += gamma_letters(letter.index)
        runs.append((letter.family, -len(list(group))))
        runs += gamma_letters(-letter.index)
    return BraidWord(n, tuple(runs))


def peel_by_letters(n: int, w: BraidWord) -> tuple[NormalForm, list[TwistLetter]]:
    """``classify``'s conjugation loop on letter objects: (final normal form, peeled letters).

    Each round asks ``joins(n, b_k, s, b_1)``; while that fails, b_k is
    peeled, one letter comes off each end of the block list and s grows by
    one, so the number of rounds is the number of peeled letters.
    """
    first = to_normal_form(w)
    blocks = [[letter, mult] for letter, mult in first.blocks]
    lo, hi = 0, len(blocks) - 1
    total, s = first.twist_count(), first.gamma_exp
    peeled: list[TwistLetter] = []
    while total >= 2 and not joins(n, blocks[hi][0], s, blocks[lo][0]):
        peeled.append(blocks[hi][0])
        blocks[lo][1] -= 1
        blocks[hi][1] -= 1
        if blocks[lo][1] == 0:
            lo += 1
        if blocks[hi][1] == 0:
            hi -= 1
        total -= 2
        s += 1
    return NormalForm(n, tuple((letter, mult) for letter, mult in blocks[lo : hi + 1]), s), peeled
