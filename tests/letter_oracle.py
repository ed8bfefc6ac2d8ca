"""Twist letters as objects: the pair rule, the normal form and the word spellers.

``braiddyn.braidword`` runs these on small-int letter codes and one ban
table per n.  This module keeps the object-level versions as oracles:
``joins_by_vertices`` compares the vertex tuples of ``target_vertex`` and
``forbidden_source``, ``normal_form_by_letters`` is the run-level rewrite
that builds a ``TwistLetter`` per step, and ``word_by_blocks`` /
``conjugator_by_blocks`` spell each twist power as gamma^j s_i^e gamma^-j
on its own, leaving the gammas between powers to free reduction.
"""

from __future__ import annotations

from itertools import groupby

from braiddyn.braidword import (
    BraidWord,
    NormalForm,
    TwistLetter,
    forbidden_source,
    gamma_letters,
    make_twist,
    target_vertex,
    twist_modulus,
)


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
