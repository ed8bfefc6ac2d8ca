"""Independent answers the benchmark checks the program against.

None of this imports ``braiddyn``: the word grammar is tokenised here, the
n = 3 verdict comes from the SL(2, Z) image of B3, and the Coxeter matrix
from a plain numpy product of the generators' reflection matrices.
"""

from __future__ import annotations

import math

import numpy as np

LOG2 = math.log(2.0)


def tokens(text: str) -> list[tuple[int, int]]:
    """Runs (generator, exponent) of a word written in the s1/s2 grammar."""
    runs = []
    for tok in text.split():
        gen, _, exp = tok.partition("^")
        if gen not in ("s1", "s2"):
            raise ValueError(f"unknown token {tok!r}")
        runs.append((int(gen[1]), int(exp) if exp else 1))
    return runs


def exponent_sum(text: str) -> int:
    return sum(e for _, e in tokens(text))


def rotate(text: str) -> str:
    """The word read from the middle run onwards: a cyclic rotation, so a conjugate."""
    runs = text.split()
    k = len(runs) // 2
    return " ".join(runs[k:] + runs[:k])


def sl2_trace(text: str) -> int:
    """Trace of the B3 image in SL(2, Z): s1 -> [[1,1],[0,1]], s2 -> [[1,0],[-1,1]]."""
    a, b, c, d = 1, 0, 0, 1
    for gen, e in tokens(text):
        if gen == 1:  # right-multiply by [[1,e],[0,1]]
            b, d = a * e + b, c * e + d
        else:  # right-multiply by [[1,0],[-e,1]]
            a, c = a - b * e, c - d * e
    return a + d


def n3_verdict(text: str) -> tuple[str | None, float | None]:
    """(type, h0) for n = 3 from the trace; type None when |tr| = 2 leaves it open.

    |tr| > 2 is pseudo-Anosov with h0 = log((|tr| + sqrt(tr^2 - 4)) / 2);
    |tr| < 2 is periodic; |tr| = 2 is reducible or a central periodic braid.
    """
    tr = abs(sl2_trace(text))
    if tr > 2:
        x = float(tr)
        return "pseudo_anosov", math.log(x) + math.log((1.0 + math.sqrt(1.0 - 4.0 / (x * x))) / 2.0)
    if tr < 2:
        return "periodic", None
    return None, None


def delta(n: int, a: int) -> float:
    """Perron-Frobenius dimension of Pi_a: sin((a+1) pi / n) / sin(pi / n)."""
    return math.sin((a + 1) * math.pi / n) / math.sin(math.pi / n)


def coxeter_product(text: str, n: int) -> np.ndarray:
    """Reflection representation of the word, generators multiplied in text order."""
    d = 2.0 * math.cos(math.pi / n)
    gens = {1: np.array([[-1.0, d], [0.0, 1.0]]), 2: np.array([[1.0, 0.0], [d, -1.0]])}
    out = np.eye(2)
    for gen, e in tokens(text):
        if e % 2:  # each generator is an involution at q = -1
            out = out @ gens[gen]
    return out


def burau_at_minus_one(entry: list[dict], n: int) -> tuple[float, float]:
    """Value at q = -1 of one exact Burau entry in the CLI's JSON, and its scale.

    Each label's coefficients are summed exactly first, so the only
    rounding is in the final n - 1 term sum.
    """
    per_label = [0] * (n - 1)
    for term in entry:
        sign = -1 if term["q"] % 2 else 1
        for a, c in enumerate(term["coeffs"]):
            per_label[a] += sign * c
    value = sum(k * delta(n, a) for a, k in enumerate(per_label))
    scale = sum(abs(k) * delta(n, a) for a, k in enumerate(per_label))
    return value, scale
