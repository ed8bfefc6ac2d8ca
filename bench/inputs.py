"""Seeded input generators for the three benchmark workloads.

Everything here is plain Python and shares no code with ``braiddyn``: a
word is built as a list of ``(generator, exponent)`` runs, rendered in the
package's word grammar, and the program only ever sees that text.

Each workload cycles through a fixed list of strata (``n``, and for two of
them the kind of input).  Within a stratum the word length follows a
golden-ratio sequence over a log-uniform range whose phase comes from the
seed, so every run sees almost the same spread of sizes and only the
letters change with the seed.  That keeps medians and tail percentiles
steady from seed to seed while the inputs still differ.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

Runs = list[tuple[int, int]]  # (generator 1|2, nonzero exponent), adjacent generators differ

# Generator parameters, one block per workload.  README.md repeats them.
PA_RANDOM = {
    "ns": (3, 5, 8, 16),
    "length": (8, 64),  # letters, log-uniform
    "big_exponent_p": 0.08,  # chance that a run gets a large exponent
    "big_exponent_max": 64,
    "ts": (0.0, 0.5, -0.5),
}
CONJUGATES = {
    "ns": (3, 5, 8, 16),
    "kinds": ("periodic_gamma", "periodic_twist", "reducible"),  # twist only for odd n
    "conjugator_length": (16, 80),  # letters of c, log-uniform
    "big_exponent_p": 0.05,
    "big_exponent_max": 12,
}
CLI_EXACT = {
    "ns": (3, 5, 8),
    "t": 0.5,
    "steps": 8,
    "classify": {"batch": 4, "length": (10, 28)},
    "burau": {"batch": 4, "length": (10, 36)},
    "estimate": {"batch": 1, "length": (2, 3)},  # alternating-sign words
}


@dataclass(frozen=True)
class Item:
    """One operation's input, plus what the construction says the answer is."""

    workload: str
    n: int
    texts: tuple[str, ...]
    command: str = "classify"  # cli subcommand; the other workloads classify
    expect_type: str | None = None
    expect_slopes: tuple[Fraction, ...] | None = None  # (slope,) or (slope_neg, slope_pos)

    @property
    def words(self) -> int:
        return len(self.texts)


def runs_text(runs: Runs) -> str:
    return " ".join(f"s{g}" if e == 1 else f"s{g}^{e}" for g, e in runs)


def runs_inverse(runs: Runs) -> Runs:
    return [(g, -e) for g, e in reversed(runs)]


def gamma_runs(s: int) -> Runs:
    """gamma^s with gamma = s2 s1."""
    if s >= 0:
        return [(2, 1), (1, 1)] * s
    return [(1, -1), (2, -1)] * (-s)


def random_runs(
    rng: random.Random, length: int, big_p: float, big_max: int, alternate_signs: bool = False
) -> Runs:
    """A freely reduced word of exactly ``length`` letters.

    Runs alternate between s1 and s2; most exponents are 1 to 3, and with
    probability ``big_p`` a run gets one up to ``big_max``.  With
    ``alternate_signs`` the run signs alternate, which gives words of the
    form s1^a s2^-b ... (pseudo-Anosov by Penner's construction).
    """
    runs: Runs = []
    total = 0
    g = rng.choice((1, 2))
    sign = rng.choice((1, -1))
    while total < length:
        left = length - total
        if left > 4 and rng.random() < big_p:
            e = rng.randint(4, min(big_max, left))
        else:
            e = min(rng.choice((1, 1, 1, 2, 2, 3)), left)
        if alternate_signs and not runs:
            e = min(e, length - 1)  # at least two runs, or the word is a twist power
        if not alternate_signs:
            sign = rng.choice((1, -1))
        runs.append((g, sign * e))
        total += e
        g = 3 - g
        if alternate_signs:
            sign = -sign
    return runs


def _lengths(rng: random.Random, strata: int, lo: int, hi: int) -> Iterator[list[int]]:
    """Per cycle, one length per stratum from seeded golden-ratio sequences."""
    phases = [rng.random() for _ in range(strata)]
    span = math.log(hi) - math.log(lo)
    k = 0
    while True:
        yield [
            round(math.exp(math.log(lo) + ((p + k * GOLDEN) % 1.0) * span)) for p in phases
        ]
        k += 1


def pa_random(seed: int) -> Iterator[Item]:
    p = PA_RANDOM
    rng = random.Random(f"pa_random:{seed}")
    ns = p["ns"]
    for lengths in _lengths(rng, len(ns), *p["length"]):
        for n, length in zip(ns, lengths):
            runs = random_runs(rng, length, p["big_exponent_p"], p["big_exponent_max"])
            yield Item("pa_random", n, (runs_text(runs),))


def _expected_reducible(n: int, k: int, l: int) -> tuple[Fraction, Fraction]:
    # sigma_i^k chi^l: chi = gamma^n (odd n) contributes -2l t, gamma^(n/2) (even n) -l t,
    # and the twist adds -k t on the side where it grows.
    central = 2 * l if n % 2 else l
    if k >= 1:
        return Fraction(-k - central), Fraction(-central)
    return Fraction(-central), Fraction(-k - central)


def _beta(rng: random.Random, n: int, kind: str) -> tuple[Runs, str, tuple[Fraction, ...]]:
    """A periodic or reducible braid with its type and h_t slopes."""
    m = n if n % 2 else n // 2  # chi = gamma^m is central (or squares to central)
    if kind == "periodic_gamma":
        s = rng.choice([e for e in range(-2 * n, 2 * n + 1) if e])
        return gamma_runs(s), "periodic", (Fraction(-2 * s, n),)
    if kind == "periodic_twist":
        # odd n: Delta = s1 gamma^((n-1)/2) squares to gamma^n, so
        # beta = s1 gamma^s with s = (n-1)/2 mod n squares to gamma^(2s+1)
        s = (n - 1) // 2 + n * rng.choice((-1, 0, 1))
        return [(1, 1)] + gamma_runs(s), "periodic", (Fraction(-(2 * s + 1), n),)
    i = rng.choice((1, 2))
    k = rng.choice((-4, -3, -2, -1, 1, 2, 3, 4))
    l = rng.choice((-2, -1, 0, 1, 2))
    return [(i, k)] + gamma_runs(l * m), "reducible", _expected_reducible(n, k, l)


def conjugates(seed: int) -> Iterator[Item]:
    p = CONJUGATES
    rng = random.Random(f"conjugates:{seed}")
    strata = [(n, kind) for n in p["ns"] for kind in p["kinds"]
              if kind != "periodic_twist" or n % 2]
    for lengths in _lengths(rng, len(strata), *p["conjugator_length"]):
        for (n, kind), length in zip(strata, lengths):
            c = random_runs(rng, length, p["big_exponent_p"], p["big_exponent_max"])
            beta, braid_type, slopes = _beta(rng, n, kind)
            text = " ".join((runs_text(c), runs_text(beta), runs_text(runs_inverse(c))))
            yield Item("conjugates", n, (text,), expect_type=braid_type, expect_slopes=slopes)


def cli_exact(seed: int) -> Iterator[Item]:
    p = CLI_EXACT
    rng = random.Random(f"cli_exact:{seed}")
    commands = ("classify", "burau", "estimate")
    strata = [(n, command) for n in p["ns"] for command in commands]
    streams = {
        command: _lengths(rng, len(p["ns"]) * p[command]["batch"], *p[command]["length"])
        for command in commands
    }
    while True:
        lengths = {command: next(stream) for command, stream in streams.items()}
        for n, command in strata:
            batch = p[command]["batch"]
            start = p["ns"].index(n) * batch
            runs = [
                random_runs(
                    rng, length, 0.0, 1, alternate_signs=command == "estimate"
                )
                for length in lengths[command][start : start + batch]
            ]
            yield Item("cli_exact", n, tuple(runs_text(r) for r in runs), command=command)


STREAMS = {"pa_random": pa_random, "conjugates": conjugates, "cli_exact": cli_exact}


def stream(workload: str, seed: int) -> Iterator[Item]:
    return STREAMS[workload](seed)


def warmup(workload: str) -> list[Item]:
    """Fixed short inputs that touch every code path a workload uses."""
    ns = {"pa_random": PA_RANDOM, "conjugates": CONJUGATES, "cli_exact": CLI_EXACT}[workload]["ns"]
    items = []
    for n in ns:
        if workload == "cli_exact":
            for command in ("classify", "burau", "estimate"):
                items.append(Item(workload, n, ("s1 s2^-1",), command=command))
        elif workload == "conjugates":
            items.append(
                Item(workload, n, ("s1 s2^2 s1^-1",), expect_type="reducible",
                     expect_slopes=_expected_reducible(n, 2, 0))
            )
        else:
            items.append(Item(workload, n, ("s1^2 s2^-1",)))
    return items
