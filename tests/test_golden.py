"""Golden digests of the exact CLI output on a fixed seeded batch.

Each digest is the sha256 of the exit code and stdout of one in-process
CLI call: ``classify --json`` and ``burau --json`` on a batch of random
words per n (read from stdin with ``--word -``), the same two on a few
long words (``LONG_WORDS``: long runs, entries with coefficients above
64 bits, and signed entries that cancel), and ``automaton --json`` for
n = 3..19 and 32.  ``classify`` drops its float fields (``h0``, ``t``,
``h_at_t``, ``matrix_at_0``), whose last digits may depend on the
platform's libm; everything left is exact.  A change to any exact field, its order, or the output's
dependence on ``PYTHONHASHSEED`` shows up as a changed digest.

Run this module as a script to print the digests of the current code.
"""

import contextlib
import hashlib
import io
import json
import random
import sys

import pytest

from braiddyn.cli import main

WORDS_PER_N = 24
FLOAT_FIELDS = ("h0", "t", "h_at_t", "matrix_at_0")

GOLDEN = {
    "classify n=3": "88abef51fec42b7a4d07ce6ba007ac02da457681cb7cf5ed4d18e9d06f27610c",
    "classify n=4": "85b909dd87bbcd162b13968a18caf6c8e7d1c5b778411030b7467de5f6d10d38",
    "classify n=5": "bb32d009cce1803568e2e493c4a4f04b9e3c0e6ad0d69a8d2159dcf8b55d02ad",
    "classify n=8": "0696291aba08132204d66c454707c32a88e0ade8b26ca8281ad3bf4fa4532efc",
    "classify n=16": "67450fe1dc9af4ba5ce21b520efde8699c22f1bd2798281942571c03bf3a09a1",
    "burau n=3": "1f57ad0a90a8d8508229239a4006e2fe9a12872285e99bb7bdcb26dfcde51f92",
    "burau n=4": "cfe687d3c082c09df300db53a0f06f3a657ddd3d088d13d1f57a82d951a8dcc0",
    "burau n=5": "a6e67a437df94a895f3f32151027b8a5beabf9b71bb6d9f399bcfeabfae4cc42",
    "burau n=8": "c8a950e16be6ec9363a7b93c0a51539dbe9c5d213c71b6714b6f2a049302f012",
    "burau n=16": "b70e4693d01405d5d3cdea505c794c81ad0ea1b2cef056e542b41bdd968a6bcf",
    "automaton n=3": "8538c4e95be92bb60e79ae3c9aed78d65745aa16dc451e7c5a0434855c8afbd6",
    "automaton n=4": "72187152ec90ba2a5de7f7f6d861e079459b03a216fac70a814c4f8b3c3a33ad",
    "automaton n=5": "51bf535dc974e31f5ba3410a130af6b847b382e2fc37efcbb67ef504951e0dbb",
    "automaton n=6": "55611e657dbaa1f03259989a8852f881044944d0753596b64e631cde1cc466f6",
    "automaton n=7": "ca2d093c1d3a93125fbcb7b8fd51eeeaabbe492f413c9beca209858185dfce76",
    "automaton n=8": "c7f8966b73d08893f0f228dfe2ff4c9e5fa391e46540b967580b29efcb3f5369",
    "automaton n=9": "3ea16fa512bc2fb5a10363b8c99b3647be67c55ada8584bb595cfb7c8670ff44",
    "automaton n=10": "68b8f37853691b88cd8c57ed3f4818b23b3bab6cb66a78a86dde7a1dd4b08f90",
    "automaton n=11": "2f828707198a5409e9aaaf1029f007a8ac71898664ed292bf9cfbd6afb2781bf",
    "automaton n=12": "9e7037b78b6acf702c9d273f3d927b7d34d05b516e9a1d09ee598f1299c682e7",
    "automaton n=13": "1d6ee14379735248a8063956c2b3611b2e388a7977f4feb4002af734e1d72e7c",
    "automaton n=14": "d8c47196623b788f21930c54d1d8c75bd651a8b696792c400cc4acb0bd99c482",
    "automaton n=15": "b45f6816a8e78fb297bc9898c3371ae3917c52fe6a17d8da4fb34bc5cabb056a",
    "automaton n=16": "d7dc53bdbcc9f444377597ba7e87dc2ec4e90582fe611e6c212af9abee4a2ec0",
    "automaton n=17": "c911913e5c9dfa3d9f834fc4c69918d93aad1667b62c3d4f5b23ad924a09ed04",
    "automaton n=18": "7d006797acef6a0fc8d2c932015e308aab1bc01e284986f14febb34ba4b30cd2",
    "automaton n=19": "20fd4a36f48bd780bc074e1feb8643fec91ae50809774ae3079f79b64f081db1",
    "automaton n=32": "b23114eb27ce484907cf53f5272aef9118c81f290a1d126eefe03f554c59b6dc",
    "classify n=8 s1^-1000 s2^-1000": "06c0eb641e113fd8025035a9a8711969d9b04a43747d6523c8bcd27145ef70a9",
    "classify n=5 s1^20000 s2^-3": "b5865c20bcecab7c09324d617a06e35ffd19c8644a83dc157f93c114fc5406d4",
    "classify n=8 (s1^3 s2^-3)^40": "3c8dcadd4055e2d17afe9d6ac175b9d9a1b5257fe96e30e25a84641e2a749cf0",
    "burau n=8 s1^-1000 s2^-1000": "881c8dc52d56ddcaa90d1994e275aa2a7e8a4c893f8398328e7417259a1d4fbd",
    "burau n=5 s1^20000 s2^-3": "0e83c8a9227bd37d4974db3775be50d2bbfef5fbbe3b6b6481ca40fbb829be55",
    "burau n=8 (s1^3 s2^-3)^40": "1ce404c58aa3472e551c67b650737020e69f4ddd3600d66d6aefa96bf1cf1980",
    "burau n=3 (s2 s1)^3000": "9c166f697a164a4be372869cab136f234c13e39a0d0d1845559db6f3ce5fccd2",
    "burau n=5 (s2 s1)^2000 s1^3 (s1^-1 s2^-1)^2000": "4e21579b95bfde160fd2fc1fe3c14c861c0dfb5106b9981262dc06726f974dd0",
}

# a golden name "<command> n=<n> <label>" runs the one word LONG_WORDS[label]
LONG_WORDS = {
    "s1^-1000 s2^-1000": "s1^-1000 s2^-1000",
    "s1^20000 s2^-3": "s1^20000 s2^-3",
    "(s1^3 s2^-3)^40": " ".join(["s1^3 s2^-3"] * 40),
    # gamma^3 is central at n=3, and a conjugate of s1^3: signed entries that cancel
    "(s2 s1)^3000": " ".join(["s2 s1"] * 3000),
    "(s2 s1)^2000 s1^3 (s1^-1 s2^-1)^2000": " ".join(
        ["s2 s1"] * 2000 + ["s1^3"] + ["s1^-1 s2^-1"] * 2000
    ),
}


def batch(n: int) -> list[str]:
    """The seeded random words for n: 1 to 16 tokens, exponents in [-3, 3] minus 0."""
    rng = random.Random(1000 + n)
    words = []
    for _ in range(WORDS_PER_N):
        tokens = []
        for _ in range(rng.randint(1, 16)):
            k = rng.choice((-3, -2, -1, 1, 2, 3))
            tokens.append(f"s{rng.choice((1, 2))}" + ("" if k == 1 else f"^{k}"))
        words.append(" ".join(tokens))
    return words


def run_cli(argv: list[str], stdin: str = "") -> tuple[int, str]:
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def exact_classify_line(line: str) -> str:
    report = json.loads(line)
    for key in FLOAT_FIELDS:
        report.pop(key, None)
    return json.dumps(report)


def output_digest(name: str) -> str:
    command, rest = name.split(" n=")
    n, _, label = rest.partition(" ")
    if command == "automaton":
        code, out = run_cli(["automaton", "--n", n, "--json"])
    else:
        words = "".join(f"{w}\n" for w in ([LONG_WORDS[label]] if label else batch(int(n))))
        code, out = run_cli([command, "--n", n, "--word", "-", "--json"], words)
        if command == "classify":
            out = "".join(exact_classify_line(line) + "\n" for line in out.splitlines())
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()


@pytest.mark.parametrize("name", list(GOLDEN))
def test_exact_output_is_unchanged(name):
    assert output_digest(name) == GOLDEN[name]


if __name__ == "__main__":
    for key in GOLDEN:
        print(f'    "{key}": "{output_digest(key)}",')
