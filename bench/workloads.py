"""What one op does on each workload, and the checks on its answer.

Ops call the package through module attributes (``braidword.parse_word``,
``classify.classify``, ``cli.main``) so that the tracer's wrappers see the
calls.  Checks run outside the timed region and return a list of
problems; an empty list means the answer is correct.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import sys
from fractions import Fraction

import oracles
from inputs import CLI_EXACT, PA_RANDOM, Item

bw = importlib.import_module("braiddyn.braidword")
cl = importlib.import_module("braiddyn.classify")  # the package attribute is the function
cli = importlib.import_module("braiddyn.cli")

TYPES = ("periodic", "reducible", "pseudo_anosov")


def run_op(item: Item):
    if item.workload == "cli_exact":
        return _run_cli(item)
    res = cl.classify(item.n, bw.parse_word(item.texts[0], item.n))
    if item.workload == "pa_random":
        return res, tuple(res.growth.evaluate(t) for t in PA_RANDOM["ts"])
    return res, None


def _run_cli(item: Item) -> tuple[int, str]:
    argv = [item.command, "--n", str(item.n), "--word", "-", "--json"]
    if item.command == "classify":
        argv += ["--t", str(CLI_EXACT["t"])]
    elif item.command == "estimate":
        argv += ["--steps", str(CLI_EXACT["steps"])]
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO("".join(text + "\n" for text in item.texts))
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def check(item: Item, out) -> list[str]:
    if item.workload == "cli_exact":
        return _check_cli(item, *out)
    res, hs = out
    text = item.texts[0]
    problems = _check_verdict(item.n, text, res.braid_type, res.h0())
    if sum(res.out_beta.exponent_sums()) != oracles.exponent_sum(text):
        problems.append("out_beta changed the exponent sum")
    if item.workload == "pa_random" and item.n != 3:
        problems += _check_conjugate(item.n, text, res.braid_type, res.h0())
    if hs is not None:
        if not all(math.isfinite(h) for h in hs):
            problems.append(f"non-finite h_t {hs}")
        elif res.braid_type == "pseudo_anosov":
            h0, hp, hm = hs
            # log PF of a matrix with log-convex entries is convex in t
            if hp + hm < 2 * h0 - 1e-9 * max(1.0, abs(h0)):
                problems.append(f"h_t not convex: {hs}")
    if item.expect_type is not None:
        if res.braid_type != item.expect_type:
            problems.append(f"type {res.braid_type}, constructed {item.expect_type}")
        elif _slopes(res.growth) != item.expect_slopes:
            problems.append(f"slopes {_slopes(res.growth)}, constructed {item.expect_slopes}")
    return problems


def _slopes(growth) -> tuple[Fraction, ...] | None:
    if hasattr(growth, "slope"):
        return (growth.slope,)
    if hasattr(growth, "slope_neg"):
        return (growth.slope_neg, growth.slope_pos)
    return None


def _check_conjugate(n: int, text: str, braid_type: str, h0: float) -> list[str]:
    """A cyclic rotation is a conjugate, so it must get the same type and h0.

    This does not trust the verdict, so it also covers the n > 3 words that
    no oracle decides.
    """
    again = cl.classify(n, bw.parse_word(oracles.rotate(text), n))
    if again.braid_type != braid_type or abs(again.h0() - h0) > 1e-8 * max(1.0, h0):
        return [f"a rotation classifies as {again.braid_type} {again.h0()}, "
                f"the word as {braid_type} {h0}"]
    return []


def _check_verdict(n: int, text: str, braid_type: str, h0: float) -> list[str]:
    """Type and h0 against the n = 3 trace oracle and the log 2 floor."""
    problems = []
    if braid_type not in TYPES:
        return [f"unknown type {braid_type!r}"]
    if braid_type == "pseudo_anosov" and h0 < oracles.LOG2 - 1e-9:
        problems.append(f"pseudo-Anosov with h0 {h0} < log 2")
    if n == 3:
        want, want_h0 = oracles.n3_verdict(text)
        if want == "pseudo_anosov" or braid_type == "pseudo_anosov":
            if braid_type != want:
                problems.append(f"n=3 trace oracle says {want}, got {braid_type}")
            elif abs(h0 - want_h0) > 1e-8 * max(1.0, want_h0):
                problems.append(f"n=3 h0 {h0}, trace oracle {want_h0}")
        elif want is not None and braid_type != want:
            problems.append(f"n=3 trace oracle says {want}, got {braid_type}")
    return problems


def _check_cli(item: Item, code: int, output: str) -> list[str]:
    if code != 0:
        return [f"exit code {code}"]
    lines = output.splitlines()
    if len(lines) != len(item.texts):
        return [f"{len(lines)} output lines for {len(item.texts)} words"]
    problems = []
    for text, line in zip(item.texts, lines):
        try:
            rep = json.loads(line)
        except json.JSONDecodeError as exc:
            problems.append(f"bad JSON line: {exc}")
            continue
        if rep.get("n") != item.n:
            problems.append(f"n {rep.get('n')} for {item.n}")
        elif item.command == "classify":
            problems += _check_cli_classify(item.n, text, rep)
        elif item.command == "burau":
            problems += _check_cli_burau(item.n, text, rep)
        else:
            problems += _check_cli_estimate(item.n, text, rep)
    return problems


def _check_cli_classify(n: int, text: str, rep: dict) -> list[str]:
    problems = _check_verdict(n, text, rep["type"], rep["h0"])
    again = cl.classify(n, bw.parse_word(rep["normal_form"]["word"], n))
    if again.braid_type != rep["type"] or abs(again.h0() - rep["h0"]) > 1e-8:
        problems.append(
            f"normal_form.word reclassifies as {again.braid_type} {again.h0()}, "
            f"reported {rep['type']} {rep['h0']}"
        )
    if oracles.exponent_sum(rep["out"]) != oracles.exponent_sum(text):
        problems.append("out changed the exponent sum")
    if rep.get("t") != CLI_EXACT["t"] or not math.isfinite(rep.get("h_at_t", math.nan)):
        problems.append("missing h_at_t")
    if rep["type"] == "pseudo_anosov" and ("matrix" not in rep or "matrix_at_0" not in rep):
        problems.append("pseudo-Anosov report without its matrix")
    return problems


def _check_cli_burau(n: int, text: str, rep: dict) -> list[str]:
    if rep.get("word") != text:
        return ["burau report names another word"]
    want = oracles.coxeter_product(text, n)
    for r in range(2):
        for c in range(2):
            got, scale = oracles.burau_at_minus_one(rep["matrix"][r][c], n)
            if abs(got - want[r, c]) > 1e-9 * (1.0 + scale):
                return [f"Burau at q=-1 entry ({r},{c}) {got}, Coxeter product {want[r, c]}"]
    return []


def _check_cli_estimate(n: int, text: str, rep: dict) -> list[str]:
    problems = _check_verdict(n, text, "pseudo_anosov", rep["closed_form"])
    if rep.get("word") != text or rep.get("steps") != CLI_EXACT["steps"]:
        problems.append("estimate report names another word or step count")
    if abs(rep["estimate"] - rep["closed_form"]) > 1e-6:
        problems.append(f"estimate {rep['estimate']} vs closed form {rep['closed_form']}")
    return problems
