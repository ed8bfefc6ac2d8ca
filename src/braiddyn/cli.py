"""Command-line interface.

Four subcommands: ``classify`` (type + mass growth of a word), ``burau``
(exact Burau matrix), ``automaton`` (dump the full automaton as JSON),
``estimate`` (iterative growth estimator).  Words use the grammar of
:func:`braiddyn.braidword.parse_word`; ``--word -`` reads one word per
stdin line and reports in input order.  An exponent is an optional minus
sign followed by ASCII digits; ``s1^+2``, ``s2^1_0`` and digits of other
scripts are syntax errors.

``--t`` takes a finite real, also a negative one in exponent notation
(``--t -2e3`` is ``--t=-2e3``), and ``--max-iter`` an integer >= 0 (0
means no guard); anything else, such as ``--t nan``, ``--t inf`` or
``--max-iter -1``, is a usage error.  ``--t -0`` is read as 0.

``estimate`` iterates the support of the start vertex's basis units
folded by level: at most 3 m (n-1) keys (m = n for odd n, n/2 for even
n), each read once per twist letter and step, so its cost is linear in
``--steps``.

Exit codes: 0 success, 2 word syntax error (message carries the byte
offset), including a word longer than ``MAX_WORD_LETTERS`` (10^6)
letters before free reduction, or a usage error from argparse, 3
invalid n, outside 3 <= n <= ``MAX_N`` (128; one ``invalid n=...`` line
on stderr), 4 a computation error such as ``estimate --steps 1``, an
error from the guards of the classification loop or of the estimator, a
word that needs more conjugation rounds than ``classify --max-iter``
allows, or a computed real that is not finite, such as ``h_t`` at
``--t 1e308`` (one ``error: ...`` line on stderr), 1 the reader of
standard output went away before the output was written, as in
``braiddyn classify ... --word - | head -1`` (nothing on stderr).
Reals are printed with 9 decimal places by default; the environment
variable BRAIDDYN_PRECISION overrides this.  A real that rounds to zero
is printed as 0, never as -0.  Output is valid JSON and
never holds NaN or an infinity.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import lru_cache

from . import automaton as am
from .braidword import MAX_N, WordSyntaxError, burau, parse_word
from .classify import ClassificationResult, _estimate, classify
from .classify import estimate_growth  # noqa: F401  the bench tracer wraps cli.estimate_growth
from .fusion import eval_mass


def _precision() -> int:
    try:
        return max(1, int(os.environ.get("BRAIDDYN_PRECISION", "9")))
    except ValueError:
        return 9


def _finite(x: float) -> float:
    if not math.isfinite(x):
        raise ValueError(f"a computed real is not finite: {x}")
    return x


def _round(x: float) -> float:
    # "or 0.0": a value that rounds to zero prints as 0.0, never -0.0
    return float(f"{_finite(x):.{_precision()}f}") or 0.0


def _fmt(x: float) -> str:
    text = f"{_finite(x):.{_precision()}f}"
    return text.lstrip("-") if float(text) == 0 else text


def _checked(convert, ok, expected: str):
    """An argparse type: ``convert`` the text, then reject values failing ``ok``."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    return parse


_finite_real = _checked(lambda text: float(text) + 0.0, math.isfinite, "a finite real")  # -0 is 0
_nonnegative_int = _checked(int, lambda k: k >= 0, "an integer >= 0")


# The largest entry of a nonnegative 2x2 matrix is at least half its PF
# eigenvalue, so past this h0 an entry of matrix_at_0 is past the floats.
# (log(2 * max) would overflow.)
_LOG_FLOAT_MAX_TIMES_2 = math.log(2) + math.log(sys.float_info.max)


def _classification_report(res: ClassificationResult) -> dict:
    h0 = res.h0()
    if res.braid_type == "pseudo_anosov" and h0 > _LOG_FLOAT_MAX_TIMES_2 + 1e-9 * h0:
        # fail as the first entry of matrix_at_0 would, before M(p) is built
        _finite(math.inf)
    report = {
        "n": res.n,
        "type": res.braid_type,
        "h0": _round(h0),
        "growth": res.growth.to_json(),
        "normal_form": {
            "blocks": [
                {"letter": letter.label(), "mult": mult}
                for letter, mult in res.normal_form.blocks
            ],
            "gamma_exp": res.normal_form.gamma_exp,
            "text": res.normal_form.text(),
            # out_beta spells the normal form unless the verdict is reducible
            "word": (
                res.normal_form.to_word() if res.braid_type == "reducible" else res.out_beta
            ).text(),
        },
        "out": res.out_beta.text(),
        "conjugator": res.conjugator.text(),
        "rounds": res.rounds,
    }
    if res.params is not None:
        report["params"] = list(res.params)
    if res.path is not None:
        report["path"] = {
            "start": f"{res.path.start[0]}{res.path.start[1]}",
            "arrows": [
                {
                    "from": f"{a.source[0]}{a.source[1]}",
                    "to": f"{a.target[0]}{a.target[1]}",
                    "label": a.label_text(),
                }
                for a in res.path.arrows
            ],
        }
    if res.matrix is not None:
        report["matrix"] = [
            [res.matrix[r][c].to_json() for c in range(2)] for r in range(2)
        ]
        report["matrix_at_0"] = [
            [_round(eval_mass(res.matrix[r][c], 0.0)) for c in range(2)]
            for r in range(2)
        ]
    return report


def _human_classification(res: ClassificationResult) -> str:
    if res.braid_type == "periodic":
        slope = res.growth.slope  # type: ignore[union-attr]
        ht = "0" if slope == 0 else f"{slope}*t"
        return f"periodic; conjugate to {res.out_beta.text() or 'identity'}; h_t = {ht}"
    if res.braid_type == "reducible":
        i, k, l = res.params  # type: ignore[misc]
        return (
            f"reducible; conjugate to s{i}^{k} * chi^{l}; "
            f"{res.growth.describe()}; h0 = {_fmt(0.0)}"
        )
    return (
        f"pseudo_anosov; normal form {res.normal_form.text()}; "
        f"h0 = {_fmt(res.h0())}"
    )


def _run_classify(args) -> int:
    words = _gather_words(args)
    for text in words:
        res = classify(args.n, parse_word(text, args.n))
        if args.max_iter and res.rounds > args.max_iter:
            raise RuntimeError(
                f"conjugation used {res.rounds} rounds, above --max-iter {args.max_iter}"
            )
        if args.json:
            report = _classification_report(res)
            if args.t:
                report["t"] = _round(args.t)
                report["h_at_t"] = _round(res.growth.evaluate(args.t))
            print(json.dumps(report))
        else:
            line = _human_classification(res)
            if args.t:
                line += f"; h({args.t}) = {_fmt(res.growth.evaluate(args.t))}"
            print(line)
    return 0


def _run_burau(args) -> int:
    for text in _gather_words(args):
        matrix = burau(parse_word(text, args.n))
        if args.json:
            print(
                json.dumps(
                    {
                        "n": args.n,
                        "word": text,
                        "matrix": [
                            [matrix[r][c].to_json() for c in range(2)] for r in range(2)
                        ],
                    }
                )
            )
        else:
            for r in range(2):
                row = []
                for c in range(2):
                    terms = matrix[r][c].terms
                    row.append(
                        " + ".join(f"{list(v)} q^{e}" for e, v in terms) or "0"
                    )
                print(" | ".join(row))
    return 0


def _run_automaton(args) -> int:
    print(json.dumps(am.build(args.n).to_json()))
    return 0


def _run_estimate(args) -> int:
    for text in _gather_words(args):
        res = classify(args.n, parse_word(text, args.n))
        value = _estimate(res, args.steps, args.t)
        if args.json:
            print(
                json.dumps(
                    {
                        "n": args.n,
                        "word": text,
                        "t": _round(args.t),
                        "steps": args.steps,
                        "estimate": _round(value),
                        "closed_form": _round(res.growth.evaluate(args.t)),
                    }
                )
            )
        else:
            print(
                f"estimate {_fmt(value)} vs closed form "
                f"{_fmt(res.growth.evaluate(args.t))} at t={args.t}"
            )
    return 0


def _gather_words(args) -> list[str]:
    if args.word == "-":
        return [line.rstrip("\n") for line in sys.stdin]
    return [args.word]


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing does not change it."""
    parser = argparse.ArgumentParser(prog="braiddyn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, word=True):
        p.add_argument(
            "--n", type=int, required=True, help=f"dihedral parameter, 3 <= n <= {MAX_N}"
        )
        if word:
            p.add_argument(
                "--word", required=True, help="braid word; '-' reads lines from stdin"
            )
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p_classify = sub.add_parser("classify", help="classify a braid word")
    add_common(p_classify)
    p_classify.add_argument("--t", type=_finite_real, default=0.0)
    p_classify.add_argument(
        "--max-iter",
        type=_nonnegative_int,
        default=0,
        help="extra guard on conjugation rounds; 0 means none",
    )

    p_burau = sub.add_parser("burau", help="print the exact Burau matrix")
    add_common(p_burau)

    p_auto = sub.add_parser("automaton", help="dump the mass automaton")
    add_common(p_auto, word=False)

    p_est = sub.add_parser("estimate", help="iterative mass growth estimate")
    add_common(p_est)
    p_est.add_argument("--steps", type=int, default=24)
    p_est.add_argument("--t", type=_finite_real, default=0.0)
    return parser


def _glue_negative_t(argv: list[str]) -> list[str]:
    r"""Spell ``--t -2e3`` as ``--t=-2e3``.

    argparse reads a token that starts with "-" as a value only if it
    matches ``-\d+`` or ``-\d*\.\d+``, so a negative real in exponent
    notation would be taken for an option.
    """
    out: list[str] = []
    for token in argv:
        if out and out[-1] == "--t" and token.startswith("-") and not token.startswith("--"):
            out[-1] = f"--t={token}"
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(_glue_negative_t(sys.argv[1:] if argv is None else argv))
    if not 3 <= args.n <= MAX_N:
        print(f"invalid n={args.n}: need 3 <= n <= {MAX_N}", file=sys.stderr)
        return 3
    run = {
        "classify": _run_classify,
        "burau": _run_burau,
        "automaton": _run_automaton,
        "estimate": _run_estimate,
    }[args.command]
    try:
        code = run(args)
        sys.stdout.flush()  # a reader that went away shows up here at the latest
        return code
    except BrokenPipeError:
        # e.g. `| head -1`: the rest of the output has no reader.  Point
        # stdout at devnull so the flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except WordSyntaxError as exc:
        print(f"word syntax error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
