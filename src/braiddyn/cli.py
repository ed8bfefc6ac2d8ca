"""Command-line interface.

Four subcommands: ``classify`` (type + mass growth of a word), ``burau``
(exact Burau matrix), ``automaton`` (dump the full automaton as JSON),
``estimate`` (iterative growth estimator).  Words use the grammar of
:func:`braiddyn.braidword.parse_word`; ``--word -`` reads one word per
stdin line and reports in input order.

Exit codes: 0 success, 2 word syntax error (message carries the byte
offset), 3 invalid n, 4 a computation error such as ``estimate --steps 1``,
a word the estimator cannot iterate, or a ``RuntimeError`` from the
guards of the classification loop (one ``error: ...`` line on stderr).
Reals are printed with 9 decimal places by default; the environment
variable BRAIDDYN_PRECISION overrides this.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import automaton as am
from .braidword import WordSyntaxError, burau, parse_word
from .classify import ClassificationResult, _estimate, classify
from .classify import estimate_growth  # noqa: F401  the bench tracer wraps cli.estimate_growth
from .fusion import eval_mass


def _precision() -> int:
    try:
        return max(1, int(os.environ.get("BRAIDDYN_PRECISION", "9")))
    except ValueError:
        return 9


def _round(x: float) -> float:
    return float(f"{x:.{_precision()}f}")


def _fmt(x: float) -> str:
    return f"{x:.{_precision()}f}"


def _classification_report(res: ClassificationResult) -> dict:
    report = {
        "n": res.n,
        "type": res.braid_type,
        "h0": _round(res.h0()),
        "growth": res.growth.to_json(),
        "normal_form": {
            "blocks": [
                {"letter": letter.label(), "mult": mult}
                for letter, mult in res.normal_form.blocks
            ],
            "gamma_exp": res.normal_form.gamma_exp,
            "text": res.normal_form.text(),
            "word": res.normal_form.to_word().text(),
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
            print(
                f"conjugation used {res.rounds} rounds, above --max-iter",
                file=sys.stderr,
            )
            return 1
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="braiddyn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, word=True):
        p.add_argument("--n", type=int, required=True, help="dihedral parameter n >= 3")
        if word:
            p.add_argument(
                "--word", required=True, help="braid word; '-' reads lines from stdin"
            )
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p_classify = sub.add_parser("classify", help="classify a braid word")
    add_common(p_classify)
    p_classify.add_argument("--t", type=float, default=0.0)
    p_classify.add_argument(
        "--max-iter", type=int, default=0, help="extra guard on conjugation rounds"
    )

    p_burau = sub.add_parser("burau", help="print the exact Burau matrix")
    add_common(p_burau)

    p_auto = sub.add_parser("automaton", help="dump the mass automaton")
    add_common(p_auto, word=False)

    p_est = sub.add_parser("estimate", help="iterative mass growth estimate")
    add_common(p_est)
    p_est.add_argument("--steps", type=int, default=24)
    p_est.add_argument("--t", type=float, default=0.0)

    args = parser.parse_args(argv)
    if args.n < 3:
        print(f"invalid n={args.n}: need n >= 3", file=sys.stderr)
        return 3
    try:
        if args.command == "classify":
            return _run_classify(args)
        if args.command == "burau":
            return _run_burau(args)
        if args.command == "automaton":
            return _run_automaton(args)
        return _run_estimate(args)
    except WordSyntaxError as exc:
        print(f"word syntax error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
