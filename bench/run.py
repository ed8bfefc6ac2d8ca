"""Benchmark runner for braiddyn: one workload, one seed, one mode.

    python3 bench/run.py --workload pa_random --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the ops run untraced for ``--seconds`` of op
time and the end-to-end metrics are reported; with ``--trace 1`` the same
ops run once untraced and once under the span tracer, and the per-layer
metrics are reported.  Every answer is checked outside the timed region.
Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_RUNS = 9  # setup_s is the median of this many fresh-process set-ups
WORKLOADS = ("pa_random", "conjugates", "cli_exact")


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks; q in [0, 100]."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def setup(workload: str) -> float:
    """Import the package, build every automaton the workload uses, warm up."""
    t0 = time.perf_counter()
    import importlib

    import inputs
    import workloads

    cl = importlib.import_module("braiddyn.classify")
    for n in sorted({item.n for item in inputs.warmup(workload)}):
        cl._automaton(n)
    for item in inputs.warmup(workload):
        workloads.run_op(item)
    return time.perf_counter() - t0


def setup_probe(workload: str) -> float:
    """Time setup() in a fresh interpreter, the way the main process pays it."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", "0", "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    return float(proc.stdout.split()[-1])


class Loop:
    """Runs ops, times each, checks each outside the timing, counts failures.

    With a tracer, the wrappers are installed for the op alone, so neither
    the checks nor untraced ops pass through them.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.words_ok = 0
        self.op_s = 0.0
        self.problems: list[str] = []

    def run(self, item) -> None:
        import workloads

        error = None
        if self.tracer is not None:
            self.tracer.install()
            self.tracer.begin_op()
        t0 = time.perf_counter()
        try:
            out = workloads.run_op(item)
        except Exception as exc:  # a failing op is counted, not fatal
            error = exc
        dt = time.perf_counter() - t0
        problems = []
        if self.tracer is not None:
            dt = self.tracer.end_op(item.words)  # the op root span
            self.tracer.uninstall()
            problems += self.tracer.op_problems
            if error is None and item.workload == "cli_exact":
                self.tracer.stats["output_bytes"] += len(out[1].encode())
        self.latencies.append(dt)
        self.op_s += dt
        self.attempted += 1
        if error is None:
            try:
                problems += workloads.check(item, out)
            except Exception as exc:
                problems.append(f"check raised {exc!r}")
        else:
            problems.append(f"op raised {error!r}")
        if problems:
            self.failed += 1
            self.problems.append(f"{item.n} {item.command} {item.texts}: {problems}")
        else:
            self.words_ok += item.words


def timed(workload: str, seed: int, seconds: float, first_setup: float) -> tuple[Loop, dict]:
    """Ops until ``seconds`` of op time, with the fresh-process set-ups spread among them.

    The machine's speed drifts over seconds, so set-ups spread over the
    run give a steadier median than set-ups made back to back.  A set-up
    runs between two ops and is not part of the op time.
    """
    import inputs

    loop = Loop()
    setups = [first_setup]
    items = inputs.stream(workload, seed)
    while loop.op_s < seconds:
        if loop.op_s >= seconds * (len(setups) - 1) / (SETUP_RUNS - 1):
            setups.append(setup_probe(workload))
        loop.run(next(items))
    while len(setups) < SETUP_RUNS:  # only when the last op crossed several marks
        setups.append(setup_probe(workload))
    lat_ms = [x * 1000.0 for x in loop.latencies]
    metrics = {
        "words_per_s": (loop.words_ok / loop.op_s, "words/s"),
        "latency_p50_ms": (percentile(lat_ms, 50), "ms"),
        "latency_p90_ms": (percentile(lat_ms, 90), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return loop, metrics


def traced(workload: str, seed: int, seconds: float) -> tuple[Loop, dict]:
    """Each op twice, untraced and traced, until the untraced half used ``seconds / 2``.

    The two runs of an op alternate which goes first, so neither side
    gets the warmer allocator on every op.
    """
    import importlib

    import inputs
    from tracing import Tracer

    cl = importlib.import_module("braiddyn.classify")
    ns = sorted(cl._AUTOMATA)
    cl._AUTOMATA.clear()
    t0 = time.perf_counter()
    for n in ns:
        cl._automaton(n)
    build_s = time.perf_counter() - t0

    tracer = Tracer()
    plain, loop = Loop(), Loop(tracer)
    items = inputs.stream(workload, seed)
    while plain.op_s < seconds / 2:
        item = next(items)
        for side in (plain, loop) if plain.attempted % 2 else (loop, plain):
            side.run(item)
    loop.attempted += plain.attempted
    loop.failed += plain.failed
    loop.problems += plain.problems

    ops = tracer.ops
    st, calls, incl, own = tracer.stats, tracer.calls, tracer.incl_s, tracer.self_s

    def per_op(x: float) -> float:
        return x / ops

    sim = calls["automaton.simulate"]
    metrics = {
        "fusion.mass_mul_s": (per_op(incl["fusion.mass_mul"]), "s/op"),
        "fusion.mass_mul_calls": (per_op(calls["fusion.mass_mul"]), "calls/op"),
        "fusion.matrix_terms": (per_op(st["matrix_terms"]), "terms/op"),
        "fusion.coeff_bits_max": (tracer.coeff_bits_max, "bits"),
        "fusion.eval_mass_s": (per_op(incl["fusion.eval_mass"]), "s/op"),
        "automaton.path_matrix_self_s": (per_op(own["automaton.path_matrix"]), "s/op"),
        "automaton.path_arrows": (per_op(st["path_arrows"]), "arrows/op"),
        "automaton.recognizes_word_s": (per_op(incl["automaton.recognizes_word"]), "s/op"),
        "automaton.simulate_calls": (per_op(sim), "calls/op"),
        "automaton.simulate_hit_ratio": (st["simulate_hits"] / sim if sim else 0.0, "ratio"),
        "automaton.recognize_s": (per_op(incl["automaton.recognize"]), "s/op"),
        "automaton.zero_pattern_s": (per_op(incl["automaton.zero_pattern"]), "s/op"),
        "automaton.pf_eigenvalue_s": (per_op(incl["automaton.pf_eigenvalue"]), "s/op"),
        "automaton.build_s": (build_s, "s"),
        "braidword.parse_word_s": (per_op(incl["braidword.parse_word"]), "s/op"),
        "braidword.to_normal_form_s": (per_op(incl["braidword.to_normal_form"]), "s/op"),
        "braidword.nf_blocks": (per_op(st["nf_blocks"]), "blocks/op"),
        "braidword.nf_length": (per_op(st["nf_length"]), "letters/op"),
        "braidword.word_rebuild_s": (per_op(tracer.rebuild_in_classify_s), "s/op"),
        "braidword.burau_s": (per_op(incl["braidword.burau"]), "s/op"),
        "twistcalc.letter_support_s": (per_op(incl["twistcalc.letter_support"]), "s/op"),
        "twistcalc.letter_support_calls": (per_op(calls["twistcalc.letter_support"]), "calls/op"),
        "twistcalc.gamma_on_unit_s": (per_op(incl["twistcalc.gamma_on_unit"]), "s/op"),
        "twistcalc.support_mass_s": (per_op(incl["twistcalc.support_mass"]), "s/op"),
        "classify.self_s": (per_op(own["classify.classify"]), "s/op"),
        "classify.rounds": (per_op(st["rounds"]), "rounds/op"),
        "classify.calls_per_word": (
            calls["classify.classify"] / st["classified_words"] if st["classified_words"] else 0.0,
            "calls/word",
        ),
        "classify.anomaly_events": (st["anomaly_events"], "count"),
        "classify.estimate_self_s": (per_op(own["classify.estimate_growth"]), "s/op"),
        "cli.self_s": (per_op(own["cli.main"]), "s/op"),
        "cli.output_bytes": (per_op(st["output_bytes"]), "bytes/op"),
        "trace_overhead_ratio": (tracer.op_s / plain.op_s, "ratio"),
    }
    return loop, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "braiddyn" / "__init__.py").is_file():
        print(f"no braiddyn sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    first_setup = setup(args.workload)
    import braiddyn

    if Path(braiddyn.__file__).resolve().parent != SRC / "braiddyn":
        print(f"imported braiddyn from {braiddyn.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(f"{first_setup!r}")
        return 0

    if args.trace:
        loop, metrics = traced(args.workload, args.seed, args.seconds)
    else:
        loop, metrics = timed(args.workload, args.seed, args.seconds, first_setup)

    for problem in loop.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    if args.trace:
        mode = f"traced  traced ops {loop.tracer.ops}  traced op time {loop.op_s:.3f} s"
    else:
        mode = f"timed  op time {loop.op_s:.3f} s"
    print(f"workload {args.workload}  seed {args.seed}  mode {mode}")
    samples = "plain and traced" if args.trace else "latency samples"
    print(f"  ops {loop.attempted} ({samples})  failed {loop.failed}  "
          f"fail_ratio {loop.failed / loop.attempted:.6f} ratio")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:.6g} {unit}")
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
