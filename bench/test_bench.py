"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import dataclasses
import importlib
import itertools
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import inputs  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer, check_spans, self_times  # noqa: E402

WORKLOADS = ("pa_random", "conjugates", "cli_exact")


def take(workload: str, seed: int, k: int = 40) -> list:
    return list(itertools.islice(inputs.stream(workload, seed), k))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_words(workload):
    assert take(workload, 7) == take(workload, 7)
    assert take(workload, 7) != take(workload, 8)


def test_lengths_cover_the_range():
    lengths = [sum(abs(e) for _, e in oracles.tokens(item.texts[0]))
               for item in take("pa_random", 3, 400)]
    lo, hi = inputs.PA_RANDOM["length"]
    assert min(lengths) == lo and max(lengths) == hi


def test_percentile():
    xs = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert run.percentile(xs, 50) == 3.0
    assert run.percentile(xs, 0) == 1.0
    assert run.percentile(xs, 100) == 5.0
    assert run.percentile(xs, 90) == pytest.approx(4.6)
    assert run.percentile(list(range(1, 101)), 90) == pytest.approx(90.1)
    with pytest.raises(ValueError):
        run.percentile([], 50)


def test_self_times_of_hand_built_spans():
    # op [0, 10] > a [1, 6] > b [2, 3], b [4, 5.5]; op > c [7, 9]
    spans = [
        Span("op", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 6.0, 0, 0),
        Span("b", 2.0, 3.0, 1, 0),
        Span("b", 4.0, 5.5, 1, 0),
        Span("c", 7.0, 9.0, 0, 0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.5, 1.0, 1.5, 2.0])
    assert sum(self_times(spans)) == pytest.approx(spans[0].duration)
    assert check_spans(spans) == []


@pytest.mark.parametrize(
    "bad, why",
    [
        (Span("b", 2.0, 7.0, 1, 0), "outside its parent"),  # b runs past a's end
        (Span("b", 2.5, 3.5, 1, 0), "overlaps an earlier sibling"),
        (Span("b", 4.0, 0.0, 1, 0), "ends before it starts"),  # left open
        (Span("b", 4.0, 5.5, 7, 0), "has parent 7"),
    ],
)
def test_check_spans_catches_bad_nesting(bad, why):
    spans = [
        Span("op", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 6.0, 0, 0),
        Span("b", 2.0, 3.0, 1, 0),
        bad,
    ]
    assert any(why in problem for problem in check_spans(spans))


def test_tracer_self_times_add_up_to_op_time():
    tracer = Tracer()
    tracer.install()
    try:
        for item in take("conjugates", 1, 3) + take("cli_exact", 1, 3):
            tracer.begin_op()
            workloads.run_op(item)
            tracer.end_op(item.words)
            assert tracer.op_problems == []
    finally:
        tracer.uninstall()
    assert tracer.ops == 6
    assert sum(tracer.self_s.values()) == pytest.approx(tracer.op_s, rel=1e-9)
    assert tracer.calls["classify.classify"] > 0 and tracer.calls["cli.main"] == 3
    bw = importlib.import_module("braiddyn.braidword")
    assert not hasattr(bw.BraidWord.__mul__, "__wrapped__")


def test_n3_oracle_matches_known_words():
    # s1 s2^-1 maps to [[2,1],[1,1]]: trace 3, h0 = log((3 + sqrt 5) / 2)
    kind, h0 = oracles.n3_verdict("s1 s2^-1")
    assert kind == "pseudo_anosov" and h0 == pytest.approx(math.log((3 + math.sqrt(5)) / 2))
    assert oracles.n3_verdict("s1 s2")[0] == "periodic"  # gamma has order 6 in PSL
    assert oracles.n3_verdict("s1^5")[0] is None  # reducible: trace 2


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_answers_pass_their_checks(workload):
    for item in take(workload, 5, 6):
        assert workloads.check(item, workloads.run_op(item)) == []


def test_planted_wrong_answer_is_counted(monkeypatch):
    cl = importlib.import_module("braiddyn.classify")
    real = cl.classify

    def wrong(n, w):
        res = real(n, w)
        flipped = "periodic" if res.braid_type != "periodic" else "reducible"
        return dataclasses.replace(res, braid_type=flipped)

    loop = run.Loop()
    items = take("conjugates", 2, 4)
    monkeypatch.setattr(cl, "classify", wrong)
    for item in items:
        loop.run(item)
    assert loop.attempted == 4 and loop.failed == 4 and loop.words_ok == 0


def test_planted_verdict_flip_is_caught_without_an_oracle(monkeypatch):
    # every other call reports a pseudo-Anosov word as periodic; at n > 3 only
    # the rotated conjugate's second opinion can see it
    cl = importlib.import_module("braiddyn.classify")
    real = cl.classify
    calls = itertools.count()

    def flaky(n, w):
        res = real(n, w)
        if next(calls) % 2 == 0 and res.braid_type == "pseudo_anosov":
            return dataclasses.replace(res, braid_type="periodic")
        return res

    items = [item for item in take("pa_random", 2, 12) if item.n != 3]
    monkeypatch.setattr(cl, "classify", flaky)
    loop = run.Loop()
    for item in items:
        loop.run(item)
    assert loop.attempted == 9 and loop.failed == 9


def test_oracle_rotate_is_a_cyclic_rotation():
    assert oracles.rotate("s1 s2^-2 s1^3 s2") == "s1^3 s2 s1 s2^-2"
    assert oracles.rotate("s1^4") == "s1^4"


def test_planted_wrong_cli_output_is_counted(monkeypatch):
    cli = importlib.import_module("braiddyn.cli")
    real_burau = cli.burau
    # every printed real is off by 0.01; Burau gets one more reflection
    monkeypatch.setattr(cli, "_round", lambda x: float(f"{x + 0.01:.9f}"))
    monkeypatch.setattr(cli, "burau", lambda w: real_burau(w * type(w).generator(w.n, 1)))
    loop = run.Loop()
    items = take("cli_exact", 2, 3)
    assert [item.command for item in items] == ["classify", "burau", "estimate"]
    for item in items:
        loop.run(item)
    assert loop.failed == 3


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke(trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "cli_exact", "--seed", "3",
         "--seconds", "0.3", "--trace", trace],
        capture_output=True, text=True, timeout=120, cwd=BENCH.parent,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pa_random", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0 and proc.stdout == ""
