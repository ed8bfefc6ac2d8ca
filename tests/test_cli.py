import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import braiddyn
from braiddyn import automaton as am
from braiddyn import cli
from braiddyn.braidword import MAX_N, burau, parse_word
from braiddyn.classify import classify
from braiddyn.cli import main
from braiddyn.fusion import eval_mass


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_json_pseudo_anosov(capsys):
    code, out, _ = run(capsys, ["classify", "--n", "5", "--word", "s1 s1 s2 s2", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["type"] == "pseudo_anosov"
    target = math.log(2 * math.sqrt(math.sqrt(5) + 2) + math.sqrt(5) + 2)
    assert report["h0"] == pytest.approx(target, abs=1e-8)
    assert report["growth"]["kind"] == "log_pf"
    assert report["path"]["start"] == report["path"]["arrows"][-1]["to"]


def test_classify_human_identity(capsys):
    code, out, _ = run(capsys, ["classify", "--n", "5", "--word", ""])
    assert code == 0
    assert out.strip() == "periodic; conjugate to identity; h_t = 0"


def test_classify_human_reducible(capsys):
    # for odd n the generators are conjugate; the witness lands on s2
    code, out, _ = run(capsys, ["classify", "--n", "5", "--word", "s1^-1"])
    assert code == 0
    assert out.startswith("reducible; conjugate to s2^-1 * chi^0")


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, ["classify", "--n", "5", "--word", "s1 sx"])
    assert code == 2
    assert "byte 3" in err


def test_invalid_n_exit_code(capsys):
    code, _, err = run(capsys, ["automaton", "--n", "2", "--json"])
    assert code == 3
    assert "invalid n" in err


@pytest.mark.parametrize("command", ["classify", "burau", "estimate", "automaton"])
@pytest.mark.parametrize("n", [MAX_N + 1, 100000, 10**30])
def test_huge_n_exit_code(capsys, command, n):
    # rejected before any table is built: the automaton at n = 100000 would
    # run out of memory
    argv = [command, "--n", str(n)] + ([] if command == "automaton" else ["--word", "s1"])
    start = time.perf_counter()
    code, out, err = run(capsys, argv)
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert err.splitlines() == [f"invalid n={n}: need 3 <= n <= {MAX_N}"]


def test_largest_n_answers(capsys):
    code, out, err = run(capsys, ["burau", "--n", str(MAX_N), "--word", "s1 s2^-1", "--json"])
    assert code == 0, err
    assert json.loads(out)["n"] == MAX_N


NEGATIVE_ZERO = re.compile(r"-0(\.0*)?(?![0-9.eE])")


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--n", "6", "--word", "s1 s2", "--json"],
        ["classify", "--n", "6", "--word", "s1 s2"],
        ["classify", "--n", "6", "--word", "s1 s2", "--t", "-0.0", "--json"],
        ["classify", "--n", "5", "--word", "s1^-1", "--t", "-1e-12", "--json"],
        ["classify", "--n", "5", "--word", "s1^-1", "--t", "-1e-12"],
        ["classify", "--n", "5", "--word", "s1^-1"],
        ["estimate", "--n", "6", "--word", "s1 s2", "--json"],
        ["estimate", "--n", "6", "--word", "s1 s2"],
        ["estimate", "--n", "6", "--word", "s1 s2", "--t", "-0", "--json"],
        ["estimate", "--n", "6", "--word", "s1 s2", "--t", "-0"],
        ["estimate", "--n", "5", "--word", "s1^-1", "--t", "-1e-12", "--json"],
    ],
)
def test_no_negative_zero_in_output(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    assert out
    for line in out.splitlines():
        assert not NEGATIVE_ZERO.search(line), line


def test_automaton_dump_counts(capsys):
    code, out, _ = run(capsys, ["automaton", "--n", "5", "--json"])
    assert code == 0
    dump = json.loads(out)
    assert len(dump["vertices"]) == 5
    assert len(dump["arrows"]) == 30
    twist = [a for a in dump["arrows"] if a["label"].startswith("twist")]
    gammas = [a for a in dump["arrows"] if a["label"].startswith("gamma")]
    assert len(twist) == 20 and len(gammas) == 10


def test_automaton_n4_forbidden_arrow(capsys):
    code, out, _ = run(capsys, ["automaton", "--n", "4", "--json"])
    assert code == 0
    dump = json.loads(out)
    assert not any(a["from"] == "v0" and a["to"] == "u0" for a in dump["arrows"])


def test_golden_stability(capsys):
    argv = ["classify", "--n", "4", "--word", "s2^2 s1^3", "--json"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_round_trip_idempotence(capsys):
    _, out, _ = run(capsys, ["classify", "--n", "5", "--word", "s1 s1 s2 s2", "--json"])
    nf_word = json.loads(out)["normal_form"]["word"]
    _, once, _ = run(capsys, ["classify", "--n", "5", "--word", nf_word, "--json"])
    nf_word2 = json.loads(once)["normal_form"]["word"]
    _, twice, _ = run(capsys, ["classify", "--n", "5", "--word", nf_word2, "--json"])
    assert once == twice


def test_batch_mode_preserves_order(capsys, monkeypatch):
    code, out, _ = run(
        capsys,
        ["classify", "--n", "4", "--word", "-", "--json"],
        stdin="s1\ns2^2 s1^3\n\n",
        monkeypatch=monkeypatch,
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 3
    types = [json.loads(line)["type"] for line in lines]
    assert types == ["reducible", "pseudo_anosov", "periodic"]


def test_burau_json(capsys):
    code, out, _ = run(capsys, ["burau", "--n", "5", "--word", "s1", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["matrix"][0][0] == [{"q": 2, "coeffs": [-1, 0, 0, 0]}]
    assert data["matrix"][0][1] == [{"q": 1, "coeffs": [0, -1, 0, 0]}]
    assert data["matrix"][1][0] == []
    assert data["matrix"][1][1] == [{"q": 0, "coeffs": [1, 0, 0, 0]}]


def test_estimate_json(capsys):
    code, out, _ = run(
        capsys,
        ["estimate", "--n", "4", "--word", "s2^2 s1^3", "--steps", "12", "--json"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["estimate"] == pytest.approx(data["closed_form"], abs=0.08)


def test_classify_with_t_parameter(capsys):
    code, out, _ = run(
        capsys, ["classify", "--n", "5", "--word", "s1", "--t", "-2.0", "--json"]
    )
    assert code == 0
    report = json.loads(out)
    # h_t(sigma_1) = max(0, -t), so h(-2) = 2
    assert report["h_at_t"] == pytest.approx(2.0, abs=1e-12)


def test_precision_env_override(capsys, monkeypatch):
    monkeypatch.setenv("BRAIDDYN_PRECISION", "3")
    code, out, _ = run(capsys, ["classify", "--n", "5", "--word", "s1 s1 s2 s2", "--json"])
    assert code == 0
    assert json.loads(out)["h0"] == pytest.approx(2.123, abs=1e-12)


def test_precision_is_read_once_per_call(capsys, monkeypatch):
    # BRAIDDYN_PRECISION is read once per main() call, so a change between
    # two calls takes effect; a value that is not an integer means 9, and a
    # value below 1 means 1
    word = "s1 s1 s2 s2"
    h0 = classify(5, parse_word(word, 5)).h0()
    reads = []
    real = cli._precision
    monkeypatch.setattr(cli, "_precision", lambda: reads.append(1) or real())
    cases = [("3", 3), ("x", 9), ("2.5", 9), ("", 9), ("0", 1), ("-4", 1), ("12", 12), (None, 9)]
    for value, digits in cases:
        if value is None:
            monkeypatch.delenv("BRAIDDYN_PRECISION", raising=False)
        else:
            monkeypatch.setenv("BRAIDDYN_PRECISION", value)
        code, out, _ = run(capsys, ["classify", "--n", "5", "--word", word, "--json"])
        assert code == 0 and json.loads(out)["h0"] == float(f"{h0:.{digits}f}")
        code, out, _ = run(capsys, ["classify", "--n", "5", "--word", word])
        assert code == 0 and out.endswith(f"h0 = {h0:.{digits}f}\n")
    assert len(reads) == 2 * len(cases)
    # one read for a batch, however many reals it prints
    reads.clear()
    code, out, _ = run(
        capsys,
        ["classify", "--n", "5", "--word", "-", "--json", "--t", "0.5"],
        stdin="s1 s1 s2 s2\ns1 s2^-1 s1^3\ns1^2 s2\n",
        monkeypatch=monkeypatch,
    )
    assert code == 0 and len(out.splitlines()) == 3 and reads == [1]


def test_classify_at_large_t(capsys):
    # the exact path matrix overflows math.exp here; h_t must not
    word = "s1^2 s2^-2 s1 s2^-3 s1^2 s2^-1 s1 s2^-2"
    code, out, err = run(capsys, ["classify", "--n", "5", "--word", word, "--t", "300", "--json"])
    assert code == 0, err
    report = json.loads(out)
    assert report["type"] == "pseudo_anosov"
    assert math.isfinite(report["h_at_t"]) and report["h_at_t"] > report["h0"]


@pytest.mark.parametrize("t", ["1000", "-1000"])
def test_estimate_at_large_t(capsys, t):
    code, out, err = run(
        capsys, ["estimate", "--n", "5", "--word", "s1 s2^-1", "--t", t, "--json"]
    )
    assert code == 0, err
    data = json.loads(out)
    assert math.isfinite(data["estimate"])
    assert data["estimate"] == pytest.approx(data["closed_form"], rel=1e-9)


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["estimate", "--n", "5", "--word", "s1 s2^-1", "--steps", "1"], "at least two iterations"),
        (["estimate", "--n", "5", "--word", "s1 s2^-1", "--steps", "0"], "at least two iterations"),
    ],
)
def test_computation_error_exit_code(capsys, argv, reason):
    code, out, err = run(capsys, argv)
    assert code == 4
    assert out == ""
    assert err.startswith("error: ") and reason in err
    assert len(err.strip().splitlines()) == 1


WORD = ["--n", "5", "--word", "s1 s2^-1"]


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", *WORD, "--t", "nan", "--json"],
        ["classify", *WORD, "--t", "inf"],
        ["classify", *WORD, "--t", "1e400", "--json"],
        ["estimate", *WORD, "--t", "inf", "--json"],
        ["estimate", *WORD, "--t=-inf"],
        ["estimate", *WORD, "--t", "NaN", "--json"],
        ["classify", *WORD, "--max-iter", "-1"],
    ],
)
def test_non_finite_t_and_negative_max_iter_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert "error: argument --" in err


@pytest.mark.parametrize("command", ["classify", "estimate"])
@pytest.mark.parametrize("t", ["-2e3", "-1e2", "-1E+2", "-.5", "-2"])
def test_negative_t_in_exponent_notation(capsys, command, t):
    # "--t -2e3" and "--t=-2e3" print the same bytes and exit 0
    spaced = run(capsys, [command, *WORD, "--t", t, "--json"])
    glued = run(capsys, [command, *WORD, f"--t={t}", "--json"])
    assert spaced == glued
    assert spaced[0] == 0 and json.loads(spaced[1])["t"] == float(t)


@pytest.mark.parametrize("t", ["-inf", "-nan", "-1e400"])
def test_negative_non_finite_t_is_a_usage_error(capsys, t):
    with pytest.raises(SystemExit) as exc:
        main(["classify", *WORD, "--t", t])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert "error: argument --t: expected a finite real" in err


@pytest.mark.parametrize(
    "word, verdict",
    [("s1 s1 s2 s2", "pseudo_anosov"), ("s1 s2", "periodic"), ("s1^3", "reducible"), ("", "periodic")],
)
def test_classify_report_spells_the_normal_form_once(capsys, monkeypatch, word, verdict):
    # classify spells out_beta from the normal form; the report reuses it
    # for periodic and pseudo-Anosov verdicts and spells it only when reducible
    import braiddyn.braidword as bw

    calls = []
    real = bw.NormalForm.to_word
    monkeypatch.setattr(bw.NormalForm, "to_word", lambda nf: calls.append(nf) or real(nf))
    code, out, _ = run(capsys, ["classify", "--n", "5", "--word", word, "--json"])
    report = json.loads(out)
    assert code == 0 and report["type"] == verdict
    assert len(calls) == 1
    assert report["normal_form"]["word"] == real(calls[0]).text()


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", *WORD, "--t", "1e308", "--json"],
        ["classify", *WORD, "--t", "1e308"],
        ["estimate", *WORD, "--t", "1e308", "--json"],
        ["estimate", *WORD, "--t", "1e308"],
    ],
)
def test_non_finite_result_exit_code(capsys, argv):
    # h_t at t = 1e308 is beyond the floats; no NaN or Infinity is printed
    code, out, err = run(capsys, argv)
    assert code == 4
    assert out == ""
    assert err.startswith("error: ") and "not finite" in err
    assert len(err.strip().splitlines()) == 1


def test_matrix_entry_past_the_floats_exit_code(capsys):
    # h0 of (s1 s2^-1)^745 at n=3 is finite, but a coefficient of its exact
    # matrix is past 2^1024, so the entries of matrix_at_0 are not finite reals
    word = " ".join(["s1 s2^-1"] * 745)
    code, out, err = run(capsys, ["classify", "--n", "3", "--word", word, "--json"])
    assert code == 4
    assert out == ""
    assert err.startswith("error: ") and "not finite" in err
    assert len(err.strip().splitlines()) == 1
    # the text report prints no matrix, so it answers
    code, out, _ = run(capsys, ["classify", "--n", "3", "--word", word])
    assert code == 0 and out.startswith("pseudo_anosov")


def test_growth_past_the_floats_fails_before_the_exact_matrix(capsys, monkeypatch):
    # the largest entry of M(p) at t = 0 is at least PF/2, so past
    # h0 = log(2 * float max) (710.48) matrix_at_0 cannot be finite: the
    # report fails before building M(p); (s1^3 s2^-3)^k at n=8 has
    # h0 = 3.487 k, so k = 210 (h0 = 732.3) fails and k = 200 (697.5) does not
    def no_matrix(auto, path):
        raise AssertionError("the exact path matrix was built")

    monkeypatch.setattr(am, "path_terms", no_matrix)
    word = " ".join(["s1^3 s2^-3"] * 210)
    code, out, err = run(capsys, ["classify", "--n", "8", "--word", word, "--json"])
    assert (code, out, err) == (4, "", "error: a computed real is not finite: inf\n")

    # below the threshold the report goes on to M(p); the identity stands in
    # for its 10 s build, and the report prints
    built = []

    def identity_matrix(auto, path):
        built.append(path)
        one = ((0, (1,) + (0,) * (auto.n - 2)),)
        return (one, (), (), one)

    monkeypatch.setattr(am, "path_terms", identity_matrix)
    word = " ".join(["s1^3 s2^-3"] * 200)
    code, out, err = run(capsys, ["classify", "--n", "8", "--word", word, "--json"])
    assert code == 0 and err == "" and len(built) == 1
    report = json.loads(out)
    assert report["type"] == "pseudo_anosov" and report["h0"] == pytest.approx(697.4587, abs=1e-3)

    # under the threshold an entry can still be past the floats: at n=3,
    # (s1 s2^-1)^738 has h0 = 710.27, and the exact route fails the same way
    monkeypatch.undo()
    word = " ".join(["s1 s2^-1"] * 738)
    code, out, err = run(capsys, ["classify", "--n", "3", "--word", word, "--json"])
    assert (code, out, err) == (4, "", "error: a computed real is not finite: inf\n")


@pytest.mark.parametrize("n, word", [(3, "s1 s2 s1"), (3, "s2 s1 s2"), (5, "s1 s2 s1 s2 s2")])
def test_estimate_odd_n_periodic_words(capsys, n, word):
    # periodic words whose square, not the word, has a closed path
    code, out, err = run(
        capsys, ["estimate", "--n", str(n), "--word", word, "--steps", "8", "--json"]
    )
    assert code == 0, err
    data = json.loads(out)
    assert data["estimate"] == pytest.approx(data["closed_form"], abs=1e-9)


def test_estimate_classifies_each_word_once(capsys, monkeypatch):
    import sys

    # sys.modules: the package attribute braiddyn.classify is the function
    calls = []
    for owner in (sys.modules["braiddyn.classify"], sys.modules["braiddyn.cli"]):
        real = owner.classify
        monkeypatch.setattr(owner, "classify", lambda n, w, real=real: calls.append(w) or real(n, w))
    code, out, _ = run(
        capsys,
        ["estimate", "--n", "4", "--word", "-", "--steps", "12", "--json"],
        stdin="s2^2 s1^3\ns1 s2^-1\n",
        monkeypatch=monkeypatch,
    )
    assert code == 0 and len(out.splitlines()) == 2
    assert len(calls) == 2


def test_loop_guard_exit_code(capsys, monkeypatch):
    import sys

    def tripped(n, w):
        raise RuntimeError("conjugation loop exceeded its termination bound")

    monkeypatch.setattr(sys.modules["braiddyn.cli"], "classify", tripped)
    code, out, err = run(capsys, ["classify", "--n", "5", "--word", "s1 s2"])
    assert code == 4
    assert out == ""
    assert err == "error: conjugation loop exceeded its termination bound\n"


@pytest.mark.parametrize("command", ["classify", "burau"])
@pytest.mark.parametrize(
    "word, offset", [("s1^99999999999999999999999", 0), ("s1^600000 s2^600000", 10)]
)
def test_word_over_length_cap_exit_code(capsys, command, word, offset):
    code, out, err = run(capsys, [command, "--n", "5", "--word", word])
    assert code == 2
    assert out == ""
    assert f"byte {offset}" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", ["classify", "burau"])
def test_exponent_longer_than_int_reads_exit_code(capsys, command):
    # 5000 digits are past the 4300 that int() reads by default
    code, out, err = run(capsys, [command, "--n", "5", "--word", "s2 s1^" + "9" * 5000])
    assert code == 2 and out == ""
    assert "past 1000000 letters (byte 3)" in err and len(err.strip().splitlines()) == 1
    # leading zeros do not count: this is s1^7
    code, out, _ = run(capsys, [command, "--n", "5", "--word", "s1^" + "0" * 4999 + "7"])
    assert code == 0
    assert out == run(capsys, [command, "--n", "5", "--word", "s1^7"])[1]


def test_max_iter_exit_code(capsys):
    word = "s1^2 s2^-1 s1 s2^3 s1^-2 s2 s1^-1 s2^-3 s1 s2 s1^-2"  # 3 rounds
    code, out, err = run(capsys, ["classify", "--n", "4", "--word", word, "--max-iter", "1"])
    assert code == 4
    assert out == ""
    assert err == "error: conjugation used 3 rounds, above --max-iter 1\n"
    code, out, _ = run(capsys, ["classify", "--n", "4", "--word", word, "--max-iter", "3"])
    assert code == 0 and out.startswith("pseudo_anosov")
    code, out, _ = run(capsys, ["classify", "--n", "4", "--word", word, "--max-iter", "0"])
    assert code == 0 and out.startswith("pseudo_anosov")  # 0 means no guard
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--n", "4", "--word", word, "--max-iter", "-1"])
    assert exc.value.code == 2
    assert "--max-iter: expected an integer >= 0, got '-1'" in capsys.readouterr().err


@pytest.mark.parametrize("n", [4, 6])
def test_automaton_dump_ignores_the_hash_seed(n):
    # the dump is the same bytes under any PYTHONHASHSEED, v vertices first
    src = str(Path(braiddyn.__file__).resolve().parent.parent)
    code = f"import sys; from braiddyn.cli import main; sys.exit(main(['automaton', '--n', '{n}', '--json']))"
    dumps = []
    for seed in ("1", "2", "3"):
        env = {**os.environ, "PYTHONHASHSEED": seed}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, check=True
        )
        dumps.append(proc.stdout)
    assert dumps[0] == dumps[1] == dumps[2]
    kinds = [a["from"][0] for a in json.loads(dumps[0])["arrows"] if a["label"] == "gamma"]
    assert kinds == sorted(kinds, key="vu".index)


def test_cli_import_leaves_numpy_unloaded():
    # only coxeter_matrix and positive_roots use numpy, and no command calls them
    src = str(Path(braiddyn.__file__).resolve().parent.parent)
    code = (
        "import sys, braiddyn.cli\n"
        "assert 'numpy' not in sys.modules, 'braiddyn.cli loaded numpy'\n"
        "from braiddyn import coxeter_matrix, parse_word, positive_roots\n"
        "print(coxeter_matrix(parse_word('s1 s2', 5)).shape, len(positive_roots(5)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["(2,", "2)", "5"]


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_closed_pipe_exits_quietly(tmp_path, json_flag):
    # like `... --word - | head -1`: the reader closes after one line while
    # most of the output is still unwritten (far more than a pipe buffers)
    words = tmp_path / "words.txt"
    words.write_text("s1 s2^-1\n" * 4000)
    src = str(Path(braiddyn.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    with words.open("rb") as stdin:
        proc = subprocess.Popen(
            [sys.executable, "-m", "braiddyn.cli", "classify", "--n", "5", *json_flag,
             "--word", "-"],
            stdin=stdin, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        code = proc.wait(timeout=60)
    assert first.startswith(b"{" if json_flag else b"pseudo_anosov")
    assert stderr == b""
    assert code == 1


ORACLE_NS = list(range(3, 17)) + [17, 31, 64]


@st.composite
def oracle_words(draw):
    """A word of up to 40 runs with exponents up to +-64, as text, and its n."""
    n = draw(st.sampled_from(ORACLE_NS))
    runs = draw(
        st.lists(
            st.tuples(st.sampled_from((1, 2)), st.integers(-64, 64).filter(bool)),
            max_size=40,
        )
    )
    return n, " ".join(f"s{g}^{k}" for g, k in runs)


@pytest.mark.parametrize("digits", [None, "17"])
@settings(max_examples=40, deadline=None)
@given(case=oracle_words())
@example(case=(5, "s1^2000 s2^-3"))
@example(case=(8, "s1^-2000 s2^3"))
@example(case=(3, ""))
def test_exact_output_matches_the_public_objects(digits, case):
    # classify --json (with and without --t) writes matrix, growth.matrix and
    # matrix_at_0 as MassPoly.to_json of res.matrix and eval_mass(., 0.0)
    # through _round; burau --json writes QLaurent.to_json of burau(w).  At 17
    # digits the rounding keeps every bit, so matrix_at_0 must be summed in
    # eval_mass's order
    n, text = case
    with pytest.MonkeyPatch.context() as mp:
        if digits is None:
            mp.delenv("BRAIDDYN_PRECISION", raising=False)
        else:
            mp.setenv("BRAIDDYN_PRECISION", digits)
        check_exact_output(n, text)


def run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def check_exact_output(n, text):
    w = parse_word(text, n)
    res = classify(n, w)
    for extra in ([], ["--t", "0.5"]):
        code, out, err = run_captured(["classify", "--n", str(n), "--word", text, "--json", *extra])
        if res.matrix is None:
            assert code == 0, err
            assert "matrix" not in json.loads(out) and "matrix_at_0" not in json.loads(out)
            continue
        want = [[res.matrix[r][c].to_json() for c in range(2)] for r in range(2)]
        at_0 = [[eval_mass(res.matrix[r][c], 0.0) for c in range(2)] for r in range(2)]
        if not all(math.isfinite(x) for row in at_0 for x in row):
            assert (code, out, err) == (4, "", "error: a computed real is not finite: inf\n")
            continue
        assert code == 0, err
        report = json.loads(out)
        assert out == json.dumps(report) + "\n"
        assert report["matrix"] == want
        if res.braid_type == "pseudo_anosov":
            assert report["growth"]["matrix"] == want
        assert report["matrix_at_0"] == [[cli._round(x) for x in row] for row in at_0]
    m = burau(w)
    code, out, err = run_captured(["burau", "--n", str(n), "--word", text, "--json"])
    want = {"n": n, "word": text, "matrix": [[m[r][c].to_json() for c in range(2)] for r in range(2)]}
    assert (code, out, err) == (0, json.dumps(want) + "\n", "")
