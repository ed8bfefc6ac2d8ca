import io
import json
import math

import pytest

from braiddyn.cli import main


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
        (["estimate", "--n", "3", "--word", "s1 s2 s1"], "left the recognised region"),
    ],
)
def test_computation_error_exit_code(capsys, argv, reason):
    code, out, err = run(capsys, argv)
    assert code == 4
    assert out == ""
    assert err.startswith("error: ") and reason in err
    assert len(err.strip().splitlines()) == 1


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
