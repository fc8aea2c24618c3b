import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import sgve
from sgve import bench, pf
from sgve import values as values_module
from sgve.cli import main
from sgve.errors import GameSpecError
from sgve.gamefile import (game_spec_from_document, load_game_document,
                           monotone_map_from_document)

CONSTANT_GAME = {
    "states": 2,
    "actions": {"x": [[0.0, 1.0]], "y": [[0.0, 1.0]]},
    "payoff": ["0.5", "0.5"],
    "transition": [["1", "0"], ["0", "1"]],
}


# ---------------------------------------------------------------------------
# document parsing
# ---------------------------------------------------------------------------

def test_builtin_pseudo_paths():
    doc = load_game_document("bench:exshap")
    spec, kind = game_spec_from_document(doc)
    assert spec.states == 2
    assert kind == "general"
    with pytest.raises(GameSpecError):
        load_game_document("bench:unheard-of")


def test_document_round_trip(tmp_path):
    path = tmp_path / "game.json"
    path.write_text(json.dumps(bench.exshap_game_file()))
    spec, _ = game_spec_from_document(load_game_document(str(path)))
    assert spec.states == 2
    assert len(spec.x_box) == 1


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("states"),
    lambda d: d.update(states=0),
    lambda d: d.update(actions={"x": [[0, 1]]}),
    lambda d: d.update(payoff=["0"]),
    lambda d: d.update(transition=[["1"]]),
    lambda d: d.update(payoff=["0", "1 + unknown_name"]),
    lambda d: d.update(payoff=["0", "1 + * 2"]),
    lambda d: d.update(controller=["p3", None]),
    lambda d: d.update(kind="bogus"),
    lambda d: d.update(states=True),  # a bool is not a state count
    lambda d: d["actions"].update(x=[[False, True]]),  # nor a box bound
])
def test_document_validation_errors(mutate):
    doc = json.loads(json.dumps(bench.exshap_game_file()))
    mutate(doc)
    with pytest.raises(GameSpecError):
        game_spec_from_document(doc)


def test_monotone_map_documents():
    T = monotone_map_from_document(
        {"d": 2, "kind": "minLinear", "weights": [[[2.0, 0.0]], [[0.0, 3.0]]]})
    assert T.kind == "minLinear"
    T = monotone_map_from_document(
        {"d": 2, "kind": "explicitExpr", "exprs": ["f1", "f1 + f2"]})
    assert T.kind == "explicitExpr"
    for bad in (
        {"d": 2, "kind": "minLinear", "weights": [[[0.0, 0.0]], [[1.0, 0.0]]]},
        {"d": 2, "kind": "other"},
        {"d": "x", "kind": "minLinear", "weights": []},
        {"d": 2, "kind": "explicitExpr", "exprs": ["f1"]},
        {"d": True, "kind": "minLinear", "weights": [[[1.0]]]},
        {"d": 1, "kind": "explicitExpr", "exprs": [None]},  # not a string
    ):
        with pytest.raises(GameSpecError):
            monotone_map_from_document(bad)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def test_solve_discounted_benchmark(capsys):
    code = main(["solve", "bench:exshap", "--lambda", "0.5",
                 "--resolution", "51", "--eps", "1e-6"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    values = {int(l.split()[1].rstrip(":")): float(l.split()[-1])
              for l in lines if l.startswith("state")}
    assert values[0] == 0.0
    assert abs(values[1] - (math.exp(0.25) - 1)) <= 1e-3
    assert any(l.startswith("fixed-point residual:") for l in lines)
    assert any(l.startswith("max duality gap:") for l in lines)


def test_lambda_one_is_one_application(capsys):
    # at lambda = 1 the fixed point is one operator application to 0
    assert main(["solve", "bench:exshap", "--lambda", "1", "--resolution", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:4] == ["state 0: 0.0", "state 1: 0.5", "iterations: 1",
                         "fixed-point residual: 0.0"]
    assert main(["curve", "bench:exshap", "--lambda-grid", "1,0.5",
                 "--resolution", "5"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[1] == "1.0,0.0,0.5,1,0.0"
    assert rows[2].split(",")[3] == "7"


def test_solve_n_stage_constant_game(tmp_path, capsys):
    path = tmp_path / "const.json"
    path.write_text(json.dumps(CONSTANT_GAME))
    code = main(["solve", str(path), "--n", "100", "--resolution", "3"])
    out = capsys.readouterr().out
    assert code == 0
    for line in out.strip().splitlines():
        if line.startswith("state"):
            assert float(line.split()[-1]) == pytest.approx(0.5, abs=1e-9)


def test_solve_n_stage_stops_on_the_half_line(monkeypatch, capsys):
    # a billion-stage horizon costs the applies until the orbit's box
    # closes; the absorbing state's value stays exactly 0
    calls = []
    real = values_module.ShapleyOperator.apply_with_gaps

    def apply_with_gaps(self, f, hints=None):
        calls.append(1)
        return real(self, f, hints)

    monkeypatch.setattr(values_module.ShapleyOperator, "apply_with_gaps", apply_with_gaps)
    assert main(["solve", "bench:exshap", "--n", "1000000000", "--resolution", "21"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "state 0: 0.0"
    assert abs(float(lines[1].split()[-1])) <= 1e-6  # the tol of the solve
    assert lines[2] == "iterations: 1000000000"
    assert len(calls) <= 100


def test_solve_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["solve", str(path), "--n", "1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_solve_missing_file(capsys):
    assert main(["solve", "/no/such/file.json", "--n", "1"]) == 2


@pytest.mark.parametrize("change", [
    {"payoff": ["0", "exp(-1/x)"]},  # nonfinite intermediate at x = 0
    {"states": True},
    {"actions": {"x": [[False, True]], "y": [[0, 1]]}},
    {"actions": {"x": 5, "y": [[0, 1]]}},  # actions.x is not a list
    {"actions": {"x": [[0, 10 ** 400]], "y": [[0, 1]]}},  # beyond the float range
])
def test_solve_invalid_game_exits_2(tmp_path, capsys, change):
    path = tmp_path / "game.json"
    path.write_text(json.dumps({**bench.exshap_game_file(), **change}))
    assert main(["solve", str(path), "--lambda", "0.5", "--resolution", "5"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_solve_non_object_document_exits_2(tmp_path, capsys):
    path = tmp_path / "game.json"
    path.write_text(json.dumps([bench.exshap_game_file()]))
    assert main(["solve", str(path), "--lambda", "0.5", "--resolution", "5"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "bench:exshap"])  # neither --lambda nor --n
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--suite", "unknown"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--suite", "pf", "--tol", "1e-6"])  # no such option
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["solve", "bench:exshap", "--lambda", "0.5", "--tol", "0"],
    ["solve", "bench:exshap", "--lambda", "0.5", "--tol", "-1"],
    ["solve", "bench:exshap", "--lambda", "0.5", "--tol", "nan"],
    ["solve", "bench:exshap", "--lambda", "0.5", "--eps", "nan"],
    ["solve", "bench:exshap", "--lambda", "0.5", "--eps", "inf"],
    ["curve", "bench:exshap", "--lambda-grid", "0.5", "--tol", "nan"],
    ["curve", "bench:exshap", "--lambda-grid", "0.5", "--eps", "0"],
    ["curve", "bench:exshap", "--lambda-grid", "0.5,x"],
    ["curve", "bench:exshap", "--lambda-grid", ","],
    ["curve", "bench:exshap", "--n-grid", "1,2.5"],
    ["solve", "bench:exshap", "--lambda", "0.5", "--tol", "abc"],
    ["curve", "bench:exshap", "--n-grid", ","],
])
def test_nonpositive_or_nonfinite_tolerances_exit_2(argv, capsys):
    # rejected by the parser, before any game is built
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_curve_n_grid_row_count(tmp_path, capsys):
    path = tmp_path / "const.json"
    path.write_text(json.dumps(CONSTANT_GAME))
    code = main(["curve", str(path), "--n-grid", "1,2,4", "--resolution", "3"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,v0,v1,iterations"
    assert len(lines) == 4
    for line in lines[1:]:
        cells = line.split(",")
        assert float(cells[1]) == pytest.approx(0.5, abs=1e-9)
        assert float(cells[2]) == pytest.approx(0.5, abs=1e-9)


def test_curve_lambda_grid_monotone_benchmark(tmp_path):
    out_path = tmp_path / "curve.csv"
    code = main(["curve", "bench:exshap", "--lambda-grid", "0.1,0.3,0.5,0.7",
                 "--resolution", "51", "--eps", "1e-6", "--out", str(out_path)])
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "lambda,v0,v1,iterations,residual"
    second = [float(l.split(",")[2]) for l in lines[1:]]
    # the closed form lam (e^{(1-lam)/2} - 1)/(1-lam) increases in lam
    assert second == sorted(second)


def test_curve_counts_policy_evaluation_applications(capsys):
    # the one-state game contracts at exactly 1 - lam, so the fixed point
    # takes a policy-evaluation step; the iterations column counts every
    # application, the plain contraction's 20 and 263 down to 3 each
    assert main(["curve", "bench:mckinsey", "--lambda-grid", "0.5,0.05",
                 "--resolution", "21"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "lambda,v0,iterations,residual"
    for line in lines[1:]:
        _, v0, iterations, residual = line.split(",")
        assert int(iterations) == 3
        assert float(residual) <= 1e-6
        assert abs(float(v0) - 1 / (2 * math.log(2))) <= 1e-5  # mckinsey_value(1)


def test_curve_stdout_byte_identical(tmp_path, capsys):
    path = tmp_path / "const.json"
    path.write_text(json.dumps(CONSTANT_GAME))
    argv = ["curve", str(path), "--lambda-grid", "0.5,0.25", "--resolution", "3"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


def test_curve_unwritable_output(tmp_path, capsys):
    path = tmp_path / "const.json"
    path.write_text(json.dumps(CONSTANT_GAME))
    code = main(["curve", str(path), "--n-grid", "1", "--resolution", "3",
                 "--out", str(tmp_path / "missing-dir" / "x.csv")])
    assert code == 2


def test_growth_diagonal_map(tmp_path, capsys):
    path = tmp_path / "map.json"
    path.write_text(json.dumps(
        {"d": 2, "kind": "minLinear", "weights": [[[2.0, 0.0]], [[0.0, 3.0]]]}))
    code = main(["growth", str(path), "--n", "64"])
    out = capsys.readouterr().out
    assert code == 0
    rates = [float(tok) for tok in out.splitlines()[0].split()[2:]]
    assert rates == pytest.approx([2.0, 3.0], abs=1e-12)
    assert "cauchy difference" in out


def test_growth_invalid_map_exits_2(tmp_path, capsys):
    path = tmp_path / "map.json"
    path.write_text(json.dumps(
        {"d": 1, "kind": "minLinear", "weights": [[[0.0]]]}))
    assert main(["growth", str(path)]) == 2


@pytest.mark.parametrize("text", [
    "[1, 2]",  # not an object
    json.dumps({"d": 2, "kind": "minLinear", "weights": [[[2.0, 0.0]]]}),
    "{not json",
    # weights that float() reads as numbers but are none
    json.dumps({"d": 2, "kind": "minLinear", "weights": [[[True, 1]], [[1, False]]]}),
    json.dumps({"d": 2, "kind": "minLinear", "weights": [[["1.5", 1]], [[1, 1]]]}),
])
def test_growth_malformed_map_exits_2(tmp_path, capsys, text):
    path = tmp_path / "map.json"
    path.write_text(text)
    assert main(["growth", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_growth_non_finite_weight_exits_2(tmp_path, capsys, bad):
    path = tmp_path / "map.json"
    path.write_text(json.dumps(  # JSON's Infinity and NaN
        {"d": 2, "kind": "maxLinear", "weights": [[[bad, 1.0]], [[1.0, 1.0]]]}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["growth", str(path), "--n", "64"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert captured.out == "" and caught == []


def test_growth_missing_map_exits_2(tmp_path, capsys):
    assert main(["growth", str(tmp_path / "missing.json")]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("start", ["inf,1", "nan,1", "0,1", "1,-1"])
def test_growth_bad_start_exits_2(tmp_path, capsys, start):
    path = tmp_path / "map.json"
    path.write_text(json.dumps(
        {"d": 2, "kind": "minLinear", "weights": [[[2.0, 0.0]], [[0.0, 3.0]]]}))
    assert main(["growth", str(path), "--n", "64", "--e", start]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""


def test_growth_runtime_positivity_exits_3(tmp_path, capsys):
    path = tmp_path / "map.json"
    path.write_text(json.dumps(
        {"d": 1, "kind": "explicitExpr", "exprs": ["f1 - 10"]}))
    assert main(["growth", str(path), "--n", "4"]) == 3


def _count_conjugate_steps(monkeypatch) -> list:
    steps = []
    make_conjugate = pf.make_conjugate

    def counting(T):
        step = make_conjugate(T)
        return lambda h: steps.append(1) or step(h)

    monkeypatch.setattr(pf, "make_conjugate", counting)
    return steps


def test_growth_reads_both_estimates_off_one_orbit(tmp_path, capsys, monkeypatch):
    # max(0.5 f1 + 0.5 f2) and max(0.3 f1 + 0.9 f2), written out as an
    # explicit map, which takes the N-step orbit
    path = tmp_path / "map.json"
    path.write_text(json.dumps(
        {"d": 2, "kind": "explicitExpr", "exprs": ["0.5*f1 + 0.5*f2", "0.3*f1 + 0.9*f2"]}))
    steps = _count_conjugate_steps(monkeypatch)
    assert main(["growth", str(path), "--n", "1000"]) == 0
    out = capsys.readouterr().out
    assert len(steps) == 1000
    assert "growth rate:" in out and "cauchy difference vs n/2:" in out


def test_growth_prints_the_bracket_of_a_linear_map(tmp_path, capsys, monkeypatch):
    path = tmp_path / "map.json"
    path.write_text(json.dumps(
        {"d": 2, "kind": "maxLinear", "weights": [[[0.5, 0.5]], [[0.3, 0.9]]]}))
    steps = _count_conjugate_steps(monkeypatch)
    assert main(["growth", str(path), "--n", "1000"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(steps) <= pf.MAX_POLICY_STEPS  # policy steps, no 1000-step orbit
    assert len(lines) == 2 and lines[1].startswith("collatz-wielandt bracket: ")
    lo, hi = map(float, lines[1].split()[2:])
    rates = [float(tok) for tok in lines[0].split()[2:]]
    rho = (1.4 + math.sqrt(1.4 ** 2 - 4 * 0.3)) / 2  # trace 1.4, determinant 0.3
    assert lo <= rates[0] == rates[1] <= hi
    assert rates[0] == pytest.approx(rho, rel=1e-12)
    assert main(["growth", str(path), "--n", "0"]) == 2  # --n is still checked


_DEEP_EXPRESSIONS = {
    "long-sum": lambda v: "+".join([v] * 1200),
    "nested-parentheses": lambda v: "(" * 200 + v + ")" * 200,
    "huge-literal": lambda v: f"{v} + 1e999",
}


@pytest.mark.parametrize("make", _DEEP_EXPRESSIONS.values(), ids=_DEEP_EXPRESSIONS)
def test_expressions_beyond_parse_limits_exit_2(tmp_path, capsys, make):
    game = tmp_path / "game.json"
    game.write_text(json.dumps({**bench.exshap_game_file(), "payoff": ["0", make("x")]}))
    mapfile = tmp_path / "map.json"
    mapfile.write_text(json.dumps({"d": 1, "kind": "explicitExpr", "exprs": [make("f1")]}))
    for argv in (["solve", str(game), "--n", "1", "--resolution", "3"],
                 ["growth", str(mapfile), "--n", "2"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "Traceback" not in captured.err
        assert captured.out == ""


@pytest.mark.parametrize("text, message", [
    (None, "error: cannot read "),
    ("{not json", "invalid JSON: "),
])
def test_game_and_map_documents_share_read_errors(tmp_path, capsys, text, message):
    path = tmp_path / "doc.json"
    if text is not None:
        path.write_text(text)
    errors = []
    for argv in (["solve", str(path), "--n", "1"], ["growth", str(path)]):
        assert main(argv) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert message in errors[0]


def test_unknown_builtin_benchmark_exits_2(capsys):
    assert main(["solve", "bench:unheard-of", "--n", "1"]) == 2
    assert capsys.readouterr().err == "error: unknown builtin benchmark 'unheard-of'\n"


def test_solve_iteration_budget_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(values_module, "MAX_FIXED_POINT_ITERATIONS", 2)
    assert main(["solve", "bench:exshap", "--lambda", "0.05", "--resolution", "5"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:")
    assert "Traceback" not in err


def test_grid_beyond_memory_exits_2(monkeypatch, capsys):
    # a stand-in for the grid of `--resolution 1000000`, which numpy cannot
    # allocate; a real oversized grid could fit virtual memory and not RAM
    def discretize(spec, resolution):
        raise MemoryError("Unable to allocate 7.28 TiB for an array with shape "
                          "(1000000, 1000000) and data type float64")

    monkeypatch.setattr(sgve.cli, "discretize", discretize)
    argv = ["solve", "bench:exshap", "--lambda", "0.5", "--resolution", "1000000"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: out of memory: Unable to allocate 7.28 TiB for an array with shape "
        "(1000000, 1000000) and data type float64\n")


def test_bench_suite_runs(capsys):
    code = main(["bench", "--suite", "mckinsey"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("[PASS]") == 2
    assert "all 2 criteria passed" in out


def test_bench_failing_suite_exits_3(monkeypatch, capsys):
    # instant stand-ins for the two pf criteria, the second one failing
    monkeypatch.setitem(bench._CRITERIA, 8,
                        lambda: bench.CriterionResult(8, "stand-in", True, "ok"))
    monkeypatch.setitem(bench._CRITERIA, 9, lambda: bench.CriterionResult(
        9, "stand-in", False, "off", ("detail line",)))
    assert main(["bench", "--suite", "pf"]) == 3
    out = capsys.readouterr().out
    assert "[PASS]  8 stand-in: ok" in out
    assert "[FAIL]  9 stand-in: off\n        detail line" in out
    assert out.endswith("1 criteria FAILED\n")


def test_cli_import_leaves_scipy_optimize_unloaded():
    # sgve loads scipy.optimize on its first LP only, so --help, parser
    # rejections and `sgve growth` skip its import time, and so do
    # `sgve solve` and `sgve curve` on exshap, whose games double oracle
    # certifies, and a vanishing-discount sweep and fit, whose 21-point
    # games the simplex certifies.  None of them loads numpy.ma, which
    # np.unique imports on its first call
    src = str(Path(sgve.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, sgve.cli as cli\n"
         "print('scipy.optimize' in sys.modules, 'numpy.ma' in sys.modules)\n"
         "assert cli.main(['solve', 'bench:exshap', '--lambda', '0.5']) == 0\n"
         "assert cli.main(['curve', 'bench:exshap', '--lambda-grid', '0.6,0.5,0.45']) == 0\n"
         "from sgve import bench, game, shapley, values\n"
         "values.vanishing_discount(shapley.ShapleyOperator(\n"
         "    game.discretize(bench.exshap_spec(), 21)))\n"
         "print('scipy.optimize' in sys.modules, 'numpy.ma' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    lines = out.stdout.splitlines()
    assert lines[0] == lines[-1] == "False False"
