"""Property test of the CLI contract: any game or monotone-map document,
well-formed or not, ends in exit 0, 2 or 3 and never raises out of
``cli.main``.

Documents mix valid skeletons with junk leaves (bools, nulls, strings,
nonfinite floats, nested lists), so that many of them get past the schema
checks and reach discretization, the solver and the growth iteration.  Box
dimensions stay at most 2 and the grids at resolution 3, so every run is
small.
"""
import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sgve.cli import main

FUZZ_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                         suppress_health_check=[HealthCheck.too_slow])

LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, 1.0, -1.0, 1e308, -1e308, 5e-324]),
    st.text(max_size=4))
JUNK = st.recursive(LEAVES, lambda inner: st.lists(inner, max_size=3), max_leaves=6)

# expression templates over the first action coordinate of each player
SAFE_EXPRS = ["0", "1", "{x}", "{y}", "{x}*{y}", "{x} - {y}", "0.5", "1 - {x}",
              "(1+{x})/(2*(1+{x}*{y})^2)", "exp({x}*{y})"]
RISKY_EXPRS = ["1/{x}", "1/({x} - {y})", "log({x})", "{x}^{y}", "exp(1000*{x})",
               "x2*y2", "-{x}", "1 +", "z"]
MAP_EXPRS = ["f1", "f2", "f1 + f2", "2*f1", "f1*f2", "f1 - 10", "log(f1)",
             "f1^2", "exp(f2)", "1/f1", "f3", "0"]
# transition rows by state count; most sum to one
TRANSITION_ROWS = {1: [["1"], ["1"], ["0.5"], ["{x}"]],
                   2: [["1", "0"], ["0", "1"], ["0.5", "0.5"], ["{x}", "1 - {x}"],
                       ["{y}", "1 - {y}"], ["{x}*{y}", "1 - {x}*{y}"], ["2", "-1"],
                       ["0.3", "0.3"]]}
TEMPLATES = st.one_of(st.sampled_from(SAFE_EXPRS), st.sampled_from(RISKY_EXPRS))


# where a document may get a junk value (or lose its key): at most one
# place per document, so that most documents reach the solver
GAME_FAULTS = [("states",), ("actions",), ("actions", "x"), ("actions", "y", 0),
               ("actions", "x", 0, 1), ("payoff",), ("payoff", 0),
               ("transition",), ("transition", 0), ("transition", 0, 0),
               ("controller",), ("controller", 0), ("kind",)]
MAP_FAULTS = [("d",), ("kind",), ("weights",), ("weights", 0),
              ("weights", 0, 0), ("weights", 0, 0, 0), ("exprs",), ("exprs", 0)]


def _box(dim):
    pair = st.one_of(st.sampled_from([[0, 1], [-1, 1], [0.5, 2.0]]),
                     st.lists(st.floats(-2, 2), min_size=2, max_size=2).map(sorted))
    return st.lists(pair, min_size=dim, max_size=dim)


@st.composite
def _with_fault(draw, doc, faults):
    """``doc`` unchanged, or with a junk value at one place, or with one
    top-level key deleted."""
    fault = draw(st.one_of(st.none(), st.sampled_from(faults)))
    if fault is None:
        return doc
    *parents, last = fault
    node = doc
    for key in parents:
        node = node[key]
    if isinstance(node, dict) and draw(st.booleans()):
        node.pop(last, None)
    else:
        node[last] = draw(JUNK)
    return doc


@st.composite
def game_documents(draw):
    d = draw(st.integers(1, 2))
    x_box = draw(st.sampled_from([1, 1, 2]).flatmap(_box))
    y_box = draw(st.sampled_from([1, 1, 2]).flatmap(_box))
    names = {"x": "x" if len(x_box) == 1 else "x1",
             "y": "y" if len(y_box) == 1 else "y1"}
    exprs = st.lists(TEMPLATES, min_size=d, max_size=d)
    rows = st.lists(st.one_of(st.sampled_from(TRANSITION_ROWS[d]), exprs),
                    min_size=d, max_size=d)
    doc = {
        "states": d,
        "actions": {"x": x_box, "y": y_box},
        "payoff": [t.format(**names) for t in draw(exprs)],
        "transition": [[t.format(**names) for t in row] for row in draw(rows)],
        "controller": draw(st.lists(st.sampled_from(["p1", "p2", None]),
                                    min_size=d, max_size=d)),
        "kind": draw(st.sampled_from(["general", "mdp", "perfectInfo", "switching"])),
    }
    return draw(_with_fault(doc, GAME_FAULTS))


@st.composite
def map_documents(draw):
    d = draw(st.integers(1, 2))
    vector = st.lists(st.one_of(st.floats(0.1, 3), st.integers(0, 2)),
                      min_size=d, max_size=d)
    doc = {
        "d": d,
        "kind": draw(st.sampled_from(["minLinear", "maxLinear", "explicitExpr"])),
        "weights": draw(st.lists(st.lists(vector, min_size=1, max_size=3),
                                 min_size=d, max_size=d)),
        "exprs": draw(st.lists(st.sampled_from(MAP_EXPRS), min_size=d, max_size=d)),
    }
    return draw(_with_fault(doc, MAP_FAULTS))


def _run_cli(argv) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code:
        assert err.getvalue().startswith(("error:", "numerical failure:"))
    return code


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


@FUZZ_SETTINGS
@given(doc=game_documents(),
       command=st.sampled_from([["solve", "--lambda", "0.5"], ["solve", "--n", "3"],
                                ["curve", "--n-grid", "1,2"]]))
def test_game_documents_keep_the_exit_contract(doc_path, doc, command):
    doc_path.write_text(json.dumps(doc))
    _run_cli([command[0], str(doc_path), *command[1:], "--resolution", "3"])


@FUZZ_SETTINGS
@given(doc=map_documents())
def test_map_documents_keep_the_exit_contract(doc_path, doc):
    doc_path.write_text(json.dumps(doc))
    _run_cli(["growth", str(doc_path), "--n", "20"])
