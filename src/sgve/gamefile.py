"""JSON document formats: stochastic games and monotone-map descriptions,
and the paper's two builtin games as ``bench:exshap`` and ``bench:mckinsey``.

A game document looks like::

    {"states": 2,
     "actions": {"x": [[0, 1]], "y": [[0, 1]]},
     "payoff": ["0", "(1+x)/(2*(1+x*y)^2)"],
     "transition": [["1", "0"], ["1 - r", "r"]],
     "controller": ["p1", null],      # optional
     "kind": "general"}               # optional declared game class

Expressions are strings over the action variables (``x``/``x1..xp`` and
``y``/``y1..yq``).  A monotone-map document is
``{"d": 2, "kind": "minLinear", "weights": [[[...], ...], ...]}`` or
``{"d": 2, "kind": "explicitExpr", "exprs": ["f1^2", "f2"]}``.
"""
from __future__ import annotations

import json
from pathlib import Path

from . import expr as ex
from . import parametric, pf
from .errors import GameSpecError, SgveError, checked_count
from .game import GameSpec, action_variables
from .shapley import FORMS

__all__ = [
    "game_spec_from_document", "load_game_document", "load_monotone_map",
    "monotone_map_from_document", "exshap_game_file", "builtin_game_file",
]


def _box_from(node, who: str) -> tuple[tuple[float, float], ...]:
    if not isinstance(node, list) or not node:
        raise GameSpecError(f"actions.{who} must be a nonempty list of [lo, hi] pairs")
    box = []
    for pair in node:
        if (not isinstance(pair, list) or len(pair) != 2
                or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                           for v in pair)):
            raise GameSpecError(f"actions.{who}: bad bounds entry {pair!r}")
        try:
            box.append((float(pair[0]), float(pair[1])))
        except OverflowError:  # an integer beyond the float range
            raise GameSpecError(f"actions.{who}: bound beyond the float range") from None
    return tuple(box)


def game_spec_from_document(doc: dict) -> tuple[GameSpec, str]:
    """Parse a game document; :class:`GameSpec` checks its counts and lengths.

    Returns the spec together with the operator form ("general" unless the
    document sets "kind").
    """
    if not isinstance(doc, dict):
        raise GameSpecError("game document must be a JSON object")
    try:
        d = doc["states"]
        actions = doc["actions"]
        payoff = doc["payoff"]
        transition = doc["transition"]
    except (KeyError, TypeError) as exc:
        raise GameSpecError(f"missing required field: {exc}") from None
    if not isinstance(actions, dict) or set(actions) != {"x", "y"}:
        raise GameSpecError('actions must be an object with keys "x" and "y"')
    x_box = _box_from(actions["x"], "x")
    y_box = _box_from(actions["y"], "y")
    names = action_variables("x", len(x_box)) + action_variables("y", len(y_box))

    if not isinstance(payoff, list):
        raise GameSpecError("payoff must be a list of expression strings")
    if not isinstance(transition, list) or any(not isinstance(r, list) for r in transition):
        raise GameSpecError("transition must be a table of expression strings")

    def parse_one(text, where):
        if not isinstance(text, str):
            raise GameSpecError(f"{where} must be an expression string")
        try:
            return ex.parse(text, names)
        except SgveError as exc:
            raise GameSpecError(f"{where}: {exc}") from None

    payoff_exprs = tuple(parse_one(s, f"payoff[{k}]") for k, s in enumerate(payoff))
    transition_exprs = tuple(
        tuple(parse_one(s, f"transition[{k}][{k2}]") for k2, s in enumerate(row))
        for k, row in enumerate(transition))

    controller = doc.get("controller")
    if controller is not None:
        if (not isinstance(controller, list)
                or any(t not in ("p1", "p2", None) for t in controller)):
            raise GameSpecError('controller must list "p1", "p2", or null per state')
        controller = tuple(controller)

    kind = doc.get("kind", "general")
    if kind not in FORMS:
        raise GameSpecError(f"kind must be one of {FORMS}")

    spec = GameSpec(states=d, x_box=x_box, y_box=y_box, payoff=payoff_exprs,
                    transition=transition_exprs, controller=controller)
    return spec, kind


def exshap_game_file() -> dict:
    """The two-state absorbing benchmark as a plain game-file document."""
    stay = "(1+x)*y/(2*(1+x*y)^2)"
    return {
        "states": 2,
        "actions": {"x": [[0.0, 1.0]], "y": [[0.0, 1.0]]},
        "payoff": ["0", "(1+x)/(2*(1+x*y)^2)"],
        "transition": [["1", "0"],
                       [f"1 - {stay}", stay]],
    }


def mckinsey_game_file() -> dict:
    """The parametric square benchmark at z = 1, as a one-state absorbing
    game file (one-shot value shows up as the lam = 1 solve)."""
    return {
        "states": 1,
        "actions": {"x": [[0.0, 1.0]], "y": [[0.0, 1.0]]},
        "payoff": [parametric._MCKINSEY_PAYOFF.format(z=1.0)],
        "transition": [["1"]],
    }


def builtin_game_file(name: str) -> dict:
    if name == "exshap":
        return exshap_game_file()
    if name == "mckinsey":
        return mckinsey_game_file()
    raise GameSpecError(f"unknown builtin benchmark {name!r}")


def _read_json(path: str):
    """The decoded JSON document at ``path``."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise GameSpecError(f"cannot read {path!r}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise GameSpecError(f"{path}: invalid JSON: {exc}") from None


def load_game_document(path_or_bench: str) -> dict:
    """Read a game document from a file path or a ``bench:<name>`` pseudo-path."""
    if path_or_bench.startswith("bench:"):
        return builtin_game_file(path_or_bench[len("bench:"):])
    return _read_json(path_or_bench)


def monotone_map_from_document(doc: dict) -> pf.MonotoneMap:
    if not isinstance(doc, dict):
        raise GameSpecError("map document must be a JSON object")
    kind = doc.get("kind")
    d = checked_count(doc.get("d"), 1, "d", GameSpecError)
    if kind == "explicitExpr":
        exprs = doc.get("exprs")
        if (not isinstance(exprs, list) or len(exprs) != d
                or not all(isinstance(s, str) for s in exprs)):
            raise GameSpecError(f"exprs must list {d} expression strings")
        try:
            return pf.explicit_map(exprs)
        except SgveError as exc:
            raise GameSpecError(f"bad map expressions: {exc}") from None
    if kind in ("minLinear", "maxLinear"):
        weights = doc.get("weights")
        if not isinstance(weights, list) or len(weights) != d:
            raise GameSpecError(f"weights must list {d} weight-vector families")
        try:
            maker = pf.min_linear if kind == "minLinear" else pf.max_linear
            return maker(weights)
        except (TypeError, GameSpecError) as exc:
            raise GameSpecError(f"bad weights: {exc}") from None
    raise GameSpecError('kind must be "minLinear", "maxLinear", or "explicitExpr"')


def load_monotone_map(path: str) -> pf.MonotoneMap:
    return monotone_map_from_document(_read_json(path))
