"""JSON on-disk format for lattices and search configurations.

A lattice file is one JSON object:

    {
      "beta": 1.0,
      "nodes": [{"id": "1", "role": "outcome1", "h": 0.5}, {"id": "3"}],
      "edges": [{"a": "1", "b": "3", "j": 1.0}],
      "cubic": [{"nodes": ["1", "3", "4"], "c": 0.2}],   // optional
      "offset": 0.0                                      // optional
    }

Node role defaults to "hidden" and h to 0. Unknown keys anywhere are
rejected; every error carries a location path such as "nodes[3].role".
format_lattice writes the same shape back, so parse(format(x)) == x.

A search configuration wraps a lattice (inline or builtin by name) with the
parameter groups of a SearchSpace:

    {
      "builtin": "ladder",            // or "lattice": {...}
      "objective": "x_bi",
      "params": [
        {"name": "rung", "kind": "j", "targets": [["1", "3"], ["a", "6"]]},
        {"name": "bias", "kind": "h", "targets": ["1", "2"], "lo": -1, "hi": 1}
      ]
    }
"""

from __future__ import annotations

import json
import math
from typing import Any

from .errors import LatticeDefinitionError, LatticeFileError, SpinbellError
from .lattice import CubicTerm, Edge, Lattice, Node, NodeRole

__all__ = [
    "parse_lattice",
    "load_lattice",
    "format_lattice",
    "save_lattice",
    "parse_search_config",
    "load_search_config",
]

_NODE_KEYS = {"id", "role", "h"}
_EDGE_KEYS = {"a", "b", "j"}
_CUBIC_KEYS = {"nodes", "c"}
_TOP_KEYS = {"beta", "nodes", "edges", "cubic", "offset"}
_SEARCH_KEYS = {"lattice", "builtin", "objective", "params"}
_PARAM_KEYS = {"name", "kind", "targets", "lo", "hi"}


def _fail(where: str, message: str):
    raise LatticeFileError(f"{where}: {message}")


def _expect_object(value, where: str, allowed: set | None = None, required=()) -> dict:
    """value as an object with keys only from allowed (when given) and
    every required key."""
    if not isinstance(value, dict):
        _fail(where, f"expected an object, got {type(value).__name__}")
    extra = sorted(set(value) - allowed) if allowed is not None else []
    if extra:
        _fail(where, f"unknown keys {extra}; allowed keys are {sorted(allowed)}")
    for key in required:
        if key not in value:
            _fail(where, f"missing required key {key!r}")
    return value


def _expect_list(value, where: str) -> list:
    if not isinstance(value, list):
        _fail(where, f"expected an array, got {type(value).__name__}")
    return value


def _expect_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(where, f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        _fail(where, f"expected a finite number, got {value!r}")
    return number


def _expect_string(value, where: str) -> str:
    if not isinstance(value, str) or not value:
        _fail(where, f"expected a non-empty string, got {value!r}")
    return value


def _parse_node(obj, where: str) -> Node:
    obj = _expect_object(obj, where, _NODE_KEYS, ("id",))
    nid = _expect_string(obj["id"], f"{where}.id")
    role = NodeRole.HIDDEN
    if "role" in obj:
        label = _expect_string(obj["role"], f"{where}.role")
        try:
            role = NodeRole.from_label(label)
        except LatticeDefinitionError as exc:
            _fail(f"{where}.role", str(exc))
    h = _expect_number(obj["h"], f"{where}.h") if "h" in obj else 0.0
    return Node(nid, role, h)


def _parse_edge(obj, where: str) -> Edge:
    obj = _expect_object(obj, where, _EDGE_KEYS, ("a", "b", "j"))
    return Edge(
        _expect_string(obj["a"], f"{where}.a"),
        _expect_string(obj["b"], f"{where}.b"),
        _expect_number(obj["j"], f"{where}.j"),
    )


def _parse_cubic(obj, where: str) -> CubicTerm:
    obj = _expect_object(obj, where, _CUBIC_KEYS, ("nodes", "c"))
    ids = _expect_list(obj["nodes"], f"{where}.nodes")
    if len(ids) != 3:
        _fail(f"{where}.nodes", f"expected exactly 3 node ids, got {len(ids)}")
    names = tuple(
        _expect_string(ids[i], f"{where}.nodes[{i}]") for i in range(3)
    )
    return CubicTerm(names, _expect_number(obj["c"], f"{where}.c"))


def _decode(data: Any) -> Any:
    """data, decoded first if it is JSON text."""
    if isinstance(data, (str, bytes)):
        try:
            return json.loads(data)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:  # bytes that are not UTF-8
            raise LatticeFileError(f"not valid JSON: {exc}") from exc
    return data


def _load(path, parse):
    """parse applied to the text of the file at path."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise LatticeFileError(f"cannot read {path}: {exc}") from exc
    return parse(text)


def parse_lattice(data: Any) -> Lattice:
    """Build a lattice from parsed JSON (or a JSON string)."""
    obj = _expect_object(_decode(data), "top level", _TOP_KEYS, ("nodes", "edges"))

    beta = _expect_number(obj["beta"], "beta") if "beta" in obj else 1.0
    offset = _expect_number(obj["offset"], "offset") if "offset" in obj else 0.0
    nodes = [
        _parse_node(n, f"nodes[{i}]")
        for i, n in enumerate(_expect_list(obj["nodes"], "nodes"))
    ]
    edges = [
        _parse_edge(e, f"edges[{i}]")
        for i, e in enumerate(_expect_list(obj["edges"], "edges"))
    ]
    cubic = [
        _parse_cubic(t, f"cubic[{i}]")
        for i, t in enumerate(_expect_list(obj.get("cubic", []), "cubic"))
    ]
    try:
        return Lattice(
            nodes=tuple(nodes), edges=tuple(edges), beta=beta, cubic=tuple(cubic), offset=offset
        )
    except LatticeDefinitionError as exc:
        raise LatticeFileError(str(exc)) from exc


def load_lattice(path) -> Lattice:
    return _load(path, parse_lattice)


def format_lattice(lattice: Lattice, indent: int = 2) -> str:
    """JSON text that parse_lattice turns back into an equal lattice."""
    doc: dict = {"beta": lattice.beta}
    nodes = []
    for node in lattice.nodes:
        entry: dict = {"id": node.id}
        if node.role is not NodeRole.HIDDEN:
            entry["role"] = node.role.value
        if node.h != 0.0:
            entry["h"] = node.h
        nodes.append(entry)
    doc["nodes"] = nodes
    doc["edges"] = [{"a": e.a, "b": e.b, "j": e.j} for e in lattice.edges]
    if lattice.cubic:
        doc["cubic"] = [{"nodes": list(t.nodes), "c": t.c} for t in lattice.cubic]
    if lattice.offset != 0.0:
        doc["offset"] = lattice.offset
    return json.dumps(doc, indent=indent)


def save_lattice(lattice: Lattice, path, indent: int = 2) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_lattice(lattice, indent))
        fh.write("\n")


def _parse_param(obj, where: str) -> SearchParam:
    from .search import SearchParam

    obj = _expect_object(obj, where, _PARAM_KEYS, ("name", "kind", "targets"))
    name = _expect_string(obj["name"], f"{where}.name")
    kind = _expect_string(obj["kind"], f"{where}.kind")
    raw = _expect_list(obj["targets"], f"{where}.targets")
    if not raw:
        _fail(f"{where}.targets", "must not be empty")
    targets: list = []
    for i, t in enumerate(raw):
        spot = f"{where}.targets[{i}]"
        if kind == "h":
            targets.append(_expect_string(t, spot))
        else:
            pair = _expect_list(t, spot)
            if len(pair) != 2:
                _fail(spot, f"expected [a, b] node pair, got {len(pair)} entries")
            targets.append(
                (_expect_string(pair[0], f"{spot}[0]"), _expect_string(pair[1], f"{spot}[1]"))
            )
    lo = _expect_number(obj["lo"], f"{where}.lo") if "lo" in obj else None
    hi = _expect_number(obj["hi"], f"{where}.hi") if "hi" in obj else None
    try:
        return SearchParam(name=name, kind=kind, targets=tuple(targets), lo=lo, hi=hi)
    except SpinbellError as exc:
        raise LatticeFileError(f"{where}: {exc}") from exc


def parse_search_config(data: Any) -> SearchSpace:
    """Build a SearchSpace from parsed JSON (or a JSON string)."""
    from .presets import builtin_lattice
    from .search import SearchSpace

    obj = _expect_object(_decode(data), "top level", _SEARCH_KEYS)
    has_inline = "lattice" in obj
    has_builtin = "builtin" in obj
    if has_inline == has_builtin:
        _fail("top level", "give exactly one of 'lattice' or 'builtin'")
    if has_inline:
        base = parse_lattice(_expect_object(obj["lattice"], "lattice"))
    else:
        name = _expect_string(obj["builtin"], "builtin")
        try:
            base = builtin_lattice(name)
        except SpinbellError as exc:
            raise LatticeFileError(f"builtin: {exc}") from exc
    if "params" not in obj:
        _fail("top level", "missing required key 'params'")
    params = [
        _parse_param(p, f"params[{i}]")
        for i, p in enumerate(_expect_list(obj["params"], "params"))
    ]
    objective = (
        _expect_string(obj["objective"], "objective") if "objective" in obj else "x_bi"
    )
    try:
        return SearchSpace(base=base, params=tuple(params), objective=objective)
    except SpinbellError as exc:
        raise LatticeFileError(str(exc)) from exc


def load_search_config(path) -> SearchSpace:
    return _load(path, parse_search_config)
