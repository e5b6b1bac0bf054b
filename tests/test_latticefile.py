"""JSON lattice and search-config files: round trips, location-tagged
errors, and defaults."""

import json

import pytest

from spinbell.cli import EXIT_INPUT, main
from spinbell.errors import LatticeFileError
from spinbell.latticefile import (
    format_lattice,
    load_lattice,
    load_search_config,
    parse_lattice,
    parse_search_config,
    save_lattice,
)
from spinbell.lattice import Lattice
from spinbell.presets import BUILTIN_LATTICES

MINIMAL = {
    "nodes": [
        {"id": "1", "role": "outcome1"},
        {"id": "2", "role": "outcome2"},
        {"id": "a", "role": "analyzer_a"},
        {"id": "b", "role": "analyzer_b"},
    ],
    "edges": [{"a": "1", "b": "2", "j": 0.5}],
}


def _doc(**overrides):
    doc = json.loads(json.dumps(MINIMAL))
    doc.update(overrides)
    return doc


# -- parsing and round trips -----------------------------------------------------


def test_parse_minimal_defaults():
    lat = parse_lattice(_doc())
    assert lat.beta == 1.0
    assert lat.offset == 0.0
    assert lat.cubic == ()
    assert lat.node("1").h == 0.0
    assert lat.bell_ids() == ("1", "2", "a", "b")


def test_parse_accepts_json_text_and_bytes():
    text = json.dumps(_doc())
    assert parse_lattice(text) == parse_lattice(text.encode())


def test_parse_rejects_invalid_json():
    with pytest.raises(LatticeFileError, match="not valid JSON"):
        parse_lattice("{nope")


@pytest.mark.parametrize("name", sorted(BUILTIN_LATTICES))
def test_round_trip_builtins(name):
    lat = BUILTIN_LATTICES[name]()
    assert parse_lattice(format_lattice(lat)) == lat


def test_round_trip_full_featured():
    lat = Lattice.from_parts(
        nodes=[("1", "outcome1", 0.3), ("2", "outcome2"), ("a", "analyzer_a"),
               ("b", "analyzer_b"), ("m", "hidden", -0.2)],
        edges=[("1", "m", 1.5), ("m", "2", -0.7), ("a", "m", 0.1), ("b", "m", 0.2)],
        cubic=[(("1", "2", "m"), 0.25)],
        offset=0.4,
        beta=1.3,
    )
    assert parse_lattice(format_lattice(lat)) == lat


def test_format_omits_defaults():
    text = format_lattice(parse_lattice(_doc()))
    doc = json.loads(text)
    assert "offset" not in doc
    assert "cubic" not in doc
    assert all("h" not in n for n in doc["nodes"])


def test_save_and_load(tmp_path):
    lat = parse_lattice(_doc(beta=2.0))
    path = tmp_path / "lat.json"
    save_lattice(lat, path)
    assert load_lattice(path) == lat


def test_load_missing_file(tmp_path):
    with pytest.raises(LatticeFileError, match="cannot read"):
        load_lattice(tmp_path / "absent.json")


@pytest.mark.parametrize("parse", [parse_lattice, parse_search_config])
def test_parse_rejects_bytes_that_are_not_utf8(parse):
    with pytest.raises(LatticeFileError, match="not valid JSON: 'utf-8' codec can't decode byte 0xff"):
        parse(b"\xff{}")


@pytest.mark.parametrize("load", [load_lattice, load_search_config])
def test_load_rejects_files_that_are_not_utf8(tmp_path, load):
    path = tmp_path / "latin1.json"
    path.write_bytes(b"\xff{}")
    with pytest.raises(LatticeFileError, match="cannot read .*latin1.json: 'utf-8' codec"):
        load(path)


# -- location-tagged errors -------------------------------------------------------


@pytest.mark.parametrize(
    "mutate,location",
    [
        (lambda d: d.update(zzz=1), "top level"),
        (lambda d: d.pop("nodes"), "top level"),
        (lambda d: d.update(beta="hot"), "beta"),
        (lambda d: d["nodes"].__setitem__(0, {"id": "1", "rolez": "x"}), "nodes\\[0\\]"),
        (lambda d: d["nodes"].__setitem__(1, {"role": "outcome2"}), "nodes\\[1\\]"),
        (lambda d: d["nodes"].__setitem__(2, {"id": "a", "role": "spinner"}), "nodes\\[2\\].role"),
        (lambda d: d["nodes"].__setitem__(3, {"id": "b", "h": "big"}), "nodes\\[3\\].h"),
        (lambda d: d["edges"].__setitem__(0, {"a": "1", "b": "2"}), "edges\\[0\\]"),
        (lambda d: d["edges"].__setitem__(0, {"a": "1", "b": "2", "j": None}), "edges\\[0\\].j"),
        (lambda d: d.update(edges={}), "edges"),
        (lambda d: d.update(cubic=[{"nodes": ["1", "2"], "c": 1.0}]), "cubic\\[0\\].nodes"),
        (lambda d: d.update(cubic=[{"nodes": ["1", "2", "a"]}]), "cubic\\[0\\]"),
    ],
)
def test_error_locations(mutate, location):
    doc = _doc()
    mutate(doc)
    with pytest.raises(LatticeFileError, match=location):
        parse_lattice(doc)


def test_lattice_level_errors_become_file_errors():
    doc = _doc()
    doc["edges"][0] = {"a": "1", "b": "zz", "j": 1.0}
    with pytest.raises(LatticeFileError, match="unknown node"):
        parse_lattice(doc)


def test_boolean_is_not_a_number():
    with pytest.raises(LatticeFileError, match="beta"):
        parse_lattice(_doc(beta=True))


@pytest.mark.parametrize(
    "token",
    ["NaN", "Infinity", "-Infinity", "1e999", "1" + "0" * 400],
    ids=["nan", "inf", "-inf", "1e999", "int-1e400"],
)
@pytest.mark.parametrize("key,location", [("j", "edges\\[0\\].j"), ("offset", "offset")])
def test_non_finite_numbers_rejected_with_location(token, key, location):
    # Python's json accepts NaN and Infinity, and 1e999 parses to inf
    text = json.dumps(_doc(offset=0.5)).replace(f'"{key}": 0.5', f'"{key}": {token}')
    with pytest.raises(LatticeFileError, match=f"{location}: expected a finite number"):
        parse_lattice(text)


def test_nan_field_exits_input_naming_location(tmp_path, capsys):
    doc = json.loads(json.dumps(MINIMAL))
    doc["nodes"][0]["h"] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))  # writes the bare token NaN
    assert "NaN" in path.read_text()
    assert main(["eval", "--lattice", str(path)]) == EXIT_INPUT
    assert "nodes[0].h" in capsys.readouterr().err


# -- search configurations ---------------------------------------------------------


def _config(**overrides):
    doc = {
        "builtin": "ladder",
        "params": [
            {"name": "bias", "kind": "h", "targets": ["1", "2"]},
            {"name": "rung", "kind": "j", "targets": [["1", "a"]], "lo": 0.5, "hi": 2.0},
        ],
    }
    doc.update(overrides)
    return doc


def test_parse_search_config_builtin():
    space = parse_search_config(_config())
    assert space.objective == "x_bi"
    assert [p.name for p in space.params] == ["bias", "rung"]
    assert space.params[0].targets == ("1", "2")
    assert space.params[1].targets == (("1", "a"),)
    assert space.params[1].bounds == (0.5, 2.0)


def test_parse_search_config_inline_lattice():
    space = parse_search_config(
        {
            "lattice": _doc(),
            "objective": "md",
            "params": [{"name": "bias", "kind": "h", "targets": ["1"]}],
        }
    )
    assert space.objective == "md"
    assert space.base.bell_ids() == ("1", "2", "a", "b")


def test_search_config_requires_one_source():
    with pytest.raises(LatticeFileError, match="exactly one"):
        parse_search_config({"params": []})
    with pytest.raises(LatticeFileError, match="exactly one"):
        parse_search_config(_config(lattice=_doc()))


def test_search_config_unknown_builtin():
    with pytest.raises(LatticeFileError, match="builtin"):
        parse_search_config(_config(builtin="nope"))


def test_search_config_param_errors():
    with pytest.raises(LatticeFileError, match="params\\[0\\]"):
        parse_search_config(_config(params=[{"kind": "h", "targets": ["1"]}]))
    with pytest.raises(LatticeFileError, match="params\\[0\\].targets\\[0\\]"):
        parse_search_config(
            _config(params=[{"name": "p", "kind": "j", "targets": [["1"]]}])
        )
    # a bad kind surfaces through SearchParam's own validation, tagged
    with pytest.raises(LatticeFileError, match="params\\[0\\]"):
        parse_search_config(
            _config(params=[{"name": "p", "kind": "x", "targets": ["1"]}])
        )


def test_search_config_bad_objective():
    with pytest.raises(LatticeFileError, match="objective"):
        parse_search_config(_config(objective="entropy"))


def test_search_config_empty_params_rejected():
    with pytest.raises(LatticeFileError, match="at least one"):
        parse_search_config(_config(params=[]))


def test_load_search_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_config()))
    space = load_search_config(path)
    assert [p.name for p in space.params] == ["bias", "rung"]
    with pytest.raises(LatticeFileError, match="cannot read"):
        load_search_config(tmp_path / "absent.json")
