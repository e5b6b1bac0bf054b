"""Command line interface, exercised in process through main().

Covers every subcommand, both output formats, file output, precision
handling, and each exit code: 0 success, 2 bad input, 3 degenerate
numerics, 4 reference-case mismatch."""

import contextlib
import io
import itertools
import json
import re
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinbell.cli import EXIT_INPUT, EXIT_MISMATCH, EXIT_NUMERIC, EXIT_OK, main
from spinbell.latticefile import save_lattice
from spinbell.model import BoltzmannModel
from spinbell.presets import tuned_ladder


@pytest.fixture()
def tuned_file(tmp_path):
    path = tmp_path / "tuned.json"
    save_lattice(tuned_ladder(), path)
    return str(path)


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "space.json"
    path.write_text(
        json.dumps(
            {
                "builtin": "ladder",
                "params": [
                    {"name": "bias", "kind": "h", "targets": ["1", "2"], "lo": -1, "hi": 1},
                ],
            }
        )
    )
    return str(path)


def _one_param_doc(**bounds):
    """A search config over the ladder with one field group on node 1."""
    return {"builtin": "ladder", "params": [{"name": "x", "kind": "h", "targets": ["1"], **bounds}]}


# -- eval ---------------------------------------------------------------------------


def test_eval_all_text(capsys):
    assert main(["eval", "--builtin", "ladder"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "x_bi" in out
    assert "md = " in out
    assert "P(s1,s2|sa,sb):" in out


def test_eval_all_builds_the_table_once(monkeypatch, capsys):
    calls = []
    original = BoltzmannModel.weight_table

    def counting(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(BoltzmannModel, "weight_table", counting)
    assert main(["eval", "--builtin", "ladder"]) == EXIT_OK
    assert len(calls) == 2  # the conditional table and the independence weights
    capsys.readouterr()


def test_eval_chsh_csv(capsys):
    assert main(["eval", "--builtin", "ladder", "--report", "chsh", "--format", "csv"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "m_ab,m_apb,m_abp,m_apbp,x_bi"
    assert len(lines) == 2


def test_eval_csv_rejects_all(capsys):
    assert main(["eval", "--builtin", "ladder", "--format", "csv"]) == EXIT_INPUT
    assert "csv output needs a single --report" in capsys.readouterr().err


def test_eval_independence_csv_layout(capsys):
    argv = ["eval", "--builtin", "ladder", "--report", "independence", "--format", "csv"]
    assert main(argv) == EXIT_OK
    header, row = capsys.readouterr().out.strip().splitlines()
    assert header == "md,od,pd,mi_holds,oi_holds,pi_holds,factorizable"
    # the ladder violates measurement independence and keeps the other three
    assert row.split(",")[3:] == ["false", "true", "true", "true"]


def test_eval_table_csv_layout(capsys):
    argv = ["eval", "--builtin", "ladder", "--report", "table", "--format", "csv"]
    assert main(argv) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "s1,s2,sa,sb,p"
    assert len(lines) == 17
    assert lines[1].startswith("1,1,1,1,")


def test_eval_lattice_file(tuned_file, capsys):
    assert main(["eval", "--lattice", tuned_file, "--report", "chsh",
                 "--precision", "full"]) == EXIT_OK
    assert "2.871226814410393" in capsys.readouterr().out


def test_eval_lambda_subset(capsys):
    assert main(["eval", "--builtin", "ladder", "--report", "independence",
                 "--lambda", "3,4"]) == EXIT_OK
    assert "md = " in capsys.readouterr().out


def test_eval_out_file(tmp_path, capsys):
    target = tmp_path / "report.txt"
    assert main(["eval", "--builtin", "ladder", "--report", "chsh",
                 "--out", str(target)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert "x_bi" in target.read_text()


def test_eval_bad_lattice_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"nodes": [{"id": "1", "rolez": "x"}], "edges": []}')
    assert main(["eval", "--lattice", str(path)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "nodes[0]" in err
    assert "rolez" in err


def test_eval_degenerate_lattice(tmp_path, capsys):
    # pinned analyzers: anti-aligned settings carry zero weight
    doc = {
        "nodes": [
            {"id": "1", "role": "outcome1"},
            {"id": "2", "role": "outcome2"},
            {"id": "a", "role": "analyzer_a"},
            {"id": "b", "role": "analyzer_b"},
        ],
        "edges": [
            {"a": "a", "b": "b", "j": 500.0},
            {"a": "1", "b": "2", "j": 0.3},
        ],
    }
    path = tmp_path / "pinned.json"
    path.write_text(json.dumps(doc))
    assert main(["eval", "--lattice", str(path), "--report", "chsh"]) == EXIT_NUMERIC
    assert "zero weight" in capsys.readouterr().err


def test_overflowing_energies_exit_numeric_without_warnings(tmp_path, capsys):
    # 1e308 couplings overflow the energy sums to inf and inf - inf to NaN
    doc = {
        "nodes": [
            {"id": "1", "role": "outcome1"},
            {"id": "2", "role": "outcome2"},
            {"id": "a", "role": "analyzer_a"},
            {"id": "b", "role": "analyzer_b"},
        ],
        "edges": [
            {"a": "1", "b": "a", "j": 1e308},
            {"a": "a", "b": "b", "j": 1e308},
            {"a": "b", "b": "2", "j": -1e308},
        ],
    }
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["eval", "--lattice", str(path)]) == EXIT_NUMERIC
    assert "energies leave the double range" in capsys.readouterr().err


def test_bad_precision():
    # the type converter raises a ValueError subclass, so argparse exits 2
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--builtin", "ladder", "--precision", "zero"])
    assert exc.value.code == 2


# -- reproduce ----------------------------------------------------------------------


def test_reproduce_list(capsys):
    assert main(["reproduce", "--list"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "ladder-uniform" in out
    assert "quantum-cosine" in out


def test_reproduce_passing_case(capsys):
    assert main(["reproduce", "ladder-tuned"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "[ladder-tuned]" in out
    assert "PASS" in out
    assert "FAIL" not in out


def test_reproduce_known_misses_exit_mismatch(capsys):
    assert main(["reproduce", "ladder-uniform"]) == EXIT_MISMATCH
    out = capsys.readouterr().out
    assert out.count("FAIL") == 2
    assert out.count("PASS") == 2


def test_reproduce_all_hits_the_misses(capsys):
    assert main(["reproduce"]) == EXIT_MISMATCH
    out = capsys.readouterr().out
    assert "[ladder-uniform]" in out
    assert "[weak-coupling]" in out


def test_reproduce_contingent_is_not_failure(capsys):
    assert main(["reproduce", "grid-maxima", "second-neighbor"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "FAIL" not in out


def test_reproduce_unknown_case(capsys):
    assert main(["reproduce", "nope"]) == EXIT_INPUT
    assert "unknown case" in capsys.readouterr().err


# -- series -------------------------------------------------------------------------


def test_series_subset(capsys):
    assert main(["series", "--k", "0.2", "0.5", "--chain-n", "5"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "closed forms vs enumeration" in out
    assert "overall max" in out


def test_series_csv(capsys):
    assert main(["series", "--k", "0.3", "--chain-n", "5", "--format", "csv"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "name,k,max_rel_dev"
    assert len(lines) == 12


def test_series_bad_k(capsys):
    assert main(["series", "--k", "1.5"]) == EXIT_INPUT


@pytest.mark.parametrize("n", [2, 3, 4])
def test_series_short_chain_one_message(n, capsys):
    assert main(["series", "--k", "0.3", "--chain-n", str(n)]) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: chain forms need n >= 5, got {n}\n"


_SERIES_ROWS = (
    "joint-numerator",
    "setting-marginal",
    "outcome-conditional",
    "lambda-conditional",
    "outcome1-factor",
    "outcome2-factor",
    "outcome-factor-joint",
    "chain-setting-marginal",
    "chain-lambda-conditional",
    "chain-outcome-joint",
    "chain-outcome-factors",
)


def _mask_deviations(text: str) -> str:
    """Replace the number that ends each line; only deviation digits may move."""
    return re.sub(r"\d[\d.]*(?:e[-+]\d+)?$", "<dev>", text, flags=re.M)


def test_series_text_layout(capsys):
    assert main(["series", "--k", "0.2", "0.5", "--chain-n", "5"]) == EXIT_OK
    expected = "\n".join(
        [
            "closed forms vs enumeration (chain n = 5)",
            *(f"  {name:28s} max rel dev <dev>" for name in sorted(_SERIES_ROWS)),
            "  overall max = <dev>",
            "",
        ]
    )
    assert _mask_deviations(capsys.readouterr().out) == expected


def test_series_csv_layout(capsys):
    argv = ["series", "--k", "0.2", "0.5", "--chain-n", "5", "--format", "csv"]
    assert main(argv) == EXIT_OK
    expected = "\n".join(
        [
            "name,k,max_rel_dev",
            *(f"{name},{k},<dev>" for k in ("0.2", "0.5") for name in _SERIES_ROWS),
            "",
        ]
    )
    assert _mask_deviations(capsys.readouterr().out) == expected


# -- freewill -----------------------------------------------------------------------


def test_freewill_text(capsys):
    assert main(["freewill", "--builtin", "ladder-tuned"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "max discrepancy" in out
    assert "partition gap" in out


def test_freewill_csv(capsys):
    assert main(["freewill", "--builtin", "ladder", "--format", "csv"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "s1,s2,sa,sb,postselected,clamped,difference"
    assert len(lines) == 17


def test_freewill_zero_weight_setting(tmp_path, capsys):
    # a field of 800 pins analyzer a at +1: both settings with sa = -1 carry
    # zero weight, and the clamped route refuses them as the direct one does
    doc = {
        "nodes": [
            {"id": "1", "role": "outcome1"},
            {"id": "2", "role": "outcome2"},
            {"id": "a", "role": "analyzer_a", "h": 800.0},
            {"id": "b", "role": "analyzer_b"},
            {"id": "3"},
        ],
        "edges": [
            {"a": "1", "b": "a", "j": 0.5},
            {"a": "a", "b": "3", "j": 0.4},
            {"a": "3", "b": "b", "j": 0.6},
            {"a": "b", "b": "2", "j": 0.7},
        ],
    }
    path = tmp_path / "pinned.json"
    path.write_text(json.dumps(doc))
    assert main(["freewill", "--lattice", str(path)]) == EXIT_NUMERIC
    assert "setting (sa=-, sb=-) has zero weight" in capsys.readouterr().err


# -- sample -------------------------------------------------------------------------


def test_sample_text(capsys):
    assert main(["sample", "--builtin", "ladder", "--event", "1:+",
                 "--given", "a:+,b:+", "--n", "2000", "--seed", "9"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "P(1:+ | a:+,b:+)" in out
    assert "seed 9" in out


def test_sample_csv_deterministic(capsys):
    argv = ["sample", "--builtin", "ladder", "--event", "1:+", "--n", "500",
            "--format", "csv", "--precision", "full"]
    assert main(argv) == EXIT_OK
    one = capsys.readouterr().out
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == one
    assert one.splitlines()[0] == "n,freq,exact,se"


def test_sample_metropolis(capsys):
    assert main(["sample", "--builtin", "chain-8", "--event", "1:+",
                 "--kind", "metropolis", "--n", "200", "--burn-in", "2000",
                 "--thinning", "5"]) == EXIT_OK
    assert "metropolis" in capsys.readouterr().out


def test_sample_bad_event(capsys):
    assert main(["sample", "--builtin", "ladder", "--event", "1:#"]) == EXIT_INPUT
    assert "bad spin" in capsys.readouterr().err


def test_sample_overlap(capsys):
    assert main(["sample", "--builtin", "ladder", "--event", "1:+",
                 "--given", "1:-", "--n", "100"]) == EXIT_INPUT
    assert "overlap" in capsys.readouterr().err


def test_sample_without_postselected_draws(tmp_path, capsys):
    # a field of -40 keeps analyzer a at -1 in every draw: the checkpoint
    # keeps no sample and reads NaN, and stderr says why without a warning
    doc = {
        "nodes": [
            {"id": "1", "role": "outcome1"},
            {"id": "2", "role": "outcome2"},
            {"id": "a", "role": "analyzer_a", "h": -40.0},
            {"id": "b", "role": "analyzer_b"},
        ],
        "edges": [{"a": "1", "b": "a", "j": 0.5}, {"a": "b", "b": "2", "j": 0.5}],
    }
    path = tmp_path / "pinned.json"
    path.write_text(json.dumps(doc))
    argv = ["sample", "--lattice", str(path), "--event", "1:+", "--given", "a:+", "--n", "100"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == EXIT_OK
    captured = capsys.readouterr()
    assert "nan" in captured.out
    assert captured.err == "warning: no samples pass the condition in the first 100 draws\n"


def test_sample_count_beyond_addressable_memory(capsys):
    # 2^62 int64 words need 2^65 bytes; refused before anything is allocated
    assert main(["sample", "--builtin", "ladder", "--event", "1:+",
                 "--n", "4611686018427387904"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "4611686018427387904" in err
    assert "Traceback" not in err


def test_sample_count_beyond_allocatable_memory(capsys):
    # 2^60 - 1 words can be addressed, but numpy refuses the 8 EiB request
    # at once, so nothing is allocated
    assert main(["sample", "--builtin", "ladder", "--event", "1:+",
                 "--n", "1152921504606846975"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: sample: out of memory")
    assert "Traceback" not in err


# -- optimize -----------------------------------------------------------------------


def test_optimize_search(config_file, capsys):
    argv = ["optimize", "--config", config_file, "--budget", "120", "--seed", "7"]
    assert main(argv) == EXIT_OK
    one = capsys.readouterr().out
    assert "best x_bi" in one
    assert "bias = " in one
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == one


def test_optimize_grid(config_file, capsys):
    assert main(["optimize", "--config", config_file, "--grid", "3"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "bias,x_bi,md,od,pd"
    assert len(lines) == 4


def test_optimize_bad_start(config_file, capsys):
    assert main(["optimize", "--config", config_file, "--start", "5.0"]) == EXIT_INPUT
    assert "outside" in capsys.readouterr().err


def test_optimize_start_not_numeric(config_file, capsys):
    assert main(["optimize", "--config", config_file, "--start", "x"]) == EXIT_INPUT
    assert "--start" in capsys.readouterr().err


def test_optimize_grid_skips_points_without_pd(tmp_path, capsys):
    # b follows node 4 at j = 800, and a follows node 3 once the a-3
    # coupling is large: from the middle point on no analyzer flip leaves
    # both cells with weight, so only the first point has a row
    lattice = {
        "nodes": [
            {"id": "1", "role": "outcome1"},
            {"id": "2", "role": "outcome2"},
            {"id": "a", "role": "analyzer_a"},
            {"id": "b", "role": "analyzer_b"},
            {"id": "3"},
            {"id": "4"},
            {"id": "5"},
        ],
        "edges": [
            {"a": "1", "b": "a", "j": 0.7},
            {"a": "a", "b": "3", "j": 1.0},
            {"a": "3", "b": "5", "j": 0.6},
            {"a": "5", "b": "4", "j": 0.8},
            {"a": "4", "b": "b", "j": 800.0},
            {"a": "b", "b": "2", "j": 0.9},
        ],
    }
    params = [{"name": "j_pin", "kind": "j", "targets": [["a", "3"]], "lo": 0.5, "hi": 800}]
    path = tmp_path / "pinned.json"
    path.write_text(json.dumps({"lattice": lattice, "params": params}))
    assert main(["optimize", "--config", str(path), "--grid", "3"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "j_pin,x_bi,md,od,pd"
    assert len(lines) == 2
    assert lines[1].startswith("0.5,")


def test_optimize_missing_config(tmp_path, capsys):
    assert main(["optimize", "--config", str(tmp_path / "no.json")]) == EXIT_INPUT
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_optimize_seed_outside_64_bits(config_file, capsys, seed):
    argv = ["optimize", "--config", config_file, "--budget", "5", f"--seed={seed}"]
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert f"seed must be a 64-bit unsigned integer, got {seed}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("lo, hi", [(-1e308, 1e308), (1e308, 1.5e308)])
def test_optimize_refuses_ranges_that_overflow(tmp_path, capsys, lo, hi):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(_one_param_doc(lo=lo, hi=hi)))
    for mode in (["--grid", "2"], ["--budget", "50"]):
        assert main(["optimize", "--config", str(path), *mode]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"params[0]: parameter 'x' has range [{lo}, {hi}]" in err
        assert "overflows a double" in err


# -- chain --------------------------------------------------------------------------


def test_chain_values_with_check(capsys):
    assert main(["chain", "--n", "6", "--k", "0.4", "--check",
                 "--precision", "full"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "md (summed over ends)" in out
    assert "md (enumeration)" in out
    assert "relative deviation" in out


def test_chain_profile_csv(capsys):
    assert main(["chain", "--k", "0.3", "--profile", "5", "8"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,md_summed,md_per_config"
    assert len(lines) == 5


def test_chain_bad_range(capsys):
    assert main(["chain", "--k", "0.3", "--profile", "9", "5"]) == EXIT_INPUT
    assert main(["chain", "--k", "1.2", "--n", "8"]) == EXIT_INPUT


# -- parser plumbing -----------------------------------------------------------------


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "spinbell" in capsys.readouterr().out


def test_missing_subcommand():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_exclusive_lattice_options():
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--builtin", "ladder", "--lattice", "x.json"])
    assert exc.value.code == 2


# -- fuzz: generated lattice files -----------------------------------------------------

_IDS = ("1", "2", "a", "b", "3", "4", "5")
_ROLES = {"1": "outcome1", "2": "outcome2", "a": "analyzer_a", "b": "analyzer_b"}
# ordinary values and couplings that pin spins; a few documents also draw
# values past the double range and a beta that is not positive
_VALUES = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([0.0, 40.0, -40.0, 800.0, -800.0]))
_WILD = st.one_of(_VALUES, st.sampled_from([1e308, -1e308, 5e-324, float("inf"), float("nan")]))


@st.composite
def _lattice_docs(draw):
    """Lattice JSON documents: mostly valid, some with a role missing, a
    self loop, a repeated edge, an unknown node or a value out of range."""
    wild = draw(st.integers(0, 7)) == 0
    values = _WILD if wild else _VALUES
    n_hidden = draw(st.integers(0, 3))
    ids = [i for i in _IDS[:4] if draw(st.integers(0, 19))] + list(_IDS[4 : 4 + n_hidden])
    nodes = [{"id": i, "role": _ROLES.get(i, "hidden"), "h": draw(values)} for i in ids]
    pairs = list(itertools.combinations(ids, 2))
    if wild:
        # a self loop, an unknown node or a repeated edge
        pairs += [(ids[0], ids[0]), (ids[0], "zz"), *pairs[:1]] if ids else [("zz", "zz")]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=8, unique=not wild)) if pairs else []
    edges = [{"a": a, "b": b, "j": draw(values)} for a, b in chosen]
    beta = draw(st.one_of(st.floats(0.1, 3.0), st.sampled_from([0.0, -1.0]) if wild else st.nothing()))
    doc = {"beta": beta, "nodes": nodes, "edges": edges}
    if len(ids) >= 3 and draw(st.booleans()):
        trio = draw(st.permutations(ids))[:3]
        doc["cubic"] = [{"nodes": trio, "c": draw(values)}]
    if draw(st.booleans()):
        doc["offset"] = draw(values)
    return doc


def _run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


@settings(max_examples=150)
@given(doc=_lattice_docs(), lam=st.lists(st.sampled_from([*_IDS, "zz"]), max_size=3))
def test_cli_fuzz_generated_lattices(tmp_path_factory, doc, lam):
    """eval (with and without --lambda), freewill and sample on generated
    lattice files: every run ends with a documented exit code, and with no
    traceback and no warning."""
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(doc))
    commands = [
        ["eval", "--lattice", str(path)],
        ["eval", "--lattice", str(path), "--lambda", ",".join(lam), "--report", "independence"],
        ["freewill", "--lattice", str(path)],
        ["sample", "--lattice", str(path), "--event", "1:+", "--given", "a:+", "--n", "200"],
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in commands:
            rc, err = _run_quietly(argv)
            assert rc in (EXIT_OK, EXIT_INPUT, EXIT_NUMERIC, EXIT_MISMATCH), (argv, err)
            assert "Traceback" not in err


# -- fuzz: generated search configs -----------------------------------------------------

# bounds inside and at the edge of the double range: two of the largest make a
# range whose width or midpoint overflows
_BOUNDS = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([-800.0, 1e308, -1e308, 1.5e308]))
_SEARCH_BUILTINS = {"ladder": [["1", "a"], ["3", "6"], ["2", "b"]], "second-neighbor": [["a", "b"]]}


def _mostly(valid, *invalid):
    """valid values drawn six times as often as each invalid one"""
    return st.sampled_from([*valid * 6, *invalid])


@st.composite
def _search_docs(draw):
    """Search config documents over a built-in (or an unknown name) or a
    generated lattice, with tied groups whose kinds, targets, bounds and
    objective are mostly valid."""
    builtin = draw(_mostly([*_SEARCH_BUILTINS, None], "nope"))
    if builtin is None:
        lattice = draw(_lattice_docs())
        doc = {"lattice": lattice}
        ids = [n["id"] for n in lattice["nodes"]]
        pairs = [[e["a"], e["b"]] for e in lattice["edges"]]
    else:
        doc = {"builtin": builtin}
        ids = list(_IDS[:6])
        pairs = _SEARCH_BUILTINS.get(builtin, [])
    params = []
    for k in range(draw(_mostly([1, 2], 0))):
        kind = draw(_mostly(["h", "j"], "x"))
        target = _mostly(pairs, ["1", "zz"]) if kind == "j" else _mostly(ids, "zz")
        targets = draw(st.lists(target, min_size=1, max_size=2))
        param = {"name": f"p{k}", "kind": kind, "targets": targets}
        bounds = [draw(_BOUNDS) for _ in range(draw(st.sampled_from([0, 1, 2, 2, 2])))]
        if draw(_mostly([True], False)):
            bounds.sort()
        param.update(zip(("lo", "hi"), bounds))
        params.append(param)
    doc["params"] = params
    if draw(st.booleans()):
        doc["objective"] = draw(_mostly(["x_bi", "md"], "nope"))
    return doc


_SEARCH_OPTIONS = {
    "--restarts": _mostly(["1", "3"], "0"),
    "--step": _mostly(["0.5", "2"], "1e400", "nan", "-1"),
    "--min-step": _mostly(["1e-3", "0.4"], "0", "nan"),
}
_SEEDS = st.sampled_from(["0", "7", str(2**64 - 1), "-1", str(2**64)])
_START_VALUES = _mostly(["0", "0.5", "-2"], "1e308", "nan", "1e400")


@settings(max_examples=150)
@example(doc=_one_param_doc(), seed="-1", budget="25", options={}, start=None, grid="2")
@example(
    doc=_one_param_doc(lo=-1e308, hi=1e308), seed="0", budget="25", options={}, start=None, grid="2"
)
@given(
    doc=_search_docs(),
    seed=_SEEDS,
    budget=_mostly(["1", "25"], "0"),
    options=st.fixed_dictionaries({}, optional=_SEARCH_OPTIONS),
    start=st.none() | st.lists(_START_VALUES, min_size=1, max_size=2),
    grid=_mostly(["2", "3"], "1"),
)
def test_cli_fuzz_generated_search_configs(
    tmp_path_factory, doc, seed, budget, options, start, grid
):
    """optimize, by pattern search and by grid scan, on generated configs:
    every run ends with a documented exit code, with no traceback and no
    warning, and a value refused as outside its range is one the user gave
    with --start."""
    path = tmp_path_factory.getbasetemp() / "search-fuzz.json"
    path.write_text(json.dumps(doc))
    search = ["optimize", "--config", str(path), f"--seed={seed}", f"--budget={budget}"]
    search += [f"{key}={value}" for key, value in options.items()]
    if start is not None:
        search.append("--start=" + ",".join(start))
    given_values = {str(float(v)) for v in start or ()}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv, user_values in (
            (search, given_values),
            (["optimize", "--config", str(path), "--grid", grid], set()),
        ):
            rc, err = _run_quietly(argv)
            assert rc in (EXIT_OK, EXIT_INPUT, EXIT_NUMERIC, EXIT_MISMATCH), (argv, err)
            assert "Traceback" not in err
            outside = re.search(r"value (\S+) for parameter", err)
            assert outside is None or outside.group(1) in user_values, (argv, err)
