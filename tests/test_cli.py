"""Command line interface, exercised in process through main().

Covers every subcommand, both output formats, file output, precision
handling, and each exit code: 0 success, 2 bad input, 3 degenerate
numerics, 4 reference-case mismatch."""

import json
import re
import warnings

import pytest

from spinbell.cli import EXIT_INPUT, EXIT_MISMATCH, EXIT_NUMERIC, EXIT_OK, main
from spinbell.latticefile import save_lattice
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


# -- eval ---------------------------------------------------------------------------


def test_eval_all_text(capsys):
    assert main(["eval", "--builtin", "ladder"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "x_bi" in out
    assert "md = " in out
    assert "P(s1,s2|sa,sb):" in out


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


def test_optimize_missing_config(tmp_path, capsys):
    assert main(["optimize", "--config", str(tmp_path / "no.json")]) == EXIT_INPUT
    assert "cannot read" in capsys.readouterr().err


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
