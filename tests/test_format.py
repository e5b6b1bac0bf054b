"""The shared csv writer (one header line, then one line per row), and the
checks of counts, tolerances and spins."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spinbell
from spinbell._format import check_counts, check_spins, check_tol, csv_table, spin_index
from spinbell.bell import conditional_table
from spinbell.errors import InvalidArgumentError, InvalidConfigurationError
from spinbell.lattice import energy
from spinbell.model import build_model
from spinbell.presets import canonical_ladder
from spinbell.sampling import SampleRun, frequency_report


def test_csv_table_cells():
    # an int keeps every digit where fmt at precision 6 would print 1.23457e+06
    text = csv_table(("flag", "off", "n", "name", "x"), [(True, False, 1234567, "row-1", 0.1 + 0.2)], 6)
    assert text == "flag,off,n,name,x\ntrue,false,1234567,row-1,0.3"


def test_csv_table_full_precision_round_trips():
    x = 0.1 + 0.2
    header, row = csv_table(("n", "x"), [(3, x)], None).split("\n")
    assert header == "n,x"
    assert row == f"3,{x!r}"
    assert float(row.split(",")[1]) == x


def test_csv_table_header_only():
    assert csv_table(("a", "b"), []) == "a,b"


@pytest.mark.parametrize("value", [True, False, 2.0, "3", None])
def test_check_counts_refuses_what_is_not_a_count(value):
    with pytest.raises(InvalidArgumentError, match=f"^n must be an integer, got {value!r}$"):
        check_counts(n=value)


def test_check_counts_takes_python_and_numpy_integers():
    check_counts(a=3, b=np.int64(-2), c=np.uint8(7))


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-300, "0.1", None])
def test_check_tol_refuses_what_is_not_a_tolerance(tol):
    with pytest.raises(InvalidArgumentError, match=f"^tol must be a finite number >= 0, got {tol!r}$"):
        check_tol(tol)


def test_check_tol_takes_finite_nonnegative_numbers():
    check_tol(0.0)
    check_tol(1e-12)
    check_tol(np.float64(3.0))
    check_tol(2)


# -- a bool is a flag, not a spin ------------------------------------------------


@pytest.mark.parametrize("spin", [True, False, np.True_, np.False_])
def test_bool_spins_are_refused_by_name(spin):
    """True == 1 and np.True_ == 1, but neither is a spin: every entry point
    that reads a spin refuses them and names the value."""
    with pytest.raises(InvalidArgumentError, match=f"^spin value must be -1 or \\+1, got {spin!r}$"):
        spin_index(spin)
    with pytest.raises(InvalidArgumentError, match=f"got {spin!r}$"):
        check_spins(1, spin)
    model = build_model(canonical_ladder())
    ids = model.lattice.node_ids
    config = {nid: 1 for nid in ids} | {"a": spin}
    message = f"^node 'a' has spin {spin!r}; expected -1 or \\+1$"
    with pytest.raises(InvalidConfigurationError, match=message):
        model.encode(config)
    with pytest.raises(InvalidConfigurationError, match=message):
        energy(model.lattice, config)
    with pytest.raises(InvalidConfigurationError, match=f"^node '1' has spin {spin!r}"):
        frequency_report(model, SampleRun(seed=0, n=10), event={"1": spin})
    with pytest.raises(InvalidArgumentError, match=f"got {spin!r}$"):
        conditional_table(model).entry(1, 1, spin, 1)


def test_bool_spin_arrays_are_refused():
    check_spins(np.array([1, -1, 1]))
    for spins, first in ((np.array([True, True]), True), (np.array([False, True]), False)):
        with pytest.raises(InvalidArgumentError, match=f"^spin value must be -1 or \\+1, got {first}$"):
            check_spins(np.array([1, -1]), spins)


def test_lattice_still_loads_no_numpy():
    """The bool check looks numpy up, and does not import it."""
    env = dict(os.environ, PYTHONPATH=str(Path(spinbell.__file__).parents[1]))
    probe = "import sys\nimport spinbell.lattice\nprint('numpy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")
