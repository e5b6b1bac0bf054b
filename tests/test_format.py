"""The shared csv writer (one header line, then one line per row) and the
count check."""

import numpy as np
import pytest

from spinbell._format import check_counts, csv_table
from spinbell.errors import InvalidArgumentError


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
