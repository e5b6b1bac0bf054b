"""The shared csv writer: one header line, then one line per row."""

from spinbell._format import csv_table


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
