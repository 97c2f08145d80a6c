import json

import pytest
from hypothesis import given

from ado.catalog import catalog_algebra, catalog_entry
from ado.errors import InputError
from ado.formats import (
    algebra_from_json,
    algebra_to_json,
    canonical_dumps,
    format_rational,
    load_json,
    matrix_from_json,
    parse_rational,
    representation_from_json,
    representation_to_json,
)
from ado.linalg import Q
from ado.pipeline import ado_representation

from helpers import rationals, to_dense


@given(rationals())
def test_rational_strings_round_trip(value):
    assert parse_rational(format_rational(value), "x") == value


def test_parse_rational_accepts_integers_and_fractions():
    assert parse_rational(7, "x") == 7
    assert parse_rational("-5", "x") == -5
    assert parse_rational("3/2", "x") == Q(3, 2)


@pytest.mark.parametrize(
    "raw", [1.5, True, None, "3/0", "1/-2", "a", "1.5", "", "1\n", "\u0661", "\u0663/1"]
)
def test_parse_rational_rejects_junk(raw):
    with pytest.raises(InputError):
        parse_rational(raw, "x")


@pytest.mark.parametrize(
    "name", ["heisenberg", "solv2", "sl2", "gl2", "t3", "abelian:0", "abelian:3"]
)
def test_algebra_files_round_trip(name):
    description, labels, algebra = catalog_entry(name)
    data = algebra_to_json(name, labels, algebra)
    back_name, back_labels, back = algebra_from_json(data)
    assert back_name == name
    assert back_labels == labels
    assert back == algebra
    # canonical text parses back to the same object
    assert algebra_from_json(json.loads(canonical_dumps(data)))[2] == algebra


def test_rational_coefficients_and_antisymmetry():
    data = {"dim": 2, "brackets": {"0,1": [[1, "1/2"]]}}
    name, labels, algebra = algebra_from_json(data)
    assert name == "algebra"
    assert labels == ("e1", "e2")
    assert algebra.table[0][1] == (0, Q(1, 2))
    assert algebra.table[1][0] == (0, Q(-1, 2))


def test_zero_coefficients_are_dropped():
    data = {"dim": 2, "brackets": {"0,1": [[1, "0"]]}}
    assert algebra_from_json(data)[2] == catalog_algebra("abelian:2")


@pytest.mark.parametrize(
    "data, hint",
    [
        ([], "JSON object"),
        ({}, "'dim'"),
        ({"dim": 2.0}, "'dim'"),
        ({"dim": True}, "'dim'"),
        ({"dim": 2, "name": ""}, "'name'"),
        ({"dim": 2, "basis": ["x"]}, "one label per dimension"),
        ({"dim": 2, "basis": "xy"}, "list of strings"),
        ({"dim": 2, "brackets": []}, "object"),
        ({"dim": 2, "brackets": {"1,0": []}}, "0 <= i < j < dim"),
        ({"dim": 2, "brackets": {"1,1": []}}, "0 <= i < j < dim"),
        ({"dim": 2, "brackets": {"0;1": []}}, "look like"),
        ({"dim": 2, "brackets": {"0,1": [[2, "1"]]}}, "out of range"),
        ({"dim": 2, "brackets": {"0,1": [[1, "1"], [1, "2"]]}}, "duplicate"),
        ({"dim": 2, "brackets": {"0,1": [[1, 0.5]]}}, "rationals"),
        ({"dim": 2, "brackets": {"0,1": [[1]]}}, "pair"),
        ({"dim": 2, "brackets": {"0,1\n": []}}, "look like"),
        ({"dim": 2, "brackets": {"\u0660,\u0661": []}}, "look like"),
    ],
)
def test_algebra_file_validation(data, hint):
    with pytest.raises(InputError, match=hint):
        algebra_from_json(data)


def test_algebra_file_axiom_violations_are_input_errors():
    data = {
        "dim": 3,
        "brackets": {"0,1": [[2, "1"]], "1,2": [[1, "1"]]},
    }
    with pytest.raises(InputError):
        algebra_from_json(data)


def test_representation_files_round_trip():
    _, labels, algebra = catalog_entry("gl2")
    result = ado_representation(algebra)
    data = representation_to_json("gl2", labels, result)
    parsed = representation_from_json(json.loads(canonical_dumps(data)))
    assert parsed["name"] == "gl2"
    assert parsed["labels"] == labels
    assert parsed["algebra"] == algebra
    assert parsed["dim_v"] == result.dim_v
    assert [(m.nrows, m.ncols, m.cols) for m in parsed["matrices"]] == [
        (m.nrows, m.ncols, m.cols) for m in result.matrices
    ]
    assert parsed["verification"] == result.verification.to_json()
    assert parsed["provenance"] == result.provenance


@pytest.mark.parametrize(
    "mutate, hint",
    [
        (lambda d: d.pop("algebra"), "missing 'algebra'"),
        (lambda d: d.update(dim_v=0), "'dim_v'"),
        (lambda d: d["matrices"].pop(), "one matrix per basis element"),
        (lambda d: d["matrices"][0].pop(), "rows"),
        (lambda d: d["matrices"][0][0].pop(), "entries"),
        (lambda d: d["matrices"][0][0].__setitem__(0, "x"), "malformed"),
    ],
)
def test_representation_file_validation(mutate, hint):
    _, labels, algebra = catalog_entry("sl2")
    data = representation_to_json("sl2", labels, ado_representation(algebra))
    mutate(data)
    with pytest.raises(InputError, match=hint):
        representation_from_json(data)


def test_canonical_dumps_is_order_insensitive():
    a = canonical_dumps({"b": 1, "a": [1, 2]})
    b = canonical_dumps({"a": [1, 2], "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert ": " not in a


def test_load_json_reports_unreadable_files(tmp_path):
    with pytest.raises(InputError, match="cannot read"):
        load_json(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    with pytest.raises(InputError, match="not valid JSON"):
        load_json(str(bad))


def test_matrix_zero_entries_share_one_value():
    m = matrix_from_json([["0", "1/2"], [0, "-3"]], "m", 2)
    assert to_dense(m).rows == ((0, Q(1, 2)), (0, -3))
    # no zero is stored, whatever spelling it had in the file
    assert m.cols == ({}, {0: Q(1, 2), 1: -3})
    assert matrix_from_json([["0/1", "-0"], [0, "0"]], "m", 2).cols == ({}, {})
    # everything but the exact string "0" is still parsed and validated
    for bad in ("00x", "0.0", 0.0, None, True):
        with pytest.raises(InputError, match=r"m\[1\]"):
            matrix_from_json([["0", "0"], ["0", bad]], "m", 2)
