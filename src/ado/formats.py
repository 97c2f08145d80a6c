"""Reading and writing the JSON exchange files.

An algebra file gives structure constants sparsely: a "brackets" object
maps a pair key "i,j" with i < j to a list of [index, coefficient]
entries; antisymmetry fills in the rest.  A representation file echoes
the algebra and adds the matrices, the verification block and the
provenance.  Every rational number in either file is a string "num/den"
(plain "num" when the denominator is one); integers are also accepted
on input, floats never are, so round trips are exact.
"""

from __future__ import annotations

import json
import re

from .errors import InputError
from .lie import LieAlgebra
from .linalg import QZERO, Matrix, Q

_RATIONAL = re.compile(r"-?\d+(?:/[1-9]\d*)?$")
_PAIR_KEY = re.compile(r"(\d+),(\d+)$")


def format_rational(value: Q) -> str:
    return str(value)


def parse_rational(raw: object, where: str) -> Q:
    if isinstance(raw, bool) or not isinstance(raw, (int, str)):
        raise InputError(
            "file",
            f"{where}: rationals must be integers or 'num/den' strings",
            value=repr(raw),
        )
    if isinstance(raw, str) and not _RATIONAL.match(raw):
        raise InputError(
            "file", f"{where}: malformed rational", value=raw
        )
    return Q(raw)


def _require(condition: bool, message: str, **payload) -> None:
    if not condition:
        raise InputError("file", message, **payload)


def algebra_to_json(
    name: str, labels: tuple[str, ...], algebra: LieAlgebra
) -> dict:
    brackets = {}
    for i in range(algebra.dim):
        for j in range(i + 1, algebra.dim):
            entries = [
                [k, format_rational(c)]
                for k, c in enumerate(algebra.table[i][j])
                if c
            ]
            if entries:
                brackets[f"{i},{j}"] = entries
    return {
        "name": name,
        "dim": algebra.dim,
        "basis": list(labels),
        "brackets": brackets,
    }


def algebra_from_json(data: object) -> tuple[str, tuple[str, ...], LieAlgebra]:
    _require(isinstance(data, dict), "algebra file must be a JSON object")
    dim = data.get("dim")
    _require(
        isinstance(dim, int) and not isinstance(dim, bool) and dim >= 0,
        "'dim' must be a nonnegative integer",
    )
    name = data.get("name", "algebra")
    _require(isinstance(name, str) and name != "", "'name' must be a nonempty string")
    labels = data.get("basis", [f"e{i + 1}" for i in range(dim)])
    _require(
        isinstance(labels, list) and all(isinstance(s, str) for s in labels),
        "'basis' must be a list of strings",
    )
    _require(len(labels) == dim, "'basis' must list one label per dimension", dim=dim)
    raw_brackets = data.get("brackets", {})
    _require(isinstance(raw_brackets, dict), "'brackets' must be an object")
    sparse: dict[tuple[int, int], dict[int, Q]] = {}
    for key, entries in raw_brackets.items():
        match = _PAIR_KEY.match(key)
        _require(match is not None, "bracket keys must look like 'i,j'", key=key)
        i, j = int(match.group(1)), int(match.group(2))
        _require(
            0 <= i < j < dim,
            "bracket keys must satisfy 0 <= i < j < dim",
            key=key,
            dim=dim,
        )
        _require(isinstance(entries, list), "bracket entries must be a list", key=key)
        components: dict[int, Q] = {}
        for entry in entries:
            _require(
                isinstance(entry, list) and len(entry) == 2,
                "each bracket entry must be an [index, coefficient] pair",
                key=key,
            )
            k, raw = entry
            _require(
                isinstance(k, int) and not isinstance(k, bool) and 0 <= k < dim,
                "bracket component index out of range",
                key=key,
                index=k,
            )
            _require(k not in components, "duplicate bracket component", key=key, index=k)
            value = parse_rational(raw, f"brackets[{key}]")
            if value:
                components[k] = value
        if components:
            sparse[(i, j)] = components
    return name, tuple(labels), LieAlgebra.from_sparse(dim, sparse)


def matrix_to_json(m: Matrix) -> list:
    return [[format_rational(x) for x in row] for row in m.rows]


def matrix_from_json(data: object, where: str, size: int) -> Matrix:
    _require(isinstance(data, list) and len(data) == size, f"{where}: expected {size} rows")
    rows = []
    for r, raw_row in enumerate(data):
        _require(
            isinstance(raw_row, list) and len(raw_row) == size,
            f"{where}: row {r} must have {size} entries",
        )
        label = f"{where}[{r}]"
        rows.append([QZERO if x == "0" else parse_rational(x, label) for x in raw_row])
    return Matrix(rows, ncols=size)


def representation_to_json(
    name: str, labels: tuple[str, ...], result
) -> dict:
    return {
        "algebra": algebra_to_json(name, labels, result.algebra),
        "dim_v": result.dim_v,
        "matrices": [matrix_to_json(m) for m in result.matrices],
        "verification": result.verification.to_json(),
        "provenance": result.provenance,
    }


def representation_from_json(data: object) -> dict:
    _require(isinstance(data, dict), "representation file must be a JSON object")
    _require("algebra" in data, "missing 'algebra' block")
    name, labels, algebra = algebra_from_json(data["algebra"])
    dim_v = data.get("dim_v")
    _require(
        isinstance(dim_v, int) and not isinstance(dim_v, bool) and dim_v >= 1,
        "'dim_v' must be a positive integer",
    )
    raw_matrices = data.get("matrices")
    _require(isinstance(raw_matrices, list), "'matrices' must be a list")
    _require(
        len(raw_matrices) == algebra.dim,
        "one matrix per basis element is required",
        expected=algebra.dim,
        got=len(raw_matrices) if isinstance(raw_matrices, list) else None,
    )
    matrices = tuple(
        matrix_from_json(raw, f"matrices[{i}]", dim_v)
        for i, raw in enumerate(raw_matrices)
    )
    return {
        "name": name,
        "labels": labels,
        "algebra": algebra,
        "dim_v": dim_v,
        "matrices": matrices,
        "verification": data.get("verification"),
        "provenance": data.get("provenance"),
    }


def canonical_dumps(data: object) -> str:
    """One fixed rendering per value, so reruns compare byte for byte."""
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


def load_json(path: str) -> object:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputError("file", "cannot read file", path=path, reason=str(exc)) from None
    except json.JSONDecodeError as exc:
        raise InputError(
            "file", "file is not valid JSON", path=path, reason=str(exc)
        ) from None
