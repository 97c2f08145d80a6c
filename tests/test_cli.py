import json

import pytest

from ado import expansion, lie, pipeline
from ado.cli import main


FILIFORM_FILE = {
    "name": "filiform4",
    "dim": 4,
    "basis": ["x", "a", "b", "c"],
    "brackets": {"0,1": [[2, "1"]], "0,2": [[3, "1"]]},
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_catalog_to_stdout(capsys):
    code, out, err = run(capsys, "compute", "--catalog", "solv2")
    assert code == 0
    data = json.loads(out)
    assert data["dim_v"] == 3
    assert data["algebra"]["name"] == "solv2"
    assert data["verification"]["verified"] is True
    assert all(
        isinstance(entry, str)
        for matrix in data["matrices"]
        for row in matrix
        for entry in row
    )
    assert "verdict: verified faithful" in err
    assert "enveloping block: dimension 3 (truncation 1, weights 1 1)" in err


def test_compute_is_deterministic(capsys):
    _, first, _ = run(capsys, "compute", "--catalog", "gl2")
    _, second, _ = run(capsys, "compute", "--catalog", "gl2")
    assert first == second


@pytest.mark.parametrize("name", ["gl2", "abelian:0"])
def test_compute_to_file_then_verify(capsys, tmp_path, name):
    target = tmp_path / "rep.json"
    code, out, err = run(
        capsys, "compute", "--catalog", name, "-o", str(target)
    )
    assert code == 0
    assert err == ""
    assert "verdict: verified faithful" in out
    stated = json.loads(target.read_text(encoding="utf-8"))["verification"]
    code, out, err = run(capsys, "verify", str(target))
    assert code == 0
    recomputed = json.loads(out)
    assert recomputed["verified"] is True
    assert recomputed == stated
    assert f"verdict: verified ({name})" in err


def test_verify_rejects_tampering(capsys, tmp_path):
    target = tmp_path / "rep.json"
    run(capsys, "compute", "--catalog", "sl2", "-o", str(target))
    data = json.loads(target.read_text(encoding="utf-8"))
    data["matrices"][0][0][1] = "7/2"
    target.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run(capsys, "verify", str(target))
    assert code == 3
    recomputed = json.loads(out)
    assert recomputed["verified"] is False
    assert recomputed["residual_pairs"] != []
    assert "disagrees with the recomputation" in err
    assert "verification FAILED" in err


def test_compute_from_algebra_file(capsys, tmp_path):
    source = tmp_path / "heis.json"
    code, out, _ = run(capsys, "catalog", "show", "heisenberg")
    assert code == 0
    source.write_text(out, encoding="utf-8")
    code, out, err = run(capsys, "compute", str(source))
    assert code == 0
    assert json.loads(out)["dim_v"] == 7


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    names = out.splitlines()
    assert "heisenberg" in names
    assert "abelian:N" in names
    assert "n3" in names


def test_trace_flag_prints_saturation(capsys):
    code, out, _ = run(capsys, "compute", "--catalog", "t3", "--truncation", "3")
    assert code == 0
    data = json.loads(out)
    assert data["verification"]["verified"] is True
    assert data["provenance"]["blocks"][0]["truncation"] == 3
    code, _, err = run(
        capsys, "compute", "--catalog", "solv2", "--trace"
    )
    assert "saturation: levi 0, radical 2, nilpotent seed 1" in err
    assert "step: generator (1, 0)" in err


def test_truncation_below_the_floor_exits_one(capsys, tmp_path):
    source = tmp_path / "filiform.json"
    source.write_text(json.dumps(FILIFORM_FILE), encoding="utf-8")
    code, out, err = run(
        capsys, "compute", str(source), "--truncation", "2"
    )
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert (error["stage"], error["kind"]) == ("module", "InputError")
    assert error["detail"] == {"minimum": 3, "truncation": 2}
    with pytest.raises(SystemExit) as info:
        main(["compute", str(source), "--no-retry"])
    assert info.value.code == 1


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["compute"], "exactly one"),
        (["compute", "x.json", "--catalog", "sl2"], "exactly one"),
        (["compute", "--catalog", "nope"], "unknown catalog name"),
        (["compute", "--catalog", "sl2", "--truncation", "0"], "at least 1"),
        (["compute", "/nonexistent/path.json"], "cannot read"),
        (["verify", "/nonexistent/path.json"], "cannot read"),
        (["catalog", "show", "nope"], "unknown catalog name"),
        (["compute", "--catalog", "t3", "--truncation", "1"], "largest generator weight"),
    ],
)
def test_input_errors_exit_one(capsys, argv, fragment):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert fragment in json.loads(err)["error"]["message"]


def test_invalid_algebra_file_exits_one(capsys, tmp_path):
    source = tmp_path / "bad.json"
    source.write_text(
        json.dumps({"dim": 3, "brackets": {"0,1": [[2, "1"]], "1,2": [[1, "1"]]}}),
        encoding="utf-8",
    )
    code, _, err = run(capsys, "compute", str(source))
    assert code == 1
    assert json.loads(err)["error"]["kind"] == "InputError"


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        main(["compute", "--bogus"])
    assert info.value.code == 1
    err = capsys.readouterr().err
    assert json.loads(err.splitlines()[-1])["error"]["kind"] == "InputError"


def test_error_objects_are_single_json_lines(capsys):
    code, _, err = run(capsys, "compute", "--catalog", "nope")
    assert code == 1
    lines = err.splitlines()
    assert len(lines) == 1
    parsed = json.loads(lines[0])
    assert parsed["error"]["detail"]["available"][0] == "abelian:N"


@pytest.mark.parametrize(
    "module, stage",
    [(pipeline, "pipeline"), (expansion, "expand"), (lie, "subalgebra")],
)
def test_unsolvable_system_is_a_tripwire_naming_its_stage(capsys, monkeypatch, module, stage):
    # a solve that should always succeed fails: a structured exit 2, not a TypeError
    monkeypatch.setattr(module, "solve", lambda a, b: None)
    code, out, err = run(capsys, "compute", "--catalog", "solv2")
    assert code == 2
    assert out == ""
    error = json.loads(err.splitlines()[-1])["error"]
    assert (error["stage"], error["kind"]) == (stage, "TripwireError")
