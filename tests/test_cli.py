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
    assert data["dim_v"] == 15
    assert data["algebra"]["name"] == "solv2"
    assert data["verification"]["verified"] is True
    assert all(
        isinstance(entry, str)
        for matrix in data["matrices"]
        for row in matrix
        for entry in row
    )
    assert "verdict: verified faithful" in err
    assert "enveloping block: dimension 15" in err


def test_compute_is_deterministic(capsys):
    _, first, _ = run(capsys, "compute", "--catalog", "gl2")
    _, second, _ = run(capsys, "compute", "--catalog", "gl2")
    assert first == second


def test_compute_to_file_then_verify(capsys, tmp_path):
    target = tmp_path / "rep.json"
    code, out, err = run(
        capsys, "compute", "--catalog", "gl2", "-o", str(target)
    )
    assert code == 0
    assert err == ""
    assert "verdict: verified faithful" in out
    code, out, err = run(capsys, "verify", str(target))
    assert code == 0
    assert json.loads(out)["verified"] is True
    assert "verdict: verified (gl2)" in err


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
    assert json.loads(out)["dim_v"] == 34


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    names = out.splitlines()
    assert "heisenberg" in names
    assert "abelian:N" in names
    assert "n3" in names


def test_trace_flag_prints_saturation(capsys):
    code, _, err = run(capsys, "compute", "--catalog", "t3", "--truncation", "2")
    assert code == 0
    assert "warning: truncation 2 is below the default 5" in err
    code, _, err = run(
        capsys, "compute", "--catalog", "solv2", "--trace"
    )
    assert "saturation: levi 0, radical 2, nilpotent seed 1" in err
    assert "step: generator (1, 0)" in err


def test_retry_note_and_no_retry_failure(capsys, tmp_path):
    source = tmp_path / "filiform.json"
    source.write_text(json.dumps(FILIFORM_FILE), encoding="utf-8")
    code, out, err = run(
        capsys, "compute", str(source), "--truncation", "2"
    )
    assert code == 0
    assert "retried one order deeper" in err
    assert json.loads(out)["provenance"]["retried"] is True
    code, out, err = run(
        capsys, "compute", str(source), "--truncation", "2", "--no-retry"
    )
    assert code == 3
    assert out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "FaithfulnessError"


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["compute"], "exactly one"),
        (["compute", "x.json", "--catalog", "sl2"], "exactly one"),
        (["compute", "--catalog", "nope"], "unknown catalog name"),
        (["compute", "--catalog", "sl2", "--truncation", "1"], "at least 2"),
        (["compute", "/nonexistent/path.json"], "cannot read"),
        (["verify", "/nonexistent/path.json"], "cannot read"),
        (["catalog", "show", "nope"], "unknown catalog name"),
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
