import json
import random

import pytest

from ado import cli, expansion, lie, pipeline
from ado.catalog import catalog_algebra
from ado.cli import main
from ado.decompose import LeviData
from ado.formats import algebra_to_json, canonical_dumps
from ado.jordan import JCDecomposition
from ado.lie import LieAlgebra
from ado.linalg import QONE, Matrix, Polynomial, SparseSpan, Subspace

from helpers import seeded_change_of_basis, sl2_plus_solv2



def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_catalog_to_stdout(capsys):
    code, out, err = run(capsys, "compute", "--catalog", "solv2")
    assert code == 0
    data = json.loads(out)
    assert data["dim_v"] == 2
    assert data["algebra"]["name"] == "solv2"
    assert data["verification"]["verified"] is True
    assert all(
        isinstance(entry, str)
        for matrix in data["matrices"]
        for row in matrix
        for entry in row
    )
    assert "verdict: verified faithful" in err
    assert "enveloping block: dimension 2 (truncation 1, weights 1)" in err


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
    assert json.loads(out)["dim_v"] == 4
    assert json.loads(out)["provenance"]["blocks"][0]["ambient_monomials"] == 7


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    names = out.splitlines()
    assert "heisenberg" in names
    assert "abelian:N" in names
    assert "n3" in names


def test_trace_flag_prints_saturation(capsys, tmp_path):
    code, out, _ = run(capsys, "compute", "--catalog", "t3")
    assert code == 0
    data = json.loads(out)
    assert data["verification"]["verified"] is True
    assert data["provenance"]["blocks"][0]["truncation"] == 2
    # solv2's scaling is semisimple and absorbs; jordan3's shear extends
    code, _, err = run(capsys, "compute", "--catalog", "solv2", "--trace")
    assert code == 0
    assert "saturation: levi 0, radical 2, nilpotent seed 1" in err
    assert "  absorb: generator (1, 0), joins reductive\n" in err
    assert "step:" not in err
    code, _, err = run(capsys, "compute", "--catalog", "jordan3", "--trace")
    assert code == 0
    assert "  step: generator (1, 0, 0), witness (1), dimensions 4/1/3\n" in err
    assert "absorb:" not in err
    # an inner correction is printed after its generator
    g = seeded_change_of_basis(random.Random(9), catalog_algebra("t3"))
    path = tmp_path / "t3.json"
    path.write_text(canonical_dumps(algebra_to_json("t3", tuple(f"e{i}" for i in range(6)), g)))
    code, _, err = run(capsys, "compute", str(path), "--trace")
    assert code == 0
    absorbs = [line for line in err.splitlines() if line.startswith("  absorb: ")]
    assert len(absorbs) == 3
    assert " less (" in absorbs[0] and absorbs[0].endswith("), joins reductive")


def test_removed_options_exit_one(capsys):
    # the module is built at its one truncation and never retried, so
    # --truncation and --no-retry are usage errors, reported as InputError
    for option in (["--truncation", "3"], ["--no-retry"]):
        with pytest.raises(SystemExit) as info:
            main(["compute", "--catalog", "t3", *option])
        assert info.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        errors = [json.loads(line)["error"] for line in err.splitlines() if line.startswith("{")]
        assert len(errors) == 1
        assert (errors[0]["stage"], errors[0]["kind"]) == ("cli", "InputError")
        assert option[0] in errors[0]["message"]


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["compute"], "exactly one"),
        (["compute", "x.json", "--catalog", "sl2"], "exactly one"),
        (["compute", "--catalog", "nope"], "unknown catalog name"),
        (["catalog", "show", "nope"], "unknown catalog name"),
        (["compute", "/nonexistent/path.json"], "cannot read"),
        (["verify", "/nonexistent/path.json"], "cannot read"),
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


@pytest.mark.parametrize(
    "argv", [["compute", "--catalog", "t3", "--bogus"], ["verify", "--bogus", "x"]]
)
def test_unknown_options_print_their_command_usage(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 1
    out, err = capsys.readouterr()
    assert out == ""
    usage, error_line = err.splitlines()
    assert usage.startswith(f"usage: ado {argv[0]} [-h]")
    error = json.loads(error_line)["error"]
    assert (error["stage"], error["kind"]) == ("cli", "InputError")
    assert error["message"] == "unrecognized arguments: --bogus"


def test_main_builds_one_parser_that_survives_a_usage_error(capsys):
    cli.build_parser.cache_clear()
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    with pytest.raises(SystemExit) as info:
        main(["compute", "--bogus"])
    assert info.value.code == 1
    usage, error_line = capsys.readouterr().err.splitlines()
    assert usage.startswith("usage: ado")
    error = json.loads(error_line)["error"]
    assert (error["stage"], error["kind"]) == ("cli", "InputError")
    assert "--bogus" in error["message"]
    # the same parser still parses a valid call after the error
    assert run(capsys, "catalog", "list")[1] == out
    assert cli.build_parser.cache_info().misses == 1


def test_error_objects_are_single_json_lines(capsys):
    code, _, err = run(capsys, "compute", "--catalog", "nope")
    assert code == 1
    lines = err.splitlines()
    assert len(lines) == 1
    parsed = json.loads(lines[0])
    assert parsed["error"]["detail"]["available"][0] == "abelian:N"


def no_coordinates(basis, vectors):
    return [None for _ in vectors]


def dependent_basis(basis, vectors):
    raise ValueError("basis is linearly dependent")


def identity_split(d):
    # S = I and N = d - I still sum to d, but I is not a derivation
    one = Matrix.identity(d.nrows)
    return JCDecomposition(semisimple=one, nilpotent=d - one, witness=Polynomial((1,)))


def escaping_derivations(self, basis, acting, original=LieAlgebra.subalgebra_and_derivations):
    sub, inclusion, derivations = original(self, basis, acting)
    return sub, inclusion, [None for _ in derivations]


@pytest.mark.parametrize(
    "owner, attr, replacement, stage, message, name",
    [
        # the derivation matrices come out of the elimination that builds n's algebra
        pytest.param(
            LieAlgebra, "subalgebra_and_derivations", escaping_derivations,
            "pipeline", "derivation escapes the nilpotent part", "solv2",
            id="ado.pipeline-pipeline",
        ),
        pytest.param(
            pipeline, "coordinates_in", no_coordinates,
            "pipeline", "basis vector outside derived + centre", "sl2",
            id="ado.pipeline-pipeline-reductive",
        ),
        pytest.param(
            pipeline, "coordinates_in", no_coordinates,
            "pipeline", "basis vector outside the split", "heisenberg",
            id="ado.pipeline-pipeline-assembly",
        ),
        pytest.param(
            expansion, "coordinates_in", no_coordinates,
            "expand", "basis vector outside x + hyperplane", "jordan3",
            id="ado.expansion-expand",
        ),
        # a ValueError from a change of basis or a Jordan split is a
        # structured exit 2 of its stage, not a traceback
        pytest.param(
            expansion, "coordinates_in", dependent_basis,
            "expand", "basis is linearly dependent", "jordan3",
            id="ado.expansion-expand-dependent",
        ),
        # a split into parts that are not derivations of the hyperplane
        # breaks the Jacobi identity of the extension
        pytest.param(
            expansion, "jc_decompose", identity_split,
            "expand", "extension table failed validation: Jacobi identity fails", "t3",
            id="ado.jordan-expand",
        ),
        pytest.param(
            pipeline, "coordinates_in", dependent_basis,
            "pipeline", "basis is linearly dependent", "heisenberg",
            id="ado.pipeline-pipeline-assembly-dependent",
        ),
        # the algebra on a span checked to be closed finds no structure
        # constants: jordan3's first such algebra is n's, built in the
        # pipeline on the extended algebra
        pytest.param(
            lie, "coordinates_in", no_coordinates,
            "pipeline", "span is not closed under the bracket", "jordan3",
            id="ado.lie-pipeline",
        ),
        # the Levi recursion over a nonabelian radical builds the preimage
        # of the quotient's complement
        pytest.param(
            lie, "coordinates_in", no_coordinates,
            "levi", "span is not closed under the bracket", sl2_plus_solv2(),
            id="ado.lie-levi",
        ),
        pytest.param(
            lie, "coordinates_in", no_coordinates,
            "split", "span is not closed under the bracket", "gl2",
            id="ado.lie-split",
        ),
    ],
)
def test_unsolvable_system_is_a_tripwire_naming_its_stage(
    capsys, monkeypatch, tmp_path, owner, attr, replacement, stage, message, name
):
    # a change of basis that should always succeed finds no coordinates, or
    # a derivation leaves n: a structured exit 2, not a TypeError
    source = ["--catalog", name]
    if isinstance(name, LieAlgebra):
        path = tmp_path / "algebra.json"
        labels = tuple(f"e{i}" for i in range(name.dim))
        path.write_text(canonical_dumps(algebra_to_json("input", labels, name)))
        source = [str(path)]
    monkeypatch.setattr(owner, attr, replacement)
    code, out, err = run(capsys, "compute", *source)
    assert code == 2
    assert out == ""
    error = json.loads(err.splitlines()[-1])["error"]
    assert (error["stage"], error["kind"], error["message"]) == (stage, "TripwireError", message)


def full_seed(g, data):
    return g.full_space()


def first_vector_seed(g, data):
    return Subspace(g.dim, SparseSpan([{0: QONE}]))


def zero_seed(g, data):
    return Subspace.zero(g.dim)


def shifted_levi(g, original=expansion.levi_decomposition):
    # each complement vector plus one radical vector: still a complement,
    # no longer a subalgebra
    data = original(g)
    shift = next(iter(data.radical.span.rows.values()))
    shifted = []
    for v in data.levi.span.rows.values():
        row = dict(v)
        for k, c in shift.items():
            row[k] = row.get(k, 0) + c
        shifted.append(row)
    return LeviData(data.radical, Subspace(g.dim, SparseSpan(shifted)))


@pytest.mark.parametrize(
    "attr, replacement, name, message",
    [
        pytest.param(
            "nilpotent_seed", full_seed, "t3", "nilpotent part is not nilpotent",
            id="t3-full-seed",
        ),
        pytest.param(
            "nilpotent_seed", first_vector_seed, "heisenberg", "nilpotent part is not an ideal",
            id="heisenberg-e0-seed",
        ),
        pytest.param(
            "nilpotent_seed", zero_seed, "t3", "derived subalgebra escapes the absorbed part",
            id="t3-zero-seed",
        ),
        pytest.param(
            "levi_decomposition", shifted_levi, "gl2", "reductive part is not a subalgebra",
            id="gl2-shifted-levi",
        ),
    ],
)
def test_a_faulty_initial_presentation_trips_its_verification(
    capsys, monkeypatch, attr, replacement, name, message
):
    # decompose does not re-check its seed and complement; saturate's
    # verification of the initial presentation catches each fault
    monkeypatch.setattr(expansion, attr, replacement)
    code, out, err = run(capsys, "compute", "--catalog", name)
    assert code == 2
    assert out == ""
    error = json.loads(err.splitlines()[-1])["error"]
    assert (error["stage"], error["kind"], error["message"]) == (
        "presentation", "TripwireError", message
    )
