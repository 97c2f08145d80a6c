"""End-to-end acceptance checklist, one printed verdict line per item.

Every test here goes through public entry points only: the command
line, the pipeline, and the oracles the other suites already trust.
Each prints "acceptance N (label): PASS" or "FAIL" past the capture so
a plain pytest run shows the checklist.
"""

import hashlib
import json
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction as Q
from functools import reduce

from ado.catalog import catalog_algebra
from ado.cli import main
from ado.envelope import build_module
from ado.expansion import (
    expansion_step,
    initial_presentation,
    presentation_defect,
    saturate,
    verify_presentation,
)
from ado.jordan import derivation_witness, jc_decompose, jc_decompose_derivation
from ado.linalg import (
    Matrix,
    Polynomial,
    Subspace,
    kernel,
    minimal_polynomial,
    squarefree_part,
    unit_vector,
)
from ado.pipeline import adapted_basis, ado_representation, verify_representation

from helpers import (
    dense_ad,
    conjugated_jordan,
    from_dense,
    heavy_insert_failures,
    module_disagreements,
    oracle_weights,
    seeded_change_of_basis,
    seeded_matrix,
    semisimple_from_eigenvalues,
    to_dense,
)

CATALOG_CASES = (
    "abelian:1",
    "abelian:2",
    "abelian:3",
    "abelian:4",
    "heisenberg",
    "heisenberg5",
    "solv2",
    "jordan3",
    "rot3",
    "sl2",
    "gl2",
    "t3",
)

# sha256 of the `ado compute --catalog NAME` stdout; representation files
# are byte-deterministic, so any change to these is a change of output
CATALOG_SHA256 = {
    "abelian:1": "91f390b354c6a88d3e02230ab72a6dce18aba4cdfa490750aad876387b07e156",
    "abelian:2": "85fe07709ce1ce98c07a6ff7b58feb0156f0be3afe5cda1348dd20b66a6f9dae",
    "abelian:3": "febdf029bfa27b363d63161c260316c963179b82e8d11666d1eb5e6448a8f0e2",
    "abelian:4": "edf5be99ba553abad82a3302acd968bb46599d94a133a517c1631bead240e717",
    "heisenberg": "13931f410cac823fe700fbe36a1cc056ac5352612cb8ff49d91eab01a82e00d1",
    "heisenberg5": "76c96697331b25a52099c0f04512b1a923760eff51866dcd32988dfe7a1c91e3",
    "solv2": "97edff4834d1e61a93ffa84ec75ffe8403c747998accc2a265645e158a57b094",
    "jordan3": "d41b0010d5eb7555c84cbe221389aa23efe6c0d004b9e1cc6abfd1da059e916d",
    "rot3": "1d723930a2281a0b5780790127853ea7fa933f5b22f90f11b285222329bc9976",
    "sl2": "13836be6a31fa11d521faa8af6b39338f535212b44f22729420e4af0ab6b9d86",
    "gl2": "a67ddb5a77d8c01c3a48378339ee56b6490ef8f8759a1fd9a8ae94906c3a0d4a",
    "t3": "43c014c3f30400d182b2487032823bc53109ccff4e53854ee2aea4129838db12",
}

# dim_v of each output: the weighted module is m + 1 dimensional on abelian:m
CATALOG_DIM_V = {
    "abelian:1": 2,
    "abelian:2": 3,
    "abelian:3": 4,
    "abelian:4": 5,
    "heisenberg": 7,
    "heisenberg5": 16,
    "solv2": 3,
    "jordan3": 7,
    "rot3": 4,
    "sl2": 4,
    "gl2": 6,
    "t3": 25,
}

# the catalog entries whose saturation takes at least one step
STEPPING_CASES = ("solv2", "jordan3", "rot3", "t3")


@contextmanager
def criterion(capsys, number, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"acceptance {number} ({label}): FAIL")
        raise
    with capsys.disabled():
        print(f"acceptance {number} ({label}): PASS")


def test_catalog_end_to_end(capsys, tmp_path):
    with criterion(capsys, 1, "catalog end to end"):
        total = 0.0
        for name in CATALOG_CASES:
            started = time.monotonic()
            code = main(["compute", "--catalog", name])
            elapsed = time.monotonic() - started
            out = capsys.readouterr().out
            assert code == 0, name
            assert json.loads(out)["dim_v"] == CATALOG_DIM_V[name], name
            verification = json.loads(out)["verification"]
            assert verification["residual_pairs"] == [], name
            assert verification["kernel_dimension"] == 0, name
            assert verification["verified"] is True, name
            digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
            assert digest == CATALOG_SHA256[name], name
            assert elapsed < 60.0, (name, elapsed)
            total += elapsed
            # the written file verifies again from its matrices alone
            path = tmp_path / "rep.json"
            path.write_text(out, encoding="utf-8")
            code = main(["verify", str(path)])
            assert code == 0, name
            assert json.loads(capsys.readouterr().out) == verification, name
        assert total < 600.0, total


def test_abelian_module_dimensions(capsys):
    with criterion(capsys, 2, "abelian module dimensions"):
        for m in (1, 2, 3):
            for order in (2, 3, 4):
                algebra = catalog_algebra(f"abelian:{m}")
                result = ado_representation(algebra, truncation=order)
                expected = math.comb(m + order, order)
                assert result.dim_v == expected, (m, order)
                block = result.provenance["blocks"][0]
                assert block["kind"] == "enveloping"
                assert block["dimension"] == expected, (m, order)


def test_solv2_golden_run(capsys):
    with criterion(capsys, 3, "solv2 golden run"):
        g = catalog_algebra("solv2")
        pres = saturate(g)
        assert len(pres.trace) == 2  # exactly one expansion step
        assert pres.algebra.dim == 3
        assert pres.reductive_part.dim == 1
        assert pres.nilpotent_part.dim == 2

        result = ado_representation(g)
        assert result.dim_v == 3
        rho1, rho2 = (to_dense(m) for m in result.matrices)
        assert rho2.power(2).is_zero()
        assert not rho2.is_zero()
        # the split generator acts by the monomial weight, which runs 0..1
        # at truncation 1, so the squarefree part of its minimal polynomial
        # is t(t-1)
        factors = [Polynomial((-w, 1)) for w in range(2)]
        expected = reduce(lambda a, b: a * b, factors)
        assert squarefree_part(minimal_polynomial(rho1)) == expected


def _check_split(d):
    dec = jc_decompose(d)
    assert dec.semisimple + dec.nilpotent == d
    assert dec.semisimple * dec.nilpotent == dec.nilpotent * dec.semisimple
    assert dec.nilpotent.power(d.nrows).is_zero()
    mp = minimal_polynomial(dec.semisimple)
    assert squarefree_part(mp) == mp
    assert dec.witness(d) == dec.semisimple
    return dec


def test_jordan_decomposition_suite(capsys):
    with criterion(capsys, 4, "jordan decomposition suite"):
        for name in CATALOG_CASES:
            g = catalog_algebra(name)
            for i in range(g.dim):
                _check_split(dense_ad(g, unit_vector(g.dim, i)))
        rng = random.Random(20260817)
        for trial in range(100):
            n = rng.randint(1, 6)
            if trial % 2:
                _check_split(seeded_matrix(rng, n, n, span=5))
            else:
                d, expected_s, eigenvalues = conjugated_jordan(rng, n)
                dec = _check_split(d)
                assert dec.semisimple == expected_s
                assert dec.semisimple == semisimple_from_eigenvalues(d, eigenvalues)


def _action_on_tail(algebra, row):
    # bracket of basis vector `row` against the tail basis, in tail coordinates
    dim = algebra.dim
    cols = [algebra.table[row][k][2:] for k in range(2, dim)]
    return Matrix.from_columns(cols, nrows=dim - 2)


def test_derivation_split_laws(capsys):
    with criterion(capsys, 5, "derivation split laws"):
        for name in CATALOG_CASES:
            g = catalog_algebra(name)
            for i in range(g.dim):
                d = dense_ad(g, unit_vector(g.dim, i))
                dec = jc_decompose_derivation(g, d)
                assert derivation_witness(g, dec.semisimple) is None
                assert derivation_witness(g, dec.nilpotent) is None
                ker = kernel(d)
                assert kernel(dec.semisimple).contains(ker)
                assert kernel(dec.nilpotent).contains(ker)
        # the splits the saturation itself performs, read off the extended
        # tables: the two new directions act on the absorbed hyperplane by
        # the semisimple and nilpotent parts
        for name in STEPPING_CASES:
            pres = initial_presentation(catalog_algebra(name))
            while presentation_defect(pres):
                pres = expansion_step(pres)
                dim = pres.algebra.dim
                tail = [unit_vector(dim, k) for k in range(2, dim)]
                inner, _ = pres.algebra.subalgebra_on_basis(tail)
                semi = _action_on_tail(pres.algebra, 0)
                nil = _action_on_tail(pres.algebra, 1)
                assert derivation_witness(inner, semi) is None
                assert derivation_witness(inner, nil) is None
                ker = kernel(semi + nil)
                assert kernel(semi).contains(ker)
                assert kernel(nil).contains(ker)


def test_expansion_invariants(capsys):
    with criterion(capsys, 6, "expansion invariants"):
        for name in STEPPING_CASES:
            g = catalog_algebra(name)
            pres = initial_presentation(g)
            verify_presentation(pres, g)
            steps = 0
            while presentation_defect(pres):
                before = presentation_defect(pres)
                previous = pres.algebra
                pres = expansion_step(pres)
                verify_presentation(pres, g)
                assert presentation_defect(pres) == before - 1
                record = pres.trace[-1]
                step = Matrix([[Q(entry) for entry in row] for row in record["embedding"]])
                for i in range(previous.dim):
                    for j in range(i + 1, previous.dim):
                        lhs = step.apply(previous.table[i][j])
                        rhs = pres.algebra.bracket(step.column(i), step.column(j))
                        assert lhs == rhs, (name, i, j)
                image = Subspace.from_vectors(
                    pres.algebra.dim,
                    [step.apply(v) for v in previous.derived_subalgebra().vectors()],
                )
                assert pres.algebra.derived_subalgebra() == image, name
                steps += 1
            if name == "t3":
                assert steps == 3
        assert len(saturate(catalog_algebra("t3")).trace) == 4


# the catalog entries with a nonzero nilpotent ideal after saturation
NILPOTENT_CASES = (
    "heisenberg",
    "heisenberg5",
    "solv2",
    "jordan3",
    "rot3",
    "gl2",
    "t3",
    "abelian:3",
)


def test_truncation_ideal_against_word_oracle(capsys):
    with criterion(capsys, 7, "truncation ideal oracle"):
        g = catalog_algebra("heisenberg")
        for order in (2, 3, 5):
            built = build_module(g, order)
            # dimension from the generating function, light basis, and
            # left actions equal to the oracle's with heavy terms dropped
            assert module_disagreements(built) == [], order

            # the generators survive into the quotient independently
            gens = []
            for i in range(3):
                mono = tuple(1 if j == i else 0 for j in range(3))
                coords = built.module.coordinates({mono: Q(1)})
                gens.append([coords.get(p, Q(0)) for p in range(built.module.dim)])
            assert Subspace.from_vectors(built.module.dim, gens).dim == 3

        # on the nilpotent ideals of the catalog in seeded random bases, a
        # letter times a heavy monomial is heavy: the dropped monomials
        # span a left ideal, so dropping them is a module map
        for name in NILPOTENT_CASES:
            rng = random.Random(f"heavy-ideal:{name}")
            pres = saturate(seeded_change_of_basis(rng, catalog_algebra(name)))
            basis = adapted_basis(pres.algebra, pres.nilpotent_part)
            nalg, _ = pres.algebra.subalgebra_on_basis(basis)
            built = build_module(nalg)
            assert module_disagreements(built) == [], name
            order = built.module.truncation
            failures = heavy_insert_failures(nalg, oracle_weights(nalg), order, order + 1)
            assert failures == [], name


def _tamper(capsys, source, tampered_path, m_idx, r, c):
    data = json.loads(source.read_text())
    data["matrices"][m_idx][r][c] = str(Q(data["matrices"][m_idx][r][c]) + 1)
    tampered_path.write_text(json.dumps(data))
    code = main(["verify", str(tampered_path)])
    capsys.readouterr()
    return code


def test_negative_controls(tmp_path, capsys):
    with criterion(capsys, 8, "negative controls"):
        # the adjoint map of a nilpotent algebra keeps its centre in the kernel
        g = catalog_algebra("heisenberg")
        adjoint = tuple(from_dense(dense_ad(g, unit_vector(3, i))) for i in range(3))
        report = verify_representation(g, adjoint, 3)
        assert report.homomorphism
        assert report.kernel_dimension == 1
        assert not report.faithful

        # tampering with any single entry of the sl2 output flips the verdict
        source = tmp_path / "sl2.json"
        code = main(["compute", "--catalog", "sl2", "-o", str(source)])
        capsys.readouterr()
        assert code == 0
        for m_idx in range(3):
            for r in range(4):
                for c in range(4):
                    exit_code = _tamper(capsys, source, tmp_path / "bad.json", m_idx, r, c)
                    assert exit_code == 3, (m_idx, r, c)

        # the same on a two-block output: either block is load bearing
        source = tmp_path / "gl2.json"
        code = main(["compute", "--catalog", "gl2", "-o", str(source)])
        capsys.readouterr()
        assert code == 0
        data = json.loads(source.read_text())
        dim_v = data["dim_v"]
        assert dim_v == 6
        # the coordinates that every sl2 image kills, as rows and columns:
        # a change of the central identity's image supported there commutes
        # with every image and keeps it nonzero, so it yields another
        # faithful representation, which verify must accept
        free = [
            i
            for i in range(dim_v)
            if all(m[i][k] == m[k][i] == "0" for m in data["matrices"][:3] for k in range(dim_v))
        ]
        assert free == [0, 1, 5]
        for m_idx in range(4):
            for r in range(dim_v):
                for c in range(dim_v):
                    expected = 0 if m_idx == 3 and r in free and c in free else 3
                    exit_code = _tamper(capsys, source, tmp_path / "bad.json", m_idx, r, c)
                    assert exit_code == expected, (m_idx, r, c)
