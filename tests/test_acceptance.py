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
from ado.envelope import build_module, check_short_span_intersection, monomials_up_to
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
    SparseMatrix,
    Subspace,
    kernel,
    minimal_polynomial,
    squarefree_part,
    unit_vector,
)
from ado.pipeline import ado_representation, verify_representation

from helpers import (
    conjugated_jordan,
    oracle_low_ideal,
    oracle_straighten,
    package_low_ideal_in_oracle_coords,
    seeded_matrix,
    semisimple_from_eigenvalues,
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
    "abelian:1": "8bbd45e2d736af8c4d53b6680a77d686f1cf0a04469e4eb25b0d47277ef45790",
    "abelian:2": "2e51bb1cb0cb18b9896a5be25eab0ad1e774682a0aaef8aeb9f9435f9cde509c",
    "abelian:3": "d032b0a60974b9ec6966faeccb0b789fefedeeff32e66ee94e57972389a3cf07",
    "abelian:4": "ca91bd74462058c0b4c221884744ce272d8785e4bd17595c7d28bab7fd2e061c",
    "heisenberg": "19ebc7111586629949991416b2a6d4abe684ddb2333f3b01b6c08304374a2285",
    "heisenberg5": "ddcc3337e14a8c1e86a42fa5161b2cf12fca653ebbb0f06af1e9c01d4b749dec",
    "solv2": "634c587e89400795ac63aaf471bf24bafb197d478b56eb2ca943d8d3338b4efc",
    "jordan3": "d7fc285c88b835452775f19219b32c9fe14f0ac04f310d6272bdc246b0aa357b",
    "rot3": "184b18d5ea5bb0620ea573eea0ea3905d0f165c6df4775f5f3aa2e07a9287612",
    "sl2": "13836be6a31fa11d521faa8af6b39338f535212b44f22729420e4af0ab6b9d86",
    "gl2": "268dc30c7a6fa69c1d41cf53b31b82a838a7c477aaafdac5b689a575e1b28097",
    "t3": "2d674c80d9bad8e891d723ce00fc1db3488d6963d89c73bb50920863633fc775",
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
        assert result.dim_v == 15
        rho1, rho2 = (m.to_dense() for m in result.matrices)
        assert rho2.power(5).is_zero()
        assert not rho2.power(4).is_zero()
        # the split generator acts by the monomial weight, which runs 0..4
        # at truncation 4, so the squarefree part of its minimal polynomial
        # is t(t-1)(t-2)(t-3)(t-4)
        factors = [Polynomial((-w, 1)) for w in range(5)]
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
                _check_split(g.ad(unit_vector(g.dim, i)))
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
                d = g.ad(unit_vector(g.dim, i))
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


def test_truncation_ideal_against_word_oracle(capsys):
    with criterion(capsys, 7, "truncation ideal oracle"):
        g = catalog_algebra("heisenberg")
        expected_meet = {2: 3, 3: None, 5: 0}
        for order in (2, 3, 5):
            built = build_module(g, order)
            oracle = oracle_low_ideal(g, order)
            assert package_low_ideal_in_oracle_coords(built) == oracle

            # the generators survive into the quotient independently
            gens = []
            for i in range(3):
                mono = tuple(1 if j == i else 0 for j in range(3))
                coords = built.module.coordinates({mono: Q(1)})
                gens.append([coords.get(p, Q(0)) for p in range(built.module.dim)])
            assert Subspace.from_vectors(built.module.dim, gens).dim == 3

            # the reported short-product finding, recomputed oracle-side
            finding = check_short_span_intersection(built)
            low_monos = monomials_up_to(3, order)
            index = {mono: k for k, mono in enumerate(low_monos)}
            elements = [{(0, 0, 0): Q(1)}]
            for i in range(3):
                elements.append({tuple(1 if j == i else 0 for j in range(3)): Q(1)})
            for i in range(3):
                for j in range(3):
                    elements.append(oracle_straighten(g, (i, j)))
            rows = []
            for element in elements:
                vec = [Q(0)] * len(low_monos)
                for mono, coeff in element.items():
                    if sum(mono) <= order:
                        vec[index[mono]] = coeff
                rows.append(tuple(vec))
            span = Subspace.from_vectors(len(low_monos), rows)
            assert finding["span_dimension"] == span.dim
            assert finding["intersection_dimension"] == span.intersect(oracle).dim
            if expected_meet[order] is not None:
                assert finding["intersection_dimension"] == expected_meet[order]
        # the finding lands in the run summary exactly as computed
        result = ado_representation(g)
        reported = result.provenance["blocks"][0]["short_products"]
        assert reported == check_short_span_intersection(build_module(g, 5))


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
        adjoint = tuple(SparseMatrix.from_dense(g.ad(unit_vector(3, i))) for i in range(3))
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

        # spot checks on a two-block output: either block is load bearing
        source = tmp_path / "gl2.json"
        code = main(["compute", "--catalog", "gl2", "-o", str(source)])
        capsys.readouterr()
        assert code == 0
        for m_idx, r, c in ((0, 0, 1), (0, 5, 5), (1, 2, 3), (2, 7, 7)):
            exit_code = _tamper(capsys, source, tmp_path / "bad.json", m_idx, r, c)
            assert exit_code == 3, (m_idx, r, c)
