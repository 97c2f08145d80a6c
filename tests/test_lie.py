"""Lie algebra core: validation, series, centers, subquotients."""

import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ado.catalog import catalog_algebra, catalog_entry, catalog_names
from ado.errors import InputError
from ado.lie import LieAlgebra
from ado.linalg import Matrix, Subspace, unit_vector

from helpers import (
    change_of_basis,
    dense_ad,
    dense_centralizer,
    dense_jacobi_failures,
    dense_killing_form,
    dense_subalgebra_table,
    invert,
    matrices,
    nilpotent_algebras,
    seeded_matrix,
)


def catalog_and_rebased():
    """Every catalog algebra in its own basis and in one seeded random basis."""
    rng = random.Random(5)
    cases = []
    for name in catalog_names():
        g = catalog_algebra("abelian:3" if name == "abelian:N" else name)
        while True:
            t = seeded_matrix(rng, g.dim, g.dim, span=2)
            if invert(t) is not None:
                break
        cases += [pytest.param(g, id=name), pytest.param(change_of_basis(g, t), id=f"{name}-rebased")]
    return cases


CATALOG_AND_REBASED = catalog_and_rebased()


def test_validation_rejects_non_antisymmetric_tables():
    table = [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]
    with pytest.raises(InputError) as exc:
        LieAlgebra(table)
    assert "antisymmetric" in exc.value.message
    assert exc.value.payload["pair"] == [0, 0]


def test_validation_rejects_jacobi_violations():
    # [e1,e2]=e3, [e2,e3]=e2 breaks Jacobi on the triple (e1,e2,e3)
    with pytest.raises(InputError) as exc:
        LieAlgebra.from_sparse(3, {(0, 1): {2: 1}, (1, 2): {1: 1}})
    assert "Jacobi" in exc.value.message
    assert exc.value.payload["triple"] == [0, 1, 2]


def test_from_sparse_fills_antisymmetry():
    heis = catalog_algebra("heisenberg")
    assert heis.bracket((1, 0, 0), (0, 1, 0)) == (Q(0), Q(0), Q(1))
    assert heis.bracket((0, 1, 0), (1, 0, 0)) == (Q(0), Q(0), Q(-1))


def test_bracket_is_bilinear():
    sl2 = catalog_algebra("sl2")
    u = (Q(1), Q(2), Q(0))
    v = (Q(0), Q(1), Q(3))
    w = (Q(2), Q(0), Q(1))
    lhs = sl2.bracket(u, tuple(a + b for a, b in zip(v, w)))
    rhs = tuple(
        a + b for a, b in zip(sl2.bracket(u, v), sl2.bracket(u, w))
    )
    assert lhs == rhs


def test_bracket_rejects_vectors_of_the_wrong_length():
    sl2 = catalog_algebra("sl2")
    with pytest.raises(ValueError):
        sl2.bracket((1, 0), (0, 1, 0))
    with pytest.raises(ValueError):
        sl2.bracket((1, 0, 0), (0, 1, 0, 0))


@pytest.mark.parametrize("g", CATALOG_AND_REBASED)
def test_dense_and_sparse_constructions_give_one_algebra(g):
    dense = LieAlgebra(g.table)
    pairs = [(i, j) for i in range(g.dim) for j in range(i + 1, g.dim)]
    sparse = LieAlgebra.from_sparse(g.dim, {(i, j): dict(g.nonzero[i][j]) for i, j in pairs})
    for other in (dense, sparse):
        assert other == g and hash(other) == hash(g)
        assert other.nonzero == g.nonzero


@settings(max_examples=30, deadline=None)
@given(nilpotent_algebras(), st.data())
def test_centralizer_matches_dense_kernel(g, data):
    rows = data.draw(st.integers(min_value=0, max_value=2).flatmap(lambda k: matrices(k, g.dim)))
    for s in (Subspace.from_vectors(g.dim, rows.rows), g.full_space(), g.derived_subalgebra()):
        assert g.centralizer(s) == dense_centralizer(g, s)


def test_ad_matrix_matches_bracket():
    sl2 = catalog_algebra("sl2")
    h = unit_vector(3, 0)
    ad_h = dense_ad(sl2, h)
    assert ad_h == Matrix([[0, 0, 0], [0, 2, 0], [0, 0, -2]])


def test_lower_central_series_dims():
    assert [s.dim for s in catalog_algebra("abelian:4").lower_central_series()] == [4, 0]
    assert [s.dim for s in catalog_algebra("heisenberg").lower_central_series()] == [3, 1, 0]
    assert [s.dim for s in catalog_algebra("abelian:0").lower_central_series()] == [0]
    # solvable but not nilpotent: the series stabilizes above zero
    assert [s.dim for s in catalog_algebra("solv2").lower_central_series()] == [2, 1]


def test_nilpotency_index():
    assert catalog_algebra("abelian:0").nilpotency_index() == 1
    assert catalog_algebra("abelian:3").nilpotency_index() == 2
    assert catalog_algebra("heisenberg").nilpotency_index() == 3
    with pytest.raises(ValueError):
        catalog_algebra("solv2").nilpotency_index()


def test_solvability_classification():
    assert catalog_algebra("solv2").is_solvable()
    assert not catalog_algebra("solv2").is_nilpotent()
    assert catalog_algebra("t3").is_solvable()
    assert not catalog_algebra("t3").is_nilpotent()
    assert not catalog_algebra("sl2").is_solvable()
    assert catalog_algebra("rot3").is_solvable()
    assert catalog_algebra("heisenberg5").is_nilpotent()


def test_center():
    heis = catalog_algebra("heisenberg")
    z = heis.center()
    assert z.dim == 1
    assert z.member((0, 0, 1))
    assert catalog_algebra("sl2").center().dim == 0
    gl2_center = catalog_algebra("gl2").center()
    assert gl2_center.dim == 1
    assert gl2_center.member((0, 0, 0, 1))


def test_centralizer():
    t3 = catalog_algebra("t3")
    # the centralizer of the strictly upper triangular part
    n = Subspace.from_vectors(6, [unit_vector(6, 3), unit_vector(6, 4), unit_vector(6, 5)])
    c = t3.centralizer(n)
    assert c.dim == 2
    assert c.member((1, 1, 1, 0, 0, 0))
    assert c.member((0, 0, 0, 0, 1, 0))


def test_killing_form_sl2():
    assert catalog_algebra("sl2").killing_form() == Matrix(
        [[8, 0, 0], [0, 0, 4], [0, 4, 0]]
    )


def test_killing_form_vanishes_for_nilpotent():
    assert catalog_algebra("heisenberg").killing_form().is_zero()


@pytest.mark.parametrize("g", CATALOG_AND_REBASED)
def test_killing_form_matches_dense_traces(g):
    assert g.killing_form() == dense_killing_form(g)


@pytest.mark.parametrize("g", CATALOG_AND_REBASED)
def test_subalgebra_on_shuffled_basis_matches_dense_solve(g):
    rng = random.Random(g.dim)
    for s in (g.full_space(), g.derived_subalgebra(), g.center(), g.lower_central_series()[-1]):
        if s.dim == 0:
            continue
        # an invertible mix of the echelon basis, shuffled: not in echelon form
        while True:
            mix = seeded_matrix(rng, s.dim, s.dim, span=2)
            if invert(mix) is not None:
                break
        basis = list((mix * s.basis).rows)
        rng.shuffle(basis)
        sub, inclusion = g.subalgebra_on_basis(basis)
        assert [list(row) for row in sub.table] == dense_subalgebra_table(g, basis)
        assert inclusion == Matrix(basis, ncols=g.dim).transpose()


def test_jacobi_error_names_the_first_failing_triple_and_residual():
    rng = random.Random(3)
    n = 5
    table = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                c = Q(rng.randint(-2, 2), rng.randint(1, 2))
                table[i][j][k], table[j][i][k] = c, -c
    failures = dense_jacobi_failures(table)
    assert len(failures) > 1
    with pytest.raises(InputError) as exc:
        LieAlgebra(table)
    assert "Jacobi" in exc.value.message
    assert (exc.value.payload["triple"], exc.value.payload["residual"]) == failures[0]


def test_perturbed_abelian_40_is_rejected():
    n = 40
    one_sided = [[[0] * n for _ in range(n)] for _ in range(n)]
    one_sided[5][17][3] = 1
    with pytest.raises(InputError) as exc:
        LieAlgebra(one_sided)
    assert exc.value.payload["pair"] == [5, 17]
    # [e37, e38] = e39 and [e38, e39] = e38 break Jacobi only on the last triple
    with pytest.raises(InputError) as exc:
        LieAlgebra.from_sparse(n, {(37, 38): {39: 1}, (38, 39): {38: 1}})
    assert exc.value.payload["triple"] == [37, 38, 39]
    assert exc.value.payload["residual"] == ["0"] * 39 + ["1"]


def test_subalgebra_on_basis():
    sl2 = catalog_algebra("sl2")
    borel, inclusion = sl2.subalgebra_on_basis([(1, 0, 0), (0, 1, 0)])
    assert borel.dim == 2
    assert borel.bracket((1, 0), (0, 1)) == (Q(0), Q(2))
    assert inclusion.apply((0, 1)) == (Q(0), Q(1), Q(0))
    assert borel.is_solvable()


def test_subalgebra_rejects_unclosed_span():
    sl2 = catalog_algebra("sl2")
    with pytest.raises(ValueError):
        sl2.subalgebra_on_basis([(0, 1, 0), (0, 0, 1)])


def test_subalgebra_rejects_dependent_basis():
    sl2 = catalog_algebra("sl2")
    with pytest.raises(ValueError):
        sl2.subalgebra_on_basis([(1, 0, 0), (2, 0, 0)])


def test_quotient_of_heisenberg_by_center():
    heis = catalog_algebra("heisenberg")
    q, projection, section = heis.quotient(heis.center())
    assert q.dim == 2
    assert all(entry == (Q(0), Q(0)) for row in q.table for entry in row)
    assert projection * section == Matrix.identity(2)
    assert projection.apply((1, 2, 5)) == (Q(1), Q(2))


def test_quotient_rejects_non_ideals():
    sl2 = catalog_algebra("sl2")
    line_e = Subspace.from_vectors(3, [(0, 1, 0)])
    with pytest.raises(ValueError):
        sl2.quotient(line_e)


def test_quotient_bracket_compatible_with_projection():
    t3 = catalog_algebra("t3")
    series = t3.lower_central_series()
    nil = series[1]
    q, projection, _ = t3.quotient(nil)
    for i in range(6):
        for j in range(6):
            u = unit_vector(6, i)
            v = unit_vector(6, j)
            assert q.bracket(projection.apply(u), projection.apply(v)) == (
                projection.apply(t3.bracket(u, v))
            )


def test_is_ideal():
    t3 = catalog_algebra("t3")
    nil = Subspace.from_vectors(6, [unit_vector(6, j) for j in (3, 4, 5)])
    assert t3.is_ideal(nil)
    assert not t3.is_ideal(Subspace.from_vectors(6, [unit_vector(6, 0)]))


def test_catalog_names_and_aliases():
    names = catalog_names()
    assert "abelian:N" in names
    assert "t3" in names
    assert "n3" in names
    assert catalog_algebra("n3") == catalog_algebra("heisenberg")


def test_catalog_abelian_is_parametric():
    assert catalog_algebra("abelian:7").dim == 7
    with pytest.raises(InputError):
        catalog_algebra("abelian:x")
    with pytest.raises(InputError):
        catalog_algebra("no-such-algebra")


def test_catalog_entries_have_matching_labels():
    for name in catalog_names():
        if name == "abelian:N":
            name = "abelian:2"
        description, labels, algebra = catalog_entry(name)
        assert len(labels) == algebra.dim
        assert description
