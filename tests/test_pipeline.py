import json
import random
from fractions import Fraction as Q
from itertools import permutations

import pytest
from hypothesis import given, settings

from ado.catalog import catalog_algebra
from ado.errors import InputError
from ado.expansion import saturate
from ado.lie import LieAlgebra
from ado.linalg import (
    Matrix,
    SparseMatrix,
    Subspace,
    minimal_polynomial,
    squarefree_part,
    unit_vector,
)
from ado.pipeline import (
    adapted_basis,
    ado_representation,
    reductive_representation,
    verify_representation,
)

from helpers import (
    dense_ad,
    change_of_basis,
    from_dense,
    nilpotent_algebras,
    seeded_change_of_basis,
    sl2_plus_solv2,
    sl2_semidirect_plane,
    strictly_upper_triangular,
    to_dense,
)


FILIFORM = {(0, 1): {2: 1}, (0, 2): {3: 1}}


@pytest.mark.parametrize(
    "name, dim_v, blocks",
    [
        ("solv2", 3, [("enveloping", 3)]),
        ("heisenberg", 7, [("enveloping", 7)]),
        ("heisenberg5", 16, [("enveloping", 16)]),
        ("sl2", 4, [("reductive", 4)]),
        ("gl2", 6, [("enveloping", 2), ("reductive", 4)]),
        ("rot3", 4, [("enveloping", 4)]),
        ("jordan3", 7, [("enveloping", 7)]),
        ("abelian:2", 3, [("enveloping", 3)]),
    ],
)
def test_catalog_dimensions(name, dim_v, blocks):
    res = ado_representation(catalog_algebra(name))
    assert res.dim_v == dim_v
    assert [(b["kind"], b["dimension"]) for b in res.provenance["blocks"]] == blocks
    assert res.verification.verified
    assert res.verification.kernel_dimension == 0
    assert res.verification.residual_pairs == ()
    assert len(res.matrices) == res.algebra.dim
    assert all(m.nrows == m.ncols == dim_v for m in res.matrices)


def test_t3_full_tower():
    res = ado_representation(catalog_algebra("t3"))
    assert res.dim_v == 25
    env, red = res.provenance["blocks"]
    assert env["kind"] == "enveloping"
    assert env["dimension"] == 22
    assert env["cut_ideal_dimension"] == 0
    assert env["ambient_monomials"] == 22
    assert env["truncation"] == 2
    assert env["weights"] == [1, 1, 1, 1, 2, 1]
    assert env["nilpotency_index"] == 3
    assert env["acting_dimension"] == 2
    assert env["nilpotent_dimension"] == 6
    assert red == {"kind": "reductive", "dimension": 3, "adjoint_dimension": 1}
    assert res.verification.verified


def test_mixed_semisimple_and_solvable_summands():
    res = ado_representation(sl2_plus_solv2())
    assert res.dim_v == 7
    kinds = [b["kind"] for b in res.provenance["blocks"]]
    assert kinds == ["enveloping", "reductive"]
    assert res.verification.verified


@pytest.mark.parametrize(
    "m, order",
    [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 4)],
)
def test_abelian_dimension_formula(m, order):
    from math import comb

    res = ado_representation(catalog_algebra(f"abelian:{m}"), truncation=order)
    assert res.dim_v == comb(m + order, order)
    assert res.verification.verified


def test_zero_algebra():
    res = ado_representation(catalog_algebra("abelian:0"))
    assert res.dim_v == 1
    assert res.matrices == ()
    assert res.verification.verified


def test_solv2_scaling_spectrum():
    res = ado_representation(catalog_algebra("solv2"))
    reduced = squarefree_part(minimal_polynomial(to_dense(res.matrices[0])))
    # eigenvalues 0 and 1: the weights of the monomials of weight <= 1
    assert reduced.coeffs == (0, -1, 1)
    step = to_dense(res.matrices[1])
    assert step.power(2) == Matrix.zeros(3, 3)
    assert step != Matrix.zeros(3, 3)


def test_provenance_is_json_serializable():
    res = ado_representation(catalog_algebra("gl2"))
    text = json.dumps(res.provenance, sort_keys=True)
    assert json.loads(text) == res.provenance
    assert res.provenance["retried"] is False
    assert res.provenance["saturation"][0]["stage"] == "initial"


def test_truncation_below_the_floor_is_input_error():
    fil = LieAlgebra.from_sparse(4, FILIFORM)
    with pytest.raises(InputError) as exc:
        ado_representation(fil, truncation=2)
    assert exc.value.payload == {"truncation": 2, "minimum": 3}
    default = ado_representation(fil)
    assert default.verification.verified
    assert default.provenance["blocks"][0]["truncation"] == 3
    assert default.dim_v == 14
    assert default.provenance["retried"] is False


# heisenberg in a rational basis not adapted to the lower central series
# (the benchmark's `rebased` heisenberg-b0 at seed 7).  On its echelon
# basis a bracket lowers the weight and building the module trips; the
# module is built on an adapted basis instead.
def test_rebased_heisenberg_verifies():
    g = LieAlgebra.from_sparse(
        3,
        {
            (0, 1): {0: Q(4, 5), 1: 1, 2: Q(1, 5)},
            (0, 2): {0: -4, 1: -5, 2: -1},
            (1, 2): {0: Q(16, 5), 1: 4, 2: Q(4, 5)},
        },
    )
    assert ado_representation(g).verification.verified


@pytest.mark.parametrize("order", list(permutations(range(3))))
def test_heisenberg_on_x_y_x_plus_z_verifies_in_every_order(order):
    # in orders (0, 1, 2) and (2, 1, 0) the echelon basis is not adapted
    vectors = [(1, 0, 0), (0, 1, 0), (1, 0, 1)]
    t = Matrix([vectors[i] for i in order]).transpose()
    res = ado_representation(change_of_basis(catalog_algebra("heisenberg"), t))
    assert res.verification.verified
    assert res.dim_v == 7


def lower_central_terms(q, nil):
    terms = [nil]
    while terms[-1].dim:
        terms.append(q.bracket_span(nil, terms[-1]))
    return terms


def spanned_by_subset(term, basis):
    # the basis is independent, so a subset spans term iff its members in term do
    inside = [v for v in basis if term.member(v)]
    return Subspace.from_vectors(term.ambient_dim, inside) == term


def unadapted_cases():
    # heisenberg on (x, y, x+z): the echelon basis is the standard one, and
    # [n, n] is spanned by e3 - e1
    t = Matrix([(1, 0, 0), (0, 1, 0), (1, 0, 1)]).transpose()
    heisenberg = change_of_basis(catalog_algebra("heisenberg"), t)
    # jordan3 in a random basis: n is a proper ideal of the saturated algebra
    pres = saturate(seeded_change_of_basis(random.Random(1), catalog_algebra("jordan3")))
    return [
        pytest.param(heisenberg, heisenberg.full_space(), id="heisenberg-x-y-x+z"),
        pytest.param(pres.algebra, pres.nilpotent_part, id="jordan3-rebased"),
    ]


@pytest.mark.parametrize("q, nil", unadapted_cases())
def test_adapted_basis_spans_every_lower_central_term(q, nil):
    terms = lower_central_terms(q, nil)
    assert not all(spanned_by_subset(term, nil.basis.rows) for term in terms)
    basis = adapted_basis(q, nil)
    assert Subspace.from_vectors(q.dim, basis) == nil and len(basis) == nil.dim
    assert all(spanned_by_subset(term, basis) for term in terms)


@pytest.mark.parametrize(
    "g",
    [catalog_algebra("jordan3"), catalog_algebra("t3"), LieAlgebra.from_sparse(4, FILIFORM)],
    ids=["jordan3", "t3", "filiform"],
)
def test_adapted_echelon_basis_comes_back_unchanged(g):
    pres = saturate(g)
    q, nil = pres.algebra, pres.nilpotent_part
    terms = lower_central_terms(q, nil)
    assert len(terms) > 2
    assert all(spanned_by_subset(term, nil.basis.rows) for term in terms)
    assert adapted_basis(q, nil) == nil.basis.rows


@pytest.mark.parametrize(
    "name",
    [
        "heisenberg",
        "n3",
        "jordan3",
        "solv2",
        "rot3",
        "gl2",
        "sl2",
        "abelian:3",
        "heisenberg5",
        "t3",
    ],
)
def test_random_change_of_basis_keeps_verdict_and_dim_v(name):
    rng = random.Random(f"change-of-basis:{name}")
    expected = ado_representation(catalog_algebra(name)).dim_v
    for _ in range(2):
        res = ado_representation(seeded_change_of_basis(rng, catalog_algebra(name)))
        assert res.verification.verified
        assert res.dim_v == expected


@pytest.mark.parametrize("n, dim_v", [(4, 29), (5, 132)])
def test_strictly_upper_triangular_verifies(n, dim_v):
    # n4 was refused by the default ADO_AMBIENT_LIMIT under the word-length cut
    res = ado_representation(strictly_upper_triangular(n))
    assert res.verification.verified
    assert res.dim_v == dim_v
    weights = [j - i for i in range(n) for j in range(i + 1, n)]
    assert res.provenance["blocks"][0]["weights"] == weights


@settings(max_examples=60, deadline=None)
@given(nilpotent_algebras())
def test_random_nilpotent_algebras_verify_at_the_default_truncation(g):
    # faithful by construction: a TripwireError here would fail the test
    res = ado_representation(g)
    assert res.verification.verified
    if g.dim:
        block = res.provenance["blocks"][0]
        assert block["truncation"] == max(1, g.nilpotency_index() - 1)


def test_adjoint_of_heisenberg_is_not_faithful():
    g = catalog_algebra("heisenberg")
    ads = tuple(from_dense(dense_ad(g, unit_vector(3, i))) for i in range(3))
    report = verify_representation(g, ads, 3)
    assert report.homomorphism
    assert report.residual_pairs == ()
    assert report.kernel_dimension == 1
    assert not report.faithful
    assert not report.verified


def test_tampered_matrix_fails_verification():
    res = ado_representation(catalog_algebra("gl2"))
    rows = [list(row) for row in to_dense(res.matrices[0]).rows]
    rows[0][1] += 1
    tampered = (from_dense(Matrix(rows)),) + res.matrices[1:]
    report = verify_representation(res.algebra, tampered, res.dim_v)
    assert not report.verified
    assert report.residual_pairs != ()


def test_verify_rejects_ragged_input():
    g = catalog_algebra("abelian:2")

    def zeros(nrows, ncols):
        return from_dense(Matrix.zeros(nrows, ncols))

    with pytest.raises(ValueError):
        verify_representation(g, (zeros(2, 2),), 2)
    with pytest.raises(ValueError):
        verify_representation(g, (zeros(2, 2), zeros(3, 3)), 2)
    with pytest.raises(ValueError):
        verify_representation(g, (zeros(2, 2), zeros(2, 3)), 2)
    with pytest.raises(ValueError):
        verify_representation(g, (zeros(2, 2), zeros(2, 2)), 3)


def test_reductive_representation_of_sl2():
    g = catalog_algebra("sl2")
    mats = reductive_representation(g)
    assert all(isinstance(m, SparseMatrix) for m in mats)
    assert [(m.nrows, m.ncols) for m in mats] == [(4, 4)] * 3
    dense = [to_dense(m) for m in mats]
    assert [dense[0][i, i] for i in range(4)] == [0, 2, -2, 0]
    # the top left block is the adjoint matrix
    for i, m in enumerate(dense):
        assert [row[:3] for row in m.rows[:3]] == list(dense_ad(g, unit_vector(3, i)).rows)
    report = verify_representation(g, mats, 4)
    assert report.verified


def test_reductive_representation_of_abelian_algebra():
    g = catalog_algebra("abelian:2")
    mats = reductive_representation(g)
    assert [(m.nrows, m.ncols) for m in mats] == [(5, 5), (5, 5)]
    # translation column carries each central coordinate
    assert to_dense(mats[0]).column(2) == (0, 0, 0, 1, 0)
    assert to_dense(mats[1]).column(2) == (0, 0, 0, 0, 1)
    report = verify_representation(g, mats, 5)
    assert report.verified


def test_reductive_representation_rejects_non_reductive_input():
    with pytest.raises(ValueError, match="not reductive"):
        reductive_representation(catalog_algebra("heisenberg"))
    # perfect and centreless, yet solvable directions make Killing degenerate
    with pytest.raises(ValueError, match="not reductive"):
        reductive_representation(sl2_semidirect_plane())
