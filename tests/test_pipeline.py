import json
import random
from fractions import Fraction as Q
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ado.catalog import catalog_algebra
from ado.envelope import weighted_count
from ado.expansion import saturate
from ado.lie import LieAlgebra
from ado.linalg import (
    Matrix,
    SparseSpan,
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
    dense_failing_brackets,
    change_of_basis,
    direct_sum,
    light_monomials,
    nilpotent_algebras,
    seeded_change_of_basis,
    sl2_plus_solv2,
    sl2_semidirect_plane,
    sl2_semidirect_sym,
    strictly_upper_triangular,
    upper_triangular,
)


FILIFORM = {(0, 1): {2: 1}, (0, 2): {3: 1}}


# the enveloping block's V before the cut to V/W
AMBIENT_MONOMIALS = {
    "solv2": 2,
    "heisenberg": 7,
    "heisenberg5": 16,
    "gl2": 2,
    "rot3": 3,
    "jordan3": 7,
    "abelian:2": 3,
}


@pytest.mark.parametrize(
    "name, dim_v, blocks",
    [
        ("solv2", 2, [("enveloping", 2)]),
        ("heisenberg", 4, [("enveloping", 4)]),
        ("heisenberg5", 6, [("enveloping", 6)]),
        ("sl2", 4, [("reductive", 4)]),
        ("gl2", 6, [("enveloping", 2), ("reductive", 4)]),
        ("rot3", 3, [("enveloping", 3)]),
        ("jordan3", 4, [("enveloping", 4)]),
        ("abelian:2", 3, [("enveloping", 3)]),
    ],
)
def test_catalog_dimensions(name, dim_v, blocks):
    res = ado_representation(catalog_algebra(name))
    assert res.dim_v == dim_v
    made = res.provenance["blocks"]
    assert [(b["kind"], b["dimension"]) for b in made] == blocks
    ambient = [b["ambient_monomials"] for b in made if "ambient_monomials" in b]
    assert ambient == ([AMBIENT_MONOMIALS[name]] if name in AMBIENT_MONOMIALS else [])
    assert res.verification.verified
    assert res.verification.kernel_dimension == 0
    assert res.verification.residual_pairs == ()
    assert len(res.matrices) == res.algebra.dim
    assert all(m.nrows == m.ncols == dim_v for m in res.matrices)


def test_t3_full_tower():
    # the diagonal absorbs into p: n is the strictly upper triangular
    # Heisenberg algebra, the identity is the kernel part and the two
    # traceless diagonals act on n
    res = ado_representation(catalog_algebra("t3"))
    assert res.dim_v == 7
    env, red = res.provenance["blocks"]
    assert env["kind"] == "enveloping"
    # V is the monomials x^a y^b z^c of weight a + b + 2c <= 2, C(4, 2) + 1
    # of them, cut to V/W of dimension 4
    assert env["dimension"] == 4
    assert env["cut_ideal_dimension"] == 3
    assert env["ambient_monomials"] == 7
    assert env["truncation"] == 2
    assert env["weights"] == [1, 2, 1]
    assert env["nilpotency_index"] == 3
    assert env["acting_dimension"] == 2
    assert env["nilpotent_dimension"] == 3
    assert red == {"kind": "reductive", "dimension": 3, "adjoint_dimension": 1}
    assert res.verification.verified


def test_mixed_semisimple_and_solvable_summands():
    # solv2's scaling joins p and acts on its line: an enveloping block of
    # dimension 1 + 1, beside sl2's adjoint padded by one translation row
    res = ado_representation(sl2_plus_solv2())
    assert res.dim_v == 6
    blocks = [(b["kind"], b["dimension"]) for b in res.provenance["blocks"]]
    assert blocks == [("enveloping", 2), ("reductive", 4)]
    assert res.verification.verified


@pytest.mark.parametrize(
    "m, order",
    [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 4)],
)
def test_abelian_dimension_formula(m, order):
    from math import comb

    # m commuting letters of weight 1 have comb(m + order, order) monomials
    # of degree <= order
    assert weighted_count([1] * m, order) == comb(m + order, order)
    assert len(light_monomials([1] * m, order)) == comb(m + order, order)
    res = ado_representation(catalog_algebra(f"abelian:{m}"))
    # the module is built at truncation 1, where V is the unit and the
    # letters, comb(m + 1, 1) of them, and the cut keeps it
    block = res.provenance["blocks"][0]
    assert (block["truncation"], block["ambient_monomials"]) == (1, m + 1)
    assert block["cut_ideal_dimension"] == 0
    assert res.dim_v == m + 1
    assert res.verification.verified


def test_zero_algebra():
    res = ado_representation(catalog_algebra("abelian:0"))
    assert res.dim_v == 1
    assert res.matrices == ()
    assert res.verification.verified


def test_solv2_scaling_spectrum():
    res = ado_representation(catalog_algebra("solv2"))
    reduced = squarefree_part(minimal_polynomial(res.matrices[0]))
    # eigenvalues 0 and 1: the weights of the monomials of weight <= 1
    assert reduced.coeffs == (0, -1, 1)
    step = res.matrices[1]
    assert step.power(2) == Matrix.zeros(2, 2)
    assert step != Matrix.zeros(2, 2)


def test_provenance_is_json_serializable():
    res = ado_representation(catalog_algebra("gl2"))
    text = json.dumps(res.provenance, sort_keys=True)
    assert json.loads(text) == res.provenance
    assert res.provenance["retried"] is False
    assert res.provenance["saturation"][0]["stage"] == "initial"


def test_filiform_is_built_at_its_floor():
    # x3 has weight 3, so the truncation is 3
    res = ado_representation(LieAlgebra.from_sparse(4, FILIFORM))
    assert res.verification.verified
    assert res.provenance["blocks"][0]["truncation"] == 3
    assert res.provenance["blocks"][0]["ambient_monomials"] == 14
    assert res.dim_v == 7
    assert res.provenance["retried"] is False


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
    assert res.provenance["blocks"][0]["ambient_monomials"] == 7
    assert res.dim_v == 4


def lower_central_terms(q, nil):
    terms = [nil]
    while terms[-1].dim:
        terms.append(q.bracket_span(nil, terms[-1]))
    return terms


def spanned_by_subset(term, basis):
    # the basis is independent, so a subset spans term iff its members in term do
    inside = [v for v in basis if term.member(v)]
    return Subspace(term.ambient_dim, SparseSpan(inside)) == term


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
    assert not all(spanned_by_subset(term, nil.span.rows.values()) for term in terms)
    basis = adapted_basis(q, nil)
    assert Subspace(q.dim, SparseSpan(basis)) == nil and len(basis) == nil.dim
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
    assert all(spanned_by_subset(term, nil.span.rows.values()) for term in terms)
    assert adapted_basis(q, nil) == tuple(nil.span.rows.values())


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


@pytest.mark.parametrize("n, ambient", [(4, 29), (5, 132)])
def test_strictly_upper_triangular_verifies(n, ambient):
    # n4 was refused by the ambient limit under the word-length cut; V has
    # ambient monomials and V/W is 10- and 21-dimensional
    res = ado_representation(strictly_upper_triangular(n))
    assert res.verification.verified
    assert res.provenance["blocks"][0]["ambient_monomials"] == ambient
    assert res.dim_v == {4: 10, 5: 21}[n]
    weights = [j - i for i in range(n) for j in range(i + 1, n)]
    assert res.provenance["blocks"][0]["weights"] == weights


CUT_CASES = {
    "n4": lambda: strictly_upper_triangular(4),
    "n5": lambda: strictly_upper_triangular(5),
    "b4": lambda: upper_triangular(4),
    "t3": lambda: catalog_algebra("t3"),
    "heisenberg5": lambda: catalog_algebra("heisenberg5"),
    "jordan3": lambda: catalog_algebra("jordan3"),
}


@pytest.mark.parametrize(
    "name, dim_v",
    [("n4", 10), ("n5", 21), ("b4", 13), ("t3", 7), ("heisenberg5", 6), ("jordan3", 4)],
)
def test_cut_dimension_is_free_of_the_basis_and_the_truncation(name, dim_v):
    # V/W is defined without a basis, so the basis does not move dim_v; pi
    # kills every product past the truncation, which is why the module is
    # built at the floor alone: a larger V would be cut to the same V/W
    g = CUT_CASES[name]()
    res = ado_representation(g)
    assert res.dim_v == dim_v
    for seed in (1, 2):
        rebased = ado_representation(seeded_change_of_basis(random.Random(seed), g))
        assert rebased.verification.verified
        assert rebased.dim_v == dim_v, seed


# sl2 on Sym^k of the plane, alone or beside a solvable or nilpotent
# summand; the catalog-style basis gives the expected dim_v
LEVI_MIXED_PARTNERS = (None, "solv2", "heisenberg", "jordan3")


def levi_mixed(k, partner):
    g = sl2_semidirect_sym(k)
    return g if partner is None else direct_sum(g, catalog_algebra(partner))


@settings(max_examples=6, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.sampled_from(LEVI_MIXED_PARTNERS),
    st.integers(min_value=0, max_value=2**16),
)
def test_random_bases_of_levi_mixed_algebras_verify(k, partner, seed):
    # a TripwireError on this valid input would fail the test
    g = levi_mixed(k, partner)
    res = ado_representation(seeded_change_of_basis(random.Random(seed), g))
    assert res.verification.verified
    assert res.dim_v == ado_representation(g).dim_v


@settings(max_examples=60, deadline=None)
@given(nilpotent_algebras())
def test_random_nilpotent_algebras_verify_at_the_default_truncation(g):
    # faithful by construction: a TripwireError here would fail the test
    res = ado_representation(g)
    assert res.verification.verified
    if g.dim:
        block = res.provenance["blocks"][0]
        assert block["truncation"] == max(1, g.nilpotency_index() - 1)


@pytest.mark.parametrize("name", ["sl2", "gl2", "sl2+sl2"])
def test_each_algebra_and_its_forms_are_built_once(name, monkeypatch):
    # the whole algebra is its own subalgebra, so no stage rebuilds it, and
    # its Killing form and centre are computed once whichever stage asks
    builds, views = [], {"killing_form": [], "center": []}
    # subalgebra_on_basis builds through subalgebra_and_derivations
    for method in ("subalgebra_and_derivations", "quotient"):
        original = getattr(LieAlgebra, method)

        def building(self, *args, original=original):
            result = original(self, *args)
            builds.append((self, result[0]))
            return result

        monkeypatch.setattr(LieAlgebra, method, building)
    for method, calls in views.items():
        original = getattr(LieAlgebra, method)

        def viewing(self, original=original, calls=calls):
            value = original(self)
            calls.append((self.nonzero, value))
            return value

        monkeypatch.setattr(LieAlgebra, method, viewing)
    sl2 = catalog_algebra("sl2")
    g = direct_sum(sl2, sl2) if name == "sl2+sl2" else catalog_algebra(name)
    assert ado_representation(g).verification.verified
    assert builds
    assert not [h for h, built in builds if built is not h and built.nonzero == h.nonzero]
    for method, calls in views.items():
        assert calls, method
        computed = {}
        for nonzero, value in calls:
            computed.setdefault(nonzero, set()).add(id(value))
        assert all(len(ids) == 1 for ids in computed.values()), method


def test_adjoint_of_heisenberg_is_not_faithful():
    g = catalog_algebra("heisenberg")
    ads = tuple(dense_ad(g, unit_vector(3, i)) for i in range(3))
    report = verify_representation(g, ads, 3)
    assert report.homomorphism
    assert report.residual_pairs == ()
    assert report.kernel_dimension == 1
    assert not report.faithful
    assert not report.verified


def test_tampered_matrix_fails_verification():
    res = ado_representation(catalog_algebra("gl2"))
    rows = [list(row) for row in res.matrices[0].rows]
    rows[0][1] += 1
    tampered = (Matrix(rows),) + res.matrices[1:]
    report = verify_representation(res.algebra, tampered, res.dim_v)
    assert not report.verified
    assert report.residual_pairs != ()


@pytest.mark.parametrize("seed", range(4))
def test_residual_pairs_are_the_pairs_with_a_dense_residual(seed):
    # a few tampered entries spoil some pairs and leave others as they were
    g = catalog_algebra("t3")
    mats = list(ado_representation(g).matrices)
    rng = random.Random(seed)
    for _ in range(3):
        k, i, j = rng.randrange(g.dim), rng.randrange(mats[0].nrows), rng.randrange(mats[0].ncols)
        rows = [list(row) for row in mats[k].rows]
        rows[i][j] += Q(rng.choice([-2, -1, 1, 3]), rng.randint(1, 3))
        mats[k] = Matrix(rows)

    relations = {(a, b): g.nonzero[a][b] for a in range(g.dim) for b in range(a + 1, g.dim)}
    expected = tuple(dense_failing_brackets(mats, relations))
    assert expected
    report = verify_representation(g, tuple(mats), mats[0].nrows)
    assert report.residual_pairs == expected
    assert report.homomorphism is False


def test_verify_rejects_ragged_input():
    g = catalog_algebra("abelian:2")

    def zeros(nrows, ncols):
        return Matrix.zeros(nrows, ncols)

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
    assert all(isinstance(m, Matrix) for m in mats)
    assert [(m.nrows, m.ncols) for m in mats] == [(4, 4)] * 3
    assert [mats[0][i, i] for i in range(4)] == [0, 2, -2, 0]
    # the top left block is the adjoint matrix
    for i, m in enumerate(mats):
        assert [row[:3] for row in m.rows[:3]] == list(dense_ad(g, unit_vector(3, i)).rows)
    report = verify_representation(g, mats, 4)
    assert report.verified


def test_reductive_representation_of_abelian_algebra():
    g = catalog_algebra("abelian:2")
    mats = reductive_representation(g)
    assert [(m.nrows, m.ncols) for m in mats] == [(5, 5), (5, 5)]
    # translation column carries each central coordinate
    assert mats[0].column(2) == (0, 0, 0, 1, 0)
    assert mats[1].column(2) == (0, 0, 0, 0, 1)
    report = verify_representation(g, mats, 5)
    assert report.verified


def test_reductive_representation_rejects_non_reductive_input():
    with pytest.raises(ValueError, match="not reductive"):
        reductive_representation(catalog_algebra("heisenberg"))
    # sl2 on the plane is not reductive but is its derived part, with no
    # centre: the adjoint block alone is faithful, and with a centre added
    # the translation column records it
    plane = sl2_semidirect_plane()
    for g in (plane, direct_sum(plane, catalog_algebra("abelian:1"))):
        mats = reductive_representation(g)
        assert verify_representation(g, mats, mats[0].nrows).verified
