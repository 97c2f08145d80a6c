"""The enveloping block V/W, checked against a word oracle.

The oracle builds V itself: it straightens words with its own recursive
rewriting, weighs the basis by brute-force lower central terms,
symmetrizes by averaging over orderings, and closes pi's rows in the
construction's order.  The build never forms V, so the oracle's block
and the build's must agree entry for entry.
"""

from dataclasses import replace
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings

from ado import pipeline
from ado.catalog import catalog_algebra
from ado.envelope import build_module
from ado.errors import InputError, TripwireError
from ado.lie import LieAlgebra
from ado.linalg import Matrix

from helpers import (
    change_of_basis,
    dense_ad,
    dense_failing_brackets,
    enveloping_inputs,
    filiform,
    nilpotent_algebras,
    oracle_cut_block,
    oracle_cut_dimension,
    sl2_semidirect_plane,
    strictly_upper_triangular,
)


HEIS = catalog_algebra("heisenberg")
# the 4-dim filiform algebra, [x0, x1] = x2 and [x0, x2] = x3, weights
# 1, 1, 2, 3: with n4 and n5 (truncations 3, 3 and 4) it carries the
# checks that need fields with terms of degree 2 and more
FIL = filiform(4)
N4 = strictly_upper_triangular(4)
N5 = strictly_upper_triangular(5)

# entry (0, 0) is the unit's coefficient in an image, zero for every
# action here; bumping it breaks the bracket with any generator
WEIGHTS = Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
SHIFT = Matrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]])  # x <- y, nilpotent
FIL_DIAGONAL = Matrix([[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]])
FIL_SHIFT = Matrix([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 1, 0, 0]])  # x3 <- x1
N4_GRADING = Matrix.from_sparse(6, 6, [{i: Q(w)} for i, w in enumerate((1, 2, 3, 1, 2, 1))])


def module_relations(algebra, derivations, commutators=()):
    """The bracket relations of the images of derivations, then x_0, ..., x_{r-1}.

    [x_i, x_j] is the algebra's bracket, [D_a, x_i] is D_a(x_i), read off
    column i, and [D_a, D_b] for each (a, b, c) of commutators is D_c.
    """
    r, s = algebra.dim, len(derivations)
    relations = {
        (s + i, s + j): tuple((s + k, c) for k, c in algebra.nonzero[i][j])
        for i in range(r)
        for j in range(i + 1, r)
    }
    for a, d in enumerate(derivations):
        relations.update({(a, s + i): tuple((s + k, c) for k, c in d.cols[i].items()) for i in range(r)})
    for a, b, c in commutators:
        relations[a, b] = ((c, Q(1)),)
    return relations


def test_left_action_columns_frozen():
    # x1 acts as d/dt1 - (t0 / 2) d/dt2 + (t0^2 / 12) d/dt3: B_1 = -1/2 and
    # B_2 / 2! = 1/12 times [T, x1] = t0 x2 and [T, [T, x1]] = t0^2 x3.
    # Basis t0, t1, t2, t3, then 1 = t0 x0 and u5, so t1 x1 = u4,
    # t2 x1 = -t0 / 2 and t3 x1 is the next basis functional, u6 = t0^2 / 12
    left_x0, left_x1 = build_module(FIL).images[:2]
    assert left_x1.rows[1] == (0, 0, 0, 0, 1, 0, 0)
    assert left_x1.rows[2] == (Q(-1, 2), 0, 0, 0, 0, 0, 0)
    assert left_x1.rows[3] == (0, 0, 0, 0, 0, 0, 1)
    # and x0 sends t0^2 / 12 to t0 / 6
    assert left_x0.rows[6] == (Q(1, 6), 0, 0, 0, 0, 0, 0)


def test_module_dimensions_frozen():
    # weights, V's monomial count and the block's dimension
    cases = [
        (HEIS, (1, 1, 2), 7, 4),
        (FIL, (1, 1, 2, 3), 14, 7),
        (N4, (1, 2, 3, 1, 2, 1), 29, 10),
        (N5, (1, 2, 3, 4, 1, 2, 3, 1, 2, 1), 132, 21),
    ]
    for algebra, weights, ambient, size in cases:
        built = build_module(algebra)
        assert built.weights == weights
        assert built.ambient_monomials == ambient
        assert {m.nrows for m in built.images} == {size}


def test_module_agrees_with_word_oracle():
    # the nilpotent part the pipeline reaches for t3: a Heisenberg
    # triple next to three central directions; n5 runs in acceptance 7
    t3_nil = LieAlgebra.from_sparse(6, {(0, 1): {2: 1}})
    for algebra in (catalog_algebra("heisenberg5"), catalog_algebra("abelian:3"), t3_nil, FIL, N4):
        built = build_module(algebra)
        assert built.images == oracle_cut_block(algebra, [], built.truncation)


def test_module_agrees_with_word_oracle_at_default_truncation():
    built = build_module(HEIS)
    assert built.truncation == 2
    assert built.images == oracle_cut_block(HEIS, [], 2)


def test_abelian_modules_are_full_polynomial_truncations():
    # every weight is 1 and the truncation 1: the block is V, the unit and
    # the m letters, and x_a sends the unit, at index 0, to x_a at m - a
    for m in (1, 2, 3):
        built = build_module(catalog_algebra(f"abelian:{m}"))
        assert built.weights == (1,) * m
        assert (built.truncation, built.ambient_monomials) == (1, m + 1)
        for a, image in enumerate(built.images):
            assert image == Matrix.from_sparse(m + 1, m + 1, [{m - a: Q(1)}] + [{}] * m)


def test_truncation_floor_is_the_largest_weight():
    # x3 has weight 3, so a truncation of 2 would drop it
    assert FIL.nilpotency_index() == 4
    built = build_module(FIL)
    assert built.truncation == 3
    assert built.weights == (1, 1, 2, 3)


def test_ambient_guard():
    # the 24-dim filiform algebra, [e0, ei] = e(i+1): weights 1, 1, 2, ...,
    # 23 and 24757 monomials of weight <= 23, refused before any work
    with pytest.raises(InputError) as exc:
        build_module(filiform(24))
    assert exc.value.stage == "module"
    assert "limit" in exc.value.message
    assert exc.value.payload["count"] == 24757
    assert exc.value.payload["truncation"] == 23


# heisenberg on (x, y, x+z): [e1, e2] = z = e3 - e1 has an e1 term of weight 1
X_Y_X_PLUS_Z = Matrix([(1, 0, 0), (0, 1, 0), (1, 0, 1)]).transpose()


def test_weight_tripwire_on_an_unadapted_basis():
    g = change_of_basis(HEIS, X_Y_X_PLUS_Z)
    with pytest.raises(TripwireError) as exc:
        build_module(g)
    assert exc.value.stage == "module"
    assert exc.value.message == "bracket lowers the weight"
    assert exc.value.payload == {"pair": [0, 1], "generator": 0}


def test_weight_tripwire_on_a_weight_lowering_derivation():
    # z -> x sends weight 2 to weight 1; checked before any image is built
    lowering = Matrix([[0, 0, 1], [0, 0, 0], [0, 0, 0]])
    with pytest.raises(TripwireError) as exc:
        build_module(HEIS, [WEIGHTS, lowering])
    assert exc.value.stage == "module"
    assert exc.value.message == "derivation lowers the weight"
    assert exc.value.payload == {"entry": [0, 2]}


def test_module_axioms_for_left_actions():
    # the left images on V/W represent the bracket
    for name in ("heisenberg", "heisenberg5", "abelian:2"):
        g = catalog_algebra(name)
        assert dense_failing_brackets(build_module(g).images, module_relations(g, [])) == []
    for algebra in (FIL, N4):
        images = build_module(algebra).images
        assert dense_failing_brackets(images, module_relations(algebra, [])) == []


def test_derivation_action_frozen_weights():
    # D = diag(1, 1, 2) is the field t0 d/dt0 + t1 d/dt1 + 2 t2 d/dt2, which
    # scales each monomial by its weight: on the basis t0, t1, t2, 1 of V/W
    # it is diagonal
    action = build_module(HEIS, [WEIGHTS]).images[0]
    assert action == Matrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 0]])


def test_derivation_axioms_with_two_derivations():
    # the images of D1, D2, their commutator and the letters satisfy every
    # bracket of the semidirect product
    for algebra, d1, d2 in ((HEIS, WEIGHTS, SHIFT), (FIL, FIL_DIAGONAL, FIL_SHIFT)):
        derivations = [d1, d2, d1 * d2 - d2 * d1]
        images = build_module(algebra, derivations).images
        relations = module_relations(algebra, derivations, commutators=[(0, 1, 2)])
        assert dense_failing_brackets(images, relations) == []


def test_derivation_actions_agree_with_word_oracle():
    cases = [
        (HEIS, [WEIGHTS, SHIFT, WEIGHTS.scale(3) - SHIFT]),
        (FIL, [FIL_DIAGONAL, FIL_SHIFT, FIL_DIAGONAL - FIL_SHIFT.scale(2)]),
        # the grading by the weights and the inner derivation ad(E01)
        (N4, [N4_GRADING, dense_ad(N4, (1, 0, 0, 0, 0, 0))]),
        # t3's n and the derivations of its acting part, as the pipeline
        # hands them over
        enveloping_inputs(catalog_algebra("t3")),
    ]
    for algebra, derivations in cases:
        built = build_module(algebra, derivations)
        assert built.images == oracle_cut_block(algebra, derivations, built.truncation)


def _tamper_block(monkeypatch, image, tamper):
    # the pipeline's block gets its image-th matrix tampered with
    def tampered(algebra, derivations=()):
        built = build_module(algebra, derivations)
        images = list(built.images)
        images[image] = tamper(images)
        return replace(built, images=tuple(images))

    monkeypatch.setattr(pipeline, "build_module", tampered)


def _bump(m: Matrix, r: int, c: int) -> Matrix:
    rows = [list(row) for row in m.rows]
    rows[r][c] += 1
    return Matrix(rows)


# the module axioms are not checked on the block: the final check on the
# assembled matrices covers the brackets of the whole split basis, which
# the invertible change of basis carries to the block's images


def test_module_axioms_name_a_tampered_left_action(monkeypatch):
    _tamper_block(monkeypatch, 0, lambda images: _bump(images[0], 0, 0))
    with pytest.raises(TripwireError) as exc:
        pipeline.ado_representation(HEIS)
    assert exc.value.stage == "pipeline"
    assert exc.value.message == "assembled representation fails verification"
    assert exc.value.payload == {"pairs": [[0, 1]], "kernel_dimension": 0}


def test_module_axioms_name_a_tampered_derivation_action(monkeypatch):
    # t3's first acting derivation: its brackets with the letters fail
    _tamper_block(monkeypatch, 0, lambda images: _bump(images[0], 0, 0))
    with pytest.raises(TripwireError) as exc:
        pipeline.ado_representation(catalog_algebra("t3"))
    assert exc.value.message == "assembled representation fails verification"
    assert exc.value.payload == {"pairs": [[0, 3], [0, 5], [1, 3], [1, 5]], "kernel_dimension": 0}


def test_module_axioms_name_a_tampered_commutator(monkeypatch):
    # sl2 on the plane, basis h, e, f, a, b: h's image plus a's keeps every
    # bracket with the abelian n, and fails only brackets within sl2
    _tamper_block(monkeypatch, 0, lambda images: images[0] + images[3])
    with pytest.raises(TripwireError) as exc:
        pipeline.ado_representation(sl2_semidirect_plane())
    assert exc.value.message == "assembled representation fails verification"
    assert exc.value.payload == {"pairs": [[0, 2], [1, 2]], "kernel_dimension": 0}


def test_left_action_of_x_frozen():
    # x acts as d/dt_x + (t_y / 2) d/dt_z; basis t_x, t_y, t_z, 1: t_x x = 1
    # and t_z x = t_y / 2
    assert build_module(HEIS).images[0] == Matrix(
        [[0, 0, 0, 1], [0, 0, 0, 0], [0, Q(1, 2), 0, 0], [0, 0, 0, 0]]
    )


def test_projection_frozen_on_heisenberg():
    # yx = xy - z, so xy = sym(xy) + z / 2 and pi(xy) = z / 2: row z of
    # pi meets x y with 1/2 and y x with -1/2, which the block shows as
    # t_z x = t_y / 2 and t_z y = -t_x / 2
    left_x, left_y, _ = build_module(HEIS).images
    assert left_x.rows[2] == (0, Q(1, 2), 0, 0)
    assert left_y.rows[2] == (Q(-1, 2), 0, 0, 0)


PROJECTION_CASES = [
    (HEIS, [WEIGHTS, SHIFT]),
    (FIL, [FIL_DIAGONAL]),
    (N4, [N4_GRADING, dense_ad(N4, (1, 0, 0, 0, 0, 0))]),
]


@pytest.mark.parametrize("algebra, derivations", PROJECTION_CASES)
def test_projection_commutes_with_derivations(algebra, derivations):
    # symmetrization is canonical, so pi(D v) = D(pi v): the first r basis
    # functionals are pi's rows t_a, and t_a D = sum over b of D[a, b] t_b
    r = algebra.dim
    images = build_module(algebra, derivations).images
    for d, action in zip(derivations, images):
        for a in range(r):
            assert action.rows[a][:r] == d.rows[a]
            assert not any(action.rows[a][r:])


@pytest.mark.parametrize("algebra, derivations", PROJECTION_CASES)
def test_cut_dimension_agrees_with_the_dense_oracle(algebra, derivations):
    built = build_module(algebra, derivations)
    size = built.images[0].nrows
    oracle = oracle_cut_dimension(algebra, derivations, built.truncation)
    assert size == oracle < built.ambient_monomials
    assert all(m.nrows == m.ncols == size for m in built.images)
    # the images on V/W still satisfy the module axioms
    assert dense_failing_brackets(built.images, module_relations(algebra, derivations)) == []


def test_a_block_whose_closure_fills_v_star_is_kept():
    # abelian at truncation 1: the letters' rows and the unit's row are all
    # of V*, and the block is V in its monomial order 1, x1, x0
    abelian = catalog_algebra("abelian:2")
    built = build_module(abelian)
    assert built.images == oracle_cut_block(abelian, [], 1)
    assert built.images == (
        Matrix([[0, 0, 0], [0, 0, 0], [1, 0, 0]]),
        Matrix([[0, 0, 0], [1, 0, 0], [0, 0, 0]]),
    )
    # the line scaled by a derivation: V is 1, x0
    line = LieAlgebra.from_sparse(1, {})
    assert build_module(line, [Matrix([[1]])]).images == (
        Matrix([[0, 0], [0, 1]]),
        Matrix([[0, 0], [1, 0]]),
    )


@settings(max_examples=15, deadline=None)
@given(nilpotent_algebras())
def test_random_nilpotent_blocks_match_the_oracle_dimension(g):
    # the block as the pipeline builds it, against the dense closure of the
    # oracle's V, and the representation it enters verifies
    result = pipeline.ado_representation(g)
    assert result.verification.verified
    if g.dim:
        block = result.provenance["blocks"][0]
        nalg, derivations = enveloping_inputs(g)
        oracle = oracle_cut_dimension(nalg, derivations, block["truncation"])
        assert block["dimension"] == oracle
