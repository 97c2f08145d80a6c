import random

import pytest

from ado.catalog import catalog_algebra
from ado.errors import TripwireError
from ado.expansion import (
    Presentation,
    expansion_step,
    initial_presentation,
    presentation_defect,
    saturate,
    verify_presentation,
)
from ado.lie import LieAlgebra
from ado.linalg import Matrix, Subspace, add_vec, unit_vector

from helpers import change_of_basis, seeded_matrix, sl2_plus_solv2


def nilpotency_index_of_part(pres, part):
    sub, _ = pres.algebra.subalgebra_on_basis(part.basis.rows)
    return sub.nilpotency_index()


def test_solv2_saturates_in_one_step():
    g = catalog_algebra("solv2")
    pres = saturate(g)
    assert presentation_defect(pres) == 0
    assert pres.algebra.dim == 3
    assert pres.reductive_part.dim == 1
    assert pres.nilpotent_part.dim == 2
    assert pres.trace[0] == {
        "stage": "initial",
        "levi_dimension": 0,
        "radical_dimension": 2,
        "nilpotent_dimension": 1,
    }
    assert pres.trace[1] == {
        "stage": "expand",
        "generator": ["1", "0"],
        "semisimple_witness": ["1"],
        "embedding": [["1", "0"], ["1", "0"], ["0", "1"]],
        "dimensions": {"algebra": 3, "reductive": 1, "nilpotent": 2},
    }
    # e1 becomes the sum of the two new directions, e2 is untouched
    assert pres.embed_original.column(0) == (1, 1, 0)
    assert pres.embed_original.column(1) == (0, 0, 1)
    # [y, e2] = e2 and z acts trivially, so n is abelian here
    assert pres.algebra.table[0][2] == (0, 0, 1)
    assert pres.algebra.table[1][2] == (0, 0, 0)
    assert nilpotency_index_of_part(pres, pres.nilpotent_part) == 2


def test_t3_saturates_in_three_steps():
    g = catalog_algebra("t3")
    pres = saturate(g)
    assert len(pres.trace) == 4
    assert pres.algebra.dim == 9
    assert pres.reductive_part.dim == 3
    assert pres.nilpotent_part.dim == 6
    generators = [record["generator"] for record in pres.trace[1:]]
    assert generators == [
        ["1", "0", "0", "0", "0", "0"],
        ["0", "0", "1", "0", "0", "0", "0"],
        ["0", "0", "0", "0", "1", "0", "0", "0"],
    ]
    # every diagonal action already equals a polynomial value of itself
    for record in pres.trace[1:]:
        assert record["semisimple_witness"] == ["0", "1"]
    expected_columns = [
        add_vec(unit_vector(9, 4), unit_vector(9, 5)),
        add_vec(unit_vector(9, 2), unit_vector(9, 3)),
        add_vec(unit_vector(9, 0), unit_vector(9, 1)),
        unit_vector(9, 6),
        unit_vector(9, 7),
        unit_vector(9, 8),
    ]
    assert pres.embed_original == Matrix.from_columns(expected_columns, nrows=9)
    assert pres.algebra.bracket_span(
        pres.reductive_part, pres.reductive_part
    ).dim == 0
    assert nilpotency_index_of_part(pres, pres.nilpotent_part) == 3


def test_rot3_single_rotation_step():
    g = catalog_algebra("rot3")
    pres = saturate(g)
    assert len(pres.trace) == 2
    assert pres.algebra.dim == 4
    assert pres.reductive_part.dim == 1
    assert pres.nilpotent_part.dim == 3
    assert pres.trace[1]["semisimple_witness"] == ["0", "1"]
    # the rotation is already semisimple: y carries it whole, z is central
    assert pres.algebra.table[0][2] == (0, 0, 0, 1)
    assert pres.algebra.table[0][3] == (0, 0, -1, 0)
    assert pres.algebra.table[1][2] == (0, 0, 0, 0)
    assert pres.algebra.table[1][3] == (0, 0, 0, 0)
    assert nilpotency_index_of_part(pres, pres.nilpotent_part) == 2


def test_jordan3_splits_shear_from_scaling():
    g = catalog_algebra("jordan3")
    pres = saturate(g)
    assert len(pres.trace) == 2
    assert pres.algebra.dim == 4
    assert pres.reductive_part.dim == 1
    assert pres.nilpotent_part.dim == 3
    # semisimple part of [[1,1],[0,1]] is the identity: witness is constant
    assert pres.trace[1]["semisimple_witness"] == ["1"]
    assert pres.algebra.table[0][2] == (0, 0, 1, 0)
    assert pres.algebra.table[0][3] == (0, 0, 0, 1)
    assert pres.algebra.table[1][2] == (0, 0, 0, 0)
    assert pres.algebra.table[1][3] == (0, 0, 1, 0)
    # the shear survives inside n, which is now a Heisenberg copy
    assert nilpotency_index_of_part(pres, pres.nilpotent_part) == 3


@pytest.mark.parametrize(
    "name, dims",
    [
        ("gl2", (4, 3, 1)),
        ("heisenberg", (3, 0, 3)),
        ("heisenberg5", (5, 0, 5)),
        ("sl2", (3, 3, 0)),
        ("abelian:4", (4, 0, 4)),
    ],
)
def test_already_split_algebras_take_no_steps(name, dims):
    pres = saturate(catalog_algebra(name))
    assert len(pres.trace) == 1
    assert (
        pres.algebra.dim,
        pres.reductive_part.dim,
        pres.nilpotent_part.dim,
    ) == dims
    assert pres.embed_original == Matrix.identity(dims[0])


def test_semisimple_factor_survives_beside_solvable_piece():
    g = sl2_plus_solv2()
    pres = saturate(g)
    assert len(pres.trace) == 2
    assert pres.algebra.dim == 6
    assert pres.reductive_part.dim == 4
    assert pres.nilpotent_part.dim == 2
    derived = pres.algebra.bracket_span(pres.reductive_part, pres.reductive_part)
    assert derived.dim == 3


@pytest.mark.parametrize("name", ["solv2", "rot3", "jordan3", "t3", "gl2"])
def test_saturation_invariants(name):
    g = catalog_algebra(name)
    pres = saturate(g)
    verify_presentation(pres, g)
    assert presentation_defect(pres) == 0
    assert pres.reductive_part.intersect(pres.nilpotent_part).dim == 0
    assert pres.reductive_part.sum(pres.nilpotent_part).contains(
        pres.algebra.derived_subalgebra()
    )
    initial = initial_presentation(g)
    assert len(pres.trace) == 1 + presentation_defect(initial)


@pytest.mark.parametrize("seed", [3, 19, 57])
def test_saturation_dimensions_are_basis_independent(seed):
    rng = random.Random(seed)
    g = catalog_algebra("t3")
    while True:
        t = seeded_matrix(rng, g.dim, g.dim, span=2)
        try:
            scrambled = change_of_basis(g, t)
            break
        except ValueError:
            continue
    pres = saturate(scrambled)
    verify_presentation(pres, scrambled)
    assert pres.algebra.dim == 9
    assert pres.reductive_part.dim == 3
    assert pres.nilpotent_part.dim == 6


def test_step_on_saturated_presentation_trips():
    pres = initial_presentation(catalog_algebra("gl2"))
    assert presentation_defect(pres) == 0
    with pytest.raises(TripwireError, match="no generator"):
        expansion_step(pres)


def test_verify_rejects_non_ideal_part():
    g = catalog_algebra("solv2")
    bad = Presentation(
        algebra=g,
        reductive_part=Subspace.zero(2),
        nilpotent_part=Subspace.from_vectors(2, [unit_vector(2, 0)]),
        embed_original=Matrix.identity(2),
        trace=(),
    )
    with pytest.raises(TripwireError, match="not an ideal"):
        verify_presentation(bad, g)


def test_verify_rejects_overlapping_parts():
    g = catalog_algebra("solv2")
    line = Subspace.from_vectors(2, [unit_vector(2, 1)])
    bad = Presentation(
        algebra=g,
        reductive_part=line,
        nilpotent_part=line,
        embed_original=Matrix.identity(2),
        trace=(),
    )
    with pytest.raises(TripwireError, match="overlap"):
        verify_presentation(bad, g)


def test_verify_rejects_non_injective_embedding():
    g = catalog_algebra("abelian:2")
    bad = Presentation(
        algebra=g,
        reductive_part=Subspace.zero(2),
        nilpotent_part=Subspace.full(2),
        embed_original=Matrix.zeros(2, 2),
        trace=(),
    )
    with pytest.raises(TripwireError, match="injective"):
        verify_presentation(bad, g)


def test_saturate_reads_the_kept_derived_terms(monkeypatch):
    # the same saturation with [g, g] and the lower central series rebuilt
    # on every call, as a frozen algebra would not need
    def rebuilt_derived(self):
        full = self.full_space()
        return self.bracket_span(full, full)

    def rebuilt_lower_central(self):
        full = self.full_space()
        series = [full]
        while (nxt := self.bracket_span(full, series[-1])) != series[-1]:
            series.append(nxt)
        return tuple(series)

    calls = []
    original = LieAlgebra.bracket_span

    def counting(self, left, right):
        calls.append(1)
        return original(self, left, right)

    monkeypatch.setattr(LieAlgebra, "bracket_span", counting)
    kept = saturate(catalog_algebra("t3"))
    kept_calls = len(calls)
    monkeypatch.setattr(LieAlgebra, "derived_subalgebra", rebuilt_derived)
    monkeypatch.setattr(LieAlgebra, "lower_central_series", rebuilt_lower_central)
    calls.clear()
    assert saturate(catalog_algebra("t3")) == kept
    assert kept_calls < len(calls)
