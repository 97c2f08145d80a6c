"""Radical, Levi complements, nilpotent seeds, reductive splits."""

import random
from fractions import Fraction as Q

import pytest

from ado.catalog import catalog_algebra, catalog_names
from ado.decompose import levi_decomposition, nilpotent_seed, radical, reductive_split
from ado.errors import TripwireError
from ado.expansion import saturate
from ado.lie import LieAlgebra
from ado.linalg import Matrix, Subspace, unit_vector
from ado.pipeline import ado_representation

from helpers import (
    change_of_basis,
    dense_bracket_span,
    dense_kernel,
    dense_killing_form,
    direct_sum,
    invert,
    killing_acting_part,
    nilpotent_closure,
    record_bracket_spans,
    seeded_change_of_basis,
    seeded_matrix,
    sl2_plus_solv2,
    sl2_plus_sl2_semidirect_plane,
    sl2_semidirect_plane,
    sl3,
    sparse,
    strictly_upper_triangular,
    transport_subspace,
)


def span_of(dim, *indices):
    return Subspace.from_vectors(dim, [unit_vector(dim, i) for i in indices])


def test_radical_frozen_cases():
    assert radical(catalog_algebra("sl2")).dim == 0
    assert radical(catalog_algebra("t3")).dim == 6
    assert radical(catalog_algebra("solv2")).dim == 2
    assert radical(catalog_algebra("heisenberg")).dim == 3
    assert radical(catalog_algebra("gl2")) == span_of(4, 3)
    assert radical(sl2_semidirect_plane()) == span_of(5, 3, 4)
    assert radical(sl2_plus_solv2()) == span_of(5, 3, 4)


def killing_radical(g):
    """Reference radical: the Killing-orthogonal space of [g, g], from dense traces."""
    killing = dense_killing_form(g)
    rows = [killing.apply(w) for w in dense_bracket_span(g, g.full_space(), g.full_space()).basis]
    return dense_kernel(Matrix(rows, ncols=g.dim)) if rows else Subspace.full(g.dim)


SOLVABLE = [
    *(pytest.param(catalog_algebra(name), id=name) for name in ["t3", "jordan3", "heisenberg"]),
    pytest.param(strictly_upper_triangular(4), id="n4"),
    *(
        pytest.param(seeded_change_of_basis(random.Random(seed), catalog_algebra(name)), id=f"{name}-{seed}")
        for name in ["t3", "jordan3", "solv2", "rot3", "heisenberg5"]
        for seed in (1, 2)
    ),
]


@pytest.mark.parametrize("g", SOLVABLE)
def test_radical_of_a_solvable_algebra_builds_no_killing_form(monkeypatch, g):
    # by Cartan's criterion the form vanishes on g x [g, g], so the
    # orthogonal space is all of g, as the derived series already shows
    expected = killing_radical(g)

    def refuse(self):
        raise AssertionError("Killing form built")

    monkeypatch.setattr(LieAlgebra, "killing_form", refuse)
    assert radical(g) == expected == g.full_space()


@pytest.mark.parametrize(
    "g",
    [
        pytest.param(catalog_algebra("sl2"), id="sl2"),
        pytest.param(catalog_algebra("gl2"), id="gl2"),
        pytest.param(sl2_semidirect_plane(), id="sl2-plane"),
        pytest.param(sl2_plus_solv2(), id="sl2+solv2"),
        pytest.param(seeded_change_of_basis(random.Random(4), catalog_algebra("gl2")), id="gl2-4"),
        pytest.param(
            seeded_change_of_basis(random.Random(4), sl2_semidirect_plane()), id="sl2-plane-4"
        ),
    ],
)
def test_radical_of_a_non_solvable_algebra_is_the_killing_orthogonal_space(g):
    assert radical(g) == killing_radical(g)


def test_levi_of_semisimple_and_solvable_extremes():
    sl2 = catalog_algebra("sl2")
    data = levi_decomposition(sl2)
    assert data.levi.dim == 3
    assert data.radical.dim == 0
    t3 = catalog_algebra("t3")
    data = levi_decomposition(t3)
    assert data.levi.dim == 0
    assert data.radical.dim == 6


def test_levi_with_abelian_radical():
    g = sl2_semidirect_plane()
    data = levi_decomposition(g)
    assert data.levi == span_of(5, 0, 1, 2)
    assert data.radical == span_of(5, 3, 4)


def test_levi_of_gl2():
    data = levi_decomposition(catalog_algebra("gl2"))
    assert data.levi == span_of(4, 0, 1, 2)
    assert data.radical == span_of(4, 3)


def test_levi_recursion_through_nonabelian_radical():
    g = sl2_plus_solv2()
    data = levi_decomposition(g)
    assert data.levi == span_of(5, 0, 1, 2)
    assert data.radical == span_of(5, 3, 4)


def test_levi_in_scrambled_coordinates():
    base = sl2_semidirect_plane()
    rng = random.Random(91)
    for _ in range(5):
        while True:
            t = seeded_matrix(rng, 5, 5, span=2)
            t_inv = invert(t)
            if t_inv is not None:
                break
        g = change_of_basis(base, t)
        data = levi_decomposition(g)
        # the radical is unique, so it must transport exactly
        assert data.radical == transport_subspace(span_of(5, 3, 4), t_inv)
        assert data.levi.dim == 3
        assert data.levi.intersect(data.radical).dim == 0
        assert data.levi.contains(g.bracket_span(data.levi, data.levi))


def test_levi_in_scrambled_coordinates_nonabelian_radical():
    base = sl2_plus_solv2()
    rng = random.Random(17)
    while True:
        t = seeded_matrix(rng, 5, 5, span=2)
        t_inv = invert(t)
        if t_inv is not None:
            break
    g = change_of_basis(base, t)
    data = levi_decomposition(g)
    assert data.radical == transport_subspace(span_of(5, 3, 4), t_inv)
    assert data.levi.dim == 3
    assert data.levi.contains(g.bracket_span(data.levi, data.levi))
    assert data.levi.sum(data.radical).dim == 5


def test_nilpotent_seed_frozen_cases():
    solv2 = catalog_algebra("solv2")
    assert nilpotent_seed(solv2, levi_decomposition(solv2)) == span_of(2, 1)
    t3 = catalog_algebra("t3")
    assert nilpotent_seed(t3, levi_decomposition(t3)) == span_of(6, 3, 4, 5)
    heis = catalog_algebra("heisenberg")
    assert nilpotent_seed(heis, levi_decomposition(heis)).dim == 3
    gl2 = catalog_algebra("gl2")
    assert nilpotent_seed(gl2, levi_decomposition(gl2)) == span_of(4, 3)
    sl2 = catalog_algebra("sl2")
    assert nilpotent_seed(sl2, levi_decomposition(sl2)).dim == 0
    g = sl2_semidirect_plane()
    assert nilpotent_seed(g, levi_decomposition(g)) == span_of(5, 3, 4)
    rot3 = catalog_algebra("rot3")
    assert nilpotent_seed(rot3, levi_decomposition(rot3)) == span_of(3, 1, 2)


def test_nilpotent_seed_brackets_g_with_the_radical_once(monkeypatch):
    # [g, radical] is computed once, by the ideal check of the Levi
    # decomposition; a radical that is not nilpotent gives way to that
    # memoised span as the seed, and a nilpotent one is the seed itself
    computed = record_bracket_spans(monkeypatch)
    for name in [n for n in catalog_names() if n != "abelian:N"] + ["abelian:3"]:
        g = catalog_algebra(name)
        data = levi_decomposition(g)
        seed = nilpotent_seed(g, data)
        full = g.full_space()
        on_g = [(left, right) for h, left, right in computed if h is g]
        assert on_g.count((full, data.radical)) == 1, name
        if g.lower_central_series(data.radical)[-1].dim:
            assert seed is g.bracket_span(full, data.radical), name
        else:
            assert seed is data.radical, name


def test_levi_of_sl3_brackets_the_whole_algebra_with_itself_once(monkeypatch):
    # the radical needs [g, g], which the algebra memoises; a complement
    # that is the whole algebra is closed without bracketing it again
    def unit(i, j):
        return Matrix([[1 if (r, c) == (i, j) else 0 for c in range(3)] for r in range(3)])

    g = nilpotent_closure([unit(0, 1), unit(1, 2), unit(1, 0), unit(2, 1)])
    assert g.dim == 8
    original = LieAlgebra.bracket_span
    calls = []

    def recording(self, left, right):
        calls.append((self, left, right))
        return original(self, left, right)

    monkeypatch.setattr(LieAlgebra, "bracket_span", recording)
    data = levi_decomposition(g)
    full = g.full_space()
    assert data.levi == full and data.radical.dim == 0
    assert [(left, right) for h, left, right in calls if h is g].count((full, full)) <= 1


def test_representation_of_sl3_plus_sl3_brackets_the_whole_algebra_once(monkeypatch):
    # [g, g] is computed once; checking that the reductive part, here all
    # of g, is a subalgebra reads the memoised span
    g = direct_sum(sl3(), sl3())
    computed = record_bracket_spans(monkeypatch)
    assert ado_representation(g).verification.verified
    full = g.full_space()
    assert [(left, right) for h, left, right in computed if h is g].count((full, full)) == 1


def test_reductive_split_torus_on_nilradical():
    t3 = catalog_algebra("t3")
    split = reductive_split(t3, span_of(6, 0, 1, 2), span_of(6, 3, 4, 5))
    assert split.kernel_part.dim == 1
    assert split.kernel_part.member({0: 1, 1: 1, 2: 1})
    assert split.acting_part == span_of(6, 1, 2)


def test_reductive_split_everything_central():
    gl2 = catalog_algebra("gl2")
    split = reductive_split(gl2, span_of(4, 0, 1, 2), span_of(4, 3))
    assert split.kernel_part == span_of(4, 0, 1, 2)
    assert split.acting_part.dim == 0


def test_reductive_split_everything_acting():
    g = sl2_semidirect_plane()
    split = reductive_split(g, span_of(5, 0, 1, 2), span_of(5, 3, 4))
    assert split.kernel_part.dim == 0
    assert split.acting_part == span_of(5, 0, 1, 2)


def test_reductive_split_mixed_semisimple_parts():
    g = sl2_plus_sl2_semidirect_plane()
    split = reductive_split(g, span_of(8, 0, 1, 2, 3, 4, 5), span_of(8, 6, 7))
    assert split.kernel_part == span_of(8, 0, 1, 2)
    assert split.acting_part == span_of(8, 3, 4, 5)
    assert g.bracket_span(split.kernel_part, split.acting_part).dim == 0


SPLIT_CASES = [
    (catalog_algebra("t3"), (0, 1, 2), (3, 4, 5)),
    (catalog_algebra("gl2"), (0, 1, 2), (3,)),
    (sl2_semidirect_plane(), (0, 1, 2), (3, 4)),
    (sl2_plus_sl2_semidirect_plane(), (0, 1, 2, 3, 4, 5), (6, 7)),
    (sl2_plus_sl2_semidirect_plane(), (0, 1, 2), ()),
]


@pytest.mark.parametrize("g, p, n", SPLIT_CASES)
def test_split_and_levi_algebras_are_the_subalgebras_on_their_bases(g, p, n):
    split = reductive_split(g, span_of(g.dim, *p), span_of(g.dim, *n))
    assert split.kernel_algebra == g.subalgebra_on_basis(map(sparse, split.kernel_part.basis))[0]
    # the Levi step reads the radical's derived series in g: the images of
    # the series of the subalgebra on the radical's basis
    r = levi_decomposition(g).radical
    rsub, inclusion = g.subalgebra_on_basis(map(sparse, r.basis))
    assert g.derived_series(r) == tuple(t.image(inclusion) for t in rsub.derived_series())


CENTRALIZER_CASES = [
    *(
        pytest.param(catalog_algebra(name), id=name)
        for name in [n for n in catalog_names() if n != "abelian:N"] + ["abelian:3"]
    ),
    pytest.param(sl2_plus_sl2_semidirect_plane(), id="sl2+sl2-plane"),
    pytest.param(
        seeded_change_of_basis(random.Random(7), sl2_plus_sl2_semidirect_plane()),
        id="sl2+sl2-plane-rebased",
    ),
    pytest.param(direct_sum(sl3(), sl3()), id="sl3+sl3"),
    pytest.param(direct_sum(sl3(), sl3(on_space=True)), id="sl3+sl3-space"),
]


@pytest.mark.parametrize("g", CENTRALIZER_CASES)
def test_acting_part_is_the_killing_orthogonal_complement(g):
    # with [p, p] semisimple, the centralizer of the kernel within [p, p]
    # is the sum of the simple ideals outside it, as is its Killing-
    # orthogonal complement
    pres = saturate(g)
    q, p, n = pres.algebra, pres.reductive_part, pres.nilpotent_part
    split = reductive_split(q, p, n)
    assert split.acting_part == killing_acting_part(q, p, n)
    assert split.kernel_part.sum(split.acting_part) == p
    assert split.kernel_part.dim + split.acting_part.dim == p.dim


def test_reductive_split_rejects_non_reductive_subalgebra():
    t3 = catalog_algebra("t3")
    with pytest.raises(TripwireError):
        reductive_split(t3, span_of(6, 0, 3), span_of(6, 4))


def test_split_parts_commute_and_act_faithfully():
    t3 = catalog_algebra("t3")
    p = span_of(6, 0, 1, 2)
    n = span_of(6, 3, 4, 5)
    split = reductive_split(t3, p, n)
    assert split.kernel_part.sum(split.acting_part) == p
    # each nonzero element of the acting part moves some element of n
    for v in split.acting_part.basis:
        assert any(
            any(x != 0 for x in t3.bracket(v, w)) for w in n.basis
        )
