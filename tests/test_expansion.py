import random
from fractions import Fraction as Q

import pytest

import ado.expansion
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
from ado.linalg import (
    Matrix,
    SparseSpan,
    Subspace,
    minimal_polynomial,
    squarefree_part,
    unit_vector,
)

from helpers import (
    change_of_basis,
    direct_sum,
    record_bracket_spans,
    seeded_change_of_basis,
    seeded_matrix,
    sl2_plus_solv2,
)


def nilpotency_index_of_part(pres, part):
    sub, _ = pres.algebra.subalgebra_on_basis(part.span.rows.values())
    return sub.nilpotency_index()


def assert_step_law(g, pres):
    """The law of both kinds of step: an extend step trades the generator
    for two directions, one joining p and one joining n; an absorb step
    adds its generator to the part it joins and leaves the algebra and
    the embedding as they are."""
    initial, steps = pres.trace[0], pres.trace[1:]
    extends = sum(record["stage"] == "expand" for record in steps)
    joins = [record["joins"] for record in steps if record["stage"] == "absorb"]
    assert extends + len(joins) == len(steps)
    assert pres.algebra.dim == g.dim + extends
    assert pres.reductive_part.dim == (
        initial["levi_dimension"] + extends + joins.count("reductive")
    )
    assert pres.nilpotent_part.dim == (
        initial["nilpotent_dimension"] + extends + joins.count("nilpotent")
    )
    if not extends:
        assert pres.algebra is g
        assert pres.embed_original == Matrix.identity(g.dim)


def test_solv2_saturates_in_one_step():
    g = catalog_algebra("solv2")
    pres = saturate(g)
    assert presentation_defect(pres) == 0
    assert_step_law(g, pres)
    assert pres.trace[0] == {
        "stage": "initial",
        "levi_dimension": 0,
        "radical_dimension": 2,
        "nilpotent_dimension": 1,
    }
    # ad e1 scales e2, a semisimple action: e1 joins p, with no extension
    assert pres.trace[1] == {
        "stage": "absorb",
        "generator": ["1", "0"],
        "joins": "reductive",
        "dimensions": {"algebra": 2, "reductive": 1, "nilpotent": 1},
    }
    assert pres.reductive_part == Subspace(2, SparseSpan([{0: 1}]))
    assert pres.nilpotent_part == Subspace(2, SparseSpan([{1: 1}]))
    assert nilpotency_index_of_part(pres, pres.nilpotent_part) == 2


def test_t3_saturates_in_three_steps():
    g = catalog_algebra("t3")
    pres = saturate(g)
    assert len(pres.trace) == 4
    assert_step_law(g, pres)
    # each diagonal unit acts semisimply and joins p in turn
    assert [record["stage"] for record in pres.trace[1:]] == ["absorb"] * 3
    assert [record["joins"] for record in pres.trace[1:]] == ["reductive"] * 3
    generators = [record["generator"] for record in pres.trace[1:]]
    assert generators == [
        ["1", "0", "0", "0", "0", "0"],
        ["0", "1", "0", "0", "0", "0"],
        ["0", "0", "1", "0", "0", "0"],
    ]
    assert (pres.algebra.dim, pres.reductive_part.dim, pres.nilpotent_part.dim) == (6, 3, 3)
    assert pres.algebra.bracket_span(
        pres.reductive_part, pres.reductive_part
    ).dim == 0
    assert nilpotency_index_of_part(pres, pres.nilpotent_part) == 3


def test_rot3_single_rotation_step():
    g = catalog_algebra("rot3")
    pres = saturate(g)
    assert len(pres.trace) == 2
    assert_step_law(g, pres)
    # the rotation is already semisimple: it joins p whole
    assert pres.trace[1]["stage"] == "absorb"
    assert pres.trace[1]["joins"] == "reductive"
    assert pres.reductive_part == Subspace(3, SparseSpan([{0: 1}]))
    assert pres.algebra.table[0][1] == (0, 0, 1)
    assert pres.algebra.table[0][2] == (0, -1, 0)
    assert nilpotency_index_of_part(pres, pres.nilpotent_part) == 2


def test_jordan3_splits_shear_from_scaling():
    g = catalog_algebra("jordan3")
    pres = saturate(g)
    assert len(pres.trace) == 2
    assert_step_law(g, pres)
    # d = [[1, 1], [0, 1]] has both parts nonzero, and n is abelian, so
    # no inner derivation carries the shear: the step extends
    assert pres.trace[1]["stage"] == "expand"
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
    assert_step_law(g, pres)
    # solv2's scaling joins the Levi factor in p
    assert pres.trace[1]["joins"] == "reductive"
    assert pres.algebra.dim == 5
    assert pres.reductive_part.dim == 4
    assert pres.nilpotent_part.dim == 1
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
    assert_step_law(g, pres)


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
    assert_step_law(scrambled, pres)
    # every basis absorbs the torus, with no extension
    assert pres.algebra.dim == 6
    assert pres.reductive_part.dim == 3
    assert pres.nilpotent_part.dim == 3


def absorbing_input(name):
    if name == "sl2+solv2":
        return sl2_plus_solv2()
    if name == "solv2+heisenberg":
        return direct_sum(catalog_algebra("solv2"), catalog_algebra("heisenberg"))
    if name == "t3-rebased":
        # a basis whose first generator needs the inner correction
        return seeded_change_of_basis(random.Random(9), catalog_algebra("t3"))
    return catalog_algebra(name)


def vector_of(entries):
    return {k: Q(c) for k, c in enumerate(entries) if Q(c)}


@pytest.mark.parametrize(
    "name", ["solv2", "rot3", "t3", "sl2+solv2", "solv2+heisenberg", "t3-rebased"]
)
def test_an_absorb_step_keeps_the_algebra_and_lowers_the_defect(name):
    g = absorbing_input(name)
    pres = initial_presentation(g)
    joined = []
    while presentation_defect(pres):
        before = pres
        pres = expansion_step(pres)
        verify_presentation(pres, g)
        assert presentation_defect(pres) == presentation_defect(before) - 1
        record = pres.trace[-1]
        assert record["stage"] == "absorb"
        assert pres.algebra is before.algebra
        assert pres.embed_original is before.embed_original
        # the generator, less its inner correction, is the one new line
        vector = vector_of(record["generator"])
        for k, c in vector_of(record.get("inner", ())).items():
            vector[k] = vector.get(k, 0) - c
        assert not before.reductive_part.sum(before.nilpotent_part).member(vector)
        line = Subspace(g.dim, SparseSpan([vector]))
        parts = {"reductive": pres.reductive_part, "nilpotent": pres.nilpotent_part}
        olds = {"reductive": before.reductive_part, "nilpotent": before.nilpotent_part}
        for part in parts:
            expected = olds[part].sum(line) if part == record["joins"] else olds[part]
            assert parts[part] == expected, part
        # a line joining p acts semisimply on n, one joining n nilpotently
        nil = list(pres.nilpotent_part.span.rows.values())
        _, _, (ad,) = g.subalgebra_and_derivations(nil, [vector])
        if record["joins"] == "reductive":
            minimal = minimal_polynomial(ad)
            assert squarefree_part(minimal) == minimal
        else:
            assert ad.power(len(nil)).is_zero()
        joined.append(record["joins"])
    assert joined
    if name == "solv2+heisenberg":
        # the scaling joins p; the Heisenberg generators act nilpotently
        assert joined == ["reductive", "nilpotent", "nilpotent"]
    if name == "t3-rebased":
        assert "inner" in pres.trace[1]


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
    # the same saturation with every bracket span recomputed on each call,
    # as an algebra that kept none would need
    computed = record_bracket_spans(monkeypatch)
    kept = saturate(catalog_algebra("t3"))
    kept_spans = len(computed)
    calls = []

    def recomputed(self, left, right):
        calls.append(1)
        rows = right.span.rows.values()
        brackets = (self._bracket(u, v) for u in left.span.rows.values() for v in rows)
        return Subspace(self.dim, SparseSpan(brackets))

    monkeypatch.setattr(LieAlgebra, "bracket_span", recomputed)
    assert saturate(catalog_algebra("t3")) == kept
    assert kept_spans < len(calls)


def count_embedding_checks(monkeypatch) -> list:
    checked = []
    original = ado.expansion.verify_embedding

    def counting(pres, g):
        checked.append(pres.trace[-1]["stage"])
        return original(pres, g)

    monkeypatch.setattr(ado.expansion, "verify_embedding", counting)
    return checked


@pytest.mark.parametrize(
    "name, extends", [("t3", 0), ("jordan3", 1), ("jordan3+jordan3", 2), ("solv2+heisenberg", 0)]
)
def test_saturate_checks_the_embedding_after_each_extension_only(monkeypatch, name, extends):
    # the initial embedding is the identity and an absorb step keeps it
    if name == "jordan3+jordan3":
        g = direct_sum(catalog_algebra("jordan3"), catalog_algebra("jordan3"))
    else:
        g = absorbing_input(name)
    checked = count_embedding_checks(monkeypatch)
    pres = saturate(g)
    stages = [record["stage"] for record in pres.trace[1:]]
    assert stages.count("expand") == extends
    assert checked == ["expand"] * extends


def test_a_tampered_extension_embedding_is_caught(monkeypatch):
    # on jordan3 [e_0, e_1] = e_1, so doubling the image of e_0 breaks the
    # bracket under the embedding, though it stays injective
    step = ado.expansion.expansion_step

    def tampered(pres):
        out = step(pres)
        if out.trace[-1]["stage"] != "expand":
            return out
        cols = list(out.embed_original.cols)
        cols[0] = {k: 2 * c for k, c in cols[0].items()}
        embed = Matrix.from_sparse(out.embed_original.nrows, len(cols), cols)
        return Presentation(
            out.algebra, out.reductive_part, out.nilpotent_part, embed, out.trace
        )

    monkeypatch.setattr(ado.expansion, "expansion_step", tampered)
    with pytest.raises(TripwireError, match="embedding does not respect the bracket"):
        saturate(catalog_algebra("jordan3"))
