"""Lie algebra core: validation, series, centers, subquotients."""

import random
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ado.catalog import catalog_algebra, catalog_entry, catalog_names
from ado.decompose import radical
from ado.errors import InputError
from ado.lie import LieAlgebra
from ado.linalg import Matrix, Subspace, unit_vector

from helpers import (
    change_of_basis,
    dense,
    dense_ad,
    dense_apply,
    dense_bracket_span,
    dense_center,
    dense_centralizer,
    dense_jacobi_failures,
    dense_killing_form,
    dense_subalgebra_table,
    direct_sum,
    invert,
    matrices,
    nilpotent_algebras,
    rationals,
    seeded_change_of_basis,
    seeded_matrix,
    sl3,
    sparse,
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

# random nilpotent algebras, and catalog algebras in a random rational basis
ALGEBRAS = st.one_of(
    nilpotent_algebras(),
    st.builds(
        lambda name, seed: seeded_change_of_basis(random.Random(seed), catalog_algebra(name)),
        st.sampled_from(["abelian:3" if n == "abelian:N" else n for n in catalog_names()]),
        st.integers(min_value=0, max_value=2**16),
    ),
)


def coordinates(dim):
    """Coordinate tuples with many zero entries, the zero vector among them."""
    return st.lists(st.one_of(st.just(Q(0)), rationals()), min_size=dim, max_size=dim).map(tuple)


def sparse(v):
    return {i: a for i, a in enumerate(v) if a}


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


@pytest.mark.parametrize(
    "g",
    [
        pytest.param(sl3(), id="sl3"),
        pytest.param(direct_sum(catalog_algebra("sl2"), catalog_algebra("sl2")), id="sl2+sl2"),
        pytest.param(catalog_algebra("gl2"), id="gl2"),
        pytest.param(catalog_algebra("t3"), id="t3"),
        pytest.param(
            seeded_change_of_basis(random.Random(3), catalog_algebra("sl2")), id="sl2-rebased"
        ),
    ],
)
def test_spans_that_fill_the_space_match_dense_oracles(g):
    # semisimple parts bracket onto themselves and centralize little, so
    # these spans fill their space before every row is read
    rng = random.Random(g.dim)
    drawn = Subspace.from_vectors(g.dim, seeded_matrix(rng, 2, g.dim).rows)
    spaces = (
        Subspace.zero(g.dim),
        g.full_space(),
        g.derived_subalgebra(),
        g.center(),
        drawn,
    )
    assert g.center() == dense_center(g)
    for left in spaces:
        assert g.centralizer(left) == dense_centralizer(g, left)
        for right in spaces:
            assert g.bracket_span(left, right) == dense_bracket_span(g, left, right)


@settings(max_examples=40, deadline=None)
@given(ALGEBRAS, st.data())
def test_sparse_bracket_matches_dense_adjoint(g, data):
    u, v = data.draw(coordinates(g.dim)), data.draw(coordinates(g.dim))
    zero = (Q(0),) * g.dim
    for x, y in ((u, v), (v, u), (u, zero), (zero, v)):
        expected = dense_apply(dense_ad(g, x), y)
        # equal dicts also show that no zero is stored
        assert g._bracket(sparse(x), sparse(y)) == sparse(expected)
        assert g.bracket(x, y) == expected


@settings(max_examples=30, deadline=None)
@given(ALGEBRAS, st.data())
def test_bracket_span_matches_dense_oracle(g, data):
    rows = data.draw(st.integers(min_value=0, max_value=2).flatmap(lambda k: matrices(k, g.dim)))
    spaces = (
        Subspace.from_vectors(g.dim, rows.rows),
        Subspace.zero(g.dim),
        g.full_space(),
        g.center(),
    )
    for left in spaces:
        for right in spaces:
            assert g.bracket_span(left, right) == dense_bracket_span(g, left, right)


def dense_series(g, derived):
    """Reference lower central or derived series of the whole algebra, by
    dense bracket spans, until it stabilizes."""
    series = [Subspace.full(g.dim)]
    while True:
        nxt = dense_bracket_span(g, series[-1] if derived else series[0], series[-1])
        if nxt == series[-1]:
            return tuple(series)
        series.append(nxt)


@settings(max_examples=20, deadline=None)
@given(ALGEBRAS)
@example(seeded_change_of_basis(random.Random(1), catalog_algebra("t3")))
def test_subspace_series_are_the_series_of_the_subalgebra(g):
    full, r = g.full_space(), radical(g)
    for s in (g.derived_subalgebra(), r, g.center(), g.bracket_span(full, r)):
        sub, inclusion = g.subalgebra_on_basis(s.span.rows.values())
        for series, derived in (
            (LieAlgebra.lower_central_series, False),
            (LieAlgebra.derived_series, True),
        ):
            expected = tuple(t.image(inclusion) for t in dense_series(sub, derived))
            assert series(g, s) == expected
            assert tuple(t.image(inclusion) for t in series(sub)) == expected
    for a, b in ((full, full), (full, r), (r, r), (r, full)):
        assert g.bracket_span(a, b) is g.bracket_span(a, b)


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
    # solvable: the derived series ends at zero; nilpotent: the lower
    # central series does
    def last_dims(name):
        g = catalog_algebra(name)
        return g.derived_series()[-1].dim, g.lower_central_series()[-1].dim

    assert last_dims("solv2") == (0, 1)
    assert last_dims("t3") == (0, 3)
    assert last_dims("sl2") == (3, 3)
    assert last_dims("rot3")[0] == 0
    assert last_dims("heisenberg5") == (0, 0)


def test_center():
    heis = catalog_algebra("heisenberg")
    z = heis.center()
    assert z.dim == 1
    assert z.member({2: 1})
    assert catalog_algebra("sl2").center().dim == 0
    gl2_center = catalog_algebra("gl2").center()
    assert gl2_center.dim == 1
    assert gl2_center.member({3: 1})


def test_centralizer():
    t3 = catalog_algebra("t3")
    # the centralizer of the strictly upper triangular part
    n = Subspace.from_vectors(6, [unit_vector(6, 3), unit_vector(6, 4), unit_vector(6, 5)])
    c = t3.centralizer(n)
    assert c.dim == 2
    assert c.member({0: 1, 1: 1, 2: 1})
    assert c.member({4: 1})


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
        basis = list((mix * Matrix(s.basis, ncols=g.dim)).rows)
        rng.shuffle(basis)
        sub, inclusion = g.subalgebra_on_basis(map(sparse, basis))
        assert [list(row) for row in sub.table] == dense_subalgebra_table(g, basis)
        assert inclusion == Matrix(basis, ncols=g.dim).transpose()


@settings(max_examples=30, deadline=None)
@given(ALGEBRAS)
def test_standard_basis_gives_back_the_algebra(g):
    sub, inclusion = g.subalgebra_on_basis([{s: 1} for s in range(g.dim)])
    assert sub is g
    assert inclusion == Matrix.identity(g.dim)


@settings(max_examples=30, deadline=None)
@given(ALGEBRAS, st.integers(min_value=0, max_value=2**16))
def test_other_full_bases_take_the_general_path(g, seed):
    if g.dim == 0:
        return
    rng = random.Random(seed)
    order = list(range(g.dim))
    rng.shuffle(order)
    while True:
        mixed = seeded_matrix(rng, g.dim, g.dim)
        if invert(mixed) is not None:
            break
    # one standard vector doubled: a rescaling next to the standard basis
    doubled = rng.randrange(g.dim)
    identity = Matrix.identity(g.dim)
    permuted = Matrix.from_columns([unit_vector(g.dim, s) for s in order], nrows=g.dim)
    rescaled = Matrix.from_sparse(g.dim, g.dim, ({s: Q(2 if s == doubled else 1)} for s in range(g.dim)))
    for t in (permuted, rescaled, mixed):
        sub, inclusion = g.subalgebra_on_basis(t.cols)
        assert (sub is g) == (t == identity)
        assert sub == change_of_basis(g, t)
        assert inclusion == t


@settings(max_examples=30, deadline=None)
@given(ALGEBRAS)
def test_memoised_views_match_dense_oracles_and_are_shared(g):
    assert g.killing_form() == dense_killing_form(g)
    assert g.center() == dense_center(g)
    assert g.full_space() == Subspace.full(g.dim)
    for view in (g.killing_form, g.center, g.full_space):
        assert view() is view()
    # the centre is the memoised centralizer of the whole space, shared by
    # every equal subspace
    assert g.center() is g.centralizer(g.full_space())
    assert g.centralizer(Subspace.full(g.dim)) is g.center()
    derived = g.derived_subalgebra()
    assert g.centralizer(derived) is g.centralizer(Subspace(g.dim, derived.span))


def test_jacobi_error_names_the_first_failing_triple_and_residual():
    # denominators 1 to 7 make the common denominator of the constants
    # large, so the Jacobi sums checked in int stand for s / d^2
    for seed, n, max_den in ((3, 5, 2), (1, 4, 7), (5, 5, 7), (8, 6, 7), (13, 5, 7)):
        rng = random.Random(seed)
        table = [[[0] * n for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(n):
                    c = Q(rng.randint(-2, 2), rng.randint(1, max_den))
                    table[i][j][k], table[j][i][k] = c, -c
        failures = dense_jacobi_failures(table)
        assert len(failures) > 1
        with pytest.raises(InputError) as exc:
            LieAlgebra(table)
        assert "Jacobi" in exc.value.message
        assert (exc.value.payload["triple"], exc.value.payload["residual"]) == failures[0]
    # sparse: one constant of sl2 + heisenberg + sl2 tampered; the first
    # failing triples are (4, 6, 7), (0, 3, 6) and (3, 4, 7), each with a
    # different one of its three pairs bracketing to nonzero
    g = direct_sum(catalog_algebra("sl2"), catalog_algebra("heisenberg"), catalog_algebra("sl2"))
    for a, b, m in ((6, 7, 3), (0, 6, 4), (5, 7, 3)):
        table = [[list(entry) for entry in row] for row in g.table]
        table[a][b][m] += Q(1, 3)
        table[b][a][m] -= Q(1, 3)
        failures = dense_jacobi_failures(table)
        with pytest.raises(InputError) as exc:
            LieAlgebra(table)
        assert (exc.value.payload["triple"], exc.value.payload["residual"]) == failures[0]


def test_a_broken_lower_triangle_is_named_by_its_pair():
    # a dense table gives both halves of every bracket, so antisymmetry is
    # checked on it, ahead of the Jacobi identity the tampering also breaks
    table = [[list(entry) for entry in row] for row in catalog_algebra("sl2").table]
    table[2][1][0] += 1
    assert dense_jacobi_failures(table)
    with pytest.raises(InputError) as exc:
        LieAlgebra(table)
    assert "antisymmetric" in exc.value.message
    assert exc.value.payload["pair"] == [1, 2]


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
    borel, inclusion = sl2.subalgebra_on_basis([{0: 1}, {1: 1}])
    assert borel.dim == 2
    assert borel.bracket((1, 0), (0, 1)) == (Q(0), Q(2))
    assert inclusion.apply((0, 1)) == (Q(0), Q(1), Q(0))
    assert borel.derived_series()[-1].dim == 0
    # [h, 2e] = 2 (2e), and [f, 2e] leaves the line through e
    line, _, (ad_h, ad_f) = sl2.subalgebra_and_derivations([{1: Q(2)}], [{0: Q(1)}, {2: Q(1)}])
    assert line.dim == 1
    assert ad_h == Matrix([[2]])
    assert ad_f is None
    # on the standard basis the coordinates are the brackets themselves
    standard = [{s: Q(1)} for s in range(3)]
    same, _, (ad_e,) = sl2.subalgebra_and_derivations(standard, [{1: Q(3)}])
    assert same is sl2
    assert ad_e == dense_ad(sl2, (0, 3, 0))
    assert sl2.subalgebra_and_derivations(standard, [])[2] == []


@settings(max_examples=40, deadline=None)
@given(ALGEBRAS)
def test_subalgebra_and_derivations_restrict_ad_to_an_ideal(g):
    # on the derived ideal every e_i acts: ad(e_i) inclusion = inclusion D_i
    rows = list(g.derived_subalgebra().span.rows.values())
    units = [{i: Q(1)} for i in range(g.dim)]
    sub, inclusion, derivations = g.subalgebra_and_derivations(rows, units)
    assert (sub, inclusion) == g.subalgebra_on_basis(rows)
    for i, d in enumerate(derivations):
        assert d.nrows == d.ncols == len(rows)
        assert dense_ad(g, unit_vector(g.dim, i)) * inclusion == inclusion * d


def test_subalgebra_rejects_unclosed_span():
    sl2 = catalog_algebra("sl2")
    with pytest.raises(ValueError):
        sl2.subalgebra_on_basis([{1: 1}, {2: 1}])


def test_subalgebra_rejects_dependent_basis():
    sl2 = catalog_algebra("sl2")
    with pytest.raises(ValueError):
        sl2.subalgebra_on_basis([{0: 1}, {0: 2}])


def project(ideal, v):
    """Quotient coordinates of v: reduce modulo the ideal, keep the non-pivot coordinates."""
    residue = dense(ideal.span.reduce(sparse(v)), ideal.ambient_dim)
    return tuple(x for j, x in enumerate(residue) if j not in ideal.pivots)


def test_quotient_of_heisenberg_by_center():
    heis = catalog_algebra("heisenberg")
    centre = heis.center()
    q, section = heis.quotient(centre)
    assert q.dim == 2
    assert all(entry == (Q(0), Q(0)) for row in q.table for entry in row)
    # projecting the section gives back the quotient coordinates
    assert [project(centre, section.column(a)) for a in range(2)] == [(1, 0), (0, 1)]
    assert project(centre, (1, 2, 5)) == (Q(1), Q(2))


def test_quotient_rejects_non_ideals():
    sl2 = catalog_algebra("sl2")
    line_e = Subspace.from_vectors(3, [(0, 1, 0)])
    with pytest.raises(ValueError):
        sl2.quotient(line_e)


def test_quotient_bracket_compatible_with_projection():
    t3 = catalog_algebra("t3")
    series = t3.lower_central_series()
    nil = series[1]
    q, section = t3.quotient(nil)
    for i in range(6):
        for j in range(6):
            u = unit_vector(6, i)
            v = unit_vector(6, j)
            assert q.bracket(project(nil, u), project(nil, v)) == project(nil, t3.bracket(u, v))
    for a in range(q.dim):
        assert project(nil, section.column(a)) == unit_vector(q.dim, a)


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
