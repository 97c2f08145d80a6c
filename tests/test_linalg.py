"""Exact linear algebra: echelon forms, subspaces, polynomials."""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ado.linalg import (
    Matrix,
    Polynomial,
    SparseMatrix,
    SparseSpan,
    Subspace,
    bracket_residual,
    compose_mod,
    extended_gcd,
    kernel,
    minimal_polynomial,
    modular_inverse,
    poly_gcd,
    rank,
    rref,
    solve,
    sparse_block_diag,
    sparse_combination,
    squarefree_part,
)

from helpers import (
    block_diag,
    dense_complement,
    dense_intersect,
    dense_rref,
    from_dense,
    matrices,
    rationals,
    square_matrices,
    to_dense,
)


def test_rref_of_dependent_rows():
    reduced, pivots = rref(Matrix([[2, 4], [1, 2]]))
    assert reduced == Matrix([[1, 2], [0, 0]])
    assert pivots == (0,)


def test_rref_identity_fixed_point():
    m = Matrix.identity(3)
    reduced, pivots = rref(m)
    assert reduced == m
    assert pivots == (0, 1, 2)


def test_rref_pivot_normalization():
    reduced, pivots = rref(Matrix([[0, 3, 6], [2, 1, 1]]))
    assert pivots == (0, 1)
    assert reduced == Matrix([[1, 0, Q(-1, 2)], [0, 1, 2]])


def test_kernel_of_sum_functional():
    ker = kernel(Matrix([[1, 1]]))
    assert ker.dim == 1
    assert ker.basis == Matrix([[1, -1]])


def test_kernel_of_invertible_is_zero():
    assert kernel(Matrix([[1, 1], [0, 1]])).dim == 0


def test_solve_unique():
    x = solve(Matrix([[1, 1], [0, 1]]), (Q(3), Q(1)))
    assert x == (Q(2), Q(1))


def test_solve_underdetermined_sets_free_vars_to_zero():
    x = solve(Matrix([[1, 2, 3]]), (Q(6),))
    assert x == (Q(6), Q(0), Q(0))


def test_solve_inconsistent():
    assert solve(Matrix([[1, 1], [2, 2]]), (Q(1), Q(3))) is None


def test_solve_and_from_vectors_coerce_int_inputs_to_fractions():
    x = solve(Matrix([[2, 0], [0, 4]]), (1, 2))
    assert x == (Q(1, 2), Q(1, 2))
    assert all(type(c) is Q for c in x)
    assert solve(Matrix([[1, 1], [2, 2]]), (1, 3)) is None
    s = Subspace.from_vectors(3, [(2, 4, 6), (0, 3, 1)])
    assert s.basis == Matrix([[1, 0, Q(7, 3)], [0, 1, Q(1, 3)]])
    assert s.pivots == (0, 1)
    assert all(type(c) is Q for row in s.basis.rows for c in row)
    with pytest.raises(ValueError):
        Subspace.from_vectors(3, [(1, 2)])


def test_matrix_product_and_power():
    m = Matrix([[1, 1], [0, 1]])
    assert m * m == Matrix([[1, 2], [0, 1]])
    assert m.power(5) == Matrix([[1, 5], [0, 1]])
    assert m.power(0) == Matrix.identity(2)


def test_block_diag_shapes():
    b = block_diag([Matrix([[1]]), Matrix([[2, 3], [4, 5]])])
    assert b == Matrix([[1, 0, 0], [0, 2, 3], [0, 4, 5]])
    empty = block_diag([])
    assert (empty.nrows, empty.ncols) == (0, 0)


def test_subspace_membership_and_coordinates():
    s = Subspace.from_vectors(3, [(1, 0, 2), (0, 1, 1)])
    assert s.member((2, 3, 7))
    assert not s.member((0, 0, 1))
    assert s.coordinates_of((2, 3, 7)) == (Q(2), Q(3))


def test_subspace_sum_and_intersect():
    s = Subspace.from_vectors(3, [(1, 0, 0), (0, 1, 0)])
    t = Subspace.from_vectors(3, [(0, 1, 0), (0, 0, 1)])
    assert s.sum(t).dim == 3
    meet = s.intersect(t)
    assert meet.dim == 1
    assert meet.member((0, 1, 0))


def test_extend_complement_full_space():
    s = Subspace.from_vectors(3, [(1, 1, 0)])
    c = s.extend_complement()
    assert c.dim == 2
    assert s.sum(c).dim == 3
    assert s.intersect(c).dim == 0
    # complement made of standard vectors at non-pivot indices
    assert c.basis == Matrix([[0, 1, 0], [0, 0, 1]])


def test_extend_complement_within_subspace():
    within = Subspace.from_vectors(4, [(1, 0, 0, 0), (0, 1, 1, 0), (0, 0, 0, 1)])
    s = Subspace.from_vectors(4, [(1, 1, 1, 0)])
    c = s.extend_complement(within)
    assert c.dim == 2
    assert s.sum(c) == within
    assert s.intersect(c).dim == 0
    assert within.contains(c)


def test_extend_complement_rejects_escapees():
    within = Subspace.from_vectors(3, [(1, 0, 0)])
    s = Subspace.from_vectors(3, [(0, 1, 0)])
    with pytest.raises(ValueError):
        s.extend_complement(within)


def test_minimal_polynomial_frozen_cases():
    t = Polynomial.variable()
    one = Polynomial.one()
    assert minimal_polynomial(Matrix.zeros(2, 2)) == t
    assert minimal_polynomial(Matrix.identity(3)) == t - one
    # a single 2x2 Jordan block
    assert minimal_polynomial(Matrix([[1, 1], [0, 1]])) == (t - one) * (t - one)
    # rotation by a quarter turn
    assert minimal_polynomial(Matrix([[0, -1], [1, 0]])) == t * t + one
    assert minimal_polynomial(Matrix([], ncols=0)) == one


def test_poly_gcd_frozen_case():
    t = Polynomial.variable()
    one = Polynomial.one()
    assert poly_gcd(t * t - one, t - one) == t - one
    assert poly_gcd(Polynomial.zero(), Polynomial.zero()) == Polynomial.zero()


def test_squarefree_part_frozen_case():
    t = Polynomial.variable()
    one = Polynomial.one()
    assert squarefree_part((t - one) * (t - one)) == t - one
    assert squarefree_part(t * t * (t - one)) == t * (t - one)
    assert squarefree_part(Polynomial((2,))) == Polynomial.one()


def test_modular_inverse_frozen_case():
    t = Polynomial.variable()
    one = Polynomial.one()
    modulus = t * t + one
    assert modular_inverse(t, modulus) == -t
    with pytest.raises(ValueError):
        modular_inverse(t, t * t)


def test_compose_mod():
    t = Polynomial.variable()
    modulus = t * t + Polynomial.one()
    # (t^2)(t) mod t^2+1 = -1
    assert compose_mod(t * t, t, modulus) == Polynomial((-1,))


def test_polynomial_matrix_evaluation():
    t = Polynomial.variable()
    m = Matrix([[1, 1], [0, 1]])
    p = t * t - 2 * t + Polynomial.one()
    assert p(m) == Matrix.zeros(2, 2)


def test_polynomial_zero_conventions():
    z = Polynomial.zero()
    assert z.degree == -1
    assert z.coeffs == ()
    assert Polynomial((0, 0)).is_zero()


@given(matrices(3, 4))
def test_rref_idempotent(m):
    reduced, pivots = rref(m)
    again, pivots2 = rref(reduced)
    assert again == reduced
    assert pivots2 == pivots


@given(
    st.integers(min_value=0, max_value=4).flatmap(lambda n: matrices(n, 4)),
    st.lists(st.integers(min_value=0, max_value=5), max_size=3),
)
def test_rref_matches_dense_gauss_jordan(m, picks):
    # repeated rows and zero rows on top of the drawn ones; 0 x n when none are drawn
    extra = [m.rows[i % m.nrows] for i in picks if m.nrows] + [(Q(0),) * 4] * (len(picks) % 2)
    m = Matrix(list(m.rows) + extra, ncols=4)
    assert rref(m) == dense_rref(m)


@given(matrices(3, 5))
def test_rank_nullity(m):
    assert rank(m) + kernel(m).dim == m.ncols


@given(matrices(4, 4), matrices(4, 4))
def test_dimension_formula_for_sum_and_intersection(a, b):
    s = Subspace.from_vectors(4, a.rows)
    t = Subspace.from_vectors(4, b.rows)
    assert s.sum(t).dim + s.intersect(t).dim == s.dim + t.dim


@settings(max_examples=60)
@given(
    st.integers(min_value=0, max_value=3).flatmap(lambda k: matrices(k, 5)),
    st.integers(min_value=0, max_value=3).flatmap(lambda k: matrices(k, 5)),
    matrices(1, 5),
)
def test_intersect_and_complement_match_dense(a, b, shared):
    # one row in both, so the intersection is seldom zero
    s = Subspace.from_vectors(5, a.rows + shared.rows)
    t = Subspace.from_vectors(5, b.rows + shared.rows)
    meet = s.intersect(t)
    assert meet == dense_intersect(s, t)
    assert s.sum(t) == Subspace.from_vectors(5, s.basis.rows + t.basis.rows)
    for within in (s, t, Subspace.full(5)):
        assert meet.extend_complement(within) == dense_complement(meet, within)
    assert s.extend_complement() == dense_complement(s, Subspace.full(5))


@given(matrices(3, 3), st.lists(rationals(), min_size=3, max_size=3))
def test_solve_produces_solutions(m, b):
    x = solve(m, tuple(b))
    if x is not None:
        assert m.apply(x) == tuple(b)


@settings(max_examples=40)
@given(square_matrices(4))
def test_minimal_polynomial_annihilates(m):
    p = minimal_polynomial(m)
    assert p.leading() == 1
    assert p(m).is_zero()
    # least degree: the powers below the degree are independent
    powers = []
    acc = Matrix.identity(m.nrows)
    for _ in range(p.degree):
        powers.append(acc.flatten())
        acc = acc * m
    assert len(dense_rref(Matrix(powers, ncols=m.nrows * m.nrows))[1]) == p.degree


@given(square_matrices(3))
def test_kernel_vectors_annihilate(m):
    ker = kernel(m)
    for v in ker.vectors():
        assert all(x == 0 for x in m.apply(v))


@settings(max_examples=40)
@given(
    st.lists(rationals(), min_size=1, max_size=4),
    st.lists(rationals(), min_size=1, max_size=4),
)
def test_extended_gcd_identity(fc, gc):
    f, g = Polynomial(fc), Polynomial(gc)
    d, u, v = extended_gcd(f, g)
    assert u * f + v * g == d
    if not (f.is_zero() and g.is_zero()):
        assert (f % d).is_zero() if not d.is_zero() else False
        assert (g % d).is_zero()


@settings(max_examples=40)
@given(
    st.lists(rationals(), min_size=1, max_size=5),
    st.lists(rationals(), min_size=2, max_size=4),
)
def test_polynomial_divmod_identity(fc, gc):
    f, g = Polynomial(fc), Polynomial(gc)
    if g.is_zero():
        return
    q, r = divmod(f, g)
    assert q * g + r == f
    assert r.degree < g.degree


# the sparse type against the dense Matrix as the reference: equal exactly


@given(matrices(3, 4))
def test_sparse_round_trip(m):
    sparse = from_dense(m)
    assert to_dense(sparse) == m
    assert sparse.is_zero() == m.is_zero()
    columns = [m.column(j) for j in range(m.ncols)]
    assert SparseMatrix.from_columns(columns, m.nrows).cols == sparse.cols
    assert sparse.flatten() == {k: x for k, x in enumerate(m.flatten()) if x}
    assert all(0 not in col.values() for col in sparse.cols)


@given(matrices(3, 3), matrices(3, 3), rationals(), rationals())
def test_sparse_combination_matches_dense(a, b, c, d):
    mats = (from_dense(a), from_dense(b))
    assert to_dense(sparse_combination((c, d), mats, 3, 3)) == a.scale(c) + b.scale(d)
    assert to_dense(sparse_combination((), (), 2, 3)) == Matrix.zeros(2, 3)


@given(
    matrices(3, 3),
    matrices(3, 3),
    st.lists(matrices(3, 3), max_size=3),
    st.lists(rationals(), min_size=3, max_size=3),
)
def test_bracket_residual_matches_dense(a, b, mats, coeffs):
    expected = a * b - b * a
    for c, m in zip(coeffs, mats):
        expected = expected - m.scale(c)
    sa, sb = from_dense(a), from_dense(b)
    got = bracket_residual(sa, sb, [(c, from_dense(m)) for c, m in zip(coeffs, mats)])
    assert to_dense(got) == expected
    # a commutator minus itself leaves nothing
    commutator = from_dense(a * b - b * a)
    assert bracket_residual(sa, sb, [(Q(1), commutator)]).is_zero()


@given(matrices(2, 3), matrices(3, 1), matrices(1, 2))
def test_sparse_block_diag_matches_dense(a, b, c):
    blocks = [a, b, c]
    sparse = sparse_block_diag([from_dense(m) for m in blocks])
    assert to_dense(sparse) == block_diag(blocks)


@given(
    st.lists(matrices(2, 3), min_size=1, max_size=4),
    st.lists(rationals(), min_size=2, max_size=2),
)
def test_sparse_span_rank_matches_rref(mats, coeffs):
    # append a combination of the first two so the rank can fall short
    if len(mats) >= 2:
        mats = mats + [mats[0].scale(coeffs[0]) + mats[1].scale(coeffs[1])]
    span = SparseSpan()
    for m in mats:
        span.add(from_dense(m).flatten())
    assert span.dim == len(dense_rref(Matrix([m.flatten() for m in mats], ncols=6))[1])


@given(
    st.integers(min_value=0, max_value=4).flatmap(lambda n: matrices(n, 5)),
    matrices(1, 5),
    st.lists(rationals(), min_size=4, max_size=4),
)
def test_sparse_span_reduce_matches_subspace(m, v, coeffs):
    # one row combined from the others, so the span can be rank deficient
    member = tuple(sum((c * row[j] for c, row in zip(coeffs, m.rows)), Q(0)) for j in range(5))
    rows = list(m.rows) + [member]
    span = SparseSpan()
    for row in rows:
        span.add(dict(enumerate(row)))
    stored = {p: dict(row) for p, row in span.rows.items()}
    dense = Subspace.from_vectors(5, rows)
    assert sorted(span.rows) == list(dense.pivots)
    for vec in (v.rows[0], member, tuple(a + b for a, b in zip(v.rows[0], member))):
        residue = span.reduce(dict(enumerate(vec)))
        assert tuple(residue.get(j, Q(0)) for j in range(5)) == dense.reduce(vec)
        assert 0 not in residue.values()
    reduced = span.reduced()
    assert list(reduced) == sorted(reduced)
    for p, row in reduced.items():
        assert row[p] == 1
        assert all(p not in other for q, other in reduced.items() if q != p)
    assert [tuple(row.get(j, Q(0)) for j in range(5)) for row in reduced.values()] == list(
        dense.basis.rows
    )
    assert span.rows == stored
