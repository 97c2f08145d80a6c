"""Exact linear algebra: echelon forms, subspaces, polynomials."""

from fractions import Fraction as Q
from operator import add, sub
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ado.lie import LieAlgebra
from ado.linalg import (
    Matrix,
    Polynomial,
    SparseSpan,
    Subspace,
    compose_mod,
    coordinates_in,
    extended_gcd,
    failing_brackets,
    kernel,
    minimal_polynomial,
    modular_inverse,
    poly_gcd,
    rank,
    solve,
    span_kernel,
    sparse_block_diag,
    sparse_combination,
    squarefree_part,
    unit_vector,
)
from ado.pipeline import verify_representation

from helpers import (
    block_diag,
    dense_complement,
    dense_intersect,
    dense_kernel,
    dense_apply,
    dense_failing_brackets,
    dense_product,
    dense_rowwise,
    dense_rref,
    matrices,
    rationals,
    sparse,
    square_matrices,
)


def echelon(m: Matrix) -> Subspace:
    """The row space of m; its basis and pivots are the reduced row echelon form."""
    return Subspace.from_vectors(m.ncols, m.rows)


def test_rref_of_dependent_rows():
    m = Matrix([[2, 4], [1, 2]])
    assert echelon(m).basis == ((1, 2),)
    assert echelon(m).pivots == (0,)
    assert rank(m) == 1
    assert dense_rref(m) == (Matrix([[1, 2], [0, 0]]), (0,))


def test_rref_identity_fixed_point():
    m = Matrix.identity(3)
    assert echelon(m).basis == m.rows
    assert echelon(m).pivots == (0, 1, 2)
    assert rank(m) == 3
    assert solve(m, (1, 2, 3)) == (1, 2, 3)


def test_rref_pivot_normalization():
    m = Matrix([[0, 3, 6], [2, 1, 1]])
    assert echelon(m).pivots == (0, 1)
    assert echelon(m).basis == ((1, 0, Q(-1, 2)), (0, 1, 2))
    assert dense_rref(m) == (Matrix(echelon(m).basis), (0, 1))
    # the third column is the free one, so the solution has it zero
    assert solve(m, (3, 1)) == (Q(0), Q(1), Q(0))


def test_kernel_of_sum_functional():
    ker = kernel(Matrix([[1, 1]]))
    assert ker.dim == 1
    assert ker.basis == ((1, -1),)


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
    assert s.basis == ((1, 0, Q(7, 3)), (0, 1, Q(1, 3)))
    assert s.pivots == (0, 1)
    assert all(type(c) is Q for row in s.basis for c in row)
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
    assert s.member({0: 2, 1: 3, 2: 7})
    assert not s.member({2: 1})
    assert s.coordinates_of({0: Q(2), 1: Q(3), 2: Q(7)}) == {0: Q(2), 1: Q(3)}
    with pytest.raises(ValueError):
        s.coordinates_of({2: Q(1)})


def test_subspace_sum_and_intersect():
    s = Subspace.from_vectors(3, [(1, 0, 0), (0, 1, 0)])
    t = Subspace.from_vectors(3, [(0, 1, 0), (0, 0, 1)])
    assert s.sum(t).dim == 3
    meet = s.intersect(t)
    assert meet.dim == 1
    assert meet.member({1: 1})


def test_extend_complement_full_space():
    s = Subspace.from_vectors(3, [(1, 1, 0)])
    c = s.extend_complement()
    assert c.dim == 2
    assert s.sum(c).dim == 3
    assert s.intersect(c).dim == 0
    # complement made of standard vectors at non-pivot indices
    assert c.basis == ((0, 1, 0), (0, 0, 1))


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
    s = echelon(m)
    again = Subspace.from_vectors(4, s.basis)
    assert again.basis == s.basis
    assert again.pivots == s.pivots


@given(
    st.integers(min_value=0, max_value=4).flatmap(lambda n: matrices(n, 4)),
    st.lists(st.integers(min_value=0, max_value=5), max_size=3),
    st.lists(rationals(), min_size=8, max_size=8),
)
def test_rref_matches_dense_gauss_jordan(m, picks, b):
    # repeated rows and zero rows on top of the drawn ones; 0 x n when none are drawn
    extra = [m.rows[i % m.nrows] for i in picks if m.nrows] + [(Q(0),) * 4] * (len(picks) % 2)
    m = Matrix(list(m.rows) + extra, ncols=4)
    reduced, pivots = dense_rref(m)
    assert echelon(m).basis == reduced.rows[: len(pivots)]
    assert echelon(m).pivots == pivots
    assert rank(m) == len(pivots)
    # solve against the dense echelon form of the augmented system
    b = tuple(b[: m.nrows])
    aug_reduced, aug_pivots = dense_rref(Matrix([r + (x,) for r, x in zip(m.rows, b)], ncols=5))
    if 4 in aug_pivots:
        assert solve(m, b) is None
    else:
        expected = [Q(0)] * 4
        for r, p in enumerate(aug_pivots):
            expected[p] = aug_reduced[r, 4]
        assert solve(m, b) == tuple(expected)


def test_coordinates_in_frozen_cases():
    basis = [{0: Q(1)}, {0: Q(1), 1: Q(1)}]
    assert coordinates_in(basis, [{1: Q(3)}, {0: Q(2)}, {}]) == [{0: Q(-3), 1: Q(3)}, {0: Q(2)}, {}]
    # outside the span, including at an index past every basis coordinate
    assert coordinates_in(basis, [{2: Q(1)}, {0: Q(1), 3: Q(5)}]) == [None, None]
    assert coordinates_in([], [{}, {0: Q(1)}]) == [{}, None]
    for dependent in ([{0: Q(1)}, {0: Q(2)}], [{1: Q(1)}, {}]):
        with pytest.raises(ValueError):
            coordinates_in(dependent, [])


@settings(max_examples=80)
@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.tuples(
            st.integers(min_value=0, max_value=n).flatmap(lambda k: matrices(k, n)),
            matrices(1, n),
            st.lists(rationals(), min_size=n, max_size=n),
        )
    )
)
def test_coordinates_in_matches_solve(case):
    basis, other, coeffs = case
    n, k = other.ncols, basis.nrows
    sparse_basis = [sparse(row) for row in basis.rows]
    inside = tuple(sum((c * row[j] for c, row in zip(coeffs, basis.rows)), Q(0)) for j in range(n))
    vectors = [inside, other.rows[0]]
    if rank(basis) < k:
        with pytest.raises(ValueError):
            coordinates_in(sparse_basis, map(sparse, vectors))
        return
    found = coordinates_in(sparse_basis, map(sparse, vectors))
    # the basis vectors as the columns of a dense system
    columns = Matrix.from_columns(basis.rows, nrows=n)
    for v, coords in zip(vectors, found):
        x = solve(columns, v)
        assert coords == (None if x is None else sparse(x))
    assert found[0] == sparse(coeffs[:k])


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
    assert s.sum(t) == Subspace.from_vectors(5, s.basis + t.basis)
    for within in (s, t, Subspace.full(5)):
        assert meet.extend_complement(within) == dense_complement(meet, within)
    assert s.extend_complement() == dense_complement(s, Subspace.full(5))


def add_rows(u, v):
    return tuple(x + y for x, y in zip(u, v))


def span_of_rows(m: Matrix, k: int) -> Subspace:
    """The span of the first k rows of m; k = 6 gives the whole of Q^5."""
    return Subspace.full(5) if k == 6 else Subspace.from_vectors(5, m.rows[:k])


def dense_echelon_rows(vectors, n: int) -> tuple:
    """The nonzero rows of the dense reduced row echelon form of the stacked vectors."""
    reduced, pivots = dense_rref(Matrix(list(vectors), ncols=n))
    return reduced.rows[: len(pivots)]


@settings(max_examples=120)
@given(
    matrices(5, 5),
    st.integers(min_value=0, max_value=6),
    st.sampled_from(["same", "copy", "part", "plus", "as many", "fresh"]),
    matrices(5, 5),
    st.integers(min_value=0, max_value=6),
)
def test_subspace_operations_match_dense_on_trivial_and_general_operands(m, j, relation, other, k):
    # s is zero, the whole space or a general span; t is s, s from other
    # rows (reversed, each row plus the next), a part of s, s with a row
    # added, a span of as many other rows, or another draw
    s = span_of_rows(m, j)
    rows = s.basis[::-1]
    t = {
        "same": lambda: s,
        "copy": lambda: Subspace.from_vectors(5, [*map(add_rows, rows, rows[1:]), *rows[-1:]]),
        "part": lambda: Subspace.from_vectors(5, s.basis[: min(k, s.dim)]),
        "plus": lambda: Subspace.from_vectors(5, s.basis + other.rows[:1]),
        "as many": lambda: Subspace.from_vectors(5, other.rows[: s.dim]),
        "fresh": lambda: span_of_rows(other, k),
    }[relation]()
    if relation == "copy":
        assert t == s
    for a, b in ((s, t), (t, s)):
        joined = dense_echelon_rows(a.basis + b.basis, 5)
        assert a.sum(b).basis == joined
        assert a.intersect(b) == dense_intersect(a, b)
        assert a.contains(b) is (len(joined) == a.dim)
        if a.contains(b):
            assert b.extend_complement(a) == dense_complement(b, a)
        else:
            with pytest.raises(ValueError):
                b.extend_complement(a)
        assert a.extend_complement() == dense_complement(a, Subspace.full(5))


def test_trivial_operands_answer_without_elimination(monkeypatch):
    s = Subspace.from_vectors(4, [(1, 2, 0, 1), (0, 1, 1, 0)])
    equal = Subspace.from_vectors(4, [(1, 3, 1, 1), (0, 2, 2, 0)])
    zero, full = Subspace.zero(4), Subspace.full(4)
    full_span = SparseSpan(sparse(r) for r in [(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 2)])
    complement = Subspace.from_vectors(4, [(0, 0, 1, 0), (0, 0, 0, 1)])

    def refuse(*args):
        raise AssertionError("eliminated although the answer was known")

    for method in ("add", "reduce"):
        monkeypatch.setattr(SparseSpan, method, refuse)
    assert Subspace.zero(4) == zero and Subspace.full(4) == full
    for a in (s, zero, full):
        assert a.sum(zero) == zero.sum(a) == a
        assert a.sum(full) == full.sum(a) == full
        assert a.intersect(zero) == zero.intersect(a) == zero
        assert a.intersect(full) == full.intersect(a) == a
        assert a.sum(a) == a.intersect(a) == a
        assert full.contains(a) and a.contains(zero) and a.contains(a)
    assert s.sum(equal) == s.intersect(equal) == s
    assert s.contains(equal) and equal.contains(s)
    assert not s.contains(full) and not zero.contains(s)
    assert s.extend_complement() == complement
    assert full.extend_complement() == zero and zero.extend_complement() == full
    assert Subspace(4, full_span) == full
    assert span_kernel(full_span, 4) == zero


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=5).flatmap(lambda n: matrices(n, n)))
def test_full_rank_spans_reduce_to_the_unit_rows(m):
    # the rows m_i and m_i + e_i span Q^n, and their echelon rows are not unit rows
    n = m.nrows
    rows = [*m.rows, *(add_rows(row, unit_vector(n, i)) for i, row in enumerate(m.rows))]
    span = SparseSpan(map(sparse, rows))
    units = {i: {i: Q(1)} for i in range(n)}
    assert span.dim == n and span.reduced() == units
    with patch.object(SparseSpan, "reduced", side_effect=AssertionError("reduced a full span")):
        assert Subspace(n, span).span.rows == units
    assert Subspace(n, span).basis == dense_echelon_rows(rows, n)
    assert span_kernel(span, n) == Subspace.zero(n) == dense_kernel(Matrix(rows, ncols=n))
    assert kernel(Matrix(rows, ncols=n)) == Subspace.zero(n)


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
    for v in ker.basis:
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


# the column-sparse Matrix against dense row-major references: equal exactly


def sparse_copy(m: Matrix) -> Matrix:
    """The same matrix built from sparse columns, explicit zeros included."""
    cols = [dict(enumerate(m.column(j))) for j in range(m.ncols)]
    return Matrix.from_sparse(m.nrows, m.ncols, cols)


@settings(max_examples=60)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.tuples(
            matrices(n, n),
            matrices(n, n),
            matrices(n, 3),
            st.lists(rationals(), min_size=n, max_size=n),
        )
    ),
    rationals(),
    st.integers(min_value=0, max_value=3),
)
def test_matrix_matches_dense_reference(drawn, c, k):
    a, b, r, v = drawn
    n = a.nrows
    for m in (a, b, r, Matrix.zeros(n, 3)):
        # from dense rows with their zeros, and from sparse columns with theirs
        copy = sparse_copy(m)
        assert copy == m and hash(copy) == hash(m)
        assert all(0 not in col.values() for col in m.cols)
        assert m.flatten() == tuple(x for row in m.rows for x in row)
        assert m.entries() == {i: x for i, x in enumerate(m.flatten()) if x}
        assert m.transpose().rows == tuple(zip(*m.rows))
        assert m.is_zero() == (not any(m.flatten()))
    assert a * b == dense_product(a, b)
    assert a * r == dense_product(a, r)
    assert a + b == dense_rowwise(a, b, add)
    assert a - b == dense_rowwise(a, b, sub)
    assert a.scale(c) == dense_rowwise(a, a, lambda x, _: c * x)
    assert a.apply(v) == dense_apply(a, v)
    assert r.transpose().apply(v) == dense_apply(r.transpose(), v)
    expected = Matrix.identity(n)
    for _ in range(k):
        expected = dense_product(expected, a)
    assert a.power(k) == expected
    assert (a == b) == (a.rows == b.rows)
    if a == b:
        assert hash(a) == hash(b)


@given(matrices(3, 4))
def test_sparse_round_trip(m):
    columns = [m.column(j) for j in range(m.ncols)]
    assert Matrix.from_columns(columns, m.nrows) == m
    assert Matrix(m.rows, ncols=m.ncols).cols == m.cols
    assert tuple(zip(*columns)) == m.rows
    assert m.entries() == {k: x for k, x in enumerate(m.flatten()) if x}
    assert all(0 not in col.values() for col in m.cols)


@given(matrices(3, 3), matrices(3, 3), rationals(), rationals())
def test_sparse_combination_matches_dense(a, b, c, d):
    expected = dense_rowwise(a, b, lambda x, y: c * x + d * y)
    assert sparse_combination((c, d), (a, b), 3, 3) == expected
    assert sparse_combination((), (), 2, 3) == Matrix.zeros(2, 3)


def wide_rationals():
    # denominators up to 2^64, as b4 in a random basis reaches
    return st.one_of(rationals(), rationals(2**64, 2**64))


@given(
    matrices(3, 3, wide_rationals()),
    matrices(3, 3, wide_rationals()),
    st.lists(matrices(3, 3, wide_rationals()), max_size=3),
    st.lists(st.one_of(st.just(Q(0)), wide_rationals()), min_size=3, max_size=3),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2),
    wide_rationals().filter(bool),
)
def test_failing_brackets_matches_dense(a, b, mats, coeffs, i, j, delta):
    operands = (a, b, *mats)
    hashes = [hash(m) for m in operands]
    commutator = dense_rowwise(dense_product(a, b), dense_product(b, a), sub)
    entry = Matrix.from_sparse(3, 3, ({i: delta} if t == j else {} for t in range(3)))
    # a and b four times over, each copy with its own relation
    family = [a, b] * 4 + [*mats, Matrix.identity(3), a * b - b * a, commutator + entry]
    n = 8 + len(mats)
    terms = tuple((8 + t, c) for t, c in enumerate(coeffs[: len(mats)]))
    relations = {
        (0, 1): terms,
        # a term with coefficient 0 changes nothing, whatever columns its matrix fills
        (2, 3): tuple((k, Q(0)) for k in range(8, n + 1)) + terms,
        # a commutator minus itself holds, and one tampered entry fails
        (4, 5): ((n + 1, Q(1)),),
        (6, 7): ((n + 2, Q(1)),),
    }
    expected = commutator
    for c, m in zip(coeffs, mats):
        expected = dense_rowwise(expected, m, lambda x, y: x - c * y)
    fails = [] if expected.is_zero() else [(0, 1), (2, 3)]
    assert failing_brackets(family, relations) == fails + [(6, 7)]
    assert failing_brackets(family, relations) == dense_failing_brackets(family, relations)
    # checking a family changes no matrix's entries, equality or hash
    rebuilt = [Matrix(m.rows, ncols=3) for m in operands]
    assert rebuilt == list(operands)
    assert [hash(m) for m in operands] == hashes == list(map(hash, rebuilt))


@settings(max_examples=80)
@given(st.data())
def test_failing_brackets_and_verify_rank_on_block_diagonal_families(data):
    """Direct sums of 2x2 and 3x3 blocks, most matrices on one block, so
    that most pairs have supports that miss each other; one entry off the
    blocks is tampered.  The pairs found and the rank must match a dense
    Fraction oracle and SparseSpan, whatever the shortcut skips."""
    sizes = data.draw(st.lists(st.sampled_from((2, 3)), min_size=2, max_size=3))
    size = sum(sizes)
    family = []
    for _ in range(data.draw(st.integers(min_value=2, max_value=5))):
        on = data.draw(st.sets(st.integers(min_value=0, max_value=len(sizes) - 1), min_size=1))
        family.append(block_diag([
            data.draw(matrices(s, s)) if b in on else Matrix.zeros(s, s)
            for b, s in enumerate(sizes)
        ]))
    if data.draw(st.booleans()):
        # a dependent member, so that the rank can fall short
        family.append(family[0].scale(data.draw(rationals())) + family[1])
    t = data.draw(st.integers(min_value=0, max_value=len(family) - 1))
    r = data.draw(st.integers(min_value=0, max_value=sizes[0] - 1))
    s = data.draw(st.integers(min_value=sizes[0], max_value=size - 1))
    r, s = data.draw(st.sampled_from([(r, s), (s, r)]))
    cols = [dict(col) for col in family[t].cols]
    cols[s][r] = data.draw(rationals().filter(bool))
    family[t] = Matrix.from_sparse(size, size, cols)
    count = len(family)
    pairs = [(i, j) for i in range(count) for j in range(count) if i != j]
    chosen = data.draw(st.permutations(pairs))[: data.draw(st.integers(1, len(pairs)))]
    term = st.tuples(st.integers(min_value=0, max_value=count - 1), rationals())
    relations = {
        pair: tuple(data.draw(st.lists(term, max_size=2, unique_by=lambda x: x[0])))
        for pair in chosen
    }
    assert failing_brackets(family, relations) == dense_failing_brackets(family, relations)
    # the kernel of the coefficient map, from the int rank in verify_representation
    span = SparseSpan(m.entries() for m in family)
    report = verify_representation(LieAlgebra.from_sparse(count, {}), tuple(family), size)
    assert report.kernel_dimension == count - span.dim


@given(matrices(2, 3), matrices(3, 1), matrices(1, 2))
def test_sparse_block_diag_matches_dense(a, b, c):
    blocks = [a, b, c]
    assert sparse_block_diag(blocks) == block_diag(blocks)


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
        span.add(m.entries())
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
        assert residue == dense.span.reduce(dict(enumerate(vec)))
        assert 0 not in residue.values()
    reduced = span.reduced()
    assert list(reduced) == sorted(reduced)
    for p, row in reduced.items():
        assert row[p] == 1
        assert all(p not in other for q, other in reduced.items() if q != p)
    assert tuple(tuple(row.get(j, Q(0)) for j in range(5)) for row in reduced.values()) == (
        dense.basis
    )
    assert span.rows == stored
