"""Shared test utilities: strategies, oracles and small generators."""

from __future__ import annotations

import random
from fractions import Fraction as Q
from itertools import product

from hypothesis import strategies as st

from ado.linalg import QONE, Matrix, SparseMatrix, Subspace, kernel, solve, unit_vector


def rationals(max_num: int = 4, max_den: int = 3) -> st.SearchStrategy[Q]:
    return st.builds(
        Q,
        st.integers(min_value=-max_num, max_value=max_num),
        st.integers(min_value=1, max_value=max_den),
    )


def matrices(nrows: int, ncols: int) -> st.SearchStrategy[Matrix]:
    return st.lists(
        st.lists(rationals(), min_size=ncols, max_size=ncols),
        min_size=nrows,
        max_size=nrows,
    ).map(lambda rows: Matrix(rows, ncols=ncols))


def square_matrices(max_n: int = 4) -> st.SearchStrategy[Matrix]:
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: matrices(n, n)
    )


def dense_rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reference reduced row echelon form by dense Gauss-Jordan, with the pivot columns."""
    rows = [list(r) for r in m.rows]
    nrows, ncols = m.nrows, m.ncols
    pivots: list[int] = []
    pr = 0
    for pc in range(ncols):
        pivot_row = None
        for r in range(pr, nrows):
            if rows[r][pc]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
        inv = QONE / rows[pr][pc]
        if inv != 1:
            rows[pr] = [x * inv for x in rows[pr]]
        for r in range(nrows):
            if r != pr and rows[r][pc]:
                f = rows[r][pc]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[pr])]
        pivots.append(pc)
        pr += 1
        if pr == nrows:
            break
    return Matrix._of_rows(tuple(map(tuple, rows)), ncols), tuple(pivots)


def dense_kernel(m: Matrix) -> Subspace:
    """Reference right kernel, read off the dense reduced row echelon form."""
    reduced, pivots = dense_rref(m)
    basis = []
    for f in (j for j in range(m.ncols) if j not in pivots):
        v = [Q(0)] * m.ncols
        v[f] = QONE
        for r, p in enumerate(pivots):
            v[p] = -reduced.rows[r][f]
        basis.append(v)
    return Subspace.from_vectors(m.ncols, basis)


def dense_intersect(s: Subspace, t: Subspace) -> Subspace:
    """Reference intersection: the kernel of the coefficients (a, b) with a.S = b.T."""
    if s.dim == 0 or t.dim == 0:
        return Subspace.zero(s.ambient_dim)
    constraints = [
        [row[c] for row in s.basis.rows] + [-row[c] for row in t.basis.rows]
        for c in range(s.ambient_dim)
    ]
    coeffs = dense_kernel(Matrix(constraints, ncols=s.dim + t.dim))
    combine = s.basis.transpose()
    return Subspace.from_vectors(s.ambient_dim, [combine.apply(a[: s.dim]) for a in coeffs.vectors()])


def dense_complement(s: Subspace, within: Subspace) -> Subspace:
    """Reference complement: the basis vectors of within at the non-pivot
    columns of the dense echelon form of s in within's coordinates."""
    coords = Matrix([within.coordinates_of(row) for row in s.basis.rows], ncols=within.dim)
    _, pivots = dense_rref(coords)
    chosen = [row for i, row in enumerate(within.basis.rows) if i not in pivots]
    return Subspace.from_vectors(s.ambient_dim, chosen)


def block_diag(mats) -> Matrix:
    """Dense block diagonal matrix; blocks may be rectangular or empty."""
    total_c = sum(m.ncols for m in mats)
    rows = []
    col_off = 0
    for m in mats:
        right = total_c - col_off - m.ncols
        rows.extend((Q(0),) * col_off + row + (Q(0),) * right for row in m.rows)
        col_off += m.ncols
    return Matrix(rows, ncols=total_c)


# the dense bridge: tests compare sparse results with the dense reference
def from_dense(m: Matrix) -> SparseMatrix:
    columns = list(zip(*m.rows)) if m.nrows else [()] * m.ncols
    return SparseMatrix.from_columns(columns, m.nrows)


def to_dense(m: SparseMatrix) -> Matrix:
    rows = [[Q(0)] * m.ncols for _ in range(m.nrows)]
    for j, col in enumerate(m.cols):
        for i, x in col.items():
            rows[i][j] = x
    return Matrix(rows, ncols=m.ncols)


def seeded_matrix(rng: random.Random, nrows: int, ncols: int, span: int = 3) -> Matrix:
    return Matrix(
        [
            [Q(rng.randint(-span, span), rng.randint(1, 2)) for _ in range(ncols)]
            for _ in range(nrows)
        ],
        ncols=ncols,
    )


def change_of_basis(g, t: Matrix):
    """Rewrite an algebra in the basis given by the columns of t."""
    from ado.lie import LieAlgebra

    t_inv = invert(t)
    assert t_inv is not None
    dim = g.dim
    table = [
        [t_inv.apply(g.bracket(t.column(a), t.column(b))) for b in range(dim)]
        for a in range(dim)
    ]
    return LieAlgebra(table)


def seeded_change_of_basis(rng: random.Random, g):
    """The algebra in a seeded random rational basis, redrawn until invertible."""
    while True:
        t = seeded_matrix(rng, g.dim, g.dim)
        if invert(t) is not None:
            return change_of_basis(g, t)


def dense_ad(g, x) -> Matrix:
    """Reference adjoint: the matrix of y -> [x, y], one bracket per unit vector."""
    cols = [g.bracket(x, unit_vector(g.dim, j)) for j in range(g.dim)]
    return Matrix.from_columns(cols, nrows=g.dim)


def dense_centralizer(g, s: Subspace) -> Subspace:
    """Reference centralizer: the kernel of the stacked dense ad(v) over s's basis."""
    if s.dim == 0:
        return g.full_space()
    rows = [row for v in s.vectors() for row in dense_ad(g, v).rows]
    return dense_kernel(Matrix(rows, ncols=g.dim))


def dense_killing_form(g) -> Matrix:
    """Reference Killing form: the traces of full products of adjoint matrices."""
    ads = [dense_ad(g, unit_vector(g.dim, i)) for i in range(g.dim)]
    return Matrix(
        [[(ads[i] * ads[j]).trace() for j in range(g.dim)] for i in range(g.dim)],
        ncols=g.dim,
    )


def dense_subalgebra_table(g, basis):
    """Reference subalgebra table: one dense solve in the given basis per bracket."""
    basis_t = Matrix(basis, ncols=g.dim).transpose()
    return [[solve(basis_t, g.bracket(u, v)) for v in basis] for u in basis]


def dense_jacobi_failures(table):
    """Every triple i < j < k of a dense bracket table whose Jacobi sum is nonzero.

    Returns (triple, residual strings) in triple order, with no use of LieAlgebra.
    """
    n = len(table)

    def bracket_with(i, v):
        out = [Q(0)] * n
        for l, x in enumerate(v):
            for m in range(n):
                out[m] += x * Q(table[i][l][m])
        return out

    failures = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                terms = (
                    bracket_with(i, table[j][k]),
                    bracket_with(j, table[k][i]),
                    bracket_with(k, table[i][j]),
                )
                s = [a + b + c for a, b, c in zip(*terms)]
                if any(s):
                    failures.append(([i, j, k], [str(x) for x in s]))
    return failures


def transport_subspace(s, t_inv: Matrix):
    """Coordinates of a subspace after the change of basis with inverse t_inv."""
    from ado.linalg import Subspace

    return Subspace.from_vectors(
        t_inv.nrows, [t_inv.apply(v) for v in s.vectors()]
    )


def sl2_semidirect_plane():
    """sl2 acting on its standard plane: basis (h, e, f, a, b)."""
    from ado.lie import LieAlgebra

    return LieAlgebra.from_sparse(
        5,
        {
            (0, 1): {1: 2},
            (0, 2): {2: -2},
            (1, 2): {0: 1},
            (0, 3): {3: 1},
            (0, 4): {4: -1},
            (1, 4): {3: 1},
            (2, 3): {4: 1},
        },
    )


def sl2_plus_solv2():
    """Direct sum of sl2 and the nonabelian two-dimensional algebra."""
    from ado.lie import LieAlgebra

    return LieAlgebra.from_sparse(
        5,
        {
            (0, 1): {1: 2},
            (0, 2): {2: -2},
            (1, 2): {0: 1},
            (3, 4): {4: 1},
        },
    )


def sl2_plus_sl2_semidirect_plane():
    """One inert sl2 summand next to one acting on a plane."""
    from ado.lie import LieAlgebra

    return LieAlgebra.from_sparse(
        8,
        {
            (0, 1): {1: 2},
            (0, 2): {2: -2},
            (1, 2): {0: 1},
            (3, 4): {4: 2},
            (3, 5): {5: -2},
            (4, 5): {3: 1},
            (3, 6): {6: 1},
            (3, 7): {7: -1},
            (4, 7): {6: 1},
            (5, 6): {7: 1},
        },
    )


def invert(m: Matrix) -> Matrix | None:
    """Inverse by columnwise solving, or None for a singular matrix."""
    if not m.is_square():
        return None
    cols = []
    for j in range(m.ncols):
        x = solve(m, unit_vector(m.nrows, j))
        if x is None:
            return None
        cols.append(x)
    candidate = Matrix.from_columns(cols, nrows=m.nrows)
    if m * candidate != Matrix.identity(m.nrows):
        return None
    return candidate


def semisimple_from_eigenvalues(d: Matrix, eigenvalues) -> Matrix:
    """Oracle: sum of eigenvalue times projector onto its root space.

    The root space of lam is the kernel of (d - lam I)^n.  The caller
    supplies the full rational spectrum; the root spaces must fill the
    whole space or this raises.
    """
    n = d.nrows
    ident = Matrix.identity(n)
    columns = []
    diag_values = []
    for lam in eigenvalues:
        shifted = d - ident.scale(Q(lam))
        root_space = kernel(shifted.power(n))
        for v in root_space.vectors():
            columns.append(v)
            diag_values.append(Q(lam))
    if len(columns) != n:
        raise ValueError("root spaces do not fill the whole space")
    u = Matrix.from_columns(columns, nrows=n)
    u_inv = invert(u)
    assert u_inv is not None
    diag = Matrix([[diag_values[i] if i == j else Q(0) for j in range(n)] for i in range(n)])
    return u * diag * u_inv


def jordan_block(lam: Q, size: int) -> Matrix:
    rows = []
    for i in range(size):
        row = [Q(0)] * size
        row[i] = Q(lam)
        if i + 1 < size:
            row[i + 1] = Q(1)
        rows.append(row)
    return Matrix(rows, ncols=size)


def conjugated_jordan(rng: random.Random, n: int) -> tuple[Matrix, Matrix, list[Q]]:
    """Random matrix with known Jordan structure.

    Returns (d, expected_semisimple, eigenvalues): a conjugate of a
    Jordan matrix built from small rational eigenvalues, the conjugate
    of its diagonal part, and the eigenvalue list.
    """
    pool = [Q(-2), Q(-1), Q(0), Q(1), Q(2), Q(1, 2)]
    blocks = []
    diag_blocks = []
    eigenvalues = []
    remaining = n
    while remaining:
        size = rng.randint(1, min(3, remaining))
        lam = rng.choice(pool)
        blocks.append(jordan_block(lam, size))
        diag_blocks.append(Matrix.identity(size).scale(lam))
        if lam not in eigenvalues:
            eigenvalues.append(lam)
        remaining -= size
    j = block_diag(blocks)
    s_j = block_diag(diag_blocks)
    lower = Matrix(
        [
            [Q(1) if i == j2 else (Q(rng.randint(-2, 2)) if i > j2 else Q(0)) for j2 in range(n)]
            for i in range(n)
        ]
    )
    upper = Matrix(
        [
            [Q(1) if i == j2 else (Q(rng.randint(-2, 2)) if i < j2 else Q(0)) for j2 in range(n)]
            for i in range(n)
        ]
    )
    t = lower * upper
    t_inv = invert(t)
    assert t_inv is not None
    return t * j * t_inv, t * s_j * t_inv, eigenvalues

def oracle_straighten(algebra, word):
    """Independent rewriting: recursively straighten the tail, then
    bubble the head letter into each resulting monomial."""
    r = algebra.dim
    if not word:
        return {(0,) * r: Q(1)}
    tail = oracle_straighten(algebra, word[1:])
    head = word[0]
    out = {}
    for mono, coeff in tail.items():
        for key, value in _oracle_insert(algebra, head, mono).items():
            out[key] = out.get(key, Q(0)) + coeff * value
    return {k: v for k, v in out.items() if v}


def _oracle_insert(algebra, letter, mono):
    support = [j for j, a in enumerate(mono) if a]
    if not support or letter <= support[0]:
        bumped = list(mono)
        bumped[letter] += 1
        return {tuple(bumped): Q(1)}
    first = support[0]
    shrunk = list(mono)
    shrunk[first] -= 1
    shrunk = tuple(shrunk)
    # letter * first = first * letter + [letter, first]
    out = {}
    swapped = _oracle_insert(algebra, letter, shrunk)
    for mono2, coeff in swapped.items():
        for key, value in _oracle_insert(algebra, first, mono2).items():
            out[key] = out.get(key, Q(0)) + coeff * value
    for k, c in enumerate(algebra.table[letter][first]):
        if c:
            for key, value in _oracle_insert(algebra, k, shrunk).items():
                out[key] = out.get(key, Q(0)) + c * value
    return {k: v for k, v in out.items() if v}


def monomial_weight(mono, weights):
    return sum(w * a for w, a in zip(weights, mono))


def oracle_weights(algebra):
    """Depth of each basis vector in the lower central series, by brute force.

    Each term is spanned from the brackets of the basis with the previous
    term; the algebra must be nilpotent.
    """
    n = algebra.dim
    units = [unit_vector(n, i) for i in range(n)]
    term = Subspace.from_vectors(n, units)
    weights = [0] * n
    while term.dim:
        for i, u in enumerate(units):
            weights[i] += term.member(u)
        term = Subspace.from_vectors(
            n, [algebra.bracket(u, v) for u in units for v in term.vectors()]
        )
    return tuple(weights)


def oracle_weighted_count(weights, bound):
    """Coefficients of the product of 1 / (1 - t^w) up to t^bound, summed."""
    series = [1] + [0] * bound
    for w in weights:
        geometric = [int(d % w == 0) for d in range(bound + 1)]
        series = [
            sum(series[a] * geometric[d - a] for a in range(d + 1))
            for d in range(bound + 1)
        ]
    return sum(series)


def module_disagreements(built):
    """Where a built module departs from the word oracle; empty when it agrees.

    Checks the weights, the dimension against the generating function, the
    basis against the light monomials, and every column of every left
    action against the oracle's insertion with the heavy terms dropped.
    """
    mod = built.module
    weights, bound = oracle_weights(mod.algebra), mod.truncation
    found = []
    if mod.weights != weights:
        found.append(("weights", mod.weights, weights))
    if mod.dim != oracle_weighted_count(weights, bound):
        found.append(("dimension", mod.dim, oracle_weighted_count(weights, bound)))
    light = {
        m
        for m in product(*(range(bound // w + 1) for w in weights))
        if monomial_weight(m, weights) <= bound
    }
    if set(mod.monomials) != light:
        found.append(("basis", sorted(mod.monomials), sorted(light)))
    for letter, matrix in enumerate(built.left):
        for mono, col in zip(mod.monomials, matrix.cols):
            got = {mod.monomials[row]: c for row, c in col.items()}
            expected = {
                m: c
                for m, c in _oracle_insert(mod.algebra, letter, mono).items()
                if monomial_weight(m, weights) <= bound
            }
            if got != expected:
                found.append(("left", letter, mono, got, expected))
    return found


def heavy_insert_failures(algebra, weights, bound, degree):
    """Letter times heavy monomial products that come out with a light term.

    Runs over every letter and every monomial of weight above bound and
    total degree at most degree, with the oracle's insertion.
    """
    failures = []
    for mono in product(range(degree + 1), repeat=algebra.dim):
        if sum(mono) > degree or monomial_weight(mono, weights) <= bound:
            continue
        for letter in range(algebra.dim):
            light = [
                m
                for m in _oracle_insert(algebra, letter, mono)
                if monomial_weight(m, weights) <= bound
            ]
            if light:
                failures.append((letter, mono, light))
    return failures


def strictly_upper_triangular(n):
    """n_n: strictly upper triangular n x n matrices on the matrix units E_ij, i < j.

    [E_ij, E_kl] = delta_jk E_il - delta_li E_kj.
    """
    from ado.lie import LieAlgebra

    units = [(i, j) for i in range(n) for j in range(i + 1, n)]
    index = {u: a for a, u in enumerate(units)}
    brackets = {}
    for a, (i, j) in enumerate(units):
        for b, (k, l) in enumerate(units):
            if a < b:
                entry = {}
                if j == k:
                    entry[index[(i, l)]] = 1
                if l == i:
                    entry[index[(k, j)]] = -1
                if entry:
                    brackets[(a, b)] = entry
    return LieAlgebra.from_sparse(len(units), brackets)


def nilpotent_closure(gens):
    """Lie closure of strictly upper triangular matrices, as a LieAlgebra.

    The basis is the generators and their brackets in the order they
    turn up, skipping dependent ones, so it is rarely adapted to the
    lower central series; each structure constant comes from one solve.
    """
    from ado.lie import LieAlgebra

    basis = []
    queue = list(gens)
    while queue:
        m = queue.pop(0)
        flats = [b.flatten() for b in basis] + [m.flatten()]
        if Subspace.from_vectors(m.nrows * m.ncols, flats).dim > len(basis):
            queue.extend(b * m - m * b for b in basis)
            basis.append(m)
    if not basis:
        return LieAlgebra.from_sparse(0, {})
    change = Matrix([b.flatten() for b in basis]).transpose()
    brackets = {}
    for i, a in enumerate(basis):
        for j in range(i + 1, len(basis)):
            b = basis[j]
            coeffs = solve(change, (a * b - b * a).flatten())
            brackets[(i, j)] = {k: c for k, c in enumerate(coeffs) if c}
    return LieAlgebra.from_sparse(len(basis), brackets)


def nilpotent_algebras():
    """Lie closures of 2-3 random strictly upper triangular integer 4 x 4
    matrices with entries in -2..2."""
    size = 4
    cells = [(i, j) for i in range(size) for j in range(i + 1, size)]

    def upper(entries):
        rows = [[0] * size for _ in range(size)]
        for (i, j), x in zip(cells, entries):
            rows[i][j] = x
        return Matrix(rows)

    entries = st.lists(
        st.integers(min_value=-2, max_value=2),
        min_size=len(cells),
        max_size=len(cells),
    )
    return st.lists(entries.map(upper), min_size=2, max_size=3).map(nilpotent_closure)
