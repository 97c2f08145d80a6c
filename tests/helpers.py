"""Shared test utilities: strategies, oracles and small generators."""

from __future__ import annotations

import random
from fractions import Fraction as Q
from itertools import permutations, product
from operator import sub

from hypothesis import strategies as st

from ado.linalg import QONE, Matrix, Subspace, kernel, solve, unit_vector


def sparse(v) -> dict:
    """A dense vector as {index: value} of its nonzero coordinates."""
    return {i: Q(x) for i, x in enumerate(v) if x}


def dense(v: dict, n: int) -> tuple:
    """An {index: value} vector as a dense tuple of length n."""
    return tuple(v.get(i, Q(0)) for i in range(n))


def rationals(max_num: int = 4, max_den: int = 3) -> st.SearchStrategy[Q]:
    return st.builds(
        Q,
        st.integers(min_value=-max_num, max_value=max_num),
        st.integers(min_value=1, max_value=max_den),
    )


def matrices(
    nrows: int, ncols: int, entries: st.SearchStrategy[Q] | None = None
) -> st.SearchStrategy[Matrix]:
    return st.lists(
        st.lists(rationals() if entries is None else entries, min_size=ncols, max_size=ncols),
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
    return Matrix(rows, ncols=ncols), tuple(pivots)


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
        [row[c] for row in s.basis] + [-row[c] for row in t.basis]
        for c in range(s.ambient_dim)
    ]
    coeffs = dense_kernel(Matrix(constraints, ncols=s.dim + t.dim))
    combine = Matrix.from_columns(s.basis, nrows=s.ambient_dim)
    vectors = [dense_apply(combine, a[: s.dim]) for a in coeffs.basis]
    return Subspace.from_vectors(s.ambient_dim, vectors)


def dense_complement(s: Subspace, within: Subspace) -> Subspace:
    """Reference complement: the basis vectors of within at the non-pivot
    columns of the dense echelon form of s in within's coordinates."""
    coords = Matrix(
        [dense(within.coordinates_of(row), within.dim) for row in s.span.rows.values()],
        ncols=within.dim,
    )
    _, pivots = dense_rref(coords)
    chosen = [row for i, row in enumerate(within.basis) if i not in pivots]
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


# dense row-major references for the column-sparse Matrix


def dense_product(a: Matrix, b: Matrix) -> Matrix:
    """Reference product: each row of a combines the rows of b."""
    if a.ncols != b.nrows:
        raise ValueError("shape mismatch in product")
    brows = b.rows
    out = []
    for arow in a.rows:
        acc = [Q(0)] * b.ncols
        for k, x in enumerate(arow):
            if x:
                for j, y in enumerate(brows[k]):
                    if y:
                        acc[j] += x * y
        out.append(acc)
    return Matrix(out, ncols=b.ncols)


def dense_apply(m: Matrix, v) -> tuple:
    """Reference matrix times column vector, one dot product per row."""
    if len(v) != m.ncols:
        raise ValueError("vector length mismatch")
    out = []
    for row in m.rows:
        s = Q(0)
        for a, x in zip(row, v):
            if a and x:
                s += a * x
        out.append(s)
    return tuple(out)


def dense_rowwise(a: Matrix, b: Matrix, op) -> Matrix:
    """Reference entrywise op(x, y) of two matrices of one shape, row by row."""
    if (a.nrows, a.ncols) != (b.nrows, b.ncols):
        raise ValueError("shape mismatch")
    rows = [[op(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a.rows, b.rows)]
    return Matrix(rows, ncols=a.ncols)


def dense_failing_brackets(matrices, relations) -> list:
    """Reference for failing_brackets: the pairs of relations, in its order,
    whose dense residual M_i M_j - M_j M_i - sum of c M_k is nonzero."""
    failing = []
    for (i, j), terms in relations.items():
        a, b = matrices[i], matrices[j]
        residual = dense_rowwise(dense_product(a, b), dense_product(b, a), sub)
        for k, c in terms:
            residual = dense_rowwise(residual, matrices[k], lambda x, y: x - c * y)
        if not residual.is_zero():
            failing.append((i, j))
    return failing


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
    """Reference adjoint: the matrix of y -> [x, y], column j summed over
    the dense table entries [e_i, e_j] weighted by the coordinates of x."""
    table = g.table
    cols = [
        [sum((Q(a) * table[i][j][k] for i, a in enumerate(x)), Q(0)) for k in range(g.dim)]
        for j in range(g.dim)
    ]
    return Matrix.from_columns(cols, nrows=g.dim)


def dense_bracket_span(g, left: Subspace, right: Subspace) -> Subspace:
    """Reference bracket span: ad(u) v for every pair of basis vectors u, v."""
    return Subspace.from_vectors(
        g.dim, [dense_apply(dense_ad(g, u), v) for u in left.basis for v in right.basis]
    )


def record_bracket_spans(monkeypatch) -> list:
    """Patch LieAlgebra.bracket_span to record (algebra, left, right) for
    each span it computes.  An algebra hands back its memoised subspace
    for a pair it has seen, so a span returned before is not recorded
    again; the list keeps every algebra, and with it every such
    subspace, alive."""
    from ado.lie import LieAlgebra

    original = LieAlgebra.bracket_span
    computed: list = []
    seen: set[int] = set()

    def recording(self, left, right):
        result = original(self, left, right)
        if id(result) not in seen:
            seen.add(id(result))
            computed.append((self, left, right))
        return result

    monkeypatch.setattr(LieAlgebra, "bracket_span", recording)
    return computed


def dense_leibniz_witness(g, d: Matrix):
    """Reference Leibniz check: the first pair i < j on which d [e_i, e_j]
    differs from [d e_i, e_j] + [e_i, d e_j], from dense adjoints."""
    units = [unit_vector(g.dim, i) for i in range(g.dim)]
    images = [dense_apply(d, e) for e in units]
    ads = [dense_ad(g, e) for e in units]
    ad_images = [dense_ad(g, image) for image in images]
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            lhs = dense_apply(d, dense_apply(ads[i], units[j]))
            rhs = tuple(
                a + b
                for a, b in zip(dense_apply(ad_images[i], units[j]), dense_apply(ads[i], images[j]))
            )
            if lhs != rhs:
                return (i, j)
    return None


def dense_centralizer(g, s: Subspace) -> Subspace:
    """Reference centralizer: the kernel of the stacked dense ad(v) over s's basis."""
    if s.dim == 0:
        return g.full_space()
    rows = [row for v in s.basis for row in dense_ad(g, v).rows]
    return dense_kernel(Matrix(rows, ncols=g.dim))


def dense_center(g) -> Subspace:
    """Reference centre: the kernel of the stacked dense ad(e_i), one per basis vector."""
    rows = [row for i in range(g.dim) for row in dense_ad(g, unit_vector(g.dim, i)).rows]
    return dense_kernel(Matrix(rows, ncols=g.dim)) if rows else Subspace.full(g.dim)


def dense_killing_form(g) -> Matrix:
    """Reference Killing form: the traces of full products of adjoint matrices."""
    ads = [dense_ad(g, unit_vector(g.dim, i)) for i in range(g.dim)]
    return Matrix(
        [[(ads[i] * ads[j]).trace() for j in range(g.dim)] for i in range(g.dim)],
        ncols=g.dim,
    )


def killing_acting_part(g, p: Subspace, n: Subspace) -> Subspace:
    """Reference acting part of a reductive split, by the Killing form.

    Within [p, p] the acting part is the Killing-orthogonal complement of
    the part of p that centralizes n; within the centre of p it is the
    package's plain complement.  Both are read in the basis of p's
    echelon rows, the basis reductive_split uses.
    """
    palg, pincl = g.subalgebra_on_basis(p.span.rows.values())
    kernel_local = Subspace.from_vectors(
        palg.dim, [solve(pincl, v) for v in p.intersect(g.centralizer(n)).basis]
    )
    derived, centre = palg.derived_subalgebra(), palg.center()
    acting = kernel_local.intersect(centre).extend_complement(within=centre)
    if derived.dim:
        dalg, dincl = palg.subalgebra_on_basis(map(sparse, derived.basis))
        killing = dense_killing_form(dalg)
        kernel = kernel_local.intersect(derived)
        # K is symmetric: K k is the row of the constraint K(k, w) = 0
        constraints = [killing.apply(solve(dincl, v)) for v in kernel.basis]
        orthogonal = (
            dense_kernel(Matrix(constraints, ncols=dalg.dim))
            if constraints
            else Subspace.full(dalg.dim)
        )
        acting = acting.sum(Subspace.from_vectors(palg.dim, map(dincl.apply, orthogonal.basis)))
    return Subspace.from_vectors(g.dim, map(pincl.apply, acting.basis))


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
        t_inv.nrows, [t_inv.apply(v) for v in s.basis]
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


def sl2_semidirect_sym(k: int):
    """sl2 acting on Sym^k of its plane: basis (h, e, f, v_0, ..., v_k),
    with h v_i = (k - 2i) v_i, e v_i = i (k - i + 1) v_{i-1} and
    f v_i = v_{i+1}; k = 1 is sl2_semidirect_plane."""
    from ado.lie import LieAlgebra

    brackets = {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}}
    for i in range(k + 1):
        if k != 2 * i:
            brackets[0, 3 + i] = {3 + i: k - 2 * i}
        if i:
            brackets[1, 3 + i] = {2 + i: i * (k - i + 1)}
        if i < k:
            brackets[2, 3 + i] = {4 + i: 1}
    return LieAlgebra.from_sparse(k + 4, brackets)


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


def sl3(on_space=False):
    """sl3 from its root vectors; on_space adds its action on Q^3, as
    affine 4 x 4 matrices."""
    n = 4 if on_space else 3

    def unit(i, j):
        return Matrix([[1 if (r, c) == (i, j) else 0 for c in range(n)] for r in range(n)])

    gens = [unit(0, 1), unit(1, 2), unit(1, 0), unit(2, 1)]
    if on_space:
        gens.append(unit(2, 3))
    return nilpotent_closure(gens)


def direct_sum(*parts):
    """Direct sum of algebras, each part's basis after the previous ones."""
    from ado.lie import LieAlgebra

    brackets, offset = {}, 0
    for g in parts:
        for i in range(g.dim):
            for j in range(i + 1, g.dim):
                brackets[offset + i, offset + j] = {offset + k: c for k, c in g.nonzero[i][j]}
        offset += g.dim
    return LieAlgebra.from_sparse(offset, brackets)


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
        for v in root_space.basis:
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
            weights[i] += term.member(sparse(u))
        term = Subspace.from_vectors(
            n, [algebra.bracket(u, v) for u in units for v in term.basis]
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


def derivation_disagreements(built, d):
    """Columns of the built derivation action of d that depart from the word oracle.

    The expected image of a monomial is the Leibniz sum: for each letter
    of its sorted word, the word with that letter replaced by d(letter),
    straightened by the oracle, with the heavy terms dropped.
    """
    mod = built.module
    weights, bound = oracle_weights(mod.algebra), mod.truncation
    action = built.derivation_action(d)
    found = []
    for mono, col in zip(mod.monomials, action.cols):
        word = [letter for letter, e in enumerate(mono) for _ in range(e)]
        expected = {}
        for t, letter in enumerate(word):
            for k in range(mod.algebra.dim):
                c = d[k, letter]
                if c:
                    replaced = word[:t] + [k] + word[t + 1 :]
                    for m, v in oracle_straighten(mod.algebra, replaced).items():
                        expected[m] = expected.get(m, Q(0)) + c * v
        expected = {
            m: c for m, c in expected.items() if c and monomial_weight(m, weights) <= bound
        }
        got = {mod.monomials[row]: c for row, c in col.items()}
        if got != expected:
            found.append((mono, got, expected))
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


def enveloping_inputs(g):
    """n's algebra in the adapted basis and the acting derivations, as
    ado_representation hands them to the enveloping block."""
    from ado.decompose import reductive_split
    from ado.expansion import saturate
    from ado.pipeline import adapted_basis

    pres = saturate(g)
    q, nil = pres.algebra, pres.nilpotent_part
    split = reductive_split(q, pres.reductive_part, nil)
    nalg, _, derivations = q.subalgebra_and_derivations(
        adapted_basis(q, nil), split.acting_part.span.rows.values()
    )
    return nalg, derivations


def oracle_cut_dimension(algebra, derivations, bound):
    """Dimension of the cut enveloping block, from the word oracle alone.

    The module is the monomials of oracle weight at most bound, acted on
    by the oracle's insertions and Leibniz sums with the heavy terms
    dropped.  sym(m) is the mean of the oracle's straightening over every
    ordering of m's word, pi's rows are the rows of the inverse of the
    matrix of those columns at the monomials of degree 1, and the block
    is the span of pi's rows closed under f -> f M for every action
    matrix M, grown by whole rounds until a round adds nothing.
    """
    weights = oracle_weights(algebra)
    r = algebra.dim
    light = sorted(
        (
            m
            for m in product(*(range(bound // w + 1) for w in weights))
            if monomial_weight(m, weights) <= bound
        ),
        key=sum,
    )
    index = {m: i for i, m in enumerate(light)}
    size = len(light)

    def column(terms):
        col = [Q(0)] * size
        for m, c in terms.items():
            if m in index:
                col[index[m]] += c
        return col

    def word(m):
        return [letter for letter, e in enumerate(m) for _ in range(e)]

    def leibniz(d, m):
        w, terms = word(m), {}
        for t, letter in enumerate(w):
            for k in range(r):
                if d[k, letter]:
                    for mono, v in oracle_straighten(algebra, w[:t] + [k] + w[t + 1 :]).items():
                        terms[mono] = terms.get(mono, Q(0)) + d[k, letter] * v
        return terms

    def symmetrized(m):
        orderings = list(permutations(word(m)))
        terms = {}
        for w in orderings:
            for mono, v in oracle_straighten(algebra, list(w)).items():
                terms[mono] = terms.get(mono, Q(0)) + v / len(orderings)
        return terms

    actions = [[column(_oracle_insert(algebra, a, m)) for m in light] for a in range(r)]
    actions += [[column(leibniz(d, m)) for m in light] for d in derivations]
    sym = Matrix.from_columns([column(symmetrized(m)) for m in light], nrows=size)
    # the row of the inverse at x_a solves y S = e_a
    pi = [
        solve(sym.transpose(), unit_vector(size, index[tuple(int(b == a) for b in range(r))]))
        for a in range(r)
    ]
    closure = Subspace.from_vectors(size, pi)
    while True:
        images = [
            [sum(f[i] * cols[j][i] for i in range(size) if f[i]) for j in range(size)]
            for f in closure.basis
            for cols in actions
        ]
        grown = Subspace.from_vectors(size, [*closure.basis, *images])
        if grown.dim == closure.dim:
            return closure.dim
        closure = grown


def strictly_upper_triangular(n):
    """n_n: strictly upper triangular n x n matrices on the matrix units E_ij, i < j."""
    return matrix_units_algebra([(i, j) for i in range(n) for j in range(i + 1, n)])


def upper_triangular(n):
    """b_n: upper triangular n x n matrices on the matrix units E_ij, i <= j, row by row."""
    return matrix_units_algebra([(i, j) for i in range(n) for j in range(i, n)])


def matrix_units_algebra(units):
    """The span of the given matrix units E_ij, which must be bracket-closed.

    [E_ij, E_kl] = delta_jk E_il - delta_li E_kj.
    """
    from ado.lie import LieAlgebra

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
    """Lie closure of matrices, strictly upper triangular ones here, as a LieAlgebra.

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
