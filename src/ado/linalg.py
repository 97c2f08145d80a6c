"""Exact linear algebra over the rationals.

Every scalar a caller sees is a fractions.Fraction; there is no
floating point anywhere in this package.  Matrix is the one matrix
type: immutable, held as columns of its nonzero entries, with one
check for brackets.  That check runs over a whole family of matrices:
it clears the family's denominators once and runs its sums in Python
int, which spares Fraction a gcd on every multiply-add, and it answers
a pair whose supports miss each other without a product.  Operations
return new values.

SparseSpan, an echelon span of sparse vectors, is the package's
Gaussian elimination over Fraction: ranks, residues, reduced row
echelon forms, kernels, solutions, minimal polynomials and coordinates
in a new basis all come out of it; rank, kernel and solve feed it a
matrix's rows.  Where the rows are ints, _reduce_int eliminates by
cross-multiplication and content division, with no fraction formed.
Vectors are {index: value} dicts of their nonzero coordinates, and
coordinates_in is the one change of basis.  A Subspace keeps a
SparseSpan of reduced rows, so that equality, membership, coordinates,
images and complements are all canonical: two computations that produce
the same subspace produce the same rows.  Dense tuples (unit_vector,
solve, Matrix rows and columns, Subspace.from_vectors and basis) are
the boundary for callers that hold dense data.

Polynomials live here too (dense, coefficients listed from the constant
term up) together with the handful of polynomial operations the rest of
the package needs: monic gcd, squarefree part, modular inverse by the
extended Euclidean algorithm, and composition modulo a polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

Q = Fraction

QZERO = Q(0)
QONE = Q(1)

Vector = tuple[Q, ...]


def to_q(value) -> Q:
    """Coerce ints, strings like '3/4' and Fractions to Fraction."""
    if isinstance(value, Q):
        return value
    if isinstance(value, (int, str)):
        return Q(value)
    raise TypeError(f"cannot use {value!r} as an exact rational")


def unit_vector(n: int, i: int) -> Vector:
    return tuple(QONE if j == i else QZERO for j in range(n))


def vec(values: Iterable) -> Vector:
    return tuple(to_q(v) for v in values)


class Matrix:
    """Immutable exact matrix held as columns {row: value} of its nonzero entries.

    The public constructors drop zero entries and the sparse routines
    never store one, so equal matrices hold equal columns.  Dense rows,
    columns and flatten() are views built on each read; the package
    works on the columns.
    """

    __slots__ = ("nrows", "ncols", "cols")

    def __init__(self, rows: Iterable[Iterable], ncols: int | None = None):
        """From dense rows."""
        data = [vec(row) for row in rows]
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise ValueError("ragged rows")
            if ncols is not None and ncols != width:
                raise ValueError("ncols disagrees with row data")
            ncols = width
        elif ncols is None:
            raise ValueError("ncols required for a matrix with no rows")
        cols: list[dict[int, Q]] = [{} for _ in range(ncols)]
        for i, row in enumerate(data):
            for col, x in zip(cols, row):
                if x:
                    col[i] = x
        self._fill(len(data), ncols, cols)

    def _fill(self, nrows: int, ncols: int, cols: Iterable[dict[int, Q]]) -> None:
        object.__setattr__(self, "nrows", nrows)
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "cols", tuple(cols))

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def _wrap(cls, nrows: int, ncols: int, cols: Iterable[dict[int, Q]]) -> "Matrix":
        """Wrap columns that hold no zero entry, as _add_scaled leaves them.

        Products, sums and block diagonals build through here:
        dropping zeros again there nearly doubled verify_representation.
        """
        m = object.__new__(cls)
        m._fill(nrows, ncols, cols)
        return m

    @classmethod
    def from_sparse(cls, nrows: int, ncols: int, cols: Iterable[dict[int, Q]]) -> "Matrix":
        """From columns {row: value}; zero entries are dropped."""
        return cls._wrap(nrows, ncols, ({i: x for i, x in c.items() if x} for c in cols))

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[Q]], nrows: int) -> "Matrix":
        """From dense columns."""
        cols = [vec(c) for c in columns]
        if any(len(c) != nrows for c in cols):
            raise ValueError("column length disagrees with nrows")
        return cls.from_sparse(nrows, len(cols), map(dict, map(enumerate, cols)))

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "Matrix":
        return cls._wrap(nrows, ncols, ({} for _ in range(ncols)))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._wrap(n, n, ({j: QONE} for j in range(n)))

    @property
    def rows(self) -> tuple[Vector, ...]:
        """Dense rows, built on each read."""
        return tuple(tuple(col.get(i, QZERO) for col in self.cols) for i in range(self.nrows))

    def __getitem__(self, key: tuple[int, int]) -> Q:
        i, j = key
        return self.cols[j].get(i, QZERO)

    def column(self, j: int) -> Vector:
        col = self.cols[j]
        return tuple(col.get(i, QZERO) for i in range(self.nrows))

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def is_zero(self) -> bool:
        return not any(self.cols)

    def transpose(self) -> "Matrix":
        rows: list[dict[int, Q]] = [{} for _ in range(self.nrows)]
        for j, col in enumerate(self.cols):
            for i, x in col.items():
                rows[i][j] = x
        return Matrix._wrap(self.ncols, self.nrows, rows)

    def trace(self) -> Q:
        if not self.is_square():
            raise ValueError("trace of a non-square matrix")
        return sum((col.get(j, QZERO) for j, col in enumerate(self.cols)), QZERO)

    def entries(self) -> dict[int, Q]:
        """Nonzero entries keyed by their row-major position."""
        return {i * self.ncols + j: x for j, col in enumerate(self.cols) for i, x in col.items()}

    def flatten(self) -> Vector:
        """Dense row-major entries."""
        out = [QZERO] * (self.nrows * self.ncols)
        for k, x in self.entries().items():
            out[k] = x
        return tuple(out)

    def _check_shape(self, other: "Matrix") -> None:
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")

    def __add__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_shape(other)
        return sparse_combination((QONE, QONE), (self, other), self.nrows, self.ncols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_shape(other)
        return sparse_combination((QONE, -QONE), (self, other), self.nrows, self.ncols)

    def __neg__(self) -> "Matrix":
        return self.scale(Q(-1))

    def scale(self, c) -> "Matrix":
        c = to_q(c)
        cols = ({i: c * x for i, x in col.items()} for col in self.cols)
        return Matrix.from_sparse(self.nrows, self.ncols, cols)

    def __rmul__(self, other) -> "Matrix":
        if isinstance(other, (int, Q)):
            return self.scale(other)
        return NotImplemented

    def __mul__(self, other) -> "Matrix":
        if isinstance(other, (int, Q)):
            return self.scale(other)
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in product")
        # column t of the product combines the columns of self named in column t of other
        cols = []
        for bcol in other.cols:
            out: dict[int, Q] = {}
            for s, x in bcol.items():
                _add_scaled(out, self.cols[s], x)
            cols.append(out)
        return Matrix._wrap(self.nrows, other.ncols, cols)

    def apply(self, v: Sequence[Q]) -> Vector:
        """Matrix times column vector."""
        if len(v) != self.ncols:
            raise ValueError("vector length mismatch")
        out = self.apply_pairs((j, x) for j, x in enumerate(v) if x)
        return tuple(out.get(i, QZERO) for i in range(self.nrows))

    def apply_pairs(self, pairs: Iterable[tuple[int, Q]]) -> dict[int, Q]:
        """Matrix times the column vector with the given (index, value) pairs, as {row: value}."""
        out: dict[int, Q] = {}
        for j, x in pairs:
            _add_scaled(out, self.cols[j], x)
        return out

    def power(self, k: int) -> "Matrix":
        if not self.is_square():
            raise ValueError("power of a non-square matrix")
        if k < 0:
            raise ValueError("negative matrix power")
        result = Matrix.identity(self.nrows)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.cols == other.cols
        )

    def __hash__(self):
        return hash((self.nrows, self.ncols, tuple(frozenset(col.items()) for col in self.cols)))

    def __repr__(self) -> str:
        return f"Matrix({[list(map(str, row)) for row in self.rows]!r})"


def _add_scaled(target: dict, source: dict, coeff: Q) -> None:
    """target += coeff * source for sparse dict vectors, dropping zeros.

    Private so that the benchmark's tracer leaves this per-entry helper unwrapped.
    """
    for key, value in source.items():
        acc = target.get(key, QZERO) + coeff * value
        if acc:
            target[key] = acc
        else:
            target.pop(key, None)


def sparse_combination(
    coeffs: Iterable[Q], mats: Iterable[Matrix], nrows: int, ncols: int
) -> Matrix:
    """The nrows x ncols sum of c_k M_k."""
    cols: list[dict[int, Q]] = [{} for _ in range(ncols)]
    for c, m in zip(coeffs, mats):
        if c:
            for acc, col in zip(cols, m.cols):
                _add_scaled(acc, col, c)
    return Matrix._wrap(nrows, ncols, cols)


def _add_scaled_int(target: dict, source: dict, coeff: int) -> None:
    """_add_scaled for int values: target += coeff * source, dropping zeros."""
    for key, value in source.items():
        acc = target.get(key, 0) + coeff * value
        if acc:
            target[key] = acc
        else:
            target.pop(key, None)


def _integer_family(matrices: Sequence[Matrix]) -> tuple[int, list[list[dict[int, int]]]]:
    """(d, the columns of d M in int for each matrix M, an empty one kept as
    it is), d the least common denominator of the whole family."""
    d = lcm(*{x.denominator for m in matrices for col in m.cols for x in col.values()})
    return d, [
        [{i: x.numerator * (d // x.denominator) for i, x in col.items()} if col else col
         for col in m.cols]
        for m in matrices
    ]


def _reduce_int(span: dict[int, dict[int, int]], v: dict[int, int]) -> dict[int, int]:
    """The residue of the int row v against the rows of span, keyed by their
    pivots (lowest indices), by cross-multiplication and division by the
    content, so that no fraction is formed; empty when v lies in the span."""
    while v and (row := span.get(pivot := min(v))) is not None:
        scale, lead = row[pivot], v[pivot]
        if scale != 1:
            v = {k: c * scale for k, c in v.items()}
        _add_scaled_int(v, row, -lead)
        if v and (g := gcd(*v.values())) != 1:
            v = {k: c // g for k, c in v.items()}
    return v


def failing_brackets(
    matrices: Sequence[Matrix],
    relations: Mapping[tuple[int, int], Sequence[tuple[int, Q]]],
    family: tuple[int, list[list[dict[int, int]]]] | None = None,
) -> list[tuple[int, int]]:
    """The pairs (i, j) of relations, in its order, whose M_i M_j - M_j M_i
    is not the sum of c M_k over the pair's (k, c) terms; M square, of one size.

    The sums run in int on N = d M, d the common denominator of the family,
    taken from family when the caller has _integer_family(matrices) already:
    with e that of the coefficients, e (N_i N_j - N_j N_i) - sum of d e c N_k
    is d^2 e times the residual, read up to its first nonzero column.  A pair
    with no terms whose supports miss each other both ways, no nonzero column
    of one matrix meeting a nonzero row of the other, holds with no product.
    """
    d, ints = family or _integer_family(matrices)
    filled = [{j for j, col in enumerate(m.cols) if col} for m in matrices]
    rows = [{i for col in m.cols for i in col} for m in matrices]
    e = lcm(*{c.denominator for terms in relations.values() for _, c in terms})
    failing = []
    for (i, j), terms in relations.items():
        terms = [(k, -d * c.numerator * (e // c.denominator)) for k, c in terms if c]
        if not terms and rows[j].isdisjoint(filled[i]) and rows[i].isdisjoint(filled[j]):
            continue
        a, b = ints[i], ints[j]
        for t in filled[i].union(filled[j], *(filled[k] for k, _ in terms)):
            out: dict[int, int] = {}
            for s, x in b[t].items():
                _add_scaled_int(out, a[s], e * x)
            for s, x in a[t].items():
                _add_scaled_int(out, b[s], -e * x)
            for k, f in terms:
                _add_scaled_int(out, ints[k][t], f)
            if out:
                failing.append((i, j))
                break
    return failing


def sparse_block_diag(blocks: Sequence[Matrix]) -> Matrix:
    """Block diagonal matrix; blocks may be rectangular or empty."""
    cols: list[dict[int, Q]] = []
    offset = 0
    for m in blocks:
        cols.extend({i + offset: x for i, x in col.items()} for col in m.cols)
        offset += m.nrows
    return Matrix._wrap(offset, len(cols), cols)


class SparseSpan:
    """Echelon span of sparse vectors; each row is keyed by its pivot (lowest index, entry 1)."""

    def __init__(self, vectors: Iterable[dict[int, Q]] = ()):
        self.rows: dict[int, dict[int, Q]] = {}
        for v in vectors:
            self.add(v)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def add(self, vec: dict[int, Q]) -> dict[int, Q] | None:
        """Reduce against the span; store and return the residue, if any."""
        v = {i: c for i, c in vec.items() if c}
        while v:
            pivot = min(v)
            row = self.rows.get(pivot)
            if row is None:
                factor = v[pivot]
                if factor != 1:
                    v = {i: c / factor for i, c in v.items()}
                self.rows[pivot] = v
                return v
            _add_scaled(v, row, -v[pivot])
        return None

    def reduce(self, vec: dict[int, Q]) -> dict[int, Q]:
        """Residue of vec with every pivot coordinate eliminated; stores nothing."""
        v = {i: c for i, c in vec.items() if c}
        out: dict[int, Q] = {}
        while v:
            i = min(v)
            row = self.rows.get(i)
            if row is None:
                out[i] = v.pop(i)
            else:
                _add_scaled(v, row, -v[i])
        return out

    def reduced(self) -> dict[int, dict[int, Q]]:
        """The rows by increasing pivot, each pivot coordinate cleared from every other row.

        The reduced row echelon basis of the span; self.rows is left as it is.
        """
        done: dict[int, dict[int, Q]] = {}
        for p in sorted(self.rows, reverse=True):
            row = dict(self.rows[p])
            # rows already done carry no pivot coordinate but their own
            for q in [k for k in row if k in done]:
                _add_scaled(row, done[q], -row[q])
            done[p] = row
        return dict(reversed(done.items()))


def span_of(vectors: Iterable[dict[int, Q]], n: int) -> SparseSpan:
    """The span of vectors of Q^n; once it is the whole space, the rest
    of the vectors are neither reduced nor read."""
    span = SparseSpan()
    for v in vectors:
        if span.dim == n:
            break
        span.add(v)
    return span


def rank(m: Matrix) -> int:
    return SparseSpan(m.transpose().cols).dim


def kernel(m: Matrix) -> "Subspace":
    """Right kernel {v : m v = 0} as a canonical subspace."""
    return span_kernel(SparseSpan(m.transpose().cols), m.ncols)


def span_kernel(span: SparseSpan, n: int) -> "Subspace":
    """The vectors of Q^n that every row of the span annihilates."""
    if span.dim == n:
        return Subspace.zero(n)
    reduced = span.reduced()
    return Subspace(n, SparseSpan(
        {f: QONE, **{p: -row[f] for p, row in reduced.items() if f in row}}
        for f in range(n)
        if f not in reduced
    ))


def solve_sparse(rows: Iterable[Mapping[int, Q]], n: int) -> dict[int, Q] | None:
    """One solution, free variables zero, of the system whose rows hold
    their coefficients at 0, ..., n - 1 and their right-hand side at n.

    None if the system is inconsistent, that is when a reduced row has
    its pivot at n.
    """
    reduced = SparseSpan(rows).reduced()
    if n in reduced:
        return None
    return {p: row[n] for p, row in reduced.items() if n in row}


def solve(a: Matrix, b: Sequence[Q]) -> Vector | None:
    """Dense view of solve_sparse: one solution of a x = b, or None."""
    if len(b) != a.nrows:
        raise ValueError("right hand side length mismatch")
    n = a.ncols
    x = solve_sparse(({**row, n: bi} for row, bi in zip(a.transpose().cols, vec(b))), n)
    return None if x is None else tuple(x.get(j, QZERO) for j in range(n))


def coordinates_in(
    basis: Sequence[Mapping[int, Q]], vectors: Iterable[Mapping[int, Q]]
) -> list[dict[int, Q] | None]:
    """Coordinates {position: value} of each vector in the given basis, or
    None for a vector outside its span; raises if the basis is dependent.

    Basis vector s enters one span with a tag coordinate at offset + s,
    past every index in use, so reducing a vector against it leaves
    minus its coordinates on the tags and nothing below the offset.
    """
    vectors = list(vectors)
    offset = 1 + max((k for v in (*basis, *vectors) for k in v), default=-1)
    span = SparseSpan()
    for s, u in enumerate(basis):
        if min(span.add({**u, offset + s: QONE})) >= offset:
            raise ValueError("basis is linearly dependent")
    out: list[dict[int, Q] | None] = []
    for v in vectors:
        residue = span.reduce(v)
        if min(residue, default=offset) < offset:
            out.append(None)
        else:
            out.append({k - offset: -c for k, c in residue.items()})
    return out


class Subspace:
    """Subspace of Q^n held as the reduced rows of a SparseSpan.

    Each row has its pivot entry 1 and every other pivot coordinate 0,
    which makes the representation canonical: equal subspaces compare
    equal.  basis is a dense view of the rows by increasing pivot.
    Subspaces are immutable, so an operation whose answer is an operand,
    such as a sum with the zero space, returns that operand.
    """

    __slots__ = ("ambient_dim", "span", "pivots")

    def __init__(self, ambient_dim: int, span: SparseSpan):
        """The span of the given rows; the span itself is left as it is."""
        reduced = SparseSpan()
        # a span of full rank reduces to the unit rows
        if span.dim == ambient_dim:
            reduced.rows = {i: {i: QONE} for i in range(ambient_dim)}
        else:
            reduced.rows = span.reduced()
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "span", reduced)
        object.__setattr__(self, "pivots", tuple(reduced.rows))

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def _units(cls, ambient_dim: int, indices: Iterable[int]) -> "Subspace":
        """The span of the unit vectors at the given increasing indices,
        which are their own echelon rows."""
        span = SparseSpan()
        span.rows = {i: {i: QONE} for i in indices}
        return cls(ambient_dim, span)

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Iterable[Sequence[Q]]) -> "Subspace":
        rows = [vec(v) for v in vectors]
        if any(len(r) != ambient_dim for r in rows):
            raise ValueError("vector length disagrees with ambient dimension")
        return cls(ambient_dim, SparseSpan(dict(enumerate(r)) for r in rows))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls._units(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls._units(ambient_dim, range(ambient_dim))

    @property
    def dim(self) -> int:
        return len(self.pivots)

    @property
    def basis(self) -> tuple[Vector, ...]:
        """Dense rows, built on each read."""
        return tuple(
            tuple(row.get(j, QZERO) for j in range(self.ambient_dim))
            for row in self.span.rows.values()
        )

    def member(self, v: Mapping[int, Q]) -> bool:
        return not self.span.reduce(v)

    def _check_ambient(self, other: "Subspace") -> None:
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")

    def contains(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        if other.dim == 0 or self.dim == self.ambient_dim:
            return True
        # a subspace of equal dimension is contained only if it is equal
        if other.dim >= self.dim:
            return other.dim == self.dim and self == other
        return not any(map(self.span.reduce, other.span.rows.values()))

    def coordinates_of(self, v: Mapping[int, Q]) -> dict[int, Q]:
        """Echelon-basis coordinates {position: value} of v; v must lie in the span."""
        if self.span.reduce(v):
            raise ValueError("vector does not lie in the subspace")
        return {s: v[p] for s, p in enumerate(self.pivots) if v.get(p)}

    def image(self, m: Matrix) -> "Subspace":
        """The image of the subspace under the matrix."""
        if m.ncols != self.ambient_dim:
            raise ValueError("matrix width disagrees with ambient dimension")
        rows = (m.apply_pairs(v.items()) for v in self.span.rows.values())
        return Subspace(m.nrows, SparseSpan(rows))

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        if other.dim == 0 or self.dim == self.ambient_dim or self == other:
            return self
        if self.dim == 0 or other.dim == other.ambient_dim:
            return other
        rows = [*self.span.rows.values(), *other.span.rows.values()]
        return Subspace(self.ambient_dim, span_of(rows, self.ambient_dim))

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: rows (u, u) for u in self and (w, 0) for w in other
        span a space of Q^2n whose rows with their pivot in the second
        half have u + w = 0, so their second halves span the intersection.
        """
        self._check_ambient(other)
        n = self.ambient_dim
        if self.dim == 0 or other.dim == n or self == other:
            return self
        if other.dim == 0 or self.dim == n:
            return other
        doubled = ({**u, **{n + j: c for j, c in u.items()}} for u in self.span.rows.values())
        span = SparseSpan(doubled)
        for w in other.span.rows.values():
            span.add(w)
        meet = ({j - n: c for j, c in row.items()} for p, row in span.rows.items() if p >= n)
        return Subspace(n, SparseSpan(meet))

    def extend_complement(self, within: "Subspace | None" = None) -> "Subspace":
        """Deterministic complement T with self + T = within, direct sum.

        Works in the coordinates of within's echelon basis and picks the
        basis vectors of within whose indices are not pivot indices of
        self, smallest indices first.  With within omitted this is the
        whole space and the chosen vectors are the standard coordinate
        vectors at the indices that are not pivots of self.
        """
        if within is None:
            return Subspace._units(
                self.ambient_dim, (j for j in range(self.ambient_dim) if j not in self.span.rows)
            )
        within._check_ambient(self)
        if not within.contains(self):
            raise ValueError("subspace is not contained in the given space")
        # a vector of within has its coordinates at within's pivots
        coords = SparseSpan(
            {k: row[p] for k, p in enumerate(within.pivots) if p in row}
            for row in self.span.rows.values()
        )
        chosen = (row for k, row in enumerate(within.span.rows.values()) if k not in coords.rows)
        return Subspace(self.ambient_dim, SparseSpan(chosen))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.span.rows == other.span.rows
        )

    def __hash__(self):
        # equal subspaces have equal pivots
        return hash((self.ambient_dim, self.pivots))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"


class Polynomial:
    """Dense polynomial over Q, coefficients from the constant term up.

    The zero polynomial has an empty coefficient tuple and degree -1;
    otherwise the leading coefficient is nonzero.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        data = [to_q(c) for c in coeffs]
        while data and data[-1] == 0:
            data.pop()
        object.__setattr__(self, "coeffs", tuple(data))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def one(cls) -> "Polynomial":
        return cls((QONE,))

    @classmethod
    def variable(cls) -> "Polynomial":
        return cls((QZERO, QONE))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Q:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        lead = self.leading()
        if lead == 1:
            return self
        return Polynomial(c / lead for c in self.coeffs)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial(-c for c in self.coeffs)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Q)):
            c = to_q(other)
            return Polynomial(c * a for a in self.coeffs)
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Polynomial.zero()
        out = [QZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __divmod__(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        div = other.coeffs
        dlen = len(div)
        qlen = max(0, len(rem) - dlen + 1)
        quot = [QZERO] * qlen
        inv_lead = QONE / div[-1]
        for i in range(qlen - 1, -1, -1):
            c = rem[i + dlen - 1] * inv_lead
            if c:
                quot[i] = c
                for j, d in enumerate(div):
                    rem[i + j] -= c * d
        return Polynomial(quot), Polynomial(rem)

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[0]

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[1]

    def derivative(self) -> "Polynomial":
        return Polynomial(i * c for i, c in enumerate(self.coeffs) if i > 0)

    def __call__(self, value):
        """Evaluate by Horner's rule at a rational or a square matrix."""
        if isinstance(value, Matrix):
            if not value.is_square():
                raise ValueError("polynomial evaluation needs a square matrix")
            result = Matrix.zeros(value.nrows, value.nrows)
            ident = Matrix.identity(value.nrows)
            for c in reversed(self.coeffs):
                result = result * value + ident.scale(c)
            return result
        x = to_q(value)
        result = QZERO
        for c in reversed(self.coeffs):
            result = result * x + c
        return result

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        if self.is_zero():
            return "Polynomial(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}*t^{i}" if i else f"{c}")
        return "Polynomial(" + " + ".join(terms) + ")"


def poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Monic greatest common divisor; gcd(0, 0) = 0."""
    a, b = f, g
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def extended_gcd(
    f: Polynomial, g: Polynomial
) -> tuple[Polynomial, Polynomial, Polynomial]:
    """(d, u, v) with u f + v g = d and d = gcd(f, g) monic."""
    r0, r1 = f, g
    u0, u1 = Polynomial.one(), Polynomial.zero()
    v0, v1 = Polynomial.zero(), Polynomial.one()
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    if r0.is_zero():
        return r0, u0, v0
    lead = r0.leading()
    inv = QONE / lead
    return r0.monic(), u0 * inv, v0 * inv


def squarefree_part(f: Polynomial) -> Polynomial:
    """f / gcd(f, f'), made monic.  Shares exactly the roots of f."""
    if f.is_zero():
        return f
    d = poly_gcd(f, f.derivative())
    if d.degree <= 0:
        return f.monic()
    return (f // d).monic()


def modular_inverse(a: Polynomial, modulus: Polynomial) -> Polynomial:
    """Inverse of a modulo the given polynomial, via the extended gcd."""
    if modulus.degree < 1:
        raise ValueError("modulus must have positive degree")
    d, u, _ = extended_gcd(a % modulus, modulus)
    if d.degree != 0:
        raise ValueError("polynomial is not invertible modulo the given modulus")
    return u % modulus


def compose_mod(
    outer: Polynomial, inner: Polynomial, modulus: Polynomial
) -> Polynomial:
    """outer(inner) reduced modulo the given polynomial, by Horner's rule."""
    result = Polynomial.zero()
    for c in reversed(outer.coeffs):
        result = (result * inner + Polynomial((c,))) % modulus
    return result


def minimal_polynomial(m: Matrix) -> Polynomial:
    """Monic least-degree polynomial annihilating m.

    Each vectorized power m^d enters one span with a tag coordinate at
    n^2 + d; the first residue left only on the tags holds the minimal
    relation among the powers.
    """
    if not m.is_square():
        raise ValueError("minimal polynomial of a non-square matrix")
    n = m.nrows
    if n == 0:
        return Polynomial.one()
    size = n * n
    span = SparseSpan()
    power = Matrix.identity(n)
    # by Cayley-Hamilton a relation turns up by degree n
    for degree in count():
        tagged = power.entries()
        tagged[size + degree] = QONE
        residue = span.add(tagged)
        if min(residue) >= size:
            return Polynomial(residue.get(size + d, QZERO) for d in range(degree + 1)).monic()
        power = power * m
