"""Exact linear algebra over the rationals.

All scalars are fractions.Fraction values; there is no floating point
anywhere in this package.  Matrices are immutable and operations return
new values.

SparseSpan, an echelon span of sparse vectors, is the package's one
Gaussian elimination: ranks, residues, reduced row echelon forms,
kernels, solutions, minimal polynomials and subalgebra coordinates all
come out of it.  A Subspace keeps a SparseSpan of reduced rows, so that
equality, membership, coordinates and complements are all canonical:
two computations that produce the same subspace produce the same basis.
Membership, sums, intersections and complements work on those rows;
the dense basis matrix is a view of them for callers that read
coordinates.

Work the size of a representation uses SparseMatrix: columns holding
only their nonzero entries and one residual routine for brackets.

Polynomials live here too (dense, coefficients listed from the constant
term up) together with the handful of polynomial operations the rest of
the package needs: monic gcd, squarefree part, modular inverse by the
extended Euclidean algorithm, and composition modulo a polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from typing import Iterable, Iterator, Sequence

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


def zero_vector(n: int) -> Vector:
    return (QZERO,) * n


def unit_vector(n: int, i: int) -> Vector:
    return tuple(QONE if j == i else QZERO for j in range(n))


def vec(values: Iterable) -> Vector:
    return tuple(to_q(v) for v in values)


def add_vec(u: Sequence[Q], v: Sequence[Q]) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def sub_vec(u: Sequence[Q], v: Sequence[Q]) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def scale_vec(c: Q, v: Sequence[Q]) -> Vector:
    return tuple(c * a for a in v)


def is_zero_vec(v: Sequence[Q]) -> bool:
    return all(a == 0 for a in v)


class Matrix:
    """Immutable dense matrix of Fractions, stored as a tuple of row tuples."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, rows: Iterable[Iterable], ncols: int | None = None):
        data = tuple(tuple(to_q(x) for x in row) for row in rows)
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise ValueError("ragged rows")
            if ncols is not None and ncols != width:
                raise ValueError("ncols disagrees with row data")
            ncols = width
        elif ncols is None:
            raise ValueError("ncols required for a matrix with no rows")
        object.__setattr__(self, "nrows", len(data))
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "rows", data)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def _of_rows(cls, rows: tuple[Vector, ...], ncols: int) -> "Matrix":
        """Wrap rows that already hold Fractions, without coercing them."""
        m = object.__new__(cls)
        object.__setattr__(m, "nrows", len(rows))
        object.__setattr__(m, "ncols", ncols)
        object.__setattr__(m, "rows", rows)
        return m

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "Matrix":
        return cls([zero_vector(ncols) for _ in range(nrows)], ncols=ncols)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([unit_vector(n, i) for i in range(n)], ncols=n)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[Q]], nrows: int) -> "Matrix":
        cols = [vec(c) for c in columns]
        if any(len(c) != nrows for c in cols):
            raise ValueError("column length disagrees with nrows")
        return cls([tuple(c[i] for c in cols) for i in range(nrows)], ncols=len(cols))

    def __getitem__(self, key: tuple[int, int]) -> Q:
        i, j = key
        return self.rows[i][j]

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self.rows)

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.rows for x in row)

    def transpose(self) -> "Matrix":
        return Matrix._of_rows(tuple(self.column(j) for j in range(self.ncols)), self.nrows)

    def trace(self) -> Q:
        if not self.is_square():
            raise ValueError("trace of a non-square matrix")
        return sum((self.rows[i][i] for i in range(self.nrows)), QZERO)

    def flatten(self) -> Vector:
        return tuple(x for row in self.rows for x in row)

    def _rowwise(self, other, op) -> "Matrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return Matrix([op(a, b) for a, b in zip(self.rows, other.rows)], ncols=self.ncols)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._rowwise(other, add_vec) if isinstance(other, Matrix) else NotImplemented

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._rowwise(other, sub_vec) if isinstance(other, Matrix) else NotImplemented

    def __neg__(self) -> "Matrix":
        return self.scale(Q(-1))

    def scale(self, c) -> "Matrix":
        c = to_q(c)
        return Matrix([scale_vec(c, row) for row in self.rows], ncols=self.ncols)

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
        # skip zero entries; the large matrices in this package are sparse
        brows = other.rows
        out = []
        for arow in self.rows:
            acc = [QZERO] * other.ncols
            for k, a in enumerate(arow):
                if a:
                    brow = brows[k]
                    for j, b in enumerate(brow):
                        if b:
                            acc[j] += a * b
            out.append(tuple(acc))
        return Matrix(out, ncols=other.ncols)

    def apply(self, v: Sequence[Q]) -> Vector:
        """Matrix times column vector."""
        if len(v) != self.ncols:
            raise ValueError("vector length mismatch")
        out = []
        for row in self.rows:
            s = QZERO
            for a, x in zip(row, v):
                if a and x:
                    s += a * x
            out.append(s)
        return tuple(out)

    def apply_pairs(self, pairs: Sequence[tuple[int, Q]]) -> Vector:
        """Matrix times the column vector with the given nonzero (index, value) pairs."""
        return tuple(sum((c * row[k] for k, c in pairs), QZERO) for row in self.rows)

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
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.nrows, self.ncols, self.rows))

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


class SparseMatrix:
    """Exact matrix held as columns {row: value} of its nonzero entries.

    For matrices the size of a representation; immutable once built.
    """

    __slots__ = ("nrows", "ncols", "cols")

    def __init__(self, nrows: int, ncols: int, cols: Iterable[dict[int, Q]]):
        self.nrows, self.ncols, self.cols = nrows, ncols, tuple(cols)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[Q]], nrows: int) -> "SparseMatrix":
        cols = [{i: x for i, x in enumerate(col) if x} for col in columns]
        return cls(nrows, len(cols), cols)

    def is_zero(self) -> bool:
        return not any(self.cols)

    def flatten(self) -> dict[int, Q]:
        """Nonzero entries keyed by their row-major position."""
        return {i * self.ncols + j: x for j, col in enumerate(self.cols) for i, x in col.items()}


def sparse_combination(
    coeffs: Iterable[Q], mats: Iterable[SparseMatrix], nrows: int, ncols: int
) -> SparseMatrix:
    """The nrows x ncols sum of c_k M_k."""
    cols: list[dict[int, Q]] = [{} for _ in range(ncols)]
    for c, m in zip(coeffs, mats):
        if c:
            for acc, col in zip(cols, m.cols):
                _add_scaled(acc, col, c)
    return SparseMatrix(nrows, ncols, cols)


def bracket_residual(
    a: SparseMatrix, b: SparseMatrix, terms: Iterable[tuple[Q, SparseMatrix]]
) -> SparseMatrix:
    """ab - ba - sum of c M over the (c, M) terms, for square matrices of one size."""
    terms = [(-c, m) for c, m in terms]
    cols = []
    for t in range(a.ncols):
        out: dict[int, Q] = {}
        for s, x in b.cols[t].items():
            _add_scaled(out, a.cols[s], x)
        for s, x in a.cols[t].items():
            _add_scaled(out, b.cols[s], -x)
        for c, m in terms:
            _add_scaled(out, m.cols[t], c)
        cols.append(out)
    return SparseMatrix(a.nrows, a.ncols, cols)


def sparse_block_diag(blocks: Sequence[SparseMatrix]) -> SparseMatrix:
    """Block diagonal matrix; blocks may be rectangular or empty."""
    cols: list[dict[int, Q]] = []
    offset = 0
    for m in blocks:
        cols.extend({i + offset: x for i, x in col.items()} for col in m.cols)
        offset += m.nrows
    return SparseMatrix(offset, len(cols), cols)


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


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and the pivot column indices."""
    echelon = Subspace(m.ncols, SparseSpan(dict(enumerate(row)) for row in m.rows))
    padding = (zero_vector(m.ncols),) * (m.nrows - echelon.dim)
    return Matrix._of_rows(echelon.basis.rows + padding, m.ncols), echelon.pivots


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def kernel(m: Matrix) -> "Subspace":
    """Right kernel {v : m v = 0} as a canonical subspace."""
    return span_kernel(SparseSpan(dict(enumerate(row)) for row in m.rows), m.ncols)


def span_kernel(span: SparseSpan, n: int) -> "Subspace":
    """The vectors of Q^n that every row of the span annihilates."""
    reduced = span.reduced()
    return Subspace(n, SparseSpan(
        {f: QONE, **{p: -row[f] for p, row in reduced.items() if f in row}}
        for f in range(n)
        if f not in reduced
    ))


def solve(a: Matrix, b: Sequence[Q]) -> Vector | None:
    """One solution of a x = b with free variables set to zero, or None."""
    if len(b) != a.nrows:
        raise ValueError("right hand side length mismatch")
    if a.nrows == 0:
        return zero_vector(a.ncols)
    aug = Matrix._of_rows(tuple(row + (bi,) for row, bi in zip(a.rows, vec(b))), a.ncols + 1)
    reduced, pivots = rref(aug)
    if pivots and pivots[-1] == a.ncols:
        return None
    x = [QZERO] * a.ncols
    for r, p in enumerate(pivots):
        x[p] = reduced.rows[r][a.ncols]
    return tuple(x)


class Subspace:
    """Subspace of Q^n held as the reduced rows of a SparseSpan.

    Each row has its pivot entry 1 and every other pivot coordinate 0,
    which makes the representation canonical: equal subspaces compare
    equal.  basis is the dense view of the same rows by increasing
    pivot, for callers that read coordinates.
    """

    __slots__ = ("ambient_dim", "span", "basis", "pivots")

    def __init__(self, ambient_dim: int, span: SparseSpan):
        """The span of the given rows; the span itself is left as it is."""
        reduced = SparseSpan()
        reduced.rows = span.reduced()
        rows = tuple(
            tuple(row.get(j, QZERO) for j in range(ambient_dim)) for row in reduced.rows.values()
        )
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "span", reduced)
        object.__setattr__(self, "basis", Matrix._of_rows(rows, ambient_dim))
        object.__setattr__(self, "pivots", tuple(reduced.rows))

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Iterable[Sequence[Q]]) -> "Subspace":
        rows = [vec(v) for v in vectors]
        if any(len(r) != ambient_dim for r in rows):
            raise ValueError("vector length disagrees with ambient dimension")
        return cls(ambient_dim, SparseSpan(dict(enumerate(r)) for r in rows))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, SparseSpan())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, SparseSpan({i: QONE} for i in range(ambient_dim)))

    @property
    def dim(self) -> int:
        return self.basis.nrows

    def vectors(self) -> Iterator[Vector]:
        return iter(self.basis.rows)

    def _residue(self, v: Sequence[Q]) -> dict[int, Q]:
        if len(v) != self.ambient_dim:
            raise ValueError("vector length disagrees with ambient dimension")
        return self.span.reduce(dict(enumerate(map(to_q, v))))

    def reduce(self, v: Sequence[Q]) -> Vector:
        """Residual of v after eliminating all pivot coordinates."""
        residue = self._residue(v)
        return tuple(residue.get(j, QZERO) for j in range(self.ambient_dim))

    def member(self, v: Sequence[Q]) -> bool:
        return not self._residue(v)

    def _check_ambient(self, other: "Subspace") -> None:
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")

    def contains(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return not any(map(self.span.reduce, other.span.rows.values()))

    def coordinates_of(self, v: Sequence[Q]) -> Vector:
        """Coefficients of v in the echelon basis; v must lie in the span."""
        if not self.member(v):
            raise ValueError("vector does not lie in the subspace")
        return tuple(to_q(v[p]) for p in self.pivots)

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        rows = [*self.span.rows.values(), *other.span.rows.values()]
        return Subspace(self.ambient_dim, SparseSpan(rows))

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: rows (u, u) for u in self and (w, 0) for w in other
        span a space of Q^2n whose rows with their pivot in the second
        half have u + w = 0, so their second halves span the intersection.
        """
        self._check_ambient(other)
        n = self.ambient_dim
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
        whole space and the chosen vectors are standard coordinate
        vectors.
        """
        if within is None:
            within = Subspace.full(self.ambient_dim)
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
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

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
        tagged = dict(enumerate(power.flatten()))
        tagged[size + degree] = QONE
        residue = span.add(tagged)
        if min(residue) >= size:
            return Polynomial(residue.get(size + d, QZERO) for d in range(degree + 1)).monic()
        power = power * m
