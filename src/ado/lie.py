"""Lie algebras over Q given by structure constants.

An algebra is a full bracket table: table[i][j] is the coordinate vector
of the bracket of basis elements i and j.  The table is validated on
construction (antisymmetry and the Jacobi identity, with a witness in
the error when either fails), so every LieAlgebra in circulation is
genuine.  Subalgebras and quotients come with the matrices that move
vectors between coordinate systems.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .errors import InputError, TripwireError
from .linalg import (
    Matrix,
    Q,
    QZERO,
    Subspace,
    Vector,
    add_vec,
    is_zero_vec,
    kernel,
    rank,
    scale_vec,
    solve,
    to_q,
    unit_vector,
    vec,
    vstack,
    zero_vector,
)


class LieAlgebra:
    """A finite-dimensional Lie algebra over Q in a fixed basis."""

    __slots__ = ("dim", "table")

    def __init__(self, table: Sequence[Sequence[Sequence]]):
        rows = tuple(tuple(vec(entry) for entry in row) for row in table)
        dim = len(rows)
        for row in rows:
            if len(row) != dim or any(len(entry) != dim for entry in row):
                raise InputError(
                    "validate", "bracket table is not a dim x dim x dim array"
                )
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "table", rows)
        self._validate()

    def __setattr__(self, name, value):
        raise AttributeError("LieAlgebra is immutable")

    @classmethod
    def from_sparse(
        cls, dim: int, brackets: Mapping[tuple[int, int], Mapping[int, object]]
    ) -> "LieAlgebra":
        """Build from brackets of basis pairs i < j; antisymmetry is filled in."""
        table = [[[QZERO] * dim for _ in range(dim)] for _ in range(dim)]
        for (i, j), entry in brackets.items():
            if not (0 <= i < j < dim):
                raise InputError(
                    "validate",
                    "bracket keys must satisfy 0 <= i < j < dim",
                    pair=[i, j],
                    dim=dim,
                )
            for k, c in entry.items():
                if not 0 <= int(k) < dim:
                    raise InputError(
                        "validate",
                        "bracket coefficient index out of range",
                        pair=[i, j],
                        index=int(k),
                    )
                value = to_q(c)
                table[i][j][int(k)] = value
                table[j][i][int(k)] = -value
        return cls(table)

    def _validate(self):
        for i in range(self.dim):
            for j in range(i, self.dim):
                lhs = self.table[i][j]
                rhs = self.table[j][i]
                if any(a + b != 0 for a, b in zip(lhs, rhs)):
                    raise InputError(
                        "validate",
                        "bracket table is not antisymmetric",
                        pair=[i, j],
                    )
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                for k in range(j + 1, self.dim):
                    s = add_vec(
                        self.bracket(unit_vector(self.dim, i), self.table[j][k]),
                        self.bracket(unit_vector(self.dim, j), self.table[k][i]),
                    )
                    s = add_vec(
                        s,
                        self.bracket(unit_vector(self.dim, k), self.table[i][j]),
                    )
                    if not is_zero_vec(s):
                        raise InputError(
                            "validate",
                            "Jacobi identity fails",
                            triple=[i, j, k],
                            residual=[str(x) for x in s],
                        )

    def bracket(self, u: Sequence[Q], v: Sequence[Q]) -> Vector:
        """Bilinear extension of the table to arbitrary coordinate vectors."""
        out = zero_vector(self.dim)
        for i, a in enumerate(u):
            if not a:
                continue
            row = self.table[i]
            for j, b in enumerate(v):
                if b:
                    out = add_vec(out, scale_vec(a * b, row[j]))
        return out

    def ad(self, x: Sequence[Q]) -> Matrix:
        """Matrix of y -> [x, y] in the algebra basis."""
        cols = [self.bracket(x, unit_vector(self.dim, j)) for j in range(self.dim)]
        return Matrix.from_columns(cols, nrows=self.dim)

    def full_space(self) -> Subspace:
        return Subspace.full(self.dim)

    def bracket_span(self, left: Subspace, right: Subspace) -> Subspace:
        """Span of all brackets of the two subspaces."""
        products = [
            self.bracket(u, v) for u in left.vectors() for v in right.vectors()
        ]
        return Subspace.from_vectors(self.dim, products)

    def derived_subalgebra(self) -> Subspace:
        full = self.full_space()
        return self.bracket_span(full, full)

    def lower_central_series(self) -> list[Subspace]:
        """Terms g, [g, g], [g, [g, g]], ... until the series stabilizes."""
        full = self.full_space()
        series = [full]
        while True:
            nxt = self.bracket_span(full, series[-1])
            if nxt == series[-1]:
                break
            series.append(nxt)
        return series

    def derived_series(self) -> list[Subspace]:
        series = [self.full_space()]
        while True:
            nxt = self.bracket_span(series[-1], series[-1])
            if nxt == series[-1]:
                break
            series.append(nxt)
        return series

    def is_nilpotent(self) -> bool:
        return self.lower_central_series()[-1].dim == 0

    def is_solvable(self) -> bool:
        return self.derived_series()[-1].dim == 0

    def nilpotency_index(self) -> int:
        """Least k with every k-fold bracket zero; 1 for the zero algebra."""
        series = self.lower_central_series()
        if series[-1].dim != 0:
            raise ValueError("algebra is not nilpotent")
        return len(series)

    def center(self) -> Subspace:
        return self.centralizer(self.full_space())

    def centralizer(self, s: Subspace) -> Subspace:
        """Everything whose bracket with the given subspace vanishes."""
        if s.dim == 0:
            return self.full_space()
        stacked = vstack([self.ad(v) for v in s.vectors()])
        return kernel(stacked)

    def killing_form(self) -> Matrix:
        ads = [self.ad(unit_vector(self.dim, i)) for i in range(self.dim)]
        return Matrix(
            [[(ads[i] * ads[j]).trace() for j in range(self.dim)] for i in range(self.dim)],
            ncols=self.dim,
        )

    def subalgebra_on_basis(
        self, basis: Sequence[Sequence[Q]]
    ) -> tuple["LieAlgebra", Matrix]:
        """Algebra structure on the span of the given independent vectors.

        Returns the subalgebra in the given basis (order preserved, no
        re-echelonization) together with the inclusion matrix whose
        columns are the basis vectors.  Raises if the vectors are
        dependent or the span is not bracket-closed.
        """
        rows = [vec(v) for v in basis]
        m = len(rows)
        if rows and rank(Matrix(rows, ncols=self.dim)) != m:
            raise ValueError("subalgebra basis is linearly dependent")
        span = Subspace.from_vectors(self.dim, rows)
        basis_matrix = Matrix(rows, ncols=self.dim) if rows else Matrix([], ncols=self.dim)
        table = []
        for u in rows:
            row_entries = []
            for v in rows:
                w = self.bracket(u, v)
                if not span.member(w):
                    raise ValueError("span is not closed under the bracket")
                coeffs = solve(basis_matrix.transpose(), w)
                if coeffs is None:
                    raise TripwireError("subalgebra", "bracket outside the span")
                row_entries.append(coeffs)
            table.append(row_entries)
        sub = LieAlgebra(table) if rows else LieAlgebra([])
        inclusion = Matrix.from_columns(rows, nrows=self.dim)
        return sub, inclusion

    def is_ideal(self, s: Subspace) -> bool:
        return s.contains(self.bracket_span(self.full_space(), s))

    def quotient(self, ideal: Subspace) -> tuple["LieAlgebra", Matrix, Matrix]:
        """Quotient by an ideal, with the projection and a section.

        The quotient basis is the image of the standard vectors at the
        non-pivot indices of the ideal's echelon basis.  Returns
        (algebra, projection, section): projection maps ambient
        coordinates to quotient coordinates, section maps quotient
        coordinates back to the chosen representatives, and projection
        composed with section is the identity.
        """
        if not self.is_ideal(ideal):
            raise ValueError("subspace is not an ideal")
        pivot_set = set(ideal.pivots)
        nonpivots = [j for j in range(self.dim) if j not in pivot_set]
        qdim = len(nonpivots)

        def project(v: Sequence[Q]) -> Vector:
            residual = ideal.reduce(v)
            return tuple(residual[j] for j in nonpivots)

        projection = Matrix.from_columns(
            [project(unit_vector(self.dim, j)) for j in range(self.dim)], nrows=qdim
        )
        section = Matrix.from_columns(
            [unit_vector(self.dim, j) for j in nonpivots], nrows=self.dim
        )
        table = [
            [
                project(self.bracket(unit_vector(self.dim, a), unit_vector(self.dim, b)))
                for b in nonpivots
            ]
            for a in nonpivots
        ]
        return LieAlgebra(table), projection, section

    def __eq__(self, other) -> bool:
        return isinstance(other, LieAlgebra) and self.table == other.table

    def __hash__(self):
        return hash(self.table)

    def __repr__(self) -> str:
        return f"LieAlgebra(dim {self.dim})"
