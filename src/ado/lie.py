"""Lie algebras over Q given by structure constants.

An algebra is a full bracket table: table[i][j] is the coordinate vector
of the bracket of basis elements i and j.  Next to it, built once on
construction, nonzero[i][j] holds only the nonzero entries of that
bracket as (k, c) pairs; structure constants are mostly zeros, and the
bracket, the Jacobi check, the Killing form and subalgebra coordinates
all run over these pairs.  The table is validated on construction
(antisymmetry and the Jacobi identity, with a witness in the error when
either fails), so every LieAlgebra in circulation is genuine.
Subalgebras and quotients come with the matrices that move vectors
between coordinate systems.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .errors import InputError
from .linalg import (
    Matrix,
    Q,
    QONE,
    QZERO,
    SparseSpan,
    Subspace,
    Vector,
    kernel,
    to_q,
    unit_vector,
    vec,
)


class LieAlgebra:
    """A finite-dimensional Lie algebra over Q in a fixed basis."""

    __slots__ = ("dim", "table", "nonzero")

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
        object.__setattr__(
            self,
            "nonzero",
            tuple(
                tuple(tuple((k, c) for k, c in enumerate(entry) if c) for entry in row)
                for row in rows
            ),
        )
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
        nonzero = self.nonzero
        for i in range(self.dim):
            for j in range(i, self.dim):
                if nonzero[i][j] != tuple((k, -c) for k, c in nonzero[j][i]):
                    raise InputError(
                        "validate",
                        "bracket table is not antisymmetric",
                        pair=[i, j],
                    )
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                for k in range(j + 1, self.dim):
                    # [e_a, [e_b, e_c]] = sum over l of c(b, c, l) [e_a, e_l]
                    s: dict[int, Q] = {}
                    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                        row = nonzero[a]
                        for l, x in nonzero[b][c]:
                            for m, y in row[l]:
                                s[m] = s.get(m, QZERO) + x * y
                    if any(s.values()):
                        raise InputError(
                            "validate",
                            "Jacobi identity fails",
                            triple=[i, j, k],
                            residual=[str(s.get(m, QZERO)) for m in range(self.dim)],
                        )

    def bracket(self, u: Sequence[Q], v: Sequence[Q]) -> Vector:
        """Bilinear extension of the table to arbitrary coordinate vectors."""
        if len(u) != self.dim or len(v) != self.dim:
            raise ValueError("bracket arguments must have length dim")
        out = [QZERO] * self.dim
        right = [(j, b) for j, b in enumerate(v) if b]
        for i, a in enumerate(u):
            if not a:
                continue
            row = self.nonzero[i]
            for j, b in right:
                ab = a * b
                for k, c in row[j]:
                    out[k] += ab * c
        return tuple(out)

    def ad(self, x: Sequence[Q]) -> Matrix:
        """Matrix of y -> [x, y] in the algebra basis."""
        cols = [self.bracket(x, unit_vector(self.dim, j)) for j in range(self.dim)]
        return Matrix.from_columns(cols, nrows=self.dim)

    def full_space(self) -> Subspace:
        return Subspace.full(self.dim)

    def bracket_span(self, left: Subspace, right: Subspace) -> Subspace:
        """Span of all brackets of the two subspaces."""
        span = SparseSpan()
        for u in left.vectors():
            for v in right.vectors():
                span.add(dict(enumerate(self.bracket(u, v))))
        return Subspace.from_span(self.dim, span)

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
        return kernel(Matrix([row for v in s.vectors() for row in self.ad(v).rows], ncols=self.dim))

    def killing_form(self) -> Matrix:
        """K[i][j] = trace(ad e_i ad e_j) = sum over l, k of c(i, l, k) c(j, k, l)."""
        dim = self.dim
        # constants[i] maps (l, k) to c(i, l, k), the e_k coordinate of [e_i, e_l]
        constants = [
            {(l, k): c for l in range(dim) for k, c in self.nonzero[i][l]}
            for i in range(dim)
        ]
        rows = [[QZERO] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i, dim):
                cj = constants[j]
                value = sum(
                    (c * cj[k, l] for (l, k), c in constants[i].items() if (k, l) in cj),
                    QZERO,
                )
                rows[i][j] = rows[j][i] = value
        return Matrix(rows, ncols=dim)

    def subalgebra_on_basis(
        self, basis: Sequence[Sequence[Q]]
    ) -> tuple["LieAlgebra", Matrix]:
        """Algebra structure on the span of the given independent vectors.

        Returns the subalgebra in the given basis (order preserved, no
        re-echelonization) together with the inclusion matrix whose
        columns are the basis vectors.  Raises if the vectors are
        dependent or the span is not bracket-closed.  Basis vector s
        enters one span with a tag coordinate at dim + s, so reducing a
        bracket against it leaves minus its coordinates on the tags.
        """
        rows = [vec(v) for v in basis]
        inclusion = Matrix.from_columns(rows, nrows=self.dim)
        span = SparseSpan()
        for s, u in enumerate(rows):
            tagged = dict(enumerate(u))
            tagged[self.dim + s] = QONE
            if min(span.add(tagged)) >= self.dim:
                raise ValueError("subalgebra basis is linearly dependent")
        table = []
        for u in rows:
            row_entries = []
            for v in rows:
                residue = span.reduce(dict(enumerate(self.bracket(u, v))))
                if min(residue, default=self.dim) < self.dim:
                    raise ValueError("span is not closed under the bracket")
                coeffs = [QZERO] * len(rows)
                for k, c in residue.items():
                    coeffs[k - self.dim] = -c
                row_entries.append(tuple(coeffs))
            table.append(row_entries)
        return LieAlgebra(table), inclusion

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
