"""Lie algebras over Q given by sparse structure constants.

An algebra is its dimension and nonzero: nonzero[i][j] holds the
nonzero coordinates of the bracket of basis elements i and j as (k, c)
pairs by increasing k.  Structure constants are mostly zeros, and the
bracket, the Jacobi check, the Killing form, centralizers and subalgebra
coordinates all run over these pairs; no dense bracket table is kept.
The constants are validated on construction (antisymmetry and the
Jacobi identity, with a witness in the error when either fails), so
every LieAlgebra in circulation is genuine.  Subalgebras and quotients
come with the matrices that move vectors between coordinate systems.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .errors import InputError
from .linalg import (
    Matrix,
    Q,
    QONE,
    QZERO,
    SparseSpan,
    Subspace,
    Vector,
    span_kernel,
    to_q,
    unit_vector,
    vec,
)


class LieAlgebra:
    """A finite-dimensional Lie algebra over Q in a fixed basis."""

    __slots__ = ("dim", "nonzero", "_memo")

    def __init__(self, table: Sequence[Sequence[Sequence]]):
        """From a dense table: table[i][j] is the coordinate vector of [e_i, e_j]."""
        rows = [[vec(entry) for entry in row] for row in table]
        for row in rows:
            if len(row) != len(rows) or any(len(entry) != len(rows) for entry in row):
                raise InputError(
                    "validate", "bracket table is not a dim x dim x dim array"
                )
        self._build([[enumerate(entry) for entry in row] for row in rows])

    def _build(self, entries: Sequence[Sequence[Iterable[tuple[int, Q]]]]) -> None:
        """Keep the nonzero (k, c) pairs of each entries[i][j], by increasing k; validate."""
        nonzero = tuple(tuple(tuple((k, c) for k, c in e if c) for e in row) for row in entries)
        object.__setattr__(self, "dim", len(entries))
        object.__setattr__(self, "nonzero", nonzero)
        # derived terms are computed once; the algebra never changes
        object.__setattr__(self, "_memo", {})
        self._validate()

    def __setattr__(self, name, value):
        raise AttributeError("LieAlgebra is immutable")

    @classmethod
    def from_sparse(
        cls, dim: int, brackets: Mapping[tuple[int, int], Mapping[int, object]]
    ) -> "LieAlgebra":
        """Build from brackets of basis pairs i < j; antisymmetry is filled in."""
        entries: list[list[dict[int, Q]]] = [[{} for _ in range(dim)] for _ in range(dim)]
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
                entries[i][j][int(k)] = value
                entries[j][i][int(k)] = -value
        algebra = object.__new__(cls)
        algebra._build([[sorted(entry.items()) for entry in row] for row in entries])
        return algebra

    @property
    def table(self) -> tuple[tuple[Vector, ...], ...]:
        """Dense view, built on each read, for the benchmark's input generators:
        table[i][j] is the coordinate vector of [e_i, e_j]."""
        def dense(pairs: tuple[tuple[int, Q], ...]) -> Vector:
            out = [QZERO] * self.dim
            for k, c in pairs:
                out[k] = c
            return tuple(out)

        return tuple(tuple(map(dense, row)) for row in self.nonzero)

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

    def full_space(self) -> Subspace:
        return Subspace.full(self.dim)

    def bracket_span(self, left: Subspace, right: Subspace) -> Subspace:
        """Span of all brackets of the two subspaces."""
        span = SparseSpan()
        for u in left.vectors():
            for v in right.vectors():
                span.add(dict(enumerate(self.bracket(u, v))))
        return Subspace(self.dim, span)

    def derived_subalgebra(self) -> Subspace:
        if "derived" not in self._memo:
            full = self.full_space()
            self._memo["derived"] = self.bracket_span(full, full)
        return self._memo["derived"]

    def lower_central_series(self) -> tuple[Subspace, ...]:
        """Terms g, [g, g], [g, [g, g]], ... until the series stabilizes."""
        if "lower central" not in self._memo:
            full = self.full_space()
            series, nxt = [full], self.derived_subalgebra()
            while nxt != series[-1]:
                series.append(nxt)
                nxt = self.bracket_span(full, nxt)
            self._memo["lower central"] = tuple(series)
        return self._memo["lower central"]

    def derived_series(self) -> list[Subspace]:
        series = [self.full_space()]
        while (nxt := self.bracket_span(series[-1], series[-1])) != series[-1]:
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
        """Everything whose bracket with the given subspace vanishes.

        For each v in s, constraint row k takes x to the e_k coordinate of
        [v, x]; its entries are read off the nonzero structure constants.
        """
        span = SparseSpan()
        for v in s.span.rows.values():
            rows: dict[int, dict[int, Q]] = {}
            for i, a in v.items():
                for j, pairs in enumerate(self.nonzero[i]):
                    for k, c in pairs:
                        row = rows.setdefault(k, {})
                        row[j] = row.get(j, QZERO) + a * c
            for row in rows.values():
                span.add(row)
        return span_kernel(span, self.dim)

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
        brackets = {}
        for s, u in enumerate(rows):
            for t in range(s + 1, len(rows)):
                residue = span.reduce(dict(enumerate(self.bracket(u, rows[t]))))
                if min(residue, default=self.dim) < self.dim:
                    raise ValueError("span is not closed under the bracket")
                brackets[s, t] = {k - self.dim: -c for k, c in residue.items()}
        return LieAlgebra.from_sparse(len(rows), brackets), inclusion

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
        nonpivots = [j for j in range(self.dim) if j not in ideal.span.rows]
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
        position = {j: s for s, j in enumerate(nonpivots)}
        brackets = {
            (position[a], position[b]): {
                position[k]: c for k, c in ideal.span.reduce(dict(self.nonzero[a][b])).items()
            }
            for a in nonpivots
            for b in nonpivots
            if a < b
        }
        return LieAlgebra.from_sparse(qdim, brackets), projection, section

    def __eq__(self, other) -> bool:
        return isinstance(other, LieAlgebra) and self.nonzero == other.nonzero

    def __hash__(self):
        return hash(self.nonzero)

    def __repr__(self) -> str:
        return f"LieAlgebra(dim {self.dim})"
