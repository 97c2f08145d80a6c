"""Lie algebras over Q given by sparse structure constants.

An algebra is its dimension and nonzero: nonzero[i][j] holds the
nonzero coordinates of the bracket of basis elements i and j as (k, c)
pairs by increasing k.  Structure constants are mostly zeros, and the
bracket, the Jacobi check, the Killing form, centralizers and subalgebra
coordinates all run over these pairs; no dense bracket table is kept.
Brackets take and give vectors as {index: value} dicts of their nonzero
coordinates; bracket is a dense view of them for coordinate tuples.
The constants are validated on construction: the Jacobi identity on
every table, antisymmetry on a dense one (from_sparse writes both
halves), with a witness in the error when either fails.  A subalgebra
comes with its inclusion matrix and a quotient with a section, the
matrices that move vectors into the ambient coordinates; the
subalgebra on the standard basis is the algebra itself.  An algebra
never changes, so its full space, Killing form, the centralizer of each
subspace (the centre among them) and the bracket span of each pair of
subspaces are computed once and shared; none may be mutated.  The
derived subalgebra and the series of any subalgebra read those spans,
with no algebra built for the subalgebra.
"""

from __future__ import annotations

from math import lcm
from typing import Iterable, Mapping, Sequence

from .errors import InputError
from .linalg import (
    Matrix,
    Q,
    QONE,
    QZERO,
    Subspace,
    Vector,
    coordinates_in,
    span_kernel,
    span_of,
    to_q,
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
        for i in range(len(rows)):
            for j in range(i, len(rows)):
                if rows[i][j] != tuple(-c for c in rows[j][i]):
                    raise InputError(
                        "validate", "bracket table is not antisymmetric", pair=[i, j]
                    )
        self._build(
            tuple(tuple(tuple((k, c) for k, c in enumerate(e) if c) for e in row) for row in rows)
        )

    def _build(self, nonzero: tuple[tuple[tuple[tuple[int, Q], ...], ...], ...]) -> None:
        """Keep nonzero, the nonzero (k, c) pairs of each bracket by increasing k; validate."""
        object.__setattr__(self, "dim", len(nonzero))
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
        """Build from brackets of basis pairs i < j; antisymmetry is filled in,
        and every bracket not given is one shared empty tuple."""
        rows: list[list[tuple[tuple[int, Q], ...]]] = [[()] * dim for _ in range(dim)]
        for (i, j), entry in brackets.items():
            if not (0 <= i < j < dim):
                message = "bracket keys must satisfy 0 <= i < j < dim"
                raise InputError("validate", message, pair=[i, j], dim=dim)
            pairs = sorted((int(k), to_q(c)) for k, c in entry.items())
            for k, _ in pairs:
                if not 0 <= k < dim:
                    raise InputError(
                        "validate", "bracket coefficient index out of range", pair=[i, j], index=k
                    )
            rows[i][j] = tuple((k, c) for k, c in pairs if c)
            rows[j][i] = tuple((k, -c) for k, c in rows[i][j])
        algebra = object.__new__(cls)
        algebra._build(tuple(map(tuple, rows)))
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
        """Raise InputError unless the constants satisfy the Jacobi identity,
        naming the first failing triple; the sums run in Python int on the
        constants with their denominators cleared, and are reported exactly."""
        nonzero = self.nonzero
        # the Jacobi sums are quadratic in the constants: scaled by their
        # common denominator d, the constants are ints and a sum s in int
        # stands for s / d^2
        d = lcm(*{c.denominator for row in nonzero for e in row for _, c in e})
        scaled = [
            [[(k, c.numerator * (d // c.denominator)) for k, c in e] for e in row]
            for row in nonzero
        ]
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                ij = scaled[i][j]
                for k in range(j + 1, self.dim):
                    # a triple whose three pairs all bracket to zero sums to zero
                    if not (ij or scaled[j][k] or scaled[k][i]):
                        continue
                    # [e_a, [e_b, e_c]] = sum over l of c(b, c, l) [e_a, e_l]
                    s: dict[int, int] = {}
                    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                        row = scaled[a]
                        for l, x in scaled[b][c]:
                            for m, y in row[l]:
                                s[m] = s.get(m, 0) + x * y
                    if any(s.values()):
                        raise InputError(
                            "validate",
                            "Jacobi identity fails",
                            triple=[i, j, k],
                            residual=[str(Q(s.get(m, 0), d * d)) for m in range(self.dim)],
                        )

    def _bracket(self, u: Mapping[int, Q], v: Mapping[int, Q]) -> dict[int, Q]:
        """[u, v] for vectors {index: value}, read off nonzero[i][j] for the
        keys i of u and j of v only; the result holds no zero."""
        out: dict[int, Q] = {}
        for i, a in u.items():
            row = self.nonzero[i]
            for j, b in v.items():
                if row[j]:
                    ab = a * b
                    for k, c in row[j]:
                        out[k] = out.get(k, QZERO) + ab * c
        return {k: c for k, c in out.items() if c}

    def bracket(self, u: Sequence[Q], v: Sequence[Q]) -> Vector:
        """Dense view of _bracket, for coordinate tuples."""
        if len(u) != self.dim or len(v) != self.dim:
            raise ValueError("bracket arguments must have length dim")
        u, v = ({i: a for i, a in enumerate(w) if a} for w in (u, v))
        out = self._bracket(u, v)
        return tuple(out.get(k, QZERO) for k in range(self.dim))

    def full_space(self) -> Subspace:
        if "full" not in self._memo:
            self._memo["full"] = Subspace.full(self.dim)
        return self._memo["full"]

    def bracket_span(self, left: Subspace, right: Subspace) -> Subspace:
        """Span of all brackets of the two subspaces, computed once per pair."""
        if (left, right) not in self._memo:
            rows = list(right.span.rows.values())
            same = left == right
            brackets = (
                self._bracket(u, v)
                for s, u in enumerate(left.span.rows.values())
                # [v, u] = -[u, v], so a span with itself needs only the later rows
                for v in (rows[s + 1 :] if same else rows)
            )
            self._memo[left, right] = Subspace(self.dim, span_of(brackets, self.dim))
        return self._memo[left, right]

    def derived_subalgebra(self) -> Subspace:
        return self.bracket_span(self.full_space(), self.full_space())

    def lower_central_series(self, s: Subspace | None = None) -> tuple[Subspace, ...]:
        """Terms s, [s, s], [s, [s, s]], ... of a subalgebra s, by default
        the whole algebra, until the series stabilizes."""
        series = [self.full_space() if s is None else s]
        while (nxt := self.bracket_span(series[0], series[-1])) != series[-1]:
            series.append(nxt)
        return tuple(series)

    def derived_series(self, s: Subspace | None = None) -> tuple[Subspace, ...]:
        """Terms s, [s, s], [[s, s], [s, s]], ... of a subalgebra s, by
        default the whole algebra, until the series stabilizes."""
        series = [self.full_space() if s is None else s]
        while (nxt := self.bracket_span(series[-1], series[-1])) != series[-1]:
            series.append(nxt)
        return tuple(series)

    def nilpotency_index(self) -> int:
        """Least k with every k-fold bracket zero; 1 for the zero algebra."""
        series = self.lower_central_series()
        if series[-1].dim != 0:
            raise ValueError("algebra is not nilpotent")
        return len(series)

    def center(self) -> Subspace:
        return self.centralizer(self.full_space())

    def centralizer(self, s: Subspace) -> Subspace:
        """Everything whose bracket with the given subspace vanishes,
        computed once per subspace.

        For each v in s, constraint row k takes x to the e_k coordinate of
        [v, x]; its entries are read off the nonzero structure constants.
        """
        key = "centralizer", s
        if key in self._memo:
            return self._memo[key]

        def constraints():
            for v in s.span.rows.values():
                rows: dict[int, dict[int, Q]] = {}
                for i, a in v.items():
                    for j, pairs in enumerate(self.nonzero[i]):
                        for k, c in pairs:
                            row = rows.setdefault(k, {})
                            row[j] = row.get(j, QZERO) + a * c
                yield from rows.values()

        self._memo[key] = span_kernel(span_of(constraints(), self.dim), self.dim)
        return self._memo[key]

    def killing_form(self) -> Matrix:
        """K[i][j] = trace(ad e_i ad e_j) = sum over l, k of c(i, l, k) c(j, k, l)."""
        if "killing" in self._memo:
            return self._memo["killing"]
        dim = self.dim
        # constants[i] maps (l, k) to c(i, l, k), the e_k coordinate of [e_i, e_l]
        constants = [
            {(l, k): c for l in range(dim) for k, c in self.nonzero[i][l]}
            for i in range(dim)
        ]
        cols: list[dict[int, Q]] = [{} for _ in range(dim)]
        for i in range(dim):
            for j in range(i, dim):
                cj = constants[j]
                value = sum(
                    (c * cj[k, l] for (l, k), c in constants[i].items() if (k, l) in cj),
                    QZERO,
                )
                if value:
                    cols[i][j] = cols[j][i] = value
        self._memo["killing"] = Matrix.from_sparse(dim, dim, cols)
        return self._memo["killing"]

    def subalgebra_on_basis(
        self, basis: Iterable[Mapping[int, Q]]
    ) -> tuple["LieAlgebra", Matrix]:
        """Algebra structure on the span of the given independent vectors.

        Returns the subalgebra in the given basis (order preserved, no
        re-echelonization) together with the inclusion matrix whose
        columns are the basis vectors.  On the standard basis e_0, ...,
        e_{dim-1} in order that is the algebra itself, with its memoised
        views, and the identity.  Raises if the vectors are dependent or
        the span is not bracket-closed.
        """
        sub, inclusion, _ = self.subalgebra_and_derivations(basis, ())
        return sub, inclusion

    def subalgebra_and_derivations(
        self, basis: Iterable[Mapping[int, Q]], acting: Iterable[Mapping[int, Q]]
    ) -> tuple["LieAlgebra", Matrix, list[Matrix | None]]:
        """subalgebra_on_basis, with the matrix of ad w on the span in the
        given basis for each acting vector w: column t holds the coordinates
        of [w, basis[t]], and the matrix is None when one of them leaves the
        span.  One elimination of the basis expresses every bracket.
        """
        basis, acting = list(basis), list(acting)
        inclusion = Matrix.from_sparse(self.dim, len(basis), basis)
        rows = inclusion.cols
        r = len(rows)
        images = [self._bracket(w, v) for w in acting for v in rows]
        if r == self.dim and all(u == {s: QONE} for s, u in enumerate(rows)):
            sub = self
        else:
            pairs = [(s, t) for s in range(r) for t in range(s + 1, r)]
            closure = [self._bracket(rows[s], rows[t]) for s, t in pairs]
            coords = coordinates_in(rows, closure + images)
            closure, images = coords[: len(pairs)], coords[len(pairs) :]
            if None in closure:
                raise ValueError("span is not closed under the bracket")
            sub = LieAlgebra.from_sparse(r, dict(zip(pairs, closure)))
        columns = [images[s * r : (s + 1) * r] for s in range(len(acting))]
        return sub, inclusion, [
            None if None in cols else Matrix.from_sparse(r, r, cols) for cols in columns
        ]

    def is_ideal(self, s: Subspace) -> bool:
        return s.contains(self.bracket_span(self.full_space(), s))

    def quotient(self, ideal: Subspace) -> tuple["LieAlgebra", Matrix]:
        """Quotient by an ideal, with a section.

        The quotient basis is the image of the standard vectors at the
        non-pivot indices of the ideal's echelon basis.  Returns
        (algebra, section): section maps quotient coordinates to the
        chosen representatives, those standard vectors.
        """
        if not self.is_ideal(ideal):
            raise ValueError("subspace is not an ideal")
        nonpivots = [j for j in range(self.dim) if j not in ideal.span.rows]
        qdim = len(nonpivots)
        section = Matrix.from_sparse(self.dim, qdim, ({j: QONE} for j in nonpivots))
        position = {j: s for s, j in enumerate(nonpivots)}
        brackets = {
            (position[a], position[b]): {
                position[k]: c for k, c in ideal.span.reduce(dict(self.nonzero[a][b])).items()
            }
            for a in nonpivots
            for b in nonpivots
            if a < b
        }
        return LieAlgebra.from_sparse(qdim, brackets), section

    def __eq__(self, other) -> bool:
        return isinstance(other, LieAlgebra) and self.nonzero == other.nonzero

    def __hash__(self):
        return hash(self.nonzero)

    def __repr__(self) -> str:
        return f"LieAlgebra(dim {self.dim})"
