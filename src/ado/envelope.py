"""Truncated module over the enveloping algebra of a nilpotent algebra.

The ordered monomials in the generators, encoded as exponent tuples,
are a basis of U(n).

The truncation is by weighted degree.  Each generator gets a weight, the
number of terms of the lower central series n, [n, n], [n, [n, n]], ...
that contain it, and a monomial the sum of weight times exponent over
its letters.  In a basis adapted to that series (each term spanned by a
subset of the generators) a bracket never lowers the weight, because
[C^a, C^b] lies in C^(a+b).  So the monomials of weight above the
truncation order M span a left ideal of U(n) that every derivation of n
preserves.  The quotient needs no elimination: its basis is the
monomials of weight at most M.  Since x * 1 = x, n acts faithfully once
M reaches the largest weight, k - 1 for k the nilpotency index; that is
the truncation.

Every action column is read off columns built before it.  A basis
monomial m other than 1 is x_b m', b its first letter and m' a monomial
of one degree less.  x_a m is the monomial x_a x_b m' when a <= b, and
otherwise x_b (x_a m') + [x_a, x_b] m'; a derivation D sends m to
D(x_b) m' + x_b D(m').  Dropping the heavy terms at each step is exact,
since they span an ideal that both preserve.

A bracket or a derivation that lowers the weight means the basis is not
adapted, and building the module or the derivation action raises
TripwireError naming the offending indices.

Most of V is not needed for faithfulness, and the block is cut to V/W
before the representation is assembled.  pi : V -> n is the degree-1
component in the symmetrized basis sym(m) of the monomials, and W is the
largest submodule inside ker pi.  Symmetrization is canonical, and the
degree-1 part of a product is a Lie polynomial in its factors (the first
Eulerian idempotent), so pi kills every product of weight above the
truncation: W, and so dim V/W, depend on neither the basis nor the
truncation.  The cut stays faithful: for y = D + x with x in n, pi(y 1)
= x, and when x = 0, pi(D x_b) = D(x_b) is nonzero for some b.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from math import gcd, lcm
from typing import Sequence

from .errors import InputError, TripwireError
from .lie import LieAlgebra
from .linalg import (
    Matrix,
    Q,
    QONE,
    _add_scaled,
    _add_scaled_int,
    _integer_family,
    _reduce_int,
    failing_brackets,
)

Monomial = tuple[int, ...]

AMBIENT_LIMIT = 20000


def _weight(mono: Monomial, weights: Sequence[int]) -> int:
    return sum(w * a for w, a in zip(weights, mono))


def weighted_count(weights: Sequence[int], bound: int) -> int:
    """Number of monomials of weighted degree <= bound.

    The sum of the coefficients of prod 1 / (1 - t^w) up to t^bound.
    """
    counts = [1] + [0] * bound
    for w in weights:
        for d in range(w, bound + 1):
            counts[d] += counts[d - w]
    return sum(counts)


def weighted_monomials(weights: Sequence[int], bound: int) -> tuple[Monomial, ...]:
    """Exponent tuples of weighted degree <= bound, graded by degree then lex."""
    monos: list[Monomial] = [()]
    for w in weights:
        monos = [
            m + (a,) for m in monos for a in range((bound - _weight(m, weights)) // w + 1)
        ]
    return tuple(sorted(monos, key=lambda m: (sum(m), m)))


@dataclass(frozen=True)
class TruncatedModule:
    """U(n) modulo the monomials of weighted degree above the truncation.

    The basis is the monomials of weighted degree at most the
    truncation, graded by degree then lex; index gives each one's place.
    """

    algebra: LieAlgebra
    nilindex: int
    weights: tuple[int, ...]
    truncation: int
    monomials: tuple[Monomial, ...]
    index: dict[Monomial, int]

    @property
    def dim(self) -> int:
        return len(self.monomials)


class StraighteningEngine:
    """Builds the action columns of a truncated module by the recurrence
    over earlier columns that the module docstring sets out."""

    def __init__(self, module: TruncatedModule):
        self.module = module
        r = module.algebra.dim
        # (b, index of m') for each monomial m = x_b m'; the unit gets
        # the letter r, past every generator
        self._split = [(r, 0)]
        for mono in module.monomials[1:]:
            b = next(i for i, e in enumerate(mono) if e)
            rest = mono[:b] + (mono[b] - 1,) + mono[b + 1 :]
            self._split.append((b, module.index[rest]))

    def left_actions(self) -> tuple[Matrix, ...]:
        """The matrices of left multiplication by each generator.

        Filled by degree and then by letter, so that the columns of x_b
        and of x_a on m' are built before the column of x_a on x_b m'.
        """
        mod = self.module
        nonzero = mod.algebra.nonzero
        r, dim = mod.algebra.dim, mod.dim
        cols = [[None] * dim for _ in range(r)]
        by_degree = groupby(range(dim), key=lambda i: sum(mod.monomials[i]))
        for _, block in by_degree:
            block = list(block)
            for a in range(r):
                for i in block:
                    b, j = self._split[i]
                    if a <= b:
                        mono = mod.monomials[i]
                        t = mod.index.get(mono[:a] + (mono[a] + 1,) + mono[a + 1 :])
                        col = {} if t is None else {t: QONE}
                    else:
                        col = {}
                        for t, c in cols[a][j].items():
                            _add_scaled(col, cols[b][t], c)
                        for k, c in nonzero[a][b]:
                            _add_scaled(col, cols[k][j], c)
                    cols[a][i] = col
        return tuple(Matrix.from_sparse(dim, dim, c) for c in cols)

    def derivation_action(self, left: Sequence[Matrix], derivation: Matrix) -> Matrix:
        """The matrix of the Leibniz extension of a derivation, given the left actions."""
        cols: list[dict[int, Q]] = [{}]
        for b, j in self._split[1:]:
            col: dict[int, Q] = {}
            for k, c in derivation.cols[b].items():
                _add_scaled(col, left[k].cols[j], c)
            for t, c in cols[j].items():
                _add_scaled(col, left[b].cols[t], c)
            cols.append(col)
        return Matrix.from_sparse(self.module.dim, self.module.dim, cols)


@dataclass(frozen=True)
class BuiltModule:
    module: TruncatedModule
    engine: StraighteningEngine
    left: tuple[Matrix, ...]

    def derivation_action(self, derivation: Matrix) -> Matrix:
        """Matrix of the Leibniz extension of a derivation of the algebra.

        Raises TripwireError when the derivation sends a generator to one
        of lower weight, which would not preserve the heavy monomials.
        """
        weights = self.module.weights
        lowering = [
            [k, i] for i, col in enumerate(derivation.cols) for k in col if weights[k] < weights[i]
        ]
        if lowering:
            raise TripwireError("module", "derivation lowers the weight", entry=min(lowering))
        return self.engine.derivation_action(self.left, derivation)


def build_module(algebra: LieAlgebra) -> BuiltModule:
    """Construct the truncated module and the left action matrices.

    The truncation is max(1, k - 1), k the nilpotency index, which is the
    largest generator weight, so every generator survives into the
    module.  Raises InputError when the weighted monomial count exceeds
    the ambient limit (checked before enumeration); and TripwireError
    when a bracket lowers the weight, that is when the basis is not
    adapted to the lower central series.
    """
    nilindex = algebra.nilpotency_index()
    order = max(1, nilindex - 1)
    r = algebra.dim
    series = algebra.lower_central_series()
    weights = tuple(
        sum(term.member({i: QONE}) for term in series) for i in range(r)
    )
    for i in range(r):
        for j in range(i + 1, r):
            for k, _ in algebra.nonzero[i][j]:
                if weights[k] < weights[i] + weights[j]:
                    raise TripwireError(
                        "module", "bracket lowers the weight", pair=[i, j], generator=k
                    )
    count = weighted_count(weights, order)
    if count > AMBIENT_LIMIT:
        raise InputError(
            "module",
            "weighted monomial count exceeds the limit",
            count=count,
            limit=AMBIENT_LIMIT,
            generators=r,
            truncation=order,
        )

    monomials = weighted_monomials(weights, order)
    module = TruncatedModule(
        algebra=algebra,
        nilindex=nilindex,
        weights=weights,
        truncation=order,
        monomials=monomials,
        index={mono: idx for idx, mono in enumerate(monomials)},
    )
    engine = StraighteningEngine(module)
    return BuiltModule(module=module, engine=engine, left=engine.left_actions())


def verify_module_axioms(
    built: BuiltModule, derivations: Sequence[Matrix] = ()
) -> list[Matrix]:
    """Check the bracket compatibilities of the built actions.

    Left actions must represent the algebra, derivation actions must
    represent the commutators of the given derivation matrices, and the
    mixed bracket of a derivation action with a left action must be the
    left action of the derived element.  Returns the derivation action
    matrices so callers can reuse them.
    """
    nonzero = built.module.algebra.nonzero
    left = built.left
    r, count = len(left), len(derivations)
    actions = [built.derivation_action(d) for d in derivations]
    pairs = [(a, b) for a in range(count) for b in range(a + 1, count)]
    targets = [
        built.derivation_action(derivations[a] * derivations[b] - derivations[b] * derivations[a])
        for a, b in pairs
    ]
    # one check over the family left, actions, targets: the left actions'
    # brackets, then [D_a, x_i], the left action of D_a(x_i), read off
    # column i of the derivation, then [D_a, D_b], the target of (a, b)
    relations = {(i, j): nonzero[i][j] for i in range(r) for j in range(i + 1, r)}
    for a, d in enumerate(derivations):
        relations.update({(r + a, i): tuple(d.cols[i].items()) for i in range(r)})
    for n, (a, b) in enumerate(pairs):
        relations[r + a, r + b] = ((r + count + n, QONE),)
    if failing := failing_brackets([*left, *actions, *targets], relations):
        i, j = failing[0]
        if i < r:
            raise TripwireError("module", "left actions do not represent the bracket", pair=[i, j])
        if j < r:
            message = "derivation action fails against a left action"
            raise TripwireError("module", message, derivation=i - r, generator=j)
        message = "derivation actions do not respect their commutator"
        raise TripwireError("module", message, pair=[i - r, j - r])
    return actions


def projection_rows(built: BuiltModule) -> list[dict[int, Q]]:
    """The coordinate functionals of pi : V -> n, one row per generator.

    pi(v) is the degree-1 part of v in the symmetrized basis sym(m) of
    the monomials.  The columns of sym(m) follow the module's recurrence
    sym(x^alpha) = sum over a of (alpha_a / |alpha|) x_a sym(x^(alpha - e_a)),
    run here in int on the sums t(x^alpha) = sum over a of x_a t(x^(alpha - e_a))
    of the distinct words, d^|alpha| |alpha|! / alpha! times sym(x^alpha)
    for d the common denominator of the left actions.  sym(m) is m plus
    terms of lower degree, so the matrix S of these columns is unit upper
    triangular in the graded order.  Column j of pi is then e_a for the
    monomial x_a, 0 for the unit and otherwise minus the sum of S[t, j]
    times column t of pi over t < j: back substitution, each column held
    as int numerators over one denominator.
    """
    mod = built.module
    _, left = _integer_family(built.left)
    sums: list[dict[int, int]] = []
    proj: list[tuple[dict[int, int], int]] = []
    for j, mono in enumerate(mod.monomials):
        degree = sum(mono)
        if degree <= 1:
            sums.append({j: 1})
            proj.append(({mono.index(1): 1} if degree else {}, 1))
            continue
        col: dict[int, int] = {}
        for a, e in enumerate(mono):
            if e:
                for t, c in sums[mod.index[mono[:a] + (e - 1,) + mono[a + 1 :]]].items():
                    _add_scaled_int(col, left[a][t], c)
        sums.append(col)
        below = [(c, *proj[t]) for t, c in col.items() if t != j and proj[t][0]]
        common = lcm(*(q for _, _, q in below))
        num: dict[int, int] = {}
        for c, p, q in below:
            _add_scaled_int(num, p, -c * (common // q))
        den = col[j] * common
        g = gcd(den, *num.values())
        proj.append(({a: x // g for a, x in num.items()}, den // g))
    rows: list[dict[int, Q]] = [{} for _ in range(mod.algebra.dim)]
    for j, (p, q) in enumerate(proj):
        for a, x in p.items():
            rows[a][j] = Q(x, q)
    return rows


def cut_images(built: BuiltModule, images: Sequence[Matrix]) -> tuple[Matrix, ...]:
    """The images on V/W, W the largest submodule inside the kernel of pi.

    images are the matrices on V of the derivation actions and the left
    actions; together they generate the action.  The annihilator of W is
    U, the span of pi's rows closed under f -> f rho(x) for every image
    rho(x).  With the rows of F a basis of U, found in that closure, each
    image gets the matrix R(x) with F rho(x) = R(x) F.  When U is all of
    V* the images come back as they are.

    One tagged span runs both the closure and the coordinates of R, in
    int: basis functional s enters it with a tag at dim V + s, a
    functional f / den as the row f with den at its own new tag, and rows
    are reduced by cross-multiplication and divided by their content.  A
    functional that reduces onto the tags alone has minus its coordinates
    there over the entry at its own tag; one that does not is the next
    basis functional.  Raises TripwireError when pi's rows are dependent,
    that is when dim ker pi is not dim V - dim n.
    """
    dim = built.module.dim
    # the rows of d rho(x) as ints, d the common denominator of rho(x)
    forms = []
    for m in images:
        d, (cols,) = _integer_family([m])
        image_rows: list[dict[int, int]] = [{} for _ in range(dim)]
        for j, col in enumerate(cols):
            for i, x in col.items():
                image_rows[i][j] = x
        forms.append((d, image_rows))
    span: dict[int, dict[int, int]] = {}
    basis: list[tuple[dict[int, int], int]] = []

    def coordinates(f: dict[int, int], den: int) -> dict[int, Q] | None:
        """The coordinates of f / den in the basis, or None when it joins the basis."""
        tag = dim + len(basis)
        v = _reduce_int(span, {**f, tag: den})
        if (pivot := min(v)) >= dim:
            return {k - dim: Q(-c, v[tag]) for k, c in v.items() if k != tag}
        span[pivot] = v
        basis.append((f, den))
        return None

    for a, f in enumerate(projection_rows(built)):
        den = lcm(*(x.denominator for x in f.values()))
        f_int = {k: x.numerator * (den // x.denominator) for k, x in f.items()}
        if coordinates(f_int, den) is not None:
            raise TripwireError("module", "projection onto n is not onto", generator=a)
    rows: list[list[dict[int, Q]]] = [[] for _ in images]
    for u, den in basis:
        for out, (d, image_rows) in zip(rows, forms):
            f: dict[int, int] = {}
            for k, c in u.items():
                _add_scaled_int(f, image_rows[k], c)
            found = coordinates(f, den * d)
            if len(basis) == dim:
                return tuple(images)
            out.append({len(basis) - 1: QONE} if found is None else found)
    size = len(basis)
    return tuple(Matrix._wrap(size, size, image).transpose() for image in rows)
