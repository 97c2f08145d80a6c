"""The enveloping block V/W of a nilpotent algebra, in exponential coordinates.

n comes in a basis x_0, ..., x_{r-1} adapted to its lower central
series n, [n, n], [n, [n, n]], ...: each term is spanned by a subset of
the generators.  Each generator gets a weight, the number of terms that
contain it, and a monomial the sum of weight times exponent over its
letters.  A bracket never lowers the weight, because [C^a, C^b] lies in
C^(a+b), so the ordered monomials of weight above the truncation M span
a left ideal of U(n) that every derivation of n preserves.  V is U(n)
modulo that ideal, with the monomials of weight at most M for basis.
Since x * 1 = x, n acts faithfully once M reaches the largest weight,
k - 1 for k the nilpotency index; that is the truncation.

The block is V/W.  pi : V -> n is the degree-1 component in the
symmetrized basis sym(m) of the monomials, and W is the largest
submodule inside ker pi, so V/W is dual to U, the span of pi's rows
closed under f -> f y for y acting.  Symmetrization is canonical, and
the degree-1 part of a product is a Lie polynomial in its factors (the
first Eulerian idempotent), so pi kills every product of weight above
the truncation: W, and so dim V/W, depend on neither the basis nor the
truncation.  The cut stays faithful: for y = D + x with x in n, pi(y 1)
= x, and when x = 0, pi(D x_b) = D(x_b) is nonzero for some b.

V itself is never built.  A functional f on V is the polynomial F(t) =
f(exp T), T = sum of t_a x_a, and exp T = sum of t^alpha / alpha!
sym(x^alpha), so pi's rows are the coordinates t_a.  By the derivative
of the exponential map, f -> f y for y in n is the vector field sum over
b of Z_b(t) d/dt_b, Z = sum over k of (B_k / k!) (ad T)^k y with B_k the
Bernoulli numbers, B_1 = -1/2, a finite sum since ad T is nilpotent;
for a derivation D it is the linear field sum over b of (D T)_b d/dt_b.
Neither field raises the weight, so the closure stays among the
polynomials of weight at most M, as many as V's monomials.

When n is abelian, M is 1 and U is all of V*, the unit's row and the
letters'.  The block is then V itself, in its graded-lex monomial
order 1, x_{r-1}, ..., x_0.

A bracket or a derivation that lowers the weight means the basis is not
adapted, and the build raises TripwireError naming the offending
indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, lcm
from operator import add
from typing import Sequence

from .errors import InputError, TripwireError
from .lie import LieAlgebra
from .linalg import Matrix, Q, QONE, QZERO, _add_scaled, _add_scaled_int, _reduce_int

Monomial = tuple[int, ...]

AMBIENT_LIMIT = 20000


def weighted_count(weights: Sequence[int], bound: int) -> int:
    """Number of monomials of weighted degree <= bound.

    The sum of the coefficients of prod 1 / (1 - t^w) up to t^bound.
    """
    counts = [1] + [0] * bound
    for w in weights:
        for d in range(w, bound + 1):
            counts[d] += counts[d - w]
    return sum(counts)


@dataclass(frozen=True)
class BuiltModule:
    """The block V/W and the facts of the V it is cut from.

    images are the block's matrices: the acting derivations' in their
    order, then left multiplication by x_0, ..., x_{r-1}.
    ambient_monomials is V's monomial count, counted, not enumerated.
    """

    images: tuple[Matrix, ...]
    weights: tuple[int, ...]
    truncation: int
    nilindex: int
    ambient_monomials: int


# the benchmark's tracer looks this name up; ROADMAP item 2a drops it
# when it re-keys the tracer's envelope metrics
StraighteningEngine = BuiltModule


def build_module(algebra: LieAlgebra, derivations: Sequence[Matrix] = ()) -> BuiltModule:
    """The block V/W of n acted on by the given derivations and by n.

    The truncation is max(1, k - 1), k the nilpotency index.  Raises
    InputError when V's weighted monomial count exceeds the ambient
    limit, checked before any work; and TripwireError when a bracket or
    a derivation lowers the weight, that is when the basis is not
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
    for d in derivations:
        lowering = [[k, i] for i, col in enumerate(d.cols) for k in col if weights[k] < weights[i]]
        if lowering:
            raise TripwireError("module", "derivation lowers the weight", entry=min(lowering))

    if nilindex == 2:
        # V is the unit at index 0 and x_a at index r - a; x_a sends the
        # unit to x_a, D sends x_b to D(x_b) and every product is heavy
        images = [
            Matrix.from_sparse(
                r + 1, r + 1, [{}] + [{r - k: c for k, c in col.items()} for col in d.cols[::-1]]
            )
            for d in derivations
        ]
        images += [
            Matrix.from_sparse(r + 1, r + 1, [{r - a: QONE}] + [{}] * r) for a in range(r)
        ]
    else:
        coefficients = _bernoulli_over_factorial(nilindex - 1)
        fields = [
            {(b, _unit(r, a)): x for a, col in enumerate(d.cols) for b, x in col.items()}
            for d in derivations
        ]
        fields += [_left_field(algebra, a, coefficients) for a in range(r)]
        images = _closure_images(fields, r, count)
    return BuiltModule(tuple(images), weights, order, nilindex, count)


def _unit(r: int, a: int) -> Monomial:
    return tuple(int(b == a) for b in range(r))


def _bernoulli_over_factorial(count: int) -> list[Q]:
    """B_k / k! for k < count: the coefficients of x / (e^x - 1)."""
    coefficients = [QONE]
    for k in range(1, count):
        coefficients.append(-sum(c / factorial(k + 1 - j) for j, c in enumerate(coefficients)))
    return coefficients


def _left_field(
    algebra: LieAlgebra, a: int, coefficients: Sequence[Q]
) -> dict[tuple[int, Monomial], Q]:
    """Z = sum over k of (B_k / k!) (ad T)^k x_a, as the coefficient of
    t^alpha x_b at (b, alpha)."""
    r = algebra.dim
    term = {(a, (0,) * r): QONE}
    field: dict[tuple[int, Monomial], Q] = {}
    for c in coefficients:
        _add_scaled(field, term, c)
        # [T, t^alpha x_b] is the sum over s of t^alpha t_s [x_s, x_b]
        raised: dict[tuple[int, Monomial], Q] = {}
        for (b, alpha), x in term.items():
            for s in range(r):
                beta = alpha[:s] + (alpha[s] + 1,) + alpha[s + 1 :]
                for k, y in algebra.nonzero[s][b]:
                    raised[k, beta] = raised.get((k, beta), QZERO) + x * y
        term = {key: x for key, x in raised.items() if x}
    return field


def _closure_images(
    fields: Sequence[dict[tuple[int, Monomial], Q]], r: int, limit: int
) -> list[Matrix]:
    """The matrices on V/W of the operators with the given vector fields.

    U is found breadth first: t_0, ..., t_{r-1}, then for each basis
    functional u in turn its image under each field, in order.  Row i of
    a field's matrix holds the coordinates of u_i's image.  One tagged
    span runs both the closure and the coordinates, in int: monomials
    are keyed in the order they turn up, all below limit, basis
    functional s enters with a tag at limit + s, a functional f / den as
    the row f with den at its own new tag, and rows are reduced by
    cross-multiplication and divided by their content.  A functional
    that reduces onto the tags alone has minus its coordinates there
    over the entry at its own tag; one that does not is the next basis
    functional.
    """
    keys: dict[Monomial, int] = {}
    monomials: list[Monomial] = []

    def key(mono: Monomial) -> int:
        if (k := keys.get(mono)) is None:
            k = keys[mono] = len(monomials)
            monomials.append(mono)
        return k

    # each field as d times it in int: x t^beta d/dt_b sends t^alpha to
    # alpha_b x t^(alpha + beta - e_b); its image of each monomial is memoised
    ops = []
    for field in fields:
        d = lcm(*(x.denominator for x in field.values()))
        terms = [
            (b, tuple(e - (s == b) for s, e in enumerate(beta)), x.numerator * (d // x.denominator))
            for (b, beta), x in field.items()
        ]
        ops.append((d, terms, {}))

    def apply(op, f: dict[int, int]) -> dict[int, int]:
        _, terms, memo = op
        out: dict[int, int] = {}
        for m, c in f.items():
            if (image := memo.get(m)) is None:
                image = memo[m] = {}
                alpha = monomials[m]
                for b, shift, x in terms:
                    if e := alpha[b]:
                        t = key(tuple(map(add, alpha, shift)))
                        if acc := image.get(t, 0) + e * x:
                            image[t] = acc
                        else:
                            del image[t]
            _add_scaled_int(out, image, c)
        return out

    span: dict[int, dict[int, int]] = {}
    basis: list[tuple[dict[int, int], int]] = []

    def coordinates(f: dict[int, int], den: int) -> dict[int, Q] | None:
        """The coordinates of f / den in the basis, or None when it joins the basis."""
        tag = limit + len(basis)
        v = _reduce_int(span, {**f, tag: den})
        if (pivot := min(v)) >= limit:
            return {k - limit: Q(-c, v[tag]) for k, c in v.items() if k != tag}
        span[pivot] = v
        basis.append((f, den))
        return None

    for a in range(r):
        coordinates({key(_unit(r, a)): 1}, 1)
    rows: list[list[dict[int, Q]]] = [[] for _ in ops]
    for u, den in basis:
        for out, op in zip(rows, ops):
            found = coordinates(apply(op, u), den * op[0])
            out.append({len(basis) - 1: QONE} if found is None else found)
    size = len(basis)
    return [Matrix._wrap(size, size, image).transpose() for image in rows]
