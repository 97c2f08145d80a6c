"""Truncated module over the enveloping algebra of a nilpotent algebra.

Generators multiply as noncommuting letters subject to x y - y x = [x, y];
every product of basis letters straightens into a combination of ordered
monomials, encoded as exponent tuples.

The truncation is by weighted degree.  Each generator gets a weight, the
number of terms of the lower central series n, [n, n], [n, [n, n]], ...
that contain it, and a monomial the sum of weight times exponent over
its letters.  In a basis adapted to that series (each term spanned by a
subset of the generators) a bracket never lowers the weight, because
[C^a, C^b] lies in C^(a+b).  So straightening a word yields monomials of
at least its weight, and the monomials of weight above the truncation
order M span a left ideal of U(n) that every derivation of n preserves.
The quotient needs no elimination: its basis is the monomials of weight
at most M, left multiplication straightens and drops the heavy terms,
and derivations act by their Leibniz extension in the same way.  Since
x * 1 = x, n acts faithfully once M reaches the largest weight, k - 1
for k the nilpotency index; that is the default and the floor.

A bracket or a derivation that lowers the weight means the basis is not
adapted, and building the module or the derivation action raises
TripwireError naming the offending indices.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

from .errors import InputError, TripwireError
from .lie import LieAlgebra
from .linalg import (
    Matrix,
    Q,
    QONE,
    QZERO,
    SparseMatrix,
    _add_scaled,
    bracket_residual,
    sparse_combination,
    unit_vector,
)

Monomial = tuple[int, ...]
Element = dict[Monomial, Q]

AMBIENT_LIMIT_ENV = "ADO_AMBIENT_LIMIT"
DEFAULT_AMBIENT_LIMIT = 20000


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


def monomial_word(mono: Monomial) -> tuple[int, ...]:
    return tuple(
        letter for letter, count in enumerate(mono) for _ in range(count)
    )


class StraighteningEngine:
    """Rewrites words in the generators into ordered monomial form."""

    def __init__(self, algebra: LieAlgebra):
        self.algebra = algebra
        r = algebra.dim
        # letters that a given letter slides past without corrections
        self._commutes = [
            frozenset(j for j in range(r) if not algebra.nonzero[i][j])
            for i in range(r)
        ]
        self._insert_memo: dict[tuple[int, Monomial], Element] = {}

    @property
    def ngens(self) -> int:
        return self.algebra.dim

    def straighten_word(self, word: Sequence[int]) -> Element:
        """Ordered-monomial form of a product of generator letters."""
        result: Element = {}
        stack: list[tuple[Q, tuple[int, ...]]] = [(QONE, tuple(word))]
        while stack:
            coeff, w = stack.pop()
            for idx in range(len(w) - 1):
                a, b = w[idx], w[idx + 1]
                if a > b:
                    stack.append((coeff, w[:idx] + (b, a) + w[idx + 2 :]))
                    for k, c in self.algebra.nonzero[a][b]:
                        stack.append((coeff * c, w[:idx] + (k,) + w[idx + 2 :]))
                    break
            else:
                mono = self._sorted_word_monomial(w)
                acc = result.get(mono, QZERO) + coeff
                if acc:
                    result[mono] = acc
                else:
                    result.pop(mono, None)
        return result

    def _sorted_word_monomial(self, word: tuple[int, ...]) -> Monomial:
        mono = [0] * self.ngens
        for letter in word:
            mono[letter] += 1
        return tuple(mono)

    def _slides_home(self, letter: int, mono: Monomial) -> bool:
        commutes = self._commutes[letter]
        for j in range(letter):
            if mono[j] and j not in commutes:
                return False
        return True

    def insert(self, letter: int, mono: Monomial) -> Element:
        """Straightened form of generator times ordered monomial."""
        if self._slides_home(letter, mono):
            return {mono[:letter] + (mono[letter] + 1,) + mono[letter + 1 :]: QONE}
        key = (letter, mono)
        cached = self._insert_memo.get(key)
        if cached is None:
            cached = self.straighten_word((letter,) + monomial_word(mono))
            self._insert_memo[key] = cached
        return cached

    def derive_monomial(self, derivation: Matrix, mono: Monomial) -> Element:
        """Extend a derivation of the algebra to the monomial by Leibniz."""
        word = monomial_word(mono)
        out: Element = {}
        for t, letter in enumerate(word):
            for k in range(self.ngens):
                c = derivation.rows[k][letter]
                if c:
                    replaced = word[:t] + (k,) + word[t + 1 :]
                    _add_scaled(out, self.straighten_word(replaced), c)
        return out


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

    def coordinates(self, element: Element) -> dict[int, Q]:
        """Sparse module coordinates of an element: its heavy terms dropped."""
        return {i: c for m, c in element.items() if (i := self.index.get(m)) is not None}

    def action_matrix(self, image: Callable[[Monomial], Element]) -> SparseMatrix:
        """Matrix sending each basis monomial m to the coordinates of image(m)."""
        cols = [self.coordinates(image(mono)) for mono in self.monomials]
        return SparseMatrix(self.dim, self.dim, cols)


@dataclass(frozen=True)
class BuiltModule:
    module: TruncatedModule
    engine: StraighteningEngine
    left: tuple[SparseMatrix, ...]

    def left_action(self, coords: Sequence[Q]) -> SparseMatrix:
        """Matrix of left multiplication by an algebra element."""
        return sparse_combination(coords, self.left, self.module.dim, self.module.dim)

    def derivation_action(self, derivation: Matrix) -> SparseMatrix:
        """Matrix of the Leibniz extension of a derivation of the algebra.

        Raises TripwireError when the derivation sends a generator to one
        of lower weight, which would not preserve the heavy monomials.
        """
        weights = self.module.weights
        for k, row in enumerate(derivation.rows):
            for i, c in enumerate(row):
                if c and weights[k] < weights[i]:
                    raise TripwireError(
                        "module", "derivation lowers the weight", entry=[k, i]
                    )
        return self.module.action_matrix(partial(self.engine.derive_monomial, derivation))


def ambient_limit() -> int:
    raw = os.environ.get(AMBIENT_LIMIT_ENV)
    if raw is None:
        return DEFAULT_AMBIENT_LIMIT
    try:
        value = int(raw)
    except ValueError:
        raise InputError(
            "module", f"{AMBIENT_LIMIT_ENV} must be an integer", value=raw
        ) from None
    if value < 1:
        raise InputError(
            "module", f"{AMBIENT_LIMIT_ENV} must be positive", value=raw
        )
    return value


def build_module(
    algebra: LieAlgebra, truncation: int | None = None
) -> BuiltModule:
    """Construct the truncated module and the left action matrices.

    The truncation defaults to its floor max(1, k - 1), k the nilpotency
    index, which is the largest generator weight; a chosen truncation
    can only raise it, so every generator survives into the module.
    Raises InputError for a truncation below the floor, or when the
    weighted monomial count exceeds the ambient limit (checked before
    enumeration); and TripwireError when a bracket lowers the weight,
    that is when the basis is not adapted to the lower central series.
    """
    nilindex = algebra.nilpotency_index()
    floor = max(1, nilindex - 1)
    order = truncation if truncation is not None else floor
    if order < floor:
        raise InputError(
            "module",
            "truncation must be at least the largest generator weight",
            truncation=order,
            minimum=floor,
        )
    r = algebra.dim
    series = algebra.lower_central_series()
    weights = tuple(
        sum(term.member(unit_vector(r, i)) for term in series) for i in range(r)
    )
    for i in range(r):
        for j in range(i + 1, r):
            for k, _ in algebra.nonzero[i][j]:
                if weights[k] < weights[i] + weights[j]:
                    raise TripwireError(
                        "module", "bracket lowers the weight", pair=[i, j], generator=k
                    )
    limit = ambient_limit()
    # the powers of a weight-1 generator alone number order + 1, so a
    # count up to weight min(order, limit) decides the guard
    count = weighted_count(weights, min(order, limit))
    if count > limit:
        raise InputError(
            "module",
            "weighted monomial count exceeds the limit; "
            f"raise {AMBIENT_LIMIT_ENV} to insist",
            count=count,
            limit=limit,
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
    engine = StraighteningEngine(algebra)
    left = tuple(module.action_matrix(partial(engine.insert, i)) for i in range(r))
    return BuiltModule(module=module, engine=engine, left=left)


def verify_module_axioms(
    built: BuiltModule, derivations: Sequence[Matrix] = ()
) -> list[SparseMatrix]:
    """Check the bracket compatibilities of the built actions.

    Left actions must represent the algebra, derivation actions must
    represent the commutators of the given derivation matrices, and the
    mixed bracket of a derivation action with a left action must be the
    left action of the derived element.  Returns the derivation action
    matrices so callers can reuse them.
    """
    def check(residual: SparseMatrix, message: str, **where) -> None:
        if not residual.is_zero():
            raise TripwireError("module", message, **where)

    nonzero = built.module.algebra.nonzero
    left = built.left
    r = len(left)
    for i in range(r):
        for j in range(i + 1, r):
            residual = bracket_residual(left[i], left[j], [(c, left[k]) for k, c in nonzero[i][j]])
            check(residual, "left actions do not represent the bracket", pair=[i, j])
    actions = [built.derivation_action(d) for d in derivations]
    for a, (d, action) in enumerate(zip(derivations, actions)):
        for i in range(r):
            terms = [(c, m) for c, m in zip(d.column(i), left) if c]
            residual = bracket_residual(action, left[i], terms)
            message = "derivation action fails against a left action"
            check(residual, message, derivation=a, generator=i)
    for a in range(len(actions)):
        for b in range(a + 1, len(actions)):
            commutator = derivations[a] * derivations[b] - derivations[b] * derivations[a]
            target = built.derivation_action(commutator)
            residual = bracket_residual(actions[a], actions[b], [(QONE, target)])
            message = "derivation actions do not respect their commutator"
            check(residual, message, pair=[a, b])
    return actions
