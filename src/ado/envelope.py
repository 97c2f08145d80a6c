"""Truncated module over the enveloping algebra of a nilpotent algebra.

Generators multiply as noncommuting letters subject to x y - y x = [x, y];
every product of basis letters straightens into a combination of ordered
monomials, encoded as exponent tuples.  Cutting away the span of all
straightened words longer than a truncation order M leaves a finite
dimensional quotient on which the algebra acts faithfully by left
multiplication once M is large enough.

The cut is computed entirely inside the space L of monomials of degree
at most M.  Writing S_N for the span of straightened words of length N
and pi for the projection killing monomials of degree above M, the
ideal slice I cap L equals pi(sum of S_N over N > M): every monomial of
degree N straightens to itself, so S_N contains all degree-N monomials
and the sum telescopes.  Words longer than B = M * max(1, k - 1) for k
the nilpotency index have all their monomials of degree above M (each
letter of a straightened monomial absorbs at most k - 1 letters of the
original word), so only lengths up to B contribute.  The slice is
reached from finitely many seeds: pi-images of left multiples of the
span of straightened length-M words, together with the pi-images of the
straightening corrections of one letter times a monomial of degree
M + 1 .. B - 1, closed under the truncated left actions.

That bound and the length filtration floor checked while straightening
assume a basis adapted to the lower central series: each term n, [n, n],
... spanned by a subset of the generators.  In another basis a bracket
can fall below the floor, and straightening raises TripwireError.

The cut is held in one form: a sparse echelon span over the indices of
the monomials of degree at most M in graded order, each row pivoting at
its lowest monomial index.  The module basis is the non-pivot monomials,
and the module coordinates of an element are the residue of its degree
<= M part with every pivot coordinate eliminated, which is unique.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial
from math import comb
from typing import Callable, Sequence

from .errors import FaithfulnessError, InputError, TripwireError
from .lie import LieAlgebra
from .linalg import (
    Matrix,
    Q,
    QONE,
    QZERO,
    SparseMatrix,
    SparseSpan,
    _add_scaled,
    bracket_residual,
    sparse_combination,
)

Monomial = tuple[int, ...]
Element = dict[Monomial, Q]

AMBIENT_LIMIT_ENV = "ADO_AMBIENT_LIMIT"
DEFAULT_AMBIENT_LIMIT = 20000


def monomials_up_to(ngens: int, degree: int) -> tuple[Monomial, ...]:
    """All exponent tuples of total degree <= degree, graded then lex."""
    if ngens == 0:
        return ((),)

    def exact(prefix: Monomial, remaining: int, slots: int):
        if slots == 1:
            yield prefix + (remaining,)
            return
        for first in range(remaining + 1):
            yield from exact(prefix + (first,), remaining - first, slots - 1)

    out: list[Monomial] = []
    for d in range(degree + 1):
        out.extend(exact((), d, ngens))
    return tuple(out)


def monomial_word(mono: Monomial) -> tuple[int, ...]:
    return tuple(
        letter for letter, count in enumerate(mono) for _ in range(count)
    )


class StraighteningEngine:
    """Rewrites words in the generators into ordered monomial form."""

    def __init__(self, algebra: LieAlgebra):
        self.algebra = algebra
        self.nilindex = algebra.nilpotency_index()
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
        self._check_filtration(len(word), result)
        return result

    def _sorted_word_monomial(self, word: tuple[int, ...]) -> Monomial:
        mono = [0] * self.ngens
        for letter in word:
            mono[letter] += 1
        return tuple(mono)

    def _check_filtration(self, length: int, element: Element) -> None:
        # a straightened letter absorbs at most nilindex - 1 word letters
        floor = -(-length // max(1, self.nilindex - 1))
        for mono in element:
            if sum(mono) < floor:
                raise TripwireError(
                    "straighten",
                    "monomial below the length filtration floor",
                    length=length,
                    monomial=list(mono),
                )

    def _slides_home(self, letter: int, mono: Monomial) -> bool:
        commutes = self._commutes[letter]
        for j in range(letter):
            if mono[j] and j not in commutes:
                return False
        return True

    def insert(self, letter: int, mono: Monomial) -> Element:
        """Straightened form of generator times ordered monomial."""
        if self._slides_home(letter, mono):
            return {self._increment(mono, letter): QONE}
        key = (letter, mono)
        cached = self._insert_memo.get(key)
        if cached is None:
            cached = self.straighten_word((letter,) + monomial_word(mono))
            self._insert_memo[key] = cached
        return cached

    @staticmethod
    def _increment(mono: Monomial, letter: int) -> Monomial:
        return mono[:letter] + (mono[letter] + 1,) + mono[letter + 1 :]

    def correction(self, letter: int, mono: Monomial) -> Element:
        """insert minus its dominant ordered monomial; often empty."""
        if self._slides_home(letter, mono):
            return {}
        out = dict(self.insert(letter, mono))
        _add_scaled(out, {self._increment(mono, letter): QONE}, -QONE)
        return out

    def left_multiply(self, letter: int, element: Element) -> Element:
        out: Element = {}
        for mono, coeff in element.items():
            _add_scaled(out, self.insert(letter, mono), coeff)
        return out

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


def _project(element: Element, index: dict[Monomial, int]) -> dict[int, Q]:
    """Index vector of the part of an element on the indexed monomials."""
    return {i: c for m, c in element.items() if (i := index.get(m)) is not None}


@dataclass(frozen=True)
class TruncatedModule:
    """Monomials of degree <= M modulo the cut ideal.

    low_ideal is the cut as a sparse echelon span over monomial indices,
    each row pivoting at its lowest index; the module basis is the
    non-pivot monomials, and position gives each one's place in it.
    """

    algebra: LieAlgebra
    nilindex: int
    truncation: int
    ambient_bound: int
    ambient_count: int
    monomials: tuple[Monomial, ...]
    index: dict[Monomial, int]
    low_ideal: SparseSpan
    position: dict[int, int]
    module_monomials: tuple[Monomial, ...]
    dim: int

    def coordinates(self, element: Element) -> dict[int, Q]:
        """Sparse module coordinates of the degree <= M part of an element."""
        residue = self.low_ideal.reduce(_project(element, self.index))
        return {self.position[i]: c for i, c in residue.items()}

    def action_matrix(self, image: Callable[[Monomial], Element]) -> SparseMatrix:
        """Matrix sending each basis monomial m to the coordinates of image(m)."""
        cols = [self.coordinates(image(mono)) for mono in self.module_monomials]
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
        """Matrix of the Leibniz extension of a derivation of the algebra."""
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

    The truncation defaults to the nilpotency index plus two.  The word
    bound and the filtration floor assume the algebra's basis is adapted
    to its lower central series; straightening raises TripwireError when
    it is not.  Raises FaithfulnessError when the generators fail to
    stay independent in the quotient, which can happen only for forced
    small truncations.
    """
    engine = StraighteningEngine(algebra)
    k = engine.nilindex
    order = truncation if truncation is not None else k + 2
    if order < 2:
        raise InputError("module", "truncation order must be at least 2", order=order)
    r = algebra.dim
    bound = order * max(1, k - 1)
    count = comb(r + bound, r)
    limit = ambient_limit()
    if count > limit:
        raise InputError(
            "module",
            "monomial count up to the word-length bound exceeds the limit; "
            f"raise {AMBIENT_LIMIT_ENV} to insist",
            count=count,
            limit=limit,
            generators=r,
            bound=bound,
        )

    monomials = monomials_up_to(r, order)
    index = {mono: idx for idx, mono in enumerate(monomials)}

    def unsparse(vec: dict[int, Q]) -> Element:
        return {monomials[i]: c for i, c in vec.items()}

    # span of straightened words of each length up to the truncation
    level: list[Element] = [
        {((0,) * i + (1,) + (0,) * (r - i - 1)): QONE} for i in range(r)
    ]
    for _ in range(order - 1):
        nxt = SparseSpan()
        rows: list[Element] = []
        for element in level:
            for i in range(r):
                residue = nxt.add(_project(engine.left_multiply(i, element), index))
                if residue is not None:
                    rows.append(unsparse(residue))
        level = rows

    span = SparseSpan()
    pending: list[dict[int, Q]] = []

    def feed(element: Element) -> None:
        residue = span.add(_project(element, index))
        if residue is not None:
            pending.append(residue)

    for element in level:
        for i in range(r):
            feed(engine.left_multiply(i, element))
    for mono in monomials_up_to(r, max(bound - 1, 0)):
        if sum(mono) <= order:
            continue
        for i in range(r):
            corr = engine.correction(i, mono)
            if corr:
                feed(corr)
    while pending:
        vec = pending.pop()
        element = unsparse(vec)
        for i in range(r):
            feed(engine.left_multiply(i, element))

    basis = [idx for idx in range(len(monomials)) if idx not in span.rows]
    module = TruncatedModule(
        algebra=algebra,
        nilindex=k,
        truncation=order,
        ambient_bound=bound,
        ambient_count=count,
        monomials=monomials,
        index=index,
        low_ideal=span,
        position={idx: p for p, idx in enumerate(basis)},
        module_monomials=tuple(monomials[idx] for idx in basis),
        dim=len(basis),
    )

    # the generators must stay independent modulo the cut ideal
    generators = SparseSpan()
    for i in range(r):
        unit = {(0,) * i + (1,) + (0,) * (r - i - 1): QONE}
        if generators.add(module.coordinates(unit)) is None:
            raise FaithfulnessError(
                "module",
                "generators become dependent in the truncated module",
                truncation=order,
            )

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

    table = built.module.algebra.table
    left = built.left
    r = len(left)
    for i in range(r):
        for j in range(i + 1, r):
            residual = bracket_residual(left[i], left[j], table[i][j], left)
            check(residual, "left actions do not represent the bracket", pair=[i, j])
    actions = [built.derivation_action(d) for d in derivations]
    for a, (d, action) in enumerate(zip(derivations, actions)):
        for i in range(r):
            residual = bracket_residual(action, left[i], d.column(i), left)
            message = "derivation action fails against a left action"
            check(residual, message, derivation=a, generator=i)
    for a in range(len(actions)):
        for b in range(a + 1, len(actions)):
            commutator = derivations[a] * derivations[b] - derivations[b] * derivations[a]
            target = built.derivation_action(commutator)
            residual = bracket_residual(actions[a], actions[b], (QONE,), (target,))
            message = "derivation actions do not respect their commutator"
            check(residual, message, pair=[a, b])
    return actions


def check_short_span_intersection(built: BuiltModule) -> dict:
    """How much of the span of short products the cut ideal captures.

    Returns a finding for provenance: the dimension of the span of the
    unit, the generators and all straightened two-letter products, and
    the dimension of its intersection with the cut ideal.  A nonzero
    intersection is legitimate at forced small truncations.
    """
    engine = built.engine
    r = engine.ngens
    elements: list[Element] = [{(0,) * r if r else (): QONE}]
    for i in range(r):
        elements.append({((0,) * i + (1,) + (0,) * (r - i - 1)): QONE})
    for i in range(r):
        for j in range(r):
            elements.append(engine.straighten_word((i, j)))
    # dim(short meet cut) = dim(short) - dim of its image in the quotient
    short, image = SparseSpan(), SparseSpan()
    for e in elements:
        short.add(_project(e, built.module.index))
        image.add(built.module.coordinates(e))
    return {
        "span_dimension": short.dim,
        "intersection_dimension": short.dim - image.dim,
    }
