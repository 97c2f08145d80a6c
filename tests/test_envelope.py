"""Straightening and the weighted truncated module, checked against a word oracle.

The oracle straightens with its own recursive rewriting, weighs the
basis by brute-force lower central terms and counts monomials by the
generating function.  It never touches the package's engine internals.
"""

from dataclasses import replace
from fractions import Fraction as Q

import pytest

from ado.catalog import catalog_algebra
from ado.envelope import (
    BuiltModule,
    StraighteningEngine,
    build_module,
    verify_module_axioms,
    weighted_monomials,
)
from ado.errors import InputError, TripwireError
from ado.lie import LieAlgebra
from ado.linalg import Matrix, SparseMatrix

from helpers import (
    change_of_basis,
    from_dense,
    module_disagreements,
    oracle_straighten,
    to_dense,
)


HEIS = catalog_algebra("heisenberg")
FILIFORM = {(0, 1): {2: 1}, (0, 2): {3: 1}}


def test_straighten_frozen_cases():
    engine = StraighteningEngine(HEIS)
    # y x = x y - z
    assert engine.straighten_word((1, 0)) == {(1, 1, 0): Q(1), (0, 0, 1): Q(-1)}
    # y x x = x^2 y - 2 x z
    assert engine.straighten_word((1, 0, 0)) == {(2, 1, 0): Q(1), (1, 0, 1): Q(-2)}
    # sorted words pass through
    assert engine.straighten_word((0, 1, 2)) == {(1, 1, 1): Q(1)}
    assert engine.straighten_word(()) == {(0, 0, 0): Q(1)}


def test_straighten_agrees_with_oracle_on_all_short_words():
    engine = StraighteningEngine(HEIS)
    words = [(a,) for a in range(3)]
    for _ in range(3):
        words = [w + (a,) for w in words for a in range(3)]
        for w in words:
            assert engine.straighten_word(w) == oracle_straighten(HEIS, w)


def test_insert_uses_central_shortcut():
    engine = StraighteningEngine(HEIS)
    assert engine.insert(2, (1, 1, 0)) == {(1, 1, 1): Q(1)}
    assert engine.insert(1, (1, 0, 0)) == {(1, 1, 0): Q(1), (0, 0, 1): Q(-1)}


def test_module_dimensions_frozen():
    for truncation, module_dim in ((2, 7), (3, 13), (5, 34)):
        built = build_module(HEIS, truncation=truncation)
        assert built.module.weights == (1, 1, 2)
        assert built.module.dim == module_dim


def test_module_agrees_with_word_oracle():
    cases = [
        (HEIS, 2),
        (HEIS, 3),
        (catalog_algebra("heisenberg5"), 2),
        (catalog_algebra("heisenberg5"), 4),
        (catalog_algebra("abelian:3"), 2),
    ]
    # the nilpotent part the pipeline reaches for t3: a Heisenberg
    # triple next to three central directions
    t3_nil = LieAlgebra.from_sparse(6, {(0, 1): {2: 1}})
    cases.append((t3_nil, 2))
    # the 4-dim filiform algebra, weights 1, 1, 2, 3
    cases.append((LieAlgebra.from_sparse(4, FILIFORM), 4))
    for algebra, truncation in cases:
        assert module_disagreements(build_module(algebra, truncation=truncation)) == []


def test_module_agrees_with_word_oracle_at_default_truncation():
    built = build_module(HEIS)
    assert built.module.truncation == 2
    assert module_disagreements(built) == []


def test_abelian_modules_are_full_polynomial_truncations():
    from math import comb

    for m in (1, 2, 3):
        for truncation in (1, 2, 3, 4):
            built = build_module(catalog_algebra(f"abelian:{m}"), truncation=truncation)
            assert built.module.weights == (1,) * m
            assert built.module.dim == comb(m + truncation, m)


def test_truncation_floor_is_the_largest_weight():
    # e4 has weight 3: truncation 2 would drop it, so it is refused
    filiform = LieAlgebra.from_sparse(4, FILIFORM)
    assert filiform.nilpotency_index() == 4
    with pytest.raises(InputError) as exc:
        build_module(filiform, truncation=2)
    assert exc.value.stage == "module"
    assert exc.value.payload == {"truncation": 2, "minimum": 3}
    built = build_module(filiform)
    assert built.module.truncation == 3
    assert built.module.weights == (1, 1, 2, 3)


def test_ambient_guard():
    # 20336 monomials of weighted degree <= 60 with weights 1, 1, 2
    with pytest.raises(InputError) as exc:
        build_module(HEIS, truncation=60)
    assert "limit" in exc.value.message
    assert exc.value.payload["count"] == 20336
    # refused at once, without a table as long as the truncation order
    with pytest.raises(InputError):
        build_module(HEIS, truncation=10**12)


def test_ambient_guard_env_override(monkeypatch):
    monkeypatch.setenv("ADO_AMBIENT_LIMIT", "10")
    with pytest.raises(InputError):
        build_module(HEIS, truncation=5)
    monkeypatch.setenv("ADO_AMBIENT_LIMIT", "1000000")
    built = build_module(HEIS, truncation=5)
    assert built.module.dim == 34
    monkeypatch.setenv("ADO_AMBIENT_LIMIT", "zero")
    with pytest.raises(InputError):
        build_module(HEIS, truncation=5)


def test_truncation_must_be_at_least_one():
    with pytest.raises(InputError):
        build_module(HEIS, truncation=0)


# heisenberg on (x, y, x+z): [e1, e2] = z = e3 - e1 has an e1 term of weight 1
X_Y_X_PLUS_Z = Matrix([(1, 0, 0), (0, 1, 0), (1, 0, 1)]).transpose()


def test_weight_tripwire_on_an_unadapted_basis():
    g = change_of_basis(HEIS, X_Y_X_PLUS_Z)
    with pytest.raises(TripwireError) as exc:
        build_module(g)
    assert exc.value.stage == "module"
    assert exc.value.message == "bracket lowers the weight"
    assert exc.value.payload == {"pair": [0, 1], "generator": 0}


def test_weight_tripwire_on_a_weight_lowering_derivation():
    built = build_module(HEIS)
    # z -> x sends weight 2 to weight 1; checked before any action is built
    lowering = Matrix([[0, 0, 1], [0, 0, 0], [0, 0, 0]])
    with pytest.raises(TripwireError) as exc:
        built.derivation_action(lowering)
    assert exc.value.stage == "module"
    assert exc.value.message == "derivation lowers the weight"
    assert exc.value.payload == {"entry": [0, 2]}


def test_module_axioms_for_left_actions():
    for name in ("heisenberg", "heisenberg5", "abelian:2"):
        built = build_module(catalog_algebra(name), truncation=3)
        verify_module_axioms(built)


def test_derivation_action_frozen_weights():
    built = build_module(HEIS, truncation=2)
    weights = Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    action = verify_module_axioms(built, [weights])[0]
    # module basis in graded order: 1, z, y, x, y^2, xy, x^2
    expected = Matrix(
        [
            [0, 0, 0, 0, 0, 0, 0],
            [0, 2, 0, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, 0, 0],
            [0, 0, 0, 1, 0, 0, 0],
            [0, 0, 0, 0, 2, 0, 0],
            [0, 0, 0, 0, 0, 2, 0],
            [0, 0, 0, 0, 0, 0, 2],
        ]
    )
    assert to_dense(action) == expected


def test_derivation_axioms_with_two_derivations():
    built = build_module(HEIS, truncation=3)
    d1 = Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    d2 = Matrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]])  # x <- y, a nilpotent derivation
    verify_module_axioms(built, [d1, d2])


def _bump(m: SparseMatrix, r: int, c: int) -> SparseMatrix:
    rows = [list(row) for row in to_dense(m).rows]
    rows[r][c] += 1
    return from_dense(Matrix(rows))


def _tamper_derivation_call(monkeypatch, call: int) -> None:
    # the call-th derivation action the module computes gets one entry bumped
    original = BuiltModule.derivation_action
    calls = []

    def tampered(self, derivation):
        calls.append(derivation)
        action = original(self, derivation)
        return _bump(action, 0, 0) if len(calls) == call else action

    monkeypatch.setattr(BuiltModule, "derivation_action", tampered)


# entry (0, 0) is the unit's coefficient in an image, zero for every
# action here; bumping it breaks the bracket with any generator
WEIGHTS = Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
SHIFT = Matrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]])  # x <- y, nilpotent


def test_module_axioms_name_a_tampered_left_action():
    built = build_module(HEIS, truncation=3)
    left = (_bump(built.left[0], 0, 0),) + built.left[1:]
    with pytest.raises(TripwireError) as exc:
        verify_module_axioms(replace(built, left=left))
    assert exc.value.stage == "module"
    assert exc.value.message == "left actions do not represent the bracket"
    assert exc.value.payload == {"pair": [0, 1]}


def test_module_axioms_name_a_tampered_derivation_action(monkeypatch):
    built = build_module(HEIS, truncation=3)
    _tamper_derivation_call(monkeypatch, 2)
    with pytest.raises(TripwireError) as exc:
        verify_module_axioms(built, [WEIGHTS, SHIFT])
    assert exc.value.message == "derivation action fails against a left action"
    assert exc.value.payload == {"derivation": 1, "generator": 0}


def test_module_axioms_name_a_tampered_commutator(monkeypatch):
    built = build_module(HEIS, truncation=3)
    # the third call is the action of the commutator of the two derivations
    _tamper_derivation_call(monkeypatch, 3)
    with pytest.raises(TripwireError) as exc:
        verify_module_axioms(built, [WEIGHTS, SHIFT])
    assert exc.value.message == "derivation actions do not respect their commutator"
    assert exc.value.payload == {"pair": [0, 1]}


def test_left_action_of_x_frozen():
    built = build_module(HEIS, truncation=2)
    # basis 1, z, y, x, y^2, xy, x^2; x kills xz-bound images
    assert to_dense(built.left[0]) == Matrix(
        [
            [0, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 0],
            [1, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, 0, 0],
            [0, 0, 0, 1, 0, 0, 0],
        ]
    )


def test_monomial_enumeration_graded_lex():
    monos = weighted_monomials((1, 1), 2)
    assert monos == ((0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0))
    # weights 1, 2: the monomial (0, 2) weighs 4 and is left out
    assert weighted_monomials((1, 2), 3) == ((0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (3, 0))
    assert weighted_monomials((), 4) == ((),)
