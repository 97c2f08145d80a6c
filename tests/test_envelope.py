"""Straightening and the truncated module, checked against a word oracle.

The oracle enumerates straightened words levelwise with its own
recursive rewriting, keeps exact value sets per length, projects the
long lengths down to the truncation degree and spans.  It never touches
the package's engine internals.
"""

from dataclasses import replace
from fractions import Fraction as Q

import pytest

from ado.catalog import catalog_algebra
from ado.envelope import (
    BuiltModule,
    StraighteningEngine,
    build_module,
    check_short_span_intersection,
    monomials_up_to,
    verify_module_axioms,
)
from ado.errors import FaithfulnessError, InputError, TripwireError
from ado.lie import LieAlgebra
from ado.linalg import Matrix, SparseMatrix, Subspace

from helpers import (
    oracle_low_ideal,
    oracle_straighten,
    package_low_ideal_in_oracle_coords,
)


HEIS = catalog_algebra("heisenberg")


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
    assert engine.correction(2, (1, 1, 0)) == {}
    assert engine.correction(1, (1, 0, 0)) == {(0, 0, 1): Q(-1)}


def test_module_dimensions_frozen():
    for truncation, ideal_dim, module_dim in ((2, 3, 7), (3, 7, 13), (5, 22, 34)):
        built = build_module(HEIS, truncation=truncation)
        assert built.module.low_ideal.dim == ideal_dim
        assert built.module.dim == module_dim


def test_module_agrees_with_word_oracle():
    cases = [
        (HEIS, 2),
        (HEIS, 3),
        (catalog_algebra("heisenberg5"), 2),
        (catalog_algebra("abelian:3"), 2),
    ]
    # the nilpotent part the pipeline reaches for t3: a Heisenberg
    # triple next to three central directions
    t3_nil = LieAlgebra.from_sparse(6, {(0, 1): {2: 1}})
    cases.append((t3_nil, 2))
    for algebra, truncation in cases:
        built = build_module(algebra, truncation=truncation)
        assert package_low_ideal_in_oracle_coords(built) == oracle_low_ideal(
            algebra, truncation
        )


def test_module_agrees_with_word_oracle_at_default_truncation():
    built = build_module(HEIS)
    assert built.module.truncation == 5
    assert package_low_ideal_in_oracle_coords(built) == oracle_low_ideal(HEIS, 5)


def test_abelian_modules_are_full_polynomial_truncations():
    from math import comb

    for m in (1, 2, 3):
        for truncation in (2, 3, 4):
            built = build_module(catalog_algebra(f"abelian:{m}"), truncation=truncation)
            assert built.module.low_ideal.dim == 0
            assert built.module.dim == comb(m + truncation, m)


def test_generator_independence_enforced():
    # with index 4 and truncation 2, straightened long words reach
    # degree one and the generators collapse
    filiform = LieAlgebra.from_sparse(
        4, {(0, 1): {2: 1}, (0, 2): {3: 1}}
    )
    assert filiform.nilpotency_index() == 4
    with pytest.raises(FaithfulnessError):
        build_module(filiform, truncation=2)
    built = build_module(filiform)
    assert built.module.truncation == 6


def test_ambient_guard():
    with pytest.raises(InputError) as exc:
        build_module(HEIS, truncation=60)
    assert "limit" in exc.value.message


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


def test_truncation_must_be_at_least_two():
    with pytest.raises(InputError):
        build_module(HEIS, truncation=1)


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
    assert action.to_dense() == expected


def test_derivation_axioms_with_two_derivations():
    built = build_module(HEIS, truncation=3)
    d1 = Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    d2 = Matrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]])  # x <- y, a nilpotent derivation
    verify_module_axioms(built, [d1, d2])


def _bump(m: SparseMatrix, r: int, c: int) -> SparseMatrix:
    rows = [list(row) for row in m.to_dense().rows]
    rows[r][c] += 1
    return SparseMatrix.from_dense(Matrix(rows))


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


def test_short_span_finding():
    built2 = build_module(HEIS, truncation=2)
    finding = check_short_span_intersection(built2)
    assert finding == {"span_dimension": 10, "intersection_dimension": 3}
    built5 = build_module(HEIS, truncation=5)
    assert check_short_span_intersection(built5) == {
        "span_dimension": 10,
        "intersection_dimension": 0,
    }


def test_left_action_of_x_frozen():
    built = build_module(HEIS, truncation=2)
    # basis 1, z, y, x, y^2, xy, x^2; x kills xz-bound images
    assert built.left[0].to_dense() == Matrix(
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
    monos = monomials_up_to(2, 2)
    assert monos == ((0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0))
    assert monomials_up_to(0, 4) == ((),)
