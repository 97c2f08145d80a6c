"""Jordan decomposition: frozen cases, random oracle, derivation variant."""

import random
from fractions import Fraction as Q

import pytest

from ado.catalog import catalog_algebra
from ado.errors import TripwireError
from ado.jordan import derivation_witness, jc_decompose, jc_decompose_derivation
from ado.linalg import (
    Matrix,
    Polynomial,
    minimal_polynomial,
    poly_gcd,
    unit_vector,
)

from helpers import (
    dense_ad,
    block_diag,
    conjugated_jordan,
    jordan_block,
    semisimple_from_eigenvalues,
)


def test_zero_matrix():
    dec = jc_decompose(Matrix.zeros(3, 3))
    assert dec.semisimple.is_zero()
    assert dec.nilpotent.is_zero()
    assert dec.witness == Polynomial.zero()


def test_empty_matrix():
    dec = jc_decompose(Matrix([], ncols=0))
    assert dec.semisimple == Matrix([], ncols=0)
    assert dec.witness == Polynomial.zero()


def test_single_jordan_block_at_one():
    dec = jc_decompose(jordan_block(Q(1), 2))
    assert dec.semisimple == Matrix.identity(2)
    assert dec.nilpotent == Matrix([[0, 1], [0, 0]])
    assert dec.witness == Polynomial((1,))


def test_nilpotent_block():
    dec = jc_decompose(jordan_block(Q(0), 3))
    assert dec.semisimple.is_zero()
    assert dec.nilpotent == jordan_block(Q(0), 3)
    assert dec.witness == Polynomial.zero()


def test_mixed_spectrum_frozen_witness():
    d = block_diag([jordan_block(Q(1), 2), jordan_block(Q(0), 1)])
    dec = jc_decompose(d)
    assert dec.witness == Polynomial((0, 2, -1))
    assert dec.semisimple == Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    assert dec.nilpotent == Matrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]])


def test_rotation_is_already_semisimple():
    # eigenvalues are not rational, yet the split is exact over Q
    d = dense_ad(catalog_algebra("rot3"), unit_vector(3, 0))
    assert d == Matrix([[0, 0, 0], [0, 0, -1], [0, 1, 0]])
    dec = jc_decompose(d)
    assert dec.semisimple == d
    assert dec.nilpotent.is_zero()
    assert dec.witness == Polynomial.variable()


def test_jordan3_generator_action():
    d = dense_ad(catalog_algebra("jordan3"), unit_vector(3, 0))
    assert d == Matrix([[0, 0, 0], [0, 1, 1], [0, 0, 1]])
    dec = jc_decompose(d)
    assert dec.semisimple == Matrix([[0, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert dec.nilpotent == Matrix([[0, 0, 0], [0, 0, 1], [0, 0, 0]])
    assert dec.witness == Polynomial((0, 2, -1))
    oracle = semisimple_from_eigenvalues(d, [Q(0), Q(1)])
    assert oracle == dec.semisimple


def test_non_square_rejected():
    with pytest.raises(ValueError):
        jc_decompose(Matrix([[1, 2]]))


def test_random_conjugated_jordan_matrices():
    rng = random.Random(20260817)
    for _ in range(25):
        n = rng.randint(1, 6)
        d, expected_s, eigenvalues = conjugated_jordan(rng, n)
        dec = jc_decompose(d)
        assert dec.semisimple == expected_s
        assert dec.nilpotent == d - expected_s
        # cross-check with the root space projector oracle
        assert semisimple_from_eigenvalues(d, eigenvalues) == expected_s
        # defining properties, verified independently of the module
        g = minimal_polynomial(dec.semisimple)
        assert poly_gcd(g, g.derivative()).degree == 0
        assert dec.nilpotent.power(n).is_zero()
        assert dec.semisimple * dec.nilpotent == dec.nilpotent * dec.semisimple
        assert dec.witness.degree < minimal_polynomial(d).degree or dec.witness.is_zero()


def test_witness_reconstructs_semisimple_part():
    rng = random.Random(7)
    for _ in range(10):
        d, _, _ = conjugated_jordan(rng, rng.randint(1, 5))
        dec = jc_decompose(d)
        assert dec.witness(d) == dec.semisimple


def test_derivation_witness_accepts_inner_derivations():
    for name in ("heisenberg", "sl2", "t3", "jordan3", "rot3"):
        algebra = catalog_algebra(name)
        for i in range(algebra.dim):
            d = dense_ad(algebra, unit_vector(algebra.dim, i))
            assert derivation_witness(algebra, d) is None


def test_derivation_witness_flags_the_identity():
    heis = catalog_algebra("heisenberg")
    assert derivation_witness(heis, Matrix.identity(3)) == (0, 1)


def test_derivation_witness_size_mismatch():
    with pytest.raises(ValueError):
        derivation_witness(catalog_algebra("sl2"), Matrix.identity(2))


def test_jc_decompose_derivation_on_t3_torus():
    t3 = catalog_algebra("t3")
    d = dense_ad(t3, unit_vector(6, 0))
    dec = jc_decompose_derivation(t3, d)
    assert dec.semisimple == d
    assert dec.nilpotent.is_zero()


def test_jc_decompose_derivation_splits_jordan3():
    algebra = catalog_algebra("jordan3")
    d = dense_ad(algebra, unit_vector(3, 0))
    dec = jc_decompose_derivation(algebra, d)
    # both parts are again derivations
    assert derivation_witness(algebra, dec.semisimple) is None
    assert derivation_witness(algebra, dec.nilpotent) is None


def test_jc_decompose_derivation_rejects_non_derivations():
    with pytest.raises(ValueError):
        jc_decompose_derivation(catalog_algebra("heisenberg"), Matrix.identity(3))


def test_scaled_rotation_plus_identity():
    # block diag of a rotation and a shear: s and n mix coordinates
    d = block_diag([Matrix([[0, -1], [1, 0]]), jordan_block(Q(2), 2)])
    dec = jc_decompose(d)
    assert dec.semisimple == block_diag(
        [Matrix([[0, -1], [1, 0]]), Matrix.identity(2).scale(2)]
    )
    assert dec.nilpotent == block_diag([Matrix.zeros(2, 2), jordan_block(Q(0), 2)])
