"""Jordan decomposition: frozen cases, random oracle, splits of derivations."""

import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ado.jordan
from ado.catalog import catalog_algebra
from ado.jordan import jc_decompose
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
    dense_leibniz_witness,
    invert,
    jordan_block,
    semisimple_from_eigenvalues,
)

ROTATION = Matrix([[0, -1], [1, 0]])


def conjugated_spectrum(rng: random.Random, n: int, kind: str) -> Matrix:
    """A random conjugate of a block matrix of size n: semisimple blocks
    (scalars and rotations, whose eigenvalues are not rational),
    nilpotent Jordan blocks, or Jordan blocks at any small eigenvalue."""
    blocks, remaining = [], n
    while remaining:
        if kind == "semisimple" and remaining >= 2 and rng.random() < 0.3:
            block = ROTATION.scale(rng.choice([1, 2, Q(1, 2)]))
        else:
            size = 1 if kind == "semisimple" else rng.randint(1, min(3, remaining))
            lam = Q(0) if kind == "nilpotent" else rng.choice([Q(-1), Q(0), Q(1), Q(2), Q(1, 2)])
            block = jordan_block(lam, size)
        blocks.append(block)
        remaining -= block.nrows
    # a product of unit triangular matrices has determinant 1
    lower = Matrix([[1 if i == j else rng.randint(-2, 2) if i > j else 0 for j in range(n)] for i in range(n)])
    upper = Matrix([[1 if i == j else rng.randint(-2, 2) if i < j else 0 for j in range(n)] for i in range(n)])
    t = lower * upper
    return t * block_diag(blocks) * invert(t)


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


def test_jc_decompose_derivation_on_t3_torus():
    t3 = catalog_algebra("t3")
    d = dense_ad(t3, unit_vector(6, 0))
    dec = jc_decompose(d)
    assert dec.semisimple == d
    assert dec.nilpotent.is_zero()
    assert dense_leibniz_witness(t3, dec.semisimple) is None


def test_jc_decompose_derivation_splits_jordan3():
    algebra = catalog_algebra("jordan3")
    d = dense_ad(algebra, unit_vector(3, 0))
    dec = jc_decompose(d)
    # both parts are again derivations
    assert dense_leibniz_witness(algebra, dec.semisimple) is None
    assert dense_leibniz_witness(algebra, dec.nilpotent) is None


def test_scaled_rotation_plus_identity():
    # block diag of a rotation and a shear: s and n mix coordinates
    d = block_diag([Matrix([[0, -1], [1, 0]]), jordan_block(Q(2), 2)])
    dec = jc_decompose(d)
    assert dec.semisimple == block_diag(
        [Matrix([[0, -1], [1, 0]]), Matrix.identity(2).scale(2)]
    )
    assert dec.nilpotent == block_diag([Matrix.zeros(2, 2), jordan_block(Q(0), 2)])


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["semisimple", "nilpotent", "mixed"]),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2**16),
)
def test_split_has_the_defining_properties(kind, n, seed):
    # the properties jc_decompose does not re-check, by independent means
    d = conjugated_spectrum(random.Random(seed), n, kind)
    dec = jc_decompose(d)
    s, nil = dec.semisimple, dec.nilpotent
    assert s + nil == d
    assert s * nil == nil * s
    assert nil.power(n).is_zero()
    g = minimal_polynomial(s)
    assert poly_gcd(g, g.derivative()).degree == 0
    assert dec.witness(d) == s
    if kind == "semisimple":
        assert nil.is_zero()
    if kind == "nilpotent":
        assert s.is_zero()


def test_trivial_splits_are_read_off_the_minimal_polynomial(monkeypatch):
    # a squarefree or a nilpotent input runs no Newton step
    def newton(*args):
        raise AssertionError("Newton iteration ran")

    monkeypatch.setattr(ado.jordan, "compose_mod", newton)
    rng = random.Random(3)
    semisimple = [
        ROTATION,
        Matrix.identity(3).scale(2),
        Matrix.zeros(2, 2),
        *(conjugated_spectrum(rng, n, "semisimple") for n in (1, 3, 5)),
    ]
    for d in semisimple:
        dec = jc_decompose(d)
        assert dec.semisimple == d and dec.nilpotent.is_zero()
        assert dec.witness(d) == d
    nilpotent = [jordan_block(Q(0), 3), *(conjugated_spectrum(rng, n, "nilpotent") for n in (2, 4))]
    for d in nilpotent:
        dec = jc_decompose(d)
        assert dec.semisimple.is_zero() and dec.nilpotent == d
        assert dec.witness == Polynomial.zero()
    # a proper split still needs the iteration
    with pytest.raises(AssertionError, match="Newton"):
        jc_decompose(jordan_block(Q(1), 2))
