"""Jordan decomposition of a rational matrix into commuting parts.

A square matrix d splits uniquely as d = s + n with s semisimple
(squarefree minimal polynomial), n nilpotent, and s n = n s; both parts
are polynomials in d.  The witness polynomial p with s = p(d) is found
by Newton iteration on the squarefree part of the minimal polynomial,
carried out in the quotient ring Q[t] modulo the minimal polynomial.
Everything is exact, and the defining properties are re-checked on the
result before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import TripwireError
from .lie import LieAlgebra
from .linalg import (
    Matrix,
    Polynomial,
    add_vec,
    compose_mod,
    is_zero_vec,
    kernel,
    minimal_polynomial,
    modular_inverse,
    poly_gcd,
    squarefree_part,
    sub_vec,
    unit_vector,
)


@dataclass(frozen=True)
class JCDecomposition:
    semisimple: Matrix
    nilpotent: Matrix
    # semisimple = witness(original matrix); degree below the minimal polynomial
    witness: Polynomial


def jc_decompose(d: Matrix) -> JCDecomposition:
    """Split d = semisimple + nilpotent with both parts polynomials in d."""
    if not d.is_square():
        raise ValueError("Jordan decomposition needs a square matrix")
    f = minimal_polynomial(d)
    ftilde = squarefree_part(f)
    ftilde_prime = ftilde.derivative()

    p = Polynomial.variable() % f
    value = compose_mod(ftilde, p, f)
    steps = 0
    # quadratic convergence: doubling the annihilated multiplicity each
    # step reaches deg f in ceil(log2(deg f)) steps
    cap = max(1, (max(f.degree, 1) - 1).bit_length() + 1)
    while not value.is_zero():
        if steps >= cap:
            raise TripwireError(
                "jordan",
                "Newton iteration did not converge within its bound",
                degree=f.degree,
                steps=steps,
            )
        derivative_value = compose_mod(ftilde_prime, p, f)
        try:
            inverse = modular_inverse(derivative_value, f)
        except ValueError:
            raise TripwireError(
                "jordan",
                "derivative of the squarefree part is not invertible "
                "modulo the minimal polynomial",
                degree=f.degree,
            ) from None
        p = (p - value * inverse) % f
        steps += 1
        value = compose_mod(ftilde, p, f)

    if p.degree >= f.degree and f.degree >= 1:
        raise TripwireError(
            "jordan", "witness degree reached the minimal polynomial degree"
        )
    semisimple = p(d)
    nilpotent = d - semisimple

    if semisimple * nilpotent != nilpotent * semisimple:
        raise TripwireError("jordan", "computed parts do not commute")
    if not nilpotent.power(d.nrows).is_zero():
        raise TripwireError("jordan", "nilpotent part is not nilpotent")
    g = minimal_polynomial(semisimple)
    if poly_gcd(g, g.derivative()).degree > 0:
        raise TripwireError(
            "jordan", "semisimple part has a repeated eigenvalue factor"
        )
    return JCDecomposition(semisimple=semisimple, nilpotent=nilpotent, witness=p)


def derivation_witness(
    algebra: LieAlgebra, d: Matrix
) -> tuple[int, int] | None:
    """First basis pair on which d breaks the Leibniz rule, or None."""
    if d.nrows != algebra.dim or d.ncols != algebra.dim:
        raise ValueError("matrix size disagrees with the algebra dimension")
    units = [unit_vector(algebra.dim, i) for i in range(algebra.dim)]
    # d e_i is the i-th column of d
    images = [d.column(i) for i in range(algebra.dim)]
    for i in range(algebra.dim):
        for j in range(i + 1, algebra.dim):
            lhs = d.apply_pairs(algebra.nonzero[i][j])
            rhs = add_vec(
                algebra.bracket(images[i], units[j]),
                algebra.bracket(units[i], images[j]),
            )
            if not is_zero_vec(sub_vec(lhs, rhs)):
                return (i, j)
    return None


def jc_decompose_derivation(algebra: LieAlgebra, d: Matrix) -> JCDecomposition:
    """Jordan decomposition of a derivation; both parts stay derivations.

    Also checks that the kernel of d stays inside the kernels of both
    parts, which the pipeline relies on when it extends an algebra by a
    split generator.
    """
    witness_pair = derivation_witness(algebra, d)
    if witness_pair is not None:
        raise ValueError(
            f"matrix is not a derivation: Leibniz fails on basis pair {witness_pair}"
        )
    dec = jc_decompose(d)
    for part, label in ((dec.semisimple, "semisimple"), (dec.nilpotent, "nilpotent")):
        bad = derivation_witness(algebra, part)
        if bad is not None:
            raise TripwireError(
                "jordan",
                f"{label} part of a derivation is not a derivation",
                pair=list(bad),
            )
    ker = kernel(d)
    for v in ker.vectors():
        if not is_zero_vec(dec.semisimple.apply(v)):
            raise TripwireError(
                "jordan", "kernel vector escapes the semisimple part"
            )
        if not is_zero_vec(dec.nilpotent.apply(v)):
            raise TripwireError(
                "jordan", "kernel vector escapes the nilpotent part"
            )
    return dec
