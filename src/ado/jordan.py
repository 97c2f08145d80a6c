"""Jordan decomposition of a rational matrix into commuting parts.

A square matrix d splits uniquely as d = s + n with s semisimple
(squarefree minimal polynomial), n nilpotent, and s n = n s; both parts
are polynomials in d.  The witness polynomial p with s = p(d) is found
by Newton iteration on the squarefree part of the minimal polynomial,
carried out in the quotient ring Q[t] modulo the minimal polynomial.
Everything is exact, and the defining properties are re-checked on the
result before it is returned.

This is a matrix routine only.  When d is a derivation of an algebra,
so are both parts (Der A contains the Jordan parts of its elements);
the saturation step relies on the Jacobi check of the extension it
builds from them, which holds exactly when they are commuting
derivations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import TripwireError
from .linalg import (
    Matrix,
    Polynomial,
    compose_mod,
    minimal_polynomial,
    modular_inverse,
    poly_gcd,
    squarefree_part,
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

