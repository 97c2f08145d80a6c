"""Jordan decomposition of a rational matrix into commuting parts.

A square matrix d splits uniquely as d = s + n with s semisimple
(squarefree minimal polynomial), n nilpotent, and s n = n s; both parts
are polynomials in d.  The witness polynomial p with s = p(d) has degree
below that of the minimal polynomial f.  The trivial splits are read off
f: a squarefree f makes d semisimple, with witness t mod f, and f = t^k
makes it nilpotent, with witness 0.  Otherwise p comes from Newton
iteration on the squarefree part f~ of f, carried out exactly in the
quotient ring Q[t] modulo f.  Its exit establishes the defining
properties, so they are not re-checked: s and n are polynomials in d
and commute; every Newton correction is a multiple of f~(p), so p stays
congruent to t modulo f~ and n = (t - p)(d) is a multiple of the
nilpotent f~(d); and f~(p) = 0 modulo f makes f~(s) = 0, so the minimal
polynomial of s divides the squarefree f~.

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
    p = Polynomial.variable() % f
    ftilde = squarefree_part(f)
    # the trivial splits carry the witnesses Newton's iteration would return
    zero = Matrix.zeros(d.nrows, d.nrows)
    if ftilde == f:
        return JCDecomposition(semisimple=d, nilpotent=zero, witness=p)
    if not any(f.coeffs[:-1]):
        # f = t^k
        return JCDecomposition(semisimple=zero, nilpotent=d, witness=Polynomial.zero())
    ftilde_prime = ftilde.derivative()

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

    semisimple = p(d)
    return JCDecomposition(semisimple=semisimple, nilpotent=d - semisimple, witness=p)
