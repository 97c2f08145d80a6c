"""Structural decompositions: radical, Levi complement, reductive split.

The radical is cut out by Killing-orthogonality against the derived
subalgebra.  A Levi complement is found by recursion on the derived
series of the radical; the base case with abelian radical solves one
exact linear system for the correcting cochain.  All results are
re-verified against their defining properties before being returned,
and a failed verification raises a TripwireError rather than returning
a wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import TripwireError
from .lie import LieAlgebra
from .linalg import (
    Matrix,
    QZERO,
    Subspace,
    add_vec,
    kernel,
    rank,
    solve,
    sub_vec,
    unit_vector,
)


@dataclass(frozen=True)
class LeviData:
    radical: Subspace
    levi: Subspace


@dataclass(frozen=True)
class ReductiveSplit:
    # part of p acting trivially on n, and a complement acting faithfully
    kernel_part: Subspace
    acting_part: Subspace


def radical(g: LieAlgebra) -> Subspace:
    """Largest solvable ideal: Killing-orthogonal space of [g, g]."""
    derived = g.derived_subalgebra()
    if derived.dim == 0:
        return g.full_space()
    killing = g.killing_form()
    constraints = Matrix([killing.apply(w) for w in derived.vectors()], ncols=g.dim)
    return kernel(constraints)


def levi_decomposition(g: LieAlgebra) -> LeviData:
    """Radical and a semisimple complement subalgebra."""
    r = radical(g)
    if not g.is_ideal(r):
        raise TripwireError("levi", "radical is not an ideal")
    rsub, _ = g.subalgebra_on_basis(r.basis.rows)
    if not rsub.is_solvable():
        raise TripwireError("levi", "radical is not solvable")
    levi = _levi_subspace(g, r)
    if levi.dim + r.dim != g.dim or levi.intersect(r).dim != 0:
        raise TripwireError(
            "levi",
            "complement does not split the algebra",
            levi_dim=levi.dim,
            radical_dim=r.dim,
            dim=g.dim,
        )
    if not levi.contains(g.bracket_span(levi, levi)):
        raise TripwireError("levi", "complement is not a subalgebra")
    return LeviData(radical=r, levi=levi)


def _levi_subspace(g: LieAlgebra, r: Subspace) -> Subspace:
    if r.dim == 0:
        return g.full_space()
    if r.dim == g.dim:
        return Subspace.zero(g.dim)
    rsub, rincl = g.subalgebra_on_basis(r.basis.rows)
    rr_local = rsub.derived_subalgebra()
    rr = Subspace.from_vectors(
        g.dim, [rincl.apply(v) for v in rr_local.vectors()]
    )
    if rr.dim > 0:
        # factor out [r, r], split there, then split its preimage
        q, _, sect = g.quotient(rr)
        levi_q = _levi_subspace(q, radical(q))
        g1_vectors = [sect.apply(v) for v in levi_q.vectors()] + list(rr.vectors())
        g1 = Subspace.from_vectors(g.dim, g1_vectors)
        sub, incl = g.subalgebra_on_basis(g1.basis.rows)
        levi_sub = _levi_subspace(sub, radical(sub))
        return Subspace.from_vectors(
            g.dim, [incl.apply(v) for v in levi_sub.vectors()]
        )
    return _levi_abelian_radical(g, r)


def _levi_abelian_radical(g: LieAlgebra, r: Subspace) -> Subspace:
    """Correct quotient representatives into a subalgebra.

    With r abelian, lifts x_a of a quotient basis need corrections
    u_a in r with

        [x_a, x_b] - lift([x_a, x_b] mod r)
            + ad(x_a) u_b - ad(x_b) u_a - sum_k cbar(a,b,k) u_k = 0,

    a linear system over the coordinates of the u_a in r.
    """
    q, _, sect = g.quotient(r)
    m = q.dim
    rdim = r.dim
    lifts = [sect.apply(unit_vector(m, a)) for a in range(m)]

    def action_on_r(x):
        cols = [r.coordinates_of(g.bracket(x, v)) for v in r.vectors()]
        return Matrix.from_columns(cols, nrows=rdim)

    actions = [action_on_r(x) for x in lifts]
    rows = []
    rhs = []
    for a in range(m):
        for b in range(a + 1, m):
            cbar = q.nonzero[a][b]
            deviation = sub_vec(g.bracket(lifts[a], lifts[b]), sect.apply_pairs(cbar))
            z_coords = r.coordinates_of(deviation)
            for t in range(rdim):
                row = [QZERO] * (m * rdim)
                for s in range(rdim):
                    row[b * rdim + s] += actions[a].rows[t][s]
                    row[a * rdim + s] -= actions[b].rows[t][s]
                for k, c in cbar:
                    row[k * rdim + t] -= c
                rows.append(row)
                rhs.append(-z_coords[t])
    if rows:
        solution = solve(Matrix(rows, ncols=m * rdim), tuple(rhs))
        if solution is None:
            raise TripwireError(
                "levi",
                "no Levi complement found for an abelian radical",
                quotient_dim=m,
                radical_dim=rdim,
            )
    else:
        solution = (QZERO,) * (m * rdim)
    from_r = r.basis.transpose()
    corrected = [
        add_vec(lifts[a], from_r.apply(solution[a * rdim : (a + 1) * rdim]))
        for a in range(m)
    ]
    return Subspace.from_vectors(g.dim, corrected)


def nilpotent_seed(g: LieAlgebra, decomposition: LeviData) -> Subspace:
    """Nilpotent ideal containing [g, radical]: the radical itself when
    it is nilpotent, otherwise the span of [g, radical]."""
    r = decomposition.radical
    rsub, _ = g.subalgebra_on_basis(r.basis.rows)
    if rsub.is_nilpotent():
        n = r
    else:
        n = g.bracket_span(g.full_space(), r)
    nsub, _ = g.subalgebra_on_basis(n.basis.rows)
    if not nsub.is_nilpotent():
        raise TripwireError("seed", "candidate ideal is not nilpotent")
    if not g.is_ideal(n):
        raise TripwireError("seed", "candidate is not an ideal")
    if not n.contains(g.bracket_span(g.full_space(), r)):
        raise TripwireError("seed", "candidate misses part of [g, radical]")
    if not decomposition.levi.sum(n).contains(g.derived_subalgebra()):
        raise TripwireError(
            "seed", "derived subalgebra escapes the complement plus the ideal"
        )
    return n


def reductive_split(g: LieAlgebra, p: Subspace, n: Subspace) -> ReductiveSplit:
    """Split a reductive subalgebra against its action on an ideal.

    kernel_part is everything in p commuting with all of n; acting_part
    is a complementary ideal of p, orthogonal to the kernel under the
    Killing form of [p, p] on the semisimple side and a plain
    complement on the central side.  The two parts commute and the
    acting part meets the centralizer of n trivially.
    """
    kernel_whole = g.centralizer(n)
    p_kernel = p.intersect(kernel_whole)

    palg, pincl = g.subalgebra_on_basis(p.basis.rows)
    derived = palg.derived_subalgebra()
    centre = palg.center()
    if derived.intersect(centre).dim != 0 or derived.dim + centre.dim != palg.dim:
        raise TripwireError(
            "split",
            "subalgebra is not reductive: derived part and centre do not split it",
            derived_dim=derived.dim,
            centre_dim=centre.dim,
            dim=palg.dim,
        )

    kernel_local = Subspace.from_vectors(
        palg.dim, [p.coordinates_of(v) for v in p_kernel.vectors()]
    )
    semisimple_kernel = kernel_local.intersect(derived)
    central_kernel = kernel_local.intersect(centre)
    if semisimple_kernel.sum(central_kernel) != kernel_local:
        raise TripwireError(
            "split", "kernel ideal does not decompose along derived part and centre"
        )

    if derived.dim:
        dalg, dincl = palg.subalgebra_on_basis(derived.basis.rows)
        killing = dalg.killing_form()
        if rank(killing) != dalg.dim:
            raise TripwireError(
                "split", "Killing form of the derived part is degenerate"
            )
        if semisimple_kernel.dim:
            constraints = Matrix(
                [
                    killing.apply(derived.coordinates_of(v))
                    for v in semisimple_kernel.vectors()
                ],
                ncols=dalg.dim,
            )
            orth_local = kernel(constraints)
        else:
            orth_local = Subspace.full(dalg.dim)
        semisimple_acting = [dincl.apply(v) for v in orth_local.vectors()]
        check = semisimple_kernel.sum(
            Subspace.from_vectors(palg.dim, semisimple_acting)
        )
        if check != derived or semisimple_kernel.dim + orth_local.dim != derived.dim:
            raise TripwireError(
                "split", "orthogonal complement does not split the derived part"
            )
    else:
        semisimple_acting = []
    central_acting = central_kernel.extend_complement(within=centre)

    acting_vectors = [pincl.apply(v) for v in semisimple_acting]
    acting_vectors += [pincl.apply(v) for v in central_acting.vectors()]
    p_acting = Subspace.from_vectors(g.dim, acting_vectors)

    if p_kernel.sum(p_acting) != p or p_kernel.intersect(p_acting).dim != 0:
        raise TripwireError("split", "kernel and acting parts do not split p")
    if g.bracket_span(p_kernel, p_acting).dim != 0:
        raise TripwireError("split", "kernel and acting parts do not commute")
    if p_acting.dim and n.dim:
        action_rows = [
            tuple(x for w in n.vectors() for x in g.bracket(v, w))
            for v in p_acting.vectors()
        ]
        if rank(Matrix(action_rows, ncols=g.dim * n.dim)) != p_acting.dim:
            raise TripwireError(
                "split", "acting part does not act faithfully on the ideal"
            )
    elif p_acting.dim and not n.dim:
        raise TripwireError(
            "split", "acting part does not act faithfully on the ideal"
        )
    return ReductiveSplit(kernel_part=p_kernel, acting_part=p_acting)
