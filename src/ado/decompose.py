"""Structural decompositions: radical, Levi complement, reductive split.

The radical is the whole algebra when its derived series ends in zero,
and otherwise is cut out by Killing-orthogonality against the derived
subalgebra.  A Levi complement is found by recursion on the derived
series of the radical; the base case with abelian radical solves one
exact linear system for the correcting cochain.  The radical's series
are read in g; only the Levi recursion and the reductive split build
algebras, whose constants they read.  Each fact is checked once.  Here:
the radical is a solvable ideal that the complement splits off, and the
parts of a reductive split are complementary.  saturate verifies the
complement and the nilpotent seed as its initial presentation.  A
failed check raises a TripwireError rather than a wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import TripwireError, as_tripwire
from .lie import LieAlgebra
from .linalg import (
    Matrix,
    QONE,
    QZERO,
    SparseSpan,
    Subspace,
    _add_scaled,
    solve_sparse,
    span_kernel,
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
    # the kernel part as an algebra in its echelon basis; p's own algebra
    # when the kernel part is all of p
    kernel_algebra: LieAlgebra


def radical(g: LieAlgebra) -> Subspace:
    """Largest solvable ideal: Killing-orthogonal space of [g, g].

    A solvable g is its own radical, as Cartan's criterion makes the
    Killing form vanish on g x [g, g]; the form is built only otherwise.
    """
    series = g.derived_series()
    if not series[-1].dim:
        return g.full_space()
    # the series stops at a term equal to its successor: [g, g] is the
    # second term, or g itself when there is none
    derived = series[min(1, len(series) - 1)]
    # the Killing form is symmetric, so K w is the constraint row of w
    killing = g.killing_form()
    constraints = (killing.apply_pairs(w.items()) for w in derived.span.rows.values())
    return span_kernel(SparseSpan(constraints), g.dim)


def levi_decomposition(g: LieAlgebra) -> LeviData:
    """Radical and a semisimple complement subalgebra."""
    r = radical(g)
    if not g.is_ideal(r):
        raise TripwireError("levi", "radical is not an ideal")
    if g.derived_series(r)[-1].dim:
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
    return LeviData(radical=r, levi=levi)


def _levi_subspace(g: LieAlgebra, r: Subspace) -> Subspace:
    if r.dim == 0:
        return g.full_space()
    if r.dim == g.dim:
        return Subspace.zero(g.dim)
    rr = g.bracket_span(r, r)
    if rr.dim > 0:
        # factor out [r, r], split there, then split its preimage
        q, sect = g.quotient(rr)
        levi_q = _levi_subspace(q, radical(q))
        g1 = levi_q.image(sect).sum(rr)
        with as_tripwire("levi"):
            sub, incl = g.subalgebra_on_basis(g1.span.rows.values())
        levi_sub = _levi_subspace(sub, radical(sub))
        return levi_sub.image(incl)
    return _levi_abelian_radical(g, r)


def _levi_abelian_radical(g: LieAlgebra, r: Subspace) -> Subspace:
    """Correct quotient representatives into a subalgebra.

    With r abelian, lifts x_a of a quotient basis need corrections
    u_a in r with

        [x_a, x_b] - lift([x_a, x_b] mod r)
            + ad(x_a) u_b - ad(x_b) u_a - sum_k cbar(a,b,k) u_k = 0,

    a linear system over the coordinates of the u_a in r.
    """
    q, sect = g.quotient(r)
    m = q.dim
    rdim = r.dim
    lifts = sect.cols
    r_rows = list(r.span.rows.values())
    # act[a][t] is row t of the action of x_a on r, in r's coordinates
    act = [
        Matrix.from_sparse(
            rdim, rdim, (r.coordinates_of(g._bracket(x, v)) for v in r_rows)
        ).transpose().cols
        for x in lifts
    ]
    # the unknown coordinate s of u_a sits at a * rdim + s, the right-hand side at m * rdim
    rhs = m * rdim
    equations = []
    for a in range(m):
        for b in range(a + 1, m):
            cbar = q.nonzero[a][b]
            deviation = sect.apply_pairs((k, -c) for k, c in cbar)
            _add_scaled(deviation, g._bracket(lifts[a], lifts[b]), QONE)
            z_coords = r.coordinates_of(deviation)
            for t in range(rdim):
                row = {b * rdim + s: x for s, x in act[a][t].items()}
                _add_scaled(row, {a * rdim + s: x for s, x in act[b][t].items()}, -QONE)
                _add_scaled(row, {k * rdim + t: c for k, c in cbar}, -QONE)
                row[rhs] = -z_coords.get(t, QZERO)
                equations.append(row)
    solution = solve_sparse(equations, rhs)
    if solution is None:
        raise TripwireError(
            "levi",
            "no Levi complement found for an abelian radical",
            quotient_dim=m,
            radical_dim=rdim,
        )
    corrected = [dict(x) for x in lifts]
    for key, c in solution.items():
        a, s = divmod(key, rdim)
        _add_scaled(corrected[a], r_rows[s], c)
    return Subspace(g.dim, SparseSpan(corrected))


def nilpotent_seed(g: LieAlgebra, decomposition: LeviData) -> Subspace:
    """Nilpotent ideal containing [g, radical]: the radical itself when
    it is nilpotent, otherwise the span of [g, radical].

    [g, radical] is an ideal inside the nilradical, and with the Levi
    complement s it spans [g, g] = s + [g, radical]; saturate verifies
    both, with the rest of the initial presentation.
    """
    if not g.lower_central_series(decomposition.radical)[-1].dim:
        return decomposition.radical
    return g.bracket_span(g.full_space(), decomposition.radical)


def reductive_split(g: LieAlgebra, p: Subspace, n: Subspace) -> ReductiveSplit:
    """Split a reductive subalgebra against its action on an ideal.

    kernel_part is everything in p commuting with all of n, an ideal of
    p.  acting_part is the centralizer of the kernel within [p, p] plus
    a plain complement of the kernel within the centre.  With [p, p]
    semisimple the centralizer is the sum of the simple ideals outside
    the kernel, the same space as the Killing-orthogonal complement.
    The two parts commute by construction, and since they split p the
    acting part meets the centralizer of n trivially.
    """
    kernel_whole = g.centralizer(n)
    p_kernel = p.intersect(kernel_whole)

    with as_tripwire("split"):
        palg, pincl = g.subalgebra_on_basis(p.span.rows.values())
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

    # on the whole space the coordinates of a vector are its own entries
    if p.dim == g.dim:
        kernel_local = p_kernel
    else:
        kernel_local = Subspace(
            palg.dim, SparseSpan(p.coordinates_of(v) for v in p_kernel.span.rows.values())
        )
    semisimple_kernel = kernel_local.intersect(derived)
    central_kernel = kernel_local.intersect(centre)
    if semisimple_kernel.sum(central_kernel) != kernel_local:
        raise TripwireError(
            "split", "kernel ideal does not decompose along derived part and centre"
        )

    semisimple_acting = derived.intersect(palg.centralizer(semisimple_kernel))
    direct = semisimple_kernel.dim + semisimple_acting.dim == derived.dim
    if not direct or semisimple_kernel.sum(semisimple_acting) != derived:
        raise TripwireError("split", "centralizer of the kernel does not split the derived part")
    central_acting = central_kernel.extend_complement(within=centre)
    p_acting = semisimple_acting.sum(central_acting).image(pincl)
    # kernel_local is p_kernel's echelon basis in p's coordinates, and
    # palg itself when p_kernel is all of p
    with as_tripwire("split"):
        kernel_algebra, _ = palg.subalgebra_on_basis(kernel_local.span.rows.values())
    return ReductiveSplit(
        kernel_part=p_kernel, acting_part=p_acting, kernel_algebra=kernel_algebra
    )
