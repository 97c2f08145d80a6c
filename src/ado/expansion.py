"""Absorbing the radical into a split semidirect presentation.

A presentation carries an algebra q, a reductive subalgebra p, a
nilpotent ideal n with p meeting n trivially and [q, q] inside p + n,
and the embedding of the originally given algebra into q.  The defect
dim q - dim p - dim n counts the directions not yet absorbed.  One
expansion step picks a generator x centralizing p outside p + n, splits
its action on a complementary hyperplane ideal I into commuting
semisimple and nilpotent derivations, and replaces q by the extension
of I along those two derivations.  The generator re-enters as the sum
of the two new directions, the semisimple one joining p and the
nilpotent one joining n, so the defect drops by exactly one per step.
"""

from __future__ import annotations

from dataclasses import dataclass

from .decompose import levi_decomposition, nilpotent_seed
from .errors import InputError, TripwireError
from .jordan import jc_decompose_derivation
from .lie import LieAlgebra
from .linalg import (
    Matrix,
    QZERO,
    Subspace,
    rank,
    solve,
    unit_vector,
)


@dataclass(frozen=True)
class Presentation:
    algebra: LieAlgebra
    reductive_part: Subspace
    nilpotent_part: Subspace
    # columns express the original basis inside the current algebra
    embed_original: Matrix
    trace: tuple[dict, ...]


def presentation_defect(pres: Presentation) -> int:
    return pres.algebra.dim - pres.reductive_part.dim - pres.nilpotent_part.dim


def initial_presentation(g: LieAlgebra) -> Presentation:
    data = levi_decomposition(g)
    seed = nilpotent_seed(g, data)
    record = {
        "stage": "initial",
        "levi_dimension": data.levi.dim,
        "radical_dimension": data.radical.dim,
        "nilpotent_dimension": seed.dim,
    }
    return Presentation(
        algebra=g,
        reductive_part=data.levi,
        nilpotent_part=seed,
        embed_original=Matrix.identity(g.dim),
        trace=(record,),
    )


def verify_presentation(pres: Presentation, original: LieAlgebra) -> None:
    """Re-check the presentation invariants; raises on any failure."""
    q = pres.algebra
    p = pres.reductive_part
    n = pres.nilpotent_part
    if not p.contains(q.bracket_span(p, p)):
        raise TripwireError("presentation", "reductive part is not a subalgebra")
    if not q.is_ideal(n):
        raise TripwireError("presentation", "nilpotent part is not an ideal")
    nsub, _ = q.subalgebra_on_basis(n.basis.rows)
    if not nsub.is_nilpotent():
        raise TripwireError("presentation", "nilpotent part is not nilpotent")
    if p.intersect(n).dim != 0:
        raise TripwireError("presentation", "parts overlap")
    if not p.sum(n).contains(q.derived_subalgebra()):
        raise TripwireError(
            "presentation", "derived subalgebra escapes the absorbed part"
        )
    embed = pres.embed_original
    if embed.ncols != original.dim or embed.nrows != q.dim:
        raise TripwireError("presentation", "embedding has the wrong shape")
    if rank(embed) != original.dim:
        raise TripwireError("presentation", "embedding is not injective")
    images = [embed.column(i) for i in range(original.dim)]
    for i in range(original.dim):
        for j in range(i + 1, original.dim):
            lhs = embed.apply_pairs(original.nonzero[i][j])
            if lhs != q.bracket(images[i], images[j]):
                raise TripwireError(
                    "presentation",
                    "embedding does not respect the bracket",
                    pair=[i, j],
                )


def expansion_step(pres: Presentation) -> Presentation:
    q = pres.algebra
    p = pres.reductive_part
    n = pres.nilpotent_part
    absorbed = p.sum(n)

    x = None
    for row in q.centralizer(p).basis.rows:
        if not absorbed.member(row):
            x = row
            break
    if x is None:
        raise TripwireError(
            "expand", "no generator centralizes the reductive part outside p + n"
        )

    marked = absorbed.sum(Subspace.from_vectors(q.dim, [x]))
    ideal = absorbed.sum(marked.extend_complement())
    # the hyperplane contains [q, q], hence is an ideal and in particular closed
    if ideal.dim != q.dim - 1 or ideal.member(x):
        raise TripwireError("expand", "hyperplane misses or swallows the generator")
    try:
        ialg, _ = q.subalgebra_on_basis(ideal.basis.rows)
    except ValueError:
        raise TripwireError("expand", "hyperplane is not closed under the bracket") from None

    cols = []
    for v in ideal.basis.rows:
        image = q.bracket(x, v)
        if not n.member(image):
            raise TripwireError(
                "expand", "generator action escapes the nilpotent ideal"
            )
        cols.append(ideal.coordinates_of(image))
    action = Matrix.from_columns(cols, nrows=ialg.dim)
    dec = jc_decompose_derivation(ialg, action)

    idim = ialg.dim
    dim_new = idim + 2

    def embedded(vec):
        return (QZERO, QZERO) + tuple(vec)

    brackets = {}
    for j in range(idim):
        brackets[0, j + 2] = {k + 2: c for k, c in enumerate(dec.semisimple.column(j))}
        brackets[1, j + 2] = {k + 2: c for k, c in enumerate(dec.nilpotent.column(j))}
    for a in range(idim):
        for b in range(a + 1, idim):
            brackets[a + 2, b + 2] = {k + 2: c for k, c in ialg.nonzero[a][b]}
    try:
        extended = LieAlgebra.from_sparse(dim_new, brackets)
    except InputError as exc:
        raise TripwireError(
            "expand", f"extension table failed validation: {exc.message}"
        ) from None

    # express old basis vectors through x and the hyperplane, then map
    # x to the sum of the two new directions
    decomposition_basis = Matrix(
        [x] + list(ideal.basis.rows), ncols=q.dim
    ).transpose()
    embed_cols = []
    for j in range(q.dim):
        coeffs = solve(decomposition_basis, unit_vector(q.dim, j))
        if coeffs is None:
            raise TripwireError("expand", "basis vector outside x + hyperplane", index=j)
        alpha = coeffs[0]
        embed_cols.append((alpha, alpha) + tuple(coeffs[1:]))
    step_embed = Matrix.from_columns(embed_cols, nrows=dim_new)

    # nothing is created or lost: [q', q'] is exactly the embedded [q, q]
    derived_image = Subspace.from_vectors(
        dim_new, [step_embed.apply(v) for v in q.derived_subalgebra().vectors()]
    )
    if extended.derived_subalgebra() != derived_image:
        raise TripwireError("expand", "derived subalgebra is not preserved")

    new_p = Subspace.from_vectors(
        dim_new,
        [unit_vector(dim_new, 0)]
        + [embedded(ideal.coordinates_of(v)) for v in p.vectors()],
    )
    new_n = Subspace.from_vectors(
        dim_new,
        [unit_vector(dim_new, 1)]
        + [embedded(ideal.coordinates_of(v)) for v in n.vectors()],
    )
    record = {
        "stage": "expand",
        "generator": [str(c) for c in x],
        "semisimple_witness": [str(c) for c in dec.witness.coeffs],
        "embedding": [[str(c) for c in row] for row in step_embed.rows],
        "dimensions": {
            "algebra": dim_new,
            "reductive": new_p.dim,
            "nilpotent": new_n.dim,
        },
    }
    return Presentation(
        algebra=extended,
        reductive_part=new_p,
        nilpotent_part=new_n,
        embed_original=step_embed * pres.embed_original,
        trace=pres.trace + (record,),
    )


def saturate(g: LieAlgebra) -> Presentation:
    """Expand until the algebra splits as p plus n.

    The number of steps is bounded by the initial defect; each step
    must lower the defect by exactly one and keep every presentation
    invariant, so a faulty step cannot go unnoticed.
    """
    pres = initial_presentation(g)
    verify_presentation(pres, g)
    budget = presentation_defect(pres)
    steps = 0
    while presentation_defect(pres) > 0:
        if steps >= budget:
            raise TripwireError(
                "expand",
                "expansion exceeded its step budget",
                budget=budget,
                steps=steps,
            )
        before = presentation_defect(pres)
        pres = expansion_step(pres)
        verify_presentation(pres, g)
        if presentation_defect(pres) != before - 1:
            raise TripwireError(
                "expand",
                "defect did not decrease by one",
                before=before,
                after=presentation_defect(pres),
            )
        steps += 1
    return pres
