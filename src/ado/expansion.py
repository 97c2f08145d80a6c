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
The two parts are derivations of I by theory, not by a separate check:
the extension satisfies the Jacobi identity exactly when they are
commuting derivations, and the LieAlgebra constructor validates it.
That extension is the only algebra a step builds; the presentation
check reads the series of n in q.
"""

from __future__ import annotations

from dataclasses import dataclass

from .decompose import levi_decomposition, nilpotent_seed
from .errors import InputError, TripwireError, as_tripwire
from .jordan import jc_decompose
from .lie import LieAlgebra
from .linalg import Matrix, QONE, QZERO, SparseSpan, Subspace, coordinates_in, rank


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
    if q.lower_central_series(n)[-1].dim:
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
    cols = embed.cols
    for i in range(original.dim):
        for j in range(i + 1, original.dim):
            lhs = embed.apply_pairs(original.nonzero[i][j])
            if lhs != q._bracket(cols[i], cols[j]):
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

    candidates = q.centralizer(p).span.rows.values()
    x = next((row for row in candidates if not absorbed.member(row)), None)
    if x is None:
        raise TripwireError(
            "expand", "no generator centralizes the reductive part outside p + n"
        )

    # x lies outside p + n, so (p + n + x) and its complement fill the
    # space and the hyperplane misses exactly x; it contains [q, q], hence
    # is an ideal and in particular closed
    marked = absorbed.sum(Subspace(q.dim, SparseSpan([x])))
    hyperplane = list(absorbed.sum(marked.extend_complement()).span.rows.values())
    idim = len(hyperplane)
    images = [q._bracket(x, v) for v in hyperplane]
    if any(map(n.span.reduce, images)):
        raise TripwireError("expand", "generator action escapes the nilpotent ideal")
    pairs = [(a, b) for a in range(idim) for b in range(a + 1, idim)]
    closure = [q._bracket(hyperplane[a], hyperplane[b]) for a, b in pairs]

    # one change of basis to the hyperplane and x expresses the old basis,
    # the hyperplane's brackets and the action of x on it; x is coordinate idim
    units = [{j: QONE} for j in range(q.dim)]
    with as_tripwire("expand"):
        coords = coordinates_in([*hyperplane, x], units + closure + images)
    split = q.dim + len(pairs)
    old_basis, closure, images = coords[: q.dim], coords[q.dim : split], coords[split:]
    embed_cols = []
    for j, coeffs in enumerate(old_basis):
        if coeffs is None:
            raise TripwireError("expand", "basis vector outside x + hyperplane", index=j)
        # x goes to the sum of the two new directions
        alpha = coeffs.get(idim, QZERO)
        embed_cols.append({0: alpha, 1: alpha, **{k + 2: c for k, c in coeffs.items() if k < idim}})
    dim_new = idim + 2
    step_embed = Matrix.from_sparse(dim_new, q.dim, embed_cols)
    if any(idim in coeffs for coeffs in closure):
        raise TripwireError("expand", "span is not closed under the bracket")
    # whether S and N are commuting derivations of I is checked once, by
    # the extension's Jacobi identity below
    with as_tripwire("expand"):
        dec = jc_decompose(Matrix.from_sparse(idim, idim, images))

    brackets = {}
    for j in range(idim):
        brackets[0, j + 2] = {k + 2: c for k, c in dec.semisimple.cols[j].items()}
        brackets[1, j + 2] = {k + 2: c for k, c in dec.nilpotent.cols[j].items()}
    for (a, b), coeffs in zip(pairs, closure):
        brackets[a + 2, b + 2] = {k + 2: c for k, c in coeffs.items()}
    try:
        extended = LieAlgebra.from_sparse(dim_new, brackets)
    except InputError as exc:
        raise TripwireError(
            "expand", f"extension table failed validation: {exc.message}"
        ) from None

    # nothing is created or lost: [q', q'] is exactly the embedded [q, q]
    if extended.derived_subalgebra() != q.derived_subalgebra().image(step_embed):
        raise TripwireError("expand", "derived subalgebra is not preserved")

    new_p = Subspace(dim_new, SparseSpan([{0: QONE}])).sum(p.image(step_embed))
    new_n = Subspace(dim_new, SparseSpan([{1: QONE}])).sum(n.image(step_embed))
    record = {
        "stage": "expand",
        "generator": [str(x.get(k, QZERO)) for k in range(q.dim)],
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

    Every presentation is verified before anything reads it, the initial
    one too: that check is where the Levi complement is shown to be a
    subalgebra and the nilpotent seed a nilpotent ideal with [g, g]
    inside the two.  Each step must lower the defect by exactly one,
    which bounds the steps by the initial defect, so a faulty step
    cannot go unnoticed.
    """
    pres = initial_presentation(g)
    verify_presentation(pres, g)
    while (before := presentation_defect(pres)) > 0:
        pres = expansion_step(pres)
        verify_presentation(pres, g)
        if presentation_defect(pres) != before - 1:
            raise TripwireError(
                "expand",
                "defect did not decrease by one",
                before=before,
                after=presentation_defect(pres),
            )
    return pres
