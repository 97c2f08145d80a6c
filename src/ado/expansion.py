"""Absorbing the radical into a split semidirect presentation.

A presentation carries an algebra q, a reductive subalgebra p, a
nilpotent ideal n with p meeting n trivially and [q, q] inside p + n,
and the embedding of the originally given algebra into q.  The defect
dim q - dim p - dim n counts the directions not yet absorbed.  One
expansion step picks a generator x centralizing p outside p + n and
splits its action d on a complementary hyperplane ideal I into commuting
semisimple and nilpotent parts S and N.  The step then takes one of two
kinds.  It absorbs x when the split is trivial or inner: with N = 0, x
joins p; with S = 0, x joins n, which stays a nilpotent ideal because
[q, x] lies in n; and when N = ad y on I for some y in n, x - y joins p.
An absorb step keeps q and the embedding.  Otherwise the step extends:
q becomes the extension of I along the two derivations S and N, and
the generator re-enters as the sum of the two new directions, the
semisimple one joining p and the nilpotent one joining n.  Either way
the defect drops by exactly one per step.  S and N are derivations of
I by theory, not by a separate check: the extension satisfies the
Jacobi identity exactly when they are commuting derivations, and the
LieAlgebra constructor validates it.  That extension is the only
algebra a step builds.  saturate checks the parts of every presentation
(verify_parts, which reads the series of n in q), and the embedding
(verify_embedding) only after a step that extends, the one kind of step
that changes it; verify_presentation is the two checks together.
"""

from __future__ import annotations

from dataclasses import dataclass

from .decompose import levi_decomposition, nilpotent_seed
from .errors import InputError, TripwireError, as_tripwire
from .jordan import jc_decompose
from .lie import LieAlgebra
from .linalg import (
    Matrix,
    Q,
    QONE,
    QZERO,
    SparseSpan,
    Subspace,
    _add_scaled,
    coordinates_in,
    rank,
    solve_sparse,
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
    verify_parts(pres)
    verify_embedding(pres, original)


def verify_parts(pres: Presentation) -> None:
    """Check that p is a subalgebra and n a nilpotent ideal, that the two
    meet trivially and that together they hold [q, q]."""
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


def verify_embedding(pres: Presentation, original: LieAlgebra) -> None:
    """Check that the embedding is an injective homomorphism into q."""
    q = pres.algebra
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
    ideal = absorbed.sum(marked.extend_complement())
    hyperplane = list(ideal.span.rows.values())
    idim = len(hyperplane)
    images = [q._bracket(x, v) for v in hyperplane]
    if any(map(n.span.reduce, images)):
        raise TripwireError("expand", "generator action escapes the nilpotent ideal")
    # the images lie in n, inside the hyperplane, whose reduced rows read
    # their coordinates off its pivots
    with as_tripwire("expand"):
        action = Matrix.from_sparse(idim, idim, map(ideal.coordinates_of, images))
        dec = jc_decompose(action)

    if dec.nilpotent.is_zero():
        return absorb(pres, x, "reductive")
    if dec.semisimple.is_zero():
        # [q, x] lies in n, so n + x is an ideal, nilpotent by Engel's theorem
        return absorb(pres, x, "nilpotent")
    # a y in n with ad y = N on the hyperplane centralizes p, which lies in
    # the kernel of d and so of N; then x - y centralizes p and acts as S
    with as_tripwire("expand"):
        y = inner_part(q, hyperplane, n, dec.nilpotent)
    if y is not None:
        return absorb(pres, x, "reductive", inner=y)

    # otherwise extend I by s and t acting as S and N, x going to s + t;
    # whether S and N are commuting derivations of I is checked once, by
    # the extension's Jacobi identity below.  One change of basis to the
    # hyperplane and x expresses the old basis and the hyperplane's
    # brackets; x is coordinate idim
    pairs = [(a, b) for a in range(idim) for b in range(a + 1, idim)]
    closure = [q._bracket(hyperplane[a], hyperplane[b]) for a, b in pairs]
    units = [{j: QONE} for j in range(q.dim)]
    with as_tripwire("expand"):
        coords = coordinates_in([*hyperplane, x], units + closure)
    old_basis, closure = coords[: q.dim], coords[q.dim :]
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


def inner_part(
    q: LieAlgebra, hyperplane: list[dict[int, Q]], within: Subspace, nilpotent: Matrix
) -> dict[int, Q] | None:
    """Some y in within with ad y equal to the given matrix on the
    hyperplane, in the hyperplane's basis; None when there is none.

    One sparse system: its unknowns are y's coordinates in within's basis,
    and each hyperplane vector v gives the equations [y, v] = nilpotent v.
    """
    inner = list(within.span.rows.values())
    targets = (Matrix.from_sparse(q.dim, len(hyperplane), hyperplane) * nilpotent).cols
    equations = []
    for v, target in zip(hyperplane, targets):
        rows: dict[int, dict[int, Q]] = {r: {len(inner): c} for r, c in target.items()}
        for k, u in enumerate(inner):
            for r, c in q._bracket(u, v).items():
                rows.setdefault(r, {})[k] = c
        equations.extend(rows.values())
    solution = solve_sparse(equations, len(inner))
    if solution is None:
        return None
    y: dict[int, Q] = {}
    for k, c in solution.items():
        _add_scaled(y, inner[k], c)
    return y


def absorb(
    pres: Presentation, x: dict[int, Q], joins: str, inner: dict[int, Q] | None = None
) -> Presentation:
    """x, less the inner correction, joins the named part; the algebra and
    the embedding stay as they are."""
    q = pres.algebra
    vector = dict(x)
    if inner:
        _add_scaled(vector, inner, -QONE)
    line = Subspace(q.dim, SparseSpan([vector]))
    p, n = pres.reductive_part, pres.nilpotent_part
    if joins == "reductive":
        p = p.sum(line)
    else:
        n = n.sum(line)
    record = {
        "stage": "absorb",
        "generator": [str(x.get(k, QZERO)) for k in range(q.dim)],
        "joins": joins,
        "dimensions": {"algebra": q.dim, "reductive": p.dim, "nilpotent": n.dim},
    }
    if inner:
        record["inner"] = [str(inner.get(k, QZERO)) for k in range(q.dim)]
    return Presentation(
        algebra=q,
        reductive_part=p,
        nilpotent_part=n,
        embed_original=pres.embed_original,
        trace=pres.trace + (record,),
    )


def saturate(g: LieAlgebra) -> Presentation:
    """Expand until the algebra splits as p plus n.

    The parts of every presentation are checked before anything reads
    them, the initial one's too: that check is where the Levi complement
    is shown to be a subalgebra and the nilpotent seed a nilpotent ideal
    with [g, g] inside the two.  The embedding is checked only after a
    step that extends, as the only step that changes it: the initial
    embedding is the identity of g, and an absorb step keeps q and the
    embedding.  Each step must lower the defect by exactly one, which
    bounds the steps by the initial defect, so a faulty step cannot go
    unnoticed.
    """
    pres = initial_presentation(g)
    verify_parts(pres)
    while (before := presentation_defect(pres)) > 0:
        kept = pres.algebra, pres.embed_original
        pres = expansion_step(pres)
        if (pres.algebra, pres.embed_original) == kept:
            verify_parts(pres)
        else:
            verify_presentation(pres, g)
        if presentation_defect(pres) != before - 1:
            raise TripwireError(
                "expand",
                "defect did not decrease by one",
                before=before,
                after=presentation_defect(pres),
            )
    return pres
