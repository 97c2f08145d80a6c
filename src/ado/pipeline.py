"""Assembling a faithful matrix representation from the split presentation.

After saturation the ambient algebra is a direct sum of two ideals: the
part of the reductive subalgebra that centralizes n, and the semidirect
product of the remaining reductive part with n.  Each ideal gets its own
block.  The semidirect block acts on the enveloping module V of n
truncated by weighted degree, built on a basis of n adapted to its lower
central series, with the reductive part entering through the Leibniz
extension of its adjoint action; once its axioms are checked, the block
is cut to V/W, W the largest submodule inside the kernel of the
projection onto n along the symmetrized monomials.  The centralizing
block is the adjoint representation padded by one translation row so
that central elements stay visible.
Each split-basis vector's image is built once, in its block, and one
change of basis makes each generator's matrix a combination of them.
The matrices stay sparse from assembly through verification, which
re-derives the verdict from them alone: a yes/no bracket check for every
basis pair, and the kernel of the coefficient map for injectivity.
"""

from __future__ import annotations

from dataclasses import dataclass

from .decompose import reductive_split
from .envelope import BuiltModule, build_module, cut_images, verify_module_axioms
from .errors import TripwireError, as_tripwire
from .expansion import saturate
from .lie import LieAlgebra
from .linalg import (
    Matrix,
    Q,
    QONE,
    SparseSpan,
    Subspace,
    bracket_holds,
    coordinates_in,
    sparse_block_diag,
    sparse_combination,
)


@dataclass(frozen=True)
class VerificationReport:
    dim_v: int
    homomorphism: bool
    residual_pairs: tuple[tuple[int, int], ...]
    kernel_dimension: int
    faithful: bool

    @property
    def verified(self) -> bool:
        return self.homomorphism and self.faithful

    def to_json(self) -> dict:
        return {
            "dim_v": self.dim_v,
            "homomorphism": self.homomorphism,
            "residual_pairs": [list(pair) for pair in self.residual_pairs],
            "kernel_dimension": self.kernel_dimension,
            "faithful": self.faithful,
            "verified": self.verified,
        }


@dataclass(frozen=True)
class RepresentationResult:
    algebra: LieAlgebra
    matrices: tuple[Matrix, ...]
    dim_v: int
    verification: VerificationReport
    provenance: dict


def reductive_representation(algebra: LieAlgebra) -> tuple[Matrix, ...]:
    """Adjoint representation padded by one translation column.

    Faithful whenever the algebra is its derived part plus its centre,
    as every reductive algebra is: the kernel of the adjoint block is
    the centre, and the translation column records the central
    component.  Raises ValueError ("not reductive") when the two parts
    do not split the algebra.
    """
    derived = algebra.derived_subalgebra()
    centre = algebra.center()
    if derived.intersect(centre).dim or derived.dim + centre.dim != algebra.dim:
        raise ValueError("algebra is not reductive")
    dz = centre.dim
    basis = [*derived.span.rows.values(), *centre.span.rows.values()]
    units = ({i: QONE} for i in range(algebra.dim))
    sigma_width = 1 + dz
    mats = []
    for i, coeffs in enumerate(coordinates_in(basis, units)):
        if coeffs is None:
            raise TripwireError("pipeline", "basis vector outside derived + centre", index=i)
        # the translation column holds the central component below a zero
        central = {k - derived.dim + 1: c for k, c in coeffs.items() if k >= derived.dim}
        translation = [central] + [{}] * dz
        # column j of ad(e_i) is [e_i, e_j]
        ad = Matrix.from_sparse(algebra.dim, algebra.dim, map(dict, algebra.nonzero[i]))
        sigma = Matrix.from_sparse(sigma_width, sigma_width, translation)
        mats.append(sparse_block_diag([ad, sigma]))
    return tuple(mats)


def verify_representation(
    algebra: LieAlgebra, matrices: tuple[Matrix, ...], dim_v: int
) -> VerificationReport:
    """Re-derive the verdict from the dim_v x dim_v matrices alone."""
    if len(matrices) != algebra.dim:
        raise ValueError("one matrix per basis element is required")
    for m in matrices:
        if m.nrows != dim_v or m.ncols != dim_v:
            raise ValueError("matrices must be square and equally sized")
    residuals = [
        (i, j)
        for i in range(algebra.dim)
        for j in range(i + 1, algebra.dim)
        if not bracket_holds(
            matrices[i], matrices[j], [(c, matrices[k]) for k, c in algebra.nonzero[i][j]]
        )
    ]
    # the kernel of the coefficient map c -> sum c_k M_k, by the rank of
    # the flattened matrices
    span = SparseSpan()
    for m in matrices:
        span.add(m.entries())
    kernel_dimension = len(matrices) - span.dim
    return VerificationReport(
        dim_v=dim_v,
        homomorphism=not residuals,
        residual_pairs=tuple(residuals),
        kernel_dimension=kernel_dimension,
        faithful=kernel_dimension == 0,
    )


def adapted_basis(q: LieAlgebra, nil: Subspace) -> tuple[dict[int, Q], ...]:
    """Basis of the nilpotent ideal adapted to its lower central series.

    Every term n, [n, n], [n, [n, n]], ... is spanned by a subset of the
    returned vectors, which is what the weights of the enveloping module
    assume.  The echelon basis of nil is returned as it is when it
    already has that property; otherwise the basis is built layer by
    layer, shallow layers first, from a complement of each term within
    the one before.
    """
    series = q.lower_central_series(nil)
    echelon = tuple(nil.span.rows.values())
    if all(row in echelon for term in series for row in term.span.rows.values()):
        return echelon
    return tuple(
        v
        for upper, lower in zip(series, series[1:])
        for v in lower.extend_complement(within=upper).span.rows.values()
    )


def ado_representation(
    algebra: LieAlgebra, truncation: int | None = None
) -> RepresentationResult:
    """Compute a verified faithful matrix representation.

    The truncation of the enveloping module defaults to the largest
    generator weight and can only be raised; build_module raises
    InputError below that floor.  The result is faithful by
    construction: reductive_split makes the acting part meet the
    centralizer of n trivially, the reductive block is faithful on the
    kernel part, and on V/W, for D + x nonzero with D acting and x in n,
    either x * 1 = x or D x_b = D(x_b) leaves the kernel of the
    projection onto n.  A representation that still fails verification
    is a bug, reported as TripwireError.
    """
    pres = saturate(algebra)
    q, nil = pres.algebra, pres.nilpotent_part
    split = reductive_split(q, pres.reductive_part, nil)
    kernel_part, acting_part = split.kernel_part, split.acting_part

    built: BuiltModule | None = None
    env_images: tuple[Matrix, ...] = ()
    nil_basis = adapted_basis(q, nil)
    if acting_part.dim + nil.dim:
        # the acting part acts on n by derivations, expressed in the adapted
        # basis by the same elimination that builds n's algebra
        with as_tripwire("pipeline"):
            nalg, _, derivations = q.subalgebra_and_derivations(
                nil_basis, acting_part.span.rows.values()
            )
        built = build_module(nalg, truncation)
        if None in derivations:
            raise TripwireError("pipeline", "derivation escapes the nilpotent part")
        action_mats = verify_module_axioms(built, derivations)
        env_images = cut_images(built, [*action_mats, *built.left])

    red_mats: list[Matrix] = []
    if kernel_part.dim:
        with as_tripwire("pipeline"):
            red_mats = list(reductive_representation(split.kernel_algebra))

    # the images of the split basis: the kernel part acts on the reductive
    # block, the acting part and n on the enveloping block
    basis = [*kernel_part.span.rows.values(), *acting_part.span.rows.values(), *nil_basis]
    env_dim = env_images[0].nrows if env_images else 0
    red_dim = red_mats[0].nrows if red_mats else 0
    dim_v = env_dim + red_dim
    env_zero, red_zero = Matrix.zeros(env_dim, env_dim), Matrix.zeros(red_dim, red_dim)
    images = [sparse_block_diag([env_zero, m]) for m in red_mats]
    images += [sparse_block_diag([m, red_zero]) for m in env_images]
    with as_tripwire("pipeline"):
        original_coords = coordinates_in(basis, pres.embed_original.cols)
    matrices = []
    for i, coeffs in enumerate(original_coords):
        if coeffs is None:
            raise TripwireError("pipeline", "basis vector outside the split", index=i)
        terms = [images[t] for t in coeffs]
        matrices.append(sparse_combination(coeffs.values(), terms, dim_v, dim_v))

    # the zero algebra is represented on a one-dimensional space
    report = verify_representation(algebra, tuple(matrices), dim_v or 1)
    if not report.verified:
        raise TripwireError(
            "pipeline",
            "assembled representation fails verification",
            pairs=[list(p) for p in report.residual_pairs],
            kernel_dimension=report.kernel_dimension,
        )

    # retried is a constant of the construction, kept while the
    # benchmark's counter reader expects it
    blocks_meta: list[dict] = []
    if built is not None:
        blocks_meta.append(
            {
                "kind": "enveloping",
                "dimension": env_dim,
                "truncation": built.module.truncation,
                "weights": list(built.module.weights),
                "ambient_monomials": built.module.dim,
                "cut_ideal_dimension": built.module.dim - env_dim,
                "nilpotency_index": built.module.nilindex,
                "acting_dimension": acting_part.dim,
                "nilpotent_dimension": nil.dim,
            }
        )
    if red_mats:
        blocks_meta.append(
            {
                "kind": "reductive",
                "dimension": red_dim,
                "adjoint_dimension": kernel_part.dim,
            }
        )
    provenance = {
        "saturation": [dict(record) for record in pres.trace],
        "ambient_dimension": q.dim,
        "blocks": blocks_meta,
        "retried": False,
    }
    return RepresentationResult(
        algebra=algebra,
        matrices=tuple(matrices),
        dim_v=report.dim_v,
        verification=report,
        provenance=provenance,
    )

