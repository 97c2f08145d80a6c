"""Assembling a faithful matrix representation from the split presentation.

After saturation the ambient algebra is a direct sum of two ideals: the
part of the reductive subalgebra that centralizes n, and the semidirect
product of the remaining reductive part with n.  Each ideal gets its own
block.  The semidirect block acts on the enveloping module of n
truncated by weighted degree, built on a basis of n adapted to its lower
central series, with the reductive part entering through the Leibniz
extension of its adjoint action.  The centralizing block is the adjoint
representation padded by one translation row so that central elements
stay visible.
The matrices stay sparse from assembly through verification, which
re-derives the verdict from them alone: bracket residuals for every
basis pair, and the kernel of the coefficient map for injectivity.
"""

from __future__ import annotations

from dataclasses import dataclass

from .decompose import reductive_split
from .envelope import BuiltModule, build_module, verify_module_axioms
from .errors import TripwireError
from .expansion import saturate
from .lie import LieAlgebra
from .linalg import (
    Matrix,
    QONE,
    QZERO,
    SparseMatrix,
    SparseSpan,
    Subspace,
    Vector,
    bracket_residual,
    rank,
    solve,
    sparse_block_diag,
    sparse_combination,
    unit_vector,
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
    matrices: tuple[SparseMatrix, ...]
    dim_v: int
    verification: VerificationReport
    provenance: dict


def reductive_representation(algebra: LieAlgebra) -> tuple[SparseMatrix, ...]:
    """Adjoint representation padded by one translation column.

    Faithful on any reductive algebra: the adjoint block sees everything
    outside the centre and the translation column records the central
    component.  Raises ValueError when the algebra is not reductive,
    i.e. when it does not split as a semisimple derived part plus its
    centre.
    """
    derived = algebra.derived_subalgebra()
    centre = algebra.center()
    split_cleanly = (
        derived.intersect(centre).dim == 0
        and derived.dim + centre.dim == algebra.dim
    )
    if not split_cleanly:
        raise ValueError("algebra is not reductive")
    if derived.dim:
        dsub, _ = algebra.subalgebra_on_basis(derived.basis.rows)
        if rank(dsub.killing_form()) != dsub.dim:
            raise ValueError("algebra is not reductive")
    dz = centre.dim
    change = Matrix(
        list(derived.basis.rows) + list(centre.basis.rows), ncols=algebra.dim
    ).transpose()
    sigma_width = 1 + dz
    mats = []
    for i in range(algebra.dim):
        coeffs = solve(change, unit_vector(algebra.dim, i))
        if coeffs is None:
            raise TripwireError("pipeline", "basis vector outside derived + centre", index=i)
        central = coeffs[derived.dim :]
        columns = [(QZERO,) + tuple(central)]
        columns += [(QZERO,) * sigma_width] * dz
        # column j of ad(e_i) is [e_i, e_j]
        ad = SparseMatrix(algebra.dim, algebra.dim, map(dict, algebra.nonzero[i]))
        mats.append(sparse_block_diag([ad, SparseMatrix.from_columns(columns, sigma_width)]))
    return tuple(mats)


def verify_representation(
    algebra: LieAlgebra, matrices: tuple[SparseMatrix, ...], dim_v: int
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
        if not bracket_residual(
            matrices[i], matrices[j], [(c, matrices[k]) for k, c in algebra.nonzero[i][j]]
        ).is_zero()
    ]
    # the kernel of the coefficient map c -> sum c_k M_k, by the rank of
    # the flattened matrices
    span = SparseSpan()
    for m in matrices:
        span.add(m.flatten())
    kernel_dimension = len(matrices) - span.dim
    return VerificationReport(
        dim_v=dim_v,
        homomorphism=not residuals,
        residual_pairs=tuple(residuals),
        kernel_dimension=kernel_dimension,
        faithful=kernel_dimension == 0,
    )


def adapted_basis(q: LieAlgebra, nil: Subspace) -> tuple[Vector, ...]:
    """Basis of the nilpotent ideal adapted to its lower central series.

    Every term n, [n, n], [n, [n, n]], ... is spanned by a subset of the
    returned vectors, which is what the weights of the enveloping module
    assume.  The echelon basis of nil is returned as it is when it
    already has that property; otherwise the basis is built layer by
    layer, shallow layers first, from a complement of each term within
    the one before.
    """
    series = [nil]
    # dimensions fall strictly in a nilpotent ideal, so nil.dim steps reach 0
    for _ in range(nil.dim):
        series.append(q.bracket_span(nil, series[-1]))
    echelon = set(nil.basis.rows)
    if all(row in echelon for term in series for row in term.vectors()):
        return nil.basis.rows
    return tuple(
        v
        for upper, lower in zip(series, series[1:])
        for v in lower.extend_complement(within=upper).vectors()
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
    kernel part, and x * 1 = x keeps every generator of n visible.  A
    representation that still fails verification is a bug, reported as
    TripwireError.
    """
    pres = saturate(algebra)
    q, nil = pres.algebra, pres.nilpotent_part
    split = reductive_split(q, pres.reductive_part, nil)
    kernel_part, acting_part = split.kernel_part, split.acting_part

    built: BuiltModule | None = None
    action_mats: list[SparseMatrix] = []
    nil_basis = adapted_basis(q, nil)
    if acting_part.dim + nil.dim:
        nalg, inclusion = q.subalgebra_on_basis(nil_basis)
        built = build_module(nalg, truncation)
        derivations = []
        for w in acting_part.vectors():
            cols = [solve(inclusion, q.bracket(w, v)) for v in nil_basis]
            if None in cols:
                raise TripwireError("pipeline", "derivation escapes the nilpotent part")
            derivations.append(Matrix.from_columns(cols, nrows=nil.dim))
        action_mats = verify_module_axioms(built, derivations)

    red_mats: list[SparseMatrix] = []
    if kernel_part.dim:
        p1alg, _ = q.subalgebra_on_basis(kernel_part.basis.rows)
        try:
            red_mats = list(reductive_representation(p1alg))
        except ValueError as exc:
            raise TripwireError("pipeline", str(exc)) from None

    change = Matrix(
        list(kernel_part.basis.rows)
        + list(acting_part.basis.rows)
        + list(nil_basis),
        ncols=q.dim,
    ).transpose()
    env_dim = built.module.dim if built else 0
    red_dim = red_mats[0].nrows if red_mats else 0
    matrices = []
    for i in range(algebra.dim):
        coeffs = solve(change, pres.embed_original.column(i))
        if coeffs is None:
            raise TripwireError("pipeline", "basis vector outside the split", index=i)
        central = coeffs[: kernel_part.dim]
        acting = coeffs[kernel_part.dim : kernel_part.dim + acting_part.dim]
        nilpart = coeffs[kernel_part.dim + acting_part.dim :]
        blocks = []
        if built is not None:
            left = [built.left_action(nilpart)] + action_mats
            blocks.append(sparse_combination((QONE,) + acting, left, env_dim, env_dim))
        if red_mats:
            blocks.append(sparse_combination(central, red_mats, red_dim, red_dim))
        matrices.append(sparse_block_diag(blocks))

    # the zero algebra is represented on a one-dimensional space
    report = verify_representation(algebra, tuple(matrices), env_dim + red_dim or 1)
    if not report.verified:
        raise TripwireError(
            "pipeline",
            "assembled representation fails verification",
            pairs=[list(p) for p in report.residual_pairs],
            kernel_dimension=report.kernel_dimension,
        )

    # cut_ideal_dimension and retried are constants of the construction,
    # kept while the benchmark's counter reader expects them
    blocks_meta: list[dict] = []
    if built is not None:
        blocks_meta.append(
            {
                "kind": "enveloping",
                "dimension": built.module.dim,
                "truncation": built.module.truncation,
                "weights": list(built.module.weights),
                "ambient_monomials": built.module.dim,
                "cut_ideal_dimension": 0,
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

