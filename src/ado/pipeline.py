"""Assembling a faithful matrix representation from the split presentation.

After saturation the ambient algebra is a direct sum of two ideals: the
part of the reductive subalgebra that centralizes n, and the semidirect
product of the remaining reductive part with n.  Each ideal gets its own
block.  The semidirect block acts on the truncated enveloping module of
n, with the reductive part entering through the Leibniz extension of its
adjoint action.  The centralizing block is the adjoint representation
padded by one translation row so that central elements stay visible.
The result is verified from the matrices alone: bracket residuals for
every basis pair, and the kernel of the coefficient map for injectivity.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .decompose import reductive_split
from .envelope import (
    BuiltModule,
    build_module,
    check_short_span_intersection,
    verify_module_axioms,
)
from .errors import FaithfulnessError, TripwireError
from .expansion import Presentation, saturate
from .lie import LieAlgebra
from .linalg import (
    Matrix,
    Q,
    QONE,
    QZERO,
    SparseMatrix,
    SparseSpan,
    Subspace,
    block_diag,
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
    matrices: tuple[Matrix, ...]
    dim_v: int
    verification: VerificationReport
    provenance: dict


def reductive_representation(algebra: LieAlgebra) -> tuple[Matrix, ...]:
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
        sigma = Matrix.from_columns(columns, nrows=sigma_width)
        mats.append(
            block_diag([algebra.ad(unit_vector(algebra.dim, i)), sigma])
        )
    return tuple(mats)


def verify_representation(
    algebra: LieAlgebra, matrices: tuple[Matrix, ...]
) -> VerificationReport:
    """Re-derive the verdict from the matrices alone."""
    if len(matrices) != algebra.dim:
        raise ValueError("one matrix per basis element is required")
    dim_v = matrices[0].nrows if matrices else 0
    for m in matrices:
        if m.nrows != dim_v or m.ncols != dim_v:
            raise ValueError("matrices must be square and equally sized")
    sparse = [SparseMatrix.from_dense(m) for m in matrices]
    residuals = [
        (i, j)
        for i in range(algebra.dim)
        for j in range(i + 1, algebra.dim)
        if not bracket_residual(sparse[i], sparse[j], algebra.table[i][j], sparse).is_zero()
    ]
    # the kernel of the coefficient map c -> sum c_k M_k, by the rank of
    # the flattened matrices
    span = SparseSpan()
    for m in sparse:
        span.add(m.flatten())
    kernel_dimension = len(sparse) - span.dim
    return VerificationReport(
        dim_v=dim_v,
        homomorphism=not residuals,
        residual_pairs=tuple(residuals),
        kernel_dimension=kernel_dimension,
        faithful=kernel_dimension == 0,
    )


def _restricted_action(
    q: LieAlgebra, w: tuple[Q, ...], part: Subspace
) -> Matrix:
    cols = [part.coordinates_of(q.bracket(w, v)) for v in part.vectors()]
    return Matrix.from_columns(cols, nrows=part.dim)


def _assemble(
    algebra: LieAlgebra,
    pres: Presentation,
    kernel_part: Subspace,
    acting_part: Subspace,
    nil: Subspace,
    order: int | None,
    retried: bool,
) -> RepresentationResult:
    q = pres.algebra
    env_active = acting_part.dim + nil.dim > 0

    built: BuiltModule | None = None
    action_mats: list[SparseMatrix] = []
    if env_active:
        nalg, _ = q.subalgebra_on_basis(nil.basis.rows)
        built = build_module(nalg, order)
        derivations = [
            _restricted_action(q, w, nil) for w in acting_part.vectors()
        ]
        action_mats = verify_module_axioms(built, derivations)

    red_mats: list[SparseMatrix] = []
    if kernel_part.dim:
        p1alg, _ = q.subalgebra_on_basis(kernel_part.basis.rows)
        try:
            red_mats = [SparseMatrix.from_dense(m) for m in reductive_representation(p1alg)]
        except ValueError as exc:
            raise TripwireError("pipeline", str(exc)) from None

    change = Matrix(
        list(kernel_part.basis.rows)
        + list(acting_part.basis.rows)
        + list(nil.basis.rows),
        ncols=q.dim,
    ).transpose()
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
            block = built.left_action(nilpart)
            dim = block.nrows
            blocks.append(sparse_combination((QONE,) + acting, [block] + action_mats, dim, dim))
        if red_mats:
            size = red_mats[0].nrows
            blocks.append(sparse_combination(central, red_mats, size, size))
        matrices.append(sparse_block_diag(blocks).to_dense())

    report = verify_representation(algebra, tuple(matrices))
    if not matrices:
        # zero algebra: represent it on a one-dimensional space
        report = replace(report, dim_v=1)
    if not report.homomorphism:
        raise TripwireError(
            "pipeline",
            "assembled representation does not respect the bracket",
            pairs=[list(p) for p in report.residual_pairs],
        )
    if not report.faithful:
        raise FaithfulnessError(
            "pipeline",
            "representation has a kernel at this truncation",
            kernel_dimension=report.kernel_dimension,
            truncation=built.module.truncation if built else None,
        )

    blocks_meta: list[dict] = []
    if built is not None:
        blocks_meta.append(
            {
                "kind": "enveloping",
                "dimension": built.module.dim,
                "truncation": built.module.truncation,
                "word_bound": built.module.ambient_bound,
                "ambient_monomials": built.module.ambient_count,
                "cut_ideal_dimension": built.module.low_ideal.dim,
                "nilpotency_index": built.module.nilindex,
                "acting_dimension": acting_part.dim,
                "nilpotent_dimension": nil.dim,
                "short_products": check_short_span_intersection(built),
            }
        )
    if red_mats:
        blocks_meta.append(
            {
                "kind": "reductive",
                "dimension": red_mats[0].nrows,
                "adjoint_dimension": kernel_part.dim,
            }
        )
    provenance = {
        "saturation": [dict(record) for record in pres.trace],
        "ambient_dimension": q.dim,
        "blocks": blocks_meta,
        "retried": retried,
    }
    return RepresentationResult(
        algebra=algebra,
        matrices=tuple(matrices),
        dim_v=report.dim_v,
        verification=report,
        provenance=provenance,
    )


def ado_representation(
    algebra: LieAlgebra,
    truncation: int | None = None,
    retry: bool = True,
) -> RepresentationResult:
    """Compute a verified faithful matrix representation.

    A chosen truncation below the default can cut into the span of the
    generators; when that costs injectivity the construction is retried
    once, one order deeper, unless retry is disabled.
    """
    pres = saturate(algebra)
    split = reductive_split(
        pres.algebra, pres.reductive_part, pres.nilpotent_part
    )
    p_central, p_acting = split.kernel_part, split.acting_part
    nil = pres.nilpotent_part
    try:
        return _assemble(
            algebra, pres, p_central, p_acting, nil, truncation, retried=False
        )
    except FaithfulnessError:
        if not retry or p_acting.dim + nil.dim == 0:
            raise
        if truncation is not None:
            deeper = truncation + 1
        else:
            nalg, _ = pres.algebra.subalgebra_on_basis(nil.basis.rows)
            deeper = nalg.nilpotency_index() + 3
        return _assemble(
            algebra, pres, p_central, p_acting, nil, deeper, retried=True
        )
