"""End-to-end acceptance checklist, one printed verdict line per item.

Every test here goes through public entry points only: the command
line, the pipeline, and the oracles the other suites already trust.
Each prints "acceptance N (label): PASS" or "FAIL" past the capture so
a plain pytest run shows the checklist.
"""

import hashlib
import json
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction as Q
from functools import reduce

from ado.catalog import catalog_algebra
from ado.cli import main
from ado.envelope import build_module
from ado.formats import algebra_to_json, canonical_dumps, representation_to_json
from ado.expansion import (
    expansion_step,
    initial_presentation,
    presentation_defect,
    saturate,
    verify_presentation,
)
from ado.jordan import jc_decompose
from ado.linalg import (
    Matrix,
    Polynomial,
    Subspace,
    kernel,
    minimal_polynomial,
    squarefree_part,
    unit_vector,
)
from ado.pipeline import adapted_basis, ado_representation, verify_representation

from helpers import (
    dense_ad,
    conjugated_jordan,
    dense_leibniz_witness,
    direct_sum,
    enveloping_inputs,
    heavy_insert_failures,
    module_disagreements,
    oracle_cut_dimension,
    oracle_weighted_count,
    oracle_weights,
    seeded_change_of_basis,
    seeded_matrix,
    semisimple_from_eigenvalues,
    sl2_plus_sl2_semidirect_plane,
    sl2_semidirect_plane,
    sl3,
)

CATALOG_CASES = (
    "abelian:1",
    "abelian:2",
    "abelian:3",
    "abelian:4",
    "heisenberg",
    "heisenberg5",
    "solv2",
    "jordan3",
    "rot3",
    "sl2",
    "gl2",
    "t3",
)

# sha256 of the `ado compute --catalog NAME` stdout; representation files
# are byte-deterministic, so any change to these is a change of output.
# solv2, rot3 and t3 absorb their saturation steps; their dimensions and
# verdicts are checked on their own by test_absorbed_outputs_are_block_sums
CATALOG_SHA256 = {
    "abelian:1": "91f390b354c6a88d3e02230ab72a6dce18aba4cdfa490750aad876387b07e156",
    "abelian:2": "85fe07709ce1ce98c07a6ff7b58feb0156f0be3afe5cda1348dd20b66a6f9dae",
    "abelian:3": "febdf029bfa27b363d63161c260316c963179b82e8d11666d1eb5e6448a8f0e2",
    "abelian:4": "edf5be99ba553abad82a3302acd968bb46599d94a133a517c1631bead240e717",
    "heisenberg": "b42ec9dfa04db0b2e8b0d83cb8a3ff89a34d997b3e05e84c7c1a6521669eefbf",
    "heisenberg5": "9dd29874f0678390b350d77cfae6a92da1fc0ba2d4e960204e7a6d0e8eb2288b",
    "solv2": "0653ed3be6c66eee23a3a5181c89570cefe4cafefbfd79d5751f8bd7f2c0b18f",
    "jordan3": "7db54cd71ff5efe81287b553aa02962e8d04ea191ed7e60f991aa84535250364",
    "rot3": "03c411e9e5cd680d579d03ed3c2fa457cf90282f082b0bedaf3c1cfb4f8d0221",
    "sl2": "13836be6a31fa11d521faa8af6b39338f535212b44f22729420e4af0ab6b9d86",
    "gl2": "a67ddb5a77d8c01c3a48378339ee56b6490ef8f8759a1fd9a8ae94906c3a0d4a",
    "t3": "601afba8bc6197e9db8e39b88404cc6df5466f3db31b4f2ffbdf53e48b77a71d",
}

# sha256 of the `ado compute FILE --trace` stdout and stderr, for catalog
# algebras rewritten in seeded_change_of_basis(random.Random(seed), ...)
# bases: these inputs take saturation steps that the catalog bases skip.
# The t3, rot3 and solv2 values are those of the absorbing construction,
# backed by test_absorbed_outputs_are_block_sums
REBASED_SHA256 = {
    ("t3", 1): "3d1b96a3b95ba91dbcb248999ff1c4148fe972afc752f5978b2d80b61d0148ed",
    ("t3", 2): "d3f2dc30f34c58f2909c04f5313a2187984c11d723814ac9fbf46f53eb202281",
    ("jordan3", 1): "240d99721101ef48208003f6e7b35d840782504c9d34058905bea25566e74620",
    ("jordan3", 2): "ef0cd8397b98fd3f4d6b0e08273504838e80b08551a9504306e44194cc4b2d53",
    ("rot3", 1): "72862268184157842e556444df9b73111db3309f4676a305552dd874707b1687",
    ("rot3", 2): "224f62a1493338a5e4564d00d899cca0fc3472674fd48bfcafe56170e0905f31",
    ("gl2", 1): "8a5df3fa8a4ed3b4621333f754dbb8945bae1a15c389bbbe4c1083ca8aac1b6d",
    ("gl2", 2): "f98a8d3b13ffff6bdae10f8e7a151e4fbfdacfdfeae7be96099134b5066ed667",
    ("solv2", 1): "59e3b3083d067cce25ade2511cd53944c9134e1439676c2c062bd3777fd7ce91",
    ("solv2", 2): "e35322acb268fc538801cf41c2853da599bed6bc381e41531feefe0c08a16f68",
    ("heisenberg5", 1): "12bc4d45bae29fa9ac53e9452de5c4a8d0cf4e3cddd7dbc525c1f28f8662364d",
    ("heisenberg5", 2): "a90d31a13930073269d085c8a978cbcdf563c5279b2c835ebe23801992997450",
}

# sha256 of the `ado compute FILE --trace` stdout and stderr for algebras
# with a Levi part, in their own basis (seed None) and in a
# seeded_change_of_basis(random.Random(seed), ...) basis.  sl2 on the
# plane has an acting part and n, sl2 plus that adds a kernel part, and
# sl3 + sl3 is all kernel part
LEVI_MIXED = {
    "sl2_semidirect_plane": sl2_semidirect_plane,
    "sl2_plus_sl2_semidirect_plane": sl2_plus_sl2_semidirect_plane,
    "sl3+sl3": lambda: direct_sum(sl3(), sl3()),
}
LEVI_MIXED_SHA256 = {
    ("sl2_semidirect_plane", None): "3954c67881bcd0871f324382b6dcfbdcba2e1e35768bccbb520984d39e241c1a",
    ("sl2_semidirect_plane", 1): "93f2fbb02d92c33bce23a8f551315a052c659256bddd1e4c6af413a02273ad30",
    ("sl2_plus_sl2_semidirect_plane", None): "5ebb7e704833c672617f5cbab1cc6bfef4cfb19c9ea72e0b40bbbf2cf009bb86",
    ("sl2_plus_sl2_semidirect_plane", 1): "af1e43426d5c014912d4436b9316e41a2e92f47d7df877d15fbb96986ad6dcfb",
    ("sl3+sl3", None): "94c42e6b7dc2350dd6f827848b370b81d9d4d99fe5f6f0a144dba8655313c7d2",
    ("sl3+sl3", 1): "24d8240349ed873ccfcba307fa444d8e520df7d3b54ad70453ba68ea88a65e6e",
}

# dim_v of each output: the weighted module is m + 1 dimensional on
# abelian:m; heisenberg, heisenberg5, jordan3 and t3 are cut to V/W, and
# test_catalog_dimensions_match_the_dense_cut_oracle re-derives each
CATALOG_DIM_V = {
    "abelian:1": 2,
    "abelian:2": 3,
    "abelian:3": 4,
    "abelian:4": 5,
    "heisenberg": 4,
    "heisenberg5": 6,
    "solv2": 2,
    "jordan3": 4,
    "rot3": 3,
    "sl2": 4,
    "gl2": 6,
    "t3": 7,
}

# the catalog entries whose saturation takes at least one step
STEPPING_CASES = ("solv2", "jordan3", "rot3", "t3")


@contextmanager
def criterion(capsys, number, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"acceptance {number} ({label}): FAIL")
        raise
    with capsys.disabled():
        print(f"acceptance {number} ({label}): PASS")


def test_catalog_end_to_end(capsys, tmp_path):
    with criterion(capsys, 1, "catalog end to end"):
        total = 0.0
        for name in CATALOG_CASES:
            started = time.monotonic()
            code = main(["compute", "--catalog", name])
            elapsed = time.monotonic() - started
            out = capsys.readouterr().out
            assert code == 0, name
            assert json.loads(out)["dim_v"] == CATALOG_DIM_V[name], name
            verification = json.loads(out)["verification"]
            assert verification["residual_pairs"] == [], name
            assert verification["kernel_dimension"] == 0, name
            assert verification["verified"] is True, name
            digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
            assert digest == CATALOG_SHA256[name], name
            assert elapsed < 60.0, (name, elapsed)
            total += elapsed
            # the written file verifies again from its matrices alone
            path = tmp_path / "rep.json"
            path.write_text(out, encoding="utf-8")
            code = main(["verify", str(path)])
            assert code == 0, name
            assert json.loads(capsys.readouterr().out) == verification, name
        assert total < 600.0, total


def test_catalog_dimensions_match_the_dense_cut_oracle():
    # the dimensions behind CATALOG_SHA256 and CATALOG_DIM_V: V from the
    # generating function and V/W from the dense oracle, next to the
    # reductive block, which the cut leaves alone
    for name in CATALOG_CASES:
        g = catalog_algebra(name)
        blocks = {b["kind"]: b for b in ado_representation(g).provenance["blocks"]}
        dim_v = blocks["reductive"]["dimension"] if "reductive" in blocks else 0
        if "enveloping" in blocks:
            env = blocks["enveloping"]
            nalg, derivations = enveloping_inputs(g)
            weights, order = oracle_weights(nalg), env["truncation"]
            assert env["ambient_monomials"] == oracle_weighted_count(weights, order), name
            assert env["dimension"] == oracle_cut_dimension(nalg, derivations, order), name
            dim_v += env["dimension"]
        assert dim_v == CATALOG_DIM_V[name], name


def traced_digest(capsys, path, name, g):
    """sha256 of the `ado compute FILE --trace` stdout and stderr for g."""
    labels = tuple(f"e{i}" for i in range(g.dim))
    path.write_text(canonical_dumps(algebra_to_json(name, labels, g)))
    code = main(["compute", str(path), "--trace"])
    captured = capsys.readouterr()
    assert code == 0, name
    return hashlib.sha256((captured.out + captured.err).encode("utf-8")).hexdigest()


def test_rebased_outputs_are_pinned(capsys, tmp_path):
    path = tmp_path / "algebra.json"
    for (name, seed), pinned in REBASED_SHA256.items():
        g = seeded_change_of_basis(random.Random(seed), catalog_algebra(name))
        assert traced_digest(capsys, path, f"{name}-{seed}", g) == pinned, (name, seed)


def test_levi_mixed_outputs_are_pinned(capsys, tmp_path):
    path = tmp_path / "algebra.json"
    for (name, seed), pinned in LEVI_MIXED_SHA256.items():
        g = LEVI_MIXED[name]()
        if seed is not None:
            g = seeded_change_of_basis(random.Random(seed), g)
        assert traced_digest(capsys, path, f"{name}-{seed}", g) == pinned, (name, seed)


# the absorbing catalog entries: n after saturation, its weights and the
# default truncation, the dimension of the kernel part of p, which the
# reductive block represents by its adjoint padded by a translation, and
# the dimension of the enveloping block cut to V/W
ABSORBED_SHAPES = {
    # n is the line of e2, acted on by the scaling e1
    "solv2": ((1,), 1, 0, 2),
    # n is the plane, acted on by the rotation
    "rot3": ((1, 1), 1, 0, 3),
    # n is the Heisenberg algebra of strictly upper triangular matrices;
    # the identity commutes with it and the traceless diagonal acts
    "t3": ((1, 1, 2), 2, 1, 4),
}


def _weighted_monomials(weights, order):
    # monomials of weighted degree <= order in k generators of weight 1
    # and at most one z of weight 2: the sum over the powers c of z of
    # C(k + order - 2c, k)
    k = weights.count(1)
    powers = order // 2 if 2 in weights else 0
    return sum(math.comb(k + order - 2 * c, k) for c in range(powers + 1))


def test_absorbed_outputs_are_block_sums(capsys, tmp_path):
    # the facts that back the pinned outputs of the absorbing entries, in
    # the catalog basis and in the pinned random bases
    path = tmp_path / "rep.json"
    for name, (weights, order, kernel_dim, cut_dim) in ABSORBED_SHAPES.items():
        for seed in (None, 1, 2):
            g = catalog_algebra(name)
            if seed is not None:
                g = seeded_change_of_basis(random.Random(seed), g)
            result = ado_representation(g)
            env, *red = result.provenance["blocks"]
            assert sorted(env["weights"]) == list(weights), (name, seed)
            assert env["truncation"] == order
            assert env["ambient_monomials"] == _weighted_monomials(weights, order)
            assert env["ambient_monomials"] == oracle_weighted_count(weights, order)
            assert env["dimension"] == cut_dim, (name, seed)
            assert env["cut_ideal_dimension"] == env["ambient_monomials"] - cut_dim
            # adjoint of an abelian kernel part, one translation row per
            # central direction and one more
            red_dim = 2 * kernel_dim + 1 if kernel_dim else 0
            assert [b["dimension"] for b in red] == ([red_dim] if kernel_dim else [])
            assert result.dim_v == env["dimension"] + red_dim == CATALOG_DIM_V[name]
            labels = tuple(f"e{i}" for i in range(g.dim))
            path.write_text(canonical_dumps(representation_to_json(name, labels, result)))
            assert main(["verify", str(path)]) == 0, (name, seed)
            capsys.readouterr()


def test_t3_absorbs_every_step_in_random_bases():
    # the torus absorbs in any basis; Random(9) is a basis whose first
    # generator acts with a nilpotent part that only the inner correction
    # removes, so without it dim_v would depend on the basis
    corrected = 0
    for seed in (1, 2, 9):
        g = seeded_change_of_basis(random.Random(seed), catalog_algebra("t3"))
        result = ado_representation(g)
        steps = result.provenance["saturation"][1:]
        assert [record["stage"] for record in steps] == ["absorb"] * 3, seed
        assert result.provenance["ambient_dimension"] == 6
        assert result.dim_v == CATALOG_DIM_V["t3"], seed
        corrected += sum("inner" in record for record in steps)
    assert corrected


# jordan3's saturation record, as the construction wrote it before any
# step could absorb: a step whose split is proper and not inner extends
# exactly as it did
JORDAN3_SATURATION = (
    '[{"levi_dimension":0,"nilpotent_dimension":2,"radical_dimension":3,"stage":"initial"},'
    '{"dimensions":{"algebra":4,"nilpotent":3,"reductive":1},'
    '"embedding":[["1","0","0"],["1","0","0"],["0","1","0"],["0","0","1"]],'
    '"generator":["1","0","0"],"semisimple_witness":["1"],"stage":"expand"}]\n'
)


def test_jordan3_saturation_record_is_unchanged():
    result = ado_representation(catalog_algebra("jordan3"))
    assert canonical_dumps(result.provenance["saturation"]) == JORDAN3_SATURATION


def test_abelian_module_dimensions(capsys):
    with criterion(capsys, 2, "abelian module dimensions"):
        for m in (1, 2, 3):
            for order in (2, 3, 4):
                algebra = catalog_algebra(f"abelian:{m}")
                result = ado_representation(algebra, truncation=order)
                # V is every monomial of degree <= order; the cut keeps the
                # unit and the m letters at any truncation
                expected = math.comb(m + order, order)
                assert result.dim_v == m + 1, (m, order)
                block = result.provenance["blocks"][0]
                assert block["kind"] == "enveloping"
                assert block["dimension"] == m + 1, (m, order)
                assert block["ambient_monomials"] == expected, (m, order)


def test_solv2_golden_run(capsys):
    with criterion(capsys, 3, "solv2 golden run"):
        g = catalog_algebra("solv2")
        pres = saturate(g)
        assert len(pres.trace) == 2  # exactly one step, which absorbs
        assert pres.trace[1]["stage"] == "absorb"
        assert pres.algebra is g
        assert pres.reductive_part.dim == 1
        assert pres.nilpotent_part.dim == 1

        result = ado_representation(g)
        assert result.dim_v == 2
        rho1, rho2 = result.matrices
        assert rho2.power(2).is_zero()
        assert not rho2.is_zero()
        # the split generator acts by the monomial weight, which runs 0..1
        # at truncation 1, so the squarefree part of its minimal polynomial
        # is t(t-1)
        factors = [Polynomial((-w, 1)) for w in range(2)]
        expected = reduce(lambda a, b: a * b, factors)
        assert squarefree_part(minimal_polynomial(rho1)) == expected


def _check_split(d):
    dec = jc_decompose(d)
    assert dec.semisimple + dec.nilpotent == d
    assert dec.semisimple * dec.nilpotent == dec.nilpotent * dec.semisimple
    assert dec.nilpotent.power(d.nrows).is_zero()
    mp = minimal_polynomial(dec.semisimple)
    assert squarefree_part(mp) == mp
    assert dec.witness(d) == dec.semisimple
    return dec


def test_jordan_decomposition_suite(capsys):
    with criterion(capsys, 4, "jordan decomposition suite"):
        for name in CATALOG_CASES:
            g = catalog_algebra(name)
            for i in range(g.dim):
                _check_split(dense_ad(g, unit_vector(g.dim, i)))
        rng = random.Random(20260817)
        for trial in range(100):
            n = rng.randint(1, 6)
            if trial % 2:
                _check_split(seeded_matrix(rng, n, n, span=5))
            else:
                d, expected_s, eigenvalues = conjugated_jordan(rng, n)
                dec = _check_split(d)
                assert dec.semisimple == expected_s
                assert dec.semisimple == semisimple_from_eigenvalues(d, eigenvalues)


def _action_on_tail(algebra, row):
    # bracket of basis vector `row` against the tail basis, in tail coordinates
    dim = algebra.dim
    cols = [algebra.table[row][k][2:] for k in range(2, dim)]
    return Matrix.from_columns(cols, nrows=dim - 2)


def test_derivation_split_laws(capsys):
    with criterion(capsys, 5, "derivation split laws"):
        for name in CATALOG_CASES:
            g = catalog_algebra(name)
            for i in range(g.dim):
                d = dense_ad(g, unit_vector(g.dim, i))
                dec = jc_decompose(d)
                assert dense_leibniz_witness(g, dec.semisimple) is None
                assert dense_leibniz_witness(g, dec.nilpotent) is None
                ker = kernel(d)
                assert kernel(dec.semisimple).contains(ker)
                assert kernel(dec.nilpotent).contains(ker)
        # the splits the saturation itself performs.  An extend step's
        # parts are read off the extended table: the two new directions act
        # on the absorbed hyperplane by the semisimple and nilpotent parts.
        # An absorb step's are read on n, where the Jordan parts of ad x are
        # ad(x - y) and ad y for the inner correction y (zero unless the
        # record names one), and the semisimple part is zero when x joins n
        for name in STEPPING_CASES:
            pres = initial_presentation(catalog_algebra(name))
            while presentation_defect(pres):
                before = pres
                pres = expansion_step(pres)
                record = pres.trace[-1]
                if record["stage"] == "absorb":
                    _check_absorbed_split(before, record)
                    continue
                dim = pres.algebra.dim
                tail = [{k: 1} for k in range(2, dim)]
                inner, _ = pres.algebra.subalgebra_on_basis(tail)
                semi = _action_on_tail(pres.algebra, 0)
                nil = _action_on_tail(pres.algebra, 1)
                assert dense_leibniz_witness(inner, semi) is None
                assert dense_leibniz_witness(inner, nil) is None
                ker = kernel(semi + nil)
                assert kernel(semi).contains(ker)
                assert kernel(nil).contains(ker)


def _check_absorbed_split(before, record):
    q = before.algebra
    x = {k: Q(c) for k, c in enumerate(record["generator"])}
    y = {k: Q(c) for k, c in enumerate(record.get("inner", ["0"] * q.dim))}
    assert before.nilpotent_part.member(y)
    nil = list(before.nilpotent_part.span.rows.values())
    x_minus_y = {k: x[k] - y[k] for k in x}
    nalg, _, (ad_x, ad_semi, ad_nil) = q.subalgebra_and_derivations(nil, [x, x_minus_y, y])
    dec = _check_split(ad_x)
    assert dense_leibniz_witness(nalg, dec.semisimple) is None
    assert dense_leibniz_witness(nalg, dec.nilpotent) is None
    if record["joins"] == "reductive":
        assert (dec.semisimple, dec.nilpotent) == (ad_semi, ad_nil)
    else:
        assert dec.semisimple.is_zero()


def test_expansion_invariants(capsys):
    with criterion(capsys, 6, "expansion invariants"):
        for name in STEPPING_CASES:
            g = catalog_algebra(name)
            pres = initial_presentation(g)
            verify_presentation(pres, g)
            steps = 0
            while presentation_defect(pres):
                before = presentation_defect(pres)
                previous, previous_embed = pres.algebra, pres.embed_original
                pres = expansion_step(pres)
                verify_presentation(pres, g)
                assert presentation_defect(pres) == before - 1
                record = pres.trace[-1]
                if record["stage"] == "absorb":
                    # the algebra and the embedding stay as they are
                    assert pres.algebra is previous
                    assert pres.embed_original == previous_embed
                    steps += 1
                    continue
                step = Matrix([[Q(entry) for entry in row] for row in record["embedding"]])
                for i in range(previous.dim):
                    for j in range(i + 1, previous.dim):
                        lhs = step.apply(previous.table[i][j])
                        rhs = pres.algebra.bracket(step.column(i), step.column(j))
                        assert lhs == rhs, (name, i, j)
                image = Subspace.from_vectors(
                    pres.algebra.dim,
                    [step.apply(v) for v in previous.derived_subalgebra().basis],
                )
                assert pres.algebra.derived_subalgebra() == image, name
                steps += 1
            if name == "t3":
                assert steps == 3
        assert len(saturate(catalog_algebra("t3")).trace) == 4


# the catalog entries with a nonzero nilpotent ideal after saturation
NILPOTENT_CASES = (
    "heisenberg",
    "heisenberg5",
    "solv2",
    "jordan3",
    "rot3",
    "gl2",
    "t3",
    "abelian:3",
)


def test_truncation_ideal_against_word_oracle(capsys):
    with criterion(capsys, 7, "truncation ideal oracle"):
        g = catalog_algebra("heisenberg")
        for order in (2, 3, 5):
            built = build_module(g, order)
            # dimension from the generating function, light basis, and
            # left actions equal to the oracle's with heavy terms dropped
            assert module_disagreements(built) == [], order

            # the generators survive into the quotient independently
            gens = []
            for i in range(3):
                mono = tuple(1 if j == i else 0 for j in range(3))
                gens.append(unit_vector(built.module.dim, built.module.index[mono]))
            assert Subspace.from_vectors(built.module.dim, gens).dim == 3

        # on the nilpotent ideals of the catalog in seeded random bases, a
        # letter times a heavy monomial is heavy: the dropped monomials
        # span a left ideal, so dropping them is a module map
        for name in NILPOTENT_CASES:
            rng = random.Random(f"heavy-ideal:{name}")
            pres = saturate(seeded_change_of_basis(rng, catalog_algebra(name)))
            basis = adapted_basis(pres.algebra, pres.nilpotent_part)
            nalg, _ = pres.algebra.subalgebra_on_basis(basis)
            built = build_module(nalg)
            assert module_disagreements(built) == [], name
            order = built.module.truncation
            failures = heavy_insert_failures(nalg, oracle_weights(nalg), order, order + 1)
            assert failures == [], name


def _tamper(capsys, source, tampered_path, m_idx, r, c):
    data = json.loads(source.read_text())
    data["matrices"][m_idx][r][c] = str(Q(data["matrices"][m_idx][r][c]) + 1)
    tampered_path.write_text(json.dumps(data))
    code = main(["verify", str(tampered_path)])
    capsys.readouterr()
    return code


def test_negative_controls(tmp_path, capsys):
    with criterion(capsys, 8, "negative controls"):
        # the adjoint map of a nilpotent algebra keeps its centre in the kernel
        g = catalog_algebra("heisenberg")
        adjoint = tuple(dense_ad(g, unit_vector(3, i)) for i in range(3))
        report = verify_representation(g, adjoint, 3)
        assert report.homomorphism
        assert report.kernel_dimension == 1
        assert not report.faithful

        # tampering with any single entry of the sl2 output flips the verdict
        source = tmp_path / "sl2.json"
        code = main(["compute", "--catalog", "sl2", "-o", str(source)])
        capsys.readouterr()
        assert code == 0
        for m_idx in range(3):
            for r in range(4):
                for c in range(4):
                    exit_code = _tamper(capsys, source, tmp_path / "bad.json", m_idx, r, c)
                    assert exit_code == 3, (m_idx, r, c)

        # the same on a two-block output: either block is load bearing
        source = tmp_path / "gl2.json"
        code = main(["compute", "--catalog", "gl2", "-o", str(source)])
        capsys.readouterr()
        assert code == 0
        data = json.loads(source.read_text())
        dim_v = data["dim_v"]
        assert dim_v == 6
        # the coordinates that every sl2 image kills, as rows and columns:
        # a change of the central identity's image supported there commutes
        # with every image and keeps it nonzero, so it yields another
        # faithful representation, which verify must accept
        free = [
            i
            for i in range(dim_v)
            if all(m[i][k] == m[k][i] == "0" for m in data["matrices"][:3] for k in range(dim_v))
        ]
        assert free == [0, 1, 5]
        for m_idx in range(4):
            for r in range(dim_v):
                for c in range(dim_v):
                    expected = 0 if m_idx == 3 and r in free and c in free else 3
                    exit_code = _tamper(capsys, source, tmp_path / "bad.json", m_idx, r, c)
                    assert exit_code == expected, (m_idx, r, c)
