"""Span recorder for the traced benchmark run.

The package is not changed: `Tracer.install` wraps, from outside, every
public function of each layer module in every `ado` module namespace
that binds it (`pipeline` imports `build_module`, `solve` and others by
name; inside `linalg`, `rank`, `kernel` and `solve` reach `rref` through
the module globals), and the methods of the layer classes.  A span is
(name, parent, start, end), kept in flat arrays in memory; `write` dumps
them when the run ends and `summarize` turns one pass's spans into the
per-layer metrics.  A layer's self time is the time inside its spans
that no child span covers.

Per-entry helpers (rational parsing and formatting, vector arithmetic)
are not wrapped: a span costs more than their work, so their time stays
in the self time of the caller.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("envelope", "pipeline", "formats", "lie", "decompose", "expansion", "jordan", "linalg")
CLASSES = {
    "linalg": ("Matrix", "Subspace", "Polynomial"),
    "envelope": ("StraighteningEngine", "BuiltModule"),
    "lie": ("LieAlgebra",),
}
UNTRACED = {
    "to_q", "vec", "zero_vector", "unit_vector", "add_vec", "sub_vec", "scale_vec",
    "is_zero_vec", "format_rational", "parse_rational",
}
DUNDERS = {"__add__", "__sub__", "__mul__", "__rmul__", "__neg__", "__eq__",
           "__divmod__", "__floordiv__", "__mod__", "__call__"}
# the constructor is traced only where it is a layer's own work: the
# LieAlgebra constructor checks antisymmetry and the Jacobi identity
CONSTRUCTORS = {"LieAlgebra"}

ROOT_COMPUTE = "cli.compute"
ROOT_VERIFY = "cli.verify"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.rref_cells = 0
        self._restore: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        index = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(index)

    def _wrap(self, fn, name: str):
        nid = self.name_id(name)
        open_, close = self.open, self.close
        counts_cells = name == "linalg.rref"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counts_cells:
                self.rref_cells += args[0].nrows * args[0].ncols
            index = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(index)

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the layer functions and methods of the imported package."""
        namespaces = [m for n, m in sys.modules.items() if n == "ado" or n.startswith("ado.")]
        for layer in LAYERS:
            module = sys.modules[f"ado.{layer}"]
            for attr, fn in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or attr in UNTRACED
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                ):
                    continue
                wrapper = self._wrap(fn, f"{layer}.{attr}")
                for namespace in namespaces:
                    for bound, value in list(vars(namespace).items()):
                        if value is fn:
                            self._set(namespace, bound, wrapper)
            for cls_name in CLASSES.get(layer, ()):
                cls = getattr(module, cls_name)
                for attr, raw in list(vars(cls).items()):
                    if attr == "__init__":
                        if cls_name not in CONSTRUCTORS:
                            continue
                    elif attr.startswith("_") and attr not in DUNDERS:
                        continue
                    name = f"{layer}.{cls_name}.{attr}"
                    if isinstance(raw, classmethod):
                        self._set(cls, attr, classmethod(self._wrap(raw.__func__, name)))
                    elif inspect.isfunction(raw):
                        self._set(cls, attr, self._wrap(raw, name))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """Spans as tab-separated lines: index, parent, name, start, end."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("index\tparent\tname\tstart\tend\n")
            for i, (nid, parent, start, end) in enumerate(
                zip(self.name, self.parent, self.start, self.end)
            ):
                out.write(f"{i}\t{parent}\t{self.names[nid]}\t{start:.9f}\t{end:.9f}\n")

    def summarize(self) -> dict[str, float]:
        """Per-layer times and counts of the recorded spans."""
        layer_of = [name.split(".", 1)[0] for name in self.names]
        n = len(self.name)
        duration = [e - s for s, e in zip(self.start, self.end)]
        covered = [0.0] * n
        root = array("i", bytes(4 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += duration[i]
                root[i] = root[p]
            else:
                root[i] = i
        self_time: Counter = Counter()
        inclusive: Counter = Counter()
        calls: Counter = Counter()
        under_verify: Counter = Counter()
        verify_root = self._ids.get(ROOT_VERIFY)
        for i in range(n):
            nid = self.name[i]
            self_time[layer_of[nid]] += duration[i] - covered[i]
            inclusive[nid] += duration[i]
            calls[nid] += 1
            if self.name[root[i]] == verify_root:
                under_verify[nid] += duration[i]
        # straighten_word called straight from insert is an insert memo miss
        straighten = self._ids.get("envelope.StraighteningEngine.straighten_word")
        insert = self._ids.get("envelope.StraighteningEngine.insert")
        misses = sum(
            1
            for i in range(n)
            if self.name[i] == straighten and self.parent[i] >= 0
            and self.name[self.parent[i]] == insert
        )

        def seconds(*names: str, verify: bool | None = None) -> float:
            total = 0.0
            for name in names:
                nid = self._ids.get(name)
                if nid is None:
                    continue
                if verify is None:
                    total += inclusive[nid]
                elif verify:
                    total += under_verify[nid]
                else:
                    total += inclusive[nid] - under_verify[nid]
            return total

        def count(name: str) -> int:
            nid = self._ids.get(name)
            return 0 if nid is None else calls[nid]

        inserts = count("envelope.StraighteningEngine.insert")
        metrics = {
            "envelope.axioms_s": seconds("envelope.verify_module_axioms"),
            "envelope.left_action_s": seconds("envelope.BuiltModule.left_action"),
            "envelope.left_action_calls": count("envelope.BuiltModule.left_action"),
            "envelope.derivation_action_s": seconds("envelope.BuiltModule.derivation_action"),
            "envelope.build_module_s": seconds("envelope.build_module"),
            "envelope.straighten_s": seconds("envelope.StraighteningEngine.straighten_word"),
            "envelope.straighten_calls": count("envelope.StraighteningEngine.straighten_word"),
            "envelope.insert_calls": inserts,
            "envelope.insert_memo_hit_ratio": 1 - misses / inserts if inserts else 1.0,
            "pipeline.verify_in_compute_s": seconds("pipeline.verify_representation", verify=False),
            "pipeline.verify_in_verify_s": seconds("pipeline.verify_representation", verify=True),
            "pipeline.reductive_rep_s": seconds("pipeline.reductive_representation"),
            "formats.write_s": seconds(
                "formats.representation_to_json", "formats.canonical_dumps", verify=False
            ),
            "formats.read_s": seconds(
                "formats.load_json", "formats.representation_from_json", verify=True
            ),
            "lie.validate_s": seconds("lie.LieAlgebra.__init__"),
            "lie.algebras_built": count("lie.LieAlgebra.__init__"),
            "lie.subalgebra_s": seconds("lie.LieAlgebra.subalgebra_on_basis"),
            "lie.subalgebra_calls": count("lie.LieAlgebra.subalgebra_on_basis"),
            "decompose.levi_s": seconds("decompose.levi_decomposition"),
            "decompose.reductive_split_s": seconds("decompose.reductive_split"),
            "expansion.saturate_s": seconds("expansion.saturate"),
            "expansion.verify_presentation_s": seconds("expansion.verify_presentation"),
            "jordan.split_s": seconds("jordan.jc_decompose_derivation"),
            "jordan.split_calls": count("jordan.jc_decompose_derivation"),
            "linalg.rref_s": seconds("linalg.rref"),
            "linalg.rref_calls": count("linalg.rref"),
            "linalg.rref_cells": self.rref_cells,
            "linalg.matmul_s": seconds("linalg.Matrix.__mul__"),
            "linalg.matmul_calls": count("linalg.Matrix.__mul__"),
            "linalg.dense_add_s": seconds(
                "linalg.Matrix.__add__", "linalg.Matrix.__sub__", "linalg.Matrix.scale"
            ),
            "trace.spans": n,
            "trace.compute_s": sum(
                duration[i]
                for i in range(n)
                if self.parent[i] < 0 and self.name[i] != verify_root
            ),
        }
        for layer in ("cli",) + LAYERS:
            metrics[f"{layer}.self_s"] = self_time[layer]
        return metrics
