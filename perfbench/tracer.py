"""Span tracer for the traced benchmark pass, installed by attribute replacement.

`Tracer.installed()` wraps the public functions and public methods of each
measured hyperlift module, so every call records a span: name, start, end,
parent span and root span. Root spans are opened by the benchmark itself, one
per set-up, training step, `evaluate` call or `predict_answer` call, so the
spans of one step or item share its root. Spans stay in memory and are written
out once, when the run ends.

Autograd ops get two spans: the forward call, and the backward closure of the
node the op built (`autograd.<op>.bwd`), which the tracer wraps on the node.
Counters are taken at the same boundaries as the spans and only inside roots
that are measured (not set-up, not warm-up).

A span's self time is its duration minus the durations of its direct
children; children always lie inside their parent, because spans nest on a
stack. A root's self time is time no module span covers.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

from hyperlift.autograd import Tensor

MODULES = ("data", "training", "encoders", "peft", "manifold", "objectives",
           "autograd", "evaluation", "checkpoint")

# Public callables of those modules that get no span, and why.
UNWRAPPED = {
    "autograd.as_tensor": "returns Tensors unchanged and runs on every operand; a span costs more than the call",
    "autograd.no_grad": "context manager; the spans of its body nest under the caller",
    "autograd.grad_enabled": "flag read",
    "autograd.Tensor.item": "accessor",
    "autograd.Tensor.numpy": "accessor",
    "autograd.Tensor.detach": "accessor",
    "autograd.Tensor.zero_grad": "accessor",
    "autograd.Tensor.sum": "operator sugar for the traced tsum",
    "autograd.Tensor.mean": "operator sugar for the traced tmean",
    "autograd.Tensor.reshape": "operator sugar for the traced reshape",
    "autograd.Tensor.transpose": "operator sugar for the traced transpose",
    "training.adapt": "the training loop; each of its steps is a root span",
    "training.pretrain_euclidean": "the training loop; each of its steps is a root span",
    "training.MetricsLog.emit": "marks step ends for the benchmark's step clock",
}

OPS = ("matmul", "add", "mul", "layer_normalize", "gelu", "softmax", "log_softmax",
       "embedding_lookup", "getitem", "acosh", "concat")

# Per-layer metrics that are the inclusive time of named calls, per work unit.
INCLUSIVE_MS = {
    "autograd.backward_ms": ("autograd.Tensor.backward",),
    "encoders.encode_text_ms": ("encoders.DualEncoder.encode_text",),
    "encoders.encode_image_ms": ("encoders.DualEncoder.encode_image",),
    "peft.sublayer_ms": ("peft.Adaptation.apply_sublayer",),
    "peft.effective_weight_ms": ("peft.Adaptation.effective_weight",),
    "manifold.lift_ms": ("manifold.lift",),
    "manifold.distance_ms": ("manifold.pairwise_geodesic_distance", "manifold.geodesic_distance"),
    "manifold.cone_ms": ("manifold.exterior_angle", "manifold.half_aperture"),
    "objectives.hcc_ms": ("objectives.contrastive_hcc",),
    "objectives.hce_ms": ("objectives.entailment_hce",),
    "training.gather_ms": ("training.CorpusBatcher.gather",),
    "training.clip_ms": ("training.AdamW.clip_gradients",),
    "training.optimizer_ms": ("training.AdamW.step",),
    "data.pad_batch_ms": ("data.Tokenizer.pad_batch",),
}

# Per-layer metrics of the set-up phase, per set-up.
SETUP_METRICS = {
    "data.generate_s": (("data.generate_corpus", "data.generate_vqa"), 1.0),
    "checkpoint.save_ms": (("checkpoint.save_euclidean", "checkpoint.save_adapted"), 1e3),
    "checkpoint.load_ms": (("checkpoint.load_euclidean", "checkpoint.load_adapted"), 1e3),
}


def _grad_relevant(t) -> bool:
    """Whether autograd keeps a gradient for `t`: trainable, or inside the graph."""
    return bool(t.requires_grad or t._parents)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # One entry per span, in opening order.
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_root: list[int] = []
        self.span_t0: list[float] = []
        self.span_t1: list[float] = []
        self.roots: list[tuple] = []          # (span index, kind, item id, measured)
        self.counts = defaultdict(float)      # counter -> total over measured roots
        self._stack: list[int] = []
        self._root = -1
        self._measured = False
        self._bwd_madds: list[int] = []       # per open backward: madds of one dropped matmul gradient
        self._distinct_queries: set[bytes] = set()

    # -- spans ----------------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.span_t0)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_root.append(self._root)
        self.span_t1.append(0.0)
        self._stack.append(idx)
        self.span_t0.append(time.perf_counter())
        return idx

    def _close(self, idx: int):
        self.span_t1[idx] = time.perf_counter()
        self._stack.pop()

    def begin_root(self, kind: str, item: int, measured: bool = True):
        if self._root >= 0:
            raise RuntimeError("a root span is already open")
        self._root = idx = len(self.span_t0)
        self._measured = measured
        self.roots.append((idx, kind, item, measured))
        self._open(self._intern(f"root.{kind}"))
        self.span_root[idx] = idx

    def end_root(self):
        if self._stack != [self._root]:
            raise RuntimeError("root span closed with child spans still open")
        self._close(self._root)
        self._root = -1
        self._measured = False

    def in_root(self) -> bool:
        return self._root >= 0

    def _count(self, name: str, value: float):
        if self._measured:
            self.counts[name] += value

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, fn, name: str, op: str | None = None, on_call=None):
        tracer, name_id = self, self._intern(name)

        def traced(*args, **kwargs):
            if on_call is not None and tracer._measured:
                on_call(args, kwargs)
            idx = tracer._open(name_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if op is not None:
                tracer._wrap_backward(out, op)
            return out

        return traced

    def _wrap_backward(self, node, op: str):
        if not isinstance(node, Tensor):
            return
        orig = node._backward
        if orig is None or getattr(orig, "traced", False):
            return  # untracked result, or a node an inner op already wrapped
        self._count("autograd.graph_nodes", 1)
        tracer, name_id = self, self._intern(f"autograd.{op}.bwd")
        parents = node._parents
        # A gradient GEMM costs out.size * contraction multiply-adds, either side.
        madds = node.data.size * parents[0].data.shape[-1] if op == "matmul" else 0

        def backward(g):
            idx = tracer._open(name_id)
            tracer._bwd_madds.append(madds)
            try:
                orig(g)
            finally:
                tracer._bwd_madds.pop()
                tracer._close(idx)

        backward.traced = True
        node._backward = backward

    def _accum_hook(self, orig):
        """Count gradient elements where an op's backward hands them to an
        input: kept if the input is trainable or inside the graph, dropped
        otherwise. Work a change stops doing stops being counted."""
        tracer = self

        def accum(t, g):
            if tracer._measured:
                n = t.data.size
                if _grad_relevant(t):
                    tracer.counts["autograd.grad_kept_elems"] += n
                else:
                    tracer.counts["autograd.frozen_grad_elems"] += n
                    if tracer._bwd_madds:
                        tracer.counts["autograd.matmul.frozen_bwd_madds"] += tracer._bwd_madds[-1]
            return orig(t, g)

        return accum

    def _under_evaluation(self) -> bool:
        return any(self.names[self.span_name[i]].startswith("evaluation.") for i in self._stack)

    def _count_text(self, sig):
        def on_call(args, kwargs):
            bound = sig.bind(*args, **kwargs)
            tokens = np.asarray(bound.arguments["tokens"])
            if tokens.ndim == 1:
                tokens = tokens[None, :]
            lengths = bound.arguments.get("lengths")
            lengths = (tokens != 0).sum(axis=1) if lengths is None else np.asarray(lengths)
            rows = np.concatenate([tokens, lengths.reshape(-1, 1)], axis=1)
            self._count_rows(rows)
            self._count("encoders.real_tokens", float(lengths.sum()))
            self._count("encoders.padded_positions", float(tokens.size))
            if self._under_evaluation():
                self._count("evaluation.queries_encoded", len(rows))
                self._distinct_queries.update(r.tobytes() for r in rows)
        return on_call

    def _count_images(self, sig):
        def on_call(args, kwargs):
            images = np.asarray(sig.bind(*args, **kwargs).arguments["images"])
            if images.ndim == 2:
                images = images[None]
            self._count_rows(images.reshape(images.shape[0], -1))
        return on_call

    def _count_rows(self, rows: np.ndarray):
        self._count("encoders.rows_encoded", len(rows))
        self._count("encoders.distinct_rows", len({r.tobytes() for r in rows}))

    @contextlib.contextmanager
    def installed(self):
        """Replace every public callable of the measured modules by its traced
        wrapper, wherever a hyperlift module binds it; restore on exit."""
        mods = {m: importlib.import_module(f"hyperlift.{m}") for m in MODULES}
        counters = {
            "encoders.DualEncoder.encode_text": self._count_text,
            "encoders.DualEncoder.encode_image": self._count_images,
        }
        undo = []
        functions = {}  # id(original) -> (original, wrapper)
        for mname, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                qual = f"{mname}.{attr}"
                if attr.startswith("_") or qual in UNWRAPPED or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    op = attr if mname == "autograd" else None
                    functions[id(obj)] = (obj, self._wrap(obj, qual, op=op))
                elif inspect.isclass(obj):
                    for mattr, meth in list(vars(obj).items()):
                        mqual = f"{qual}.{mattr}"
                        if mattr.startswith("_") or mqual in UNWRAPPED or not inspect.isfunction(meth):
                            continue
                        counter = counters.get(mqual)
                        on_call = counter(inspect.signature(meth)) if counter else None
                        undo.append((obj, mattr, meth))
                        setattr(obj, mattr, self._wrap(meth, mqual, on_call=on_call))
        for name, mod in list(sys.modules.items()):
            if name != "hyperlift" and not name.startswith("hyperlift."):
                continue
            for key, val in list(vars(mod).items()):
                entry = functions.get(id(val))
                if entry is not None and entry[0] is val:
                    undo.append((mod, key, val))
                    setattr(mod, key, entry[1])
        ag = mods["autograd"]
        undo.append((ag, "_accum", ag._accum))
        ag._accum = self._accum_hook(ag._accum)
        try:
            yield self
        finally:
            for owner, key, val in reversed(undo):
                setattr(owner, key, val)

    # -- results --------------------------------------------------------------

    def _arrays(self):
        name = np.asarray(self.span_name, dtype=np.int64)
        parent = np.asarray(self.span_parent, dtype=np.int64)
        root = np.asarray(self.span_root, dtype=np.int64)
        dur = np.asarray(self.span_t1) - np.asarray(self.span_t0)
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=len(dur))
        return name, root, dur, dur - child

    def per_layer(self, kinds: tuple, units: int) -> dict:
        """Per-layer metrics: name -> (value, unit). Times are per work unit
        (a training step, or a scored VQA item) over measured roots; set-up
        metrics are per set-up."""
        name, root, dur, self_t = self._arrays()
        measured = np.array([r[0] for r in self.roots if r[3] and r[1] in kinds], dtype=np.int64)
        setups = np.array([r[0] for r in self.roots if r[1] == "setup"], dtype=np.int64)
        in_measured = np.isin(root, measured) & ~np.isin(np.arange(len(root)), measured)
        in_setup = np.isin(root, setups)
        ids = {n: i for i, n in enumerate(self.names)}

        def mask_of(names, within):
            return within & np.isin(name, [ids[n] for n in names if n in ids])

        def per_unit_ms(values):
            return 1e3 * float(values.sum()) / units

        out = {}
        for op in OPS:
            out[f"autograd.{op}.fwd_ms"] = (per_unit_ms(self_t[mask_of([f"autograd.{op}"], in_measured)]), "ms")
            out[f"autograd.{op}.bwd_ms"] = (per_unit_ms(self_t[mask_of([f"autograd.{op}.bwd"], in_measured)]), "ms")
            out[f"autograd.{op}.calls"] = (int(mask_of([f"autograd.{op}"], in_measured).sum()) / units, "count")
        for metric, names in INCLUSIVE_MS.items():
            out[metric] = (per_unit_ms(dur[mask_of(names, in_measured)]), "ms")
        for metric, (names, scale) in SETUP_METRICS.items():
            out[metric] = (scale * float(dur[mask_of(names, in_setup)].sum()) / max(1, len(setups)), metric.rsplit("_", 1)[1])
        predict = mask_of(["evaluation.predict_answer"], in_measured)
        out["evaluation.predict_ms"] = (1e3 * float(dur[predict].mean()) if predict.any() else 0.0, "ms")

        c = self.counts
        grad_total = c["autograd.grad_kept_elems"] + c["autograd.frozen_grad_elems"]
        out["autograd.graph_nodes"] = (c["autograd.graph_nodes"] / units, "count")
        out["autograd.frozen_grad_elems"] = (c["autograd.frozen_grad_elems"] / units, "count")
        out["autograd.grad_useful_frac"] = (c["autograd.grad_kept_elems"] / grad_total if grad_total else 1.0, "fraction")
        out["autograd.matmul.frozen_bwd_madds"] = (c["autograd.matmul.frozen_bwd_madds"] / units, "count")
        out["encoders.rows_encoded"] = (c["encoders.rows_encoded"] / units, "count")
        out["encoders.distinct_row_frac"] = (_ratio(c["encoders.distinct_rows"], c["encoders.rows_encoded"]), "fraction")
        out["encoders.token_fill_frac"] = (_ratio(c["encoders.real_tokens"], c["encoders.padded_positions"]), "fraction")
        out["evaluation.queries_encoded"] = (c["evaluation.queries_encoded"] / units, "count")
        out["evaluation.distinct_query_frac"] = (_ratio(len(self._distinct_queries), c["evaluation.queries_encoded"]), "fraction")

        module_of = np.array([n.split(".")[0] for n in self.names])[name] if len(name) else np.array([])
        for module in MODULES:
            out[f"self.{module}_ms"] = (per_unit_ms(self_t[in_measured & (module_of == module)]), "ms")
        out["self.unattributed_ms"] = (per_unit_ms(self_t[measured]), "ms")
        coverage = 1.0 - self_t[measured] / dur[measured]
        out["trace.coverage_min"] = (float(coverage.min()) if len(coverage) else 0.0, "fraction")
        out["trace.spans_per_unit"] = (float(in_measured.sum()) / units, "count")
        return out

    def write(self, path):
        """Write every span: name table, then per span its name id, parent,
        root, start and end (perf_counter seconds)."""
        np.savez_compressed(
            path,
            names=np.frombuffer(json.dumps(self.names).encode(), dtype=np.uint8),
            roots=np.frombuffer(json.dumps(self.roots).encode(), dtype=np.uint8),
            name=np.asarray(self.span_name, dtype=np.int32),
            parent=np.asarray(self.span_parent, dtype=np.int32),
            root=np.asarray(self.span_root, dtype=np.int32),
            t0=np.asarray(self.span_t0),
            t1=np.asarray(self.span_t1),
        )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
