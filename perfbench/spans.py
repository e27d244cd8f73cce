"""Opt-in timing wrappers around gdakit's public functions, for the traced run.

`Tracer.install` replaces each hooked function with a wrapper that records
one span (name, start, end, parent, run id) per call. The modules import
each other with `from .x import y`, so the wrapper is installed on every
gdakit module attribute that holds the original function: that is the name
the caller looks up. `ad.<op>` calls look up through `gdakit.autodiff`.
Spans stay in memory until `write` and the wrappers come off in `uninstall`.

Module spans report self time: a span's duration minus the part its child
spans cover. Trainer phase spans wrap the module spans they contain and
report inclusive time.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from collections import defaultdict

AUTODIFF_OPS = (
    "matmul", "spmm", "neighbor_max", "exp", "scale", "mul", "add", "sub",
    "add_colvec", "add_rowvec", "transpose", "reduce_sum", "reduce_mean", "relu",
    "dropout", "pair_dots", "bce_with_logits", "row_softmax", "row_log_softmax",
    "masked_row_logsumexp", "xlogx", "gather_labels", "vstack", "grad_reverse",
    "mul_colvec", "powc",
)

# (defining module, function, span name); the span name is also the prefix
# of the layer metrics it feeds
FUNCTION_HOOKS = (
    [("gdakit.autodiff", op, f"autodiff.{op}") for op in AUTODIFF_OPS] + [
        ("gdakit.sparse", "from_coo", "sparse.from_coo"),
        ("gdakit.graph", "load_graph", "graph.load_graph"),
        ("gdakit.graph", "save_graph", "graph.save_graph"),
        ("gdakit.graph", "normalize_gcn", "graph.normalize_gcn"),
        ("gdakit.graph", "normalize_row", "graph.normalize_row"),
        ("gdakit.graph", "with_self_loops", "graph.with_self_loops"),
        ("gdakit.encoders", "encode", "encoders.encode"),
        ("gdakit.encoders", "predict_logits", "encoders.predict_logits"),
        ("gdakit.align", "median_bandwidth", "align.median_bandwidth"),
        ("gdakit.align", "mmd_loss", "align.mmd_loss"),
        ("gdakit.align", "mmd_value", "align.mmd_value"),
        ("gdakit.align", "adversarial_loss", "align.adversarial_loss"),
        ("gdakit.unsup", "im_loss", "unsup.im_loss"),
        ("gdakit.unsup", "ae_loss", "unsup.ae_loss"),
        ("gdakit.unsup", "sample_negative_pairs", "unsup.sample_negative_pairs"),
        ("gdakit.unsup", "cl_loss", "unsup.cl_loss"),
        ("gdakit.unsup", "nt_xent", "unsup.nt_xent"),
        ("gdakit.unsup", "augment_mask", "unsup.augment_mask"),
        ("gdakit.shift", "feature_shift", "shift.feature_shift"),
        ("gdakit.shift", "structure_shift", "shift.structure_shift"),
        ("gdakit.shift", "label_shift", "shift.label_shift"),
        ("gdakit.shift", "edge_homophily", "shift.homophily"),
        ("gdakit.shift", "shift_report", "shift.shift_report"),
        ("gdakit.metrics", "micro_f1", "metrics.eval"),
        ("gdakit.metrics", "macro_f1", "metrics.eval"),
        ("gdakit.metrics", "auroc", "metrics.eval"),
        ("gdakit.snapshot", "save_model", "snapshot.save_model"),
        ("gdakit.trainer", "train", "trainer.train"),
    ])

# (defining module, class, method, span name)
METHOD_HOOKS = (
    ("gdakit.sparse", "CsrMatrix", "__init__", "sparse.csr_init"),
    ("gdakit.graph", "SparseGraph", "__init__", "graph.sparse_graph_init"),
    ("gdakit.graph", "DomainPair", "make", "graph.domain_pair_make"),
    ("gdakit.autodiff", "Tape", "backward", "autodiff.backward"),
)

# Names trainer.py looks up, wrapped once more as inclusive phase spans.
TRAINER_PHASES = (
    ("classify", "trainer.head"),
    ("cross_entropy_loss", "trainer.head"),
    ("mmd_gammas", "trainer.align"),
    ("mmd_loss", "trainer.align"),
    ("adversarial_loss", "trainer.align"),
    ("im_loss", "trainer.unsup"),
    ("ae_loss", "trainer.unsup"),
    ("cl_loss", "trainer.unsup"),
    ("sgd_step", "trainer.step"),
    ("evaluate", "trainer.eval"),
)

GDAKIT_MODULES = ("gdakit", "gdakit.autodiff", "gdakit.sparse", "gdakit.graph",
                  "gdakit.csbm", "gdakit.encoders", "gdakit.align", "gdakit.unsup",
                  "gdakit.shift", "gdakit.metrics", "gdakit.snapshot",
                  "gdakit.trainer", "gdakit.config", "gdakit.cli")


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, read from its last name component."""
    last = metric.rsplit(".", 1)[-1]
    for part, unit in (("_ms", "ms"), ("_pct", "%"), ("_bytes", "bytes")):
        if part in last:
            return unit
    return "count"


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        # one list per span: [name, start, end, parent index or -1, run id]
        self.spans: list[list] = []
        self.run_id = 0
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, fn, name):
        """fn with a span around each call. `name` is a string or a function
        of the call's arguments returning one."""
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args)
            rec = [label, clock(), 0.0, open_[-1] if open_ else -1, self.run_id]
            open_.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                open_.pop()

        return traced

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        modules = [importlib.import_module(m) for m in GDAKIT_MODULES]
        for mod_name, attr, span in FUNCTION_HOOKS:
            original = getattr(importlib.import_module(mod_name), attr)
            wrapped = self.wrap(original, span)
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    self._set(mod, attr, wrapped)
        for mod_name, cls_name, attr, span in METHOD_HOOKS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            static = vars(cls)[attr]
            if isinstance(static, staticmethod):
                self._set(cls, attr, staticmethod(self.wrap(static.__func__, span)))
            else:
                self._set(cls, attr, self.wrap(static, span))
        trainer = importlib.import_module("gdakit.trainer")
        for attr, span in TRAINER_PHASES:
            self._set(trainer, attr, self.wrap(getattr(trainer, attr), span))
        # the trainer encodes the source (fully labeled) and the target (its
        # labels held out, so all -1) through the same name
        self._set(trainer, "encode", self.wrap(
            trainer.encode,
            lambda args: "trainer.src_encode" if args[1].labels[0] >= 0
            else "trainer.tgt_encode"))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals over every recorded span (times in ms)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_ms: dict[str, float] = defaultdict(float)
        incl_ms: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        step_ends: dict[int, list[float]] = defaultdict(list)
        for i, (name, start, end, _, run) in enumerate(self.spans):
            self_ms[name] += 1000.0 * (end - start - child[i])
            incl_ms[name] += 1000.0 * (end - start)
            calls[name] += 1
            if name == "trainer.step":
                step_ends[run].append(end)
        epochs = [1000.0 * (b - a) for ends in step_ends.values()
                  for a, b in zip(ends, ends[1:])]
        p90 = statistics.quantiles(epochs, n=10)[-1] if len(epochs) >= 2 else 0.0

        out: dict[str, float] = {}
        for p in ("src_encode", "tgt_encode", "head", "align", "unsup", "step", "eval"):
            out[f"trainer.{p}_ms"] = incl_ms[f"trainer.{p}"]
        out["trainer.epochs"] = calls["trainer.step"]
        out["trainer.epoch_ms_p50"] = statistics.median(epochs) if epochs else 0.0
        out["trainer.epoch_ms_p90"] = p90
        out["trainer.epoch_samples"] = len(epochs)
        for op in AUTODIFF_OPS:
            out[f"autodiff.{op}.fwd_ms"] = self_ms[f"autodiff.{op}"]
            out[f"autodiff.{op}.calls"] = calls[f"autodiff.{op}"]
        out["autodiff.backward_ms"] = self_ms["autodiff.backward"]
        for span in ("sparse.from_coo", "sparse.csr_init", "graph.sparse_graph_init",
                     "graph.normalize_gcn", "graph.normalize_row", "encoders.encode"):
            out[f"{span}_ms"] = self_ms[span]
            out[f"{span}_calls"] = calls[span]
        out["graph.with_self_loops_calls"] = calls["graph.with_self_loops"]
        for span in ("graph.load_graph", "graph.save_graph", "graph.domain_pair_make",
                     "encoders.predict_logits", "align.median_bandwidth",
                     "align.mmd_loss", "align.mmd_value", "align.adversarial_loss",
                     "unsup.im_loss", "unsup.ae_loss", "unsup.sample_negative_pairs",
                     "unsup.cl_loss", "unsup.nt_xent", "unsup.augment_mask",
                     "shift.feature_shift", "shift.structure_shift", "shift.label_shift",
                     "shift.homophily", "metrics.eval", "snapshot.save_model"):
            out[f"{span}_ms"] = self_ms[span]
        return out
