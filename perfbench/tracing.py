"""Outside-in instrumentation of the mtvqa layers.

Nothing under ``src/`` knows about the benchmark.  ``Patch`` swaps a public
function for a wrapper in every loaded ``mtvqa`` module that holds it (and
swaps a method on its class), so calls made from inside the package are
seen too; ``undo`` puts the originals back.

``Tracer`` records one span per wrapped call: name, start, end and the id of
the enclosing span, in column arrays kept in memory.  Per-layer figures are
derived from the spans afterwards: a span's self time is its duration minus
the durations of its direct children (spans nest strictly, since the
package is single-threaded).
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

_clock = time.perf_counter

# public names of mtvqa.autodiff that are not graph operators; every other
# public function there is traced as an op, so the op list follows __all__
NON_OPS = frozenset({"parameter", "zero_grads", "check_gradients",
                     "load_checkpoint", "save_checkpoint"})


def public_ops(autodiff):
    return sorted(n for n in autodiff.__all__
                  if n not in NON_OPS and inspect.isfunction(getattr(autodiff, n)))


class Patch:
    """Replace functions and methods of the loaded mtvqa package, reversibly."""

    def __init__(self):
        self._undo = []
        self._where = defaultdict(list)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "mtvqa" or name.startswith("mtvqa.")):
                continue
            for attr, val in vars(mod).items():
                if callable(val):
                    self._where[id(val)].append((mod, attr))

    def function(self, fn, wrapper):
        """Point every module attribute bound to `fn` at `wrapper`."""
        for mod, attr in self._where[id(fn)]:
            self._undo.append((mod, attr, fn))
            setattr(mod, attr, wrapper)

    def method(self, cls, attr, make_wrapper):
        orig = cls.__dict__[attr]
        self._undo.append((cls, attr, orig))
        setattr(cls, attr, make_wrapper(orig))

    def undo(self):
        while self._undo:
            obj, attr, old = self._undo.pop()
            setattr(obj, attr, old)


class Spans:
    """Span columns: name id, start, end, parent span id (-1 at the root)."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid):
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(_clock())
        return i

    def close(self, i):
        self.end[i] = _clock()
        self._stack.pop()

    def duration(self, i):
        return self.end[i] - self.start[i]

    def columns(self):
        return (np.frombuffer(self.name, dtype=np.int32).copy(),
                np.frombuffer(self.start, dtype=np.float64).copy(),
                np.frombuffer(self.end, dtype=np.float64).copy(),
                np.frombuffer(self.parent, dtype=np.int32).copy())

    def summary(self):
        """{span name: (calls, total seconds, self seconds)}."""
        name, start, end, parent = self.columns()
        if name.size == 0:
            return {}
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=name.size)
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=self_time, minlength=k)
        return {n: (int(calls[j]), float(total[j]), float(own[j]))
                for j, n in enumerate(self.names) if calls[j]}


class _TimedBackward:
    """A node's backward closure, timed as a span of its op."""

    __slots__ = ("fn", "nid", "spans")

    def __init__(self, fn, nid, spans):
        self.fn, self.nid, self.spans = fn, nid, spans

    def __call__(self):
        i = self.spans.open(self.nid)
        try:
            self.fn()
        finally:
            self.spans.close(i)


class _TrainCall:
    __slots__ = ("rows", "train_rows", "infer_rows")

    def __init__(self, rows):
        self.rows, self.train_rows, self.infer_rows = rows, 0, 0


class Tracer:
    """Spans and counters at each layer boundary of one traced pass.

    A model forward counts as a training forward when the next
    ``Tensor.backward`` call follows it; every other forward is an
    inference forward.  Graph nodes are the non-leaf tensors the ops
    return.
    """

    def __init__(self, mtvqa):
        self.m = mtvqa
        self.spans = Spans()
        self.ops = public_ops(mtvqa.autodiff)
        self.counts = defaultdict(int)
        self.nodes = 0
        self.step_nodes = 0
        self.train_steps = 0
        self.forwards = []          # (span id, inside harness.train)
        self.train_forwards = set()
        self._last_forward = None
        self._train_calls = []
        self.val_rows = 0           # inference rows run inside harness.train
        self.val_rows_per_pass = 0  # validation rows x epochs
        self._patch = None

    # -- installation -------------------------------------------------------

    def install(self):
        m = self.m
        p = self._patch = Patch()
        span = self._span
        p.function(m.corpus.gen_synthetic_corpus,
                   span(m.corpus.gen_synthetic_corpus, "corpus.gen_synthetic"))
        p.function(m.corpus.group_by_image, span(m.corpus.group_by_image, "corpus.reformat"))
        for fn in (m.corpus.reformat_multitask, m.corpus.flatten_single_task,
                   m.corpus.isolate_slots):
            p.function(fn, span(fn, "corpus.reformat", count="corpus.examples"))
        for fn in (m.textenc.random_embeddings, m.textenc.load_embeddings):
            p.function(fn, span(fn, "textenc.embeddings"))
        p.function(m.textenc.encode, span(m.textenc.encode, "textenc.encode"))
        for fn in (m.datasets.encode_multitask, m.datasets.encode_single):
            p.function(fn, span(fn, "datasets.encode", count="datasets.rows"))
        p.function(m.models.build_model, span(m.models.build_model, "models.build"))
        p.function(m.models.load_model, span(m.models.load_model, "models.load"))
        p.function(m.autodiff.save_checkpoint,
                   span(m.autodiff.save_checkpoint, "autodiff.checkpoint.save"))
        p.function(m.autodiff.load_checkpoint, self._load_checkpoint(m.autodiff.load_checkpoint))
        p.function(m.harness.train, self._train(m.harness.train))
        p.function(m.harness.evaluate, span(m.harness.evaluate, "harness.evaluate"))
        p.function(m.harness.prediction_logits,
                   span(m.harness.prediction_logits, "harness.prediction_logits"))
        p.function(m.reports.write_experiment_reports,
                   span(m.reports.write_experiment_reports, "reports.write"))
        for op in self.ops:
            fn = getattr(m.autodiff, op)
            p.function(fn, self._op(fn, op))
        p.method(m.models.Model, "forward", self._forward)
        p.method(m.autodiff.Tensor, "backward", self._backward)
        p.method(m.autodiff.Nadam, "step", lambda f: span(f, "autodiff.optim.nadam_step"))
        p.method(m.autodiff.SgdMomentum, "step", lambda f: span(f, "autodiff.optim.sgd_step"))

    def uninstall(self):
        if self._patch is not None:
            self._patch.undo()
            self._patch = None

    # -- wrappers -----------------------------------------------------------

    def _span(self, fn, name, count=None):
        spans, nid, counts = self.spans, self.spans.name_id(name), self.counts

        def wrapped(*args, **kwargs):
            i = spans.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                spans.close(i)
            if count is not None:
                counts[count] += len(out)
            return out

        return wrapped

    def _op(self, fn, op):
        spans = self.spans
        fwd = spans.name_id(f"autodiff.{op}.fwd")
        bwd = spans.name_id(f"autodiff.{op}.bwd")
        tensor = self.m.autodiff.Tensor

        def mark(t):
            # the innermost op that made a node owns its backward closure
            if type(t) is tensor and t._backward is not None \
                    and type(t._backward) is not _TimedBackward:
                t._backward = _TimedBackward(t._backward, bwd, spans)
                self.nodes += 1

        def wrapped(*args, **kwargs):
            i = spans.open(fwd)
            try:
                out = fn(*args, **kwargs)
            finally:
                spans.close(i)
            if type(out) in (list, tuple):
                for t in out:
                    mark(t)
            else:
                mark(out)
            return out

        return wrapped

    def _forward(self, orig):
        spans, nid = self.spans, self.spans.name_id("models.forward")

        def forward(model, images, ids):
            call = self._train_calls[-1] if self._train_calls else None
            rows = len(images)
            if call is not None:
                call.infer_rows += rows
            i = spans.open(nid)
            self.forwards.append((i, call is not None))
            self._last_forward = (i, self.nodes, rows, call)
            try:
                return orig(model, images, ids)
            finally:
                spans.close(i)

        return forward

    def _backward(self, orig):
        spans, nid = self.spans, self.spans.name_id("autodiff.backward")

        def backward(tensor):
            if self._last_forward is not None:
                i, nodes0, rows, call = self._last_forward
                self._last_forward = None
                self.train_forwards.add(i)
                if call is not None:
                    call.train_rows += rows
                    call.infer_rows -= rows
                    self.step_nodes += self.nodes - nodes0
                    self.train_steps += 1
            j = spans.open(nid)
            try:
                return orig(tensor)
            finally:
                spans.close(j)

        return backward

    def _train(self, orig):
        spans, nid = self.spans, self.spans.name_id("harness.train")

        def train(model, data, cfg):
            call = _TrainCall(len(data))
            self._train_calls.append(call)
            i = spans.open(nid)
            try:
                out = orig(model, data, cfg)
            finally:
                spans.close(i)
                self._train_calls.pop()
            epochs = len(out[1].records)
            self.counts["harness.epochs"] += epochs
            self.val_rows += call.infer_rows
            self.val_rows_per_pass += epochs * call.rows - call.train_rows
            return out

        return train

    def _load_checkpoint(self, orig):
        spans = self.spans
        text = spans.name_id("autodiff.checkpoint.load_text")
        binary = spans.name_id("autodiff.checkpoint.load_binary")

        def load_checkpoint(path):
            i = spans.open(binary if str(path).endswith(".npz") else text)
            try:
                return orig(path)
            finally:
                spans.close(i)

        return load_checkpoint

    # -- derived figures ----------------------------------------------------

    def layer_metrics(self):
        """Per-layer figures of this pass, keyed by metric name."""
        s = self.spans.summary()

        def total(name):
            return s.get(name, (0, 0.0, 0.0))[1]

        out = {
            "corpus.gen_synthetic_s": total("corpus.gen_synthetic"),
            "corpus.reformat_s": total("corpus.reformat"),
            "corpus.examples": self.counts["corpus.examples"],
            "textenc.embeddings_s": total("textenc.embeddings"),
            "textenc.encode_calls": s.get("textenc.encode", (0,))[0],
            "datasets.encode_s": total("datasets.encode"),
            "datasets.rows": self.counts["datasets.rows"],
            "models.build_s": total("models.build"),
            "models.forward_calls": len(self.forwards),
        }
        dur = self.spans.duration
        train_fwd = sum(dur(i) for i, _ in self.forwards if i in self.train_forwards)
        out["models.train_forward_s"] = train_fwd
        out["models.infer_forward_s"] = total("models.forward") - train_fwd
        for op in self.ops:
            calls, _, own = s.get(f"autodiff.{op}.fwd", (0, 0.0, 0.0))
            bwd = total(f"autodiff.{op}.bwd")
            out[f"autodiff.{op}.calls"] = calls
            out[f"autodiff.{op}.fwd_self_s"] = own
            out[f"autodiff.{op}.bwd_s"] = bwd
        out["autodiff.nodes_per_step"] = (self.step_nodes / self.train_steps
                                          if self.train_steps else 0.0)
        out["autodiff.backward_s"] = total("autodiff.backward")
        out["autodiff.backward_dispatch_s"] = s.get("autodiff.backward", (0, 0.0, 0.0))[2]
        out["autodiff.optim.nadam_step_s"] = total("autodiff.optim.nadam_step")
        out["autodiff.optim.sgd_step_s"] = total("autodiff.optim.sgd_step")
        out["autodiff.optim.steps"] = (s.get("autodiff.optim.nadam_step", (0,))[0]
                                       + s.get("autodiff.optim.sgd_step", (0,))[0])
        out["autodiff.checkpoint.load_text_s"] = total("autodiff.checkpoint.load_text")
        out["autodiff.checkpoint.load_binary_s"] = total("autodiff.checkpoint.load_binary")
        out["autodiff.checkpoint.save_s"] = total("autodiff.checkpoint.save")
        val_s = sum(dur(i) for i, in_train in self.forwards
                    if in_train and i not in self.train_forwards)
        out["harness.train_s"] = total("harness.train")
        out["harness.validate_s"] = val_s
        out["harness.val_forward_per_epoch"] = (self.val_rows / self.val_rows_per_pass
                                                if self.val_rows_per_pass else 0.0)
        out["harness.epochs"] = self.counts["harness.epochs"]
        out["harness.evaluate_s"] = total("harness.evaluate")
        out["harness.prediction_logits_s"] = total("harness.prediction_logits")
        out["reports.write_s"] = total("reports.write")
        return out

    def backward_misnested(self):
        """Op backward spans whose parent is not a Tensor.backward span, plus
        other spans whose parent is one.  When there are none, the ops' bwd_s
        and backward_dispatch_s (Tensor.backward's self time) sum to
        backward_s by definition."""
        name, _, _, parent = self.spans.columns()
        bwd = [self.spans.name_id(f"autodiff.{op}.bwd") for op in self.ops]
        backward = self.spans.name_id("autodiff.backward")
        is_bwd = np.isin(name, bwd)
        under_backward = (parent >= 0) & (name[np.maximum(parent, 0)] == backward)
        return int(np.count_nonzero(is_bwd != under_backward))


def save_spans(path, tracers):
    """Write the spans of every traced pass to one .npz file."""
    names = sorted({n for t in tracers for n in t.spans.names})
    index = {n: k for k, n in enumerate(names)}
    cols = {"name": [], "start": [], "end": [], "parent": [], "pass": []}
    base = 0
    for k, t in enumerate(tracers):
        name, start, end, parent = t.spans.columns()
        remap = np.array([index[n] for n in t.spans.names], dtype=np.int32)
        cols["name"].append(remap[name] if name.size else name)
        cols["start"].append(start)
        cols["end"].append(end)
        cols["parent"].append(np.where(parent >= 0, parent + base, -1).astype(np.int32))
        cols["pass"].append(np.full(name.size, k, dtype=np.int32))
        base += name.size
    arrays = {k: (np.concatenate(v) if v else np.zeros(0)) for k, v in cols.items()}
    with open(path, "wb") as fh:
        np.savez(fh, names=np.array(names), **arrays)
