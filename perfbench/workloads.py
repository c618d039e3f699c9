"""The three benchmark workloads and the operation probe that checks them.

Each workload builds its inputs from the seed in ``setup`` (timed as
setup_s) and does its measured work in ``run`` (one repetition, timed as
wall_s).  Everything goes through the package's public API.

``Probe`` wraps the operations whose outcome the benchmark accounts for:
``harness.train``, ``harness.evaluate``, ``harness.prediction_logits`` and
``models.load_model``.  A call fails when it
raises, yields a non-finite value or fails an output check.  The probe also
times these calls, which gives the throughput inside the main API calls.
"""

from __future__ import annotations

import itertools
import os
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from tracing import Patch

CUT_SLACK = 8  # rows by which a fixed-size corpus may miss its targets
_clock = time.perf_counter


class CheckFailed(Exception):
    pass


@dataclass
class OpStats:
    calls: int = 0
    failed: int = 0
    seconds: float = 0.0
    items: int = 0


@dataclass
class Probe:
    m: object
    ops: dict = field(default_factory=lambda: defaultdict(OpStats))
    failures: list = field(default_factory=list)

    @property
    def attempted(self):
        return sum(s.calls for s in self.ops.values())

    @property
    def failed(self):
        return sum(s.failed for s in self.ops.values())

    def fail(self, op, reason):
        """Charge a failed cross-check to the latest call of `op`."""
        self.ops[op].failed = min(self.ops[op].failed + 1, self.ops[op].calls)
        self.failures.append(f"{op}: {reason}")

    def take(self, op):
        """(items, seconds) accumulated for `op` since the last take."""
        s = self.ops[op]
        out = (s.items, s.seconds)
        s.items, s.seconds = 0, 0.0
        return out

    def install(self):
        m, p = self.m, Patch()
        p.function(m.harness.train, self._wrap("train", m.harness.train, self._check_train))
        p.function(m.harness.evaluate, self._wrap("evaluate", m.harness.evaluate,
                                                  self._check_evaluate))
        p.function(m.harness.prediction_logits,
                   self._wrap("prediction_logits", m.harness.prediction_logits,
                              self._check_logits))
        p.function(m.models.load_model, self._wrap("load_model", m.models.load_model,
                                                   self._check_loaded))
        return p

    def _wrap(self, op, fn, check):
        clock = _clock
        stats = self.ops[op]

        def wrapped(*args, **kwargs):
            stats.calls += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                stats.failed += 1
                self.failures.append(f"{op}: raised {exc!r}")
                raise
            stats.seconds += clock() - t0
            try:
                stats.items += check(out, *args, **kwargs)
            except CheckFailed as exc:
                stats.failed += 1
                self.failures.append(f"{op}: {exc}")
            return out

        return wrapped

    # each check returns the number of items the call processed

    @staticmethod
    def _check_train(out, model, data, cfg):
        _, history = out
        epochs = len(history.records)
        want = cfg.max_epochs_nadam + cfg.max_epochs_sgd
        if epochs != want:
            raise CheckFailed(f"ran {epochs} epochs, configured {want}")
        losses = [v for r in history.records for v in (r.train_loss, r.val_loss)]
        if not np.all(np.isfinite(losses)):
            raise CheckFailed("non-finite loss in history")
        if not all(np.all(np.isfinite(p.data)) for p in model.params.values()):
            raise CheckFailed("non-finite parameter after training")
        return len(data) * epochs

    @staticmethod
    def _check_evaluate(report, model, data, batch_size=256):
        if sum(report.counts.values()) != int(data.mask.sum()):
            raise CheckFailed("report counts differ from the unmasked slots")
        return len(data)

    @staticmethod
    def _check_logits(logits, model, data, batch_size=256):
        want = (len(data), model.n_heads, model.config.n_answers)
        if logits.shape != want:
            raise CheckFailed(f"logits shape {logits.shape}, expected {want}")
        if not np.all(np.isfinite(logits)):
            raise CheckFailed("non-finite logits")
        return len(data)

    @staticmethod
    def _check_loaded(model, path):
        if not all(np.all(np.isfinite(p.data)) for p in model.params.values()):
            raise CheckFailed("non-finite parameter in loaded model")
        return 1


# ---------------------------------------------------------------------------
# workloads

@dataclass
class Rep:
    """What one repetition produced: the fingerprint must repeat exactly for
    a seed, and `shown` holds workload-specific figures for the report."""
    fingerprint: dict
    shown: dict


class Workload:
    name = ""
    why = ""
    main_ops = ()       # probe ops whose items per second give items_per_s

    def __init__(self, m, outdir, toy=False):
        self.m, self.outdir, self.toy = m, outdir, toy


class _Compare(Workload):
    """run_experiment on a seeded synthetic corpus with fixed epochs."""
    kind = ""
    # (train images, test images) generated, then (combined, single) rows
    # kept for training and for testing
    full = toy_sizes = None
    main_ops = ("train",)

    def setup(self, seed):
        h = self.m.harness
        images, train_rows, test_rows = self.toy_sizes if self.toy else self.full
        src = h.synthetic_bundle(*images, noise_std=0.25, seed=seed)
        bundle = h.bundle_from_examples(fixed_size(src.train_combined, *train_rows),
                                        fixed_size(src.test_combined, *test_rows),
                                        src.features, src.tasks)
        model_cfg = h.model_config_for_bundle(bundle)
        # patience above the epoch count turns early stopping off
        train_cfg = h.TrainConfig(max_epochs_nadam=1, max_epochs_sgd=1, patience=3,
                                  seed=seed)
        return bundle, model_cfg, train_cfg, seed

    def run(self, state, probe):
        bundle, model_cfg, train_cfg, seed = state
        report = self.m.harness.run_experiment(self.kind, bundle, model_cfg, train_cfg,
                                               seeds=(seed,))
        self.m.reports.write_experiment_reports(
            os.path.join(self.outdir, "reports", self.name), report)
        totals = {label: total for label, _, total in report.rows[:2]}
        if not all(t is not None and np.isfinite(t) for t in totals.values()):
            probe.fail("evaluate", f"test accuracy {totals}")
        items, secs = probe.take("evaluate")
        shown = {f"test_accuracy.{k}": (v, "%") for k, v in totals.items()}
        shown["eval_examples_per_s"] = (items / secs, "examples/s")
        return Rep(fingerprint=dict(totals), shown=shown)


class ConvCompare(_Compare):
    name = "conv_mtl_vs_stl"
    why = ("paper's MTL-vs-STL protocol: conv encoder, Nadam and validation "
           "do the work and no LSTM code runs")
    kind = "mtl_vs_stl"
    full = ((1300, 500), (2600, 3800), (700, 1020))
    toy_sizes = ((40, 15), (60, 90), (20, 30))


class LstmCompare(_Compare):
    name = "lstm_vqateam_compare"
    why = ("VQA-team LSTM pair: per-node Python cost of the composite LSTM "
           "dominates and no conv code runs")
    kind = "vqateam_compare"
    full = ((400, 150), (650, 950), (160, 235))
    toy_sizes = ((30, 10), (40, 60), (15, 22))


class EvalSweep(Workload):
    name = "eval_sweep"
    why = ("forward only: loads all four variants from text and binary "
           "checkpoints and scores a large held-out set; no backward, no optimizer")
    main_ops = ("evaluate", "prediction_logits")
    full = ((300, 900), (1500, 2200))
    toy_sizes = ((30, 20), (30, 45))

    def setup(self, seed):
        m = self.m
        images, test_rows = self.toy_sizes if self.toy else self.full
        src = m.harness.synthetic_bundle(*images, noise_std=0.25, seed=seed)
        test = fixed_size(src.test_combined, *test_rows)
        bundle = m.harness.bundle_from_examples(src.train_combined, test,
                                                src.features, src.tasks)
        cfg = m.harness.model_config_for_bundle(bundle)
        combined = bundle.encode_combined(bundle.test_combined)
        singles = bundle.encode_singles(m.corpus.flatten_single_task(bundle.test_combined))
        emb = m.textenc.random_embeddings(bundle.vocab, cfg.embed_dim, seed=seed)
        ckdir = os.path.join(self.outdir, "checkpoints")
        os.makedirs(ckdir, exist_ok=True)
        cases = []
        for variant in m.models.VARIANTS:
            model = m.models.build_model(variant, cfg, emb, seed=seed)
            paths = []
            for binary, ext in ((False, "txt"), (True, "npz")):
                path = os.path.join(ckdir, f"{variant}.{ext}")
                m.models.save_model(path, model, binary=binary)
                paths.append(path)
            saved = {n: p.data.copy() for n, p in model.params.items()}
            data = combined if model.n_heads > 1 else singles
            cases.append((variant, paths, saved, data))
        return cases

    def run(self, cases, probe):
        h = self.m.harness
        fingerprint = {}
        for variant, paths, saved, data in cases:
            logits = []
            for path in paths:
                model = self.m.models.load_model(path)
                if any(not np.array_equal(p.data, saved[n]) for n, p in model.params.items()):
                    probe.fail("load_model", f"{path}: parameters differ from the saved ones")
                report = h.evaluate(model, data)
                lg = h.prediction_logits(model, data)
                if _correct_by_type(lg, data) != report.correct:
                    probe.fail("evaluate", f"{variant}: argmax differs from prediction_logits")
                logits.append(lg)
            if not np.array_equal(logits[0], logits[1]):
                probe.fail("load_model", f"{variant}: text and binary logits differ")
            fingerprint[variant] = float(logits[1].sum())
        return Rep(fingerprint=fingerprint, shown={})


def fixed_size(examples, rows, singles):
    """Whole images, in order, until about `rows` combined examples that
    flatten to about `singles` single-question examples.

    An image is taken only while the running totals stay on the line from
    zero to the target, so both counts end within a few of their targets
    and every seed does nearly the same work.  An image's singles are its
    distinct filled slots, as ``corpus.flatten_single_task`` counts them;
    they are counted here so that the cut is neither traced nor timed as
    the package's work.
    """
    out, n_rows, n_singles = [], 0, 0
    for _, group in itertools.groupby(examples, key=lambda ex: ex.image_id):
        group = list(group)
        distinct = {slot for ex in group for slot in ex.slots}
        r, s = n_rows + len(group), n_singles + len(distinct)
        if r <= rows and s <= singles and abs(s - singles / rows * r) <= CUT_SLACK:
            out += group
            n_rows, n_singles = r, s
            if (r, s) == (rows, singles):
                break
    if rows - n_rows > CUT_SLACK or singles - n_singles > CUT_SLACK:
        raise ValueError(f"corpus too small for the cut: {n_rows} of {rows} rows, "
                         f"{n_singles} of {singles} single-question rows")
    return out


def _correct_by_type(logits, data):
    ok = np.argmax(logits, axis=2) == data.targets
    return {t: int((ok & (data.qtypes == k) & data.mask).sum())
            for k, t in enumerate(data.tasks)}


WORKLOADS = {w.name: w for w in (ConvCompare, LstmCompare, EvalSweep)}
