"""Two-phase training, masked evaluation, the four experiments, and
seeded random hyperparameter search."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Nadam, SgdMomentum, softmax_cross_entropy_masked
from .corpus.reformat import (
    flatten_single_task,
    group_by_image,
    isolate_slots,
    reformat_multitask,
)
from .corpus.synthetic import SyntheticSceneConfig, gen_synthetic_corpus
from .datasets import encode_multitask, encode_single
from .errors import ConfigError, FormatError, TrainingError
from .models import ModelConfig, build_model
from .textenc import Vocabulary, build_vocab, random_embeddings

EXPERIMENT_KINDS = ("mtl_vs_stl", "architecture_control", "shared_info_control",
                    "vqateam_compare")
_EVAL_BATCH = 256  # rows per forward pass in `evaluate` and `prediction_logits`


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 64
    max_epochs_nadam: int = 200
    max_epochs_sgd: int = 50
    patience: int = 10
    min_delta: float = 1e-4
    nadam_lr: float = 1e-3
    nadam_beta1: float = 0.9
    nadam_beta2: float = 0.999
    nadam_eps: float = 1e-8
    sgd_lr: float = 1e-4
    sgd_momentum: float = 0.9
    val_fraction: float = 0.1
    seed: int = 0
    keep: str = "best"  # "best": best-validation-loss parameters; "last": final state

    def validate(self):
        if self.patience < 1:
            raise ConfigError("patience must be >= 1")
        if not (0.0 < self.val_fraction < 1.0):
            raise ConfigError("val_fraction must be in (0, 1)")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.max_epochs_nadam < 0 or self.max_epochs_sgd < 0:
            raise ConfigError("epoch caps must be >= 0")
        if not 0.0 <= self.min_delta < np.inf:  # NaN fails every comparison
            raise ConfigError("min_delta must be finite and >= 0")
        for name in ("nadam_lr", "sgd_lr", "nadam_eps"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ConfigError(f"{name} must be finite and > 0")
        for name in ("nadam_beta1", "nadam_beta2", "sgd_momentum"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must be in [0, 1)")
        if self.keep not in ("best", "last"):
            raise ConfigError("keep must be 'best' or 'last'")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")


@dataclass
class EpochRecord:
    epoch: int
    phase: str
    train_loss: float
    val_loss: float
    val_accuracy: float | None = None


@dataclass
class TrainHistory:
    records: list = field(default_factory=list)
    convergence_epoch: dict = field(default_factory=dict)
    best_epoch: int | None = None
    best_val_loss: float | None = None
    phase_transition_epoch: int | None = None

    def to_dict(self):
        return dataclasses.asdict(self)

    @staticmethod
    def from_dict(d):
        """The history `to_dict` gave; a missing or malformed field raises `FormatError`."""
        def finite(v):  # a real number, and not a bool, inf or NaN
            return type(v) is int or isinstance(v, float) and math.isfinite(v)
        try:
            history = TrainHistory(records=[EpochRecord(**r) for r in d["records"]],
                                   convergence_epoch=dict(d["convergence_epoch"]),
                                   best_epoch=d["best_epoch"], best_val_loss=d["best_val_loss"],
                                   phase_transition_epoch=d["phase_transition_epoch"])
        except KeyError as exc:
            raise FormatError(f"training history lacks field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise FormatError(f"malformed training history: {exc}") from exc
        for k, r in enumerate(history.records, start=1):
            ok = {"epoch": type(r.epoch) is int and r.epoch >= 1,
                  "phase": r.phase in ("nadam", "sgd"),
                  "train_loss": finite(r.train_loss), "val_loss": finite(r.val_loss),
                  "val_accuracy": r.val_accuracy is None or finite(r.val_accuracy)}
            bad = [name for name, good in ok.items() if not good]
            if bad:
                raise FormatError(f"training history record {k} has a bad {bad[0]}: "
                                  f"{getattr(r, bad[0])!r}")
        return history


def _image_level_split(image_ids, val_fraction, rng):
    """Validation rows chosen by image so one image never straddles the split."""
    uniq = sorted(set(image_ids))
    if len(uniq) < 2:
        return np.arange(len(image_ids)), np.arange(0)
    perm = rng.permutation(len(uniq))
    n_val = min(max(1, int(round(val_fraction * len(uniq)))), len(uniq) - 1)
    val_images = {uniq[int(i)] for i in perm[:n_val]}
    flags = np.array([im in val_images for im in image_ids])
    return np.nonzero(~flags)[0], np.nonzero(flags)[0]


def _infer(model, data, indices, batch_size, with_loss=False):
    """One `model.forward` per batch of the `indices` rows of `data`.

    Returns (logits, loss): the (rows, heads, answers) logits, and with
    `with_loss` the summed masked loss of those rows, else None.  No rows
    give an empty array.  Test sets hold out-of-vocabulary targets (-1),
    which the loss rejects, so only validation asks for it.
    """
    logits, loss = [], (0.0 if with_loss else None)
    for lo in range(0, max(len(indices), 1), batch_size):  # no rows run one empty batch
        sel = indices[lo:lo + batch_size]
        out = model.forward(data.images[data.image_rows[sel]], data.ids[sel])
        if with_loss:
            loss += float(softmax_cross_entropy_masked(out, data.targets[sel],
                                                       data.mask[sel]).data)
        logits.append(out.data.reshape(len(sel), model.n_heads, model.config.n_answers))
        # drop this batch's graph before the next forward builds one, so
        # only one batch graph is alive at a time
        del out
    return np.concatenate(logits), loss


def _validate(model, data, indices, batch_size):
    """(mean loss, slot accuracy or None) of the `indices` rows, one pass."""
    logits, loss = _infer(model, data, indices, batch_size, with_loss=True)
    mask = data.mask[indices]
    hits = (logits.argmax(axis=2) == data.targets[indices])[mask]
    return loss / len(indices), _tally(data.tasks, data.qtypes[indices][mask], hits).total_accuracy


def train(model, data, cfg):
    """Nadam until the patience criterion fires, then SGD with momentum.

    Returns (model, history).  With keep="best" (default) the model ends up
    holding the parameters of the epoch with the lowest validation loss
    seen in either phase; with keep="last" it holds the final state of the
    run.
    """
    cfg.validate()
    if len(data) == 0:
        raise ConfigError("training data is empty")
    history = TrainHistory()
    rng = np.random.default_rng(cfg.seed)
    train_idx, val_idx = _image_level_split(data.image_ids, cfg.val_fraction, rng)
    params = list(model.params.values())
    epoch = 0
    phases = (("nadam", cfg.max_epochs_nadam,
               lambda: Nadam(params, lr=cfg.nadam_lr, beta1=cfg.nadam_beta1,
                             beta2=cfg.nadam_beta2, eps=cfg.nadam_eps)),
              ("sgd", cfg.max_epochs_sgd,
               lambda: SgdMomentum(params, lr=cfg.sgd_lr, momentum=cfg.sgd_momentum)))
    for phase, max_epochs, make_optimizer in phases:
        if max_epochs == 0:
            continue
        if phase == "sgd":
            history.phase_transition_epoch = epoch + 1
        # made once the phase before has restored `best`, so it packs those values
        optimizer = make_optimizer()
        phase_best = np.inf
        for _ in range(max_epochs):
            epoch += 1
            order = train_idx[rng.permutation(len(train_idx))]
            total = 0.0
            for bi, lo in enumerate(range(0, len(order), cfg.batch_size)):
                sel = order[lo:lo + cfg.batch_size]
                optimizer.grad.fill(0.0)
                loss, _ = model.loss(data.images[data.image_rows[sel]], data.ids[sel],
                                     data.targets[sel], data.mask[sel])
                if not np.isfinite(loss.data):
                    raise TrainingError(f"non-finite loss at epoch {epoch}, batch {bi}")
                loss.grad = loss.data.dtype.type(1.0 / len(sel))
                loss.backward()
                optimizer.step()
                total += float(loss.data)
            train_loss = total / len(order)
            val_loss, val_acc = (_validate(model, data, val_idx, cfg.batch_size)
                                 if len(val_idx) else (train_loss, None))
            if not np.isfinite(val_loss):
                raise TrainingError(f"non-finite validation loss at epoch {epoch}")
            history.records.append(EpochRecord(epoch=epoch, phase=phase,
                                               train_loss=train_loss, val_loss=val_loss,
                                               val_accuracy=val_acc))
            if history.best_epoch is None or val_loss < history.best_val_loss:
                history.best_epoch, history.best_val_loss = epoch, float(val_loss)
                best = optimizer.data.copy()  # the best epoch's parameter vector
            # `min_delta` is finite, so a phase's first epoch always improves
            if val_loss < phase_best - cfg.min_delta:
                phase_best = val_loss
                history.convergence_epoch[phase] = epoch
            elif epoch - history.convergence_epoch[phase] >= cfg.patience:
                break
        if cfg.keep == "best":  # both optimizers pack `params` in one order
            optimizer.data[...] = best
        del optimizer  # so its vectors are freed before the next phase packs its own
    return model, history


# ---------------------------------------------------------------------------
# evaluation

@dataclass
class EvalReport:
    """Per-type and total accuracy of one population, as `_tally` counts it.

    From `evaluate` the population is the unmasked slots: `correct` holds
    whole numbers and `hits` is the (rows, heads) matrix of slots answered
    correctly.  From `per_question` it is the distinct questions: `correct`
    sums each question's mean correctness and `hits` is None.
    """
    tasks: tuple
    correct: dict
    counts: dict
    hits: np.ndarray | None = field(default=None, repr=False, compare=False)

    def accuracy(self, qtype):
        n = self.counts.get(qtype, 0)
        if n == 0:
            return None
        return 100.0 * self.correct[qtype] / n

    @property
    def total_accuracy(self):
        n = sum(self.counts.values())
        if n == 0:
            return None
        return 100.0 * sum(self.correct.values()) / n

    def as_dict(self):
        d = {t.value: self.accuracy(t) for t in self.tasks}
        d["total"] = self.total_accuracy
        return d


def _tally(tasks, qtype, score, hits=None):
    """The report of a population whose item i, of type `tasks[qtype[i]]`, scores `score[i]`."""
    correct = np.bincount(qtype, weights=score, minlength=len(tasks))
    counts = np.bincount(qtype, minlength=len(tasks))
    return EvalReport(tasks=tasks,
                      correct={t: float(correct[i]) for i, t in enumerate(tasks)},
                      counts={t: int(counts[i]) for i, t in enumerate(tasks)}, hits=hits)


def prediction_logits(model, data):
    """(n, heads, answers) raw logits, for exact-invariance checks."""
    return _infer(model, data, np.arange(len(data)), _EVAL_BATCH)[0]


def evaluate(model, data):
    """Slot accuracy: masked slots are excluded from numerator and denominator alike."""
    logits, _ = _infer(model, data, np.arange(len(data)), _EVAL_BATCH)
    hits = (logits.argmax(axis=2) == data.targets) & data.mask
    return _tally(data.tasks, data.qtypes[data.mask], hits[data.mask], hits)


def per_question(report, data):
    """`report`, from `evaluate(model, data)`, rescored so that every
    distinct question (`data.qids`) counts once, at the mean of its
    correctness over the slots it fills.
    """
    q = data.qids[data.mask]
    n = int(q.max()) + 1 if q.size else 0
    score = (np.bincount(q, weights=report.hits[data.mask], minlength=n)
             / np.bincount(q, minlength=n))
    qtype = np.zeros(n, dtype=np.int64)
    qtype[q] = data.qtypes[data.mask]
    return _tally(data.tasks, qtype, score)


# ---------------------------------------------------------------------------
# corpus bundles (everything an experiment needs, already reformatted)

@dataclass
class CorpusBundle:
    tasks: tuple
    train_combined: list
    test_combined: list
    features: "FeatureStore"
    vocab: Vocabulary
    answer_vocab: Vocabulary
    max_len: int

    def encode_combined(self, examples):
        return encode_multitask(examples, self.tasks, self.vocab, self.answer_vocab,
                                self.max_len, self.features)

    def encode_singles(self, singles):
        return encode_single(singles, self.tasks, self.vocab, self.answer_vocab,
                             self.max_len, self.features)


def bundle_from_examples(train_combined, test_combined, features, tasks):
    """Vocabularies and max_len from the training half only; max_len is the
    longest training question, at most 25 (longer test questions are
    truncated when encoded)."""
    train_tokens = [q.tokens for ex in train_combined for q in ex.slots]
    vocab = build_vocab(train_tokens)
    answer_vocab = Vocabulary.of(q.answer for ex in train_combined for q in ex.slots)
    max_len = min(25, max(map(len, train_tokens))) if train_tokens else 25
    return CorpusBundle(tasks=tuple(tasks), train_combined=train_combined,
                        test_combined=test_combined, features=features,
                        vocab=vocab, answer_vocab=answer_vocab, max_len=max_len)


def synthetic_bundle(train_images, test_images, noise_std=0.0, seed=0, scene=None):
    """Generate one seeded corpus and split it by image into train and test;
    the tasks are the question types it holds, in name order."""
    cfg = scene or SyntheticSceneConfig(num_images=train_images + test_images,
                                        noise_std=noise_std, seed=seed)
    questions, features = gen_synthetic_corpus(cfg)
    # image ids are "img" and the image's index, zero-padded to at least 5 digits
    train_qs = [q for q in questions if int(q.image_id[3:]) < train_images]
    test_qs = [q for q in questions if int(q.image_id[3:]) >= train_images]
    tasks = tuple(sorted({q.qtype for q in questions}, key=lambda t: t.value))
    train_combined = reformat_multitask(group_by_image(train_qs), tasks)
    test_combined = reformat_multitask(group_by_image(test_qs), tasks)
    return bundle_from_examples(train_combined, test_combined, features, tasks)


def model_config_for_bundle(bundle, **overrides):
    base = dict(tasks=bundle.tasks, n_answers=len(bundle.answer_vocab),
                vocab_size=len(bundle.vocab), feature_dim=bundle.features.feature_dim,
                max_len=bundle.max_len)
    base.update(overrides)
    cfg = ModelConfig(**base)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# experiments

@dataclass
class ExperimentReport:
    kind: str
    tasks: tuple  # type value strings
    rows: list    # (label, {type value: mean accuracy or None}, total or None)
    per_seed: dict
    convergence: dict
    seeds: tuple
    questions: dict = field(default_factory=dict)  # label -> {type value: count}


def _mean(values):
    vals = [v for v in values if v is not None]
    if len(vals) != len(values) or not vals:
        return None
    return float(np.mean(vals))


def _mean_report_rows(label, reports, tasks):
    per_type = {}
    for t in tasks:
        per_type[t.value] = _mean([r.accuracy(t) for r in reports])
    total = _mean([r.total_accuracy for r in reports])
    return (label, per_type, total)


def _difference_row(label, row_a, row_b):
    per_type = {}
    for k in row_a[1]:
        a, b = row_a[1][k], row_b[1][k]
        per_type[k] = None if a is None or b is None else a - b
    total = (None if row_a[2] is None or row_b[2] is None else row_a[2] - row_b[2])
    return (label, per_type, total)


def _train_eval(variant, bundle, model_cfg, train_cfg, seed, enc_train, tests):
    """Train one model and score it per question on each encoded test set."""
    emb = random_embeddings(bundle.vocab, model_cfg.embed_dim, seed=seed)
    model = build_model(variant, model_cfg, emb, seed=seed)
    cfg = dataclasses.replace(train_cfg, seed=seed)
    model, history = train(model, enc_train, cfg)
    return [per_question(evaluate(model, enc), enc) for enc in tests], history


# kind -> arms, each (variant, training form, {row label: test form}); a
# form is the combined examples as they are, isolated into single-slot
# examples, or flattened into single-task examples
_ARMS = {
    "mtl_vs_stl": (("mtl_simple", "combined", {"MTL": "combined"}),
                   ("stl_simple", "single", {"STL": "single"})),
    "vqateam_compare": (("vqateam_mtl", "combined", {"MTL": "combined"}),
                        ("vqateam_stl", "single", {"STL": "single"})),
    "architecture_control": (("mtl_simple", "isolated", {"STL-data MTL": "isolated"}),
                             ("stl_simple", "single", {"STL-data STL": "single"})),
    "shared_info_control": (("mtl_simple", "combined", {"Combined test": "combined",
                                                        "Split test": "isolated"}),),
}


def run_experiment(kind, bundle, model_cfg, train_cfg, seeds=(0, 1, 2)):
    """Run one of the four experiment protocols over several seeds.

    The bundle's combined train/test sets are reformatted further as the
    kind requires (flattened singles, isolated slots, or split testing).

    Every arm is scored over the same population: each distinct test
    question, its LabeledQuestion record, counts once in its type's
    accuracy and in the total.  A question that fills several combined or
    isolated test rows scores the mean of its correctness over those rows
    (`per_question` over the encoded set's `qids`).  The combined
    test set repeats a question once per combination of its image's other
    questions, so counting slots would weight images with many questions
    more and compare the arms over different sets of questions.
    """
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    seeds = tuple(int(s) for s in seeds)
    if not seeds or min(seeds) < 0:
        raise ConfigError(f"run_experiment: seeds must be a non-empty list of "
                          f"non-negative integers, got {seeds}")
    tasks = bundle.tasks

    def encoded(examples, form):
        if form == "single":
            return bundle.encode_singles(flatten_single_task(examples))
        return bundle.encode_combined(isolate_slots(examples) if form == "isolated"
                                      else examples)

    arms = [(variant, encoded(bundle.train_combined, train_form),
             {label: encoded(bundle.test_combined, form) for label, form in tests.items()})
            for variant, train_form, tests in _ARMS[kind]]
    reports, per_seed, convergence, questions = {}, {}, {}, {}
    for seed in seeds:
        for variant, enc_train, tests in arms:
            scored, history = _train_eval(variant, bundle, model_cfg, train_cfg, seed,
                                          enc_train, tests.values())
            for k, (label, report) in enumerate(zip(tests, scored)):
                reports.setdefault(label, []).append(report)
                per_seed.setdefault(label, []).append(report.as_dict())
                questions[label] = {t.value: n for t, n in report.counts.items()}
                if k == 0:  # one convergence epoch per trained model
                    convergence.setdefault(label, []).append(
                        history.convergence_epoch.get("nadam"))
    row_a, row_b = (_mean_report_rows(label, reps, tasks) for label, reps in reports.items())
    delta = "Delta" if kind == "shared_info_control" else "Difference"
    rows = [row_a, row_b, _difference_row(delta, row_a, row_b)]
    return ExperimentReport(kind=kind, tasks=tuple(t.value for t in tasks), rows=rows,
                            per_seed=per_seed, convergence=convergence, seeds=seeds,
                            questions=questions)


# ---------------------------------------------------------------------------
# hyperparameter search

_SAMPLERS = {
    "log": lambda rng, lo, hi: float(np.exp(rng.uniform(np.log(lo), np.log(hi)))),
    "uniform": lambda rng, lo, hi: float(rng.uniform(lo, hi)),
    "int": lambda rng, lo, hi: int(rng.integers(lo, hi + 1)),
}


def sample_config(space, base_cfg, rng):
    """One TrainConfig drawn from `space` (field -> sampling rule)."""
    overrides = {}
    for name in sorted(space):
        rule = space[name]
        if rule[0] == "choice":
            overrides[name] = rule[1][int(rng.integers(0, len(rule[1])))]
        elif rule[0] in _SAMPLERS:
            overrides[name] = _SAMPLERS[rule[0]](rng, rule[1], rule[2])
        else:
            raise ConfigError(f"unknown sampling rule {rule[0]!r} for {name}")
    return dataclasses.replace(base_cfg, **overrides)


def search_hyperparams(space, budget, seed, bundle, model_cfg, base_train_cfg):
    """Seeded random search ranked by held-out accuracy per distinct question.

    Every trial trains `mtl_simple`.  The holdout is 20% of the bundle's
    training images, so the test set never influences the choice.  Returns
    (best TrainConfig, trials log).
    """
    if budget < 1:
        raise ConfigError("budget must be >= 1")
    rng = np.random.default_rng(seed)
    examples = bundle.train_combined
    train_idx, hold_idx = _image_level_split([ex.image_id for ex in examples], 0.2,
                                             np.random.default_rng(seed + 1))
    enc_train = bundle.encode_combined([examples[i] for i in train_idx])
    enc_hold = bundle.encode_combined([examples[i] for i in hold_idx])

    trials = []
    best = None
    for trial in range(budget):
        cfg = sample_config(space, base_train_cfg, rng)
        emb = random_embeddings(bundle.vocab, model_cfg.embed_dim, seed=seed)
        model = build_model("mtl_simple", model_cfg, emb, seed=seed)
        model, _ = train(model, enc_train, cfg)
        acc = per_question(evaluate(model, enc_hold), enc_hold).total_accuracy
        acc = -1.0 if acc is None else acc
        trials.append({"trial": trial, "config": dataclasses.asdict(cfg),
                       "val_accuracy": acc})
        if best is None or acc > best[0]:
            best = (acc, cfg)
    return best[1], trials
