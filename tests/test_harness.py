import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from mtvqa import harness
from mtvqa.corpus import (
    FeatureStore,
    LabeledQuestion,
    MultiTaskExample,
    QuestionType,
    flatten_single_task,
    isolate_slots,
)
from mtvqa.datasets import EncodedDataset
from mtvqa.errors import ConfigError, TrainingError
from mtvqa.harness import (
    EvalReport,
    TrainConfig,
    TrainHistory,
    evaluate,
    per_question,
    prediction_logits,
    run_experiment,
    sample_config,
    search_hyperparams,
    synthetic_bundle,
    train,
)
from mtvqa.models import Model, build_model
from mtvqa.textenc import random_embeddings

from helpers import TINY_TASKS, tiny_model


@pytest.fixture(scope="module")
def bundle():
    return synthetic_bundle(24, 8, noise_std=0.0, seed=11)


@pytest.fixture(scope="module")
def small_cfg(bundle):
    return harness.model_config_for_bundle(bundle, embed_dim=8, filters_per_width=4,
                                           hidden_dim=16, img_compress_dim=8,
                                           lstm_dim=6, lstm_depth=1, common_dim=6,
                                           classifier_dims=(8,))


def test_max_len_comes_from_the_training_half():
    base = synthetic_bundle(6, 2, seed=1)
    assert base.max_len == 5
    long_q = MultiTaskExample((LabeledQuestion("img99999", ("what",) * 9, "red",
                                               base.tasks[0]),))
    bundle = harness.bundle_from_examples(base.train_combined,
                                          base.test_combined + [long_q],
                                          base.features, base.tasks)
    assert bundle.max_len == 5


def test_synthetic_bundle_splits_by_image_index_past_five_digits(monkeypatch):
    # the ids of images 99998..100001; a comparison of id strings would put
    # img100000 and img100001 before img99999, in the training half
    ids = [f"img{i:05d}" for i in range(99998, 100002)]
    questions = [LabeledQuestion(i, ("what", t.value), t.value, t)
                 for i in ids for t in (QuestionType.COLOUR, QuestionType.COUNT)]
    store = FeatureStore({i: np.zeros(2) for i in ids}, feature_dim=2)
    monkeypatch.setattr(harness, "gen_synthetic_corpus", lambda cfg: (questions, store))
    bundle = synthetic_bundle(99999, 3)
    assert [ex.image_id for ex in bundle.train_combined] == ["img99998"]
    assert {ex.image_id for ex in bundle.test_combined} == set(ids[1:])


def _fresh_model(bundle, cfg, variant="mtl_simple", seed=0):
    emb = random_embeddings(bundle.vocab, cfg.embed_dim, seed=seed)
    return build_model(variant, cfg, emb, seed=seed)


def _quick_cfg(**kw):
    base = dict(batch_size=16, max_epochs_nadam=4, max_epochs_sgd=2, patience=3,
                val_fraction=0.2, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def test_train_is_seed_deterministic(bundle, small_cfg):
    enc = bundle.encode_combined(bundle.train_combined)
    hists = []
    for _ in range(2):
        model = _fresh_model(bundle, small_cfg)
        _, hist = train(model, enc, _quick_cfg())
        hists.append(hist.to_dict())
    assert hists[0] == hists[1]


def test_zero_epochs_returns_initialized_model(bundle, small_cfg):
    enc = bundle.encode_combined(bundle.train_combined)
    model = _fresh_model(bundle, small_cfg)
    before = {n: p.data.copy() for n, p in model.params.items()}
    model, hist = train(model, enc, _quick_cfg(max_epochs_nadam=0, max_epochs_sgd=0))
    assert hist.records == []
    for n in before:
        npt.assert_array_equal(model.params[n].data, before[n])


def test_history_has_single_phase_transition(bundle, small_cfg):
    enc = bundle.encode_combined(bundle.train_combined)
    # (Nadam cap, SGD cap): first phase, transitions, SGD's first epoch, phases
    for nadam, sgd, first, n_transitions, sgd_epoch, ran in (
            (3, 3, "nadam", 1, 4, ["nadam", "sgd"]),
            (0, 3, "sgd", 0, 1, ["sgd"])):
        model = _fresh_model(bundle, small_cfg)
        _, hist = train(model, enc, _quick_cfg(max_epochs_nadam=nadam, max_epochs_sgd=sgd))
        phases = [r.phase for r in hist.records]
        transitions = sum(1 for a, b in zip(phases, phases[1:]) if a != b)
        assert transitions == n_transitions
        assert phases[0] == first and phases[-1] == "sgd"
        assert hist.phase_transition_epoch == sgd_epoch
        assert list(hist.convergence_epoch) == ran
        epochs = [r.epoch for r in hist.records]
        assert epochs == list(range(1, len(epochs) + 1))


def test_training_loss_decreases(bundle, small_cfg):
    enc = bundle.encode_combined(bundle.train_combined)
    model = _fresh_model(bundle, small_cfg)
    _, hist = train(model, enc, _quick_cfg(max_epochs_nadam=12, max_epochs_sgd=0,
                                           patience=12))
    assert hist.records[-1].train_loss < hist.records[0].train_loss


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf features on purpose
def test_non_finite_features_abort_with_location(bundle, small_cfg):
    enc = bundle.encode_combined(bundle.train_combined)
    bad = dataclasses.replace(enc, images=np.full_like(enc.images, np.inf))
    model = _fresh_model(bundle, small_cfg)
    with pytest.raises(TrainingError, match="epoch 1"):
        train(model, bad, _quick_cfg())


def test_empty_data_rejected(bundle, small_cfg):
    enc = bundle.encode_combined([])
    model = _fresh_model(bundle, small_cfg)
    with pytest.raises(ConfigError):
        train(model, enc, _quick_cfg())


def test_config_validation():
    for bad in (dict(patience=0), dict(val_fraction=1.5), dict(batch_size=0),
                dict(min_delta=float("nan")), dict(min_delta=float("inf")),
                dict(min_delta=-1e-4), dict(nadam_lr=0.0), dict(nadam_lr=-1e-3),
                dict(nadam_lr=float("nan")), dict(nadam_lr=float("inf")), dict(sgd_lr=0.0),
                dict(sgd_lr=float("nan")), dict(nadam_beta1=1.0), dict(nadam_beta1=-0.1),
                dict(nadam_beta2=float("nan")), dict(nadam_beta2=1.0), dict(sgd_momentum=1.0),
                dict(sgd_momentum=-0.5), dict(nadam_eps=0.0), dict(nadam_eps=-1e-8),
                dict(nadam_eps=float("nan"))):
        with pytest.raises(ConfigError):
            TrainConfig(**bad).validate()
    # each range's closed end passes
    TrainConfig(min_delta=0.0, nadam_beta1=0.0, nadam_beta2=0.0, sgd_momentum=0.0).validate()


def test_image_level_split_never_straddles():
    rng = np.random.default_rng(0)
    image_ids = [f"img{i % 7}" for i in range(40)]
    train_idx, val_idx = harness._image_level_split(image_ids, 0.3, rng)
    train_images = {image_ids[i] for i in train_idx}
    val_images = {image_ids[i] for i in val_idx}
    assert train_images.isdisjoint(val_images)
    assert len(train_idx) + len(val_idx) == 40


def test_validation_runs_one_forward_per_batch(bundle, small_cfg, monkeypatch):
    enc = bundle.encode_combined(bundle.train_combined)
    cfg = _quick_cfg()
    train_idx, val_idx = harness._image_level_split(enc.image_ids, cfg.val_fraction,
                                                    np.random.default_rng(cfg.seed))
    assert len(val_idx) > 0
    calls = []
    forward = Model.forward

    def counted(model, images, ids):
        calls.append(len(images))
        return forward(model, images, ids)

    monkeypatch.setattr(Model, "forward", counted)
    _, hist = train(_fresh_model(bundle, small_cfg), enc, cfg)

    def batches(rows):
        return -(-rows // cfg.batch_size)

    per_epoch = batches(len(train_idx)) + batches(len(val_idx))
    assert len(calls) == len(hist.records) * per_epoch


def test_history_json_round_trip(bundle, small_cfg):
    enc = bundle.encode_combined(bundle.train_combined)
    model = _fresh_model(bundle, small_cfg)
    _, hist = train(model, enc, _quick_cfg())
    again = TrainHistory.from_dict(hist.to_dict())
    assert again.to_dict() == hist.to_dict()


# ---------------------------------------------------------------------------
# evaluation

def _rows(enc, idx):
    """The `idx` rows of `enc` as a dataset of their own."""
    return dataclasses.replace(enc, ids=enc.ids[idx], targets=enc.targets[idx],
                               mask=enc.mask[idx], qtypes=enc.qtypes[idx],
                               qids=enc.qids[idx], image_rows=enc.image_rows[idx],
                               image_ids=tuple(enc.image_ids[i] for i in idx))


def _encoded(bundle, examples, model):
    """`examples` in the layout `model` reads: combined, or flattened to singles."""
    if model.n_heads == 1:
        return bundle.encode_singles(flatten_single_task(examples))
    return bundle.encode_combined(examples)


@pytest.mark.parametrize("variant", ["mtl_simple", "vqateam_stl"])
def test_epoch_validation_figures_score_the_validation_rows(bundle, small_cfg, variant):
    model = _fresh_model(bundle, small_cfg, variant)
    enc = _encoded(bundle, bundle.train_combined, model)
    cfg = _quick_cfg(max_epochs_nadam=1, max_epochs_sgd=0)
    model, hist = train(model, enc, cfg)  # one epoch: the model holds its parameters
    _, val_idx = harness._image_level_split(enc.image_ids, cfg.val_fraction,
                                            np.random.default_rng(cfg.seed))
    val = _rows(enc, val_idx)
    assert 0 < len(val) < len(enc)
    (record,) = hist.records
    assert record.val_accuracy == evaluate(model, val).total_accuracy
    loss, _ = model.loss(val.images[val.image_rows], val.ids, val.targets, val.mask)
    assert record.val_loss == pytest.approx(float(loss.data) / len(val), rel=1e-5)


@pytest.mark.parametrize("variant", ["mtl_simple", "stl_simple", "vqateam_mtl",
                                     "vqateam_stl"])
def test_evaluate_counts_the_argmax_of_prediction_logits(bundle, small_cfg, variant):
    model = _fresh_model(bundle, small_cfg, variant)
    data = _encoded(bundle, bundle.test_combined, model)
    # every other row's targets become the model's answers, so some slots hit
    z = model.forward(data.images[data.image_rows], data.ids).data.reshape(
        len(data), model.n_heads, -1)
    answered = (np.arange(len(data)) % 2 == 0)[:, None] & data.mask
    data = dataclasses.replace(data, targets=np.where(answered, z.argmax(axis=2),
                                                      data.targets))
    report = evaluate(model, data)
    hits = (prediction_logits(model, data).argmax(axis=2) == data.targets) & data.mask
    npt.assert_array_equal(report.hits, hits)
    assert report.correct == {t: int((hits & (data.qtypes == k)).sum())
                              for k, t in enumerate(data.tasks)}
    assert report.counts == {t: int((data.mask & (data.qtypes == k)).sum())
                             for k, t in enumerate(data.tasks)}
    assert 0 < hits.sum() < data.mask.sum()


def _toy_eval_data(model, rng, n=4):
    cfg = model.config
    images = rng.normal(size=(n, cfg.feature_dim))
    ids = rng.integers(0, cfg.vocab_size, size=(n, model.n_heads, cfg.max_len))
    logits = model.forward(images, ids).data
    preds = logits.reshape(n, model.n_heads, cfg.n_answers).argmax(axis=2)
    return images, ids, preds


def test_evaluate_all_correct_and_three_quarters():
    model = tiny_model("stl_simple", n_answers=5)
    rng = np.random.default_rng(20)
    images, ids, preds = _toy_eval_data(model, rng, n=4)
    qtypes = np.zeros((4, 1), dtype=np.int64)  # all colour
    mask = np.ones((4, 1), dtype=bool)
    data = EncodedDataset(ids=ids, targets=preds.copy(), mask=mask, qtypes=qtypes,
                          qids=np.arange(4).reshape(4, 1), images=images,
                          image_rows=np.arange(4), image_ids=tuple("abcd"), tasks=TINY_TASKS)
    assert evaluate(model, data).total_accuracy == 100.0

    wrong = preds.copy()
    wrong[0, 0] = (wrong[0, 0] + 1) % 5
    data = dataclasses.replace(data, targets=wrong)
    report = evaluate(model, data)
    assert report.total_accuracy == 75.0
    assert report.accuracy(TINY_TASKS[0]) == 75.0


def test_evaluate_ignores_masked_slots_and_absent_types():
    model = tiny_model("mtl_simple", n_answers=5)
    rng = np.random.default_rng(21)
    images, ids, preds = _toy_eval_data(model, rng, n=3)
    mask = np.ones((3, 4), dtype=bool)
    mask[:, 3] = False  # size type absent everywhere
    qtypes = np.tile(np.arange(4), (3, 1))
    qtypes[:, 3] = -1
    targets = preds.copy()
    targets[:, 3] = -1
    qids = np.where(mask, np.arange(12).reshape(3, 4), -1)
    data = EncodedDataset(ids=ids, targets=targets, mask=mask, qtypes=qtypes, qids=qids,
                          images=images, image_rows=np.arange(3), image_ids=tuple("abc"),
                          tasks=TINY_TASKS)
    report = evaluate(model, data)
    assert report.accuracy(TINY_TASKS[3]) is None
    assert report.counts[TINY_TASKS[3]] == 0
    assert report.total_accuracy == 100.0

    # an all-masked duplicate row changes nothing
    data2 = EncodedDataset(ids=np.vstack([data.ids, data.ids[:1]]),
                           targets=np.vstack([data.targets, data.targets[:1]]),
                           mask=np.vstack([data.mask, np.zeros((1, 4), dtype=bool)]),
                           qtypes=np.vstack([data.qtypes, np.full((1, 4), -1)]),
                           qids=np.vstack([data.qids, np.full((1, 4), -1)]),
                           images=data.images, image_rows=np.append(data.image_rows, 0),
                           image_ids=data.image_ids + ("a",), tasks=data.tasks)
    report2 = evaluate(model, data2)
    assert report2.as_dict() == report.as_dict()


def test_empty_set_gives_empty_logits_and_zero_counts(bundle, small_cfg):
    enc = bundle.encode_combined([])
    model = _fresh_model(bundle, small_cfg)
    logits = prediction_logits(model, enc)
    assert logits.shape == (0, model.n_heads, small_cfg.n_answers)
    assert sum(evaluate(model, enc).counts.values()) == 0


def test_eval_report_empty_counts():
    report = EvalReport(tasks=TINY_TASKS, correct={t: 0 for t in TINY_TASKS},
                        counts={t: 0 for t in TINY_TASKS})
    assert report.total_accuracy is None


def test_per_question_counts_each_question_once():
    # question 0 fills four rows and is answered right in all of them;
    # question 1 fills one row and is answered wrong: 50% per question,
    # where counting slots would give 80%
    model = tiny_model("stl_simple", n_answers=5)
    rng = np.random.default_rng(22)
    images, ids, preds = _toy_eval_data(model, rng, n=5)
    targets = preds.copy()
    targets[4, 0] = (targets[4, 0] + 1) % 5
    data = EncodedDataset(ids=ids, targets=targets, mask=np.ones((5, 1), dtype=bool),
                          qtypes=np.zeros((5, 1), dtype=np.int64),
                          qids=np.array([[0], [0], [0], [0], [1]]), images=images,
                          image_rows=np.arange(5), image_ids=tuple("aaaab"), tasks=TINY_TASKS)
    report = evaluate(model, data)
    assert report.total_accuracy == 80.0
    scored = per_question(report, data)
    assert scored.total_accuracy == 50.0
    assert scored.accuracy(TINY_TASKS[0]) == 50.0
    assert scored.counts[TINY_TASKS[0]] == 2


def test_experiment_arms_score_the_same_questions(bundle, small_cfg):
    flat = flatten_single_task(bundle.test_combined)
    want = {t.value: sum(1 for s in flat if s.qtype == t) for t in bundle.tasks}
    assert sum(want.values()) < sum(len(ex.slots) for ex in bundle.test_combined)
    cfg = _quick_cfg(max_epochs_nadam=1, max_epochs_sgd=0)
    for kind, labels in (("mtl_vs_stl", ("MTL", "STL")),
                         ("architecture_control", ("STL-data MTL", "STL-data STL"))):
        report = run_experiment(kind, bundle, small_cfg, cfg, seeds=(0,))
        assert [report.questions[label] for label in labels] == [want, want]


# ---------------------------------------------------------------------------
# exact-input invariance and experiments

def test_isolated_examples_evaluate_identically_as_combined_format(bundle, small_cfg):
    isolated = isolate_slots(bundle.test_combined)
    enc_a = bundle.encode_combined(isolated)
    enc_b = bundle.encode_combined(list(isolated))  # separately constructed
    model = _fresh_model(bundle, small_cfg, seed=5)
    la = prediction_logits(model, enc_a)
    lb = prediction_logits(model, enc_b)
    npt.assert_array_equal(la, lb)


def test_run_experiment_mtl_vs_stl_structure(bundle, small_cfg):
    report = run_experiment("mtl_vs_stl", bundle, small_cfg,
                            _quick_cfg(max_epochs_nadam=2, max_epochs_sgd=1),
                            seeds=(0,))
    labels = [r[0] for r in report.rows]
    assert labels == ["MTL", "STL", "Difference"]
    mtl, stl, diff = report.rows
    for t in report.tasks:
        if mtl[1][t] is not None and stl[1][t] is not None:
            npt.assert_allclose(diff[1][t], mtl[1][t] - stl[1][t])
    assert set(report.convergence) == {"MTL", "STL"}
    assert len(report.convergence["MTL"]) == 1


def test_run_experiment_architecture_control(bundle, small_cfg):
    report = run_experiment("architecture_control", bundle, small_cfg,
                            _quick_cfg(max_epochs_nadam=2, max_epochs_sgd=0),
                            seeds=(0,))
    assert [r[0] for r in report.rows] == ["STL-data MTL", "STL-data STL", "Difference"]


def test_run_experiment_shared_info(bundle, small_cfg):
    report = run_experiment("shared_info_control", bundle, small_cfg,
                            _quick_cfg(max_epochs_nadam=2, max_epochs_sgd=0),
                            seeds=(0,))
    assert [r[0] for r in report.rows] == ["Combined test", "Split test", "Delta"]
    comb, split, delta = report.rows
    if comb[2] is not None and split[2] is not None:
        npt.assert_allclose(delta[2], comb[2] - split[2])


def test_run_experiment_vqateam_compare(bundle, small_cfg):
    report = run_experiment("vqateam_compare", bundle, small_cfg,
                            _quick_cfg(max_epochs_nadam=1, max_epochs_sgd=0),
                            seeds=(0,))
    assert [r[0] for r in report.rows] == ["MTL", "STL", "Difference"]
    assert set(report.per_seed) == {"MTL", "STL"}


def test_run_experiment_unknown_kind(bundle, small_cfg):
    with pytest.raises(ConfigError):
        run_experiment("nope", bundle, small_cfg, _quick_cfg(), seeds=(0,))


@pytest.mark.parametrize("seeds", [(), (1, -1)])
def test_run_experiment_rejects_bad_seeds(bundle, small_cfg, seeds):
    with pytest.raises(ConfigError, match="seeds"):
        run_experiment("mtl_vs_stl", bundle, small_cfg, _quick_cfg(), seeds=seeds)


def test_experiment_is_fully_deterministic(bundle, small_cfg):
    cfg = _quick_cfg(max_epochs_nadam=2, max_epochs_sgd=1)
    a = run_experiment("mtl_vs_stl", bundle, small_cfg, cfg, seeds=(0,))
    b = run_experiment("mtl_vs_stl", bundle, small_cfg, cfg, seeds=(0,))
    assert a.rows == b.rows
    assert a.per_seed == b.per_seed
    assert a.convergence == b.convergence


# ---------------------------------------------------------------------------
# hyperparameter search

def test_sample_config_rules():
    rng = np.random.default_rng(1)
    space = {"nadam_lr": ("log", 1e-4, 1e-2), "batch_size": ("choice", [8, 16]),
             "patience": ("int", 2, 5)}
    cfg = sample_config(space, TrainConfig(), rng)
    assert 1e-4 <= cfg.nadam_lr <= 1e-2
    assert cfg.batch_size in (8, 16)
    assert 2 <= cfg.patience <= 5


def test_search_budget_one_returns_single_sample(bundle, small_cfg):
    space = {"nadam_lr": ("log", 1e-3, 1e-2)}
    base = _quick_cfg(max_epochs_nadam=1, max_epochs_sgd=0)
    best, trials = search_hyperparams(space, 1, 3, bundle, small_cfg, base)
    assert len(trials) == 1
    assert trials[0]["config"]["nadam_lr"] == best.nadam_lr


def test_search_scores_the_holdout_per_question(bundle, small_cfg):
    seed, base = 3, _quick_cfg(max_epochs_nadam=2, max_epochs_sgd=0)
    _, trials = search_hyperparams({}, 1, seed, bundle, small_cfg, base)
    examples = bundle.train_combined
    train_idx, hold_idx = harness._image_level_split(
        [ex.image_id for ex in examples], 0.2, np.random.default_rng(seed + 1))
    enc_hold = bundle.encode_combined([examples[i] for i in hold_idx])
    model, _ = train(_fresh_model(bundle, small_cfg, seed=seed),
                     bundle.encode_combined([examples[i] for i in train_idx]), base)
    report = evaluate(model, enc_hold)
    want = per_question(report, enc_hold)
    assert want.total_accuracy != report.total_accuracy  # the two scores differ here
    assert trials[0]["val_accuracy"] == want.total_accuracy


def test_search_is_seed_deterministic(bundle, small_cfg):
    space = {"nadam_lr": ("log", 1e-3, 1e-2), "batch_size": ("choice", [8, 16])}
    base = _quick_cfg(max_epochs_nadam=1, max_epochs_sgd=0)
    b1, t1 = search_hyperparams(space, 2, 7, bundle, small_cfg, base)
    b2, t2 = search_hyperparams(space, 2, 7, bundle, small_cfg, base)
    assert t1 == t2 and b1 == b2


def test_search_degenerate_space(bundle, small_cfg):
    space = {"batch_size": ("choice", [32])}
    base = _quick_cfg(max_epochs_nadam=1, max_epochs_sgd=0)
    best, trials = search_hyperparams(space, 2, 0, bundle, small_cfg, base)
    assert best.batch_size == 32
    assert all(t["config"]["batch_size"] == 32 for t in trials)
