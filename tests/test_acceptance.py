"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Criterion 6 compares the multi-task network against the single-task one.
Its accuracy half used to fail (MTL 44.18% vs STL 45.26%) because
`harness.run_experiment` scored the two arms over different populations:
the MTL arm over every slot of the Cartesian-product combined test set,
where a question appears once per combination of its image's other
questions (up to 16 times, mostly on crowded, harder scenes), and the STL
arm over the distinct questions that `flatten_single_task` yields.  Both
arms are now scored per distinct test question, and the multi-task
network comes out ahead in every seed.

An earlier measurement campaign covered roughly 35 configurations: 4- and
5-type task sets, balanced and skewed type frequencies, scene spaces from
19 to 112 answer classes, feature noise 0 to 0.75, entangled (random tanh
projection) features, single- and multi-object binding, hidden widths 16
to 128, learning rates 1e-4 to 3e-3, batch sizes 16 to 64, patience 5 to
25, tuned SGD fine-tune phases, checkpoint selection by loss and by
accuracy, and per-variant random hyperparameter search.  It found a
seed-averaged total-accuracy difference within [-6, +2] points, centered
near -1.3, while the faster-convergence direction held in essentially
every run.  Every one of those runs compared slot-weighted MTL accuracy
against per-question STL accuracy, so that range does not describe the
comparison over one shared set of questions.
"""

import dataclasses
import json
import math
import os
import time
import zlib

import numpy as np
import numpy.testing as npt
import pytest

from mtvqa import autodiff as ad
from mtvqa import harness
from mtvqa.cli import main as cli_main
from mtvqa.corpus import (
    COCOQA_TASKS,
    DAQUAR_TASKS,
    MultiTaskExample,
    QuestionType,
    SyntheticSceneConfig,
    classify_question,
    corpus_stats,
    default_keyword_config,
    flatten_single_task,
    gen_synthetic_corpus,
    group_by_image,
    isolate_slots,
    label_corpus,
    parse_cocoqa,
    parse_daquar,
    reformat_multitask,
)
from mtvqa.corpus.parsing import tokenize
from mtvqa.models import build_model
from mtvqa.textenc import random_embeddings

from helpers import OP_CASES, model_loss_case, tiny_model

TOLERANCE = 1e-4


def _report(criterion, ok, detail=""):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}")


# ---------------------------------------------------------------------------
# 1. gradient suite

# the recurrent case is sampled per coordinate to stay in budget
_OP_COORD_CAPS = {"lstm_sequence": 6}


def test_criterion_1_gradient_suite():
    """Every operator and model variant vs central finite differences:
    max relative error < 1e-4 over 100 seeded random instances, < 2 min."""
    t0 = time.time()
    worst_overall = 0.0
    for name, case in OP_CASES.items():
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        cap = _OP_COORD_CAPS.get(name)
        worst = 0.0
        for i in range(100):
            fn, params = case(rng)
            rep = ad.check_gradients(fn, params, tolerance=TOLERANCE,
                                     max_coords_per_param=cap, seed=i)
            worst = max(worst, rep.max_rel_err)
        assert worst < TOLERANCE, f"operator {name}: max rel err {worst:.3e}"
        worst_overall = max(worst_overall, worst)
    for variant in ("mtl_simple", "stl_simple", "vqateam_stl", "vqateam_mtl"):
        rng = np.random.default_rng(zlib.crc32(variant.encode()))
        worst = 0.0
        for i in range(100):
            fn, params = model_loss_case(variant, rng)
            rep = ad.check_gradients(fn, params, tolerance=TOLERANCE,
                                     max_coords_per_param=3, seed=i)
            worst = max(worst, rep.max_rel_err)
        assert worst < TOLERANCE, f"variant {variant}: max rel err {worst:.3e}"
        worst_overall = max(worst_overall, worst)
    elapsed = time.time() - t0
    assert elapsed < 120.0, f"gradient suite took {elapsed:.1f}s"
    _report(1, True, f"max rel err {worst_overall:.2e}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 2. classifier fidelity

def test_criterion_2_classifier_fidelity():
    cfg = default_keyword_config()
    quoted = [
        ("how many orange balls are on the table", QuestionType.COUNT),
        ("what are on the wall on the left side of the green curtain "
         "but not behind the garbage bin", QuestionType.POSITION),
        ("which object is more", None),
        ("what is the largest red object", QuestionType.SIZE),
    ]
    for text, expected in quoted:
        got = classify_question(tokenize(text), cfg)
        assert got is expected, f"{text!r}: {got} != {expected}"

    rng = np.random.default_rng(20260808)
    entries = cfg.entries
    violations = 0
    for _ in range(1000):
        hi, lo = sorted(rng.choice(len(entries), size=2, replace=False))
        hi_type, hi_kws = entries[hi]
        lo_kws = entries[lo][1]
        hi_kw = hi_kws[int(rng.integers(0, len(hi_kws)))]
        lo_kw = lo_kws[int(rng.integers(0, len(lo_kws)))]
        filler = [f"zz{int(rng.integers(0, 20))}" for _ in range(3)]
        tokens = [filler[0], *lo_kw, filler[1], *hi_kw, filler[2]]
        if classify_question(tokens, cfg) is not hi_type:
            violations += 1
    assert violations == 0, f"{violations} priority violations in 1000 cases"
    _report(2, True, "4 quoted questions + 1000-case priority property")


# ---------------------------------------------------------------------------
# 3. reformatting oracles on a 100-image synthetic corpus

def _recursive_combination_count(group, tasks):
    """Count combinations by explicit recursion, independent of the
    production implementation."""
    pools = [group.by_type[t] for t in tasks if group.by_type.get(t)]
    if len(pools) < 2:
        return 0

    def count(depth):
        if depth == len(pools):
            return 1
        total = 0
        for _ in pools[depth]:
            total += count(depth + 1)
        return total

    return count(0)


def test_criterion_3_reformatting_oracles():
    questions, _ = gen_synthetic_corpus(SyntheticSceneConfig(num_images=100, seed=11))
    tasks = tuple(sorted({q.qtype for q in questions}, key=lambda t: t.value))
    groups = group_by_image(questions)
    combined = reformat_multitask(groups, tasks)

    per_image = {}
    for ex in combined:
        per_image[ex.image_id] = per_image.get(ex.image_id, 0) + 1
    for grp in groups:
        expected = _recursive_combination_count(grp, tasks)
        assert per_image.get(grp.image_id, 0) == expected, grp.image_id

    singles = flatten_single_task(combined)
    qualifying = {g.image_id for g in groups if len(g.present_types(tasks)) >= 2}
    union = {(q.image_id, q.qtype, q.tokens, q.answer)
             for q in questions if q.image_id in qualifying}
    assert {(s.image_id, s.qtype, s.tokens, s.answer) for s in singles} == union
    assert len(singles) == len(union)

    isolated = isolate_slots(combined)
    assert len(isolated) == sum(len(ex.slots) for ex in combined)
    _report(3, True, f"{len(combined)} combined examples over 100 images")


# ---------------------------------------------------------------------------
# 4. mask exactness (bit-exact, not tolerance-based)

def test_criterion_4_mask_exactness():
    # float32, as models train, and float64, as the gradient suite runs
    for dtype in (np.float32, np.float64):
        model = tiny_model("mtl_simple", seed=17, dtype=dtype)
        cfg = model.config
        rng = np.random.default_rng(17)
        batch = 4
        images = rng.normal(size=(batch, cfg.feature_dim))
        ids = rng.integers(0, cfg.vocab_size, size=(batch, model.n_heads, cfg.max_len))
        targets = np.full((batch, model.n_heads), -1, dtype=np.int64)
        mask = np.zeros((batch, model.n_heads), dtype=bool)

        ad.zero_grads(list(model.params.values()))
        loss, _ = model.loss(images, ids, targets, mask)
        loss.backward()
        assert loss.data.dtype == dtype and float(loss.data) == 0.0
        for name, p in model.params.items():
            if p.grad is not None:
                assert np.all(p.grad == 0.0), f"nonzero {dtype.__name__} gradient in {name}"
    _report(4, True, "all-masked batch, float32 and float64: loss bit-zero, "
                     "all gradients bit-zero")


# ---------------------------------------------------------------------------
# 5. overfit check

def test_criterion_5_overfit():
    """mtl_simple reaches >= 95 percent training accuracy on a 64-example
    noise-free synthetic corpus within 500 epochs, < 5 minutes."""
    t0 = time.time()
    scene = SyntheticSceneConfig(num_images=30, nouns=("ball", "box", "chair", "lamp"),
                                 colours=("red", "green", "blue", "white"),
                                 grid_size=2, sizes=("small", "large"), max_count=2,
                                 noise_std=0.0, seed=303, max_objects=2)
    bundle = harness.synthetic_bundle(30, 0, seed=303, scene=scene)
    train_set = bundle.train_combined[:64]
    assert len(train_set) == 64
    enc = bundle.encode_combined(train_set)
    model_cfg = harness.model_config_for_bundle(bundle, embed_dim=24,
                                                filters_per_width=12,
                                                hidden_dim=96, img_compress_dim=48)
    emb = random_embeddings(bundle.vocab, model_cfg.embed_dim, seed=303)
    model = build_model("mtl_simple", model_cfg, emb, seed=303)
    tcfg = harness.TrainConfig(batch_size=8, max_epochs_nadam=500, max_epochs_sgd=0,
                               patience=500, min_delta=0.0, val_fraction=0.02,
                               seed=303, keep="last")
    model, history = harness.train(model, enc, tcfg)
    accuracy = harness.evaluate(model, enc).total_accuracy
    elapsed = time.time() - t0
    assert len(history.records) <= 500
    assert elapsed < 300.0, f"overfit run took {elapsed:.0f}s"
    assert accuracy >= 95.0, f"training accuracy {accuracy:.2f}% < 95%"
    _report(5, True, f"{accuracy:.2f}% training accuracy in "
                     f"{len(history.records)} epochs, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 6. direction check

def test_criterion_6_direction_check():
    """Train/test the comparison pair on a 1000-image synthetic corpus
    (300 extra held-out test images), 3 seeds, default protocol.

    Asserted: mean MTL total >= mean STL total; MTL convergence epoch <=
    STL's in at least 2 of 3 seeds; wall time < 30 minutes.  Both arms
    are scored over the same distinct test questions.  The accuracy half
    once failed because the MTL arm was scored over the combined test
    set's slots, which repeat a question once per combination of its
    image's other questions and so overweight crowded, harder scenes,
    while the STL arm was scored per distinct question (see the module
    docstring).
    """
    t0 = time.time()
    bundle = harness.synthetic_bundle(1000, 300, noise_std=0.25, seed=0)
    model_cfg = harness.model_config_for_bundle(bundle)
    tcfg = harness.TrainConfig()
    report = harness.run_experiment("mtl_vs_stl", bundle, model_cfg, tcfg,
                                    seeds=(0, 1, 2))
    elapsed = time.time() - t0
    (mtl_label, _, mtl_total), (stl_label, _, stl_total), _ = report.rows
    conv_mtl = report.convergence["MTL"]
    conv_stl = report.convergence["STL"]
    conv_wins = sum(1 for a, b in zip(conv_mtl, conv_stl)
                    if a is not None and b is not None and a <= b)

    failures = []
    if not (mtl_total >= stl_total):
        failures.append(
            f"accuracy direction: MTL {mtl_total:.2f}% < STL {stl_total:.2f}%")
    if conv_wins < 2:
        failures.append(f"convergence direction: MTL <= STL in only {conv_wins}/3 seeds "
                        f"(MTL {conv_mtl}, STL {conv_stl})")
    if elapsed >= 1800.0:
        failures.append(f"runtime {elapsed:.0f}s >= 30 minutes")

    detail = (f"MTL {mtl_total:.2f}% vs STL {stl_total:.2f}%, "
              f"convergence {conv_mtl} vs {conv_stl}, {elapsed:.0f}s")
    _report(6, not failures, detail)
    assert not failures, "; ".join(failures)


# ---------------------------------------------------------------------------
# 7. shared-information mechanism

def test_criterion_7_shared_information_mechanism():
    bundle = harness.synthetic_bundle(120, 50, noise_std=0.1, seed=23)
    model_cfg = harness.model_config_for_bundle(bundle, embed_dim=12,
                                                filters_per_width=6,
                                                hidden_dim=32, img_compress_dim=16)
    tcfg = harness.TrainConfig(batch_size=32, max_epochs_nadam=15, max_epochs_sgd=0,
                               patience=15, seed=23)

    # exact invariance: a model trained on isolated slots scores test data
    # identically whether the examples arrive as the isolated dataset or as
    # separately constructed combined-format examples with padded slots
    iso_train = bundle.encode_combined(isolate_slots(bundle.train_combined))
    emb = random_embeddings(bundle.vocab, model_cfg.embed_dim, seed=23)
    model = build_model("mtl_simple", model_cfg, emb, seed=23)
    model, _ = harness.train(model, iso_train, tcfg)

    isolated_examples = isolate_slots(bundle.test_combined)
    rebuilt = [MultiTaskExample(tuple(ex.slots)) for ex in isolated_examples]
    enc_isolated = bundle.encode_combined(isolated_examples)
    enc_rebuilt = bundle.encode_combined(rebuilt)
    logits_a = harness.prediction_logits(model, enc_isolated)
    logits_b = harness.prediction_logits(model, enc_rebuilt)
    npt.assert_array_equal(logits_a, logits_b)
    rep_a = harness.evaluate(model, enc_isolated)
    rep_b = harness.evaluate(model, enc_rebuilt)
    assert rep_a.as_dict() == rep_b.as_dict()

    # combined-trained model: the combined-vs-split delta is recorded, not
    # asserted (the full-scale reference value is far below desk-scale noise)
    emb = random_embeddings(bundle.vocab, model_cfg.embed_dim, seed=23)
    model2 = build_model("mtl_simple", model_cfg, emb, seed=23)
    model2, _ = harness.train(model2, bundle.encode_combined(bundle.train_combined), tcfg)
    comb = harness.evaluate(model2, bundle.encode_combined(bundle.test_combined))
    split = harness.evaluate(model2, bundle.encode_combined(isolate_slots(bundle.test_combined)))
    delta = comb.total_accuracy - split.total_accuracy
    _report(7, True, f"bit-identical isolated evaluation; combined-vs-split "
                     f"delta {delta:+.3f} points (recorded)")


# ---------------------------------------------------------------------------
# 8. end-to-end determinism

def _experiment_argv(outdir):
    return ["experiment", "--kind", "mtl_vs_stl", "--out", str(outdir),
            "--seeds", "2", "--seed", "9",
            "--synth-images", "40", "--synth-test", "15", "--noise-std", "0.1",
            "--set", "max_epochs_nadam=3", "--set", "max_epochs_sgd=1",
            "--set", "batch_size=16",
            "--model-set", "embed_dim=8", "--model-set", "hidden_dim=16",
            "--model-set", "filters_per_width=4", "--model-set", "img_compress_dim=8"]


def test_criterion_8_determinism(tmp_path, capsys):
    assert cli_main(_experiment_argv(tmp_path / "run_a")) == 0
    assert cli_main(_experiment_argv(tmp_path / "run_b")) == 0
    capsys.readouterr()
    for name in ("report.csv", "per_seed.csv"):
        a = (tmp_path / "run_a" / name).read_bytes()
        b = (tmp_path / "run_b" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
    _report(8, True, "two end-to-end runs produced byte-identical CSV reports")


# ---------------------------------------------------------------------------
# 9. real-data example counts (optional: needs the real corpora on disk)

DAQUAR_ENV = "MTVQA_DAQUAR_TRAIN"
COCOQA_ENV = "MTVQA_COCOQA_TRAIN_DIR"


@pytest.mark.skipif(DAQUAR_ENV not in os.environ,
                    reason=f"set {DAQUAR_ENV} to the DAQUAR training QA file")
def test_criterion_9a_daquar_counts():
    raw = parse_daquar(os.environ[DAQUAR_ENV])
    assert len(raw) == 6794, f"source training examples: {len(raw)}"
    labeled, _ = label_corpus(raw, default_keyword_config())
    combined = reformat_multitask(group_by_image(labeled), DAQUAR_TASKS)
    stats = corpus_stats(combined)
    assert stats.n_examples == 92288, f"combined examples: {stats.n_examples}"
    _report("9a", True, f"DAQUAR: {len(raw)} source, {stats.n_examples} combined")


@pytest.mark.skipif(COCOQA_ENV not in os.environ,
                    reason=f"set {COCOQA_ENV} to the COCO-QA train directory")
def test_criterion_9b_cocoqa_counts():
    labeled = parse_cocoqa(os.environ[COCOQA_ENV])
    assert len(labeled) == 78736, f"source training examples: {len(labeled)}"
    combined = reformat_multitask(group_by_image(labeled), COCOQA_TASKS)
    stats = corpus_stats(combined)
    assert stats.n_examples == 240080, f"combined examples: {stats.n_examples}"
    _report("9b", True, f"COCO-QA: {len(labeled)} source, {stats.n_examples} combined")
