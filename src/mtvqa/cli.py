"""Command-line entry point orchestrating the pipeline.

Subcommands: ingest | synth | reformat | stats | train | eval | experiment
| report.  Every subcommand is deterministic given its inputs and seeds
(outputs are byte-identical on reruns except the manifest timestamp).  Data
errors exit 1 with a one-line message; usage errors exit 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import corpus, datasets, harness, models, reports, textenc
from .errors import ConfigError, FormatError, MtvqaError, open_text


def _seed(text):
    """`--seed`, else MTVQA_SEED, else 0, as a non-negative integer."""
    text = os.environ.get("MTVQA_SEED", "0") if text is None else text
    if not text.strip().isdecimal():
        raise ConfigError(f"seed must be a non-negative integer, got {text!r}")
    return int(text)


_PARSE = {"int": int, "float": float, "str": str,
          "tuple": lambda text: tuple(int(v) for v in text.split(",") if v)}


def _overrides(items, config_cls, flag):
    """`key=val` items as typed values of the defaulted fields of `config_cls`."""
    fields = {f.name: f.type for f in dataclasses.fields(config_cls)
              if f.default is not dataclasses.MISSING}
    out = {}
    for item in items or []:
        key, eq, val = item.partition("=")
        if not eq:
            raise ConfigError(f"{flag} expects key=val, got {item!r}")
        if key not in fields:
            raise ConfigError(f"{flag}: unknown option {key!r}")
        try:
            out[key] = _PARSE[fields[key]](val)
        except ValueError as exc:
            raise ConfigError(f"{flag}: bad value for {key}: {val!r}") from exc
    return out


def _train_config(args):
    overrides = _overrides(args.set, harness.TrainConfig, "--set")
    overrides.setdefault("seed", args.seed)
    cfg = dataclasses.replace(harness.TrainConfig(), **overrides)
    cfg.validate()
    return cfg


def _model_overrides(args):
    return _overrides(args.model_set, models.ModelConfig, "--model-set")


def _keyword_config(args):
    if getattr(args, "keywords", None):
        return corpus.load_keyword_config(args.keywords)
    return corpus.default_keyword_config()


# ---------------------------------------------------------------------------
# subcommands

def _cmd_ingest(args):
    if args.format == "daquar":
        raw = corpus.parse_daquar(args.input)
        labeled, rejected = corpus.label_corpus(raw, _keyword_config(args))
    else:
        labeled = corpus.parse_cocoqa(args.input)
        rejected = []
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    corpus.io.write_labeled(outdir / "labeled.tsv", labeled)
    corpus.io.write_rejections(outdir / "rejected.log", rejected)
    sample = corpus.audit_sample(labeled, seed=args.seed)
    corpus.io.write_audit(outdir / "audit.tsv", sample)
    print(f"labeled: {len(labeled)}")
    print(f"rejected: {len(rejected)}")
    print(f"audit sample: {len(sample)}")
    return 0


def _cmd_synth(args):
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    cfg = corpus.SyntheticSceneConfig(num_images=args.images, noise_std=args.noise_std,
                                      grid_size=args.grid_size, max_count=args.max_count,
                                      seed=args.seed)
    questions, feats = corpus.gen_synthetic_corpus(cfg)
    corpus.io.write_labeled(outdir / "labeled.tsv", questions)
    corpus.save_features(outdir / "features.feat", feats, binary=args.binary_features)
    print(f"questions: {len(questions)}")
    print(f"images: {len(feats)}")
    print(f"feature_dim: {feats.feature_dim}")
    return 0


def _parse_tasks(text):
    return tuple(corpus.parse_qtype(t) for t in text.split(",") if t.strip())


def _cmd_reformat(args):
    labeled = corpus.io.read_labeled(args.labeled)
    if args.tasks:
        tasks = _parse_tasks(args.tasks)
    else:
        present = {q.qtype for q in labeled}
        tasks = tuple(t for t in corpus.ALL_TYPES if t in present)
    groups = corpus.group_by_image(labeled)
    combined = corpus.reformat_multitask(groups, tasks)
    singles = corpus.flatten_single_task(combined)
    isolated = corpus.isolate_slots(combined)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    corpus.io.write_multitask(outdir / "multitask.tsv", combined, tasks)
    corpus.io.write_single(outdir / "single.tsv", singles)
    corpus.io.write_multitask(outdir / "isolated.tsv", isolated, tasks)
    for line in corpus.corpus_stats(combined).lines():
        print(line)
    return 0


def _cmd_stats(args):
    examples, _ = corpus.io.read_multitask(args.data)
    for line in corpus.corpus_stats(examples).lines():
        print(line)
    return 0


def _bundle_from_files(train_path, test_path, features_path):
    train_combined, tasks = corpus.io.read_multitask(train_path)
    test_combined, tasks_test = corpus.io.read_multitask(test_path)
    if tasks_test != tasks:
        raise ConfigError("train and test files declare different task sets")
    features = corpus.load_features(features_path)
    return harness.bundle_from_examples(train_combined, test_combined, features, tasks)


def _cmd_train(args):
    examples, tasks = corpus.io.read_multitask(args.data)
    features = corpus.load_features(args.features)
    bundle = harness.bundle_from_examples(examples, [], features, tasks)
    model_cfg = harness.model_config_for_bundle(bundle, **_model_overrides(args))
    if args.embeddings:
        emb = textenc.load_embeddings(args.embeddings, bundle.vocab,
                                      model_cfg.embed_dim, seed=args.seed)
    else:
        emb = textenc.random_embeddings(bundle.vocab, model_cfg.embed_dim, seed=args.seed)
    model = models.build_model(args.variant, model_cfg, emb, seed=args.seed)
    if model.n_heads == 1:
        enc = bundle.encode_singles(corpus.flatten_single_task(examples))
    else:
        enc = bundle.encode_combined(examples)
    train_cfg = _train_config(args)
    model, history = harness.train(model, enc, train_cfg)
    extras = {"tokens": bundle.vocab.id_to_token,
              "answers": bundle.answer_vocab.id_to_token,
              "train_config": dataclasses.asdict(train_cfg)}
    models.save_model(args.out, model, binary=not args.text_checkpoint, extras=extras)
    if args.history:
        Path(args.history).write_text(json.dumps(history.to_dict(), indent=2) + "\n",
                                      encoding="utf-8")
    report = harness.evaluate(model, enc)
    print(f"checkpoint: {args.out}")
    print(f"best_epoch: {history.best_epoch}")
    print(f"train_accuracy: {reports.fmt_rounded(report.total_accuracy or 0.0)}")
    return 0


def _checkpoint_vocab(path, extras, key, size):
    """The vocabulary of the checkpoint extra `key`: a list of `size` distinct strings."""
    items = extras.get(key)
    if not isinstance(items, list) or not all(isinstance(t, str) for t in items):
        raise FormatError(f"{path}: checkpoint extra {key!r} is not a list of strings")
    vocab = textenc.Vocabulary.of(items)
    if len(vocab) != size:
        raise FormatError(f"{path}: checkpoint extra {key!r} holds {len(vocab)} distinct "
                          f"entries, but the model expects {size}")
    return vocab


def _cmd_eval(args):
    model, extras = models.load_model_with_extras(args.model)
    if not isinstance(extras, dict) or "tokens" not in extras:
        raise ConfigError(f"{args.model}: checkpoint lacks vocabulary extras; "
                          "train it through this toolkit")
    vocab, avocab = (_checkpoint_vocab(args.model, extras, key, size)
                     for key, size in (("tokens", model.config.vocab_size),
                                       ("answers", model.config.n_answers)))
    features = corpus.load_features(args.features)
    with open_text(args.data) as fh:
        head = fh.readline()
    if head.startswith("mtvqa-multitask"):
        if model.n_heads == 1:
            raise ConfigError("single-head model cannot evaluate combined data; "
                              "pass a single.tsv file")
        examples, _ = corpus.io.read_multitask(args.data)
        enc = datasets.encode_multitask(examples, model.config.tasks, vocab, avocab,
                                        model.config.max_len, features)
    elif head.startswith("mtvqa-single"):
        if model.n_heads != 1:
            raise ConfigError("multi-head model expects combined data; "
                              "pass a multitask.tsv file")
        singles = corpus.io.read_single(args.data)
        enc = datasets.encode_single(singles, model.config.tasks, vocab, avocab,
                                     model.config.max_len, features)
    else:
        raise ConfigError(f"{args.data}: not a reformatted dataset file")
    report = harness.evaluate(model, enc)
    for t in enc.tasks:
        print(f"{t.value}: {reports.fmt_rounded(report.accuracy(t))} "
              f"({report.counts[t]} slots)")
    total = report.total_accuracy
    print(f"total: {reports.fmt_rounded(total)}")
    if args.out:
        rows = ["type,accuracy,count"]
        for t in enc.tasks:
            rows.append(f"{t.value},{reports.fmt_raw(report.accuracy(t))},{report.counts[t]}")
        rows.append(f"total,{reports.fmt_raw(total)},{sum(report.counts.values())}")
        Path(args.out).write_text("\n".join(rows) + "\n", encoding="utf-8")
    return 0


def _cmd_experiment(args):
    try:
        seeds = tuple(int(s) for s in args.seeds.split(",")) if "," in args.seeds \
            else tuple(range(args.seed, args.seed + int(args.seeds)))
    except ValueError as exc:
        raise ConfigError(f"--seeds expects a count or a list like 0,1,2, got {args.seeds!r}") from exc
    route = {"--train-data": args.train_data, "--test-data": args.test_data,
             "--features": args.features}
    missing = [flag for flag, path in route.items() if not path]
    if len(missing) < len(route):
        if missing:
            raise ConfigError(f"the real-data route needs {', '.join(missing)} as well")
        bundle = _bundle_from_files(args.train_data, args.test_data, args.features)
        source = {"train_data": args.train_data, "test_data": args.test_data,
                  "features": args.features}
    else:
        bundle = harness.synthetic_bundle(args.synth_images, args.synth_test,
                                          noise_std=args.noise_std, seed=args.seed)
        source = {"synthetic": {"train_images": args.synth_images,
                                "test_images": args.synth_test,
                                "noise_std": args.noise_std, "seed": args.seed}}
    overrides = _model_overrides(args)
    model_cfg = harness.model_config_for_bundle(bundle, **overrides)
    train_cfg = _train_config(args)
    report = harness.run_experiment(args.kind, bundle, model_cfg, train_cfg, seeds)
    manifest_extra = {"source": source,
                      "train_config": dataclasses.asdict(train_cfg),
                      "model_config": model_cfg.to_dict()}
    path = reports.write_experiment_reports(args.out, report, manifest_extra)
    print(f"report: {path}")
    for label, per_type, total in report.rows:
        print(f"{label}: total {reports.fmt_rounded(total)}")
    return 0


def _cmd_report(args):
    try:  # undecodable bytes and bad JSON raise ValueErrors
        history = harness.TrainHistory.from_dict(
            json.loads(Path(args.history).read_text(encoding="utf-8")))
    except (ValueError, FormatError) as exc:
        raise FormatError(f"{args.history}: {exc}") from exc
    if not history.records:
        raise ConfigError(f"{args.history}: empty training history")
    series = {"train loss": [r.train_loss for r in history.records],
              "validation loss": [r.val_loss for r in history.records]}
    reports.svg_line_plot(series, args.out, title="loss per epoch")
    print(f"plot: {args.out}")
    accs = [r.val_accuracy for r in history.records]
    if any(a is not None for a in accs):
        acc_path = Path(args.out).with_name(Path(args.out).stem + "_accuracy.svg")
        reports.svg_line_plot({"validation accuracy":
                               [a for a in accs if a is not None]},
                              acc_path, title="validation accuracy per epoch")
        print(f"plot: {acc_path}")
    return 0


# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="mtvqa",
        description="Reformat question corpora into a combined multi-question "
                    "format and train/evaluate the comparison networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_seed(p):
        p.add_argument("--seed", help="seed (default: MTVQA_SEED env var or 0)")

    p = sub.add_parser("ingest", help="parse a raw corpus and label question types")
    p.add_argument("--format", choices=("daquar", "cocoqa"), required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--keywords", help="keyword config file (priority order)")
    add_seed(p)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("synth", help="generate a seeded synthetic corpus")
    p.add_argument("--images", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--noise-std", type=float, default=0.0)
    p.add_argument("--grid-size", type=int, default=2)
    p.add_argument("--max-count", type=int, default=3)
    p.add_argument("--binary-features", action="store_true")
    add_seed(p)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("reformat", help="emit combined, single and isolated datasets")
    p.add_argument("--labeled", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--tasks", help="comma-separated task subset (default: present types)")
    p.set_defaults(func=_cmd_reformat)

    p = sub.add_parser("stats", help="print statistics of a combined dataset")
    p.add_argument("--data", required=True)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("train", help="train one model variant")
    p.add_argument("--data", required=True, help="multitask.tsv")
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--variant", choices=models.VARIANTS, default="mtl_simple")
    p.add_argument("--embeddings", help="pretrained embedding text file")
    p.add_argument("--history", help="write training history JSON here")
    p.add_argument("--text-checkpoint", action="store_true",
                   help="write text (mtvqa-ckpt v2 text: values widened to float64, "
                        "their bits as hex), not .npz")
    p.add_argument("--set", action="append", metavar="KEY=VAL",
                   help="TrainConfig override")
    p.add_argument("--model-set", action="append", metavar="KEY=VAL",
                   help="ModelConfig override")
    add_seed(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", help="write a CSV report here")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("experiment", help="run one of the comparison protocols")
    p.add_argument("--kind", choices=harness.EXPERIMENT_KINDS, required=True)
    p.add_argument("--out", required=True, help="report directory")
    p.add_argument("--seeds", default="3",
                   help="count (N consecutive from --seed) or explicit list 0,1,2")
    p.add_argument("--synth-images", type=int, default=1000)
    p.add_argument("--synth-test", type=int, default=300)
    p.add_argument("--noise-std", type=float, default=0.25)
    p.add_argument("--train-data", help="combined train file (real-data route)")
    p.add_argument("--test-data", help="combined test file (real-data route)")
    p.add_argument("--features", help="feature file (real-data route)")
    p.add_argument("--set", action="append", metavar="KEY=VAL")
    p.add_argument("--model-set", action="append", metavar="KEY=VAL")
    add_seed(p)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("report", help="render loss curves from a history file")
    p.add_argument("--history", required=True)
    p.add_argument("--out", required=True, help="output SVG path")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if "seed" in vars(args):
            args.seed = _seed(args.seed)
        return args.func(args)
    except (MtvqaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
