import json

import pytest

from mtvqa.cli import main

from test_archives import MUTATIONS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_no_arguments_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_file_is_data_error(capsys, tmp_path):
    code, _, err = run(capsys, "stats", "--data", str(tmp_path / "nope.tsv"))
    assert code == 1
    assert err.startswith("error:")


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """synth -> reformat once for the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    assert main(["synth", "--images", "16", "--out", str(root / "corpus"),
                 "--seed", "3"]) == 0
    assert main(["reformat", "--labeled", str(root / "corpus" / "labeled.tsv"),
                 "--out", str(root / "data")]) == 0
    return root


def test_synth_and_reformat_outputs(pipeline_dir):
    corpus = pipeline_dir / "corpus"
    data = pipeline_dir / "data"
    assert (corpus / "labeled.tsv").exists()
    assert (corpus / "features.feat").exists()
    for name in ("multitask.tsv", "single.tsv", "isolated.tsv"):
        assert (data / name).exists()


@pytest.mark.parametrize("tasks, message", [("colour,colour", "colour is repeated"),
                                            ("colour", "at least two")])
def test_reformat_rejects_a_bad_task_set_with_one_error_line(pipeline_dir, capsys, tmp_path,
                                                             tasks, message):
    code, _, err = run(capsys, "reformat", "--labeled",
                       str(pipeline_dir / "corpus" / "labeled.tsv"),
                       "--out", str(tmp_path / "data"), "--tasks", tasks)
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1 and message in err, err
    assert not (tmp_path / "data").exists()


def test_stats_prints_example_count(pipeline_dir, capsys):
    code, out, _ = run(capsys, "stats", "--data",
                       str(pipeline_dir / "data" / "multitask.tsv"))
    assert code == 0
    assert out.splitlines()[0].startswith("examples: ")


def test_train_eval_cycle(pipeline_dir, capsys, tmp_path):
    ckpt = tmp_path / "model.ckpt"
    hist = tmp_path / "hist.json"
    code, out, _ = run(capsys, "train",
                       "--data", str(pipeline_dir / "data" / "multitask.tsv"),
                       "--features", str(pipeline_dir / "corpus" / "features.feat"),
                       "--out", str(ckpt), "--history", str(hist), "--seed", "1",
                       "--set", "max_epochs_nadam=2", "--set", "max_epochs_sgd=1",
                       "--set", "batch_size=16",
                       "--model-set", "embed_dim=8", "--model-set", "hidden_dim=12",
                       "--model-set", "filters_per_width=3",
                       "--model-set", "img_compress_dim=6")
    assert code == 0 and ckpt.exists() and hist.exists()
    payload = json.loads(hist.read_text())
    assert len(payload["records"]) == 3

    code, out, _ = run(capsys, "eval", "--model", str(ckpt),
                       "--data", str(pipeline_dir / "data" / "multitask.tsv"),
                       "--features", str(pipeline_dir / "corpus" / "features.feat"),
                       "--out", str(tmp_path / "eval.csv"))
    assert code == 0
    assert out.strip().splitlines()[-1].startswith("total:")
    assert (tmp_path / "eval.csv").read_text().startswith("type,accuracy,count")

    code, out, _ = run(capsys, "report", "--history", str(hist),
                       "--out", str(tmp_path / "curves.svg"))
    assert code == 0
    assert (tmp_path / "curves.svg").read_text().startswith("<svg")


def test_eval_rejects_wrong_format(pipeline_dir, capsys, tmp_path):
    ckpt = tmp_path / "model.ckpt"
    assert main(["train",
                 "--data", str(pipeline_dir / "data" / "multitask.tsv"),
                 "--features", str(pipeline_dir / "corpus" / "features.feat"),
                 "--out", str(ckpt), "--seed", "1",
                 "--set", "max_epochs_nadam=1", "--set", "max_epochs_sgd=0",
                 "--model-set", "embed_dim=4", "--model-set", "hidden_dim=6",
                 "--model-set", "filters_per_width=2",
                 "--model-set", "img_compress_dim=4"]) == 0
    code, _, err = run(capsys, "eval", "--model", str(ckpt),
                       "--data", str(pipeline_dir / "data" / "single.tsv"),
                       "--features", str(pipeline_dir / "corpus" / "features.feat"))
    assert code == 1
    assert "multitask" in err


def test_eval_on_a_type_the_model_has_no_head_for_exits_1_naming_it(pipeline_dir, capsys,
                                                                   tmp_path):
    assert main(["reformat", "--labeled", str(pipeline_dir / "corpus" / "labeled.tsv"),
                 "--out", str(tmp_path / "data"), "--tasks", "object,colour"]) == 0
    assert main(["train", "--data", str(tmp_path / "data" / "multitask.tsv"),
                 "--features", str(pipeline_dir / "corpus" / "features.feat"),
                 "--out", str(tmp_path / "m.ckpt"), "--set", "max_epochs_nadam=1",
                 "--set", "max_epochs_sgd=0", "--model-set", "embed_dim=4",
                 "--model-set", "hidden_dim=6"]) == 0
    capsys.readouterr()
    code, out, err = run(capsys, "eval", "--model", str(tmp_path / "m.ckpt"),
                         "--data", str(pipeline_dir / "data" / "multitask.tsv"),
                         "--features", str(pipeline_dir / "corpus" / "features.feat"))
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "question type count is not in the task set (object, colour)" in err


def test_text_checkpoint_is_v2_and_evaluates_like_the_binary_one(pipeline_dir, capsys,
                                                                  tmp_path):
    data = ["--data", str(pipeline_dir / "data" / "multitask.tsv"),
            "--features", str(pipeline_dir / "corpus" / "features.feat")]
    settings = ["--seed", "1", "--set", "max_epochs_nadam=1", "--set", "max_epochs_sgd=1",
                "--model-set", "embed_dim=4", "--model-set", "hidden_dim=6",
                "--model-set", "filters_per_width=2", "--model-set", "img_compress_dim=4"]
    csvs = {}
    for kind, flag in (("text", ["--text-checkpoint"]), ("binary", [])):
        ckpt = tmp_path / f"{kind}.ckpt"
        assert main(["train", *data, "--out", str(ckpt), *settings, *flag]) == 0
        assert main(["eval", "--model", str(ckpt), *data,
                     "--out", str(tmp_path / f"{kind}.csv")]) == 0
        csvs[kind] = (tmp_path / f"{kind}.csv").read_text()
    capsys.readouterr()
    with open(tmp_path / "text.ckpt", encoding="utf-8") as fh:
        assert fh.readline().startswith("mtvqa-ckpt v2 text")
    assert csvs["text"] == csvs["binary"]


def test_malformed_checkpoint_exits_1_with_one_error_line(pipeline_dir, capsys, tmp_path):
    ckpt = tmp_path / "model.txt"
    ckpt.write_text('mtvqa-ckpt v1 text 1\nconfig {"variant": \nlayer.b\t2\t0.5 abc\n')
    code, _, err = run(capsys, "eval", "--model", str(ckpt),
                       "--data", str(pipeline_dir / "data" / "multitask.tsv"),
                       "--features", str(pipeline_dir / "corpus" / "features.feat"))
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1, err


def test_eval_of_a_bad_config_echo_exits_1_with_one_error_line(pipeline_dir, capsys,
                                                               tmp_path):
    from mtvqa.autodiff.checkpoint import load_checkpoint, save_checkpoint
    ckpt = tmp_path / "model.ckpt"
    assert main(_train_argv(pipeline_dir, tmp_path, "--set", "max_epochs_nadam=1",
                            "--set", "max_epochs_sgd=0", "--model-set", "embed_dim=4",
                            "--model-set", "hidden_dim=6")) == 0
    capsys.readouterr()
    params, meta = load_checkpoint(tmp_path / "m.ckpt")
    meta["config"]["filter_widths"] = None
    save_checkpoint(ckpt, params, config=meta)
    code, _, err = run(capsys, "eval", "--model", str(ckpt),
                       "--data", str(pipeline_dir / "data" / "multitask.tsv"),
                       "--features", str(pipeline_dir / "corpus" / "features.feat"))
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "filter_widths" in err


@pytest.mark.parametrize("case", ["answers_missing", "answers_short", "tokens_not_strings"])
def test_eval_of_bad_vocabulary_extras_exits_1_naming_the_checkpoint(pipeline_dir, capsys,
                                                                     tmp_path, case):
    from mtvqa.autodiff.checkpoint import load_checkpoint, save_checkpoint
    assert main(_train_argv(pipeline_dir, tmp_path, "--set", "max_epochs_nadam=1",
                            "--set", "max_epochs_sgd=0", "--model-set", "embed_dim=4",
                            "--model-set", "hidden_dim=6")) == 0
    capsys.readouterr()
    params, meta = load_checkpoint(tmp_path / "m.ckpt")
    extras = meta["extras"]
    if case == "answers_missing":
        del extras["answers"]
    elif case == "answers_short":
        extras["answers"] = extras["answers"][:-1]
    else:
        extras["tokens"] = list(range(len(extras["tokens"])))
    ckpt = tmp_path / "bad.ckpt"
    save_checkpoint(ckpt, params, config=meta)
    code, out, err = run(capsys, "eval", "--model", str(ckpt),
                         "--data", str(pipeline_dir / "data" / "multitask.tsv"),
                         "--features", str(pipeline_dir / "corpus" / "features.feat"))
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert str(ckpt) in err and repr(case.split("_")[0]) in err


def _experiment_args(outdir, seed="5"):
    return ["experiment", "--kind", "mtl_vs_stl", "--out", str(outdir),
            "--seeds", "1", "--seed", seed,
            "--synth-images", "12", "--synth-test", "6", "--noise-std", "0.0",
            "--set", "max_epochs_nadam=2", "--set", "max_epochs_sgd=1",
            "--set", "batch_size=16",
            "--model-set", "embed_dim=8", "--model-set", "hidden_dim=12",
            "--model-set", "filters_per_width=3", "--model-set", "img_compress_dim=6"]


def test_experiment_writes_reports(tmp_path, capsys):
    code, out, _ = run(capsys, *_experiment_args(tmp_path / "exp"))
    assert code == 0
    outdir = tmp_path / "exp"
    csv = (outdir / "report.csv").read_text()
    assert csv.splitlines()[0].startswith("label,")
    assert csv.count("\n") == 4  # header + MTL + STL + Difference
    assert (outdir / "report.md").exists()
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["kind"] == "mtl_vs_stl"
    assert manifest["seeds"] == [5]


def test_experiment_reruns_byte_identical(tmp_path, capsys):
    assert main(_experiment_args(tmp_path / "a")) == 0
    assert main(_experiment_args(tmp_path / "b")) == 0
    capsys.readouterr()
    for name in ("report.csv", "per_seed.csv", "report.md"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("seeds", ["0", "1,", "x"])
def test_experiment_rejects_bad_seeds(tmp_path, capsys, seeds):
    argv = _experiment_args(tmp_path / "exp")
    argv[argv.index("--seeds") + 1] = seeds
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1


def test_ingest_daquar(tmp_path, capsys):
    raw = tmp_path / "qa.txt"
    raw.write_text("how many chairs are in the image1 ?\n2\n"
                   "which object is more the image1 ?\nnothing\n")
    code, out, _ = run(capsys, "ingest", "--format", "daquar", "--input", str(raw),
                       "--out", str(tmp_path / "ing"))
    assert code == 0
    assert "labeled: 1" in out and "rejected: 1" in out
    assert (tmp_path / "ing" / "labeled.tsv").exists()
    rejected = (tmp_path / "ing" / "rejected.log").read_text()
    assert "no keyword matched" in rejected
    assert (tmp_path / "ing" / "audit.tsv").exists()


def test_ingest_cocoqa(tmp_path, capsys):
    d = tmp_path / "cq"
    d.mkdir()
    (d / "questions.txt").write_text("what is the color of the bus\nhow many dogs\n")
    (d / "answers.txt").write_text("red\ntwo\n")
    (d / "img_ids.txt").write_text("17\n18\n")
    (d / "types.txt").write_text("2\n1\n")
    code, out, _ = run(capsys, "ingest", "--format", "cocoqa", "--input", str(d),
                       "--out", str(tmp_path / "out"))
    assert code == 0
    assert "labeled: 2" in out
    labeled = (tmp_path / "out" / "labeled.tsv").read_text()
    assert "colour" in labeled and "count" in labeled


def test_experiment_real_data_route(pipeline_dir, tmp_path, capsys):
    # split the reformatted synthetic corpus into two halves and feed them
    # through the real-data flags
    from mtvqa.corpus import io as cio
    examples, tasks = cio.read_multitask(pipeline_dir / "data" / "multitask.tsv")
    half = len(examples) // 2
    cio.write_multitask(tmp_path / "train.tsv", examples[:half], tasks)
    cio.write_multitask(tmp_path / "test.tsv", examples[half:], tasks)
    code, out, _ = run(capsys, "experiment", "--kind", "shared_info_control",
                       "--out", str(tmp_path / "exp"),
                       "--seeds", "1", "--seed", "2",
                       "--train-data", str(tmp_path / "train.tsv"),
                       "--test-data", str(tmp_path / "test.tsv"),
                       "--features", str(pipeline_dir / "corpus" / "features.feat"),
                       "--set", "max_epochs_nadam=2", "--set", "max_epochs_sgd=0",
                       "--set", "batch_size=16",
                       "--model-set", "embed_dim=8", "--model-set", "hidden_dim=12",
                       "--model-set", "filters_per_width=3",
                       "--model-set", "img_compress_dim=6")
    assert code == 0
    csv = (tmp_path / "exp" / "report.csv").read_text()
    assert csv.splitlines()[1].startswith("Combined test,")
    source = json.loads((tmp_path / "exp" / "manifest.json").read_text())["source"]
    assert source == {"train_data": str(tmp_path / "train.tsv"),
                      "test_data": str(tmp_path / "test.tsv"),
                      "features": str(pipeline_dir / "corpus" / "features.feat")}


@pytest.mark.parametrize("given", [("--train-data", "--test-data"), ("--features",),
                                   ("--test-data", "--features")])
def test_experiment_rejects_a_partial_real_data_route(given, pipeline_dir, tmp_path, capsys):
    paths = {"--train-data": pipeline_dir / "data" / "multitask.tsv",
             "--test-data": pipeline_dir / "data" / "multitask.tsv",
             "--features": pipeline_dir / "corpus" / "features.feat"}
    argv = _experiment_args(tmp_path / "exp")
    for flag in given:
        argv += [flag, str(paths[flag])]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert all((flag in err) != (flag in given) for flag in paths), err
    assert not (tmp_path / "exp").exists()


def test_report_writes_accuracy_plot(pipeline_dir, tmp_path, capsys):
    ckpt = tmp_path / "m.ckpt"
    hist = tmp_path / "h.json"
    assert main(["train",
                 "--data", str(pipeline_dir / "data" / "multitask.tsv"),
                 "--features", str(pipeline_dir / "corpus" / "features.feat"),
                 "--out", str(ckpt), "--history", str(hist), "--seed", "1",
                 "--set", "max_epochs_nadam=2", "--set", "max_epochs_sgd=0",
                 "--model-set", "embed_dim=4", "--model-set", "hidden_dim=6",
                 "--model-set", "filters_per_width=2",
                 "--model-set", "img_compress_dim=4"]) == 0
    code, out, _ = run(capsys, "report", "--history", str(hist),
                       "--out", str(tmp_path / "loss.svg"))
    assert code == 0
    assert (tmp_path / "loss.svg").exists()
    assert (tmp_path / "loss_accuracy.svg").exists()


_UNDECODABLE = b"\xff\xfe\x00binary"


@pytest.mark.parametrize("reader", ["stats_data", "reformat_labeled", "train_data",
                                    "train_features", "train_embeddings", "eval_model",
                                    "eval_data", "ingest_daquar", "ingest_cocoqa",
                                    "ingest_keywords"])
def test_undecodable_input_exits_1_naming_the_file(reader, pipeline_dir, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(_UNDECODABLE)
    data = str(pipeline_dir / "data" / "multitask.tsv")
    features = str(pipeline_dir / "corpus" / "features.feat")
    daquar = tmp_path / "qa.txt"
    daquar.write_text("how many chairs are in the image1 ?\n2\n")
    cocoqa = tmp_path / "cq"
    cocoqa.mkdir()
    for name in ("questions.txt", "answers.txt", "img_ids.txt", "types.txt"):
        (cocoqa / name).write_bytes(_UNDECODABLE)
    ckpt = tmp_path / "m.ckpt"
    if reader == "eval_data":
        assert main(_train_argv(pipeline_dir, tmp_path, "--set", "max_epochs_nadam=1",
                                "--set", "max_epochs_sgd=0", "--model-set", "embed_dim=4",
                                "--model-set", "hidden_dim=6")) == 0
        capsys.readouterr()
    train = ["train", "--data", data, "--features", features, "--out", str(tmp_path / "t.ckpt")]
    argv = {"stats_data": ["stats", "--data", str(bad)],
            "reformat_labeled": ["reformat", "--labeled", str(bad), "--out", str(tmp_path)],
            "train_data": train[:2] + [str(bad)] + train[3:],
            "train_features": train[:4] + [str(bad)] + train[5:],
            "train_embeddings": train + ["--embeddings", str(bad)],
            "eval_model": ["eval", "--model", str(bad), "--data", data, "--features", features],
            "eval_data": ["eval", "--model", str(ckpt), "--data", str(bad),
                          "--features", features],
            "ingest_daquar": ["ingest", "--format", "daquar", "--input", str(bad),
                              "--out", str(tmp_path / "ing")],
            "ingest_cocoqa": ["ingest", "--format", "cocoqa", "--input", str(cocoqa),
                              "--out", str(tmp_path / "ing")],
            "ingest_keywords": ["ingest", "--format", "daquar", "--input", str(daquar),
                                "--keywords", str(bad), "--out", str(tmp_path / "ing")]}[reader]
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1, err
    named = cocoqa / "questions.txt" if reader == "ingest_cocoqa" else bad
    assert f"{named}: not UTF-8 text" in err, err
    assert not (tmp_path / "t.ckpt").exists() and not (tmp_path / "ing").exists()


def _train_argv(pipeline_dir, tmp_path, *extra):
    return ["train", "--data", str(pipeline_dir / "data" / "multitask.tsv"),
            "--features", str(pipeline_dir / "corpus" / "features.feat"),
            "--out", str(tmp_path / "m.ckpt"), *extra]


def test_eval_of_a_bit_flipped_binary_checkpoint_exits_1_naming_it(pipeline_dir, capsys,
                                                                   tmp_path):
    ckpt = tmp_path / "m.ckpt"
    assert main(_train_argv(pipeline_dir, tmp_path, "--set", "max_epochs_nadam=1",
                            "--set", "max_epochs_sgd=0", "--model-set", "embed_dim=4",
                            "--model-set", "hidden_dim=6")) == 0
    capsys.readouterr()
    ckpt.write_bytes(MUTATIONS["central_encrypted_flag"](ckpt.read_bytes()))
    code, out, err = run(capsys, "eval", "--model", str(ckpt),
                         "--data", str(pipeline_dir / "data" / "multitask.tsv"),
                         "--features", str(pipeline_dir / "corpus" / "features.feat"))
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert str(ckpt) in err, err


def _history(**record):
    """A one-record history JSON whose record has the fields `record` sets."""
    record = dict({"epoch": 1, "phase": "nadam", "train_loss": 0.5, "val_loss": 0.6,
                   "val_accuracy": 50.0}, **record)
    return json.dumps({"records": [record], "convergence_epoch": {}, "best_epoch": None,
                       "best_val_loss": None, "phase_transition_epoch": None})


# what `mtvqa report` reads as a training history, by case
_BAD_HISTORIES = {"history_no_records": "{}",
                  "history_record_fields": '{"records": [{"epoch": 1, "phase": "nadam"}], '
                                           '"convergence_epoch": {}, "best_epoch": null, '
                                           '"best_val_loss": null, '
                                           '"phase_transition_epoch": null}',
                  "history_not_json": "epoch 1: loss 0.5\n",
                  "history_train_loss_str": _history(train_loss="x"),
                  "history_val_accuracy_str": _history(val_accuracy="abc"),
                  "history_train_loss_bool": _history(train_loss=True),
                  "history_val_loss_nan": _history(val_loss=float("nan")),
                  "history_epoch_zero": _history(epoch=0),
                  "history_phase_unknown": _history(phase="adam")}


@pytest.mark.parametrize("case", ["synth_seed", "train_seed", "env_seed", "set_seed",
                                  "model_set", "classifier_dims", *_BAD_HISTORIES])
def test_input_errors_exit_1_with_one_error_line(case, pipeline_dir, tmp_path, capsys,
                                                 monkeypatch):
    synth = ["synth", "--images", "4", "--out", str(tmp_path / "c")]
    if case in _BAD_HISTORIES:
        (tmp_path / "h.json").write_text(_BAD_HISTORIES[case])
    argv = {"synth_seed": synth + ["--seed", "-1"],
            "train_seed": _train_argv(pipeline_dir, tmp_path, "--seed", "-1"),
            "env_seed": synth,
            "set_seed": _train_argv(pipeline_dir, tmp_path, "--set", "seed=-1"),
            "model_set": _train_argv(pipeline_dir, tmp_path,
                                     "--model-set", "hidden_dim=x"),
            "classifier_dims": _train_argv(pipeline_dir, tmp_path, "--variant", "vqateam_mtl",
                                           "--model-set", "classifier_dims=0")}.get(
        case, ["report", "--history", str(tmp_path / "h.json"),
               "--out", str(tmp_path / "loss.svg")])
    if case == "env_seed":
        monkeypatch.setenv("MTVQA_SEED", "abc")
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert not (tmp_path / "m.ckpt").exists() and not (tmp_path / "loss.svg").exists()


def test_bad_env_seed_leaves_seedless_subcommands_alone(pipeline_dir, capsys, monkeypatch):
    monkeypatch.setenv("MTVQA_SEED", "abc")
    code, out, _ = run(capsys, "stats", "--data",
                       str(pipeline_dir / "data" / "multitask.tsv"))
    assert code == 0 and out.startswith("examples: ")
