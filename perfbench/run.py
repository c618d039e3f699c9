"""The mtvqa benchmark: one workload per process, BLAS pinned to one thread.

Run from the repository root:

    python3 perfbench/run.py --workload conv_mtl_vs_stl --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --smoke          # every workload at toy size, self-checks
    python3 perfbench/run.py --thread-sweep   # s/epoch per variant at 1 and 2 BLAS threads

A run repeats set-up plus the workload's measured section until
``--seconds`` have passed and reports medians over the repetitions; set-up
runs before every repetition, so its samples spread over the whole run as
the repetitions' do.  A fixed reference job (``reference.py``) runs after
every repetition, and each set-up and repetition is scaled by the
machine's speed it measured around them.  With ``--trace 1`` it alternates
untraced and traced passes (set-up plus one repetition each) and reports
the per-layer figures of the traced passes, averaged, plus the tracing
overhead.  Human-readable lines come first; the last line of standard
output is the JSON result.  Results, the environment record, spans and
experiment reports go to ``.perfbench_out/`` under the working directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# set-ups before each repetition: one, or more until they took this long
SETUP_SLOT_SECONDS = 0.25
SMOKE_SEEDS = (11, 12)
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# what one item is, per workload, under the name later claims use
ITEM_NAMES = {
    "train": ("train_examples_per_s", "examples/s"),
    "evaluate": ("eval_examples_per_s", "examples/s"),
}
OP_METRIC = re.compile(r"autodiff\.(\w+)\.(calls|fwd_self_s|bwd_s)")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--threads", type=int, default=1,
                    help="BLAS threads; the benchmark's own runs use 1")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--thread-sweep", action="store_true")
    ap.add_argument("--epoch-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (args.smoke or args.thread_sweep or args.epoch_probe or args.workload):
        ap.error("give --workload, --smoke or --thread-sweep")
    return args


def import_package():
    """mtvqa from this checkout's src/, never from anywhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "mtvqa", "__init__.py")):
        raise SystemExit(f"perfbench: no mtvqa sources under {src}")
    sys.path.insert(0, src)
    import mtvqa
    if not os.path.abspath(mtvqa.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: imported mtvqa from {mtvqa.__file__}, not {src}")
    return mtvqa


def environment():
    import numpy
    try:
        blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy before 1.26 only prints its config
        blas = {}
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "nproc": len(os.sched_getaffinity(0)), "git_sha": git_sha()}


def git_sha():
    """HEAD of the checkout when it is a git repository, else None."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None  # not the sha of a repository the checkout may sit in
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def registry():
    """End-to-end and per-layer metrics, {name: (unit, better)}, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]},
            {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]})


# ---------------------------------------------------------------------------
# measurement

def run_workload(m, name, seed, seconds, trace, toy=False):
    from workloads import WORKLOADS, Probe

    outdir = os.path.join(os.getcwd(), ".perfbench_out")
    os.makedirs(outdir, exist_ok=True)
    wl = WORKLOADS[name](m, outdir, toy=toy)
    probe = Probe(m)
    patch = probe.install()
    try:
        if trace:
            res = _traced(m, wl, probe, seed, seconds, outdir)
        else:
            res = _timed(wl, probe, seed, seconds)
    finally:
        patch.undo()
    res.update(workload=name, seed=seed, trace=trace, toy=toy,
               attempted=probe.attempted, failed=probe.failed,
               failures=probe.failures + res.pop("errors"))
    res["correct"] = not res["failures"]
    return res


def _rep(wl, state, probe):
    """One repetition: (wall seconds, items, seconds in the main ops, Rep)."""
    gc.collect()  # no garbage left by the previous repetition is collected in this one
    failed_before = probe.failed
    t0 = time.perf_counter()
    try:
        rep = wl.run(state, probe)
    except Exception:
        if probe.failed == failed_before:  # not raised by an accounted operation
            probe.ops["workload"].calls += 1
            probe.ops["workload"].failed += 1
        probe.failures.append(traceback.format_exc(limit=3))
        rep = None
    wall = time.perf_counter() - t0
    taken = [probe.take(op) for op in wl.main_ops]
    return wall, sum(i for i, _ in taken), sum(s for _, s in taken), rep


def _time_left(begin, seconds, last):
    """Whether another step of `last` seconds ends, on average, by the deadline."""
    return time.perf_counter() - begin + last / 2 < seconds


def _fingerprint_errors(reps):
    prints = [r.fingerprint for r in reps if r is not None]
    if any(p != prints[0] for p in prints[1:]):
        return ["fingerprint differs between repetitions of one seed: "
                + json.dumps(prints)]
    return []


def _set_up(wl, seed, setups):
    """Set up once, or more often until SETUP_SLOT_SECONDS have passed, appending
    each set-up's seconds to `setups`; returns the last state."""
    gc.collect()  # garbage of the previous repetition is not collected in set-up
    spent = 0.0
    while True:
        t0 = time.perf_counter()
        state = wl.setup(seed)
        setups.append(time.perf_counter() - t0)
        spent += setups[-1]
        if spent >= SETUP_SLOT_SECONDS:
            return state
        del state  # freed outside the timed set-up


def _timed(wl, probe, seed, seconds):
    import reference

    # a first, untimed set-up and repetition let the process's memory and caches grow
    reps = [_rep(wl, _set_up(wl, seed, []), probe)[3]]
    raw = {"setup_s": [], "wall_s": []}
    setups, walls, rates, refs = [], [], [], [reference.run()]
    begin, last = time.perf_counter(), 0.0
    while not walls or _time_left(begin, seconds, last):
        t0 = time.perf_counter()
        n_setups = len(raw["setup_s"])
        state = _set_up(wl, seed, raw["setup_s"])
        wall, items, secs, rep = _rep(wl, state, probe)
        state = None  # not alive during the reference job and the next set-up
        refs.append(reference.run())
        reps.append(rep)
        if rep is None:
            break
        scale = reference.scale(refs[-2], refs[-1])
        setups += [s * scale for s in raw["setup_s"][n_setups:]]
        raw["wall_s"].append(wall)
        walls.append(wall * scale)
        rates.append(items / (secs * scale))
        last = time.perf_counter() - t0
    if not walls:
        raise RuntimeError("no repetition completed:\n" + "\n".join(probe.failures))
    metrics = {"setup_s": statistics.median(setups),
               "wall_s": statistics.median(walls),
               "items_per_s": statistics.median(rates),
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    shown = {}
    for key in reps[0].shown if reps[0] is not None else ():
        vals = [r.shown[key][0] for r in reps if r is not None]
        shown[key] = (statistics.median(vals), reps[0].shown[key][1])
    item_name, item_unit = ITEM_NAMES[wl.main_ops[0]]
    shown[item_name] = (metrics["items_per_s"], item_unit)
    shown["unscaled_setup_s"] = (statistics.median(raw["setup_s"]), "s")
    shown["unscaled_wall_s"] = (statistics.median(raw["wall_s"]), "s")
    shown["reference_s"] = (statistics.median(refs), "s")
    return {"metrics": metrics, "shown": shown, "repetitions": len(walls),
            "samples": {"setup_s": setups, "wall_s": walls, "items_per_s": rates,
                        "reference_s": refs, **{"unscaled_" + k: v for k, v in raw.items()}},
            "fingerprint": next((r.fingerprint for r in reps if r is not None), None),
            "errors": _fingerprint_errors(reps)}


def _traced(m, wl, probe, seed, seconds, outdir):
    from tracing import Tracer, save_spans

    tracers, walls = [], {False: [], True: []}
    reps = [_rep(wl, wl.setup(seed), probe)[3]]  # untimed, as in _timed
    begin = time.perf_counter()
    k, last = 0, 0.0
    while k < 2 or _time_left(begin, seconds, last):
        traced = k % 2 == 1
        tracer = Tracer(m) if traced else None
        if tracer:
            tracer.install()
        t0 = time.perf_counter()
        try:
            state = wl.setup(seed)
            wall, _, _, rep = _rep(wl, state, probe)
        finally:
            if tracer:
                tracer.uninstall()
        reps.append(rep)
        if rep is not None:
            walls[traced].append(wall)
            if tracer:
                tracers.append(tracer)
        k, last = k + 1, time.perf_counter() - t0
    if not (walls[False] and walls[True]):
        raise RuntimeError("no traced repetition completed:\n" + "\n".join(probe.failures))
    per_pass = [t.layer_metrics() for t in tracers]
    metrics = {key: sum(p[key] for p in per_pass) / len(per_pass) for key in per_pass[0]}
    metrics["trace_overhead_frac"] = (statistics.median(walls[True])
                                      / statistics.median(walls[False]) - 1.0)
    errors = _fingerprint_errors(reps)
    for key in ("autodiff.nodes_per_step", "autodiff.optim.steps", "harness.epochs"):
        if any(p[key] != per_pass[0][key] for p in per_pass):
            errors.append(f"{key} differs between traced passes of one seed")
    misplaced = sum(t.backward_misnested() for t in tracers)
    if misplaced:
        errors.append(f"{misplaced} op backward spans outside Tensor.backward, or other "
                      "spans directly under it: op bwd_s plus backward_dispatch_s "
                      "would not sum to backward_s")
    save_spans(os.path.join(outdir, f"trace-{wl.name}.npz"), tracers)
    return {"metrics": metrics, "shown": {}, "repetitions": len(per_pass),
            "samples": {"traced_wall_s": walls[True], "untraced_wall_s": walls[False]},
            "fingerprint": next((r.fingerprint for r in reps if r is not None), None),
            "errors": errors}


# ---------------------------------------------------------------------------
# output

def _num(v):
    """Counts averaged over traced passes print as whole numbers."""
    return int(v) if isinstance(v, float) and v.is_integer() else v


def result_line(res, specs):
    metrics = {name: {"value": _num(res["metrics"].get(name, 0)), "unit": unit}
               for name, (unit, _) in specs.items()}
    return json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                       "failed": res["failed"], "metrics": metrics})


def print_report(res, specs, env):
    print(f"workload {res['workload']}  seed {res['seed']}  trace {res['trace']}  "
          f"repetitions {res['repetitions']}")
    print("env " + json.dumps(env))
    for name, (unit, better) in specs.items():
        print(f"  {name:<48} {res['metrics'].get(name, 0):>14.6g} {unit:<12} {better}")
    for name, (value, unit) in res["shown"].items():
        print(f"  {name:<48} {value:>14.6g} {unit}")
    frac = res["failed"] / res["attempted"] if res["attempted"] else 0.0
    print(f"  {'failed_frac':<48} {frac:>14.6g} ratio        lower  "
          f"({res['failed']} of {res['attempted']} operations)")
    for f in res["failures"]:
        print("FAILED " + f.strip().replace("\n", "\n       "))


def main_run(m, args):
    env = environment()
    res = run_workload(m, args.workload, args.seed, args.seconds, args.trace)
    e2e, layer = registry()
    specs = layer if args.trace else e2e
    res["env"] = env
    path = os.path.join(os.getcwd(), ".perfbench_out",
                        f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(res, fh, indent=1, default=str)
    print_report(res, specs, env)
    print(result_line(res, specs))
    return 0


# ---------------------------------------------------------------------------
# self-test and diagnostics

def smoke(m):
    """Every workload at toy size: seed A twice (traced), seed B once."""
    from tracing import public_ops
    from workloads import WORKLOADS

    ops = set(public_ops(m.autodiff))
    e2e, layer = registry()
    problems = []
    for table in (e2e, layer):
        for name, (unit, better) in table.items():
            if not NAME_RE.fullmatch(name) or not UNIT_RE.fullmatch(unit) \
                    or better not in ("higher", "lower"):
                problems.append(f"malformed metric {name!r} ({unit!r}, {better!r})")
    registered_ops = {mt.group(1) for name in layer if (mt := OP_METRIC.fullmatch(name))}
    for op in sorted(ops - registered_ops):
        print(f"note: op {op} is in autodiff.__all__ but not in BENCHMARK.json")
    gone = {name for name in layer
            if (mt := OP_METRIC.fullmatch(name)) and mt.group(1) not in ops}
    for name in sorted(gone):
        print(f"note: {name} is in BENCHMARK.json but its op is gone; it reports 0")
    for name in WORKLOADS:
        a1 = run_workload(m, name, SMOKE_SEEDS[0], 0, trace=1, toy=True)
        a2 = run_workload(m, name, SMOKE_SEEDS[0], 0, trace=1, toy=True)
        b = run_workload(m, name, SMOKE_SEEDS[1], 0, trace=0, toy=True)
        for res in (a1, a2, b):
            problems += [f"{name} seed {res['seed']}: {f}" for f in res["failures"]]
        for key in ("autodiff.nodes_per_step", "autodiff.optim.steps"):
            if a1["metrics"][key] != a2["metrics"][key]:
                problems.append(f"{name}: {key} not repeatable for one seed")
        if a1["fingerprint"] != a2["fingerprint"]:
            problems.append(f"{name}: outputs not repeatable for one seed")
        if b["fingerprint"] == a1["fingerprint"]:
            problems.append(f"{name}: seeds {SMOKE_SEEDS} gave identical outputs")
        missing = set(e2e) - set(b["metrics"])
        if missing:
            problems.append(f"{name}: end-to-end metrics not computed: {sorted(missing)}")
        missing = set(layer) - gone - set(a1["metrics"])
        if missing:
            problems.append(f"{name}: per-layer metrics not computed: {sorted(missing)}")
        bad = [k for k, v in {**a1["metrics"], **b["metrics"]}.items()
               if not isinstance(v, (int, float)) or v != v]
        if bad:
            problems.append(f"{name}: non-numeric metrics {bad}")
        print(f"smoke {name}: {'ok' if not problems else 'problems so far'} "
              f"(fingerprint {a1['fingerprint']})")
    for p in problems:
        print("SMOKE FAIL " + p)
    print("smoke " + ("PASS" if not problems else "FAIL"))
    return 0 if not problems else 1


# seconds per epoch on the criterion-6 corpus recorded in ROADMAP.md's baseline
ROADMAP_S_PER_EPOCH = {("mtl_simple", 1): "0.71", ("mtl_simple", 2): "1.21",
                       ("vqateam_mtl", 1): "3.9-4.7"}


def epoch_probe(m, seed):
    """Seconds of one Nadam epoch (validation included) per variant."""
    h = m.harness
    bundle = h.synthetic_bundle(1000, 300, noise_std=0.25, seed=seed)
    cfg = h.model_config_for_bundle(bundle)
    combined = bundle.encode_combined(bundle.train_combined)
    singles = bundle.encode_singles(m.corpus.flatten_single_task(bundle.train_combined))
    tcfg = h.TrainConfig(max_epochs_nadam=1, max_epochs_sgd=0, seed=seed)
    out = {}
    for variant in m.models.VARIANTS:
        emb = m.textenc.random_embeddings(bundle.vocab, cfg.embed_dim, seed=seed)
        model = m.models.build_model(variant, cfg, emb, seed=seed)
        data = combined if model.n_heads > 1 else singles
        t0 = time.perf_counter()
        h.train(model, data, tcfg)
        out[variant] = time.perf_counter() - t0
    print(json.dumps(out))
    return 0


def thread_sweep(seed):
    """Informational: s/epoch per variant at 1 and 2 BLAS threads."""
    table = {}
    for threads in (1, 2):
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--epoch-probe",
                               "--threads", str(threads), "--seed", str(seed)],
                              capture_output=True, text=True, timeout=900, check=True)
        table[threads] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{'variant':<14} {'1 thread':>10} {'2 threads':>10}   ROADMAP baseline (1 / 2)")
    for variant in table[1]:
        ref = " / ".join(ROADMAP_S_PER_EPOCH.get((variant, t), "-") for t in (1, 2))
        print(f"{variant:<14} {table[1][variant]:>9.3f}s {table[2][variant]:>9.3f}s   {ref}")
    return 0


def main(argv=None):
    args = parse_args(argv)
    # numpy reads these when it is first imported, so set them before that
    for var in THREAD_VARS:
        os.environ[var] = str(args.threads)
    if args.thread_sweep:
        return thread_sweep(args.seed)
    m = import_package()
    sys.path.insert(0, HERE)
    if args.epoch_probe:
        return epoch_probe(m, args.seed)
    if args.smoke:
        return smoke(m)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    return main_run(m, args)


if __name__ == "__main__":
    sys.exit(main())
