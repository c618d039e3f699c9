"""Each benchmark workload sets up at full size on several seeds.

A benchmark run exits 1 when its set-up raises, and the smoke test runs
only toy sizes on two seeds.  This runs every workload's full-size
``setup(seed)`` in-process, and for the two experiment workloads the
encodings ``run_experiment`` makes from the set-up's bundle.
"""

import sys
from pathlib import Path

import pytest

import mtvqa
from mtvqa.corpus import flatten_single_task, isolate_slots
from mtvqa.harness import _ARMS

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import WORKLOADS  # noqa: E402

SEEDS = (0, 1, 2, 3)


def _encode(bundle, examples, form):
    """`examples` in one of the forms `run_experiment` trains or tests on."""
    if form == "single":
        return bundle.encode_singles(flatten_single_task(examples))
    return bundle.encode_combined(isolate_slots(examples) if form == "isolated" else examples)


@pytest.mark.parametrize("name", WORKLOADS)
def test_full_size_setup_succeeds_on_several_seeds(tmp_path, name):
    workload = WORKLOADS[name](mtvqa, str(tmp_path), toy=False)
    for seed in SEEDS:
        state = workload.setup(seed)
        if not hasattr(workload, "kind"):
            continue
        bundle = state[0]
        for _, train_form, tests in _ARMS[workload.kind]:
            assert len(_encode(bundle, bundle.train_combined, train_form)) > 0
            for form in tests.values():
                assert len(_encode(bundle, bundle.test_combined, form)) > 0
