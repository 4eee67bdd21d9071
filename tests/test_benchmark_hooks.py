"""What the benchmark (perfbench/) looks up in the program.

`perfbench/tracer.py` wraps entry points by attribute name, on modules
and classes, and `perfbench/checks.py` reads a trainer's networks and
optimizers through their `state_arrays`. A refactor that renames one of
them, or stops calling it through that name, breaks the benchmark.
"""
import os
import subprocess
import sys

import pytest

from pinned_runs import tiny_config

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")
sys.path.insert(0, PERFBENCH)

from checks import array_mismatches, model_arrays  # noqa: E402
from run import blas_context  # noqa: E402
from tracer import Tracer  # noqa: E402

from gridexplore.harness import Trainer  # noqa: E402
from gridexplore.methods import METHODS  # noqa: E402

# spans a DEIR iteration must record; `envs.core.observe` and
# `envs.core.state_id` are wrapped too, but the batched `Env` steps
# through `observe_batch` and `state_id_batch` instead
DEIR_SPANS = (
    "harness.Trainer.train_iteration", "envs.Env.step",
    "ppo.ActorCritic.act", "ppo.Collector.collect",
    "harness.trainer.ppo_update", "nn.Tensor.backward", "nn.Adam.step",
    "harness.ExplorationTracker.update", "methods.step", "methods.h_prev",
    "methods.update", "methods.intrinsic_reward", "methods.update_queue",
    "methods.build_disc_batch", "intrinsic.sample_negative",
    "methods.disc_loss",
)


@pytest.mark.parametrize("method", METHODS)
def test_tracer_installs_and_uninstalls(method):
    tracer = Tracer()
    try:
        tracer.install(method)
        patched = list(tracer._patched)
    finally:
        tracer.uninstall()
    assert patched
    for owner, attr, old, had in patched:
        if had:
            assert vars(owner)[attr] is old, (owner, attr)
        else:
            assert attr not in vars(owner), (owner, attr)


def test_traced_iteration_matches_untraced(tmp_path):
    row = Trainer(tiny_config(), 1).train_iteration()
    tracer = Tracer().install("DEIR")
    try:
        trainer = Trainer(tiny_config(), 1)
        traced_row = trainer.train_iteration()
    finally:
        tracer.uninstall()
    assert traced_row == row
    assert tracer.reward_mismatches == []
    recorded = {tracer.names[i] for i in tracer.name_id}
    assert set(DEIR_SPANS) <= recorded, set(DEIR_SPANS) - recorded

    path = str(tmp_path / "seed1.ckpt")
    trainer.save(path)
    restored = Trainer.from_checkpoint(path)
    assert array_mismatches(model_arrays(trainer),
                            model_arrays(restored)) == []


def test_the_test_session_runs_blas_on_one_thread(monkeypatch):
    # tests/conftest.py pins it: the cached acceptance runs were recorded
    # on one thread, and some BLAS sums round differently on two. With
    # the variable blanked, the count can only come from OpenBLAS itself.
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "0")
    assert blas_context()[1] == 1


def test_perfbench_selftest_passes(tmp_path):
    # every method through the traced measurement, one end-to-end run, and
    # the failure counting of a corrupted row and a mismatched checkpoint;
    # its scratch directory `.perfbench/` goes under the working directory
    proc = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "selftest.py")],
        cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout.rstrip().endswith("selftest passed")
