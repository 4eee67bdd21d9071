"""Tiny pinned training runs.

The sha256 of the CSV a tiny run writes after 2 iterations pins the
training numerics of each case (`test_training_digest_is_pinned` in
test_harness.py). The digest of a method's own case also fingerprints
the numerics a cached acceptance run was trained under
(`_run_cached` in test_acceptance.py). The sha256 of the checkpoint the
same case writes with a 16-row queue pins the checkpoint format
(`test_checkpoint_digest_is_pinned`).
"""
import functools
import hashlib
import os
import tempfile

from gridexplore.harness import ExperimentConfig, Trainer, write_csv
from gridexplore.methods import METHODS


def tiny_config(**kw):
    base = dict(task="MultiRoomN2S4", workers=2, rollout_steps=32,
                minibatch=64, model_minibatch=64, embed_dim=8, hidden=16,
                channels=(4, 8, 8), frames=64, seeds=(1,), method="DEIR")
    base.update(kw)
    return ExperimentConfig(**base)


# each method at noise 0.1; DEIR in the ordering gates' harsh setting
# (view 3, which pads the first conv, with hidden obstacles), on DoorKey8
# and with layer norm in place of batch norm; and PPO with one segment
# per minibatch (at 64, one minibatch holds every segment, so the order in
# which segments are gathered would go unseen)
DIGEST_CONFIGS = {
    **{method: dict(method=method, noise_sigma=0.1) for method in METHODS},
    "DEIR-harsh": dict(view_size=3, noise_sigma=0.3, invisible_obstacles=True),
    "DEIR-DoorKey8": dict(task="DoorKey8", noise_sigma=0.1),
    "DEIR-layer": dict(norm="layer", noise_sigma=0.1),
    "NoIntrinsic-minibatch16": dict(method="NoIntrinsic", minibatch=16),
}


def _file_digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@functools.cache
def training_digest(case):
    """sha256 of the CSV of case's tiny run, seed 1, 2 iterations."""
    t = Trainer(tiny_config(**DIGEST_CONFIGS[case]), 1)
    rows = [t.train_iteration() for _ in range(2)]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "seed1.csv")
        write_csv(path, rows)
        return _file_digest(path)


def checkpoint_digest(case):
    """sha256 of the checkpoint of case's tiny run with a 16-row queue,
    which wraps within the 2 iterations, saved after them."""
    t = Trainer(tiny_config(**DIGEST_CONFIGS[case], queue_size=16), 1)
    for _ in range(2):
        t.train_iteration()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "seed1.ckpt")
        t.save(path)
        return _file_digest(path)
