"""The command-line entry points, run as a user runs them."""
import hashlib
import os
import subprocess
import sys
from dataclasses import replace

import pytest

from pinned_runs import tiny_config

from gridexplore.harness import PROBE_TASKS, Trainer, probe_losses
from gridexplore.harness.config import config_lines

SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")
# tiny_config() as command-line overrides; --seed, --frames and --out
# take precedence over them
TINY = [line.replace(" = ", "=", 1) for line in config_lines(tiny_config())]


def _run(script, *args):
    return subprocess.run([sys.executable, os.path.join(SCRIPTS, script),
                           *map(str, args)],
                          capture_output=True, text=True, timeout=300)


def _csv_lines(out_dir):
    with open(os.path.join(out_dir, "seed1.csv")) as fh:
        return fh.read().splitlines()


def test_train_resume_ends_with_the_straight_run_rows(tmp_path):
    straight, part = tmp_path / "straight", tmp_path / "part"
    for out, frames, resume in ((straight, 192, ()), (part, 64, ()),
                                (part, 192, ("--resume",
                                             part / "seed1.ckpt"))):
        res = _run("train.py", "--seed", 1, "--frames", frames, "--out", out,
                   "--quiet", *resume, *TINY)
        assert res.returncode == 0, res.stderr
    full, resumed = _csv_lines(straight), _csv_lines(part)
    # header and the two rows trained after the 64-frame checkpoint
    assert len(full) == 4 and len(resumed) == 3
    assert resumed == full[:1] + full[2:]


def _trained(method, **kw):
    t = Trainer(tiny_config(method=method, queue_size=16, **kw), 1)
    t.train_iteration()
    return t


def _checkpoint(tmp_path, method, **kw):
    path = str(tmp_path / f"{method}.ckpt")
    _trained(method, **kw).save(path)
    return path


# sha256 of the probe's stdout with --episodes 10: of a frozen random
# model (--random) and of each method's tiny checkpoint (_checkpoint)
PROBE_DIGESTS = {
    "random": "2fc7cc2f2ec744be204dc79b517fd3a5f966ba34f4d1005ac49d978090ba8b6a",
    "DEIR": "3ac36aaca0adf3cd6571c485b3087044550ca4b7904b20a64e1bf77dd7532d00",
    "ForwardError":
        "29d3f14c83b61a5232045aef909d5af154b7c6cbf870917f32944aa5d6ecd4a9",
}


def _stdout_digest(res):
    assert res.returncode == 0, res.stderr
    return hashlib.sha256(res.stdout.encode()).hexdigest()


@pytest.mark.parametrize("method", ["DEIR", "ForwardError"])
def test_probe_reads_embedding_model_checkpoints(tmp_path, method):
    res = _run("probe.py", "--checkpoint", _checkpoint(tmp_path, method),
               "--episodes", 10)
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == [n for n, _ in
                                                      PROBE_TASKS]
    assert _stdout_digest(res) == PROBE_DIGESTS[method]


def test_probe_of_a_random_model_is_pinned():
    res = _run("probe.py", "--random", "--episodes", 10)
    assert _stdout_digest(res) == PROBE_DIGESTS["random"]


def test_probe_observes_the_checkpoints_environment(tmp_path):
    """A model trained at view 3 with noise and hidden obstacles is probed
    in that environment, on the probe task."""
    t = _trained("DEIR", view_size=3, noise_sigma=0.3,
                 invisible_obstacles=True)
    path = str(tmp_path / "harsh.ckpt")
    t.save(path)
    res = _run("probe.py", "--checkpoint", path, "--episodes", 10)
    assert res.returncode == 0, res.stderr
    spec = replace(t.config.env_spec(), task="DoorKey8")
    losses = probe_losses(t.method.model, spec, 0, episodes=10)
    assert res.stdout.splitlines() == [f"{name}: {loss:.6g}"
                                       for name, loss in losses.items()]


def test_probe_refuses_a_method_without_an_embedding_model(tmp_path):
    res = _run("probe.py", "--checkpoint",
               _checkpoint(tmp_path, "NoIntrinsic"))
    assert res.returncode == 1
    assert "NoIntrinsic has no trajectory-embedding model" in res.stderr
    assert "Traceback" not in res.stderr
