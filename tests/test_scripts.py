"""The command-line entry points, run as a user runs them."""
import os
import subprocess
import sys

import pytest

from pinned_runs import tiny_config

from gridexplore.harness import PROBE_TASKS, Trainer
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


def _checkpoint(tmp_path, method):
    t = Trainer(tiny_config(method=method, queue_size=16), 1)
    t.train_iteration()
    path = str(tmp_path / f"{method}.ckpt")
    t.save(path)
    return path


@pytest.mark.parametrize("method", ["DEIR", "ForwardError"])
def test_probe_reads_embedding_model_checkpoints(tmp_path, method):
    res = _run("probe.py", "--checkpoint", _checkpoint(tmp_path, method),
               "--episodes", 10)
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == [n for n, _ in
                                                      PROBE_TASKS]


def test_probe_refuses_a_method_without_an_embedding_model(tmp_path):
    res = _run("probe.py", "--checkpoint",
               _checkpoint(tmp_path, "NoIntrinsic"))
    assert res.returncode == 1
    assert "NoIntrinsic has no trajectory-embedding model" in res.stderr
    assert "Traceback" not in res.stderr
