"""The command-line entry points, run as a user runs them."""
import glob
import hashlib
import os
import re
import shlex
import subprocess
import sys
from dataclasses import replace

import pytest

from pinned_runs import tiny_config

from gridexplore.harness import (
    PROBE_TASKS,
    Trainer,
    load_config,
    parse_overrides,
    probe_losses,
)
from gridexplore.harness.config import config_lines

ROOT = os.path.join(os.path.dirname(__file__), "..")
SCRIPTS = os.path.join(ROOT, "scripts")
# tiny_config() as command-line overrides; later pairs take precedence
TINY = [line.replace(" = ", "=", 1) for line in config_lines(tiny_config())]


def _run(script, *args):
    return subprocess.run([sys.executable, os.path.join(SCRIPTS, script),
                           *map(str, args)],
                          capture_output=True, text=True, timeout=300)


def _train(out, frames, *args, seeds=1):
    res = _run("train.py", "--quiet", *args, *TINY, f"run.seeds={seeds}",
               f"run.frames={frames}", f"run.out={out}")
    assert res.returncode == 0, res.stderr


def _files(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def test_train_resume_ends_with_the_straight_run_rows(tmp_path):
    # a run stopped at 64 frames, one seed's checkpoint lost, and resumed
    # to 192 writes the straight run's CSVs and checkpoints, byte for byte
    out = tmp_path / "run"
    _train(out, 192, seeds="1,2")
    straight = _files(out)
    assert sorted(straight) == ["aggregate.csv", "seed1.ckpt", "seed1.csv",
                                "seed2.ckpt", "seed2.csv"]
    assert len(straight["seed1.csv"].splitlines()) == 4  # header, 3 rows
    for path in out.iterdir():
        path.unlink()
    _train(out, 64, seeds="1,2")
    (out / "seed2.ckpt").unlink()
    _train(out, 192, "--resume", seeds="1,2")
    assert _files(out) == straight


def test_train_resume_needs_a_matching_config(tmp_path):
    part = tmp_path / "part"
    _train(part, 64)
    res = _run("train.py", "--resume", *TINY, "run.seeds=1",
               "env.task=DoorKey8", f"run.out={part}")
    assert res.returncode == 1
    assert res.stderr.strip() == (f"{part / 'seed1.ckpt'}: checkpoint config "
                                  "differs from current in env.task")


def test_train_resume_refuses_a_checkpoint_past_run_frames(tmp_path):
    part = tmp_path / "part"
    _train(part, 128)
    res = _run("train.py", "--resume", *TINY, "run.seeds=1",
               "run.frames=64", f"run.out={part}")
    assert res.returncode == 1
    assert res.stderr.strip() == (f"{part / 'seed1.ckpt'}: checkpoint holds "
                                  "128 frames, past run.frames = 64")


def test_train_and_probe_name_a_checkpoint_they_cannot_read(tmp_path):
    missing = tmp_path / "missing.ckpt"
    res = _run("probe.py", "--checkpoint", missing)
    assert res.returncode == 1
    assert res.stderr.strip() == (f"{missing}: cannot read checkpoint: "
                                  "No such file or directory")
    (tmp_path / "seed1.ckpt").mkdir()
    res = _run("train.py", "--resume", *TINY, "run.seeds=1",
               f"run.out={tmp_path}")
    assert res.returncode == 1
    assert res.stderr.strip() == (f"{tmp_path / 'seed1.ckpt'}: cannot read "
                                  "checkpoint: Is a directory")


def test_aggregate_refuses_seeds_of_other_frames_in_one_line(tmp_path):
    a, b = tmp_path / "seed1.csv", tmp_path / "seed2.csv"
    a.write_text("frames,mean_return\n64,0.5\n128,0.5\n")
    b.write_text("frames,mean_return\n64,0.5\n192,0.5\n")
    res = _run("aggregate.py", "--out", tmp_path / "agg.csv", a, b)
    assert res.returncode == 1
    assert res.stderr.strip() == (f"aggregate: {b}: frames column differs "
                                  f"from {a}")
    assert not (tmp_path / "agg.csv").exists()


def test_aggregate_refuses_a_missing_seed_csv_in_one_line(tmp_path):
    a, missing = tmp_path / "seed1.csv", tmp_path / "seed2.csv"
    a.write_text("frames,mean_return\n64,0.5\n")
    res = _run("aggregate.py", "--out", tmp_path / "agg.csv", a, missing)
    assert res.returncode == 1
    assert res.stderr.strip() == (f"aggregate: cannot read {missing}: "
                                  "No such file or directory")
    assert not (tmp_path / "agg.csv").exists()


def test_aggregate_refuses_an_empty_seed_csv_in_one_line(tmp_path):
    a, empty = tmp_path / "seed1.csv", tmp_path / "seed2.csv"
    a.write_text("frames,mean_return\n64,0.5\n")
    empty.write_text("")
    res = _run("aggregate.py", "--out", tmp_path / "agg.csv", a, empty)
    assert res.returncode == 1
    assert res.stderr.strip() == f"aggregate: {empty}: empty, no header row"
    assert not (tmp_path / "agg.csv").exists()


def test_aggregate_refuses_a_malformed_seed_csv_in_one_line(tmp_path):
    a, bad = tmp_path / "seed1.csv", tmp_path / "seed2.csv"
    a.write_text("frames,mean_return\n64,0.5\n")
    bad.write_text("frames,mean_return\n64,n/a\n")
    res = _run("aggregate.py", "--out", tmp_path / "agg.csv", a, bad)
    assert res.returncode == 1
    assert res.stderr.strip() == (f"aggregate: {bad}, line 2: could not "
                                  "convert string to float: 'n/a'")
    assert not (tmp_path / "agg.csv").exists()


def test_shipped_configs_load():
    paths = glob.glob(os.path.join(ROOT, "configs", "*.cfg"))
    assert paths
    for path in paths:
        load_config(path)


def _readme_train_commands():
    """The arguments of each `scripts/train.py` command in README's sh
    blocks, continuation lines joined."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        blocks = re.findall(r"```sh\n(.*?)```", fh.read(), re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[2:] for line in lines
            if line.startswith("python3 scripts/train.py")]


def test_readme_train_commands_use_listed_flags_and_known_keys():
    res = _run("train.py", "--help")
    assert res.returncode == 0, res.stderr
    # flag -> its metavar, empty for a switch
    flags = dict(re.findall(r"\[(--[\w-]+) ?([A-Z]*)\]", res.stdout))
    assert set(flags) == {"--config", "--resume", "--quiet"}
    commands = _readme_train_commands()
    assert commands
    for args in commands:
        config, pairs, it = None, [], iter(args)
        for arg in it:
            if not arg.startswith("--"):
                pairs.append(arg)
                continue
            assert arg in flags, f"README uses {arg}, which train.py lacks"
            value = next(it) if flags[arg] else None
            if arg == "--config":
                config = os.path.join(ROOT, value)
        load_config(config, parse_overrides(pairs))  # parses, trains nothing


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
    "DEIR": "018682271582f4dc3aa6d704b410674ac0b6a8619af94a192ca9b5a190bcfcaa",
    "ForwardError":
        "dd61a1cd62ca866d21255d3a393040663bdad582c7d786aeac77ca8f0d12131f",
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


def test_probe_refuses_too_few_episodes():
    res = _run("probe.py", "--random", "--episodes", 1)
    assert res.returncode == 1
    assert "dataset too small" in res.stderr
    assert "Traceback" not in res.stderr


def test_probe_refuses_a_checkpoint_of_an_old_version(tmp_path):
    # versions 7 and older framed the checkpoint in a `GXCK` container
    path = tmp_path / "v7.ckpt"
    path.write_bytes(b"GXCK" + bytes(32))
    res = _run("probe.py", "--checkpoint", path)
    assert res.returncode == 1
    assert "version 7 or older" in res.stderr
    assert "Traceback" not in res.stderr


def test_rerecord_rejects_an_unknown_cache():
    res = _run("rerecord.py", "no_such_cache")
    assert res.returncode == 2
    assert "unknown cache 'no_such_cache'" in res.stderr
    assert "c4_deir_clean" in res.stderr


def test_rerecord_retrains_a_run_recorded_under_other_numerics(tmp_path):
    # a cached run whose fingerprint is stale fails `_run_cached`;
    # `rerecord_one` retrains it through `_run_cached`, after which the
    # cache passes and its CSV is what this code trains
    code = f"""
import os, sys
sys.path.insert(0, {SCRIPTS!r})
import pytest, rerecord, test_acceptance
from pinned_runs import tiny_config
root, cfg = {str(tmp_path)!r}, tiny_config()
test_acceptance._run_cached("tiny", cfg, 1, root=root)
stem = os.path.join(root, "tiny", "seed1")
fresh = open(stem + ".csv").read()
record = open(stem + ".config").read()
with open(stem + ".config", "w") as fh:
    fh.write(record.replace("fingerprint = ", "fingerprint = 0"))
try:
    test_acceptance._run_cached("tiny", cfg, 1, root=root)
except pytest.fail.Exception:
    print("stale run refused")
tag, seed, old, new, secs = rerecord.rerecord_one("tiny", cfg, 1, root)
print(tag, seed, old == new, secs >= 0)
print(open(stem + ".csv").read() == fresh,
      open(stem + ".config").read() == record,
      sorted(os.listdir(os.path.join(root, "tiny"))))
row, _ = test_acceptance._run_cached("tiny", cfg, 1, root=root)
print(float(row["mean_return"]) == new)
"""
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=300,
                         cwd=os.path.dirname(__file__))
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == [
        "stale run refused",
        "tiny 1 True True",
        "True True ['seed1.config', 'seed1.csv', 'seed1.elapsed', "
        "'seed1.weights']",
        "True",
    ]
