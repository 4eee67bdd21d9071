"""Experiment harness: metrics, config parsing, CSV output, checkpoints,
the training loop's determinism/resume contract, and embedding probes."""
import dataclasses
import glob
import inspect
import json
import math
import os
import platform
import re
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from gridexplore import methods, ppo
from gridexplore.envs import EnvSpec, core
from gridexplore.harness import (
    CheckpointError,
    ConfigError,
    ExperimentConfig,
    ExplorationTracker,
    MetricRow,
    PROBE_TASKS,
    Trainer,
    aggregate_csv,
    collect_probe_dataset,
    exploration_metrics,
    load_checkpoint,
    load_config,
    parse_overrides,
    probe_embeddings,
    run_experiment,
    save_checkpoint,
    write_csv,
)
from gridexplore.harness.config import config_lines
from gridexplore.harness.outputs import OutputError
from gridexplore.harness.probes import embed_dataset
from gridexplore.intrinsic import DiscModel, ObservationQueue
from gridexplore.methods import METHODS
from gridexplore.nn import Adam, pack_arrays, unpack_arrays
from pinned_runs import DIGEST_CONFIGS, checkpoint_digest, training_digest
from pinned_runs import tiny_config as _tiny_config


# ---------------------------------------------------------------------------
# exploration metrics
# ---------------------------------------------------------------------------


def test_metrics_five_unique_states_held_two_steps():
    # 10 steps over 5 fresh states, each held for 2 steps
    stream = [b"a", b"a", b"b", b"b", b"c", b"c", b"d", b"d", b"e", b"e"]
    starts = [True] + [False] * 9
    life = set()
    ep, ll, _ = exploration_metrics(stream, starts, life)
    assert ep == 0.5
    assert ll == 0.5


def test_metrics_replayed_episode_lifelong_zero():
    stream = [b"a", b"a", b"b", b"b", b"c", b"c", b"d", b"d", b"e", b"e"]
    starts = [True] + [False] * 9
    life = set()
    exploration_metrics(stream, starts, life)
    ep, ll, _ = exploration_metrics(stream, starts, life)
    assert ep == 0.5
    assert ll == 0.0


def test_metrics_single_step_episode():
    ep, ll, _ = exploration_metrics([b"z"], [True], set())
    assert ep == 1.0
    assert ll == 1.0


def test_metrics_empty_stream():
    assert exploration_metrics([], [], set())[:2] == (0.0, 0.0)


def test_metrics_length_mismatch():
    with pytest.raises(ValueError):
        exploration_metrics([b"a"], [], set())


def test_metrics_episode_boundary_resets_in_episode_set():
    # second episode revisits the same states: episodic counts them fresh
    stream = [b"a", b"b", b"a", b"b"]
    starts = [True, False, True, False]
    ep, ll, _ = exploration_metrics(stream, starts, set())
    assert ep == 1.0
    assert ll == 0.5


def test_metrics_hand_counted_streams():
    # 20 constructed streams; oracle recounts both fractions directly and
    # checks lifelong <= episodic on each
    rng = np.random.default_rng(7)
    for case in range(20):
        n = int(rng.integers(1, 40))
        stream = [bytes([rng.integers(5)]) for _ in range(n)]
        starts = [bool(rng.random() < 0.2) for _ in range(n)]
        starts[0] = True
        life_before = {bytes([v]) for v in rng.integers(5, size=3)}

        seen_ep, life = set(), set(life_before)
        fresh_ep = fresh_life = 0
        for sid, st in zip(stream, starts):
            if st:
                seen_ep = set()
            if sid not in seen_ep:
                fresh_ep += 1
                seen_ep.add(sid)
            if sid not in life:
                fresh_life += 1
                life.add(sid)

        ep, ll, _ = exploration_metrics(stream, starts, set(life_before))
        assert ep == fresh_ep / n
        assert ll == fresh_life / n
        assert ll <= ep
        assert 0.0 <= ll <= ep <= 1.0


def test_tracker_matches_direct_metrics_across_chunks():
    # feeding one worker's stream in two chunks equals one big call
    stream = [b"a", b"b", b"a", b"c", b"c", b"b", b"d", b"a"]
    dones = [0, 0, 1, 0, 0, 0, 1, 0]

    tracker = ExplorationTracker(1)
    states1 = [[s] for s in stream[:4]]
    states2 = [[s] for s in stream[4:]]
    d1 = np.array(dones[:4]).reshape(-1, 1)
    d2 = np.array(dones[4:]).reshape(-1, 1)
    ep1, ll1 = tracker.update(states1, d1)
    ep2, ll2 = tracker.update(states2, d2)

    starts = [False] + [bool(d) for d in dones[:-1]]
    ep_a, ll_a, seen = exploration_metrics(stream[:4], starts[:4], life := set())
    ep_b, ll_b, _ = exploration_metrics(stream[4:], starts[4:], life, seen)
    assert (ep1, ll1) == (ep_a, ll_a)
    assert (ep2, ll2) == (ep_b, ll_b)


def test_tracker_matches_per_step_recount_over_workers():
    # three 4-step rollouts of 3 workers: worker 0 ends every rollout on a
    # done, so the next one starts its episode; worker 1 never does, so its
    # episode runs on across the boundary
    rng = np.random.default_rng(11)
    steps, n_workers = 4, 3
    rollouts = []
    for _ in range(3):
        states = [[bytes([rng.integers(6)]) for _ in range(n_workers)]
                  for _ in range(steps)]
        dones = rng.random((steps, n_workers)) < 0.3
        dones[-1, 0], dones[-1, 1] = True, False
        rollouts.append((states, dones))

    tracker = ExplorationTracker(n_workers)
    seen, life = [set() for _ in range(n_workers)], set()
    start = [False] * n_workers
    for states, dones in rollouts:
        fresh_ep = fresh_life = 0
        for t in range(steps):
            for w in range(n_workers):
                if start[w]:
                    seen[w] = set()
                sid = states[t][w]
                fresh_ep += sid not in seen[w]
                fresh_life += sid not in life
                seen[w].add(sid)
                life.add(sid)
                start[w] = bool(dones[t, w])
        # 4 steps: the tracker's per-worker fractions times 4 are exact
        total = steps * n_workers
        assert tracker.update(states, dones) == (fresh_ep / total,
                                                 fresh_life / total)
        assert tracker._fresh_start[:2] == [True, False]
    assert tracker.lifetime == life


def test_tracker_averages_over_workers():
    tracker = ExplorationTracker(2)
    states = [[b"a", b"x"], [b"a", b"y"]]
    dones = np.zeros((2, 2))
    ep, ll = tracker.update(states, dones)
    # worker 0: 1 fresh of 2; worker 1: 2 fresh of 2
    assert ep == pytest.approx(0.75)
    assert ll == pytest.approx(0.75)


def test_metric_row_columns_order():
    cols = MetricRow.columns()
    assert cols[0] == "frames"
    assert "episodic_eff" in cols and "lifelong_eff" in cols
    assert len(cols) == len(set(cols))


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------


def test_config_defaults_match_reference_hyperparameters():
    cfg = ExperimentConfig()
    assert cfg.rollout_steps == 512
    assert cfg.workers == 16
    assert cfg.model_epochs == 4
    assert cfg.minibatch == 512
    assert cfg.lr == 3e-4
    assert cfg.beta == 1e-2
    assert cfg.queue_size == 100_000
    assert cfg.queue_smoothing == 0.9
    # the fixed recipe: constants and defaults next to the code using them
    assert (ppo.GAMMA, ppo.GAE_LAMBDA, ppo.CLIP) == (0.99, 0.95, 0.2)
    assert (ppo.ENT_COEF, ppo.VALUE_COEF, ppo.MAX_GRAD_NORM) == (
        1e-2, 0.5, 0.5)
    assert inspect.signature(ppo.ppo_update).parameters["epochs"].default == 4
    assert inspect.signature(Adam).parameters["eps"].default == 1e-5
    assert ppo.EmaStandardizer().momentum == 0.9
    assert core.TIME_PENALTY_COEF == 0.9


def test_load_config_file_and_overrides(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# comment line\n"
        "env.task = DoorKey8\n"
        "env.noise_sigma = 0.1   # trailing comment\n"
        "ppo.workers = 4\n"
        "ppo.channels = 8,16,16\n"
        "run.seeds = 5 6 7\n"
        "env.invisible_obstacles = true\n"
    )
    cfg = load_config(str(path), parse_overrides(["ppo.workers=2"]))
    assert cfg.task == "DoorKey8"
    assert cfg.noise_sigma == 0.1
    assert cfg.workers == 2  # override wins over file
    assert cfg.channels == (8, 16, 16)
    assert cfg.seeds == (5, 6, 7)
    assert cfg.invisible_obstacles is True


def test_load_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("ppo.learning_rate = 1e-3\n")
    with pytest.raises(ConfigError):
        load_config(str(path))
    # a key of the fixed PPO recipe, as older records carry, is unknown too
    with pytest.raises(ConfigError, match="ppo.gamma"):
        load_config(overrides={"ppo.gamma": "0.99"})


def test_load_config_rejects_bad_value(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("ppo.workers = many\n")
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_parse_overrides_requires_equals():
    with pytest.raises(ConfigError):
        parse_overrides(["ppo.workers"])


def test_config_errors_name_their_source_and_line(tmp_path):
    # a config file, the command line and a checkpoint's config lines go
    # through one parser, which counts blank and comment lines
    path = tmp_path / "bad.cfg"
    path.write_text("# a comment\n\nppo.workers = 2\nppo.workers 4\n")
    with pytest.raises(ConfigError,
                       match=rf"^{re.escape(str(path))}:4: 'ppo.workers 4'"):
        load_config(str(path))
    with pytest.raises(ConfigError, match=r"^command line:2: 'run.out'"):
        parse_overrides(["ppo.workers=2", "run.out"])


def test_validate_rejects_unknown_task_and_method():
    with pytest.raises(ConfigError):
        ExperimentConfig(task="Nowhere").validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(method="Magic").validate()


@pytest.mark.parametrize("pair", ["env.view_size=5", "env.noise_sigma=-1",
                                  "env.noise_sigma=nan", "env.noise_sigma=inf",
                                  "env.max_steps=-1"])
def test_load_config_rejects_bad_env_setting(pair):
    # the env's own ValueError must surface as a usage error
    with pytest.raises(ConfigError):
        load_config(overrides=parse_overrides([pair]))


@pytest.mark.parametrize("pair,name", [
    ("ppo.lr=0", "lr"), ("ppo.lr=-1", "lr"), ("deir.lr=0", "method_lr"),
    ("deir.lr=-3e-4", "method_lr"), ("deir.beta=-5", "beta"),
    ("ppo.lr=nan", "lr"), ("deir.lr=inf", "method_lr"),
    ("deir.beta=nan", "beta"),
    ("deir.model_minibatch=8193", "model_minibatch"),
    ("ppo.channels=8,0,16", "channels"), ("ppo.channels=8,16,-1", "channels"),
    ("run.seeds=", "seeds"), ("run.seeds=-1", "seeds"),
    ("run.seeds=0,0", "seeds"), ("run.frames=8191", "frames"),
    ("run.log_every=0", "log_every"),
    ("run.checkpoint_every=-1", "checkpoint_every")])
def test_load_config_rejects_bad_tuning_value(pair, name):
    # a negative step size ascends the loss, a zero one freezes the model,
    # and a negative beta rewards revisits; a NaN or infinite step size or
    # beta turns the weights or the rewards into NaN; a bonus-model batch
    # larger than the 8192-step default rollout is never drawn, a zero or
    # negative width breaks model construction, and no seed or less than
    # one rollout of frames trains nothing; numpy refuses a negative seed,
    # and a repeated one would train and aggregate one run twice; a zero
    # log interval divides by zero after the first rollout, and a negative
    # checkpoint interval means nothing
    with pytest.raises(ConfigError, match=rf"^{name} must be"):
        load_config(overrides=parse_overrides([pair]))


def test_load_config_accepts_zero_beta():
    assert load_config(overrides={"deir.beta": "0"}).beta == 0.0


def test_validate_rejects_indivisible_bptt():
    with pytest.raises(ConfigError):
        ExperimentConfig(rollout_steps=100, bptt_len=16).validate()


def test_config_lines_round_trip(tmp_path):
    cfg = ExperimentConfig(task="FourRooms", workers=3, channels=(4, 8, 8),
                           seeds=(9,))
    path = tmp_path / "echo.cfg"
    path.write_text("\n".join(config_lines(cfg)) + "\n")
    again = load_config(str(path))
    assert again == cfg


_RECORDS = sorted(glob.glob(os.path.join(
    os.path.dirname(__file__), "acceptance_runs", "*", "seed*.config")))


@pytest.mark.parametrize(
    "record", _RECORDS,
    ids=[os.path.relpath(r, os.path.dirname(os.path.dirname(r)))
         for r in _RECORDS])
def test_config_record_renders_back_byte_for_byte(record):
    # a cached run is reused only if config_lines reproduces its record
    with open(record, encoding="utf-8") as fh:
        text = fh.read()
    *pairs, seed_line, fingerprint_line = text.splitlines()
    cfg = load_config(overrides=parse_overrides(pairs))
    tail = [seed_line, fingerprint_line]
    assert "\n".join(config_lines(cfg) + tail) + "\n" == text
    assert fingerprint_line.startswith("fingerprint = ")


def test_env_spec_translation():
    cfg = ExperimentConfig(task="FourRooms", max_steps=0)
    spec = cfg.env_spec()
    assert isinstance(spec, EnvSpec)
    assert spec.max_steps is None  # 0 means task default
    assert ExperimentConfig(max_steps=50).env_spec().max_steps == 50


# ---------------------------------------------------------------------------
# CSV outputs
# ---------------------------------------------------------------------------


def _row(frames, mean_return):
    return MetricRow(frames=frames, mean_return=mean_return, episodic_eff=0.5,
                     lifelong_eff=0.25, policy_loss=0.1, value_loss=0.2,
                     entropy=1.9, clip_fraction=0.05, approx_kl=0.01,
                     model_loss=0.7, raw_ir_mean=0.3, episodes=4)


def test_write_csv_and_header(tmp_path):
    path = tmp_path / "seed0.csv"
    write_csv(str(path), [_row(8192, 0.5), _row(16384, 0.75)])
    lines = path.read_text().strip().splitlines()
    assert lines[0].split(",") == MetricRow.columns()
    assert lines[1].split(",")[0] == "8192"
    assert len(lines) == 3


def test_write_csv_empty_errors(tmp_path):
    with pytest.raises(OutputError):
        write_csv(str(tmp_path / "x.csv"), [])


def test_aggregate_stderr_hand_value(tmp_path):
    # returns {0.8, 0.9, 1.0} at one bucket: mean 0.9, sample std 0.1,
    # stderr 0.1/sqrt(3) = 0.0577
    paths = []
    for i, r in enumerate((0.8, 0.9, 1.0)):
        p = tmp_path / f"seed{i}.csv"
        write_csv(str(p), [_row(8192, r)])
        paths.append(str(p))
    out = tmp_path / "aggregate.csv"
    aggregate_csv(str(out), paths)
    header, data = out.read_text().strip().splitlines()
    cols = dict(zip(header.split(","), data.split(",")))
    assert float(cols["mean_return_mean"]) == pytest.approx(0.9)
    assert float(cols["mean_return_stderr"]) == pytest.approx(0.0577, abs=1e-4)


def test_aggregate_single_seed_zero_stderr(tmp_path):
    p = tmp_path / "seed0.csv"
    write_csv(str(p), [_row(8192, 0.5)])
    out = tmp_path / "agg.csv"
    aggregate_csv(str(out), [str(p)])
    header, data = out.read_text().strip().splitlines()
    cols = dict(zip(header.split(","), data.split(",")))
    assert float(cols["mean_return_mean"]) == pytest.approx(0.5)
    assert float(cols["mean_return_stderr"]) == 0.0
    # mean column within [min, max] trivially: equals the sole value


def test_aggregate_no_seeds_errors(tmp_path):
    with pytest.raises(OutputError):
        aggregate_csv(str(tmp_path / "agg.csv"), [])


@pytest.mark.parametrize("grids", [((64, 128), (64, 192, 256)),
                                   ((64, 128), (64, 128, 192)),
                                   ((64, 128), (64,))])
def test_aggregate_refuses_seeds_of_other_frames(tmp_path, grids):
    # rows align by position only where every seed has the same frames
    paths = []
    for i, grid in enumerate(grids):
        p = str(tmp_path / f"seed{i}.csv")
        write_csv(p, [_row(f, 0.5) for f in grid])
        paths.append(p)
    with pytest.raises(OutputError) as err:
        aggregate_csv(str(tmp_path / "agg.csv"), paths)
    assert str(err.value) == (f"{paths[1]}: frames column differs from "
                              f"{paths[0]}")
    assert not (tmp_path / "agg.csv").exists()


def test_aggregate_names_the_line_of_a_non_numeric_cell(tmp_path):
    good, bad = tmp_path / "seed1.csv", tmp_path / "seed2.csv"
    good.write_text("frames,mean_return\n64,0.5\n128,0.5\n")
    bad.write_text("frames,mean_return\n64,0.5\n128,abc\n")
    with pytest.raises(OutputError) as err:
        aggregate_csv(str(tmp_path / "agg.csv"), [str(good), str(bad)])
    assert str(err.value) == (f"{bad}, line 3: could not convert string to "
                              "float: 'abc'")
    assert not (tmp_path / "agg.csv").exists()


def test_aggregate_names_the_line_of_a_row_of_another_width(tmp_path):
    good, bad = tmp_path / "seed1.csv", tmp_path / "seed2.csv"
    good.write_text("frames,mean_return\n64,0.5\n128,0.5\n")
    bad.write_text("frames,mean_return\n64,0.5\n128\n")
    with pytest.raises(OutputError) as err:
        aggregate_csv(str(tmp_path / "agg.csv"), [str(good), str(bad)])
    assert str(err.value) == f"{bad}, line 3: row width 1, header width 2"
    assert not (tmp_path / "agg.csv").exists()


def test_aggregate_mean_within_seed_range(tmp_path):
    rng = np.random.default_rng(3)
    paths = []
    tables = []
    for i in range(4):
        rows = [_row(8192 * (j + 1), float(rng.random())) for j in range(3)]
        p = tmp_path / f"seed{i}.csv"
        write_csv(str(p), rows)
        paths.append(str(p))
        tables.append([r.mean_return for r in rows])
    out = tmp_path / "agg.csv"
    aggregate_csv(str(out), paths)
    lines = out.read_text().strip().splitlines()
    idx = lines[0].split(",").index("mean_return_mean")
    for j, line in enumerate(lines[1:]):
        mean = float(line.split(",")[idx])
        vals = [t[j] for t in tables]
        assert min(vals) - 1e-6 <= mean <= max(vals) + 1e-6


# ---------------------------------------------------------------------------
# checkpoint container
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    path = str(tmp_path / "run.ckpt")
    arrays = {
        "w": np.arange(6, dtype=np.float32).reshape(2, 3),
        "stats": np.array([1.25, -0.5], dtype=np.float64),
    }
    save_checkpoint(path, {"frames": 512, **arrays})
    back = load_checkpoint(path)
    assert back["frames"] == 512
    assert back["w"].dtype == np.float32
    assert back["stats"].dtype == np.float64
    np.testing.assert_array_equal(back["w"], arrays["w"])
    np.testing.assert_array_equal(back["stats"], arrays["stats"])


def test_checkpoint_is_one_array_blob_led_by_its_json_meta(tmp_path):
    # the blob's entries are `meta`, then the state's arrays in its order
    path = str(tmp_path / "run.ckpt")
    w = np.ones(3, np.float32)
    save_checkpoint(path, {"w": w, "frames": 512, "a": [1, "x"]})
    with open(path, "rb") as fh:
        blob = unpack_arrays(fh.read())
    assert list(blob) == ["meta", "w"]
    assert blob["meta"].dtype == np.uint8
    assert blob["meta"].tobytes() == b'{"a":[1,"x"],"frames":512,"version":9}'
    np.testing.assert_array_equal(blob["w"], w)


def _rewrite_meta(path, payload):
    """Replace the JSON bytes of the checkpoint at `path`."""
    with open(path, "rb") as fh:
        blob = unpack_arrays(fh.read())
    blob["meta"] = np.frombuffer(payload, np.uint8)
    with open(path, "wb") as fh:
        fh.write(pack_arrays(blob))


@pytest.mark.parametrize("old", [2, 3, 4, 5, 6, 8, "GXCK"])
def test_checkpoint_refuses_old_version_naming_both_versions(tmp_path, old):
    # version 2 stored the GRU as nine gate arrays, version 3 fused them;
    # version 4 dropped the fixed PPO recipe from the meta's config lines;
    # version 5 keeps no queue network rows without noise; version 6
    # saves the env's grid planes as one array and no episode lengths;
    # version 7 keys every header value by the part that saves it;
    # version 8 stores the header as the array blob's `meta` entry;
    # version 9 saves the metric rows in place of the frame and
    # iteration counts
    path = str(tmp_path / "old.ckpt")
    save_checkpoint(path, {"frames": 512, "w": np.zeros(2, np.float32)})
    assert load_checkpoint(path)["version"] == 9
    if old == "GXCK":
        # versions 7 and older framed their JSON header in a `GXCK`
        # container, ahead of the array blob
        header = json.dumps({"frames": 512, "version": 7}).encode()
        with open(path, "wb") as fh:
            fh.write(b"GXCK" + struct.pack("<Q", len(header)) + header
                     + pack_arrays({"w": np.zeros(2, np.float32)}))
        old = "7 or older"
    else:
        _rewrite_meta(path, json.dumps({"frames": 512,
                                        "version": old}).encode())
    with pytest.raises(CheckpointError,
                       match=rf"version {old}\b.*version 9\b"):
        load_checkpoint(path)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(CheckpointError):
        load_checkpoint(str(path))


def test_checkpoint_truncated(tmp_path):
    path = str(tmp_path / "trunc.ckpt")
    save_checkpoint(path, {"a": 1, "w": np.ones(8, np.float32)})
    data = open(path, "rb").read()
    open(path, "wb").write(data[:-7])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_corrupt_metadata(tmp_path):
    path = str(tmp_path / "corrupt.ckpt")
    save_checkpoint(path, {"a": 1, "w": np.ones(4, np.float32)})
    data = bytearray(open(path, "rb").read())
    data[data.index(b'{"a"') + 2] ^= 0xFF  # flip a byte inside the JSON
    open(path, "wb").write(bytes(data))
    with pytest.raises(CheckpointError, match="corrupt metadata"):
        load_checkpoint(path)


def test_checkpoint_entry_name_that_is_not_utf8(tmp_path):
    # the first name byte follows the magic, the entry count and the
    # name's length
    path = str(tmp_path / "name.ckpt")
    save_checkpoint(path, {"a": 1, "w": np.ones(4, np.float32)})
    data = bytearray(open(path, "rb").read())
    data[20] = 0xFF
    open(path, "wb").write(bytes(data))
    with pytest.raises(CheckpointError, match="corrupt array blob"):
        load_checkpoint(path)


def test_checkpoint_without_meta_entry(tmp_path):
    path = tmp_path / "bare.ckpt"
    path.write_bytes(pack_arrays({"w": np.ones(4, np.float32)}))
    with pytest.raises(CheckpointError, match="corrupt metadata"):
        load_checkpoint(str(path))


def test_checkpoint_metadata_that_is_not_an_object(tmp_path):
    # valid JSON of another type is corrupt metadata too
    path = str(tmp_path / "list.ckpt")
    save_checkpoint(path, {"a": 1, "w": np.ones(4, np.float32)})
    _rewrite_meta(path, b"[1, 2]")
    with pytest.raises(CheckpointError, match="not a JSON object"):
        load_checkpoint(path)


def test_checkpoint_atomic_leaves_no_temp(tmp_path):
    path = str(tmp_path / "run.ckpt")
    save_checkpoint(path, {"w": np.ones(2, np.float32)})
    save_checkpoint(path, {"w": np.zeros(2, np.float32)})
    assert sorted(os.listdir(tmp_path)) == ["run.ckpt"]
    state = load_checkpoint(path)
    np.testing.assert_array_equal(state["w"], np.zeros(2, np.float32))


# ---------------------------------------------------------------------------
# trainer determinism / exact resume
# ---------------------------------------------------------------------------


def _tuples(rows):
    return [dataclasses.astuple(r) for r in rows]


def test_trainer_rerun_bit_identical():
    cfg = _tiny_config()
    rows_a = [Trainer(cfg, 3).train_iteration() for _ in range(1)]
    t1 = Trainer(cfg, 3)
    t2 = Trainer(cfg, 3)
    rows_1 = [t1.train_iteration() for _ in range(3)]
    rows_2 = [t2.train_iteration() for _ in range(3)]
    assert _tuples(rows_1) == _tuples(rows_2)
    assert _tuples(rows_1[:1]) == _tuples(rows_a)


@pytest.mark.parametrize("sigma", [0.0, 0.1])
@pytest.mark.parametrize("method", METHODS)
def test_trainer_resume_reproduces_next_rows(tmp_path, method, sigma):
    # a 16-row queue wraps before the save, so the ring's order is tested
    cfg = _tiny_config(method=method, noise_sigma=sigma, queue_size=16,
                       frames=320)
    ref = Trainer(cfg, 1)
    ref_rows = [ref.train_iteration() for _ in range(5)]

    t = Trainer(cfg, 1)
    t.train_iteration()
    t.train_iteration()
    path = str(tmp_path / "mid.ckpt")
    t.save(path)

    resumed = Trainer(cfg, 1).load(path)
    rows = [resumed.train_iteration() for _ in range(3)]
    assert _tuples(rows) == _tuples(ref_rows[2:])
    assert _tuples(resumed.rows) == _tuples(ref_rows)


# sha256 of the CSV each case's tiny run writes (pinned_runs.py)
_TRAINING_DIGESTS = {
    "DEIR": "52bd0c68476948f5891c0e8e4509f6742f3253b171bf8e38c0fb27527b9285e8",
    "PlainNovelty":
        "f40619502b0906700202680f88fbe9557d563b25631497da4ffe071ed9c2e5c7",
    "ForwardError":
        "deeb2b9d4d172f7fee87d693f262ebf066cead08cb906f7fc7435c0449696aa6",
    "InverseDriven":
        "536a52c587831ee5c925b27ea3c7dae6e6ca08f5cfa280dd901bbe4b6d4d82c7",
    "RND": "9d73536fd45b79bf25428cb5f71d50fa02e8e8de3e992143615e77e168dda219",
    "NoIntrinsic":
        "4d40ea20b97274d39d6760af23101a2f7f7bcfa898f67f5165e836de1d1f936b",
    "DEIR-harsh":
        "92c539d860480e0700c2955c47fee817aabf9cde7341cb16b1ee5e4064879f04",
    "DEIR-DoorKey8":
        "4b45ebd36421bf65fbdabc30d918ea8d9727635ff587717d188576a21f157508",
    "DEIR-layer":
        "8a9be893f9206f9afc2cc5a50027816060a5db123658d3c43f048e993ac2d706",
    "NoIntrinsic-minibatch16":
        "60348f2d76d85290d463cd924419c4dec08b44fa5244de56bd2b832b9cfc1752",
}


@pytest.mark.parametrize("case", DIGEST_CONFIGS)
def test_training_digest_is_pinned(case):
    assert training_digest(case) == _TRAINING_DIGESTS[case], (
        f"{case}: the training numerics changed. If the change is deliberate, "
        "update the digest here; the cached 1M-frame runs under "
        "tests/acceptance_runs/ then fail their numerics fingerprint and "
        "must be re-run."
    )


# sha256 of the checkpoint each case's tiny run writes (pinned_runs.py)
_CHECKPOINT_DIGESTS = {
    "DEIR": "5cf3fb35ced7b7859858dfb62e900836cc6da96c5dd241d83f9d02e355b611bd",
    "PlainNovelty":
        "d97f919de7c883f531685c06d5dceaf8a6e17cd23d909db6d3ac12e4ca7e8ce4",
    "ForwardError":
        "7edd870b4d7b90161bc1b81482cd7b1fffaa9785a4c84751c4eae5a29fae3c75",
    "InverseDriven":
        "a14eef41383acfa96da76669475bc79792ad38ef2f9bc0a7bab41f9b44709a8d",
    "RND": "a6b713a2a293ebf2328086b17542dfd4915d0d4557edba790f38ac4d961c4a16",
    "NoIntrinsic":
        "7af68541efb690716fc9f65ba5a8c5bc7048e043f030b6e73f619a52d61edc00",
    "DEIR-harsh":
        "d2c84d68c737e3f5e2631b55096d8b46bf5ecfe75082fc3ffb60d33f3e836f23",
    "DEIR-DoorKey8":
        "69f030a9602c81c4a246e2a5952678169f50724bf38c3d36f638c5dcbee0f0c4",
    "DEIR-layer":
        "79b922478dd479c6a07a91c932d10446825e0aaa6f44fe814b3a1896850a8173",
    "NoIntrinsic-minibatch16":
        "ac1643ed2890578ab32c9982612cbfec03444d8d55fc3593f9b8239650bc4b05",
}


@pytest.mark.parametrize("case", DIGEST_CONFIGS)
def test_checkpoint_digest_is_pinned(case):
    assert checkpoint_digest(case) == _CHECKPOINT_DIGESTS[case], (
        f"{case}: the checkpoint bytes changed; older checkpoints may no "
        "longer load or resume exactly")


def test_trainer_load_rejects_config_and_seed_mismatch(tmp_path):
    cfg = _tiny_config()
    t = Trainer(cfg, 1)
    t.train_iteration()
    path = str(tmp_path / "run.ckpt")
    t.save(path)
    with pytest.raises(CheckpointError):
        Trainer(cfg, 2).load(path)
    with pytest.raises(CheckpointError):
        Trainer(_tiny_config(method="RND"), 1).load(path)


def test_trainer_load_names_the_keys_that_differ_and_skips_run_control(
        tmp_path):
    cfg = _tiny_config(seeds=(1, 2))
    t = Trainer(cfg, 1)
    t.train_iteration()
    path = str(tmp_path / "run.ckpt")
    t.save(path)
    with pytest.raises(CheckpointError,
                       match=r"differs from current in env\.task$"):
        Trainer(dataclasses.replace(cfg, task="DoorKey8"), 1).load(path)
    with pytest.raises(CheckpointError,
                       match=r"in ppo\.lr, run\.method$"):
        Trainer(dataclasses.replace(cfg, lr=1e-3, method="RND"), 1).load(path)
    # run control may change: one seed of the two, a longer run, another
    # output directory, other checkpoint and log intervals
    resumed = dataclasses.replace(cfg, seeds=(1,), frames=192, out="elsewhere",
                                  checkpoint_every=2, log_every=3)
    assert Trainer(resumed, 1).load(path).frames == 64


def test_trainer_load_rejects_environment_shape_mismatch(tmp_path):
    t = Trainer(_tiny_config(), 1)
    path = str(tmp_path / "run.ckpt")
    t.save(path)
    state = load_checkpoint(path)
    state["env.planes"] = state["env.planes"][:, :, 1:]  # one column less
    save_checkpoint(path, state)
    with pytest.raises(CheckpointError, match="shape mismatch"):
        Trainer(_tiny_config(), 1).load(path)


def test_forward_error_checkpoint_keeps_no_episodic_memory(tmp_path):
    # ForwardError's bonus reads no episodic memory, so it neither keeps
    # nor saves one; a checkpoint of the same version that still carries
    # the 2 x W empty memory arrays loads and resumes exactly
    cfg = _tiny_config(method="ForwardError")
    ref = Trainer(cfg, 1)
    ref_rows = [ref.train_iteration() for _ in range(3)]
    t = Trainer(cfg, 1)
    t.train_iteration()
    path = str(tmp_path / "run.ckpt")
    t.save(path)
    state = load_checkpoint(path)
    assert not any(k.startswith("mx.mem") for k in state)
    for w in range(cfg.workers):
        for part in ("obs", "traj"):
            state[f"mx.mem{w}_{part}"] = np.zeros((0, cfg.embed_dim),
                                                 np.float32)
    save_checkpoint(path, state)
    resumed = Trainer(cfg, 1).load(path)
    rows = [resumed.train_iteration() for _ in range(2)]
    assert _tuples(rows) == _tuples(ref_rows[1:])


_TRAINER_KEYS = {"config", "seed", "rows", "update_rng", "method_rng",
                 "version"}


@pytest.mark.parametrize("method", METHODS)
def test_checkpoint_entries_belong_to_the_trainer_or_a_part(tmp_path,
                                                            method):
    # the Trainer saves only its own facts; every other header value and
    # every array is saved by a part, under that part's prefix
    t = Trainer(_tiny_config(method=method, noise_sigma=0.1), 1)
    t.train_iteration()
    path = str(tmp_path / "run.ckpt")
    t.save(path)
    state = load_checkpoint(path)
    prefixes = tuple(prefix for prefix, _ in t._parts())
    assert _TRAINER_KEYS <= set(state)
    stray = [k for k in state
             if k not in _TRAINER_KEYS and not k.startswith(prefixes)]
    assert stray == []
    assert any(k.startswith("tracker.") for k in state)
    assert isinstance(state["env.planes"], np.ndarray)
    assert isinstance(state["env.agents"], list)


def _saved_state(tmp_path):
    """A tiny run's checkpoint path and its loaded state dict."""
    t = Trainer(_tiny_config(), 1)
    t.train_iteration()
    path = str(tmp_path / "run.ckpt")
    t.save(path)
    return path, load_checkpoint(path)


@pytest.mark.parametrize("entry", ["collector.rng", "env.agents",
                                   "tracker.lifetime", "adv_norm.std",
                                   "update_rng", "config", "seed", "rows"])
def test_trainer_load_rejects_missing_header_entry(tmp_path, entry):
    path, state = _saved_state(tmp_path)
    del state[entry]
    save_checkpoint(path, state)
    with pytest.raises(CheckpointError, match=rf"missing .*'{entry}'"):
        Trainer(_tiny_config(), 1).load(path)
    with pytest.raises(CheckpointError, match=rf"missing .*'{entry}'"):
        Trainer.from_checkpoint(path)


def test_trainer_load_rejects_a_malformed_array(tmp_path):
    path, state = _saved_state(tmp_path)
    name = "policy.encoder.in_norm.gamma"
    state[name] = state[name][:-1]
    save_checkpoint(path, state)
    with pytest.raises(CheckpointError, match="malformed .*saved shape"):
        Trainer(_tiny_config(), 1).load(path)
    with pytest.raises(CheckpointError, match="malformed .*saved shape"):
        Trainer.from_checkpoint(path)


@pytest.mark.parametrize("entry", [
    "collector.cur_obs", "collector.policy_hidden",
    "collector.episode_returns", "mx.h", "mx.h_before", "mx.e_cur",
    "env.agents", "env.rngs", "tracker.episode_seen", "tracker.fresh_start"])
def test_trainer_load_rejects_per_worker_state_one_worker_short(tmp_path,
                                                               entry):
    # numpy would broadcast an array one row short, and a list one entry
    # short would leave a worker (with env.rngs, its RNG) unrestored; the
    # run would train on either way
    path, state = _saved_state(tmp_path)
    state[entry] = state[entry][:-1]
    save_checkpoint(path, state)
    with pytest.raises(CheckpointError, match="malformed"):
        Trainer(_tiny_config(), 1).load(path)


def test_trainer_load_rejects_a_transposed_weight(tmp_path):
    # same size, other shape: a reshape would have loaded it
    path, state = _saved_state(tmp_path)
    name = "policy.encoder.conv0.w"
    assert len(set(state[name].shape)) > 1
    state[name] = np.ascontiguousarray(state[name].T)
    save_checkpoint(path, state)
    with pytest.raises(CheckpointError, match="malformed .*saved shape"):
        Trainer(_tiny_config(), 1).load(path)


def test_trainer_load_rejects_malformed_metric_rows(tmp_path):
    # a row one value short would otherwise load, the last diagnostic
    # taking its default
    path, state = _saved_state(tmp_path)
    row = state["rows"][0]
    for rows in ([row[:-1]], [row[1:]], [row + [0]], [None], None):
        state["rows"] = rows
        save_checkpoint(path, state)
        with pytest.raises(CheckpointError, match="malformed"):
            Trainer(_tiny_config(), 1).load(path)
        with pytest.raises(CheckpointError, match="malformed"):
            Trainer.from_checkpoint(path)


def test_trainer_load_refuses_a_checkpoint_past_run_frames(tmp_path):
    cfg = _tiny_config(frames=128)
    t = Trainer(cfg, 1)
    for _ in range(2):
        t.train_iteration()
    path = str(tmp_path / "run.ckpt")
    t.save(path)
    assert Trainer(cfg, 1).load(path).frames == 128
    with pytest.raises(CheckpointError,
                       match=r"holds 128 frames, past run\.frames = 64$"):
        Trainer(dataclasses.replace(cfg, frames=64), 1).load(path)


def test_load_checkpoint_refuses_a_path_it_cannot_read(tmp_path):
    with pytest.raises(CheckpointError,
                       match="cannot read checkpoint: No such file"):
        load_checkpoint(str(tmp_path / "missing.ckpt"))
    with pytest.raises(CheckpointError,
                       match="cannot read checkpoint: Is a directory"):
        load_checkpoint(str(tmp_path))


def test_from_checkpoint_rejects_a_config_line_without_separator(tmp_path):
    path, state = _saved_state(tmp_path)
    state["config"] = state["config"] + ["run.frames"]
    save_checkpoint(path, state)
    with pytest.raises(CheckpointError, match="malformed"):
        Trainer.from_checkpoint(path)


def test_from_checkpoint_rejects_an_unknown_config_key(tmp_path):
    path, state = _saved_state(tmp_path)
    state["config"] = state["config"] + ["run.colour = red"]
    save_checkpoint(path, state)
    with pytest.raises(CheckpointError, match="unknown config key 'run.colour'"):
        Trainer.from_checkpoint(path)


def test_trainer_load_rejects_missing_memory_array(tmp_path):
    path, state = _saved_state(tmp_path)
    del state["mx.mem1_traj"]
    save_checkpoint(path, state)
    with pytest.raises(CheckpointError, match="mem1_traj"):
        Trainer(_tiny_config(), 1).load(path)


@pytest.mark.parametrize("method", ["DEIR", "PlainNovelty"])
def test_memory_rows_survive_a_checkpoint_bit_equal(tmp_path, method):
    cfg = _tiny_config(method=method)
    t = Trainer(cfg, 1)
    t.train_iteration()
    path = str(tmp_path / "run.ckpt")
    t.save(path)
    assert [k for k in load_checkpoint(path) if k.startswith("mx.mem")] == [
        f"mx.mem{w}_{part}" for w in range(cfg.workers)
        for part in ("obs", "traj")]
    back = Trainer.from_checkpoint(path)
    assert any(mem.count for mem in t.method.memories)
    for mem, loaded in zip(t.method.memories, back.method.memories):
        assert loaded.count == mem.count
        for a, b in ((mem.obs, loaded.obs), (mem.traj, loaded.traj)):
            assert (b.dtype, b.tobytes()) == (a.dtype, a.tobytes())
    assert back.train_iteration() == t.train_iteration()


@pytest.mark.parametrize("rows, match", [
    ((43, 43), r"mx\.mem0_obs and mx\.mem0_traj hold 43 and 43 rows, for a "
               r"capacity of 42$"),
    ((32, 31), r"hold 32 and 31 rows, for a capacity of 42$"),
], ids=["past_capacity", "lengths_differ"])
def test_trainer_load_refuses_malformed_memory_rows(tmp_path, rows, match):
    path, state = _saved_state(tmp_path)
    for part, n in zip(("obs", "traj"), rows):
        state[f"mx.mem0_{part}"] = np.zeros((n, 8), np.float32)
    save_checkpoint(path, state)
    with pytest.raises(CheckpointError, match=match):
        Trainer(_tiny_config(), 1).load(path)


def test_bonus_diagnostics_are_zero_without_their_part():
    for method in ("NoIntrinsic", "ForwardError", "InverseDriven", "RND"):
        row = Trainer(_tiny_config(method=method), 1).train_iteration()
        assert (row.neg_shortfall, row.queue_len, row.queue_admit_frac,
                row.disc_acc, row.queue_running_avg) == (0, 0, 0.0, 0.0,
                                                         0.0), method


@pytest.mark.parametrize("method", ["DEIR", "PlainNovelty"])
def test_bonus_diagnostics_count_the_queue_and_discriminator(monkeypatch,
                                                             method):
    admitted = []
    update_queue = methods.update_queue

    def counted(q, obs, net_obs, r_i):
        before = q.pushes
        update_queue(q, obs, net_obs, r_i)
        admitted[-1] += q.pushes - before

    monkeypatch.setattr(methods, "update_queue", counted)
    cfg = _tiny_config(method=method, noise_sigma=0.1)
    t = Trainer(cfg, 1)
    steps = cfg.rollout_steps * cfg.workers
    for _ in range(3):
        admitted.append(0)
        row = t.train_iteration()
        assert row.queue_len == len(t.method.queue)
        assert row.queue_admit_frac == admitted[-1] / steps
        assert row.queue_running_avg == t.method.queue.running_avg > 0.0
        assert row.neg_shortfall == 0
        assert 0.0 < row.disc_acc < 1.0
        for name in MetricRow.columns():
            assert math.isfinite(getattr(row, name)), name
    assert 0 < sum(admitted) <= t.method.queue.max_size


def test_queue_without_noise_keeps_no_network_rows():
    # without noise the network row is normalize_obs of the integer row,
    # so a queue that derives it trains exactly as one that stores it
    cfg = _tiny_config(queue_size=16)  # wraps within 3 iterations
    lean, full = Trainer(cfg, 1), Trainer(cfg, 1)
    assert not lean.method.queue.keep_net
    full.method.queue = ObservationQueue(cfg.queue_size, cfg.queue_smoothing)
    rows = [(lean.train_iteration(), full.train_iteration())
            for _ in range(3)]
    assert _tuples(r for r, _ in rows) == _tuples(r for _, r in rows)
    assert len(lean.method.queue) == len(full.method.queue) == 16
    for i in range(16):
        for a, b in zip(lean.method.queue[i], full.method.queue[i]):
            assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes())
    assert "mx.queue_net" in full.method.state_arrays("mx.")
    assert "mx.queue_net" not in lean.method.state_arrays("mx.")


def test_neg_shortfall_counts_negatives_an_empty_queue_cannot_supply():
    cfg = _tiny_config()
    t = Trainer(cfg, 1)
    buf = t.collector.collect(cfg.rollout_steps)
    t.method.queue = type(t.method.queue)(cfg.queue_size,  # empty
                                          cfg.queue_smoothing)
    stats = t.method.update(buf, np.random.default_rng(0), epochs=2,
                            minibatch=cfg.model_minibatch)
    batches = 2 * (buf.raw_ir.size // cfg.model_minibatch)
    assert stats["neg_shortfall"] == batches * cfg.model_minibatch // 2
    assert (stats["queue_len"], stats["queue_admit_frac"]) == (0, 0.0)
    assert 0.0 <= stats["disc_acc"] <= 1.0


def test_trainer_metric_rows_monotone_frames():
    cfg = _tiny_config()
    t = Trainer(cfg, 4)
    rows = [t.train_iteration() for _ in range(3)]
    frames = [r.frames for r in rows]
    assert frames == sorted(set(frames))
    assert frames[0] == cfg.rollout_steps * cfg.workers
    for r in rows:
        assert 0.0 <= r.lifelong_eff <= r.episodic_eff <= 1.0


def _iteration_peak_bytes(cfg):
    """tracemalloc peak of one training iteration after a warm-up one."""
    t = Trainer(cfg, 1)
    t.train_iteration()
    tracemalloc.start()
    try:
        t.train_iteration()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_more_model_epochs_keep_no_more_memory():
    # each minibatch's graph is freed by its backward, so four epochs of
    # bonus-model minibatches peak as high as one: the peak is set by the
    # largest single graph, not by how many are built in a row
    many = _iteration_peak_bytes(_tiny_config(model_epochs=4))
    one = _iteration_peak_bytes(_tiny_config(model_epochs=1))
    assert many <= 1.05 * one, (many, one)


# the benchmark's workload configs (perfbench/workloads.py): desk widths,
# 16 workers, 32-step rollouts
_DESK = dict(embed_dim=16, hidden=32, channels=(8, 16, 16), workers=16,
             rollout_steps=32, task="MultiRoomN2S4")


# traced peaks 14.4 and 22.3 MiB; 28.0 and 28.8 MiB while each hidden
# layer kept its pre-norm, normalized and rectified arrays and the
# ForwardError target pass built a graph
@pytest.mark.parametrize("method, noise, bound_mib", [
    ("ForwardError", 0.1, 16.0), ("DEIR", 0.0, 25.0)])
def test_desk_iteration_peak_is_pinned(method, noise, bound_mib):
    cfg = ExperimentConfig(method=method, noise_sigma=noise, **_DESK)
    assert _iteration_peak_bytes(cfg) / 2**20 < bound_mib


_FAULTS_SCRIPT = """
import dataclasses, resource
from gridexplore.harness import ExperimentConfig, Trainer
cfg = ExperimentConfig(method="ForwardError", noise_sigma=0.1, frames=1024,
                       **{desk!r})
trainer = Trainer(cfg, 0)
trainer.run()  # two warm-up iterations
trainer.config = dataclasses.replace(cfg, frames=3072)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
trainer.run()  # four more
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 4)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the heap policy is glibc's mallopt")
def test_trainer_run_keeps_its_heap():
    # at glibc's default thresholds each freed minibatch graph is handed
    # back to the system and faulted in again: ~13k minor faults per
    # iteration here, against a few dozen with the heap kept
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    res = subprocess.run([sys.executable, "-c",
                          _FAULTS_SCRIPT.format(desk=_DESK)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    assert float(res.stdout) < 1000


def test_run_experiment_emits_csvs(tmp_path):
    out = str(tmp_path / "runs")
    cfg = _tiny_config(seeds=(1, 2), frames=64, out=out)
    all_rows = run_experiment(cfg)
    assert set(all_rows) == {1, 2}
    for seed in (1, 2):
        assert os.path.exists(os.path.join(out, f"seed{seed}.csv"))
        assert os.path.exists(os.path.join(out, f"seed{seed}.ckpt"))
    assert os.path.exists(os.path.join(out, "aggregate.csv"))


def test_run_experiment_csvs_bit_identical(tmp_path):
    cfg = _tiny_config(seeds=(1,), frames=64)
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    run_experiment(dataclasses.replace(cfg, out=out_a))
    run_experiment(dataclasses.replace(cfg, out=out_b))
    for name in ("seed1.csv", "aggregate.csv"):
        a = open(os.path.join(out_a, name), "rb").read()
        b = open(os.path.join(out_b, name), "rb").read()
        assert a == b


def test_no_intrinsic_rows_do_not_depend_on_beta():
    # NoIntrinsic's raw bonus is all zeros, so its standardized bonus is
    # exactly 0 and beta scales nothing
    rows = []
    for beta in (0.01, 0.5):
        t = Trainer(_tiny_config(method="NoIntrinsic", beta=beta), 1)
        rows.append([t.train_iteration() for _ in range(2)])
    assert rows[0] == rows[1]
    assert all(row.raw_ir_mean == 0.0 for row in rows[0])


# ---------------------------------------------------------------------------
# embedding probes
# ---------------------------------------------------------------------------


def test_probe_dataset_and_heads_smoke():
    spec = EnvSpec(task="DoorKey8")
    data = collect_probe_dataset(spec, seed=0, episodes=8)
    assert all(obs.shape[1:] == (7, 7, 3) for obs, _ in data)
    assert all(labels.shape[1] == 5 for _, labels in data)
    for _, labels in data:
        assert np.all((labels >= 0.0) & (labels <= 1.0))

    rng = np.random.default_rng(0)
    model = DiscModel(7, 7, rng, embed_dim=8, hidden=16, channels=(4, 8, 8),
                      norm="batch")
    emb, labels = embed_dataset(model, data)
    assert emb.shape[0] == labels.shape[0] >= 200
    losses = probe_embeddings(emb, labels, np.random.default_rng(1), epochs=2)
    assert set(losses) == {name for name, _ in PROBE_TASKS}
    assert all(np.isfinite(v) for v in losses.values())
