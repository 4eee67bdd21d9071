"""Training orchestration: wires environments, policy, bonus method,
normalizers, metrics, CSV output, and exact-resume checkpoints."""
from __future__ import annotations

import contextlib
import ctypes
import os
import time
from dataclasses import astuple

import numpy as np

from ..envs import N_ACTIONS, EnvError, Env
from ..methods import make_method
from ..nn import Adam
from ..ppo import (
    GAE_LAMBDA,
    GAMMA,
    ActorCritic,
    Collector,
    EmaStandardizer,
    compute_gae,
    ppo_update,
)
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import (ConfigError, ExperimentConfig, config_lines,
                     differing_keys, load_config, parse_overrides)
from .metrics import ExplorationTracker, MetricRow
from .outputs import aggregate_csv, write_csv


def _rng(seed, stream):
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's malloc.h


def _keep_heap():
    """Keep freed memory in the heap for the next minibatch's graph.

    At glibc's starting thresholds (128 KiB) each freed graph's arrays
    go back to the system, by a heap trim or an munmap, and their pages
    are faulted in again by the next graph. 8 MiB and 16 MiB are about
    the thresholds glibc's own rule reaches once an 8 MB array has been
    freed. A no-op without glibc."""
    if "CS_GNU_LIBC_VERSION" not in getattr(os, "confstr_names", ()):
        return  # not glibc
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 8 << 20)
    mallopt(_M_TRIM_THRESHOLD, 16 << 20)


@contextlib.contextmanager
def _reading_checkpoint():
    """Raises a missing or malformed checkpoint entry as CheckpointError."""
    try:
        yield
    except KeyError as exc:
        raise CheckpointError(f"missing checkpoint entry {exc}") from exc
    except EnvError as exc:
        raise CheckpointError(str(exc)) from exc
    except (ConfigError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed checkpoint entry: {exc}") from exc


def _saved_config(state):
    """The config a checkpoint's state dict records."""
    return load_config(overrides=parse_overrides(state["config"],
                                                 "checkpoint config"))


class Trainer:
    """One (config, seed) training process."""

    def __init__(self, config: ExperimentConfig, seed: int):
        config.validate()
        self.config = config
        self.seed = seed
        cfg = config
        spec = cfg.env_spec()
        init_rng = _rng(seed, 1)
        self.policy = ActorCritic(
            spec.view_size, N_ACTIONS, init_rng, embed_dim=cfg.embed_dim,
            hidden=cfg.hidden, channels=cfg.channels, norm=cfg.norm,
        )
        self.policy.eval()
        self.opt = Adam(self.policy.parameters(), lr=cfg.lr)
        self.method = make_method(cfg, _rng(seed, 2), cfg.workers)
        env = Env(spec, [seed * 100_000 + w for w in range(cfg.workers)])
        self.collector = Collector(env, self.policy, self.method,
                                   _rng(seed, 3))
        self.update_rng = _rng(seed, 4)
        self.method_rng = _rng(seed, 5)
        self.ir_norm = EmaStandardizer()
        self.adv_norm = EmaStandardizer()
        self.tracker = ExplorationTracker(cfg.workers)
        self.rows: list[MetricRow] = []

    @property
    def iteration(self):
        return len(self.rows)

    @property
    def frames(self):
        return self.iteration * self.config.rollout_steps * self.config.workers

    # -- one collect/update cycle -----------------------------------------

    def train_iteration(self) -> MetricRow:
        cfg = self.config
        buf = self.collector.collect(cfg.rollout_steps)
        raw = buf.raw_ir
        rewards = buf.ext_rewards + cfg.beta * self.ir_norm(raw)
        self.ir_norm.update(raw)
        adv, ret = compute_gae(rewards, buf.values, buf.dones, buf.bootstrap,
                               GAMMA, GAE_LAMBDA)
        self.adv_norm.update(adv)
        buf.advantages = self.adv_norm(adv)
        buf.returns = ret
        stats = ppo_update(self.policy, self.opt, buf, self.update_rng,
                           minibatch=cfg.minibatch, bptt_len=cfg.bptt_len)
        mstats = self.method.update(buf, self.method_rng,
                                    epochs=cfg.model_epochs,
                                    minibatch=cfg.model_minibatch)
        ep_eff, life_eff = self.tracker.update(buf.states, buf.dones)

        window = self.collector.finished_episodes
        mean_return = sum(window) / len(window) if window else 0.0
        row = MetricRow(
            frames=self.frames + cfg.rollout_steps * cfg.workers,
            mean_return=mean_return,
            episodic_eff=ep_eff,
            lifelong_eff=life_eff,
            raw_ir_mean=float(raw.mean()),
            episodes=self.collector.total_episodes,
            **stats,
            **mstats,
        )
        self.rows.append(row)
        return row

    def run(self, csv_path=None, checkpoint_path=None, progress=False):
        _keep_heap()
        cfg = self.config
        per_iter = cfg.rollout_steps * cfg.workers
        start = time.monotonic()
        while self.frames + per_iter <= cfg.frames:
            row = self.train_iteration()
            if progress and self.iteration % cfg.log_every == 0:
                elapsed = time.monotonic() - start
                print(
                    f"frames={row.frames} return={row.mean_return:.3f} "
                    f"life_eff={row.lifelong_eff:.4f} wall={elapsed:.0f}s",
                    flush=True,
                )
            if (checkpoint_path and cfg.checkpoint_every
                    and self.iteration % cfg.checkpoint_every == 0):
                self.save(checkpoint_path)
        if csv_path:
            write_csv(csv_path, self.rows)
        if checkpoint_path:
            self.save(checkpoint_path)
        return self.rows

    # -- exact-resume checkpointing ---------------------------------------

    def _parts(self):
        """(checkpoint prefix, part) of every stateful part of a run: the
        networks and optimizers, the bonus method's own state, then the
        collector, the environment, the exploration tracker and the two
        standardizers. Each part's `state_arrays(prefix)` adds numpy
        arrays and JSON values (RNG states, fingerprint sets as sorted
        hex, episode returns and counts) to one state dict, and its
        `load_state(state, prefix)` reads them back from it."""
        m, c = self.method, self.collector
        return [("policy.", self.policy), ("popt.", self.opt),
                *((f"m.{k}.", v) for k, v in m.modules().items()),
                *((f"mo.{k}.", v) for k, v in m.optimizers().items()),
                ("mx.", m), ("collector.", c), ("env.", c.env),
                ("tracker.", self.tracker), ("ir_norm.", self.ir_norm),
                ("adv_norm.", self.adv_norm)]

    def save(self, path):
        state = {"config": config_lines(self.config), "seed": self.seed,
                 "rows": [list(astuple(row)) for row in self.rows],
                 "update_rng": self.update_rng.bit_generator.state,
                 "method_rng": self.method_rng.bit_generator.state}
        for prefix, part in self._parts():
            state.update(part.state_arrays(prefix))
        save_checkpoint(path, state)

    def load(self, path):
        """Restore this trainer from a checkpoint of its config and seed."""
        return self._restore(load_checkpoint(path))

    @classmethod
    def from_checkpoint(cls, path):
        """A trainer of the config and seed a checkpoint records, restored
        from it; the file is read once."""
        state = load_checkpoint(path)
        with _reading_checkpoint():
            return cls(_saved_config(state), state["seed"])._restore(state)

    def _restore(self, state):
        with _reading_checkpoint():
            differ = differing_keys(_saved_config(state), self.config)
            if differ:
                raise CheckpointError("checkpoint config differs from "
                                      f"current in {', '.join(differ)}")
            if state["seed"] != self.seed:
                raise CheckpointError("checkpoint seed differs from current")
            width = len(MetricRow.columns())
            if any(len(row) != width for row in state["rows"]):
                raise ValueError(f"metric rows need {width} values each")
            self.rows = [MetricRow(*row) for row in state["rows"]]
            if self.frames > self.config.frames:
                raise CheckpointError(
                    f"checkpoint holds {self.frames} frames, past "
                    f"run.frames = {self.config.frames}")
            for prefix, part in self._parts():
                part.load_state(state, prefix)
            self.update_rng.bit_generator.state = state["update_rng"]
            self.method_rng.bit_generator.state = state["method_rng"]
        return self


def run_experiment(config: ExperimentConfig, progress=False, resume=False):
    """Train every seed in the config; emit per-seed and aggregate CSVs.

    With `resume`, each seed continues from its checkpoint in `run.out`,
    if it has one; the outputs are those of a run that never stopped.
    """
    os.makedirs(config.out, exist_ok=True)
    seed_paths = []
    all_rows = {}
    for seed in config.seeds:
        trainer = Trainer(config, seed)
        csv_path = os.path.join(config.out, f"seed{seed}.csv")
        ckpt = os.path.join(config.out, f"seed{seed}.ckpt")
        if resume and os.path.exists(ckpt):
            try:
                trainer.load(ckpt)
            except CheckpointError as exc:
                raise CheckpointError(f"{ckpt}: {exc}") from exc
        rows = trainer.run(csv_path=csv_path, checkpoint_path=ckpt,
                           progress=progress)
        seed_paths.append(csv_path)
        all_rows[seed] = rows
    aggregate_csv(os.path.join(config.out, "aggregate.csv"), seed_paths)
    return all_rows
