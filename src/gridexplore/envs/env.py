"""Batched environment: W grid-world workers stepped in lockstep, tying
together layout generation, world dynamics and the observation pipeline.

The workers' obj, color and state grids live in one (3, W, w, h) array;
each worker's `GridWorld` holds views into it, so `core.step` and
`solve` work on a worker as on any world, while observations and state
fingerprints are computed for all workers at once. Each worker owns its
RNG streams: one for episode layouts and a separate one for observation
noise, so the state trajectory under a fixed action sequence does not
depend on whether noise is enabled.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from . import core, layouts, modifiers
from .core import GridWorld


@dataclass
class StepResult:
    """One row per worker stepped or reset."""

    obs: np.ndarray  # (n, v, v, 3) uint8 after deterministic modifiers
    net_obs: np.ndarray  # (n, v, v, 3) float32 input: normalized + noise
    reward: np.ndarray  # (n,) float64
    done: np.ndarray  # (n,) bool
    state: list  # n full-state fingerprints (oracle use only)


class Env:
    """W grid-world workers; reset() starts fresh random layouts."""

    _PLANES = ("obj", "color", "state")  # the worlds' uint8 grids

    def __init__(self, spec: layouts.EnvSpec, seeds):
        self.spec = spec
        self.n_workers = len(seeds)
        self._layout_rngs = [
            np.random.default_rng(np.random.SeedSequence([seed, 0]))
            for seed in seeds
        ]
        self._noise_rngs = [
            np.random.default_rng(np.random.SeedSequence([seed, 1]))
            for seed in seeds
        ]
        self.planes: np.ndarray | None = None  # (3, W, w, h) uint8
        self.worlds: list[GridWorld | None] = [None] * self.n_workers
        self._rows = list(range(self.n_workers))

    def _results(self, rows, reward, done):
        """StepResult of the workers `rows` (a list of indices), in that
        order."""
        poses = core.pose_rows([self.worlds[i] for i in rows])
        obs = core.observe_batch(self.planes, rows, poses,
                                 self.spec.view_size)
        if self.spec.invisible_obstacles:
            obs = modifiers.hide_obstacles(obs)
        # noise is drawn per worker, each from its own stream
        sigma = self.spec.noise_sigma
        net = modifiers.normalize_obs(obs)
        if sigma != 0:
            for k, i in enumerate(rows):
                net[k] = modifiers.apply_noise(net[k], sigma,
                                               self._noise_rngs[i])
        return StepResult(obs, net, reward, done,
                          core.state_id_batch(self.planes, rows, poses))

    def reset(self, workers=None) -> StepResult:
        """Fresh layouts for `workers` (distinct indices; all when None);
        the result has one row per reset worker, in the order given."""
        if workers is None:
            rows = self._rows
        else:
            rows = [operator.index(i) for i in workers]
            for k, i in enumerate(rows):
                if not 0 <= i < self.n_workers:
                    raise core.EnvError(f"reset(): worker {i} is out of "
                                        f"range for {self.n_workers} workers")
                if i in rows[:k]:
                    raise core.EnvError(f"reset(): worker {i} is listed "
                                        f"twice")
        for i in rows:
            seed = int(self._layout_rngs[i].integers(2**31))
            world = layouts.generate(self.spec, seed)
            if self.planes is None:
                self.planes = np.zeros(
                    (3, self.n_workers, world.width, world.height), np.uint8)
            for k, plane in enumerate(self._PLANES):
                self.planes[k, i] = getattr(world, plane)
                setattr(world, plane, self.planes[k, i])
            self.worlds[i] = world
        n = len(rows)
        return self._results(rows, np.zeros(n), np.zeros(n, dtype=bool))

    def step(self, actions) -> StepResult:
        """Advance every worker by its action; one row per worker."""
        if self.planes is None:
            raise core.EnvError("step() before reset()")
        if len(actions) != self.n_workers:
            raise core.EnvError(f"step() got {len(actions)} actions for "
                                f"{self.n_workers} workers")
        reward = np.zeros(self.n_workers)
        done = np.zeros(self.n_workers, dtype=bool)
        for i, (world, a) in enumerate(zip(self.worlds, actions)):
            reward[i], done[i] = core.step(world, int(a))
        return self._results(self._rows, reward, done)

    def state_arrays(self, prefix=""):
        """The (3, W, w, h) grid planes as an array; as JSON values, one
        [x, y, dir, carried_obj, carried_color, step_count, done] row per
        worker (carried_obj 0 for empty hands), then the layout and the
        noise RNG states of every worker."""
        return {
            f"{prefix}planes": self.planes,
            f"{prefix}agents": [
                [*w.agent_pos, int(w.agent_dir), *(w.carried or (0, 0)),
                 w.step_count, int(w.done)] for w in self.worlds],
            f"{prefix}rngs": [r.bit_generator.state
                              for r in self._layout_rngs + self._noise_rngs],
        }

    def load_state(self, state, prefix=""):
        planes = state[f"{prefix}planes"]
        if self.planes is None or planes.shape != self.planes.shape:
            raise core.EnvError("environment shape mismatch")
        self.planes[:] = planes  # the worlds' grids are views into it
        for w, row in zip(self.worlds, state[f"{prefix}agents"], strict=True):
            x, y, d, obj, color, w.step_count, done = row
            w.agent_pos, w.agent_dir, w.done = (x, y), core.Dir(d), bool(done)
            w.carried = (obj, color) if obj else None
        for r, saved in zip(self._layout_rngs + self._noise_rngs,
                            state[f"{prefix}rngs"], strict=True):
            r.bit_generator.state = saved
