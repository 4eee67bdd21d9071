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

from dataclasses import dataclass

import numpy as np

from . import core, layouts, modifiers
from .core import Action, EnvSpec, GridWorld


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

    def __init__(self, spec: EnvSpec, seeds):
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

    def _results(self, idx, reward, done):
        """StepResult of the workers `idx`, in that order."""
        planes = self.planes[:, idx]
        worlds = [self.worlds[i] for i in idx]
        obs = core.observe_batch(planes, worlds, self.spec.view_size)
        if self.spec.invisible_obstacles:
            obs = modifiers.hide_obstacles(obs)
        # noise is drawn per worker, each from its own stream
        sigma = self.spec.noise_sigma
        net = np.stack([modifiers.apply_noise(row, sigma, self._noise_rngs[i])
                        for row, i in zip(modifiers.normalize_obs(obs), idx)])
        return StepResult(obs, net, reward, done,
                          core.state_id_batch(planes, worlds))

    def reset(self, workers=None) -> StepResult:
        """Fresh layouts for `workers` (indices; all when None); the
        result has one row per reset worker, in the order given."""
        idx = list(range(self.n_workers) if workers is None else workers)
        for i in idx:
            seed = int(self._layout_rngs[i].integers(2**31))
            world = layouts.generate(self.spec, seed)
            if self.planes is None:
                self.planes = np.zeros(
                    (3, self.n_workers, world.width, world.height), np.uint8)
            for k, plane in enumerate(self._PLANES):
                self.planes[k, i] = getattr(world, plane)
                setattr(world, plane, self.planes[k, i])
            self.worlds[i] = world
        n = len(idx)
        return self._results(idx, np.zeros(n), np.zeros(n, dtype=bool))

    def step(self, actions) -> StepResult:
        """Advance every worker by its action; one row per worker."""
        if self.planes is None:
            raise core.EnvError("step() before reset()")
        reward = np.zeros(self.n_workers)
        done = np.zeros(self.n_workers, dtype=bool)
        for i, (world, a) in enumerate(zip(self.worlds, actions)):
            reward[i], done[i] = core.step(world, Action(int(a)))
        return self._results(range(self.n_workers), reward, done)

    def dump_state(self):
        """(metas, arrays) that `load_state` restores the workers from: per
        worker its world's scalars and RNG states, and the (3, W, w, h)
        grid planes of all workers under `env.planes`."""
        metas = [{
            "agent_pos": list(w.agent_pos),
            "agent_dir": int(w.agent_dir),
            "carried": list(w.carried) if w.carried else None,
            "step_count": w.step_count,
            "done": w.done,
            "layout_rng": layout_rng.bit_generator.state,
            "noise_rng": noise_rng.bit_generator.state,
        } for w, layout_rng, noise_rng in zip(
            self.worlds, self._layout_rngs, self._noise_rngs)]
        return metas, {"env.planes": self.planes}

    def load_state(self, metas, arrays):
        planes = arrays["env.planes"]
        if self.planes is None or planes.shape != self.planes.shape:
            raise core.EnvError("environment shape mismatch")
        self.planes[:] = planes  # the worlds' grids are views into it
        for w, meta, layout_rng, noise_rng in zip(
                self.worlds, metas, self._layout_rngs, self._noise_rngs):
            w.agent_pos = tuple(meta["agent_pos"])
            w.agent_dir = core.Dir(meta["agent_dir"])
            w.carried = tuple(meta["carried"]) if meta["carried"] else None
            w.step_count = meta["step_count"]
            w.done = meta["done"]
            layout_rng.bit_generator.state = meta["layout_rng"]
            noise_rng.bit_generator.state = meta["noise_rng"]
