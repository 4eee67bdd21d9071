"""Single-instance environment wrapper tying together layout generation,
world dynamics, and the observation pipeline.

Each instance owns its RNG streams: one for episode layouts and a separate
one for observation noise, so the state trajectory under a fixed action
sequence does not depend on whether noise is enabled.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core, layouts, modifiers
from .core import Action, EnvSpec, GridWorld


@dataclass
class StepResult:
    obs: np.ndarray  # integer observation after deterministic modifiers
    net_obs: np.ndarray  # float32 network input (normalized + noise)
    reward: float
    done: bool
    state: bytes  # full-state fingerprint (oracle use only)


class Env:
    """One grid-world worker: reset() starts a fresh random layout."""

    _PLANES = ("obj", "color", "state")  # the world's uint8 grids

    def __init__(self, spec: EnvSpec, seed: int):
        self.spec = spec
        self._layout_rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
        self._noise_rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        self.world: GridWorld | None = None

    def _observe(self):
        obs = core.observe(self.world, self.spec)
        if self.spec.invisible_obstacles:
            obs = modifiers.hide_obstacles(obs)
        net = modifiers.apply_noise(
            obs, self.spec.noise_mu, self.spec.noise_sigma, self._noise_rng
        )
        return obs, net

    def reset(self) -> StepResult:
        layout_seed = int(self._layout_rng.integers(2**31))
        self.world = layouts.generate(self.spec, layout_seed)
        obs, net = self._observe()
        return StepResult(obs, net, 0.0, False, core.state_id(self.world))

    def step(self, action: Action) -> StepResult:
        if self.world is None:
            raise core.EnvError("step() before reset()")
        reward, done = core.step(
            self.world, Action(action), self.spec.time_penalty_coef
        )
        obs, net = self._observe()
        return StepResult(obs, net, reward, done, core.state_id(self.world))

    def dump_state(self):
        """(meta, arrays) that `load_state` restores this worker from:
        the world's scalars and RNG states, and its uint8 grid planes."""
        w = self.world
        meta = {
            "agent_pos": list(w.agent_pos),
            "agent_dir": int(w.agent_dir),
            "carried": list(w.carried) if w.carried else None,
            "step_count": w.step_count,
            "done": w.done,
            "max_steps": w.max_steps,
            "width": w.width,
            "height": w.height,
            "layout_rng": self._layout_rng.bit_generator.state,
            "noise_rng": self._noise_rng.bit_generator.state,
        }
        return meta, {p: getattr(w, p) for p in self._PLANES}

    def load_state(self, meta, arrays):
        w = self.world
        if w is None or (w.width, w.height) != (meta["width"], meta["height"]):
            raise core.EnvError("environment shape mismatch")
        for plane in self._PLANES:
            getattr(w, plane)[:] = arrays[plane]
        w.agent_pos = tuple(meta["agent_pos"])
        w.agent_dir = core.Dir(meta["agent_dir"])
        w.carried = tuple(meta["carried"]) if meta["carried"] else None
        w.step_count = meta["step_count"]
        w.done = meta["done"]
        w.max_steps = meta["max_steps"]
        self._layout_rng.bit_generator.state = meta["layout_rng"]
        self._noise_rng.bit_generator.state = meta["noise_rng"]
