"""Observation modifiers: obstacle hiding, normalization, Gaussian noise.

Order in the pipeline: hide_obstacles (integer domain, deterministic) ->
normalize_obs (to [0,1] floats) -> apply_noise (additive, unclipped).
"""
from __future__ import annotations

import numpy as np

from .core import FLOOR_COLOR, Obj

# per-channel maxima of the integer encoding (object, color, door state)
_CHANNEL_MAX = np.array([10.0, 5.0, 2.0], dtype=np.float32)
# (object, door state) a wall cell becomes
_NO_WALL = np.array([Obj.EMPTY, 0], dtype=np.uint8)


def hide_obstacles(obs: np.ndarray) -> np.ndarray:
    """Remove walls from an integer observation.

    Wall cells become empty, and unseen/empty/wall cells take the floor
    color, so obstacles can no longer be told apart from open floor.
    Collision semantics live in the world, not the observation, so walls
    stay solid. Idempotent.
    """
    out = obs.copy()
    obj = out[..., 0]
    # plain ints: a numpy compare against an IntEnum member is slow
    blank = obj <= int(Obj.WALL)  # unseen, empty or wall
    walls = obj == int(Obj.WALL)
    np.copyto(out[..., 1], int(FLOOR_COLOR), where=blank)
    np.copyto(out[..., ::2], _NO_WALL, where=walls[..., None])
    return out


def normalize_obs(obs: np.ndarray) -> np.ndarray:
    """Integer observation -> float32 with each channel scaled to [0, 1]."""
    return obs.astype(np.float32) / _CHANNEL_MAX


def apply_noise(obs: np.ndarray, sigma: float, rng) -> np.ndarray:
    """Add mean-zero elementwise Gaussian noise to a normalized float32
    observation.

    No clipping is applied; sigma = 0 returns the input itself (no noise
    draw at all, keeping the RNG stream untouched).
    """
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if sigma == 0:
        return obs
    return obs + rng.normal(0.0, sigma, size=obs.shape).astype(np.float32)
