"""Exploration-efficiency metrics over full-state fingerprints."""
from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class MetricRow:
    frames: int
    mean_return: float
    episodic_eff: float
    lifelong_eff: float
    policy_loss: float
    value_loss: float
    entropy: float
    clip_fraction: float
    approx_kl: float
    model_loss: float
    raw_ir_mean: float
    episodes: int
    # bonus diagnostics, 0 for a method without the part they describe:
    # negatives the queue could not supply to the discriminator batches,
    # queue length after the rollout, share of the rollout's steps the
    # queue admitted, the discriminator's batch accuracy, and the queue's
    # running average of the bonus (its admission bar) after the rollout
    neg_shortfall: int = 0
    queue_len: int = 0
    queue_admit_frac: float = 0.0
    disc_acc: float = 0.0
    queue_running_avg: float = 0.0

    @classmethod
    def columns(cls):
        return [f.name for f in fields(cls)]


def exploration_metrics(stream, episode_starts, lifetime, episode_seen=None):
    """Fractions of steps landing on states never seen before.

    stream: sequence of state fingerprints, one per step.
    episode_starts: aligned booleans; True resets the in-episode set
    before the step is counted (every first step is therefore fresh).
    lifetime: set persisting across calls/episodes, updated in place.

    Returns (episodic_eff, lifelong_eff, episode_seen) so a caller can
    carry the in-episode set across chunk boundaries.
    """
    if len(stream) != len(episode_starts):
        raise ValueError("stream and episode_starts lengths differ")
    if episode_seen is None:
        episode_seen = set()
    fresh_episode = 0
    fresh_ever = 0
    for sid, start in zip(stream, episode_starts):
        if start:
            episode_seen = set()
        if sid not in episode_seen:
            fresh_episode += 1
            episode_seen.add(sid)
        if sid not in lifetime:
            fresh_ever += 1
            lifetime.add(sid)
    n = len(stream)
    if n == 0:
        return 0.0, 0.0, episode_seen
    return fresh_episode / n, fresh_ever / n, episode_seen


class ExplorationTracker:
    """Streaming per-worker wrapper around exploration_metrics."""

    def __init__(self, n_workers):
        self.lifetime = set()
        self._episode_seen = [set() for _ in range(n_workers)]
        self._fresh_start = [False] * n_workers

    def update(self, states, dones):
        """states: per-step list of per-worker fingerprints; dones: array
        (n_steps, n_workers). Returns rollout (episodic_eff, lifelong_eff)."""
        steps = len(states)
        ep_total = life_total = 0.0
        for w, stream in enumerate(zip(*states)):
            starts = [self._fresh_start[w], *dones[:-1, w]]
            ep, life, self._episode_seen[w] = exploration_metrics(
                stream, starts, self.lifetime, self._episode_seen[w]
            )
            self._fresh_start[w] = bool(dones[-1, w])
            ep_total += ep * steps
            life_total += life * steps
        total = steps * len(self._fresh_start)
        return ep_total / total, life_total / total

    def state_arrays(self, prefix=""):
        """JSON values only: the fingerprint sets as sorted hex, and which
        workers start an episode at their next step."""
        return {f"{prefix}lifetime": sorted(s.hex() for s in self.lifetime),
                f"{prefix}episode_seen": [sorted(s.hex() for s in seen)
                                          for seen in self._episode_seen],
                f"{prefix}fresh_start": list(self._fresh_start)}

    def load_state(self, state, prefix=""):
        seen = state[f"{prefix}episode_seen"]
        fresh = state[f"{prefix}fresh_start"]
        if not len(seen) == len(fresh) == len(self._fresh_start):
            raise ValueError("tracker state needs one entry per worker")
        self.lifetime = {bytes.fromhex(s) for s in state[f"{prefix}lifetime"]}
        self._episode_seen = [{bytes.fromhex(s) for s in w} for w in seen]
        self._fresh_start = list(fresh)
