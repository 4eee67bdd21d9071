"""Exploration-bonus methods behind a single collector-facing interface.

A method owns its model(s), per-worker recurrent state and episodic
memories, computes raw per-step bonuses during collection, and trains its
model(s) from the finished rollout buffer.
"""
from __future__ import annotations

import numpy as np

from .baselines import ForwardModel, InverseModel, RndModel, forward_error
from .envs import N_ACTIONS, episode_steps
from .intrinsic import (
    DiscModel,
    EpisodicMemory,
    ObservationQueue,
    build_disc_batch,
    disc_loss,
    intrinsic_reward,
    novelty_reward,
    update_queue,
)
from .nn import Adam, Tensor, no_grad, restored
from .ppo import ONE_HOT


class NoIntrinsic:
    """Pure PPO: zero bonus, nothing to train."""

    name = "NoIntrinsic"
    hidden_dim = 1

    def __init__(self, cfg, rng, n_workers):
        self.n_workers = n_workers

    def start(self, obs):
        pass

    def h_prev(self):
        return np.zeros((self.n_workers, 1), np.float32)

    def step(self, obs_next, actions, clean_next, dones):
        return np.zeros(len(dones))

    def on_reset(self, w, net_obs):
        pass

    def update(self, buffer, rng, epochs, minibatch):
        """Train on the rollout; returns `MetricRow` fields (model_loss and
        the bonus diagnostics) by name."""
        return {"model_loss": 0.0}

    def modules(self):
        return {}

    def optimizers(self):
        return {}

    def state_arrays(self, prefix=""):
        """Checkpoint arrays of the per-worker state the models do not
        hold; `load_state` restores them."""
        return {}

    def load_state(self, arrays, prefix=""):
        pass


class _ModelMethod(NoIntrinsic):
    """A bonus from one trained model: its optimizer and its fit loop.

    Subclasses build the model from the config (`_model`) and choose the
    batches of one epoch (`_epoch`) and the loss of one batch (`_loss`).
    """

    batch_keys = ("obs_t", "obs_next", "action")

    def __init__(self, cfg, rng, n_workers):
        self.n_workers = n_workers
        self.model = self._model(cfg, rng)
        self.opt = Adam(self._trained_parameters(), lr=cfg.method_lr)
        self.model.eval()

    def _trained_parameters(self):
        """The parameters the optimizer trains."""
        return self.model.parameters()

    def modules(self):
        return {"bonus_model": self.model}

    def optimizers(self):
        return {"bonus_opt": self.opt}

    def _epoch(self, pos, size, rng):
        """One fresh permutation of the rollout, cut into whole batches."""
        order = rng.permutation(pos["obs_t"].shape[0])
        for start in range(0, len(order) - size + 1, size):
            idx = order[start : start + size]
            yield {k: pos[k][idx] for k in self.batch_keys}

    def _loss(self, batch):
        return self.model.loss(batch)

    def update(self, buffer, rng, epochs, minibatch):
        pos = buffer.flat_positives()
        self.model.train()
        total, count = 0.0, 0
        for _ in range(epochs):
            for batch in self._epoch(pos, minibatch, rng):
                self.model.zero_grad()
                loss = self._loss(batch)
                loss.backward()
                self.opt.step()
                total += float(loss.data)
                count += 1
        self.model.eval()
        return {"model_loss": total / max(count, 1)}


class _RecurrentMethod(_ModelMethod):
    """Bonus methods on a CNN+GRU embedding model with per-worker hidden
    state and, if their bonus reads them (`episodic`), per-worker episodic
    memories. The default bonus is the DEIR ratio (`_bonus`), one
    `intrinsic_reward` call per worker. A memory holds one entry per
    step of the longest episode."""

    episodic = True

    def __init__(self, cfg, rng, n_workers):
        super().__init__(cfg, rng, n_workers)
        dim = self.hidden_dim = self.model.embed_dim
        self.h = np.zeros((n_workers, dim), np.float32)
        self._h_before = np.zeros_like(self.h)
        self.e_cur = np.zeros_like(self.h)  # embedding of the current obs
        capacity = episode_steps(cfg.env_spec()) + 2
        self.memories = [EpisodicMemory(dim, dim, capacity)
                         for _ in range(n_workers)] if self.episodic else []

    def _model(self, cfg, rng):
        return self.model_cls(cfg.view_size, N_ACTIONS, rng, cfg.embed_dim,
                              cfg.hidden, cfg.channels, cfg.norm)

    def _embed(self, obs, h):
        with no_grad():
            e_obs, e_traj = self.model.embed(Tensor(obs), Tensor(h))
        return e_obs.data, e_traj.data

    def start(self, obs):
        self._h_before[:] = 0.0
        self.e_cur, self.h = self._embed(obs, np.zeros_like(self.h))

    def h_prev(self):
        return self._h_before

    def on_reset(self, w, net_obs):
        self._h_before[w] = 0.0
        e_obs, e_traj = self._embed(net_obs[None], np.zeros_like(self.h[:1]))
        self.e_cur[w], self.h[w] = e_obs[0], e_traj[0]

    def step(self, obs_next, actions, clean_next, dones):
        e_obs, e_traj = self._embed(obs_next, self.h)
        r = self._rewards(e_obs, actions, obs_next, clean_next, dones)
        self._h_before, self.h, self.e_cur = self.h, e_traj, e_obs
        return r

    def _rewards(self, e_obs, actions, obs_next, clean_next, dones):
        return np.array([self._bonus(e_obs[w], w, bool(dones[w]))
                         for w in range(self.n_workers)])

    def _bonus(self, e_obs, w, done):
        return intrinsic_reward(e_obs, self.h[w], self.memories[w], done)

    def state_arrays(self, prefix=""):
        out = {f"{prefix}h": self.h, f"{prefix}h_before": self._h_before,
               f"{prefix}e_cur": self.e_cur}
        for w, mem in enumerate(self.memories):
            out.update(mem.state_arrays(f"{prefix}mem{w}_"))
        return out

    def load_state(self, arrays, prefix=""):
        self.h = restored(arrays[f"{prefix}h"], self.h)
        self._h_before = restored(arrays[f"{prefix}h_before"], self._h_before)
        self.e_cur = restored(arrays[f"{prefix}e_cur"], self.e_cur)
        for w, mem in enumerate(self.memories):
            mem.load_state(arrays, f"{prefix}mem{w}_")


class _QueueMethod(_RecurrentMethod):
    """Trains the discriminator against a queue of recent novel
    observations, which each step's bonus decides whether to join."""

    model_cls = DiscModel

    def __init__(self, cfg, rng, n_workers):
        super().__init__(cfg, rng, n_workers)
        self.queue = ObservationQueue(cfg.queue_size, cfg.queue_smoothing,
                                      keep_net=cfg.noise_sigma > 0)

    def _rewards(self, e_obs, actions, obs_next, clean_next, dones):
        r = super()._rewards(e_obs, actions, obs_next, clean_next, dones)
        for w in range(self.n_workers):
            update_queue(self.queue, clean_next[w], obs_next[w], r[w])
        return r

    def _epoch(self, pos, size, rng):
        """n // size discriminator batches; one with fewer than 4 labels
        (the queue could not supply negatives) is skipped."""
        for _ in range(pos["obs_t"].shape[0] // size):
            batch = build_disc_batch(pos, self.queue, size, rng)
            self._short += size // 2 - int((batch["label"] == 0).sum())
            if batch["label"].size >= 4:
                yield batch

    def _loss(self, batch):
        loss, logits = disc_loss(self.model, batch)
        self._correct += int(((logits.data.reshape(-1) > 0)
                              == (batch["label"] > 0.5)).sum())
        self._labels += batch["label"].size
        return loss

    def update(self, buffer, rng, epochs, minibatch):
        self._short = self._correct = self._labels = 0
        stats = super().update(buffer, rng, epochs, minibatch)
        admitted, self.queue.pushes = self.queue.pushes, 0
        return {**stats, "neg_shortfall": self._short,
                "queue_len": len(self.queue),
                "queue_admit_frac": admitted / buffer.raw_ir.size,
                "disc_acc": self._correct / max(self._labels, 1),
                "queue_running_avg": self.queue.running_avg}

    def state_arrays(self, prefix=""):
        return {**super().state_arrays(prefix),
                **self.queue.state_arrays(prefix + "queue_")}

    def load_state(self, arrays, prefix=""):
        super().load_state(arrays, prefix)
        self.queue.load_state(arrays, prefix + "queue_")


class Deir(_QueueMethod):
    """Discriminative episodic bonus: observation novelty scaled down by
    trajectory similarity."""

    name = "DEIR"


class PlainNovelty(_QueueMethod):
    """Ablation: same discriminator, numerator-only bonus."""

    name = "PlainNovelty"

    def _bonus(self, e_obs, w, done):
        return novelty_reward(e_obs, self.memories[w], done)


class ForwardError(_RecurrentMethod):
    """Bonus = squared next-embedding prediction error of a forward model."""

    name = "ForwardError"
    model_cls = ForwardModel
    episodic = False

    def _rewards(self, e_obs, actions, obs_next, clean_next, dones):
        with no_grad():
            return forward_error(self.model, self.e_cur, ONE_HOT[actions],
                                 e_obs)


class InverseDriven(_RecurrentMethod):
    """Episodic novelty ratio on embeddings trained by action prediction."""

    name = "InverseDriven"
    model_cls = InverseModel
    batch_keys = ("obs_t", "obs_next", "action", "h_prev")


class Rnd(_ModelMethod):
    """Random network distillation: predictor-vs-frozen-target gap."""

    name = "RND"
    batch_keys = ("obs_next",)

    def _model(self, cfg, rng):
        return RndModel(cfg.view_size, rng, cfg.embed_dim, cfg.channels)

    def _trained_parameters(self):
        return self.model.predictor.parameters()

    def step(self, obs_next, actions, clean_next, dones):
        with no_grad():
            return self.model.bonus(obs_next)


_CLASSES = {cls.name: cls for cls in (Deir, PlainNovelty, ForwardError,
                                      InverseDriven, Rnd, NoIntrinsic)}
METHODS = tuple(_CLASSES)


def make_method(cfg, rng, n_workers):
    """The bonus method `cfg.method` of an `ExperimentConfig` over
    n_workers workers; its model's initial weights are drawn from rng."""
    if cfg.method not in _CLASSES:
        raise ValueError(f"unknown method {cfg.method!r}")
    return _CLASSES[cfg.method](cfg, rng, n_workers)
