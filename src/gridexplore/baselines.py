"""Baseline and ablation bonus models.

ForwardModel and InverseModel share the discriminator's CNN + GRU
(`nn.EmbeddingModel`) and add their own head; RndModel is two encoders:

- ForwardModel: predicts the next observation embedding from (e_obs, a);
  its squared prediction error is the exploration bonus.
- InverseModel: predicts the action from consecutive trajectory
  embeddings; the trained embeddings feed the episodic novelty ratio.
- RndModel: a predictor network chases a frozen random target; the
  squared gap is the bonus.

The numerator-only novelty ablation needs no model of its own: it shares
the discriminator and drops the trajectory-distance denominator (see
intrinsic.novelty_reward).
"""
from __future__ import annotations

import numpy as np

from .nn import (CnnEncoder, EmbeddingModel, Mlp, Module, Tensor, concat,
                 no_grad)


def _squared_gap(pred: Tensor, target: Tensor) -> Tensor:
    """Each row's squared distance from target, averaged over the batch."""
    diff = pred - target
    return (diff * diff).sum() * (1.0 / pred.data.shape[0])


class ForwardModel(EmbeddingModel):
    def _heads(self, hidden, rng, norm):
        self.head = Mlp([self.embed_dim + self.n_actions, hidden,
                         self.embed_dim], rng, norm=norm, out_gain=1.0)

    def predict(self, e_obs_t: Tensor, act_onehot: Tensor) -> Tensor:
        return self.head(concat([e_obs_t, act_onehot], axis=1))

    def loss(self, batch) -> Tensor:
        e_t = self.encoder(Tensor(batch["obs_t"]))
        pred = self.predict(e_t, Tensor(batch["action"]))
        with no_grad():  # in train mode: the running stats still update
            target = self.encoder(Tensor(batch["obs_next"]))
        return _squared_gap(pred, target)


def forward_error(model: ForwardModel, e_obs_t, action_onehot, e_obs_next):
    """Per-row squared prediction error, computed outside the graph."""
    pred = model.predict(Tensor(e_obs_t), Tensor(action_onehot))
    return ((pred.data - e_obs_next) ** 2).sum(axis=-1)


class InverseModel(EmbeddingModel):
    def _heads(self, hidden, rng, norm):
        self.head = Mlp([2 * self.embed_dim, hidden, self.n_actions],
                        rng, norm=norm, out_gain=1.0)

    def loss(self, batch) -> Tensor:
        traj_t, traj_next = self.embed_pair(Tensor(batch["obs_t"]),
                                            Tensor(batch["obs_next"]),
                                            Tensor(batch["h_prev"]))
        logits = self.head(concat([traj_t, traj_next], axis=1))
        logp = logits.log_softmax()
        actions = batch["action"].argmax(axis=1)
        picked = logp.take_rows(actions)
        return picked.sum() * (-1.0 / len(actions))


class RndModel(Module):
    """Predictor network distilling a frozen, randomly initialized target."""

    def __init__(self, view_size, rng, embed_dim, channels):
        super().__init__()
        self.embed_dim = embed_dim
        # separate draws so predictor and target start apart
        self.target = CnnEncoder(view_size, embed_dim, rng,
                                 norm="none", channels=channels)
        self.predictor = CnnEncoder(view_size, embed_dim, rng,
                                    norm="none", channels=channels)

    def bonus(self, obs: np.ndarray) -> np.ndarray:
        pred = self.predictor(Tensor(obs)).data
        targ = self.target(Tensor(obs)).data
        return ((pred - targ) ** 2).sum(axis=-1)

    def loss(self, batch) -> Tensor:
        pred = self.predictor(Tensor(batch["obs_next"]))
        with no_grad():
            targ = self.target(Tensor(batch["obs_next"]))
        return _squared_gap(pred, targ)
