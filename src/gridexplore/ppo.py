"""Recurrent PPO: rollout buffer, GAE, EMA standardization of rewards and
advantages, and clipped-surrogate updates that re-run the GRU over
worker-contiguous segments from stored hidden states."""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .envs import N_ACTIONS
from .nn import (
    EmbeddingModel,
    Mlp,
    Tensor,
    clip_grad_norm,
    no_grad,
    restored,
)
from .nn.tensor import gru_sequence


# the PPO recipe every method trains under
GAMMA = 0.99
GAE_LAMBDA = 0.95
CLIP = 0.2
ENT_COEF = 1e-2
VALUE_COEF = 0.5
MAX_GRAD_NORM = 0.5

# one float32 row per action: the action input of the bonus models
ONE_HOT = np.eye(N_ACTIONS, dtype=np.float32)


class BufferError(Exception):
    pass


class ActorCritic(EmbeddingModel):
    """CNN -> GRU -> separate policy and value MLP heads."""

    def _heads(self, hidden, rng, norm):
        self.policy = Mlp([self.embed_dim, hidden, self.n_actions], rng,
                          norm=norm, out_gain=0.01)
        self.value = Mlp([self.embed_dim, hidden, 1], rng, norm=norm,
                         out_gain=1.0)

    def act(self, obs: Tensor, h: Tensor):
        """(logits, value, next_hidden) for a batch of workers."""
        _, traj = self.embed(obs, h)
        return self.policy(traj), self.value(traj), traj


class RolloutBuffer:
    """(n_steps, n_workers)-shaped transition storage."""

    def __init__(self, n_steps, n_workers, obs_shape, hidden, disc_hidden):
        def z(tail, dtype):
            return np.zeros((n_steps, n_workers) + tail, dtype)

        self.n_steps, self.n_workers = n_steps, n_workers
        self.obs = z(obs_shape, np.float32)
        self.obs_next = z(obs_shape, np.float32)
        self.clean_next = z(obs_shape, np.uint8)
        self.actions = z((), np.int64)
        self.log_probs = z((), np.float64)
        self.values = z((), np.float64)
        self.ext_rewards = z((), np.float64)
        self.raw_ir = z((), np.float64)
        self.dones = z((), bool)
        self.policy_h = z((hidden,), np.float32)  # hidden before the step
        self.disc_h = z((disc_hidden,), np.float32)  # bonus model's, before
        self.bootstrap = np.zeros(n_workers, np.float64)
        self.states = []  # per-step state fingerprints
        self.advantages = self.returns = None
        self.consumed = False

    def flat_positives(self):
        """Aligned flat views used for bonus-model training batches."""
        n = self.n_steps * self.n_workers
        return {
            "obs_t": self.obs.reshape((n,) + self.obs.shape[2:]),
            "obs_next": self.obs_next.reshape((n,) + self.obs.shape[2:]),
            "clean_next": self.clean_next.reshape((n,) + self.clean_next.shape[2:]),
            "action": ONE_HOT[self.actions.reshape(n)],
            "h_prev": self.disc_h.reshape(n, self.disc_h.shape[2]),
        }


def compute_gae(rewards, values, dones, bootstrap, gamma, lam):
    """delta_t = r_t + g*V_{t+1}*(1-d_t) - V_t; A accumulates with g*lam."""
    if not (rewards.shape == values.shape == dones.shape):
        raise ValueError("reward/value/done shapes differ")
    T = rewards.shape[0]
    adv = np.zeros_like(rewards, dtype=np.float64)
    last = np.zeros_like(bootstrap, dtype=np.float64)
    next_value = bootstrap.astype(np.float64)
    for t in range(T - 1, -1, -1):
        live = 1.0 - dones[t].astype(np.float64)
        delta = rewards[t] + gamma * next_value * live - values[t]
        last = delta + gamma * lam * live * last
        adv[t] = last
        next_value = values[t]
    return adv, adv + values


@dataclass
class EmaStandardizer:
    """(x - mean) / std with exponential moving averages of the batch
    means and standard deviations; momentum 0 keeps only the last batch.

    The intrinsic rewards of a rollout are standardized first and then
    folded into the averages; its advantages are folded in first, so at
    momentum 0 they are standardized by their own batch statistics.
    """

    mean: float = 0.0
    std: float = 1.0
    momentum: float = 0.9

    def update(self, x: np.ndarray) -> None:
        m = self.momentum
        self.mean = m * self.mean + (1.0 - m) * float(x.mean())
        self.std = m * self.std + (1.0 - m) * float(x.std())

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return (x - self.mean) / max(self.std, 1e-8)

    def state_arrays(self, prefix=""):
        return {f"{prefix}mean": self.mean, f"{prefix}std": self.std}

    def load_state(self, state, prefix=""):
        self.mean, self.std = state[f"{prefix}mean"], state[f"{prefix}std"]


# ---------------------------------------------------------------------------
# Update


def _segment_forward(model, obs, h0, done_prev):
    """Re-run CNN+GRU over a (B, L) segment batch; returns the (L*B, E)
    trajectory embeddings in time-major order."""
    B, L = obs.shape[0], obs.shape[1]
    flat = obs.reshape((B * L,) + obs.shape[2:])
    e = model.encoder(Tensor(flat)).reshape(B, L, model.embed_dim)
    # a done at t-1 means step t starts a fresh episode
    keep = (~done_prev[:, :-1]).astype(np.float32)
    gru = model.gru
    return gru_sequence(e, h0, keep, gru.w, gru.u, gru.un, gru.b)


def ppo_update(model, optimizer, buffer: RolloutBuffer, rng, epochs=4,
               minibatch=512, bptt_len=16):
    """Clipped-surrogate update; returns averaged loss statistics."""
    if buffer.consumed:
        raise BufferError("rollout buffer already consumed")
    buffer.consumed = True
    T, W = buffer.n_steps, buffer.n_workers
    if T % bptt_len:
        raise ValueError("n_steps must be divisible by bptt_len")
    L = bptt_len
    n_seg = T // L  # segments per worker

    def cut(arr):
        """(T, W, ...) -> (n_seg, L, W, ...) view. Segments are numbered
        worker-major: segment i is [i % n_seg, :, i // n_seg]."""
        return arr.reshape((n_seg, L) + arr.shape[1:])

    obs_s, done_s = cut(buffer.obs), cut(buffer.dones)
    h0_s = buffer.policy_h[::L]
    flat_s = [cut(buffer.actions)] + [
        cut(a.astype(np.float32))
        for a in (buffer.log_probs, buffer.advantages, buffer.returns)]
    per_mb = max(1, minibatch // L)
    stats = {k: 0.0 for k in ("policy_loss", "value_loss", "entropy",
                              "clip_fraction", "approx_kl")}
    n_updates = 0
    model.train()
    for _ in range(epochs):
        order = rng.permutation(W * n_seg)
        for start in range(0, len(order), per_mb):
            chosen = order[start : start + per_mb]
            seg, w = chosen % n_seg, chosen // n_seg
            obs, done_prev = obs_s[seg, :, w], done_s[seg, :, w]
            h0 = h0_s[seg, w]
            # (B, L) -> time-major flat
            actions, logp_old, adv, ret = (a[seg, :, w].T.reshape(-1)
                                           for a in flat_s)

            traj = _segment_forward(model, obs, h0, done_prev)
            logits = model.policy(traj)
            logp_all = logits.log_softmax()
            logp = logp_all.take_rows(actions)
            ratio = (logp - Tensor(logp_old)).exp()
            surr1 = ratio * Tensor(adv)
            surr2 = ratio.clip(1.0 - CLIP, 1.0 + CLIP) * Tensor(adv)
            policy_obj = surr1.minimum(surr2).mean()

            v = model.value(traj).reshape(-1)
            v_err = v - Tensor(ret)
            value_loss = (v_err * v_err).mean()

            probs = logp_all.exp()
            entropy = (probs * logp_all).sum(axis=1).mean() * -1.0

            loss = (policy_obj * -1.0 + value_loss * VALUE_COEF
                    + entropy * -ENT_COEF)
            model.zero_grad()
            loss.backward()
            clip_grad_norm(model.parameters(), MAX_GRAD_NORM)
            optimizer.step()

            stats["policy_loss"] += -float(policy_obj.data)
            stats["value_loss"] += float(value_loss.data)
            stats["entropy"] += float(entropy.data)
            stats["clip_fraction"] += float(np.mean(np.abs(ratio.data - 1.0) > CLIP))
            stats["approx_kl"] += float(np.mean(logp_old - logp.data))
            n_updates += 1
    model.eval()
    return {k: v / max(n_updates, 1) for k, v in stats.items()}


# ---------------------------------------------------------------------------
# Collection


def sample_actions(rng, probs):
    """One categorical draw per row of `probs`, equal to
    `[rng.choice(len(p), p=p) for p in probs]` draw for draw and leaving
    `rng` in the same state: a uniform per row against the row's float64
    CDF divided by its last entry. Rows are checked as `choice` checks
    `p`: no NaN, no negative entry, and a sum within sqrt(eps) of 1."""
    atol = np.sqrt(max(np.finfo(np.float64).eps, np.finfo(probs.dtype).eps))
    p = probs.astype(np.float64)
    total = p.sum(axis=1)
    if np.isnan(total).any():
        raise ValueError("Probabilities contain NaN")
    if (p < 0).any():
        raise ValueError("Probabilities are not non-negative")
    if (np.abs(total - 1.0) > atol).any():
        raise ValueError("Probabilities do not sum to 1")
    cdf = p.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    u = rng.random(len(p))
    return (cdf <= u[:, None]).sum(axis=1)


class Collector:
    """Steps a batched Env's workers in lockstep and fills rollout
    buffers.

    Persists mid-episode state (current observations, hidden states)
    between rollouts; hidden states reset to zero at episode boundaries.
    """

    def __init__(self, env, policy: ActorCritic, method, rng):
        self.env = env
        self.policy = policy
        self.method = method
        self.rng = rng
        self.n_workers = env.n_workers
        self.cur_obs = env.reset().net_obs
        self.policy_hidden = np.zeros(
            (self.n_workers, policy.embed_dim), np.float32
        )
        self.method.start(self.cur_obs)
        # episode bookkeeping for metrics
        self.episode_returns = np.zeros(self.n_workers)
        self.finished_episodes = deque(maxlen=100)  # last 100 returns
        self.total_episodes = 0

    def collect(self, n_steps) -> RolloutBuffer:
        policy, method = self.policy, self.method
        buf = RolloutBuffer(
            n_steps, self.n_workers, self.cur_obs.shape[1:],
            policy.embed_dim, method.hidden_dim,
        )
        policy.eval()
        with no_grad():
            for t in range(n_steps):
                logits, value, h_next = policy.act(
                    Tensor(self.cur_obs), Tensor(self.policy_hidden)
                )
                logp_all = logits.log_softmax().data
                probs = np.exp(logp_all)
                probs /= probs.sum(axis=1, keepdims=True)
                actions = sample_actions(self.rng, probs)
                res = self.env.step(actions)

                buf.obs[t] = self.cur_obs
                buf.policy_h[t] = self.policy_hidden
                buf.actions[t] = actions
                buf.log_probs[t] = logp_all[np.arange(self.n_workers), actions]
                buf.values[t] = value.data.reshape(-1)
                buf.ext_rewards[t] = res.reward
                buf.dones[t] = res.done
                buf.obs_next[t] = res.net_obs
                buf.clean_next[t] = res.obs
                buf.states.append(res.state)

                buf.disc_h[t] = method.h_prev()
                buf.raw_ir[t] = method.step(buf.obs_next[t], actions,
                                            buf.clean_next[t], buf.dones[t])

                self.cur_obs = buf.obs_next[t].copy()
                self.policy_hidden = h_next.data
                self.episode_returns += res.reward
                done = np.flatnonzero(res.done)
                if done.size:
                    self._end_episodes(done)
            _, value, _ = policy.act(
                Tensor(self.cur_obs), Tensor(self.policy_hidden)
            )
            buf.bootstrap[:] = value.data.reshape(-1)
        return buf

    def state_arrays(self, prefix=""):
        """The current observations and hidden states as arrays; as JSON
        values, the action RNG state and the episode returns and counts."""
        return {f"{prefix}cur_obs": self.cur_obs,
                f"{prefix}policy_hidden": self.policy_hidden,
                f"{prefix}rng": self.rng.bit_generator.state,
                f"{prefix}episode_returns": self.episode_returns.tolist(),
                f"{prefix}finished_episodes": list(self.finished_episodes),
                f"{prefix}total_episodes": self.total_episodes}

    def load_state(self, state, prefix=""):
        self.cur_obs = restored(state[f"{prefix}cur_obs"], self.cur_obs)
        self.policy_hidden = restored(state[f"{prefix}policy_hidden"],
                                      self.policy_hidden)
        self.rng.bit_generator.state = state[f"{prefix}rng"]
        self.episode_returns = restored(state[f"{prefix}episode_returns"],
                                        self.episode_returns)
        self.finished_episodes.clear()
        self.finished_episodes.extend(state[f"{prefix}finished_episodes"])
        self.total_episodes = state[f"{prefix}total_episodes"]

    def _end_episodes(self, done):
        """Book the finished episodes of workers `done` and reset them."""
        self.finished_episodes.extend(self.episode_returns[done].tolist())
        self.total_episodes += len(done)
        self.episode_returns[done] = 0.0
        fresh = self.env.reset(done)
        self.cur_obs[done] = fresh.net_obs
        self.policy_hidden[done] = 0.0
        for w, net_obs in zip(done.tolist(), fresh.net_obs):
            self.method.on_reset(w, net_obs)
