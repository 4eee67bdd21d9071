"""Episodic novelty bonus from a discriminative transition model.

The bonus for reaching o_{t+1} is the minimum over the episode's memory of

    dist^2(e_obs_i, e_obs_{t+1}) / (dist(e_traj_i, e_traj_t) + eps)

where e_obs is a CNN observation embedding and e_traj a GRU trajectory
embedding. The denominator discounts observation novelty that is not
matched by trajectory novelty, which is what makes the bonus robust to
observation noise. The discriminator that trains the embeddings tells
genuine transitions (o_t, a_t, o_{t+1}) from fakes whose third element is
drawn from a queue of recent novel observations.
"""
from __future__ import annotations

import numpy as np

from .envs import normalize_obs
from .nn import EmbeddingModel, Mlp, Tensor, concat, restored

EPSILON = 1e-6


class EpisodicMemory:
    """Per-worker store of (e_obs, e_traj) pairs, cleared at episode end."""

    def __init__(self, dim_obs: int, dim_traj: int, capacity: int):
        self._obs = np.empty((capacity, dim_obs), dtype=np.float32)
        self._traj = np.empty((capacity, dim_traj), dtype=np.float32)
        self.count = 0

    @property
    def obs(self):
        return self._obs[: self.count]

    @property
    def traj(self):
        return self._traj[: self.count]

    def end_step(self, e_obs, e_traj, terminal):
        """Clear the memory after a terminal step; otherwise append the
        (e_obs, e_traj) pair."""
        if terminal:
            self.count = 0
        elif self.count >= self._obs.shape[0]:
            raise ValueError("episodic memory capacity exceeded")
        else:
            self._obs[self.count] = e_obs
            self._traj[self.count] = e_traj
            self.count += 1

    def state_arrays(self, prefix=""):
        return {f"{prefix}obs": self.obs, f"{prefix}traj": self.traj}

    def load_state(self, arrays, prefix=""):
        obs, traj = arrays[f"{prefix}obs"], arrays[f"{prefix}traj"]
        n, capacity = len(obs), self._obs.shape[0]
        if len(traj) != n or n > capacity:
            raise ValueError(f"{prefix}obs and {prefix}traj hold {n} and "
                             f"{len(traj)} rows, for a capacity of {capacity}")
        self._obs[:n] = restored(obs, self._obs[:n])
        self._traj[:n] = restored(traj, self._traj[:n])
        self.count = n


def intrinsic_reward(
    e_obs_next,
    e_traj_t,
    memory: EpisodicMemory,
    terminal: bool,
    epsilon: float = EPSILON,
) -> float:
    """Novelty bonus for the transition ending in e_obs_next.

    Empty memory gives 0, so the first step of every episode earns
    nothing. Afterwards the memory ends the step (`end_step`).
    """
    if memory.count == 0:
        r = 0.0
    else:
        d_obs = ((memory.obs - e_obs_next) ** 2).sum(axis=1)
        d_traj = np.sqrt(((memory.traj - e_traj_t) ** 2).sum(axis=1))
        r = float((d_obs / (d_traj + epsilon)).min())
    memory.end_step(e_obs_next, e_traj_t, terminal)
    return r


def novelty_reward(e_obs_next, memory: EpisodicMemory, terminal: bool) -> float:
    """Numerator-only ablation: min squared distance over the memory."""
    if memory.count == 0:
        r = 0.0
    else:
        r = float(((memory.obs - e_obs_next) ** 2).sum(axis=1).min())
    memory.end_step(e_obs_next, 0.0, terminal)  # a zero trajectory row
    return r


# ---------------------------------------------------------------------------
# Negative-example observation queue


class ObservationQueue:
    """Bounded FIFO of recent novel observations (the negative pool).

    Each entry is an (integer_obs, network_obs) pair: equality against a
    candidate positive is tested on the integer observation, while the
    network observation (normalized, possibly noisy) is what the
    discriminator consumes. The entries live in ring arrays whose row
    shape and dtype come from the first push. Without noise
    (`keep_net=False`) the network observation is `normalize_obs` of the
    integer one, so only the integer ring is kept and the network row is
    recomputed, bit for bit, when it is read. A row is written only
    when it is pushed and only live rows are copied out, so the unfilled
    part of a large ring is never touched. `pushes` counts the pushes
    since its reader last set it to 0; it is not saved.
    """

    def __init__(self, max_size: int, smoothing: float, keep_net=True):
        self.max_size = max_size
        self.smoothing = smoothing
        self.keep_net = keep_net
        self.running_avg = 0.0
        self._obs = self._net = None
        self._start = 0
        self.count = 0
        self.pushes = 0

    def __len__(self):
        return self.count

    def __getitem__(self, i):
        if not 0 <= i < self.count:
            raise IndexError(i)
        return self.obs(i), self.net(i)

    def obs(self, idx):
        """Integer observations of the live rows `idx` (an int or an int
        array; 0 is the oldest row), unchecked."""
        return self._obs[(self._start + idx) % self.max_size]

    def net(self, idx):
        """Network observations of the live rows `idx`, as `obs` reads
        them; without kept network rows, one `normalize_obs` call."""
        j = (self._start + idx) % self.max_size
        return self._net[j] if self.keep_net else normalize_obs(self._obs[j])

    def _allocate(self, obs, net_obs):
        obs = np.asarray(obs)
        self._obs = np.empty((self.max_size,) + obs.shape, obs.dtype)
        if self.keep_net:
            net_obs = np.asarray(net_obs)
            self._net = np.empty((self.max_size,) + net_obs.shape,
                                 net_obs.dtype)

    def push(self, obs, net_obs):
        """Append a pair, evicting the oldest when full."""
        if self._obs is None:
            self._allocate(obs, net_obs)
        if self.count < self.max_size:
            j = (self._start + self.count) % self.max_size
            self.count += 1
        else:  # evict oldest
            j = self._start
            self._start = (self._start + 1) % self.max_size
        self.pushes += 1
        self._obs[j] = obs
        if self.keep_net:
            self._net[j] = net_obs

    def state_arrays(self, prefix=""):
        """Running average and the live rows, oldest first."""
        out = {f"{prefix}running_avg": np.array([self.running_avg])}
        if self.count:
            live = np.arange(self.count)
            out[f"{prefix}obs"] = self.obs(live)
            if self.keep_net:
                out[f"{prefix}net"] = self.net(live)
        return out

    def load_state(self, arrays, prefix=""):
        self.running_avg = float(arrays[f"{prefix}running_avg"][0])
        self._start = self.count = self.pushes = 0
        if f"{prefix}obs" in arrays:
            obs = arrays[f"{prefix}obs"]
            net = arrays[f"{prefix}net"] if self.keep_net else obs
            self._allocate(obs[0], net[0])
            self.count = len(obs)
            self._obs[: self.count] = obs
            if self.keep_net:
                self._net[: self.count] = net


def update_queue(q: ObservationQueue, obs, net_obs, r_i: float) -> None:
    """Fold r_i into the queue's running average, then insert the
    observation iff the queue is empty or r_i is at least that average."""
    s = q.smoothing
    q.running_avg = s * q.running_avg + (1.0 - s) * r_i
    if q.count == 0 or r_i >= q.running_avg:
        q.push(obs, net_obs)


def sample_negative(q: ObservationQueue, true_next, rng):
    """Up to two uniform draws of a queue index; the first whose integer
    obs differs from true_next, byte for byte, wins. None when the queue
    is empty or both draws collide."""
    if q.count == 0:
        return None
    for _ in range(2):
        i = int(rng.integers(q.count))
        if q.obs(i).tobytes() != true_next.tobytes():
            return i
    return None


# ---------------------------------------------------------------------------
# Discriminative transition model


class DiscModel(EmbeddingModel):
    """Shared CNN encoder, GRU trajectory embedding, and an MLP that
    scores (e_traj_t, e_traj_x, one-hot action) as genuine-vs-fake."""

    def _heads(self, hidden, rng, norm):
        self.head = Mlp([2 * self.embed_dim + self.n_actions, hidden, hidden,
                         1], rng, norm=norm, out_gain=1.0)

    def logits(self, obs_t: Tensor, act_onehot: Tensor, obs_x: Tensor,
               h_prev: Tensor) -> Tensor:
        traj_t, traj_x = self.embed_pair(obs_t, obs_x, h_prev)
        return self.head(concat([traj_t, traj_x, act_onehot], axis=1))


def disc_loss(model: DiscModel, batch) -> tuple[Tensor, Tensor]:
    """Mean binary cross-entropy of the discriminator on a sample batch,
    and its (B, 1) logits."""
    logits = model.logits(
        Tensor(batch["obs_t"]),
        Tensor(batch["action"]),
        Tensor(batch["obs_x"]),
        Tensor(batch["h_prev"]),
    )
    return logits.reshape(-1).bce_with_logits(batch["label"]), logits


def build_disc_batch(positives, q: ObservationQueue, size: int, rng):
    """Half genuine transitions, half with o_x swapped for a queue draw.

    `positives` supplies aligned arrays obs_t, action (one-hot), obs_next
    (network form), clean_next (integer form), h_prev. Transitions whose
    negative draw fails are redrawn a bounded number of times; if the
    queue cannot supply enough negatives the batch shrinks (the CSV's
    `neg_shortfall` column counts the negatives it lacks).
    """
    n = positives["obs_t"].shape[0]
    half = size // 2
    pos_idx = rng.integers(n, size=half)
    neg_idx, neg_rows = [], []  # positive rows and their queue draws
    attempts = 0
    while len(neg_rows) < half and attempts < 4 * half:
        attempts += 1
        i = int(rng.integers(n))
        j = sample_negative(q, positives["clean_next"][i], rng)
        if j is not None:
            neg_idx.append(i)
            neg_rows.append(j)
    idx = np.concatenate([pos_idx, np.array(neg_idx, np.int64)])
    obs_x = positives["obs_next"][pos_idx]
    if neg_rows:
        obs_x = np.concatenate([obs_x, q.net(np.array(neg_rows))])
    label = np.concatenate(
        [np.ones(half, dtype=np.float32),
         np.zeros(len(neg_rows), dtype=np.float32)]
    )
    return {
        "obs_t": positives["obs_t"][idx],
        "action": positives["action"][idx],
        "obs_x": obs_x,
        "h_prev": positives["h_prev"][idx],
        "label": label,
    }
