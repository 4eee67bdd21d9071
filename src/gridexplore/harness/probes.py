"""Embedding probes: can a small head read world facts out of e_traj?

A scripted agent (solver plan with random detours) gathers episodes with
oracle labels; trajectory embeddings from a frozen encoder are then fed
to one-hidden-layer heads, one per probe task, and validation loss on an
80/20 split is reported.
"""
from __future__ import annotations

from collections import deque

import numpy as np

from ..envs import N_ACTIONS, Action, Env, Obj, solve
from ..nn import Adam, Mlp, Tensor, no_grad

PROBE_TASKS = (
    ("key_picked", "binary"),
    ("door_opened", "binary"),
    ("dist_key", "real"),
    ("dist_door", "real"),
    ("dist_goal", "real"),
)

MIN_DATASET = 200
DETOUR_PROB = 0.35  # chance per step that the scripted agent leaves its plan
HEAD_HIDDEN = 32
HEAD_MINIBATCH = 256
HEAD_LR = 1e-3


class ProbeError(Exception):
    pass


def _grid_distance(world, target_obj):
    """Shortest path length from the agent over non-wall cells, scaled to
    [0, 1] by the grid half-perimeter. 0 when the object is gone/carried."""
    targets = {
        (int(x), int(y)) for x, y in zip(*(world.obj == target_obj).nonzero())
    }
    if not targets:
        return 0.0
    start = world.agent_pos
    if start in targets:
        return 0.0
    wall = (world.obj == Obj.WALL).tolist()
    seen = {start}
    frontier = deque([(start, 0)])
    while frontier:
        (x, y), d = frontier.popleft()
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nx, ny = x + dx, y + dy
            if not (0 <= nx < world.width and 0 <= ny < world.height):
                continue
            if (nx, ny) in seen or wall[nx][ny]:
                continue
            if (nx, ny) in targets:
                return min((d + 1) / (world.width + world.height), 1.0)
            seen.add((nx, ny))
            frontier.append(((nx, ny), d + 1))
    return 1.0


def _labels(world):
    carried_key = world.carried is not None and world.carried[0] == Obj.KEY
    door_open = bool(np.any((world.obj == Obj.DOOR) & (world.state == 0)))
    return [
        1.0 if carried_key else 0.0,
        1.0 if door_open else 0.0,
        _grid_distance(world, Obj.KEY),
        _grid_distance(world, Obj.DOOR),
        _grid_distance(world, Obj.GOAL),
    ]


def collect_probe_dataset(spec, seed, episodes=40):
    """Scripted rollouts -> list of (obs_seq, label_seq) per episode."""
    env = Env(spec, [seed])
    rng = np.random.default_rng(np.random.SeedSequence([seed, 77]))
    data = []
    for _ in range(episodes):
        res = env.reset()
        world = env.worlds[0]
        obs_seq, label_seq = [], []
        plan = solve(world) or []
        while not res.done[0]:
            if plan and rng.random() >= DETOUR_PROB:
                action = plan.pop(0)
            else:
                action = Action(int(rng.integers(N_ACTIONS)))
                plan = []  # wandered off the plan; recompute lazily
            res = env.step([action])
            obs_seq.append(res.net_obs[0])
            label_seq.append(_labels(world))
            if not plan and not res.done[0]:
                plan = solve(world) or []
        data.append((np.stack(obs_seq), np.array(label_seq, dtype=np.float64)))
    return data


def embed_dataset(model, data):
    """Sequentially embed each episode (hidden reset per episode)."""
    xs, ys = [], []
    model.eval()
    with no_grad():
        for obs_seq, labels in data:
            h = Tensor(np.zeros((1, model.embed_dim), np.float32))
            for t in range(obs_seq.shape[0]):
                _, h = model.embed(Tensor(obs_seq[t][None]), h)
                xs.append(h.data[0])
            ys.append(labels)
    return np.stack(xs), np.concatenate(ys)


def probe_embeddings(embeddings, labels, rng, epochs=40):
    """Train one head per probe task; return task -> validation loss."""
    n = embeddings.shape[0]
    if n < MIN_DATASET:
        raise ProbeError(f"dataset too small: {n} < {MIN_DATASET}")
    order = rng.permutation(n)
    split = int(n * 0.8)
    train_idx, val_idx = order[:split], order[split:]
    results = {}
    for task_i, (name, kind) in enumerate(PROBE_TASKS):
        head = Mlp([embeddings.shape[1], HEAD_HIDDEN, 1], rng, norm="none")
        opt = Adam(head.parameters(), lr=HEAD_LR)
        y = labels[:, task_i]
        for _ in range(epochs):
            for start in range(0, len(train_idx), HEAD_MINIBATCH):
                idx = train_idx[start : start + HEAD_MINIBATCH]
                if len(idx) < 2:
                    continue
                head.zero_grad()
                out = head(Tensor(embeddings[idx])).reshape(-1)
                if kind == "binary":
                    loss = out.bce_with_logits(y[idx])
                else:
                    err = out - Tensor(y[idx])
                    loss = (err * err).mean()
                loss.backward()
                opt.step()
        head.eval()
        with no_grad():
            out = head(Tensor(embeddings[val_idx])).reshape(-1)
            if kind == "binary":
                val = float(out.bce_with_logits(y[val_idx]).data)
            else:
                val = float(((out.data - y[val_idx]) ** 2).mean())
        results[name] = val
    return results


def probe_losses(model, spec, seed, episodes=40):
    """Validation loss per probe task for `model`'s trajectory embeddings
    of `episodes` scripted episodes in `spec`."""
    data = collect_probe_dataset(spec, seed, episodes=episodes)
    embeddings, labels = embed_dataset(model, data)
    return probe_embeddings(embeddings, labels, np.random.default_rng(seed))
