import numpy as np
import pytest

from gridexplore.baselines import ForwardModel, InverseModel, RndModel, forward_error
from gridexplore.envs import normalize_obs
from gridexplore.intrinsic import (
    DiscModel,
    EpisodicMemory,
    ObservationQueue,
    build_disc_batch,
    disc_loss,
    intrinsic_reward,
    novelty_reward,
    sample_negative,
    update_queue,
)
from gridexplore.nn import Adam, Tensor, no_grad
from gridexplore.ppo import EmaStandardizer


def make_memory(obs_rows, traj_rows):
    obs_rows = np.asarray(obs_rows, dtype=np.float32)
    traj_rows = np.asarray(traj_rows, dtype=np.float32)
    mem = EpisodicMemory(obs_rows.shape[1], traj_rows.shape[1], 64)
    for o, t in zip(obs_rows, traj_rows):
        mem.end_step(o, t, terminal=False)
    return mem


# ---------------------------------------------------------------------------
# Episodic bonus


def test_empty_memory_gives_zero_and_appends():
    mem = EpisodicMemory(4, 4, 8)
    r = intrinsic_reward(np.ones(4, np.float32), np.zeros(4, np.float32),
                         mem, terminal=False)
    assert r == 0.0
    assert mem.count == 1


def test_hand_computed_ratio():
    mem = make_memory([[0.0, 0.0]], [[0.0, 0.0]])
    r = intrinsic_reward(
        np.array([3.0, 4.0], np.float32),
        np.array([0.0, 2.0], np.float32),
        mem, terminal=False, epsilon=1e-6,
    )
    # float32 pipeline: tolerance at single-precision resolution
    assert r == pytest.approx(25.0 / (2.0 + 1e-6), rel=1e-6)


def test_zero_trajectory_distance_hits_epsilon_guard():
    mem = make_memory([[0.0]], [[1.0]])
    r = intrinsic_reward(np.array([1.0], np.float32),
                         np.array([1.0], np.float32),
                         mem, terminal=False, epsilon=1e-6)
    assert r == pytest.approx(1e6, rel=1e-5)
    assert np.isfinite(r)


def test_terminal_clears_memory():
    mem = make_memory([[0.0, 0.0]], [[0.0, 0.0]])
    intrinsic_reward(np.ones(2, np.float32), np.ones(2, np.float32),
                     mem, terminal=True)
    assert mem.count == 0


def test_end_step_clears_on_terminal_and_stops_at_capacity():
    mem = EpisodicMemory(2, 2, 2)
    row = np.ones(2, np.float32)
    for _ in range(2):
        mem.end_step(row, row, terminal=False)
    with pytest.raises(ValueError, match="capacity exceeded"):
        mem.end_step(row, row, terminal=False)
    assert mem.count == 2
    mem.end_step(row, row, terminal=True)
    assert mem.count == 0


def test_reward_is_nonnegative_and_scales_quadratically():
    rng = np.random.default_rng(0)
    obs = rng.standard_normal((10, 8)).astype(np.float32)
    traj = rng.standard_normal((10, 8)).astype(np.float32)
    q_obs = rng.standard_normal(8).astype(np.float32)
    q_traj = rng.standard_normal(8).astype(np.float32)
    base = intrinsic_reward(q_obs, q_traj, make_memory(obs, traj), True)
    for c in (0.5, 3.0):
        scaled = intrinsic_reward(
            (c * q_obs).astype(np.float32), q_traj,
            make_memory(c * obs, traj), True,
        )
        assert base >= 0.0
        assert scaled == pytest.approx(c * c * base, rel=1e-5)


def test_novelty_ablation_is_numerator_only():
    obs = np.array([[0.0, 0.0], [1.0, 1.0]], np.float32)
    mem = make_memory(obs, np.zeros_like(obs))
    r = novelty_reward(np.array([3.0, 4.0], np.float32), mem, terminal=False)
    assert r == pytest.approx(min(25.0, 13.0))
    # the appended pair keeps a zero trajectory row
    assert mem.traj.tobytes() == np.zeros((3, 2), np.float32).tobytes()


# ---------------------------------------------------------------------------
# Observation queue


def _obs(i):
    return np.full((2, 2), i, dtype=np.uint8), np.full((2, 2), i, np.float32)


def test_empty_queue_always_inserts():
    q = ObservationQueue(max_size=4, smoothing=0.9)
    update_queue(q, *_obs(1), r_i=-100.0)
    assert len(q) == 1


def test_below_average_reward_skips_insert():
    q = ObservationQueue(max_size=4, smoothing=0.9)
    update_queue(q, *_obs(1), r_i=10.0)  # avg = 1.0
    update_queue(q, *_obs(2), r_i=0.0)  # avg = 0.9, r below
    assert len(q) == 1
    assert q.running_avg == pytest.approx(0.9)


def test_fifo_eviction_preserves_order():
    q = ObservationQueue(max_size=2, smoothing=0.9)
    for i in (1, 2, 3):
        update_queue(q, *_obs(i), r_i=100.0)
    assert len(q) == 2
    assert q[0][0][0, 0] == 2 and q[1][0][0, 0] == 3


def test_queue_never_exceeds_max_size():
    q = ObservationQueue(max_size=5, smoothing=0.9)
    for i in range(50):
        update_queue(q, *_obs(i % 7), r_i=float(i))
    assert len(q) <= 5


def test_queue_state_round_trip_after_wrap():
    q = ObservationQueue(max_size=4, smoothing=0.9)
    for i in range(6):
        update_queue(q, *_obs(i), r_i=100.0)
    arrays = q.state_arrays("q.")
    assert arrays["q.obs"].dtype == np.uint8
    assert arrays["q.net"].dtype == np.float32
    assert [int(o[0, 0]) for o in arrays["q.obs"]] == [2, 3, 4, 5]
    back = ObservationQueue(max_size=4, smoothing=0.9)
    back.load_state(arrays, "q.")
    assert back.running_avg == q.running_avg
    for i in (6, 7, 8):  # both go on evicting in the same order
        update_queue(q, *_obs(i), r_i=100.0)
        update_queue(back, *_obs(i), r_i=100.0)
        assert [int(q[k][0][0, 0]) for k in range(4)] == \
            [int(back[k][0][0, 0]) for k in range(4)]


def test_sample_negative_skips_true_next():
    q = ObservationQueue(max_size=4, smoothing=0.9)
    clean, net = _obs(1)
    update_queue(q, clean, net, r_i=1.0)
    assert sample_negative(q, clean, np.random.default_rng(0)) is None
    update_queue(q, *_obs(2), r_i=100.0)
    rng = np.random.default_rng(0)
    for _ in range(20):
        neg = sample_negative(q, clean, rng)
        if neg is not None:
            assert not np.array_equal(q[neg][0], clean)


def test_sample_negative_is_uniform():
    q = ObservationQueue(max_size=16, smoothing=0.9)
    for i in range(10):
        update_queue(q, *_obs(i), r_i=100.0)
    rng = np.random.default_rng(1)
    absent = np.full((2, 2), 99, dtype=np.uint8)
    counts = np.zeros(10)
    n = 10_000
    for _ in range(n):
        neg = sample_negative(q, absent, rng)
        counts[int(q[neg][0][0, 0])] += 1
    p = 1 / 10
    sigma = np.sqrt(n * p * (1 - p))
    assert np.all(np.abs(counts - n * p) < 5 * sigma)


# ---------------------------------------------------------------------------
# Reward normalization: the batch is standardized first, then folded into
# the averages


def _normalize_ir(raw, norm):
    out = norm(raw)
    norm.update(raw)
    return out


def test_fresh_state_passes_through():
    norm = EmaStandardizer()
    out = _normalize_ir(np.array([3.0]), norm)
    assert out[0] == pytest.approx(3.0)
    assert norm.mean == pytest.approx(0.3)


def test_constant_stream_stays_finite():
    norm = EmaStandardizer()
    for _ in range(200):
        out = _normalize_ir(np.full(8, 2.0), norm)
    assert np.all(np.isfinite(out))


def test_momentum_update_matches_hand_formula():
    norm = EmaStandardizer(mean=1.0, std=2.0)
    raw = np.array([0.0, 2.0])
    out = _normalize_ir(raw, norm)
    assert out == pytest.approx([(0 - 1) / 2, (2 - 1) / 2])
    assert norm.mean == pytest.approx(0.9 * 1.0 + 0.1 * 1.0)
    assert norm.std == pytest.approx(0.9 * 2.0 + 0.1 * 1.0)


# ---------------------------------------------------------------------------
# Discriminator model


def _toy_model(view=3, embed=8):
    rng = np.random.default_rng(0)
    return DiscModel(view, 7, rng, embed_dim=embed, hidden=16,
                     channels=(4, 8, 8), norm="batch")


def _toy_obs(rng, n, view=3):
    return rng.random((n, view, view, 3)).astype(np.float32)


def test_embed_is_pure_in_eval_mode():
    model = _toy_model()
    model.eval()
    rng = np.random.default_rng(1)
    obs = Tensor(_toy_obs(rng, 3))
    h = Tensor(np.zeros((3, 8)))
    with no_grad():
        e1, t1 = model.embed(obs, h)
        e2, t2 = model.embed(obs, h)
    assert np.array_equal(e1.data, e2.data)
    assert np.array_equal(t1.data, t2.data)


def test_different_hidden_changes_traj_not_obs_embedding():
    model = _toy_model()
    model.eval()
    rng = np.random.default_rng(2)
    obs = Tensor(_toy_obs(rng, 3))
    with no_grad():
        e1, t1 = model.embed(obs, Tensor(np.zeros((3, 8))))
        e2, t2 = model.embed(obs, Tensor(rng.standard_normal((3, 8))))
    assert np.array_equal(e1.data, e2.data)
    assert not np.array_equal(t1.data, t2.data)


def _positives(rng, n=12, view=3, embed=8):
    obs = _toy_obs(rng, n, view)
    nxt = _toy_obs(rng, n, view)
    action = np.eye(7, dtype=np.float32)[rng.integers(7, size=n)]
    return {
        "obs_t": obs,
        "obs_next": nxt,
        "clean_next": (nxt * 10).astype(np.uint8),
        "action": action,
        "h_prev": rng.standard_normal((n, embed)).astype(np.float32),
    }


def _filled_queue(rng, n=20, view=3):
    q = ObservationQueue(max_size=64, smoothing=0.9)
    for _ in range(n):
        net = _toy_obs(rng, 1, view)[0]
        update_queue(q, (net * 10).astype(np.uint8), net, r_i=100.0)
    return q


def test_disc_batch_is_half_positive_half_negative():
    rng = np.random.default_rng(3)
    pos = _positives(rng)
    q = _filled_queue(rng)
    batch = build_disc_batch(pos, q, 16, rng)
    assert batch["label"].sum() == 8 and len(batch["label"]) == 16
    # every negative o_x comes from the queue and differs from every
    # genuine next observation in the positive pool
    queue_nets = [q[i][1] for i in range(len(q))]
    for i in range(8, 16):
        assert any(np.array_equal(batch["obs_x"][i], n) for n in queue_nets)
        for j in range(pos["obs_next"].shape[0]):
            assert not np.array_equal(batch["obs_x"][i], pos["obs_next"][j])


def _disc_batch_by_rows(positives, q, size, rng):
    """`build_disc_batch` as it read one (obs, net) queue row per
    negative draw and stacked them, kept as the reference."""
    n = positives["obs_t"].shape[0]
    half = size // 2
    pos_idx = rng.integers(n, size=half)
    neg_rows = []
    attempts = 0
    while len(neg_rows) < half and attempts < 4 * half:
        attempts += 1
        i = int(rng.integers(n))
        for _ in range(2):
            item = None
            if q.count == 0:
                break
            item = q[int(rng.integers(q.count))]
            if not np.array_equal(item[0], positives["clean_next"][i]):
                break
            item = None
        if item is not None:
            neg_rows.append((i, item[1]))
    idx = np.concatenate([pos_idx, [i for i, _ in neg_rows]]).astype(np.int64)
    obs_x = positives["obs_next"][pos_idx]
    if neg_rows:
        obs_x = np.concatenate([obs_x, np.stack([o for _, o in neg_rows])])
    label = np.concatenate([np.ones(half, np.float32),
                            np.zeros(len(neg_rows), np.float32)])
    return {"obs_t": positives["obs_t"][idx],
            "action": positives["action"][idx], "obs_x": obs_x,
            "h_prev": positives["h_prev"][idx], "label": label}


@pytest.mark.parametrize("keep_net", [False, True])
@pytest.mark.parametrize("rows", [(0, 10, 11, 0, 10, 11), (0,) * 6])
def test_disc_batch_is_bit_equal_to_reading_one_row_per_negative(rows,
                                                                 keep_net):
    rng = np.random.default_rng(8)
    pos = _positives(rng)
    pos["clean_next"][1:10] = pos["clean_next"][0]  # draws collide often
    q = ObservationQueue(max_size=4, smoothing=0.9, keep_net=keep_net)
    for k in rows:  # six pushes wrap the ring
        clean = pos["clean_next"][k]
        net = normalize_obs(clean)
        if keep_net:
            net = net + rng.standard_normal(net.shape).astype(np.float32)
        q.push(clean, net)
    for size in (16, 64):
        a, b = np.random.default_rng(size), np.random.default_rng(size)
        got = build_disc_batch(pos, q, size, a)
        want = _disc_batch_by_rows(pos, q, size, b)
        assert a.bit_generator.state == b.bit_generator.state
        negatives = (got["label"] == 0).sum()
        # a queue of one row comes up short; a mixed one does not
        assert 0 < negatives < size // 2 if len(set(rows)) == 1 \
            else negatives == size // 2
        assert got.keys() == want.keys()
        for k in got:
            assert got[k].dtype == want[k].dtype, k
            assert got[k].shape == want[k].shape, k
            assert got[k].tobytes() == want[k].tobytes(), k


def test_disc_batch_empty_queue_shrinks():
    rng = np.random.default_rng(4)
    pos = _positives(rng)
    q = ObservationQueue(max_size=8, smoothing=0.9)
    batch = build_disc_batch(pos, q, 16, rng)
    assert batch["label"].sum() == 8 and len(batch["label"]) == 8


def test_disc_loss_is_ln2_for_uninformative_logits():
    model = _toy_model()
    model.eval()
    # zero the head's output layer so every logit is exactly 0 (p = 0.5)
    out_layer = getattr(model.head, f"fc{model.head.n_layers - 1}")
    out_layer.w.data[:] = 0.0
    out_layer.b.data[:] = 0.0
    rng = np.random.default_rng(5)
    pos = _positives(rng)
    batch = build_disc_batch(pos, _filled_queue(rng), 8, rng)
    loss, _ = disc_loss(model, batch)
    assert float(loss.data) == pytest.approx(np.log(2.0), rel=1e-6)


def test_disc_loss_trains_on_toy_batch():
    model = _toy_model()
    opt = Adam(model.parameters(), lr=3e-3)
    rng = np.random.default_rng(6)
    pos = _positives(rng, n=16)
    q = _filled_queue(rng)
    batch = build_disc_batch(pos, q, 16, rng)
    first = None
    for _ in range(60):
        model.zero_grad()
        loss, _ = disc_loss(model, batch)
        loss.backward()
        opt.step()
        if first is None:
            first = float(loss.data)
    assert float(loss.data) < first


# ---------------------------------------------------------------------------
# Baselines


def test_forward_error_zero_for_realizable_prediction():
    rng = np.random.default_rng(7)
    model = ForwardModel(3, 7, rng, embed_dim=8, hidden=16,
                         channels=(4, 8, 8), norm="batch")
    model.eval()
    e = rng.standard_normal((2, 8)).astype(np.float32)
    act = np.eye(7, dtype=np.float32)[[0, 3]]
    with no_grad():
        pred = model.predict(Tensor(e), Tensor(act)).data
    assert np.array_equal(forward_error(model, e, act, pred), [0.0, 0.0])


def test_forward_model_loss_decreases():
    rng = np.random.default_rng(8)
    model = ForwardModel(3, 7, rng, embed_dim=8, hidden=16,
                         channels=(4, 8, 8), norm="batch")
    opt = Adam(model.parameters(), lr=3e-3)
    batch = {
        "obs_t": _toy_obs(rng, 8),
        "obs_next": _toy_obs(rng, 8),
        "action": np.eye(7, dtype=np.float32)[rng.integers(7, size=8)],
    }
    losses = []
    for _ in range(40):
        model.zero_grad()
        loss = model.loss(batch)
        loss.backward()
        opt.step()
        losses.append(float(loss.data))
    assert losses[-1] < losses[0]


def test_inverse_model_loss_decreases():
    rng = np.random.default_rng(9)
    model = InverseModel(3, 7, rng, embed_dim=8, hidden=16,
                         channels=(4, 8, 8), norm="batch")
    opt = Adam(model.parameters(), lr=3e-3)
    batch = {
        "obs_t": _toy_obs(rng, 8),
        "obs_next": _toy_obs(rng, 8),
        "action": np.eye(7, dtype=np.float32)[rng.integers(7, size=8)],
        "h_prev": np.zeros((8, 8), dtype=np.float32),
    }
    losses = []
    for _ in range(40):
        model.zero_grad()
        loss = model.loss(batch)
        loss.backward()
        opt.step()
        losses.append(float(loss.data))
    assert losses[-1] < losses[0]


def _graph_nodes_made(monkeypatch):
    """Every node that records a backward from now on, in a list."""
    made = []
    make = Tensor._make

    def recording(self, data, prev, backward):
        out = make(self, data, prev, backward)
        if out._backward is not None:
            made.append(out)
        return out

    monkeypatch.setattr(Tensor, "_make", recording)
    return made


def _reachable(root):
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._prev)
    return seen


@pytest.mark.parametrize("model_cls", [ForwardModel, RndModel])
def test_target_pass_builds_no_graph(model_cls, monkeypatch):
    # the target encoder runs under no_grad: every node the loss records
    # is one its backward replays
    rng = np.random.default_rng(11)
    if model_cls is ForwardModel:
        model = ForwardModel(3, 7, rng, embed_dim=8, hidden=16,
                             channels=(4, 8, 8), norm="batch")
    else:
        model = RndModel(3, rng, embed_dim=8, channels=(4, 8, 8))
    model.train()
    batch = {"obs_t": _toy_obs(rng, 8), "obs_next": _toy_obs(rng, 8),
             "action": np.eye(7, dtype=np.float32)[rng.integers(7, size=8)]}
    made = _graph_nodes_made(monkeypatch)
    loss = model.loss(batch)
    assert made
    assert {id(node) for node in made} <= _reachable(loss)


def test_rnd_error_shrinks_on_repeated_observation():
    rng = np.random.default_rng(10)
    model = RndModel(3, rng, embed_dim=8, channels=(4, 8, 8))
    opt = Adam(model.predictor.parameters(), lr=1e-3)
    obs = _toy_obs(rng, 4)
    with no_grad():
        before = model.bonus(obs).mean()
    for _ in range(50):
        model.zero_grad()
        loss = model.loss({"obs_next": obs})
        loss.backward()
        opt.step()
    with no_grad():
        after = model.bonus(obs).mean()
    assert after < before
