import numpy as np
import pytest

from gridexplore.envs import Env, EnvSpec
from gridexplore.harness import ExperimentConfig
from gridexplore.methods import make_method
from gridexplore.nn import Adam, Tensor, no_grad
from gridexplore.ppo import (
    ActorCritic,
    BufferError,
    Collector,
    EmaStandardizer,
    compute_gae,
    ppo_update,
    sample_actions,
)


# ---------------------------------------------------------------------------
# GAE


def test_gae_hand_recursion():
    rewards = np.array([[1.0], [0.0]])
    values = np.array([[0.5], [0.4]])
    dones = np.array([[False], [True]])
    adv, ret = compute_gae(rewards, values, dones, np.array([9.9]),
                           gamma=0.99, lam=0.95)
    d2 = -0.4
    d1 = 1.0 + 0.99 * 0.4 - 0.5
    assert adv[1, 0] == pytest.approx(d2)
    assert adv[0, 0] == pytest.approx(d1 + 0.99 * 0.95 * d2)
    assert adv[0, 0] == pytest.approx(0.5198, abs=1e-5)
    assert ret[0, 0] == pytest.approx(adv[0, 0] + 0.5)


def test_gae_lambda_zero_is_td_error():
    rng = np.random.default_rng(0)
    rewards = rng.random((6, 3))
    values = rng.random((6, 3))
    dones = np.zeros((6, 3), bool)
    boot = rng.random(3)
    adv, _ = compute_gae(rewards, values, dones, boot, 0.9, 0.0)
    nxt = np.vstack([values[1:], boot[None]])
    assert np.allclose(adv, rewards + 0.9 * nxt - values)


def test_gae_zero_rewards_zero_values():
    adv, ret = compute_gae(np.zeros((4, 2)), np.zeros((4, 2)),
                           np.zeros((4, 2), bool), np.zeros(2), 0.99, 0.95)
    assert np.all(adv == 0) and np.all(ret == 0)


def test_gae_monte_carlo_limit():
    # gamma=1, lambda=1, V=0 -> reward-to-go
    rng = np.random.default_rng(1)
    rewards = rng.random((5, 2))
    dones = np.zeros((5, 2), bool)
    dones[-1] = True
    adv, ret = compute_gae(rewards, np.zeros((5, 2)), dones,
                           np.full(2, 7.0), 1.0, 1.0)
    expect = np.cumsum(rewards[::-1], axis=0)[::-1]
    assert np.allclose(adv, expect)
    assert np.allclose(ret, expect)


def test_gae_shape_mismatch_raises():
    with pytest.raises(ValueError):
        compute_gae(np.zeros((3, 2)), np.zeros((4, 2)),
                    np.zeros((3, 2), bool), np.zeros(2), 0.99, 0.95)


# ---------------------------------------------------------------------------
# Advantage normalization: the batch is folded into the averages first,
# then standardized


def _normalize_advantages(adv, norm):
    norm.update(adv)
    return norm(adv)


def test_adv_norm_momentum_zero_standardizes():
    norm = EmaStandardizer(momentum=0.0)
    adv = np.array([1.0, 2.0, 3.0, 6.0])
    out = _normalize_advantages(adv, norm)
    assert out.mean() == pytest.approx(0.0, abs=1e-12)
    assert out.std() == pytest.approx(1.0)


def test_adv_norm_shift_invariant_at_momentum_zero():
    adv = np.array([0.5, -1.0, 2.0])
    out1 = _normalize_advantages(adv, EmaStandardizer(momentum=0.0))
    out2 = _normalize_advantages(adv + 10.0, EmaStandardizer(momentum=0.0))
    assert np.allclose(out1, out2)


def test_adv_norm_constant_batch_is_finite():
    out = _normalize_advantages(np.full(8, 3.0), EmaStandardizer())
    assert np.all(np.isfinite(out))


def test_adv_norm_ema_blend_hand_values():
    norm = EmaStandardizer(mean=0.0, std=1.0, momentum=0.9)
    adv = np.array([2.0, 4.0])  # batch mean 3, std 1
    out = _normalize_advantages(adv, norm)
    assert norm.mean == pytest.approx(0.3)
    assert norm.std == pytest.approx(1.0)
    assert out == pytest.approx((adv - 0.3) / 1.0)


# ---------------------------------------------------------------------------
# Surrogate arithmetic


def test_clip_branch_hand_value():
    ratio = Tensor(np.array([1.5]))
    adv = Tensor(np.array([1.0]))
    surr = (ratio * adv).minimum(ratio.clip(0.8, 1.2) * adv)
    assert surr.data[0] == pytest.approx(1.2)


def test_clipped_surrogate_is_pessimistic():
    rng = np.random.default_rng(2)
    ratio = Tensor(np.exp(rng.standard_normal(64)))
    adv = Tensor(rng.standard_normal(64))
    unclipped = ratio * adv
    clipped = (ratio * adv).minimum(ratio.clip(0.8, 1.2) * adv)
    assert float(clipped.mean().data) <= float(unclipped.mean().data) + 1e-12


# ---------------------------------------------------------------------------
# Action sampling


def _softmax_rows(logits, dtype):
    """Rows normalized as `Collector.collect` normalizes them."""
    logits = logits.astype(dtype)
    shifted = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(shifted - np.log(np.exp(shifted).sum(axis=1,
                                                        keepdims=True)))
    probs /= probs.sum(axis=1, keepdims=True)
    return probs


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sample_actions_equals_choice_loop(dtype):
    src = np.random.default_rng(11)
    loop_rng, batch_rng = np.random.default_rng(5), np.random.default_rng(5)
    for trial in range(400):
        # from near-uniform to near-deterministic rows
        probs = _softmax_rows(src.standard_normal((16, 7))
                              * src.uniform(0.0, 40.0), dtype)
        one_hot = src.choice(16, size=3, replace=False)
        probs[one_hot] = 0.0
        probs[one_hot, src.integers(0, 7, size=3)] = 1.0
        expected = np.array([loop_rng.choice(7, p=p) for p in probs])
        got = sample_actions(batch_rng, probs)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected), trial
    assert batch_rng.bit_generator.state == loop_rng.bit_generator.state


@pytest.mark.parametrize("bad", ["negative", "nan", "sum"])
def test_sample_actions_rejects_invalid_probabilities(bad):
    probs = np.full((2, 7), 1 / 7)
    if bad == "negative":
        probs[1, :2] = [-0.1, 0.1 + 1 / 7]
    elif bad == "nan":
        probs[1, 0] = np.nan
    else:
        probs[1] *= 1.01
    with pytest.raises(ValueError):
        np.random.default_rng(0).choice(7, p=probs[1])
    with pytest.raises(ValueError):
        sample_actions(np.random.default_rng(0), probs)


# ---------------------------------------------------------------------------
# End-to-end rollout + update on a tiny setup


def _tiny_setup(method_name="NoIntrinsic", n_workers=2, seed=0):
    rng = np.random.default_rng(seed)
    spec = EnvSpec("MultiRoomN2S4")
    env = Env(spec, [100 + w for w in range(n_workers)])
    policy = ActorCritic(7, 7, rng, embed_dim=8, hidden=16, channels=(4, 8, 8),
                         norm="batch")
    cfg = ExperimentConfig(method=method_name, embed_dim=8, hidden=16,
                           channels=(4, 8, 8), method_lr=1e-3, queue_size=256)
    method = make_method(cfg, rng, n_workers)
    collector = Collector(env, policy, method, np.random.default_rng(seed))
    return policy, method, collector


def _finish(buffer):
    adv, ret = compute_gae(buffer.ext_rewards + buffer.raw_ir, buffer.values,
                           buffer.dones, buffer.bootstrap, 0.99, 0.95)
    buffer.advantages, buffer.returns = adv, ret
    return buffer


def test_collection_is_deterministic():
    _, _, c1 = _tiny_setup(seed=3)
    _, _, c2 = _tiny_setup(seed=3)
    b1, b2 = c1.collect(16), c2.collect(16)
    assert np.array_equal(b1.obs, b2.obs)
    assert np.array_equal(b1.actions, b2.actions)
    assert np.array_equal(b1.log_probs, b2.log_probs)
    assert np.array_equal(b1.raw_ir, b2.raw_ir)


def test_hidden_zeroed_after_done():
    _, _, collector = _tiny_setup(seed=4)
    buf = collector.collect(64)  # max_steps=40 guarantees at least one done
    assert buf.dones.any()
    steps, workers = np.argwhere(buf.dones[:-1]).T
    for t, w in zip(steps, workers):
        assert np.all(buf.policy_h[t + 1, w] == 0.0)


def test_deir_bonus_zero_on_first_episode_step():
    _, _, collector = _tiny_setup("DEIR", seed=5)
    buf = collector.collect(64)
    steps, workers = np.argwhere(buf.dones[:-1]).T
    assert len(steps) > 0
    for t, w in zip(steps, workers):
        assert buf.raw_ir[t + 1, w] == 0.0
    assert np.all(buf.raw_ir >= 0.0)


def test_ppo_update_runs_and_reports_stats():
    policy, _, collector = _tiny_setup(seed=6)
    buf = _finish(collector.collect(16))
    opt = Adam(policy.parameters(), lr=1e-3)
    stats = ppo_update(policy, opt, buf, np.random.default_rng(0),
                       minibatch=16, bptt_len=8)
    for key in ("policy_loss", "value_loss", "entropy", "clip_fraction",
                "approx_kl"):
        assert np.isfinite(stats[key])
    assert stats["entropy"] > 0.0


def test_ppo_update_rejects_stale_buffer():
    policy, _, collector = _tiny_setup(seed=7)
    buf = _finish(collector.collect(16))
    opt = Adam(policy.parameters(), lr=1e-3)
    ppo_update(policy, opt, buf, np.random.default_rng(0),
               minibatch=16, bptt_len=8)
    with pytest.raises(BufferError):
        ppo_update(policy, opt, buf, np.random.default_rng(0),
                   minibatch=16, bptt_len=8)


def test_ppo_update_lr_zero_leaves_policy_identical():
    policy, _, collector = _tiny_setup(seed=8)
    buf = _finish(collector.collect(16))
    before = {k: v.copy() for k, v in policy.state_arrays().items()}
    probe_obs = Tensor(buf.obs[0])
    probe_h = Tensor(buf.policy_h[0])
    policy.train()
    with no_grad():
        logits_before, _, _ = policy.act(probe_obs, probe_h)
    policy.eval()
    opt = Adam(policy.parameters(), lr=0.0)
    ppo_update(policy, opt, buf, np.random.default_rng(0),
               minibatch=16, bptt_len=8)
    after = policy.state_arrays()
    for name, arr in before.items():
        if "running" in name:  # norm statistics move even at lr 0
            continue
        assert np.array_equal(arr, after[name]), name
    policy.train()
    with no_grad():
        logits_after, _, _ = policy.act(probe_obs, probe_h)
    policy.eval()
    assert np.array_equal(logits_before.data, logits_after.data)


def test_method_update_runs_for_every_mode():
    for name in ("DEIR", "PlainNovelty", "ForwardError", "InverseDriven",
                 "RND", "NoIntrinsic"):
        policy, method, collector = _tiny_setup(name, seed=9)
        buf = collector.collect(16)
        stats = method.update(buf, np.random.default_rng(0),
                              epochs=1, minibatch=8)
        if name != "NoIntrinsic":
            assert np.isfinite(stats["model_loss"])


def test_update_graph_sizes_are_pinned(monkeypatch):
    # nodes reachable from each loss a backward starts at: a change that
    # unrolls an op into many small ones again shows here. A PPO
    # minibatch re-runs the GRU as the one op `gru_sequence`.
    sizes = []
    backward = Tensor.backward

    def counted(root, grad=None):
        seen, stack = {id(root)}, [root]
        while stack:
            for child in stack.pop()._prev:
                if id(child) not in seen:
                    seen.add(id(child))
                    stack.append(child)
        sizes.append(len(seen))
        return backward(root, grad)

    monkeypatch.setattr(Tensor, "backward", counted)
    policy, method, collector = _tiny_setup("DEIR", seed=6)
    buf = _finish(collector.collect(16))
    method.update(buf, np.random.default_rng(0), epochs=1, minibatch=8)
    assert sizes == [71] * 4  # discriminator batches
    sizes.clear()
    ppo_update(policy, Adam(policy.parameters(), lr=1e-3), buf,
               np.random.default_rng(0), epochs=1, minibatch=16, bptt_len=8)
    assert sizes == [97] * 2  # PPO minibatches of two 8-step segments
