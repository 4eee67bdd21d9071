"""Float32 end to end: activations, losses and gradients of the PPO and
discriminator updates stay float32, and a Python scalar takes the dtype
of the Tensor it meets."""
import numpy as np
import pytest

from pinned_runs import tiny_config
from gridexplore import methods
from gridexplore.harness import Trainer
from gridexplore.nn import GruCell, Tensor, no_grad
from gridexplore.ppo import compute_gae, ppo_update

F32 = np.dtype(np.float32)


def test_python_scalar_keeps_the_tensor_dtype():
    x = Tensor(np.ones(3, np.float32))
    for y in (x * 0.5, 0.5 * x, x + 1.0, 1.0 - x, x - 1, x / 3.0,
              x.mean(), x.mean(axis=0), x.sum() * (1.0 / 3)):
        assert y.dtype == F32
    assert (Tensor(np.ones(3)) * 0.5).dtype == np.float64


@pytest.mark.parametrize("grad", [False, True])
def test_gru_output_is_float32_on_float32_inputs(grad):
    rng = np.random.default_rng(0)
    cell = GruCell(3, 4, rng)
    x = Tensor(rng.standard_normal((2, 3)).astype(np.float32))
    h = Tensor(rng.standard_normal((2, 4)).astype(np.float32))
    if grad:
        out = cell(x, h)
        (out * out).sum().backward()
        assert {p.grad.dtype for p in [x, h] + cell.parameters()} == {F32}
    else:
        with no_grad():
            out = cell(x, h)
    assert out.dtype == F32


def _spy(monkeypatch, owner, attr, seen):
    """Record the dtype of every Tensor `owner.attr` is called on or
    returns."""
    fn = getattr(owner, attr)

    def spied(*args, **kwargs):
        out = fn(*args, **kwargs)
        for v in (*args, *(out if isinstance(out, tuple) else (out,))):
            if isinstance(v, Tensor):
                seen.add(v.dtype)
        return out

    monkeypatch.setattr(owner, attr, spied)


def test_ppo_and_discriminator_updates_run_in_float32(monkeypatch):
    built = set()
    init = Tensor.__init__

    def counted(t, data, _prev=()):
        init(t, data, _prev)
        built.add(t.dtype)

    trainer = Trainer(tiny_config(noise_sigma=0.1), 1)
    monkeypatch.setattr(Tensor, "__init__", counted)
    losses, logits = set(), set()
    _spy(monkeypatch, Tensor, "backward", losses)
    _spy(monkeypatch, Tensor, "log_softmax", logits)  # policy logits
    _spy(monkeypatch, methods, "disc_loss", logits)  # loss and logits

    buf = trainer.collector.collect(trainer.config.rollout_steps)
    buf.advantages, buf.returns = compute_gae(
        buf.ext_rewards + buf.raw_ir, buf.values, buf.dones, buf.bootstrap,
        0.99, 0.95)
    ppo_update(trainer.policy, trainer.opt, buf, np.random.default_rng(0),
               epochs=1)
    policy_grads = {p.grad.dtype for p in trainer.policy.parameters()}
    trainer.method.update(buf, np.random.default_rng(1), epochs=1,
                          minibatch=32)
    model_grads = {p.grad.dtype
                   for p in trainer.method.model.parameters()}

    assert losses == logits == policy_grads == model_grads == {F32}
    assert built == {F32}
