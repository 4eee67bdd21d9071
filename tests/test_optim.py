import numpy as np
import pytest

from gridexplore.nn import (
    Adam,
    BlobError,
    Tensor,
    clip_grad_norm,
    pack_arrays,
    unpack_arrays,
)


def make_param(value, grad=None):
    p = Tensor(np.array(value, dtype=np.float64))
    if grad is not None:
        p.grad = np.array(grad, dtype=np.float64)
    return p


def test_zero_gradient_leaves_params():
    p = make_param([1.0, -2.0], [0.0, 0.0])
    Adam([p], lr=1e-3).step()
    assert np.array_equal(p.data, [1.0, -2.0])


def test_first_step_matches_hand_computation():
    # m_hat = 0.5, v_hat = 0.25 -> delta = -lr * 0.5 / (0.5 + eps)
    p = make_param([0.0], [0.5])
    Adam([p], lr=1e-3, eps=1e-5).step()
    expected = -1e-3 * 0.5 / (np.sqrt(0.25) + 1e-5)
    assert p.data[0] == pytest.approx(expected, rel=1e-9)
    assert p.data[0] == pytest.approx(-9.9998e-4, rel=1e-4)


def test_constant_gradient_step_size_is_magnitude_invariant():
    # with bias correction, m_hat/sqrt(v_hat) = sign(g) for any constant g,
    # so the step size is ~lr no matter the gradient scale
    deltas = []
    for g in (0.5, 50.0):
        p = make_param([0.0], [g])
        Adam([p], lr=1e-3, eps=1e-10).step()
        deltas.append(p.data[0])
    assert deltas[0] == pytest.approx(-1e-3, rel=1e-6)
    assert deltas[0] == pytest.approx(deltas[1], rel=1e-6)


def test_two_steps_of_constant_gradient_track_doubled_lr():
    # constant g keeps m_hat = g and v_hat = g^2 at every t, so bias
    # correction makes the two-step path equal one doubled-lr step
    p1 = make_param([0.0])
    opt1 = Adam([p1], lr=1e-3)
    for _ in range(2):
        p1.grad = np.array([0.5])
        opt1.step()
    p2 = make_param([0.0], [0.5])
    Adam([p2], lr=2e-3).step()
    assert p1.data[0] == pytest.approx(p2.data[0], rel=1e-12)


def test_lr_zero_is_identity():
    p = make_param([3.0, -1.0], [1.0, 2.0])
    Adam([p], lr=0.0).step()
    assert np.array_equal(p.data, [3.0, -1.0])


def test_adam_state_roundtrip():
    p = make_param([0.0], [0.5])
    opt = Adam([p], lr=1e-3)
    opt.step()
    state = opt.state_arrays("opt.")
    p2 = make_param([float(p.data[0])])
    opt2 = Adam([p2], lr=1e-3)
    opt2.load_state({k: np.asarray(v) for k, v in state.items()}, "opt.")
    p.grad = np.array([0.25])
    p2.grad = np.array([0.25])
    opt.step()
    opt2.step()
    assert p.data[0] == pytest.approx(p2.data[0], rel=1e-12)


def test_clip_grad_norm_scales_to_max():
    p = make_param([0.0, 0.0], [3.0, 4.0])
    norm = clip_grad_norm([p], 1.0)
    assert norm == pytest.approx(5.0)
    assert np.linalg.norm(p.grad) == pytest.approx(1.0)


def test_blob_roundtrip_is_byte_identical():
    arrays = {
        "enc.w": np.arange(12, dtype=np.float32).reshape(3, 4),
        "enc.b": np.array([1.5], dtype=np.float32),
        "scalar": np.array(2.0, dtype=np.float32),
        "planes": np.array([[0, 7], [255, 1]], dtype=np.uint8),
    }
    blob = pack_arrays(arrays)
    assert pack_arrays(unpack_arrays(blob)) == blob
    back = unpack_arrays(blob)
    for k, v in arrays.items():
        assert np.array_equal(back[k], v)
        assert back[k].shape == v.shape
        assert back[k].dtype == v.dtype


def test_blob_bad_magic_raises():
    with pytest.raises(BlobError):
        unpack_arrays(b"XXXX" + b"\x00" * 16)


def test_blob_truncation_raises():
    blob = pack_arrays({"w": np.ones((4, 4), dtype=np.float32)})
    with pytest.raises(BlobError):
        unpack_arrays(blob[:-8])


def test_blob_name_that_is_not_utf8_raises():
    # the first name byte follows the magic, the entry count and the
    # name's length
    blob = bytearray(pack_arrays({"w": np.ones(2, dtype=np.float32)}))
    blob[20] = 0xFF
    with pytest.raises(BlobError):
        unpack_arrays(bytes(blob))
