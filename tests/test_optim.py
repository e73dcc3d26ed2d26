import numpy as np
import pytest

from deepbsde.errors import ConfigError, ShapeError
from deepbsde.optim import (
    BETA1,
    BETA2,
    CHUNK,
    EPS,
    AdamState,
    adam_step,
    clip_by_global_norm,
    lr_at,
    sgd_step,
)


def test_sgd_example():
    params = np.array([1.0, 2.0])
    sgd_step(params, np.array([0.5, -1.0]), 0.1)
    assert np.allclose(params, [0.95, 2.1], atol=1e-15)


def test_sgd_zero_gradient():
    params = np.array([3.0, -4.0])
    sgd_step(params, np.zeros(2), 0.1)
    assert np.array_equal(params, [3.0, -4.0])


def test_sgd_rejects_nonpositive_lr():
    # NaN once wrote NaN into params and inf was accepted
    for lr in (0.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            sgd_step(np.zeros(2), np.zeros(2), lr)


def test_sgd_rejects_length_mismatch():
    with pytest.raises(ShapeError):
        sgd_step(np.zeros(2), np.zeros(3), 0.1)


def test_adam_first_step_is_signed_lr():
    # bias-corrected first step: m_hat = g, v_hat = g^2, update ~ -lr*sign(g)
    lr = 1e-4
    g = np.array([0.5, -0.002, 3.0, -1e-3])
    state = AdamState.create(4)
    params = np.zeros(4)
    adam_step(state, params, g, lr)
    want = -lr * np.sign(g)
    assert np.max(np.abs(params - want)) < 1e-9
    assert state.step_count == 1


def test_adam_zero_gradient_leaves_params():
    state = AdamState.create(3)
    params = np.array([1.0, -2.0, 0.5])
    for _ in range(5):
        adam_step(state, params, np.zeros(3), 1e-2)
        assert np.array_equal(params, [1.0, -2.0, 0.5])
    assert state.step_count == 5


def test_adam_scale_awareness():
    # difference is eps-order: lr*eps/(2|g|) stays under 1e-9 for |g| >= 1e-3
    lr = 1e-4
    g = np.array([0.8, -0.03, 0.004])
    a, b = np.zeros(3), np.zeros(3)
    adam_step(AdamState.create(3), a, g, lr)
    adam_step(AdamState.create(3), b, 2.0 * g, lr)
    assert np.max(np.abs(a - b)) < 1e-9


def test_steps_update_their_buffers_in_place():
    rng = np.random.default_rng(4)
    params = rng.standard_normal(6)
    state = AdamState.create(6)
    buffers = (params, state.m, state.v)
    for t in range(1, 4):
        grads = rng.standard_normal(6)
        read = grads.copy()
        assert adam_step(state, params, grads, 1e-2) is None
        assert sgd_step(params, grads, 1e-2) is None
        assert np.array_equal(grads, read)
        assert clip_by_global_norm(grads, 0.5) is None
        assert np.linalg.norm(grads) == pytest.approx(0.5, abs=1e-12)
        assert state.step_count == t
        assert all(a is b for a, b in zip((params, state.m, state.v), buffers))
    # a converted copy would take the update and lose it
    for bad in ([0.0] * 6, np.zeros(6, dtype=np.float32)):
        with pytest.raises(ShapeError):
            adam_step(state, bad, np.zeros(6), 1e-2)
        with pytest.raises(ShapeError):
            sgd_step(bad, np.zeros(6), 1e-2)


def test_adam_validation():
    state = AdamState.create(2)
    for lr in (0.0, float("nan"), float("inf")):
        params = np.zeros(2)
        with pytest.raises(ConfigError):
            adam_step(state, params, np.zeros(2), lr)
        assert np.array_equal(params, [0.0, 0.0])
    with pytest.raises(ShapeError):
        adam_step(state, np.zeros(2), np.zeros(5), 1e-2)


def test_clip_by_global_norm():
    g = np.array([3.0, 4.0])
    clip_by_global_norm(g, 1.0)
    assert np.linalg.norm(g) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(g, [0.6, 0.8])
    small = np.array([0.1, 0.1])
    clip_by_global_norm(small, 1.0)
    assert np.array_equal(small, [0.1, 0.1])
    # a NaN bound once left every gradient unclipped
    for max_norm in (0.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            clip_by_global_norm(np.array([3.0, 4.0]), max_norm)


def test_lr_schedule_examples():
    values, boundaries = (1e-2, 1e-3, 1e-4), (1000, 3000)
    assert lr_at(values, boundaries, 0) == 1e-2
    assert lr_at(values, boundaries, 999) == 1e-2
    assert lr_at(values, boundaries, 1000) == 1e-3  # boundary inclusive
    assert lr_at(values, boundaries, 2999) == 1e-3
    assert lr_at(values, boundaries, 3000) == 1e-4
    assert lr_at(values, boundaries, 10 ** 9) == 1e-4
    assert lr_at((5e-3,), (), 0) == 5e-3
    assert lr_at((5e-3,), (), 10_000) == 5e-3


def test_adam_matches_textbook_form_bitwise():
    # Kingma & Ba's constants, the only ones the optimizer uses
    assert (BETA1, BETA2, EPS) == (0.9, 0.999, 1e-8)
    rng = np.random.default_rng(21)
    state = AdamState.create(1000)
    params = rng.standard_normal(1000)
    m, v = np.zeros(1000), np.zeros(1000)
    want = params.copy()
    for t in range(1, 6):
        g = rng.standard_normal(1000) * 10.0 ** rng.integers(-6, 3, size=1000)
        lr = 0.01 / t
        m = 0.9 * m + (1.0 - 0.9) * g
        v = 0.999 * v + (1.0 - 0.999) * g * g
        m_hat = m / (1.0 - 0.9 ** t)
        v_hat = v / (1.0 - 0.999 ** t)
        want = want - lr * m_hat / (np.sqrt(v_hat) + 1e-8)
        adam_step(state, params, g, lr)
        assert np.array_equal(params, want)
        assert np.array_equal(state.m, m)
        assert np.array_equal(state.v, v)


def test_adam_chunks_match_textbook_form_bitwise():
    # two full chunks and a short tail: every boundary of adam_step's passes
    n = 2 * CHUNK + 17
    rng = np.random.default_rng(27)
    state = AdamState.create(n)
    params = rng.standard_normal(n)
    m, v = np.zeros(n), np.zeros(n)
    want = params.copy()
    for t in range(1, 6):
        g = rng.standard_normal(n) * 10.0 ** rng.integers(-6, 3, size=n)
        lr = 0.01 / t
        m = 0.9 * m + (1.0 - 0.9) * g
        v = 0.999 * v + (1.0 - 0.999) * g * g
        m_hat = m / (1.0 - 0.9 ** t)
        v_hat = v / (1.0 - 0.999 ** t)
        want = want - lr * m_hat / (np.sqrt(v_hat) + 1e-8)
        adam_step(state, params, g, lr)
        assert np.array_equal(params, want)
        assert np.array_equal(state.m, m)
        assert np.array_equal(state.v, v)
