"""Hand-derived gradients: mlp_backward on bare networks, and the rollout
adjoint (rollout_loss + backward) on examples small enough to do by hand."""

import numpy as np
import pytest

from deepbsde.bsde import Tape, backward, rollout_loss
from deepbsde.errors import ConfigError, NumericError, ShapeError
from deepbsde.net import MODES, SHARINGS, MLPConfig, MLPParams, SubnetBank, mlp_backward, mlp_eval
from deepbsde.problems import ProblemSpec, XiSampler, get_problem
from deepbsde.sde import BrownianBatch, PathBatch, RngStream, make_uniform_grid, simulate_paths

from conftest import central_diff_grad, max_rel_err


def _net(weights, biases, activation="tanh"):
    weights = [np.asarray(w, dtype=np.float64) for w in weights]
    biases = [np.asarray(b, dtype=np.float64) for b in biases]
    widths = (weights[0].shape[0],) + tuple(w.shape[1] for w in weights)
    return MLPParams(MLPConfig(widths, activation), weights, biases)


def _one_step(y0, z0, dw, g, T=1.0, f=None, df=None):
    """Deterministic bank over a single step of length T; path b starts at 0
    and ends at its increment dw[b]. Returns (tape, RolloutResult)."""
    dw = np.asarray(dw, dtype=np.float64)
    d = dw.shape[1]
    problem = ProblemSpec(
        name="hand", d=d, T=T, sigma=1.0, f=f, g=g,
        xi=XiSampler.point_mass(np.zeros(d)), exact=None, df=df,
    )
    bank = SubnetBank("deterministic_xi", "independent", d, 1)
    bank.y0[...] = y0
    bank.z0[...] = z0
    paths = PathBatch(np.stack([np.zeros_like(dw), dw], axis=1))
    tape = Tape()
    result = rollout_loss(tape, problem, bank, make_uniform_grid(T, 1), paths,
                          BrownianBatch(dw[:, None, :]))
    return tape, result


def _constant(c):
    return lambda x: np.full(x.shape[0], float(c))


def test_affine_identity():
    net = _net([np.eye(2)], [np.zeros(2)])
    assert np.array_equal(mlp_eval(net, np.array([[1.0, 2.0]])), np.array([[1.0, 2.0]]))


def test_affine_hand_arithmetic():
    # y_j = sum_i x_i W_ij + b_j
    net = _net([[[1.0, 2.0], [3.0, 4.0]]], [[1.0, 0.0]])
    assert np.array_equal(mlp_eval(net, np.array([[1.0, 1.0]])), np.array([[5.0, 6.0]]))


def test_affine_backward_hand_chain_rule():
    # loss = (x W)^2 with x=3, W=2 -> dloss/dW = 2 * 6 * 3 = 36, dloss/db = 12
    net = _net([[[2.0]]], [[0.0]])
    saved = []
    out = mlp_eval(net, np.array([[3.0]]), saved)
    ((gw, gb),) = mlp_backward(net, saved, 2.0 * out)
    assert gw[0, 0] == 36.0
    assert gb[0] == 12.0


def test_affine_shape_mismatch():
    net = _net([np.ones((4, 2))], [np.zeros(2)])
    with pytest.raises(ShapeError):
        mlp_eval(net, np.ones((2, 3)))


def test_activations_forward_and_derivative():
    # hidden pre-activations [0, -1, 2] from x = 1, summed by the output layer
    weights = [[[0.0, -1.0, 2.0]], np.ones((3, 1))]
    biases = [np.zeros(3), np.zeros(1)]
    x = np.array([[1.0]])

    saved = []
    mlp_eval(_net(weights, biases, "tanh"), x, saved)
    assert saved[1][0, 0] == 0.0

    relu = _net(weights, biases, "relu")
    saved = []
    mlp_eval(relu, x, saved)
    assert np.array_equal(saved[1], np.array([[0.0, 0.0, 2.0]]))
    (gw0, _), _ = mlp_backward(relu, saved, np.ones((1, 1)))
    # relu'(-1) = 0 and the convention relu'(0) = 0
    assert np.array_equal(gw0, np.array([[0.0, 0.0, 1.0]]))


def test_tanh_unit_derivative_at_zero():
    net = _net([[[1.0]], [[1.0]]], [[0.0], [0.0]])
    saved = []
    out = mlp_eval(net, np.zeros((1, 1)), saved)
    (_, gb0), _ = mlp_backward(net, saved, 2.0 * (out - 2.0))
    # dloss/db0 = 2*(tanh(0)-2)*tanh'(0) = -4
    assert gb0[0] == pytest.approx(-4.0, abs=1e-12)


def test_identity_activation():
    rng = np.random.default_rng(5)
    w0, b0, w1, b1 = (rng.standard_normal(s) for s in ((2, 3), 3, (3, 1), 1))
    x = rng.standard_normal((4, 2))
    out = mlp_eval(_net([w0, w1], [b0, b1], "identity"), x)
    assert np.array_equal(out, (x @ w0 + b0) @ w1 + b1)


def test_unknown_activation_rejected():
    with pytest.raises(ConfigError):
        MLPConfig((1, 1), "softplus")


def test_dot_example():
    # one step: Y_1 = y0 + z0 . dW = 0 + [1, 2] . [3, 4] = 11
    _, result = _one_step(0.0, [1.0, 2.0], [[3.0, 4.0]], _constant(0.0))
    assert result.terminal_gap[0] == -11.0


def test_linear_combination_example():
    # Y_1 = y0 - dt f + z0 . dW = 2 - 0.5 * 2 + 0 = 1
    _, result = _one_step(2.0, [0.0], [[0.0]], _constant(0.0), T=0.5,
                          f=lambda t, x, y, z: 2.0, df=lambda t, x, y, z: (0.0, 0.0))
    assert result.terminal_gap[0] == -1.0


def test_pointwise_mul_backward_product_rule():
    # f = y * y: Y_1 = y0 - dt y0^2 = 2 - 0.125 * 4 = 1.5, dY_1/dy0 = 1 - 2 dt y0 = 0.5
    tape, result = _one_step(2.0, [0.0], [[0.0]], _constant(0.0), T=0.125,
                             f=lambda t, x, y, z: y * y,
                             df=lambda t, x, y, z: (2.0 * y, 0.0))
    grads = backward(tape, result.loss)
    assert float(result.loss.value) == 2.25
    assert grads[tape.param_ids[0]][0] == 2.0 * 1.5 * 0.5


def test_loss_mse_examples():
    _, result = _one_step(0.0, [1.0], [[1.0], [3.0]], _constant(1.0))
    assert float(result.loss.value) == pytest.approx(2.0, abs=1e-15)

    _, result = _one_step(0.0, [1.0], [[0.7], [-0.3]], lambda x: x[:, 0])
    assert float(result.loss.value) == 0.0

    _, result = _one_step(0.5, [0.0], [[0.0]], _constant(0.0))
    assert float(result.loss.value) == pytest.approx(0.25, abs=1e-15)


def test_loss_mse_empty_batch_rejected():
    with pytest.raises(ShapeError):
        _one_step(0.0, [1.0], np.zeros((0, 1)), _constant(0.0))


def test_backward_simple_regression_gradient():
    # loss = (y0 + z0 dW - g)^2, y0=2, z0=1, dW=3, g=4 -> d/dy0 = 2, d/dz0 = 6
    tape, result = _one_step(2.0, [1.0], [[3.0]], _constant(4.0))
    grads = backward(tape, result.loss)
    y0_id, z0_id = tape.param_ids
    assert grads[y0_id][0] == pytest.approx(2.0, abs=1e-12)
    assert grads[z0_id][0] == pytest.approx(6.0, abs=1e-12)


def _small_rollout(increments_scale=None):
    d, n = 2, 3
    bank = SubnetBank.create("deterministic_xi", "independent", d, n, hidden=(3, 3), seed=4)
    problem = ProblemSpec(
        name="free", d=d, T=1.0, sigma=1.0, f=None,
        g=lambda x: np.sum(x * x, axis=1), xi=XiSampler.point_mass(np.zeros(d)), exact=None,
    )
    stream = RngStream(12)
    incs = stream.derive(0).normals(5 * n * d).reshape(5, n, d)
    if increments_scale is not None:
        incs *= np.asarray(increments_scale)[None, :, None]
    states = np.concatenate([np.zeros((5, 1, d)), np.cumsum(incs, axis=1)], axis=1)
    tape = Tape()
    result = rollout_loss(tape, problem, bank, make_uniform_grid(1.0, n),
                          PathBatch(states), BrownianBatch(incs))
    return tape, result, bank


def test_unreachable_parameter_gets_exact_zero():
    # zero increments at step 1 cut phi_1 off from the loss
    tape, result, bank = _small_rollout(increments_scale=[1.0, 0.0, 1.0])
    grads = backward(tape, result.loss)
    for pid, (name, arr) in zip(tape.param_ids, bank.tensor_items()):
        assert grads[pid].shape == arr.shape
        if name.startswith("phi_1."):
            assert np.all(grads[pid] == 0.0), name
        elif name.endswith("weight") or name in ("y0", "z0"):
            assert np.any(grads[pid] != 0.0), name


def test_backward_rejects_nonscalar_loss():
    tape, result, _ = _small_rollout()
    assert tape.nodes[0].value.ndim == 2
    with pytest.raises(ConfigError):
        backward(tape, tape.nodes[0])
    with pytest.raises(ConfigError):
        backward(Tape(), result.loss)


def test_nonfinite_value_rejected_on_record():
    with pytest.raises(NumericError, match="step 0, sample 1"):
        _one_step(0.0, [1.0], [[1.0], [np.inf]], _constant(0.0))


def test_random_net_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    sizes = [(4, 5), (5, 3), (3, 1)]
    n_params = sum(m * k + k for m, k in sizes)
    theta = rng.standard_normal(n_params) * 0.5
    x = rng.standard_normal((6, 4))
    target = rng.standard_normal((6, 1))

    def build(vec):
        weights, biases, pos = [], [], 0
        for m, k in sizes:
            weights.append(vec[pos:pos + m * k].reshape(m, k))
            pos += m * k
            biases.append(vec[pos:pos + k])
            pos += k
        return _net(weights, biases)

    def loss_fn(vec):
        return float(np.mean((mlp_eval(build(vec), x) - target) ** 2))

    net = build(theta)
    saved = []
    out = mlp_eval(net, x, saved)
    layers = mlp_backward(net, saved, (2.0 / x.shape[0]) * (out - target))
    flat = np.concatenate([arr.ravel() for layer in layers for arr in layer])
    assert max_rel_err(flat, central_diff_grad(loss_fn, theta)) < 1e-5


def test_backward_linearity():
    rng = np.random.default_rng(3)
    net = _net([rng.standard_normal((2, 4)), rng.standard_normal((4, 1))],
               [rng.standard_normal(4), rng.standard_normal(1)])
    saved = []
    mlp_eval(net, rng.standard_normal((5, 2)), saved)
    g1, g2 = rng.standard_normal((5, 1)), rng.standard_normal((5, 1))
    alpha, beta = 0.7, -1.3
    combo = mlp_backward(net, saved, alpha * g1 + beta * g2)
    for got, a, b in zip(combo, mlp_backward(net, saved, g1), mlp_backward(net, saved, g2)):
        for k in range(2):
            assert np.max(np.abs(got[k] - (alpha * a[k] + beta * b[k]))) < 1e-12


def test_forward_values_stable_across_backward():
    tape, result, bank = _small_rollout()
    before = [node.value.copy() for node in tape.nodes]
    params = [arr.copy() for _, arr in bank.tensor_items()]
    backward(tape, result.loss)
    backward(tape, result.loss)
    assert all(np.array_equal(n.value, v) for n, v in zip(tape.nodes, before))
    assert all(np.array_equal(a, b) for (_, a), b in zip(bank.tensor_items(), params))


def test_backward_twice_gives_same_gradients():
    tape, result, _ = _small_rollout()
    g1 = backward(tape, result.loss)
    g2 = backward(tape, result.loss)
    assert all(np.array_equal(g1[pid], g2[pid]) for pid in tape.param_ids)
    # each call fills its own fresh vector, so the second cannot have added
    # into the first's arrays
    assert not any(np.shares_memory(g1[a], g2[b]) for a in tape.param_ids for b in tape.param_ids)


@pytest.mark.parametrize("sharing", SHARINGS)
@pytest.mark.parametrize("mode", MODES)
def test_backward_arrays_are_views_of_the_flat_gradient(mode, sharing):
    d, n = 2, 4
    bank = SubnetBank.create(mode, sharing, d, n, hidden=(3, 3), seed=2)
    problem = get_problem("allen_cahn", d)
    grid = make_uniform_grid(problem.T, n)
    paths, incs = simulate_paths(problem, grid, 8, RngStream(6))
    tape = Tape()
    result = rollout_loss(tape, problem, bank, grid, paths, incs)
    grads = backward(tape, result.loss)
    # the training step feeds tape.grad to the optimizer as it stands
    flat = np.concatenate([grads[pid].ravel() for pid in tape.param_ids])
    assert np.array_equal(flat, tape.grad)
    assert flat.tobytes() == tape.grad.tobytes()
    assert all(np.shares_memory(grads[pid], tape.grad) for pid in tape.param_ids)
    assert not np.shares_memory(tape.grad, bank.theta)
