import numpy as np
import pytest

from deepbsde.bsde import rollout_values
from deepbsde.errors import ConfigError, ShapeError
from deepbsde.net import (
    SHARINGS,
    MLPConfig,
    SubnetBank,
    flatten_params,
    init_params,
    mlp_backward,
    mlp_eval,
    param_count,
    unflatten_params,
)
from deepbsde.problems import XI_MODES, get_problem
from deepbsde.sde import RngStream, make_uniform_grid, simulate_paths

from conftest import central_diff_grad, max_rel_err


def _mlp_size(params):
    return sum(w.size for w in params.weights) + sum(b.size for b in params.biases)


def test_single_mlp_parameter_count():
    # [2,12,12,1]: (2*12+12) + (12*12+12) + (12*1+1) = 36 + 156 + 13
    params = init_params(MLPConfig((2, 12, 12, 1), "tanh"), seed=0)
    assert _mlp_size(params) == 205


def test_deterministic_bank_n1_count():
    bank = SubnetBank.create("point", "independent", d=5, num_steps=1)
    assert param_count(bank) == 1 + 5


def test_shared_bank_count():
    d, n = 3, 7
    shared = SubnetBank.create("box", "shared", d, n, hidden=(8, 8))
    single = SubnetBank.create("box", "independent", d, 1, hidden=(8, 8))
    assert param_count(shared) == param_count(single)


def test_independent_bank_count_scales_with_steps():
    d = 2
    one = SubnetBank.create("box", "independent", d, 1, hidden=(6, 6))
    three = SubnetBank.create("box", "independent", d, 3, hidden=(6, 6))
    per_phi = _mlp_size(one.z_nets[0])
    assert param_count(three) - param_count(one) == 2 * per_phi


def test_xavier_bound_and_zero_biases():
    params = init_params(MLPConfig((4, 4), "tanh"), seed=31)
    bound = np.sqrt(6.0 / 8.0)
    w = params.weights[0]
    assert np.all(np.abs(w) <= bound)
    assert w.std() > 0.1 * bound  # actually random, not collapsed
    assert np.all(params.biases[0] == 0.0)


def test_init_deterministic_given_seed():
    a = init_params(MLPConfig((3, 9, 2), "relu"), seed=123)
    b = init_params(MLPConfig((3, 9, 2), "relu"), seed=123)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    c = init_params(MLPConfig((3, 9, 2), "relu"), seed=124)
    assert not np.array_equal(a.weights[0], c.weights[0])


def test_forward_zero_weights_returns_bias():
    params = init_params(MLPConfig((3, 5, 2), "tanh"), seed=0)
    for w in params.weights:
        w[:] = 0.0
    params.biases[-1][:] = np.array([0.7, -0.2])
    x = np.random.default_rng(0).standard_normal((6, 3))
    out = mlp_eval(params, x)
    assert np.allclose(out, np.tile([0.7, -0.2], (6, 1)), atol=0)


def test_forward_no_hidden_layer_is_affine():
    params = init_params(MLPConfig((3, 1), "tanh"), seed=5)
    x = np.random.default_rng(1).standard_normal((4, 3))
    want = x @ params.weights[0] + params.biases[0]
    assert np.array_equal(mlp_eval(params, x), want)


def test_tape_forward_matches_numpy_forward():
    # the recording forward (training) and the plain one (evaluation) agree
    params = init_params(MLPConfig((4, 7, 7, 2), "tanh"), seed=9)
    x = np.random.default_rng(2).standard_normal((5, 4))
    saved = []
    out = mlp_eval(params, x, saved)
    assert np.array_equal(out, mlp_eval(params, x))
    assert [a.shape for a in saved] == [(5, 4), (5, 7), (5, 7)]
    assert np.array_equal(saved[0], x)
    assert np.array_equal(saved[2], np.tanh(np.tanh(x @ params.weights[0]) @ params.weights[1]))


def test_forward_input_width_checked():
    params = init_params(MLPConfig((4, 3, 1), "tanh"), seed=0)
    with pytest.raises(ShapeError):
        mlp_eval(params, np.ones((2, 5)))


def test_mlp_gradients_match_finite_differences():
    config = MLPConfig((3, 6, 6, 2), "tanh")
    template = init_params(config, seed=17)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((4, 3))
    probe = rng.standard_normal((4, 2))
    target = rng.standard_normal((4, 1))

    def set_from_vec(vec):
        params = init_params(config, seed=17)
        pos = 0
        for li in range(len(params.weights)):
            w = params.weights[li]
            w[:] = vec[pos:pos + w.size].reshape(w.shape)
            pos += w.size
            b = params.biases[li]
            b[:] = vec[pos:pos + b.size]
            pos += b.size
        return params

    def flat(params):
        out = []
        for li in range(len(params.weights)):
            out.append(params.weights[li].ravel())
            out.append(params.biases[li].ravel())
        return np.concatenate(out)

    theta = flat(template)

    def loss_fn(vec):
        proj = np.sum(mlp_eval(set_from_vec(vec), x) * probe, axis=1, keepdims=True)
        return float(np.mean((proj - target) ** 2))

    params = set_from_vec(theta)
    saved = []
    out = mlp_eval(params, x, saved)
    proj = np.sum(out * probe, axis=1, keepdims=True)
    layers = mlp_backward(params, saved, (2.0 / x.shape[0]) * (proj - target) * probe)
    analytic = np.concatenate([arr.ravel() for layer in layers for arr in layer])
    fd = central_diff_grad(loss_fn, theta)
    assert max_rel_err(analytic, fd) < 1e-5


def test_shared_bank_uses_one_network_for_all_steps():
    bank = SubnetBank.create("box", "shared", d=2, num_steps=5, hidden=(6, 6))
    assert {bank.z_index(n) for n in range(5)} == {0}
    x = np.random.default_rng(3).standard_normal((4, 2))
    outs = [mlp_eval(bank.z_nets[bank.z_index(n)], x) for n in range(5)]
    for o in outs[1:]:
        assert np.array_equal(o, outs[0])


def test_deterministic_bank_step_zero_has_no_network():
    bank = SubnetBank.create("point", "independent", d=2, num_steps=4)
    assert bank.z_index(0) is None
    assert len(bank.z_nets) == 3
    assert bank.y0 == 0.0
    assert np.array_equal(bank.z0, np.zeros(2))


def test_flatten_round_trip_bitwise():
    for xi_mode in XI_MODES:
        for sharing in SHARINGS:
            bank = SubnetBank.create(xi_mode, sharing, d=3, num_steps=4, hidden=(6, 5), seed=8)
            vec = flatten_params(bank)
            assert vec.size == param_count(bank)
            assert not np.shares_memory(vec, bank.theta)
            back = unflatten_params(bank, vec)
            assert not np.shares_memory(back.theta, vec)
            assert not np.shares_memory(back.theta, bank.theta)
            for (name_a, a), (name_b, b) in zip(bank.tensor_items(), back.tensor_items()):
                assert name_a == name_b
                assert np.array_equal(np.asarray(a), np.asarray(b))
            # neither the flat copy nor the unflattened bank writes through
            kept = vec.copy()
            vec += 1.0
            assert np.array_equal(back.theta, kept)
            back.theta[:] = 0.0
            assert np.array_equal(flatten_params(bank), kept)


@pytest.mark.parametrize("sharing", SHARINGS)
@pytest.mark.parametrize("xi_mode", XI_MODES)
def test_bank_tensors_are_views_of_theta(xi_mode, sharing):
    d, n = 2, 3
    bank = SubnetBank.create(xi_mode, sharing, d, n, hidden=(4, 4), seed=6)
    items = bank.tensor_items()
    assert all(np.shares_memory(arr, bank.theta) for _, arr in items)
    # the views tile theta in flatten order, without gaps or overlaps
    assert np.array_equal(np.concatenate([arr.ravel() for _, arr in items]), bank.theta)
    assert sum(arr.size for _, arr in items) == bank.theta.size

    problem = get_problem("allen_cahn", d)
    grid = make_uniform_grid(problem.T, n)
    paths, incs = simulate_paths(problem, grid, 16, RngStream(5))
    before = rollout_values(problem, bank, grid, paths, incs)
    moved = flatten_params(bank) + 0.1 * RngStream(7).normals(bank.theta.size)
    bank.theta[:] = moved
    after = rollout_values(problem, bank, grid, paths, incs)
    assert after.loss != before.loss
    assert not np.array_equal(after.y0_values, before.y0_values)
    rebuilt = rollout_values(problem, unflatten_params(bank, moved), grid, paths, incs)
    assert rebuilt.loss == after.loss
    assert np.array_equal(rebuilt.terminal_values, after.terminal_values)


def test_flatten_perturbation_scan():
    # element k of the flat vector touches exactly one scalar in the bank
    bank = SubnetBank.create("point", "independent", d=2, num_steps=2,
                             hidden=(3, 3), seed=2)
    base = flatten_params(bank)
    for k in range(base.size):
        vec = base.copy()
        vec[k] += 1.0
        bumped = unflatten_params(bank, vec)
        diffs = 0
        for (_, a), (_, b) in zip(bank.tensor_items(), bumped.tensor_items()):
            diffs += int(np.sum(np.asarray(a) != np.asarray(b)))
        assert diffs == 1


def test_unflatten_rejects_wrong_length():
    bank = SubnetBank.create("point", "independent", d=2, num_steps=3)
    with pytest.raises(ShapeError):
        unflatten_params(bank, np.zeros(param_count(bank) + 1))


def test_tensor_naming_deterministic_mode():
    bank = SubnetBank.create("point", "independent", d=2, num_steps=3,
                             hidden=(4, 4))
    names = [name for name, _ in bank.tensor_items()]
    assert names[0] == "y0"
    assert names[1] == "z0"
    assert "phi_1.layer_0.weight" in names
    assert "phi_2.layer_2.bias" in names
    assert not any(n.startswith("psi0") or n.startswith("phi_0") for n in names)


def test_tensor_naming_general_mode():
    bank = SubnetBank.create("box", "independent", d=2, num_steps=2, hidden=(4, 4))
    names = [name for name, _ in bank.tensor_items()]
    assert names[0] == "psi0.layer_0.weight"
    assert "phi_0.layer_0.weight" in names
    assert "phi_1.layer_2.bias" in names


def test_tensor_naming_shared_mode():
    bank = SubnetBank.create("box", "shared", d=2, num_steps=6, hidden=(4, 4))
    names = [name for name, _ in bank.tensor_items()]
    phi_names = [n for n in names if n.startswith("phi_")]
    assert all(n.startswith("phi_shared.") for n in phi_names)


def test_bank_validation():
    with pytest.raises(ConfigError):
        SubnetBank.create("nonsense_mode", "independent", 2, 3)
    with pytest.raises(ConfigError):
        SubnetBank.create("box", "sometimes", 2, 3)
    with pytest.raises(ConfigError):
        SubnetBank.create("box", "independent", 0, 3)
    with pytest.raises(ConfigError):
        MLPConfig((4,), "tanh")
    with pytest.raises(ConfigError):
        MLPConfig((4, 0, 1), "tanh")
    with pytest.raises(ConfigError):
        MLPConfig((4, 4, 1), "softmax")
