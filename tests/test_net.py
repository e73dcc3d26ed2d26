import numpy as np
import pytest

from deepbsde.bsde import rollout_values
from deepbsde.errors import ConfigError, ShapeError
from deepbsde.net import (
    SHARINGS,
    SubnetBank,
    flatten_params,
    mlp_backward,
    mlp_eval,
    param_count,
    unflatten_params,
)
from deepbsde.problems import XI_MODES, get_problem
from deepbsde.sde import RngStream, make_uniform_grid, simulate_paths

from conftest import bare_net, central_diff_grad, max_rel_err


def _mlp_size(net):
    return sum(w.size + b.size for w, b in net)


def test_single_mlp_parameter_count():
    # [2,12,12,1]: (2*12+12) + (12*12+12) + (12*1+1) = 36 + 156 + 13
    bank = SubnetBank.create("box", "independent", d=2, num_steps=1, hidden=(12, 12))
    assert [w.shape for w, _ in bank.y0_net] == [(2, 12), (12, 12), (12, 1)]
    assert _mlp_size(bank.y0_net) == 205


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


def _networks(bank):
    return [net for net in [bank.y0_net, *bank.z_nets] if net is not None]


def test_xavier_bound_and_zero_biases():
    # three steps: the networks of each start law and sharing, y0_net included
    counts = {("point", "independent"): 2, ("point", "shared"): 1,
              ("box", "independent"): 4, ("box", "shared"): 2}
    for (xi_mode, sharing), count in counts.items():
        bank = SubnetBank.create(xi_mode, sharing, d=3, num_steps=3, hidden=(7, 6), seed=31)
        nets = _networks(bank)
        assert len(nets) == count
        for net in nets:
            for w, b in net:
                bound = np.sqrt(6.0 / (w.shape[0] + w.shape[1]))
                assert np.all(np.abs(w) <= bound)
                assert w.std() > 0.1 * bound  # actually random, not collapsed
                assert np.all(b == 0.0)
        if xi_mode == "point":
            assert bank.y0 == 0.0 and np.all(bank.z0 == 0.0)


def test_init_deterministic_given_seed():
    def draw(seed):
        return SubnetBank.create("box", "independent", 3, 2, hidden=(9,),
                                 activation="relu", seed=seed)

    a, b, c = draw(123), draw(123), draw(124)
    assert np.array_equal(a.theta, b.theta)
    # every network's every weight moves with the seed
    for net_a, net_c in zip(_networks(a), _networks(c)):
        for (wa, _), (wc, _) in zip(net_a, net_c):
            assert np.all(wa != wc)
    # and distinct networks of one bank draw distinct weights
    assert not np.array_equal(a.z_nets[0][0][0], a.z_nets[1][0][0])


def test_forward_zero_weights_returns_bias():
    net = bare_net([np.zeros((3, 5)), np.zeros((5, 2))], [np.ones(5), [0.7, -0.2]])
    x = np.random.default_rng(0).standard_normal((6, 3))
    out = mlp_eval(net, "tanh", x)
    assert np.allclose(out, np.tile([0.7, -0.2], (6, 1)), atol=0)


def test_forward_no_hidden_layer_is_affine():
    rng = np.random.default_rng(1)
    net = bare_net([rng.standard_normal((3, 1))], [rng.standard_normal(1)])
    x = rng.standard_normal((4, 3))
    want = x @ net[0][0] + net[0][1]
    assert np.array_equal(mlp_eval(net, "tanh", x), want)


def test_saving_forward_matches_plain_forward():
    # the forward that saves layer inputs (training) and the plain one
    # (evaluation) agree
    net = SubnetBank.create("box", "independent", 4, 1, hidden=(7, 7), seed=9).z_nets[0]
    x = np.random.default_rng(2).standard_normal((5, 4))
    saved = []
    out = mlp_eval(net, "tanh", x, saved)
    assert np.array_equal(out, mlp_eval(net, "tanh", x))
    assert [a.shape for a in saved] == [(5, 4), (5, 7), (5, 7)]
    assert np.array_equal(saved[0], x)
    assert np.array_equal(saved[2], np.tanh(np.tanh(x @ net[0][0]) @ net[1][0]))


def test_forward_input_width_checked():
    net = bare_net([np.ones((4, 3)), np.ones((3, 1))], [np.zeros(3), np.zeros(1)])
    with pytest.raises(ShapeError, match=r"expects \[batch, 4\] inputs, got \(2, 5\)"):
        mlp_eval(net, "tanh", np.ones((2, 5)))


def test_mlp_gradients_match_finite_differences():
    shapes = [(3, 6), (6, 6), (6, 2)]
    rng = np.random.default_rng(4)
    theta = 0.5 * rng.standard_normal(sum(m * k + k for m, k in shapes))
    x = rng.standard_normal((4, 3))
    probe = rng.standard_normal((4, 2))
    target = rng.standard_normal((4, 1))

    def build(vec):
        weights, biases, pos = [], [], 0
        for m, k in shapes:
            weights.append(vec[pos:pos + m * k].reshape(m, k))
            pos += m * k
            biases.append(vec[pos:pos + k])
            pos += k
        return bare_net(weights, biases)

    def loss_fn(vec):
        proj = np.sum(mlp_eval(build(vec), "tanh", x) * probe, axis=1, keepdims=True)
        return float(np.mean((proj - target) ** 2))

    net = build(theta)
    saved = []
    out = mlp_eval(net, "tanh", x, saved)
    proj = np.sum(out * probe, axis=1, keepdims=True)
    layers = mlp_backward(net, "tanh", saved, (2.0 / x.shape[0]) * (proj - target) * probe)
    analytic = np.concatenate([arr.ravel() for layer in layers for arr in layer])
    fd = central_diff_grad(loss_fn, theta)
    assert max_rel_err(analytic, fd) < 1e-5


def test_shared_bank_uses_one_network_for_all_steps():
    bank = SubnetBank.create("box", "shared", d=2, num_steps=5, hidden=(6, 6))
    assert {bank.z_index(n) for n in range(5)} == {0}
    x = np.random.default_rng(3).standard_normal((4, 2))
    outs = [mlp_eval(bank.z_nets[bank.z_index(n)], bank.activation, x) for n in range(5)]
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
    # 2.5 once raised TypeError, and True built a one-step bank
    with pytest.raises(ConfigError, match="d must be an integer >= 1, got 2.5"):
        SubnetBank.create("point", "independent", 2.5, 3)
    with pytest.raises(ConfigError, match="num_steps must be an integer >= 1, got True"):
        SubnetBank.create("point", "independent", 2, True)
    with pytest.raises(ConfigError, match=r"layer widths must be positive, got \(4, 0, 4\)"):
        SubnetBank.create("box", "independent", 4, 3, hidden=(0,))
    with pytest.raises(ConfigError, match="unknown activation 'softmax'"):
        SubnetBank.create("point", "shared", 4, 3, hidden=(4,), activation="softmax")


@pytest.mark.parametrize("d, num_steps, message", [
    ("3", 3, "d must be an integer >= 1, got '3'"),
    (None, 3, "d must be an integer >= 1, got None"),
    (3, "3", "num_steps must be an integer >= 1, got '3'"),
], ids=["string-d", "no-d", "string-steps"])
def test_bank_checks_its_counts_before_the_default_widths(d, num_steps, message):
    # with no hidden widths given, "3" once raised TypeError in default_hidden
    with pytest.raises(ConfigError, match=message):
        SubnetBank.create("point", "independent", d, num_steps)
