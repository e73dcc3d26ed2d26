import tracemalloc

import numpy as np
import pytest

from deepbsde.bsde import (
    VALUE_BLOCK,
    Tape,
    backward,
    estimate_u0,
    oracle_rollout_loss,
    rollout_loss,
    rollout_values,
)
from deepbsde.errors import ConfigError, NumericError
from deepbsde.net import SubnetBank, flatten_params, param_count, unflatten_params
from deepbsde.problems import ProblemSpec, XiSampler, get_problem
from deepbsde.sde import RngStream, make_uniform_grid, simulate_paths

from conftest import central_diff_grad, max_rel_err


def _custom_problem(d, T=1.0, sigma=None, f=None, df=None, g=None, xi0=None):
    return ProblemSpec(
        name="custom", d=d, T=T,
        sigma=1.0 if sigma is None else sigma,
        f=f, g=g or (lambda x: np.zeros(x.shape[0])),
        xi=XiSampler.point_mass(np.zeros(d) if xi0 is None else np.asarray(xi0, dtype=np.float64)),
        exact=None, df=df,
    )


def test_hand_rollout_single_path():
    # N=1, d=1, X_T = 0.5, g(x)=x, y0=0, z0=1: Y_T = 0 + 1*0.5 = g(X_T)
    p = _custom_problem(1, g=lambda x: x[:, 0])
    grid = make_uniform_grid(1.0, 1)
    bank = SubnetBank.create("point", "independent", 1, 1)
    vec = flatten_params(bank)
    vec[:] = [0.0, 1.0]
    bank = unflatten_params(bank, vec)
    paths = np.array([[[0.0], [0.5]]])
    incs = np.array([[[0.5]]])
    tape = Tape()
    result = rollout_loss(tape, p, bank, grid, paths, incs)
    assert float(result.loss.value) == 0.0
    assert result.terminal_gap[0] == 0.0
    assert result.y0_values[0] == 0.0


def test_constant_solution_zero_loss():
    # g == 1, psi0 == 1, phi == 0 -> perfect match on any paths
    p = _custom_problem(2, g=lambda x: np.ones(x.shape[0]),
                        sigma=np.sqrt(2.0))
    grid = make_uniform_grid(1.0, 5)
    bank = SubnetBank.create("box", "independent", 2, 5, hidden=(4, 4), seed=1)
    vec = flatten_params(bank)
    vec[:] = 0.0
    bank = unflatten_params(bank, vec)
    bank.y0_net[-1][1][0] = 1.0
    paths, incs = simulate_paths(p, grid, 64, RngStream(3))
    tape = Tape()
    result = rollout_loss(tape, p, bank, grid, paths, incs)
    assert float(result.loss.value) == 0.0


def test_constant_driver_telescopes():
    # f == 1 with zero Z: Y_T = y0 - T, independent of the paths
    p = _custom_problem(1, f=lambda t, x, y, z: 1.0, df=lambda t, x, y, z: (0.0, 0.0),
                        g=lambda x: np.zeros(x.shape[0]))
    grid = make_uniform_grid(1.0, 10)
    bank = SubnetBank.create("point", "independent", 1, 10, hidden=(3, 3))
    vec = flatten_params(bank)
    vec[:] = 0.0
    vec[0] = 3.0  # y0 = c
    bank = unflatten_params(bank, vec)
    paths, incs = simulate_paths(p, grid, 8, RngStream(5))
    out = rollout_values(p, bank, grid, paths, incs)
    assert np.allclose(out.terminal_values, 2.0, atol=1e-12)  # c - T
    assert out.loss == pytest.approx(4.0, abs=1e-10)


def test_loss_equals_mean_squared_gap():
    p = get_problem("heat", 2)
    grid = make_uniform_grid(1.0, 6)
    bank = SubnetBank.create("point", "independent", 2, 6, seed=11)
    paths, incs = simulate_paths(p, grid, 32, RngStream(2))
    tape = Tape()
    result = rollout_loss(tape, p, bank, grid, paths, incs)
    assert abs(float(result.loss.value) - np.mean(result.terminal_gap ** 2)) < 1e-12


def test_rollout_values_matches_tape_rollout():
    p = get_problem("hjb", 3, {"lambda": 0.7})
    grid = make_uniform_grid(1.0, 5)
    bank = SubnetBank.create("box", "independent", 3, 5, hidden=(8, 8), seed=6)
    paths, incs = simulate_paths(p, grid, 16, RngStream(7))
    tape = Tape()
    taped = rollout_loss(tape, p, bank, grid, paths, incs)
    plain = rollout_values(p, bank, grid, paths, incs)
    assert plain.loss == float(taped.loss.value)
    assert np.array_equal(plain.y0_values, taped.y0_values)
    assert np.array_equal(plain.terminal_gap, taped.terminal_gap)


def _two_blocks_and_five(problem_name, xi_mode, n_steps, hidden, seed):
    """A d=1 problem, grid, bank and paths whose batch spans two whole
    blocks of the tape-free rollouts and five samples of a third."""
    p = get_problem(problem_name, 1, {"xi_mode": xi_mode})
    grid = make_uniform_grid(1.0, n_steps)
    bank = SubnetBank.create(xi_mode, "independent", 1, n_steps, hidden=hidden, seed=seed)
    paths, incs = simulate_paths(p, grid, 2 * VALUE_BLOCK + 5, RngStream(seed))
    return p, grid, bank, paths, incs


def test_blocked_rollout_values_match_whole_batch_tape_rollout_bitwise():
    # rollout_loss runs the whole batch in one pass, rollout_values in blocks
    p, grid, bank, paths, incs = _two_blocks_and_five("allen_cahn", "box", 8, (5, 5), 41)
    taped = rollout_loss(Tape(), p, bank, grid, paths, incs)
    plain = rollout_values(p, bank, grid, paths, incs)
    assert plain.loss == float(taped.loss.value)
    assert plain.y0_values.tobytes() == taped.y0_values.tobytes()
    assert plain.terminal_gap.tobytes() == taped.terminal_gap.tobytes()


_LATE = 2 * VALUE_BLOCK + 3


@pytest.mark.parametrize("plant, message", [
    # the earliest step wins over the lowest sample, across blocks
    ([(_LATE, 1), (5, 4)], f"non-finite value at step 1, sample {_LATE}"),
    # at one step the lowest sample of the whole batch wins
    ([(_LATE, 2), (VALUE_BLOCK + 1, 2)], f"non-finite value at step 2, sample {VALUE_BLOCK + 1}"),
    # a forward failure in a later block wins over a non-finite g(X_N)
    ([(5, 6), (_LATE, 2)], f"non-finite value at step 2, sample {_LATE}"),
    # g(X_N) alone is named by its sample in the whole batch
    ([(_LATE, 6), (VALUE_BLOCK + 7, 6)], f"non-finite terminal value g at sample {VALUE_BLOCK + 7}"),
], ids=["earliest-step", "lowest-sample", "forward-before-terminal", "terminal-only"])
def test_blocked_rollout_failures_name_whole_batch_step_and_sample(plant, message):
    # heat has the exact solution the oracle rollout needs; a NaN in X_n
    # reaches Y at step n through Z_n, and X_6 = X_N only through g
    p, grid, bank, paths, incs = _two_blocks_and_five("heat", "point", 6, (4,), 43)
    for sample, step in plant:
        paths[sample, step, :] = np.nan
    with pytest.raises(NumericError) as whole:
        rollout_loss(Tape(), p, bank, grid, paths, incs)
    assert str(whole.value) == message
    with pytest.raises(NumericError) as blocked:
        rollout_values(p, bank, grid, paths, incs)
    assert str(blocked.value) == message
    with pytest.raises(NumericError) as oracle:
        oracle_rollout_loss(p, grid, paths, incs)
    assert str(oracle.value) == message


def test_rollout_values_memory_stays_bounded():
    # 100,000 paths of 41 states: one whole-batch pass peaked at 29.7 MB,
    # blocks of VALUE_BLOCK samples at 4.0 MB, 3.2 MB of it the four outputs
    p = get_problem("heat", 1)
    grid = make_uniform_grid(1.0, 40)
    bank = SubnetBank.create("point", "independent", 1, 40, seed=47)
    paths, incs = simulate_paths(p, grid, 100_000, RngStream(47))
    tracemalloc.start()
    try:
        rollout_values(p, bank, grid, paths, incs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6, f"traced peak {peak / 1e6:.1f} MB"


def test_shared_and_independent_agree_when_nets_identical():
    d, n = 2, 4
    shared = SubnetBank.create("box", "shared", d, n, hidden=(5, 5), seed=3)
    # copy the shared net into every slot of an independent bank
    indep = SubnetBank.create("box", "independent", d, n, hidden=(5, 5), seed=3)
    svec = flatten_params(shared)
    psi_and_one_phi = svec.size
    ivec = flatten_params(indep)
    psi_size = sum(w.size + b.size for w, b in shared.y0_net)
    phi_size = psi_and_one_phi - psi_size
    ivec[:psi_size] = svec[:psi_size]
    for k in range(n):
        ivec[psi_size + k * phi_size: psi_size + (k + 1) * phi_size] = svec[psi_size:]
    indep = unflatten_params(indep, ivec)

    p = get_problem("heat", d)
    grid = make_uniform_grid(1.0, n)
    paths, incs = simulate_paths(p, grid, 8, RngStream(1))
    a = rollout_values(p, shared, grid, paths, incs)
    b = rollout_values(p, indep, grid, paths, incs)
    assert np.array_equal(a.terminal_values, b.terminal_values)


def test_martingale_property():
    # f == 0 and frozen random networks: E[Y_T - Y_0] = 0
    p = get_problem("heat", 2)
    grid = make_uniform_grid(1.0, 8)
    bank = SubnetBank.create("box", "independent", 2, 8, hidden=(8, 8), seed=13)
    paths, incs = simulate_paths(p, grid, 100_000, RngStream(17))
    out = rollout_values(p, bank, grid, paths, incs)
    drift = out.terminal_values - out.y0_values
    se = drift.std(ddof=1) / np.sqrt(drift.size)
    assert abs(drift.mean()) < 4 * se


def test_oracle_rollout_heat_identity():
    # discretization error of the exact solution rollout: 8*d*T*dt
    p = get_problem("heat", 2, {"T": 1.0})
    grid = make_uniform_grid(1.0, 20)
    paths, incs = simulate_paths(p, grid, 20_000, RngStream(23))
    loss = oracle_rollout_loss(p, grid, paths, incs)
    assert loss == pytest.approx(0.8, rel=0.05)


def test_oracle_rollout_halves_with_n():
    p = get_problem("heat", 2, {"T": 1.0})
    losses = {}
    for n in (20, 40):
        grid = make_uniform_grid(1.0, n)
        paths, incs = simulate_paths(p, grid, 20_000, RngStream(29))
        losses[n] = oracle_rollout_loss(p, grid, paths, incs)
    ratio = losses[20] / losses[40]
    assert 1.8 <= ratio <= 2.2


def test_oracle_rollout_constant_solution():
    from deepbsde.problems import ExactSolution
    c = 2.5
    p = ProblemSpec(
        name="const", d=2, T=1.0, sigma=np.sqrt(2.0),
        f=None, g=lambda x: np.full(x.shape[0], c),
        xi=XiSampler.point_mass(np.zeros(2)),
        exact=ExactSolution(
            u=lambda t, x: np.full(x.shape[0], c),
            grad=lambda t, x: np.zeros_like(x),
        ),
    )
    grid = make_uniform_grid(1.0, 5)
    paths, incs = simulate_paths(p, grid, 256, RngStream(31))
    assert oracle_rollout_loss(p, grid, paths, incs) == 0.0


def test_oracle_rollout_requires_exact():
    p = get_problem("allen_cahn", 1)
    grid = make_uniform_grid(1.0, 4)
    paths, incs = simulate_paths(p, grid, 16, RngStream(1))
    with pytest.raises(ConfigError):
        oracle_rollout_loss(p, grid, paths, incs)


def test_estimate_u0_deterministic():
    bank = SubnetBank.create("point", "independent", 3, 4)
    vec = flatten_params(bank)
    vec[0] = 3.7
    bank = unflatten_params(bank, vec)
    mean, spread = estimate_u0(bank, get_problem("heat", 3), 100, RngStream(0))
    assert mean == 3.7
    assert spread == 0.0


def test_estimate_u0_rejects_fewer_than_one_draw_in_both_modes():
    # a point-start bank once returned its y0 with spread 0 over "0 draws"
    cases = (
        (SubnetBank.create("point", "independent", 2, 3), get_problem("heat", 2)),
        (SubnetBank.create("box", "independent", 2, 3, hidden=(4, 4), seed=0),
         get_problem("heat", 2, {"xi_mode": "box"})),
    )
    for bank, p in cases:
        for n_eval in (0, -5):
            with pytest.raises(ConfigError, match="n_eval must be an integer >= 1"):
                estimate_u0(bank, p, n_eval, RngStream(0))


@pytest.mark.parametrize("n_eval", [2.5, True])
def test_estimate_u0_checks_its_count(n_eval):
    # 2.5 once failed as a TypeError from numpy, and True drew one sample
    bank = SubnetBank.create("box", "independent", 2, 3, hidden=(4, 4), seed=0)
    p = get_problem("heat", 2, {"xi_mode": "box"})
    with pytest.raises(ConfigError, match="n_eval must be an integer >= 1"):
        estimate_u0(bank, p, n_eval, RngStream(0))


def test_estimate_u0_constant_network():
    p = get_problem("heat", 2, {"xi_mode": "box"})
    bank = SubnetBank.create("box", "independent", 2, 3, hidden=(4, 4), seed=0)
    vec = flatten_params(bank)
    vec[:] = 0.0
    bank = unflatten_params(bank, vec)
    bank.y0_net[-1][1][0] = -1.25
    mean, spread = estimate_u0(bank, p, 500, RngStream(3))
    assert mean == pytest.approx(-1.25, abs=1e-12)
    assert spread == pytest.approx(0.0, abs=1e-12)


def test_estimate_u0_affine_head_over_box():
    # head with hidden layers zeroed acts as a pure bias: mean is exact
    p = get_problem("heat", 2, {"xi_mode": "box", "box_low": (-1.0,), "box_high": (1.0,)})
    bank = SubnetBank.create("box", "independent", 2, 2, hidden=(4, 4), seed=0)
    vec = flatten_params(bank)
    vec[:] = 0.0
    bank = unflatten_params(bank, vec)
    bank.y0_net[-1][1][0] = 0.4
    n_eval = 40_000
    mean, _ = estimate_u0(bank, p, n_eval, RngStream(41))
    assert mean == pytest.approx(0.4, abs=1e-12)

    # an input-dependent head must reproduce the brute-force mean/spread
    # over the identical draw sequence
    from deepbsde.net import mlp_eval
    bank2 = SubnetBank.create("box", "independent", 2, 2, hidden=(4, 4), seed=9)
    mean2, spread2 = estimate_u0(bank2, p, n_eval, RngStream(41))
    draws = p.xi.sample_block(RngStream(41), 0, n_eval)
    want = mlp_eval(bank2.y0_net, bank2.activation, draws)[:, 0]
    assert mean2 == pytest.approx(want.mean(), abs=1e-12)
    assert spread2 == pytest.approx(want.std(), abs=1e-12)


def test_estimate_u0_rejects_bad_count():
    bank = SubnetBank.create("box", "independent", 2, 2, hidden=(4, 4))
    with pytest.raises(ConfigError):
        estimate_u0(bank, get_problem("heat", 2), 0, RngStream(0))


def test_bank_grid_mismatch_rejected():
    p = get_problem("heat", 2)
    grid = make_uniform_grid(1.0, 5)
    bank = SubnetBank.create("point", "independent", 2, 4)
    paths, incs = simulate_paths(p, grid, 4, RngStream(0))
    with pytest.raises(ConfigError):
        tape = Tape()
        rollout_loss(tape, p, bank, grid, paths, incs)


def test_grid_off_the_problem_horizon_rejected():
    # heat d=2 has T = 1; on paths over [0, 4] the rollouts once returned
    # losses of the wrong horizon with no error
    p = get_problem("heat", 2)
    grid = make_uniform_grid(4.0, 5)
    bank = SubnetBank.create("point", "independent", 2, 5)
    paths, incs = simulate_paths(p, grid, 4, RngStream(0))
    message = r"time grid ends at 4\.0, problem 'heat' has T = 1\.0"
    with pytest.raises(ConfigError, match=message):
        rollout_loss(Tape(), p, bank, grid, paths, incs)
    with pytest.raises(ConfigError, match=message):
        rollout_values(p, bank, grid, paths, incs)
    with pytest.raises(ConfigError, match=message):
        oracle_rollout_loss(p, grid, paths, incs)


def test_rollout_gradients_match_finite_differences():
    # small instance: d=2, N=3, narrow nets, batch 4
    p = get_problem("hjb", 2, {"lambda": 1.0})
    grid = make_uniform_grid(1.0, 3)
    template = SubnetBank.create("box", "independent", 2, 3, hidden=(4, 4), seed=19)
    paths, incs = simulate_paths(p, grid, 4, RngStream(37))
    theta = flatten_params(template)

    def loss_fn(vec):
        bank = unflatten_params(template, vec)
        return rollout_values(p, bank, grid, paths, incs).loss

    tape = Tape()
    result = rollout_loss(tape, p, template, grid, paths, incs)
    grads = backward(tape, result.loss)
    analytic = np.concatenate([grads[pid].ravel() for pid in tape.param_ids])
    assert analytic.size == param_count(template)
    fd = central_diff_grad(loss_fn, theta)
    assert max_rel_err(analytic, fd) < 1e-5


def test_rollout_gradients_deterministic_mode():
    p = get_problem("allen_cahn", 2)
    grid = make_uniform_grid(1.0, 3)
    template = SubnetBank.create("point", "independent", 2, 3, hidden=(4, 4), seed=2)
    paths, incs = simulate_paths(p, grid, 4, RngStream(3))
    theta = flatten_params(template)

    def loss_fn(vec):
        bank = unflatten_params(template, vec)
        return rollout_values(p, bank, grid, paths, incs).loss

    tape = Tape()
    result = rollout_loss(tape, p, template, grid, paths, incs)
    grads = backward(tape, result.loss)
    analytic = np.concatenate([grads[pid].ravel() for pid in tape.param_ids])
    fd = central_diff_grad(loss_fn, theta)
    assert max_rel_err(analytic, fd) < 1e-5


def test_shared_mode_gradients_accumulate_across_steps():
    p = get_problem("heat", 2)
    grid = make_uniform_grid(1.0, 4)
    template = SubnetBank.create("box", "shared", 2, 4, hidden=(4, 4), seed=8)
    paths, incs = simulate_paths(p, grid, 4, RngStream(9))
    theta = flatten_params(template)

    def loss_fn(vec):
        bank = unflatten_params(template, vec)
        return rollout_values(p, bank, grid, paths, incs).loss

    tape = Tape()
    result = rollout_loss(tape, p, template, grid, paths, incs)
    grads = backward(tape, result.loss)
    analytic = np.concatenate([grads[pid].ravel() for pid in tape.param_ids])
    assert analytic.size == param_count(template)
    fd = central_diff_grad(loss_fn, theta)
    assert max_rel_err(analytic, fd) < 1e-5


def _rollout_gradcheck(problem, template, grid, paths, incs):
    theta = flatten_params(template)

    def loss_fn(vec):
        bank = unflatten_params(template, vec)
        return rollout_values(problem, bank, grid, paths, incs).loss

    tape = Tape()
    result = rollout_loss(tape, problem, template, grid, paths, incs)
    grads = backward(tape, result.loss)
    analytic = np.concatenate([grads[pid].ravel() for pid in tape.param_ids])
    assert analytic.size == param_count(template)
    return max_rel_err(analytic, central_diff_grad(loss_fn, theta))


def test_rollout_gradients_through_driver_y_partial():
    # Allen-Cahn's f_y = 1 - 3y^2 carries ybar back through every step, and
    # the general start sends ybar_0 through the initial-value network
    p = get_problem("allen_cahn", 2, {"xi_mode": "box", "box_low": (-0.5,), "box_high": (0.5,)})
    grid = make_uniform_grid(1.0, 20)
    template = SubnetBank.create("box", "independent", 2, 20, hidden=(4, 4), seed=5)
    paths, incs = simulate_paths(p, grid, 4, RngStream(6))
    assert _rollout_gradcheck(p, template, grid, paths, incs) < 1e-5


def test_shared_relu_bank_gradients_match_finite_differences():
    p = get_problem("hjb", 2, {"lambda": 1.0})
    grid = make_uniform_grid(1.0, 4)
    template = SubnetBank.create("point", "shared", 2, 4, hidden=(5, 5),
                                 activation="relu", seed=12)
    paths, incs = simulate_paths(p, grid, 4, RngStream(13))
    assert _rollout_gradcheck(p, template, grid, paths, incs) < 1e-5
