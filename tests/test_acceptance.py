"""End-to-end acceptance checks.

One test per documented guarantee, each printing a single verdict line with
the measured numbers and asserting the stated tolerance plus its runtime
budget. Training-based checks use configurations tuned once and then frozen;
every randomized quantity runs from a fixed seed.
"""

import dataclasses
import time

import numpy as np

from conftest import bare_net, central_diff_grad, max_rel_err
from deepbsde.bsde import Tape, backward, oracle_rollout_loss, rollout_loss, rollout_values
from deepbsde.config import parse_config_text
from deepbsde.net import SubnetBank
from deepbsde.oracle import cole_hopf_mc, fd_semilinear_1d
from deepbsde.problems import get_problem, pde_residual
from deepbsde.sde import RngStream, _simulate_block, make_uniform_grid, simulate_paths
from deepbsde.train import run_train


def _verdict(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    return line


# 1. Exact-solution rollout on the heat problem isolates time-discretization
#    error, which has a closed form and halves with the step size.

def test_criterion_1_rollout_loss_identity():
    t0 = time.perf_counter()
    problem = get_problem("heat", 2, {})
    batch = 100_000

    losses = {}
    for n_steps, tag in ((20, 0), (40, 1)):
        grid = make_uniform_grid(1.0, n_steps)
        paths, incs = simulate_paths(problem, grid, batch, RngStream(1000 + tag))
        losses[n_steps] = oracle_rollout_loss(problem, grid, paths, incs)

    expected = 8.0 * 2 * 1.0 / 20  # 0.8
    rel = abs(losses[20] - expected) / expected
    ratio = losses[20] / losses[40]
    wall = time.perf_counter() - t0

    ok = rel < 0.05 and 1.8 <= ratio <= 2.2 and wall < 30.0
    line = _verdict(1, ok, f"loss={losses[20]:.5f} target={expected} rel={rel:.3%} "
                           f"halving_ratio={ratio:.3f} wall={wall:.1f}s")
    assert rel < 0.05, line
    assert 1.8 <= ratio <= 2.2, line
    assert wall < 30.0, line


# 2. Hand-derived gradients agree with central finite differences, both on
#    bare networks and through a complete nonlinear rollout.

def _mlp_gradcheck(activation, seed):
    from deepbsde.net import mlp_backward, mlp_eval

    stream = RngStream(seed)
    # a box bank's initial-value network over d=4 is a (4, 8, 8, 1) network
    # with Xavier weights drawn from stream (seed->0)
    net = SubnetBank.create("box", "independent", 4, 1, hidden=(8, 8),
                            activation=activation, seed=seed).y0_net
    x = stream.derive(1).normals(3 * 4).reshape(3, 4)
    target = stream.derive(2).normals(3).reshape(3, 1)

    flat0 = np.concatenate([arr.ravel() for layer in net for arr in layer])

    def rebuild(flat):
        weights, biases, offset = [], [], 0
        for w, b in net:
            weights.append(flat[offset:offset + w.size].reshape(w.shape))
            offset += w.size
            biases.append(flat[offset:offset + b.size])
            offset += b.size
        return bare_net(weights, biases)

    def loss_fn(flat):
        out = mlp_eval(rebuild(flat), activation, x)
        return float(np.mean((out - target) ** 2))

    saved = []
    out = mlp_eval(net, activation, x, saved)
    layers = mlp_backward(net, activation, saved, (2.0 / x.shape[0]) * (out - target))
    got = np.concatenate([arr.ravel() for layer in layers for arr in layer])

    fd = central_diff_grad(loss_fn, flat0)
    return max_rel_err(got, fd)


def test_criterion_2_gradient_suite():
    t0 = time.perf_counter()

    worst_mlp = max(_mlp_gradcheck("tanh", 7), _mlp_gradcheck("relu", 8))

    # full rollout: nonlinear driver, general start, d=2, three steps
    problem = get_problem("hjb", 2, {"lambda": 1.0, "xi_mode": "box",
                                     "box_low": (-0.5,), "box_high": (0.5,)})
    grid = make_uniform_grid(1.0, 3)
    bank = SubnetBank.create("box", "independent", 2, 3, hidden=(4, 4), seed=9)
    paths, incs = simulate_paths(problem, grid, 4, RngStream(10))

    from deepbsde.net import flatten_params, unflatten_params

    def rollout_loss_fn(flat):
        b = unflatten_params(bank, flat)
        return rollout_values(problem, b, grid, paths, incs).loss

    tape = Tape()
    result = rollout_loss(tape, problem, bank, grid, paths, incs)
    grads = backward(tape, result.loss)
    got = np.concatenate([grads[pid].ravel() for pid in tape.param_ids])
    fd = central_diff_grad(rollout_loss_fn, flatten_params(bank))
    worst_rollout = max_rel_err(got, fd)

    wall = time.perf_counter() - t0
    worst = max(worst_mlp, worst_rollout)
    ok = worst < 1e-5 and wall < 10.0
    line = _verdict(2, ok, f"max_rel_err mlp={worst_mlp:.2e} rollout={worst_rollout:.2e} "
                           f"wall={wall:.1f}s")
    assert worst < 1e-5, line
    assert wall < 10.0, line


# 3. Training on the heat problem must recover the known value u(0,0) = 2dT.

def test_criterion_3_linear_problem_training(tmp_path):
    t0 = time.perf_counter()
    cfg = parse_config_text("""
        problem = heat
        d = 10
        N = 20
        batch = 256
        iterations = 3000
        seed = 21
        optimizer = adam
        lr = 0.05
        sharing = shared
        activation = relu
        hidden = 32, 32
        eval_every = 500
        eval_samples = 512
    """)
    cfg = dataclasses.replace(cfg, output_dir=str(tmp_path / "heat"))
    final = run_train(cfg)
    wall = time.perf_counter() - t0

    rel = abs(final.y0 - 20.0) / 20.0
    ok = rel < 0.01 and wall < 300.0
    line = _verdict(3, ok, f"y0={final.y0:.5f} exact=20 rel={rel:.3%} "
                           f"iters={cfg.iterations} wall={wall:.1f}s")
    assert rel < 0.01, line
    assert wall < 300.0, line


# 4. Trained value for the d=20 control problem must match the one-shot
#    Monte Carlo reference within 2% plus the reference's own noise band.

def test_criterion_4_hjb_matches_control_oracle(tmp_path):
    t0 = time.perf_counter()
    problem = get_problem("hjb", 20, {"lambda": 1.0})
    ref = cole_hopf_mc(1.0, problem.g, np.zeros(20), 1.0, 1_000_000, RngStream(314))

    cfg = parse_config_text("""
        problem = hjb
        d = 20
        lambda = 1.0
        N = 20
        batch = 128
        iterations = 4000
        seed = 40
        optimizer = adam
        lr_values = 0.01, 0.003, 0.001, 0.0003
        lr_boundaries = 1000, 2200, 3200
        eval_every = 500
        eval_samples = 512
    """)
    cfg = dataclasses.replace(cfg, output_dir=str(tmp_path / "hjb"))
    final = run_train(cfg)
    wall = time.perf_counter() - t0

    err = abs(final.y0 - ref.value)
    tol = 0.02 * abs(ref.value) + 4.0 * ref.stderr
    ok = err <= tol and wall < 900.0
    line = _verdict(4, ok, f"y0={final.y0:.5f} mc={ref.value:.5f} stderr={ref.stderr:.2e} "
                           f"err={err:.4f} tol=0.02*|mc|+4se={tol:.4f} wall={wall:.1f}s")
    assert err <= tol, line
    assert wall < 900.0, line


# 5. d=1 semilinear problem against the finite-difference march at a grid
#    fine enough that one more refinement no longer moves the answer.

def test_criterion_5_allen_cahn_matches_fd(tmp_path):
    t0 = time.perf_counter()
    problem = get_problem("allen_cahn", 1, {})
    coarse = fd_semilinear_1d(problem, 0.0, nodes=400)
    fine = fd_semilinear_1d(problem, 0.0, nodes=800)
    grid_shift = abs(fine.value - coarse.value)

    cfg = parse_config_text("""
        problem = allen_cahn
        d = 1
        N = 40
        batch = 256
        iterations = 1500
        seed = 33
        optimizer = adam
        lr_values = 0.01, 0.003
        lr_boundaries = 1000
        eval_every = 500
        eval_samples = 512
    """)
    cfg = dataclasses.replace(cfg, output_dir=str(tmp_path / "ac"))
    final = run_train(cfg)
    wall = time.perf_counter() - t0

    err = abs(final.y0 - fine.value)
    ok = err < 5e-3 and grid_shift < 1e-4 and wall < 300.0
    line = _verdict(5, ok, f"y0={final.y0:.6f} fd={fine.value:.6f} err={err:.2e} "
                           f"refinement_shift={grid_shift:.1e} wall={wall:.1f}s")
    assert grid_shift < 1e-4, line  # the grid really is converged
    assert err < 5e-3, line
    assert wall < 300.0, line


# 6. With a zero driver the value process is a discrete martingale, so the
#    average terminal-minus-initial increment vanishes within noise.

def test_criterion_6_martingale_property():
    t0 = time.perf_counter()
    problem = get_problem("heat", 3, {})
    grid = make_uniform_grid(1.0, 20)
    bank = SubnetBank.create("box", "independent", 3, 20, hidden=(8, 8), seed=123)
    paths, incs = simulate_paths(problem, grid, 100_000, RngStream(77))
    out = rollout_values(problem, bank, grid, paths, incs)

    diff = out.terminal_values - out.y0_values
    mean = float(np.mean(diff))
    se = float(np.std(diff, ddof=1) / np.sqrt(diff.size))
    wall = time.perf_counter() - t0

    ok = abs(mean) < 4.0 * se
    line = _verdict(6, ok, f"mean={mean:.2e} 4se={4*se:.2e} paths={diff.size} "
                           f"wall={wall:.1f}s")
    assert abs(mean) < 4.0 * se, line


# 7. Same config and seed reproduce every artifact bit for bit (wall-clock
#    timing injected so elapsed columns agree too), and any slice of a batch
#    simulated on its own reproduces the same rows of the full batch.

def test_criterion_7_determinism(tmp_path):
    def fixed_clock():
        state = {"t": 0.0}

        def tick():
            state["t"] += 1.0
            return state["t"]

        return tick

    cfg_text = """
        problem = hjb
        d = 3
        lambda = 1.0
        N = 6
        batch = 16
        iterations = 40
        seed = 2
        eval_every = 10
        eval_samples = 128
    """
    outs = []
    for tag in ("a", "b"):
        cfg = parse_config_text(cfg_text)
        cfg = dataclasses.replace(cfg, output_dir=str(tmp_path / tag))
        run_train(cfg, clock=fixed_clock())
        outs.append(tmp_path / tag)

    same_metrics = (outs[0] / "metrics.csv").read_bytes() == (outs[1] / "metrics.csv").read_bytes()
    same_params = (outs[0] / "params.json").read_bytes() == (outs[1] / "params.json").read_bytes()

    problem = get_problem("heat", 3, {})
    grid = make_uniform_grid(1.0, 10)
    full_paths, full_incs = simulate_paths(problem, grid, 4001, RngStream(5))
    same_paths = True
    for lo, hi in ((0, 1001), (1001, 2002), (2002, 3003), (3003, 4001)):
        states, incs = _simulate_block(problem, grid, RngStream(5), lo, hi)
        same_paths = (same_paths and np.array_equal(states, full_paths[lo:hi])
                      and np.array_equal(incs, full_incs[lo:hi]))

    ok = same_metrics and same_params and same_paths
    line = _verdict(7, ok, f"metrics_identical={same_metrics} "
                           f"archives_identical={same_params} "
                           f"slice_paths_identical={same_paths}")
    assert same_metrics, line
    assert same_params, line
    assert same_paths, line


# 8. The closed-form heat solution satisfies the PDE: finite-difference
#    residuals at random interior points are at rounding scale.

def test_criterion_8_pde_residual_audit():
    t0 = time.perf_counter()
    problem = get_problem("heat", 3, {})
    stream = RngStream(55)
    ts = 0.05 + 0.9 * stream.derive(0).uniforms(50)
    xs = 2.0 * stream.derive(1).normals(50 * 3).reshape(50, 3)

    worst = max(abs(pde_residual(problem, float(t), x)) for t, x in zip(ts, xs))
    wall = time.perf_counter() - t0

    ok = worst < 1e-4
    line = _verdict(8, ok, f"max_residual={worst:.2e} points=50 wall={wall:.1f}s")
    assert worst < 1e-4, line
