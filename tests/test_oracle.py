import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import deepbsde
from deepbsde.errors import ConfigError, NumericError
from deepbsde.oracle import cole_hopf_mc, fd_semilinear_1d, mc_feynman_kac
from deepbsde.problems import ProblemSpec, XiSampler, get_problem
from deepbsde.sde import RngStream, make_uniform_grid


def _linear_free_problem(d=1, g=None):
    return ProblemSpec(
        name="custom", d=d, T=1.0, sigma=1.0,
        f=None, g=g or (lambda x: x[:, 0]),
        xi=XiSampler.point_mass(np.zeros(d)), exact=None,
    )


# -- Feynman-Kac Monte Carlo --------------------------------------------------

def test_fk_constant_terminal_is_exact():
    p = _linear_free_problem(g=lambda x: np.ones(x.shape[0]))
    est = mc_feynman_kac(p, np.zeros(1), 500, make_uniform_grid(1.0, 4), RngStream(1))
    assert est.value == 1.0
    assert est.stderr == 0.0


def test_fk_heat_value():
    p = get_problem("heat", 2, {"T": 1.0})
    est = mc_feynman_kac(p, np.zeros(2), 100_000, make_uniform_grid(1.0, 20), RngStream(2))
    assert abs(est.value - 4.0) < 4 * est.stderr
    assert est.stderr < 0.05


def test_fk_martingale_symmetry():
    p = _linear_free_problem(g=lambda x: x[:, 0])
    est = mc_feynman_kac(p, np.zeros(1), 50_000, make_uniform_grid(1.0, 10), RngStream(3))
    assert abs(est.value) < 4 * est.stderr


def test_fk_is_the_mean_over_exact_terminal_draws():
    # X_T = x0 + s sqrt(T) Z exactly, whatever the grid's steps; 40,000 rows
    # span three draw chunks at d = 2
    p = get_problem("heat", 2, {"T": 0.5})
    x0, n = np.array([0.3, -1.2]), 40_000
    est = mc_feynman_kac(p, x0, n, make_uniform_grid(0.5, 7), RngStream(11))
    z = RngStream(11).normals(n * 2).reshape(n, 2)
    assert est.value == float(np.mean(p.g(x0 + p.sigma * math.sqrt(0.5) * z)))


def test_fk_rejects_nonzero_driver():
    p = get_problem("allen_cahn", 1)
    with pytest.raises(ConfigError):
        mc_feynman_kac(p, np.zeros(1), 1000, make_uniform_grid(1.0, 4), RngStream(0))


def test_fk_rejects_a_grid_off_the_problem_horizon():
    # heat d=2, T=1 has u(0, 0) = 4; a grid ending at 4 once gave about 16
    p = get_problem("heat", 2)
    with pytest.raises(ConfigError, match=r"time grid ends at 4\.0, problem 'heat' has T = 1\.0"):
        mc_feynman_kac(p, np.zeros(2), 1000, make_uniform_grid(4.0, 4), RngStream(0))


def test_fk_rejects_tiny_sample():
    p = get_problem("heat", 1)
    # 1000.0 and the numpy float once raised TypeError
    for n_samples in (50, 1000.0, np.float64(1000.0), True):
        with pytest.raises(ConfigError, match="n_samples must be an integer >= 100"):
            mc_feynman_kac(p, np.zeros(1), n_samples, make_uniform_grid(1.0, 4), RngStream(0))


def test_fk_deterministic_given_seed():
    p = get_problem("heat", 2)
    grid = make_uniform_grid(1.0, 8)
    a = mc_feynman_kac(p, np.zeros(2), 2000, grid, RngStream(42))
    b = mc_feynman_kac(p, np.zeros(2), 2000, grid, RngStream(42))
    assert a.value == b.value
    assert a.stderr == b.stderr


def test_fk_honest_error_bars():
    # slow statistical audit: the 4-sigma band covers the truth >= 95/100 times
    p = get_problem("heat", 2, {"T": 1.0})
    grid = make_uniform_grid(1.0, 10)
    hits = 0
    for rep in range(100):
        est = mc_feynman_kac(p, np.zeros(2), 2000, grid, RngStream(1000 + rep))
        if abs(est.value - 4.0) < 4 * est.stderr:
            hits += 1
    assert hits >= 95


# -- Cole-Hopf Monte Carlo ----------------------------------------------------

def test_cole_hopf_constant_terminal():
    c = 1.7
    est = cole_hopf_mc(2.0, lambda x: np.full(x.shape[0], c), np.zeros(3), 1.0,
                       1000, RngStream(5))
    assert est.value == pytest.approx(c, abs=1e-12)
    assert est.stderr == pytest.approx(0.0, abs=1e-12)


def test_cole_hopf_small_lambda_limit():
    # lambda -> 0 recovers the plain expectation E[g(x0 + sqrt(2T) Z)] = 2
    est = cole_hopf_mc(1e-8, lambda x: x[:, 0] ** 2, np.zeros(1), 1.0,
                       200_000, RngStream(6))
    assert abs(est.value - 2.0) < 4 * est.stderr + 1e-4
    assert est.stderr < 0.02


def test_cole_hopf_monotone_in_lambda():
    g = lambda x: np.log(0.5 * (1.0 + np.sum(x * x, axis=1)))
    values = []
    for lam in (0.25, 1.0, 4.0):
        est = cole_hopf_mc(lam, g, np.zeros(4), 1.0, 100_000, RngStream(7))
        values.append(est.value)
    assert values[0] > values[1] > values[2]


def test_cole_hopf_jensen_direction():
    # same draw sequence: log-mean-exp bound is a samplewise inequality
    lam, n, d, T = 1.0, 100_000, 2, 1.0
    g = lambda x: np.sum(x * x, axis=1)
    est = cole_hopf_mc(lam, g, np.zeros(d), T, n, RngStream(8))
    z = RngStream(8).normals(n * d).reshape(n, d)
    plain_mean = g(np.zeros(d) + np.sqrt(2.0 * T) * z).mean()
    assert est.value <= plain_mean


def test_cole_hopf_survives_large_lambda():
    # max-shift keeps the log-mean-exp finite where naive exp overflows
    g = lambda x: np.sum(x * x, axis=1)
    est = cole_hopf_mc(1e6, g, np.zeros(2), 1.0, 1000, RngStream(9))
    assert np.isfinite(est.value)
    assert est.value >= 0.0


def test_cole_hopf_validation():
    g = lambda x: x[:, 0]
    with pytest.raises(ConfigError):
        cole_hopf_mc(0.0, g, np.zeros(1), 1.0, 1000, RngStream(0))
    with pytest.raises(ConfigError):
        cole_hopf_mc(1.0, g, np.zeros(1), 1.0, 50, RngStream(0))
    with pytest.raises(ConfigError):
        cole_hopf_mc(1.0, g, np.zeros(1), -1.0, 1000, RngStream(0))


@pytest.mark.parametrize("setting, message", [
    ({"lam": float("nan")}, "'lambda' must be a finite number"),
    ({"lam": float("inf")}, "'lambda' must be a finite number"),
    ({"horizon": float("nan")}, "'horizon' must be a finite number"),
    ({"horizon": float("inf")}, "'horizon' must be a finite number"),
    ({"x0": [0.0, float("nan")]}, "'x0' must be a finite number"),
    ({"n_samples": 1000.0}, "n_samples must be an integer >= 100"),
], ids=["nan-lambda", "inf-lambda", "nan-horizon", "inf-horizon", "nan-x0", "float-samples"])
def test_cole_hopf_rejects_non_finite_settings(setting, message):
    # the non-finite ones once passed the <= 0 checks and ended in a
    # NumericError on the terminal values, the exit-3 class, not as a bad
    # setting; the float count raised TypeError
    args = {"lam": 1.0, "x0": np.zeros(1), "horizon": 1.0, "n_samples": 1000} | setting
    with pytest.raises(ConfigError, match=message):
        cole_hopf_mc(g=lambda x: x[:, 0], stream=RngStream(0), **args)


# chunks of 4,681 rows at d=7 hold an odd count of normals (32,767), so
# every other chunk starts on the sine of a pair; 56,175 samples make 13
# chunks, the last of three rows, enough for three workers
_D, _N = 7, 56_175


def _carrying_stream():
    s = RngStream(83)
    s.normals(5)  # leaves a carry
    return s


def _seven_d_problem():
    return get_problem("heat", _D, {"T": 0.7})


@pytest.mark.parametrize("n", [_N, _N + 1], ids=["odd", "even"])
@pytest.mark.parametrize("route", ["cole_hopf", "feynman_kac"])
def test_monte_carlo_is_the_same_on_one_worker_and_on_several(workers, route, n):
    def run():
        stream = _carrying_stream()
        p = _seven_d_problem()
        if route == "cole_hopf":
            est = cole_hopf_mc(0.5, p.g, np.full(_D, 0.1), 0.7, n, stream)
        else:
            est = mc_feynman_kac(p, np.full(_D, 0.1), n, make_uniform_grid(0.7, 3), stream)
        return est, stream.counter, stream._cached_normal

    workers(1)
    one = run()
    started = workers(3)
    several = run()
    assert len(started) == 2
    assert several == one
    # the stream is left where drawing all the normals at once leaves it:
    # past the carry, an odd count sets a new one and an even count none
    plain = _carrying_stream()
    plain.normals(_D * n)
    assert one[1:] == (plain.counter, plain._cached_normal)
    assert (one[2] is None) == (n % 2 == 1)


def test_monte_carlo_reads_the_streams_next_normals(workers):
    # the estimate is that of the plain sequence the stream hands out
    workers(3)
    p = _seven_d_problem()
    scale = p.sigma * math.sqrt(p.T)
    est = mc_feynman_kac(p, np.zeros(7), _N, make_uniform_grid(0.7, 3), _carrying_stream())
    z = _carrying_stream().normals(_D * _N).reshape(_N, _D)
    assert est.value == float(np.mean(p.g(scale * z)))


def test_a_worker_error_is_the_serial_one(workers):
    # g fails on a chunk with a far point: from stream 14 these are chunks
    # 4 and 8, which three workers take in their second and third spans;
    # chunk 4's error is raised on any number of workers
    chunks = []

    def g(x):
        far = np.flatnonzero(np.abs(x).max(axis=1) > 4.5 * math.sqrt(2.0))
        if far.size:
            chunks.append(x.shape[0])
            raise ValueError(f"far point {x[far[0], 0]!r}")
        return x[:, 0]

    messages = []
    for k in (1, 3):
        workers(k)
        chunks.clear()
        with pytest.raises(ValueError) as caught:
            cole_hopf_mc(1.0, g, np.zeros(_D), 1.0, _N, RngStream(14))
        messages.append((str(caught.value), len(chunks)))
    # the serial loop stops at chunk 4; the third span fails on its own too
    assert messages[0][0] == messages[1][0]
    assert (messages[0][1], messages[1][1]) == (1, 2)


def test_workers_keep_the_callers_numpy_error_state(workers):
    # an overflow in a worker's g raises under the caller's errstate, where
    # it would warn and end as a non-finite value in a fresh one
    workers(3)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        cole_hopf_mc(1.0, lambda x: np.exp(400.0 * x[:, 0]), np.zeros(7), 1.0, _N,
                     RngStream(2))


def test_cole_hopf_rejects_a_ragged_start():
    # it once failed in numpy's np.size with ValueError
    with pytest.raises(ConfigError, match="'x0' must be a finite number"):
        cole_hopf_mc(1.0, lambda x: x[:, 0], [[0.0], [1.0, 2.0]], 1.0, 1000, RngStream(0))


def test_monte_carlo_values_pinned():
    # normal-derived, so pinned like the normal digests in test_sde.py
    hjb = get_problem("hjb", 100)
    est = cole_hopf_mc(1.0, hjb.g, np.zeros(100), hjb.T, 100_000, RngStream(8))
    assert (est.value, est.stderr) == (4.590284645215624, 0.00045456707604565053)
    heat = get_problem("heat", 1)
    est = mc_feynman_kac(heat, np.zeros(1), 10_000, make_uniform_grid(heat.T, 10), RngStream(6))
    assert (est.value, est.stderr) == (2.0295000622353867, 0.02939556854493767)


# -- 1-D finite differences ---------------------------------------------------

def test_fd_linear_terminal_is_exact():
    # u(t,x) = x solves the driverless PDE: curvature-free
    p = _linear_free_problem(g=lambda x: x[:, 0])
    est = fd_semilinear_1d(p, x0=0.3, nodes=200, time_steps=400)
    assert abs(est.value - 0.3) < 1e-10


def test_fd_constant_terminal_is_exact():
    p = _linear_free_problem(g=lambda x: np.full(x.shape[0], 2.25))
    est = fd_semilinear_1d(p, x0=-0.7, nodes=100, time_steps=200)
    assert abs(est.value - 2.25) < 1e-10


def test_fd_allen_cahn_constant_data_matches_ode():
    # spatially flat data reduces the PDE to u' = -(u - u^3); integrate the
    # backward ODE with RK4 at high resolution as an independent oracle
    c = 0.5
    p = ProblemSpec(
        name="ac_flat", d=1, T=1.0, sigma=np.sqrt(2.0),
        f=lambda t, x, y, z: y - y * y * y,
        g=lambda x: np.full(x.shape[0], c),
        xi=XiSampler.point_mass(np.zeros(1)), exact=None,
        df=lambda t, x, y, z: (1.0 - 3.0 * y * y, 0.0),
    )

    def rk4_backward(vT, steps):
        # v(s) = u(T - s) satisfies dv/ds = v - v^3
        h = 1.0 / steps
        v = vT
        for _ in range(steps):
            k1 = v - v ** 3
            v2 = v + 0.5 * h * k1
            k2 = v2 - v2 ** 3
            v3 = v + 0.5 * h * k2
            k3 = v3 - v3 ** 3
            v4 = v + h * k3
            k4 = v4 - v4 ** 3
            v = v + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        return v

    want = rk4_backward(c, 4000)
    est = fd_semilinear_1d(p, x0=0.0, nodes=8, time_steps=1_000)
    assert abs(est.value - want) < 1e-6


def test_fd_grid_convergence():
    # with the default K = M coupling both mesh widths halve together, and
    # the march is second order in each: successive changes shrink by about 4
    p = get_problem("allen_cahn", 1)
    values = [fd_semilinear_1d(p, x0=0.0, nodes=m).value for m in (100, 200, 400)]
    first = abs(values[1] - values[0])
    second = abs(values[2] - values[1])
    assert second > 0
    assert first / second >= 3.0


def test_fd_extrapolated_march_is_second_order_in_time():
    # on a fixed spatial grid, 2 u_2K - u_K cancels the O(dt) error of the
    # explicit driver: successive changes shrink by about 4, not 2
    p = get_problem("hjb", 1, {"lambda": 1.0})
    values = [fd_semilinear_1d(p, x0=0.0, nodes=100, time_steps=k).value
              for k in (25, 50, 100, 200)]
    changes = np.diff(values)
    ratios = changes[:-1] / changes[1:]
    assert np.all((ratios > 3.5) & (ratios < 4.5)), ratios


def test_fd_default_steps_keep_a_gradient_driver_stable():
    # hjb's f_z = -lambda z makes the explicit z-term stable only for
    # dt f_z^2 <= 1, whatever dx is; K = M alone blew up here at step 20
    p = get_problem("hjb", 1, {"lambda": 20.0})
    est = fd_semilinear_1d(p, x0=0.0, nodes=100)
    assert est.info["time_steps"] > 100
    finer = fd_semilinear_1d(p, x0=0.0, nodes=100, time_steps=2 * est.info["time_steps"])
    assert abs(est.value - finer.value) < 1e-4


@pytest.mark.parametrize("half_width", [float("nan"), float("inf"), -1.0, 0.0, "2"])
def test_fd_rejects_a_bad_half_width_before_marching(half_width):
    p = get_problem("allen_cahn", 1)
    with pytest.raises(ConfigError, match="half_width must be positive and finite"):
        fd_semilinear_1d(p, x0=0.0, half_width=half_width, nodes=100, time_steps=10)


@pytest.mark.parametrize("setting, message", [
    ({"nodes": 50.5}, "nodes must be an integer >= 8"),
    ({"nodes": float("nan")}, "nodes must be an integer >= 8"),
    ({"nodes": 7}, "nodes must be an integer >= 8"),
    ({"time_steps": 2.5}, "time_steps must be an integer >= 1"),
    ({"time_steps": 0}, "time_steps must be an integer >= 1"),
    ({"x0": float("nan")}, "'x0' must be a finite number"),
    ({"x0": [0.1, 5.0]}, "'x0' needs 1 entry, got 2"),
], ids=["fractional-nodes", "nan-nodes", "seven-nodes", "fractional-steps", "zero-steps",
        "nan-x0", "two-entry-x0"])
def test_fd_checks_its_counts_and_start(setting, message):
    # 50.5 nodes once marched 50, a fractional step count raised TypeError,
    # a NaN start ended in NumericError and [0.1, 5.0] silently read 0.1
    args = {"x0": 0.0, "nodes": 50, "time_steps": 10} | setting
    with pytest.raises(ConfigError, match=message) as caught:
        fd_semilinear_1d(get_problem("allen_cahn", 1), **args)
    # x0 is an argument, not a config override
    assert "override" not in str(caught.value)


def test_fd_interpolates_at_x0():
    p = get_problem("allen_cahn", 1)
    a = fd_semilinear_1d(p, x0=0.0, nodes=300)
    b = fd_semilinear_1d(p, x0=0.01, nodes=300)
    assert abs(a.value - b.value) < 5e-3
    assert a.info["nodes"] == 300
    # the default K is exactly the node count at the default half width
    assert a.info["time_steps"] == 300


def test_fd_rejects_multidimensional_problems():
    p = get_problem("allen_cahn", 2)
    with pytest.raises(ConfigError):
        fd_semilinear_1d(p, x0=0.0)


@pytest.mark.parametrize("name, params, want", [
    ("allen_cahn", {}, "0.754019847431799"),
    ("hjb", {"lambda": 1.0}, "-0.08668467383845425"),
], ids=["allen_cahn", "hjb"])
def test_fd_values_pinned_bitwise(name, params, want):
    # 2 u_2K - u_K at the default K = 100: a change to the arithmetic of a
    # step, to the default K or to the extrapolation shows up here
    est = fd_semilinear_1d(get_problem(name, 1, params), x0=0.0, nodes=100)
    assert repr(est.value) == want


def test_fd_non_finite_driver_names_the_step():
    # t_old = 1 - j / 100 drops below 0.5 first at step 51
    p = ProblemSpec(
        name="blowup", d=1, T=1.0, sigma=1.0,
        f=lambda t, x, y, z: np.full(x.shape[0], np.inf if t < 0.5 else 0.0),
        g=lambda x: x[:, 0], xi=XiSampler.point_mass(np.zeros(1)), exact=None,
        df=lambda t, x, y, z: (np.zeros_like(y), np.zeros_like(z)),
    )
    with pytest.raises(NumericError, match="non-finite values at time step 51$"):
        fd_semilinear_1d(p, x0=0.0, nodes=50, time_steps=100)


def test_oracle_estimates_carry_metadata():
    p = get_problem("heat", 1)
    est = mc_feynman_kac(p, np.zeros(1), 1000, make_uniform_grid(1.0, 5), RngStream(1))
    assert est.info["samples"] == 1000
    est2 = fd_semilinear_1d(get_problem("allen_cahn", 1), x0=0.0, nodes=50, time_steps=100)
    assert est2.info["time_steps"] == 100
    assert est2.stderr == 0.0


def test_only_the_finite_difference_route_loads_scipy_linalg(tmp_path):
    # this session has scipy loaded already, so a fresh child process
    # watches what the package, an MC oracle, training and the FD march load
    package_root = str(Path(deepbsde.__file__).resolve().parent.parent)
    config = "\n".join(["problem = heat", "d = 2", "N = 4", "batch = 8", "iterations = 2",
                        "seed = 1", "eval_samples = 64", f"output_dir = {tmp_path}", ""])
    code = """
import sys
sys.path.insert(0, sys.argv[1])
import numpy as np
import deepbsde
print("scipy.linalg" in sys.modules)
hjb = deepbsde.get_problem("hjb", 2)
deepbsde.cole_hopf_mc(1.0, hjb.g, np.zeros(2), hjb.T, 1000, deepbsde.RngStream(1))
deepbsde.run_train(deepbsde.parse_config_text(sys.argv[2]))
print("scipy.linalg" in sys.modules)
deepbsde.fd_semilinear_1d(deepbsde.get_problem("allen_cahn", 1), np.zeros(1), nodes=16)
print("scipy.linalg" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", code, package_root, config],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    # after import, after an MC oracle and training, after the FD march
    assert proc.stdout.split() == ["False", "False", "True"]
    assert (tmp_path / "params.json").exists()
