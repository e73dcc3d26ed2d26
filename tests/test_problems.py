import math

import numpy as np
import pytest

from deepbsde.errors import ConfigError
from deepbsde.problems import (
    ProblemSpec,
    XiSampler,
    exact_eval,
    get_problem,
    pde_residual,
    sample_xi,
)
from deepbsde.sde import RngStream


def test_heat_value_at_origin():
    p = get_problem("heat", 2, {"T": 1.0})
    value, grad = exact_eval(p, 0.0, np.zeros(2))
    assert value == pytest.approx(4.0, abs=1e-12)  # 2*d*T
    assert np.allclose(grad, 0.0, atol=1e-12)


def test_heat_has_zero_driver():
    p = get_problem("heat", 3)
    assert p.f is None


def test_hjb_driver_value():
    p = get_problem("hjb", 2, {"lambda": 1.0})
    z = np.array([[1.0, 1.0]])
    out = np.asarray(p.f(0.0, np.zeros((1, 2)), np.zeros((1, 1)), z))
    assert out.shape == (1, 1)
    # -(lambda / 2) |z|^2, i.e. -lambda |grad u|^2 with z = sqrt(2) grad u
    assert out[0, 0] == pytest.approx(-1.0, abs=1e-14)


def test_allen_cahn_driver_value():
    p = get_problem("allen_cahn", 1)
    y = np.array([[2.0]])
    out = np.asarray(p.f(0.0, np.zeros((1, 1)), y, np.zeros((1, 1))))
    assert out[0, 0] == pytest.approx(-6.0, abs=1e-14)  # 2 - 8


@pytest.mark.parametrize("name", ["hjb", "allen_cahn"])
def test_driver_partials_match_central_differences(name):
    d, h = 3, 1e-6
    p = get_problem(name, d, {"lambda": 0.7} if name == "hjb" else {})
    rng = np.random.default_rng(4)
    x = rng.standard_normal((5, d))
    y = rng.standard_normal((5, 1))
    z = rng.standard_normal((5, d))
    f_y, f_z = p.df(0.3, x, y, z)
    want_y = (p.f(0.3, x, y + h, z) - p.f(0.3, x, y - h, z)) / (2.0 * h)
    want_z = np.empty((5, d))
    for i in range(d):
        e = np.zeros(d)
        e[i] = h
        want_z[:, i] = ((p.f(0.3, x, y, z + e) - p.f(0.3, x, y, z - e)) / (2.0 * h))[:, 0]
    assert np.allclose(np.broadcast_to(f_y, (5, 1)), want_y, rtol=1e-7, atol=1e-8)
    assert np.allclose(np.broadcast_to(f_z, (5, d)), want_z, rtol=1e-7, atol=1e-8)


def test_driver_without_partials_rejected():
    with pytest.raises(ConfigError, match="df"):
        ProblemSpec(
            name="custom", d=1, T=1.0, sigma=1.0,
            f=lambda t, x, y, z: y, g=lambda x: x[:, 0],
            xi=XiSampler.point_mass(np.zeros(1)),
        )


@pytest.mark.parametrize("sigma, fragment", [
    (float("nan"), "'sigma' must be a finite number"),
    (float("inf"), "'sigma' must be a finite number"),
    ("1.0", "'sigma' must be a finite number"),
    (-0.5, "'sigma' must not be negative"),
], ids=["nan", "inf", "string", "negative"])
def test_problem_rejects_a_bad_sigma(sigma, fragment):
    with pytest.raises(ConfigError, match=fragment):
        ProblemSpec(
            name="custom", d=1, T=1.0, sigma=sigma, f=None, g=lambda x: x[:, 0],
            xi=XiSampler.point_mass(np.zeros(1)),
        )


def test_allen_cahn_terminal_shape():
    p = get_problem("allen_cahn", 4)
    g0 = p.g(np.zeros((1, 4)))
    assert float(g0[0]) == pytest.approx(0.5, abs=1e-15)


def test_hjb_terminal_at_origin():
    p = get_problem("hjb", 5)
    g0 = p.g(np.zeros((1, 5)))
    assert float(g0[0]) == pytest.approx(np.log(0.5), abs=1e-15)


def test_exact_eval_terminal_consistency():
    p = get_problem("heat", 3, {"T": 0.8})
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = rng.standard_normal(3) * 2.0
        value, grad = exact_eval(p, 0.8, x)
        assert abs(value - float(p.g(x[None, :])[0])) < 1e-9
        assert np.allclose(grad, 2.0 * x, atol=1e-12)


def test_exact_eval_heat_1d():
    p = get_problem("heat", 1, {"T": 1.0})
    value, grad = exact_eval(p, 0.0, np.zeros(1))
    assert value == pytest.approx(2.0, abs=1e-12)
    assert grad[0] == 0.0


def test_exact_gradient_matches_finite_differences():
    p = get_problem("heat", 4, {"T": 1.3})
    rng = np.random.default_rng(7)
    for _ in range(10):
        t = rng.uniform(0, 1.3)
        x = rng.standard_normal(4)
        _, grad = exact_eval(p, t, x)
        h = 1e-6
        for k in range(4):
            up = x.copy(); up[k] += h
            dn = x.copy(); dn[k] -= h
            fd = (exact_eval(p, t, up)[0] - exact_eval(p, t, dn)[0]) / (2 * h)
            assert abs(grad[k] - fd) < 1e-7


def test_exact_eval_absent_raises():
    p = get_problem("hjb", 2)
    with pytest.raises(ConfigError):
        exact_eval(p, 0.0, np.zeros(2))


def test_pde_residual_audit_heat():
    p = get_problem("heat", 3, {"T": 1.0})
    rng = np.random.default_rng(5)
    for _ in range(50):
        t = rng.uniform(0.05, 0.95)
        x = rng.standard_normal(3)
        assert abs(pde_residual(p, t, x)) < 1e-4


def test_sample_xi_point_mass_replicates():
    p = get_problem("heat", 3, {"xi0": (1.0, 1.0, 1.0)})
    draws = sample_xi(p, 8, RngStream(1))
    assert np.array_equal(draws, np.ones((8, 3)))


def test_sample_xi_box_statistics():
    p = get_problem("heat", 2, {"xi_mode": "box", "box_low": (-1.0,), "box_high": (1.0,)})
    draws = sample_xi(p, 100_000, RngStream(4))
    # uniform on [-1,1]: sd = sqrt(1/3), se of mean = sd/sqrt(n)
    se = np.sqrt(1.0 / 3.0) / np.sqrt(draws.shape[0])
    for k in range(2):
        assert abs(draws[:, k].mean()) < 4 * se
    assert draws.min() >= -1.0
    assert draws.max() <= 1.0


def test_degenerate_box_is_point_mass():
    p = get_problem("heat", 2, {"xi_mode": "box", "box_low": (0.3,), "box_high": (0.3,)})
    draws = sample_xi(p, 16, RngStream(9))
    assert np.array_equal(draws, np.full((16, 2), 0.3))


def test_get_problem_rejects_unknown_name():
    with pytest.raises(ConfigError) as err:
        get_problem("wave", 2)
    assert "heat" in str(err.value)


def test_get_problem_rejects_unknown_override():
    with pytest.raises(ConfigError) as err:
        get_problem("heat", 2, {"momentum_rate": 1.0})
    assert "momentum_rate" in str(err.value)
    assert "T" in str(err.value)  # lists accepted keys


def test_lambda_only_valid_for_hjb():
    with pytest.raises(ConfigError):
        get_problem("heat", 2, {"lambda": 0.5})
    with pytest.raises(ConfigError):
        get_problem("hjb", 2, {"lambda": -1.0})


@pytest.mark.parametrize("name, overrides, key", [
    ("heat", {"T": "abc"}, "T"),
    ("heat", {"T": True}, "T"),
    ("heat", {"T": None}, "T"),
    ("heat", {"T": float("nan")}, "T"),
    ("hjb", {"lambda": float("inf")}, "lambda"),
    ("heat", {"xi0": [float("-inf"), 0.0]}, "xi0"),
    ("hjb", {"lambda": "1.0"}, "lambda"),
    ("hjb", {"lambda": False}, "lambda"),
    ("heat", {"xi0": ["x", 1]}, "xi0"),
    ("heat", {"xi0": [True, 1.0]}, "xi0"),
    ("heat", {"xi_mode": "box", "box_low": "-1"}, "box_low"),
    ("heat", {"xi_mode": "box", "box_high": [1.0, np.True_]}, "box_high"),
])
def test_get_problem_rejects_non_numeric_settings(name, overrides, key):
    with pytest.raises(ConfigError, match=f"'{key}' must be a finite number"):
        get_problem(name, 2, overrides)


def test_get_problem_accepts_numpy_numbers():
    p = get_problem("heat", 2, {"T": np.float64(0.5), "xi0": np.array([1, 2])})
    assert p.T == 0.5
    assert np.array_equal(p.xi.point, [1.0, 2.0])


def test_dimension_validated():
    # -1 once reached numpy's "negative dimensions" ValueError in as_vector
    for d in (0, -1):
        with pytest.raises(ConfigError, match="dimension must be at least 1"):
            get_problem("heat", d)


def test_builtin_sigma_is_sqrt2():
    for name in ("heat", "hjb", "allen_cahn"):
        p = get_problem(name, 3)
        assert p.sigma == math.sqrt(2.0)
