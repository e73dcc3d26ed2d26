"""Independent reference solvers used to validate trained values.

None of these touch networks, tapes, or the rollout code: the Monte Carlo
routes ride on plain path simulation and closed-form reductions, and the 1-D
route is a finite-difference march. Agreement between a trained value and an
oracle is therefore evidence, not circularity.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgttrf as gttrf, dgttrs as gttrs

from .errors import ConfigError, NumericError
from .problems import with_point_start
from .sde import PASS_SIZE, simulate_paths

_MIN_SAMPLES = 100


@dataclass(frozen=True)
class OracleEstimate:
    """Point estimate, its standard error (0 for deterministic routes), and
    provenance metadata (sample counts or grid sizes)."""

    value: float
    stderr: float
    info: dict


def mc_feynman_kac(problem, x0, n_samples, grid, stream):
    """Plain Monte Carlo average of g over simulated paths from x0.

    Valid only for a zero driver (f is None): with a driver the average of g
    no longer represents the solution, so that misuse is rejected.
    """
    if problem.f is not None:
        raise ConfigError(
            f"problem '{problem.name}' has a nonzero driver; this estimator applies only to f == 0"
        )
    if n_samples < _MIN_SAMPLES:
        raise ConfigError(f"need at least {_MIN_SAMPLES} samples, got {n_samples}")
    restarted = with_point_start(problem, x0)
    paths, _ = simulate_paths(restarted, grid, n_samples, stream)
    values = np.asarray(problem.g(paths.states[:, -1, :]), dtype=np.float64).reshape(n_samples)
    if not np.all(np.isfinite(values)):
        raise NumericError("non-finite terminal values in Monte Carlo average")
    value = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / math.sqrt(n_samples))
    return OracleEstimate(value=value, stderr=stderr,
                          info={"samples": int(n_samples), "time_steps": grid.num_steps})


def cole_hopf_mc(lam, g, x0, horizon, n_samples, stream):
    """One-shot Monte Carlo for the quadratic-cost control problem.

    For zero drift, sigma = sqrt(2) I and driver -(lam/2) |z|^2, that is
    u_t + Lap u - lam |grad u|^2 = 0, the solution at (0, x0) reduces to
    -(1/lam) log E[exp(-lam g(x0 + sqrt(2) W_T))], which needs only terminal
    Brownian draws. The log-average is computed with the max subtracted for
    overflow safety, and the standard error comes from the delta method on
    the exponential average.
    """
    if lam <= 0.0:
        raise ConfigError(f"lambda must be positive, got {lam}")
    if horizon <= 0.0:
        raise ConfigError(f"horizon must be positive, got {horizon}")
    if n_samples < _MIN_SAMPLES:
        raise ConfigError(f"need at least {_MIN_SAMPLES} samples, got {n_samples}")
    x0 = np.asarray(x0, dtype=np.float64).reshape(-1)
    d = x0.size
    scale = math.sqrt(2.0 * horizon)

    # chunks of about one draw-kernel pass: the normals and the terminal
    # points stay in cache, and no full-size temporary is ever made
    exponents = np.empty(n_samples, dtype=np.float64)
    chunk = max(1, PASS_SIZE // d)
    for lo in range(0, n_samples, chunk):
        hi = min(lo + chunk, n_samples)
        z = stream.normals((hi - lo) * d).reshape(hi - lo, d)
        x_terminal = x0 + scale * z
        exponents[lo:hi] = -lam * np.asarray(g(x_terminal), dtype=np.float64).reshape(hi - lo)
    if not np.all(np.isfinite(exponents)):
        raise NumericError("non-finite terminal exponents in control-problem Monte Carlo")

    shift = float(np.max(exponents))
    weights = np.exp(exponents - shift)
    mean_w = float(np.mean(weights))
    value = -(shift + math.log(mean_w)) / lam
    stderr = float(np.std(weights, ddof=1) / (mean_w * math.sqrt(n_samples))) / lam
    if not math.isfinite(value):
        raise NumericError("control-problem Monte Carlo produced a non-finite value")
    return OracleEstimate(value=value, stderr=stderr, info={"samples": int(n_samples)})


def _scalar_sigma(problem, t, x_nodes):
    """s(t, x) at 1-D nodes, one value per node."""
    s = problem.sigma.scale(t, x_nodes[:, None]).reshape(-1)
    return np.broadcast_to(s, x_nodes.shape)


def fd_semilinear_1d(problem, x0, half_width=None, nodes=400, time_steps=None):
    """Finite-difference march for d = 1 problems; returns u(0, x0).

    Backward in time from the terminal condition on [x0 - L, x0 + L]:
    Crank-Nicolson on the linear operator mu d_x + 0.5 sigma^2 d_xx, the
    driver treated explicitly at the current level with z = sigma d_x u by
    central differences. Boundary rows impose zero second derivative
    (linear extrapolation), which keeps the interior system tridiagonal.

    The explicit driver makes the march first order in time, so it runs
    twice, with K = time_steps and then 2K steps, and returns
    2 u_2K - u_K (Richardson extrapolation), which cancels the O(dt) term.
    The K-step march runs first, so an error names its step.

    mu and sigma are evaluated once per time level: a step's new level is
    the next step's old level, at the same float time. The tridiagonal LU
    (LAPACK gttrf) is refactored only at a level whose mu or sigma values
    differ from the previous level's, so time-dependent coefficients
    refactor at every step and constant ones once; each step then costs one
    gttrs solve. A singular system or a non-finite solution raises
    NumericError naming the time step.

    Defaults: L = 6 sigma sqrt(T); K = ceil(nodes (6 sigma sqrt(T)) / L), so
    dt shrinks with dx and K = nodes at the default L, raised where needed
    to T max f_z^2 at the terminal level, the stability bound of a driver
    that depends on z. info["time_steps"] is K.
    """
    if problem.d != 1:
        raise ConfigError(f"finite-difference route requires d = 1, got d = {problem.d}")
    if nodes < 8:
        raise ConfigError(f"need at least 8 spatial intervals, got {nodes}")
    x0 = float(np.asarray(x0).reshape(-1)[0])
    T = problem.T
    sigma0 = float(_scalar_sigma(problem, 0.0, np.array([x0]))[0])
    default_width = 6.0 * sigma0 * math.sqrt(T)
    half_width = default_width if half_width is None else float(half_width)
    if not (math.isfinite(half_width) and half_width > 0.0):
        raise ConfigError(f"half_width must be positive and finite, got {half_width}")

    m = int(nodes)
    xs = np.linspace(x0 - half_width, x0 + half_width, m + 1)
    if time_steps is None:
        time_steps = max(int(math.ceil(m * (default_width / half_width))),
                         _stable_steps(problem, xs), 1)
    if time_steps < 1:
        raise ConfigError(f"need at least one time step, got {time_steps}")
    coarse = _march(problem, xs, time_steps)
    fine = _march(problem, xs, 2 * time_steps)
    value = float(np.interp(x0, xs, 2.0 * fine - coarse))
    return OracleEstimate(
        value=value, stderr=0.0,
        info={"nodes": m, "time_steps": int(time_steps), "half_width": half_width},
    )


def _stable_steps(problem, xs):
    """Fewest steps with dt max f_z^2 <= 1 at the terminal level.

    Against Crank-Nicolson diffusion, the explicit driver's z-term (an
    advection at speed f_z sigma, central differences) is von Neumann
    stable only for dt f_z^2 <= 1, whatever dx is.
    """
    if problem.f is None:
        return 0
    T = problem.T
    u = np.asarray(problem.g(xs[:, None]), dtype=np.float64).reshape(xs.size)
    z = _scalar_sigma(problem, T, xs) * np.gradient(u, xs)
    _, f_z = problem.df(T, xs[:, None], u[:, None], z[:, None])
    bound = T * float(np.max(np.square(f_z)))
    if not math.isfinite(bound):
        raise NumericError("non-finite driver partial f_z at the terminal level")
    return int(math.ceil(bound))


def _march(problem, xs, time_steps):
    """u(0, xs) after time_steps Crank-Nicolson steps back from g(xs)."""
    m = xs.size - 1
    T = problem.T
    dx = xs[1] - xs[0]
    dt = T / time_steps
    u = np.asarray(problem.g(xs[:, None]), dtype=np.float64).reshape(m + 1).copy()
    zero_drift = np.zeros(m + 1)

    def level(t):
        mu = zero_drift if problem.mu is None else \
            np.asarray(problem.mu(t, xs[:, None]), dtype=np.float64).reshape(m + 1)
        return mu, _scalar_sigma(problem, t, xs)

    def operator_coeffs(mu, sig):
        s2 = sig ** 2
        lower = -mu / (2.0 * dx) + s2 / (2.0 * dx ** 2)
        diag = -s2 / dx ** 2
        upper = mu / (2.0 * dx) + s2 / (2.0 * dx ** 2)
        return lower, diag, upper

    def implicit_factor(lower, diag, upper, j):
        a = -0.5 * dt * lower[1:m]
        b = 1.0 - 0.5 * dt * diag[1:m]
        c = -0.5 * dt * upper[1:m]
        # fold the zero-curvature boundary (u_0 = 2u_1 - u_2 and mirrored)
        # into the first and last interior rows
        b[0] += 2.0 * a[0]
        c[0] -= a[0]
        b[-1] += 2.0 * c[-1]
        a[-1] -= c[-1]
        *lu, info = gttrf(a[1:], b, c[:-1])
        if info > 0:
            raise NumericError(f"singular implicit system at time step {j}")
        return lu

    mu, sig = level(T)
    coeffs = operator_coeffs(mu, sig)
    lu = None
    for j in range(time_steps):
        t_old = T - j * dt
        lower, diag, upper = coeffs
        rhs_interior = u[1:m] + 0.5 * dt * (
            lower[1:m] * u[0:m - 1] + diag[1:m] * u[1:m] + upper[1:m] * u[2:m + 1]
        )
        if problem.f is not None:
            du_dx = np.empty(m + 1)
            du_dx[1:m] = (u[2:] - u[:-2]) / (2.0 * dx)
            du_dx[0] = (u[1] - u[0]) / dx
            du_dx[m] = (u[m] - u[m - 1]) / dx
            z = (sig * du_dx)[:, None]
            fv = np.asarray(
                problem.f(t_old, xs[:, None], u[:, None], z), dtype=np.float64
            ).reshape(m + 1)
            rhs_interior = rhs_interior + dt * fv[1:m]

        mu_new, sig_new = level(T - (j + 1) * dt)
        unchanged = (mu_new is mu or np.array_equal(mu_new, mu)) and np.array_equal(sig_new, sig)
        if not unchanged:
            coeffs = operator_coeffs(mu_new, sig_new)
            lu = None
        mu, sig = mu_new, sig_new
        if lu is None:
            lu = implicit_factor(*coeffs, j)
        interior, _ = gttrs(*lu, rhs_interior, overwrite_b=1)
        u[1:m] = interior
        u[0] = 2.0 * u[1] - u[2]
        u[m] = 2.0 * u[m - 1] - u[m - 2]
        if not np.isfinite(u).all():
            raise NumericError(f"non-finite values at time step {j}")

    return u
