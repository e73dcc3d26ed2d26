"""Independent reference solvers used to validate trained values.

None of these touch networks, tapes, or the rollout code: the Monte Carlo
routes draw only the exact terminal points x0 + s W_T, and the 1-D route is
a finite-difference march. Agreement between a trained value and an oracle
is therefore evidence, not circularity.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgttrf as gttrf, dgttrs as gttrs

from .errors import ConfigError, NumericError
from .problems import as_vector
# simulate_paths is no longer called here, but benchmarks/tracing.py wraps
# it under this module's name, where it now sees no calls
from .sde import PASS_SIZE, simulate_paths  # noqa: F401

_MIN_SAMPLES = 100


@dataclass(frozen=True)
class OracleEstimate:
    """Point estimate, its standard error (0 for deterministic routes), and
    provenance metadata (sample counts or grid sizes)."""

    value: float
    stderr: float
    info: dict


def _terminal_values(g, x0, scale, n_samples, stream):
    """g(x0 + scale Z) for n_samples rows Z of d standard normals, drawn in
    chunks of about one draw-kernel pass: the normals and the terminal
    points stay in cache, and no full-size temporary is made."""
    if n_samples < _MIN_SAMPLES:
        raise ConfigError(f"need at least {_MIN_SAMPLES} samples, got {n_samples}")
    d = x0.size
    values = np.empty(n_samples, dtype=np.float64)
    chunk = max(1, PASS_SIZE // d)
    for lo in range(0, n_samples, chunk):
        hi = min(lo + chunk, n_samples)
        z = stream.normals((hi - lo) * d).reshape(hi - lo, d)
        values[lo:hi] = np.asarray(g(x0 + scale * z), dtype=np.float64).reshape(hi - lo)
    if not np.all(np.isfinite(values)):
        raise NumericError("non-finite terminal values in Monte Carlo")
    return values


def mc_feynman_kac(problem, x0, n_samples, grid, stream):
    """Plain Monte Carlo average of g(x0 + s sqrt(T) Z), the exact law of X_T
    from x0, with T = grid.horizon, the one value of the grid it reads.

    Valid only for a zero driver (f is None): with a driver the average of g
    no longer represents the solution, so that misuse is rejected.
    """
    if problem.f is not None:
        raise ConfigError(
            f"problem '{problem.name}' has a nonzero driver; this estimator applies only to f == 0"
        )
    x0 = as_vector(x0, problem.d, "x0")
    values = _terminal_values(problem.g, x0, problem.sigma * math.sqrt(grid.horizon),
                              n_samples, stream)
    value = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / math.sqrt(n_samples))
    return OracleEstimate(value=value, stderr=stderr, info={"samples": int(n_samples)})


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
    x0 = np.asarray(x0, dtype=np.float64).reshape(-1)
    exponents = -lam * _terminal_values(g, x0, math.sqrt(2.0 * horizon), n_samples, stream)
    shift = float(np.max(exponents))
    weights = np.exp(exponents - shift)
    mean_w = float(np.mean(weights))
    value = -(shift + math.log(mean_w)) / lam
    stderr = float(np.std(weights, ddof=1) / (mean_w * math.sqrt(n_samples))) / lam
    if not math.isfinite(value):
        raise NumericError("control-problem Monte Carlo produced a non-finite value")
    return OracleEstimate(value=value, stderr=stderr, info={"samples": int(n_samples)})


def fd_semilinear_1d(problem, x0, half_width=None, nodes=400, time_steps=None):
    """Finite-difference march for d = 1 problems; returns u(0, x0).

    Backward in time from the terminal condition on [x0 - L, x0 + L]:
    Crank-Nicolson on the linear operator 0.5 s^2 d_xx, the driver treated
    explicitly at the current level with z = s d_x u by central
    differences. Boundary rows impose zero second derivative
    (linear extrapolation), which keeps the interior system tridiagonal.

    The explicit driver makes the march first order in time, so it runs
    twice, with K = time_steps and then 2K steps, and returns
    2 u_2K - u_K (Richardson extrapolation), which cancels the O(dt) term.
    The K-step march runs first, so an error names its step.

    The operator has constant coefficients, so the tridiagonal LU (LAPACK
    gttrf) is factored once before the march and each step costs one gttrs
    solve. A singular system or a non-finite solution raises NumericError,
    the latter naming the time step.

    Defaults: L = 6 s sqrt(T); K = ceil(nodes (6 s sqrt(T)) / L), so
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
    default_width = 6.0 * problem.sigma * math.sqrt(T)
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
    advection at speed f_z s, central differences) is von Neumann
    stable only for dt f_z^2 <= 1, whatever dx is.
    """
    if problem.f is None:
        return 0
    T = problem.T
    u = np.asarray(problem.g(xs[:, None]), dtype=np.float64).reshape(xs.size)
    z = problem.sigma * np.gradient(u, xs)
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
    s = problem.sigma
    # 0.5 s^2 d_xx: the same weight on both neighbours, constant in x and t
    s2 = s * s
    side = s2 / (2.0 * dx ** 2)
    diag = -s2 / dx ** 2
    a = np.full(m - 1, -0.5 * dt * side)
    b = np.full(m - 1, 1.0 - 0.5 * dt * diag)
    c = a.copy()
    # fold the zero-curvature boundary (u_0 = 2u_1 - u_2 and mirrored) into
    # the first and last interior rows
    b[0] += 2.0 * a[0]
    c[0] -= a[0]
    b[-1] += 2.0 * c[-1]
    a[-1] -= c[-1]
    *lu, info = gttrf(a[1:], b, c[:-1])
    if info > 0:
        raise NumericError("singular implicit system")

    for j in range(time_steps):
        t_old = T - j * dt
        rhs_interior = u[1:m] + 0.5 * dt * (
            side * u[0:m - 1] + diag * u[1:m] + side * u[2:m + 1]
        )
        if problem.f is not None:
            du_dx = np.empty(m + 1)
            du_dx[1:m] = (u[2:] - u[:-2]) / (2.0 * dx)
            du_dx[0] = (u[1] - u[0]) / dx
            du_dx[m] = (u[m] - u[m - 1]) / dx
            z = (s * du_dx)[:, None]
            fv = np.asarray(
                problem.f(t_old, xs[:, None], u[:, None], z), dtype=np.float64
            ).reshape(m + 1)
            rhs_interior = rhs_interior + dt * fv[1:m]
        interior, _ = gttrs(*lu, rhs_interior, overwrite_b=1)
        u[1:m] = interior
        u[0] = 2.0 * u[1] - u[2]
        u[m] = 2.0 * u[m - 1] - u[m - 2]
        if not np.isfinite(u).all():
            raise NumericError(f"non-finite values at time step {j}")

    return u
