"""Problem definitions: coefficients, terminal data, starting-point samplers,
and the built-in benchmark instances.

The forward process has no drift and diffusion sigma = s I, with s one
finite constant >= 0 per problem (ProblemSpec.sigma), so X = xi + s W.

Conventions shared across the library:
  - terminal g(x) takes x as [batch, d] and returns [batch]
  - a driver f(t, x, y, z) takes y as [batch, 1] and z as [batch, d] and
    returns [batch, 1] (or a scalar); its partials df(t, x, y, z) return
    (f_y, f_z), broadcastable to [batch, 1] and [batch, d], for the rollout's
    adjoint. f = None declares the linear case f == 0 and needs no df
"""

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, ShapeError
from .sde import block_uniforms

BUILTIN_PROBLEMS = ("heat", "hjb", "allen_cahn")


@dataclass(frozen=True)
class ExactSolution:
    """Closed-form solution used by reference rollouts and residual audits."""

    u: Callable      # (t, x[batch, d]) -> [batch]
    grad: Callable   # (t, x[batch, d]) -> [batch, d]


@dataclass(frozen=True)
class XiSampler:
    """Initial-point law: a point mass or a uniform box."""

    kind: str
    point: np.ndarray | None = None
    low: np.ndarray | None = None
    high: np.ndarray | None = None

    @classmethod
    def point_mass(cls, x0):
        x0 = np.asarray(x0, dtype=np.float64).reshape(-1)
        return cls("point", point=x0)

    @classmethod
    def uniform_box(cls, low, high):
        low = np.asarray(low, dtype=np.float64).reshape(-1)
        high = np.asarray(high, dtype=np.float64).reshape(-1)
        if low.shape != high.shape:
            raise ShapeError(f"box bounds differ in length: {low.shape} vs {high.shape}")
        if np.any(high < low):
            raise ConfigError("box upper bounds must not be below lower bounds")
        return cls("box", low=low, high=high)

    @property
    def dim(self):
        return self.point.size if self.kind == "point" else self.low.size

    def sample_block(self, stream, lo, hi):
        """[hi-lo, d] draws for absolute sample indices lo..hi-1.

        Uses per-sample sub-streams (stage 0), which keeps any slice of the
        batch reproducible independently of the rest.
        """
        if self.kind == "point":
            return np.tile(self.point, (hi - lo, 1))
        u = block_uniforms(stream, 0, lo, hi, self.dim)
        return self.low + (self.high - self.low) * u


@dataclass(frozen=True)
class ProblemSpec:
    """Everything the solver needs: the diffusion scale s (sigma = s I),
    driver and its partials, terminal data, starting law, and (when known)
    the exact solution."""

    name: str
    d: int
    T: float
    sigma: float
    f: Callable | None
    g: Callable
    xi: XiSampler
    exact: ExactSolution | None = None
    df: Callable | None = None

    def __post_init__(self):
        if self.f is not None and self.df is None:
            raise ConfigError(
                f"problem '{self.name}' has a driver f but no partials df(t, x, y, z) -> (f_y, f_z)"
            )
        if self.d < 1:
            raise ConfigError(f"dimension must be at least 1, got {self.d}")
        if self.T <= 0.0:
            raise ConfigError(f"'T' must be positive, got {self.T}")
        if _number(self.sigma, "sigma") < 0.0:
            raise ConfigError(f"'sigma' must not be negative, got {self.sigma}")
        if self.xi.dim != self.d:
            raise ShapeError(f"initial sampler is {self.xi.dim}-dimensional, problem is {self.d}")


def sample_xi(problem, batch, stream):
    """Draw `batch` starting points from the problem's initial law."""
    if batch < 1:
        raise ConfigError(f"batch must be at least 1, got {batch}")
    return problem.xi.sample_block(stream, 0, batch)


def _sq_norm(x):
    return np.sum(x * x, axis=-1)


def _heat(d, T, xi):
    """Zero driver, sigma = sqrt(2) I, quadratic terminal data.

    The solution is known in closed form, which makes this the calibration
    instance for reference rollouts and residual audits.
    """

    def g(x):
        return _sq_norm(x)

    def u(t, x):
        return _sq_norm(x) + 2.0 * d * (T - t)

    def du(t, x):
        return 2.0 * x

    return ProblemSpec(
        name="heat", d=d, T=T, sigma=math.sqrt(2.0),
        f=None, g=g, xi=xi, exact=ExactSolution(u, du),
    )


def _hjb(d, T, lam, xi):
    """Control problem u_t + Lap u - lam |grad u|^2 = 0 (Han, Jentzen & E).

    With z = sigma^T grad u = sqrt(2) grad u the driver is -(lam/2) |z|^2.
    """

    def g(x):
        return np.log(0.5 * (1.0 + _sq_norm(x)))

    def f(t, x, y, z):
        return (-0.5 * lam) * np.sum(z * z, axis=-1, keepdims=True)

    def df(t, x, y, z):
        return 0.0, (-lam) * z

    return ProblemSpec(
        name="hjb", d=d, T=T, sigma=math.sqrt(2.0),
        f=f, g=g, xi=xi, exact=None, df=df,
    )


def _allen_cahn(d, T, xi):
    """Cubic reaction term y - y^3 with a bump-shaped terminal condition."""

    def g(x):
        return 1.0 / (2.0 + 0.4 * _sq_norm(x))

    def f(t, x, y, z):
        return y - y * y * y

    def df(t, x, y, z):
        return 1.0 - 3.0 * y * y, 0.0

    return ProblemSpec(
        name="allen_cahn", d=d, T=T, sigma=math.sqrt(2.0),
        f=f, g=g, xi=xi, exact=None, df=df,
    )


_COMMON_KEYS = ("T", "xi_mode", "xi0", "box_low", "box_high")


def _number(value, key):
    """float(value) for a finite real number; a boolean, a string, a NaN, an
    infinity or anything else is a ConfigError naming the key."""
    number = isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_))
    if not number or not math.isfinite(value):
        raise ConfigError(f"'{key}' must be a finite number, got {value!r}")
    return float(value)


def as_vector(value, d, key):
    """[d] float array from a number or a 1- or d-entry sequence of numbers
    (one broadcasts); anything else is a ConfigError naming the key."""
    items = value.reshape(-1).tolist() if isinstance(value, np.ndarray) else value
    if not isinstance(items, (list, tuple)):
        items = [items]
    arr = np.array([_number(v, key) for v in items], dtype=np.float64)
    if arr.size == 1:
        return np.full(d, arr[0])
    if arr.size != d:
        need = "1 entry" if d == 1 else f"1 or {d} entries"
        raise ConfigError(f"override '{key}' needs {need}, got {arr.size}")
    return arr


def _build_xi(d, overrides):
    mode = overrides.get("xi_mode", "point")
    if mode == "point":
        return XiSampler.point_mass(as_vector(overrides.get("xi0", 0.0), d, "xi0"))
    if mode == "box":
        low = as_vector(overrides.get("box_low", -1.0), d, "box_low")
        high = as_vector(overrides.get("box_high", 1.0), d, "box_high")
        return XiSampler.uniform_box(low, high)
    raise ConfigError(f"unknown xi_mode '{mode}' (expected 'point' or 'box')")


def override_keys(name):
    """The override keys get_problem accepts for problem `name`."""
    return _COMMON_KEYS + (("lambda",) if name == "hjb" else ())


def get_problem(name, d, overrides=None):
    """Construct a built-in problem instance, checking and defaulting its
    settings: T (1), xi_mode (point), xi0 (0), box_low (-1), box_high (1),
    and for hjb only lambda (1); vectors take 1 or d entries. Unknown names
    and keys are rejected.
    """
    overrides = dict(overrides or {})
    if name not in BUILTIN_PROBLEMS:
        raise ConfigError(f"unknown problem '{name}' (expected one of {BUILTIN_PROBLEMS})")
    allowed = set(override_keys(name))
    unknown = sorted(set(overrides) - allowed)
    if unknown:
        raise ConfigError(
            f"unknown override keys {unknown} for '{name}' (accepted: {sorted(allowed)})"
        )
    if d < 1:
        raise ConfigError(f"dimension must be at least 1, got {d}")
    T = _number(overrides.get("T", 1.0), "T")
    xi = _build_xi(d, overrides)
    if name == "heat":
        return _heat(d, T, xi)
    if name == "hjb":
        lam = _number(overrides.get("lambda", 1.0), "lambda")
        if lam <= 0.0:
            raise ConfigError(f"override 'lambda' must be positive, got {lam}")
        return _hjb(d, T, lam, xi)
    return _allen_cahn(d, T, xi)


def exact_eval(problem, t, x):
    """(u(t, x), grad u(t, x)) at a single point x of shape [d]."""
    if problem.exact is None:
        raise ConfigError(f"problem '{problem.name}' has no closed-form solution")
    if not 0.0 <= t <= problem.T:
        raise ConfigError(f"t={t} outside [0, {problem.T}]")
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if x.size != problem.d:
        raise ShapeError(f"x must have {problem.d} entries, got {x.size}")
    xb = x[None, :]
    value = float(np.asarray(problem.exact.u(t, xb)).reshape(-1)[0])
    grad = np.asarray(problem.exact.grad(t, xb), dtype=np.float64).reshape(-1).copy()
    return value, grad


def pde_residual(problem, t, x, step=1e-3):
    """Finite-difference residual of the backward equation at one point.

    Estimates the time derivative, gradient and Laplacian of the closed-form
    solution by central differences (never touching exact.grad), assembles
    dt_u + 0.5 s^2 tr(Hess) + f(t, x, u, s grad) for sigma = s I, and
    returns it. Zero up to discretization error certifies that the stored
    solution actually solves the equation. Requires step <= t <= T - step.
    """
    if problem.exact is None:
        raise ConfigError(f"problem '{problem.name}' has no closed-form solution")
    if not step <= t <= problem.T - step:
        raise ConfigError(f"t={t} leaves no room for a central difference of width {step}")
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    d = problem.d

    def u(tt, xx):
        return float(np.asarray(problem.exact.u(tt, xx[None, :])).reshape(-1)[0])

    u0 = u(t, x)
    dt_u = (u(t + step, x) - u(t - step, x)) / (2.0 * step)

    grad = np.zeros(d)
    trace_hess = 0.0
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = step
        up, dn = u(t, x + ei), u(t, x - ei)
        grad[i] = (up - dn) / (2.0 * step)
        trace_hess += (up - 2.0 * u0 + dn) / step ** 2

    xb = x[None, :]
    s = problem.sigma
    residual = dt_u + 0.5 * s * s * trace_hess
    if problem.f is not None:
        z = (s * grad)[None, :]
        fval = np.asarray(problem.f(t, xb, np.array([[u0]]), z), dtype=np.float64)
        residual += float(fval.reshape(-1)[0])
    return residual

