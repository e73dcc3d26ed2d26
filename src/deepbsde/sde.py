"""Seedable counter-based randomness and forward path simulation.

The generator is splitmix64: output k (1-based) of a stream with seed state
s is mix64(s + k * GOLDEN). Because every draw is a pure function of
(seed state, counter), scalar draws, block draws, and the draws of any slice
of a batch all read the identical sequence bit for bit; that single fact
carries the reproducibility guarantees of the whole library.

Normals come from Box-Muller pairs over uniforms mapped into (0, 1] (so the
log never sees zero), with a carry slot for the odd draw.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MULT1 = 0xBF58476D1CE4E5B9
_MULT2 = 0x94D049BB133111EB
_INV_2_64 = 2.0 ** -64


def _mix64(z):
    """splitmix64 finalizer on python ints (exact 64-bit wraparound)."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MULT1) & _MASK
    z = ((z ^ (z >> 27)) * _MULT2) & _MASK
    return z ^ (z >> 31)


def _mix64_array(z):
    # numpy uint64 arithmetic wraps mod 2**64, matching the python-int path
    z = z ^ (z >> np.uint64(30))
    z = z * np.uint64(_MULT1)
    z = z ^ (z >> np.uint64(27))
    z = z * np.uint64(_MULT2)
    return z ^ (z >> np.uint64(31))


def _to_unit(z):
    # maps uint64 outputs into (0, 1]; zero lands on 2**-64, never on 0
    return (z.astype(np.float64) + 1.0) * _INV_2_64


def box_muller_pair(u1, u2):
    """Two uniforms in (0, 1] -> a pair of independent standard normals."""
    r = np.sqrt(-2.0 * np.log(u1))
    ang = (2.0 * np.pi) * u2
    return r * np.cos(ang), r * np.sin(ang)


class RngStream:
    """Deterministic uniform/normal stream with cheap derived sub-streams.

    Two streams with the same seed produce identical sequences; streams
    derived with distinct id tuples never share state.
    """

    __slots__ = ("seed_state", "counter", "_cached_normal")

    def __init__(self, seed):
        self.seed_state = int(seed) & _MASK
        self.counter = 0
        self._cached_normal = None

    def derive(self, *ids):
        """Child stream keyed by an id tuple, independent of draw position."""
        h = self.seed_state
        for i in ids:
            h = _mix64((h + _GOLDEN * (int(i) + 1)) & _MASK)
        return RngStream(h)

    def next_u64(self):
        self.counter += 1
        return _mix64((self.seed_state + _GOLDEN * self.counter) & _MASK)

    def uniforms(self, n):
        """n uniforms in (0, 1]; advances the counter by n."""
        ks = np.arange(self.counter + 1, self.counter + n + 1, dtype=np.uint64)
        self.counter += int(n)
        z = _mix64_array(np.uint64(self.seed_state) + np.uint64(_GOLDEN) * ks)
        return _to_unit(z)

    def uniform(self):
        return float(self.uniforms(1)[0])

    def normals(self, n):
        """n standard normals; pairs are consumed in order with a carry slot,
        so scalar and block draws read the same sequence."""
        n = int(n)
        out = np.empty(n, dtype=np.float64)
        have = 0
        if self._cached_normal is not None and n > 0:
            out[0] = self._cached_normal
            self._cached_normal = None
            have = 1
        need = n - have
        if need > 0:
            pairs = (need + 1) // 2
            u = self.uniforms(2 * pairs)
            z0, z1 = box_muller_pair(u[0::2], u[1::2])
            block = np.empty(2 * pairs, dtype=np.float64)
            block[0::2] = z0
            block[1::2] = z1
            out[have:] = block[:need]
            if need < 2 * pairs:
                self._cached_normal = float(block[need])
        return out

    def normal(self):
        return float(self.normals(1)[0])


def _derived_states(stream, stage, lo, hi):
    """Seed states of stream.derive(stage, i) for i in [lo, hi), vectorized."""
    h1 = _mix64((stream.seed_state + _GOLDEN * (int(stage) + 1)) & _MASK)
    ks = np.arange(lo + 1, hi + 1, dtype=np.uint64)
    return _mix64_array(np.uint64(h1) + np.uint64(_GOLDEN) * ks)


def block_uniforms(stream, stage, lo, hi, n):
    """[hi-lo, n] uniforms; row i holds stream.derive(stage, lo+i).uniforms(n)."""
    states = _derived_states(stream, stage, lo, hi)
    ks = np.arange(1, n + 1, dtype=np.uint64)
    z = _mix64_array(states[:, None] + np.uint64(_GOLDEN) * ks[None, :])
    return _to_unit(z)


def block_normals(stream, stage, lo, hi, n):
    """[hi-lo, n] normals; row i holds stream.derive(stage, lo+i).normals(n)."""
    pairs = (n + 1) // 2
    u = block_uniforms(stream, stage, lo, hi, 2 * pairs)
    z0, z1 = box_muller_pair(u[:, 0::2], u[:, 1::2])
    out = np.empty((hi - lo, 2 * pairs), dtype=np.float64)
    out[:, 0::2] = z0
    out[:, 1::2] = z1
    return out[:, :n]


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing times t_0 = 0 < ... < t_N."""

    times: np.ndarray

    def __post_init__(self):
        times = np.array(self.times, dtype=np.float64)
        if times.ndim != 1 or times.size < 2:
            raise ConfigError("time grid needs at least two points")
        if times[0] != 0.0:
            raise ConfigError(f"time grid must start at 0, got {times[0]}")
        if not np.all(np.diff(times) > 0.0):
            raise ConfigError("time grid must be strictly increasing")
        times.flags.writeable = False
        object.__setattr__(self, "times", times)

    @property
    def num_steps(self):
        return self.times.size - 1

    @property
    def horizon(self):
        return float(self.times[-1])

    def dt(self, n):
        return float(self.times[n + 1] - self.times[n])


def make_uniform_grid(horizon, num_steps):
    """Uniform grid on [0, horizon] with the final time pinned exactly."""
    if horizon <= 0.0:
        raise ConfigError(f"horizon must be positive, got {horizon}")
    if num_steps < 1:
        raise ConfigError(f"need at least one time step, got {num_steps}")
    times = np.arange(num_steps + 1, dtype=np.float64) * (horizon / num_steps)
    times[-1] = horizon
    return TimeGrid(times)


@dataclass(frozen=True)
class BrownianBatch:
    """Step increments, [batch, N, d]; increment n has variance dt_n per axis."""

    increments: np.ndarray


@dataclass(frozen=True)
class PathBatch:
    """Forward states, [batch, N+1, d]; slice [:, 0, :] is the initial draw."""

    states: np.ndarray


def euler_step(problem, t, x, dt, dw):
    """One forward update x + mu(t,x) dt + sigma(t,x) dw.

    x and dw may be a single [d] vector or a [batch, d] block; drift and
    diffusion callbacks must be vectorized over the batch axis.
    """
    if dt <= 0.0:
        raise ConfigError(f"step size must be positive, got {dt}")
    x = np.asarray(x, dtype=np.float64)
    dw = np.asarray(dw, dtype=np.float64)
    single = x.ndim == 1
    xb = x[None, :] if single else x
    wb = dw[None, :] if single else dw
    out = xb
    if problem.mu is not None:
        out = out + np.asarray(problem.mu(t, xb), dtype=np.float64) * dt
    out = out + problem.sigma.apply(t, xb, wb)
    if not np.all(np.isfinite(out)):
        bad = int(np.argwhere(~np.isfinite(out).all(axis=1))[0][0])
        raise NumericError(f"non-finite state after Euler update (row {bad})")
    return out[0] if single else out


def _simulate_chunk(problem, grid, stream, lo, hi, states, increments):
    states[lo:hi, 0, :] = problem.xi.sample_block(stream, lo, hi)
    times = grid.times
    d = problem.d
    for n in range(grid.num_steps):
        dtn = float(times[n + 1] - times[n])
        z = block_normals(stream, n + 1, lo, hi, d)
        dw = z * math.sqrt(dtn)
        increments[lo:hi, n, :] = dw
        try:
            states[lo:hi, n + 1, :] = euler_step(
                problem, float(times[n]), states[lo:hi, n, :], dtn, dw
            )
        except NumericError as e:
            raise NumericError(f"step {n}, samples [{lo}, {hi}): {e}") from e


def simulate_paths(problem, grid, batch, stream):
    """Simulate forward paths; returns (PathBatch, BrownianBatch).

    Sample i draws its initial point from the sub-stream (0, i) and its
    step-n increments from (n+1, i), so any [lo, hi) slice of the batch
    simulated on its own (`_simulate_chunk`) is bitwise identical to the
    same rows of the full batch.
    """
    if batch < 1:
        raise ConfigError(f"batch must be at least 1, got {batch}")
    n_steps = grid.num_steps
    d = problem.d
    states = np.empty((batch, n_steps + 1, d), dtype=np.float64)
    increments = np.empty((batch, n_steps, d), dtype=np.float64)
    _simulate_chunk(problem, grid, stream, 0, batch, states, increments)
    return PathBatch(states), BrownianBatch(increments)
