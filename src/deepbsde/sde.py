"""Seedable counter-based randomness and forward path simulation.

The forward process is X = xi + s W on the time grid: X_{n+1} = X_n + s dW_n
with no drift and one constant s per problem (sigma = s I), accumulated in
place in the path array.

The generator is splitmix64: output k (1-based) of a stream with seed state
s is mix64(s + k * GOLDEN). Because every draw is a pure function of
(seed state, counter), scalar draws, block draws, and the draws of any slice
of a batch all read the identical sequence bit for bit; that single fact
carries the reproducibility guarantees of the whole library.

Uniforms map output z to (float64(z) + 1) * 2**-64 in (0, 1], so the log
never sees zero. Normals come from Box-Muller pairs over them, with a carry
slot for the odd draw: radius r = sqrt(-2 ln u1) in float64 and angle
2 pi u2 rounded to float32, whose float32 cos and sin are widened to float64
and scaled by r. The float32 angle and trig move each normal by at most
about 4e-7 r from the all-float64 transform (r <= 9.5); they are used
because numpy vectorises float32 sin and cos and not the float64 ones, so a
normal costs about a third as much. The bits of a normal therefore depend
on the SIMD loops numpy picks for the float64 log and the float32 sin and
cos. The AVX2 and AVX-512 log loops round some radii apart (1,590 of the
first 10^6 normals of one stream move, by at most 4.4e-16), and so do
its float64 exp loops, which the Cole-Hopf oracle reads; the trig loops
part only at the SSE baseline.

One kernel, `_draw`, makes every uniform and normal in the package. It works
in passes of PASS_SIZE values over a few buffers allocated once per call, so
the mixing, the float conversion and Box-Muller run in place on cache-sized
blocks instead of streaming full-length temporaries through memory.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError, ShapeError

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MULT1 = 0xBF58476D1CE4E5B9
_MULT2 = 0x94D049BB133111EB
_INV_2_64 = 2.0 ** -64
_TWO_32 = 2.0 ** 32
_LOW_32 = np.uint64(0xFFFFFFFF)
_TWO_PI = 2.0 * np.pi

# values per pass of the draw kernel; its buffers then take about 1 MB
PASS_SIZE = 1 << 15


def _mix64(z):
    """splitmix64 finalizer on python ints (exact 64-bit wraparound)."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MULT1) & _MASK
    z = ((z ^ (z >> 27)) * _MULT2) & _MASK
    return z ^ (z >> 31)


def _mix64_inplace(z, tmp):
    """splitmix64 finalizer on a uint64 array, in place; tmp is scratch of
    the same shape. numpy uint64 arithmetic wraps mod 2**64 like _mix64."""
    np.right_shift(z, np.uint64(30), out=tmp)
    z ^= tmp
    z *= np.uint64(_MULT1)
    np.right_shift(z, np.uint64(27), out=tmp)
    z ^= tmp
    z *= np.uint64(_MULT2)
    np.right_shift(z, np.uint64(31), out=tmp)
    z ^= tmp


def _as_float64(z, tmp, out):
    """out = float64(z) for a uint64 array z, rounded once as numpy's cast
    would be; z and tmp (uint64, z's shape) are overwritten.

    numpy's uint64 -> float64 cast is not vectorised, its int64 one is. The
    32-bit halves convert exactly through int64 views, and float(hi) * 2**32
    is exact too, so float(hi) * 2**32 + float(lo) is z rounded once.
    """
    np.right_shift(z, np.uint64(32), out=tmp)
    np.copyto(out, tmp.view(np.int64), casting="unsafe")
    out *= _TWO_32
    z &= _LOW_32
    low = tmp.view(np.float64)
    np.copyto(low, z.view(np.int64), casting="unsafe")
    out += low


def box_muller_pair(u1, u2):
    """Two arrays of uniforms in (0, 1] -> a pair of independent standard
    normal arrays: (r cos a, r sin a) with r = sqrt(-2 ln u1) in float64 and
    a = float32(2 pi u2). cos a and sin a are taken in float32 and widened,
    so each value is within about 4e-7 r of the float64 transform."""
    r = np.sqrt(-2.0 * np.log(u1))
    ang = (_TWO_PI * u2).astype(np.float32)
    return r * np.cos(ang).astype(np.float64), r * np.sin(ang).astype(np.float64)


def _draw(states, first, out, normal):
    """Fill out[r, j] from the stream whose seed state is states[r].

    Uniforms: out[r, j] is uniform number first + j + 1 of that stream, in
    (0, 1]. Normals: out[r, j] is normal j of the Box-Muller pairs over the
    uniforms from number first + 1 on (pair p reads uniforms 2p and 2p + 1
    past `first`), made as in box_muller_pair: float64 radius, float32
    angle, float32 cos and sin widened to float64, so each normal is within
    about 4e-7 times its radius of the float64 transform. The work goes in
    passes of at most PASS_SIZE values: a pass is a block of whole rows when
    a row is narrower than a pass, or a run of columns of one row when it is
    wider. Every operation is elementwise, with the operand order of
    box_muller_pair, so every value is the same bit for bit however the
    output is cut.
    """
    rows, n = out.shape
    if out.size == 0:
        return
    width = n + (n & 1) if normal else n  # normals come in whole pairs
    cols = min(width, PASS_SIZE)
    per = min(rows, PASS_SIZE // cols)
    z = np.empty(per * cols, dtype=np.uint64)
    tmp = np.empty_like(z)
    # GOLDEN * j mod 2**64 for the columns j of a pass
    steps = np.arange(cols, dtype=np.uint64) * np.uint64(_GOLDEN)
    row_keys = np.empty(per, dtype=np.uint64)
    if normal:
        u = np.empty(per * cols)
        # float64 radius and angle (then widened trig); float32 angle and trig
        radius, wide = (np.empty(per * cols // 2) for _ in range(2))
        ang, trig = (np.empty(per * cols // 2, dtype=np.float32) for _ in range(2))
    for c0 in range(0, width, cols):
        cw = min(cols, width - c0)
        # GOLDEN times the pass's first counter, formed as a masked python int
        offset = np.uint64((_GOLDEN * (first + c0 + 1)) & _MASK)
        for r0 in range(0, rows, per):
            r1 = min(r0 + per, rows)
            m = r1 - r0
            zb = z[:m * cw].reshape(m, cw)
            sb = tmp[:zb.size].reshape(m, cw)
            np.add(states[r0:r1], offset, out=row_keys[:m])
            np.add(row_keys[:m, None], steps[None, :cw], out=zb)
            _mix64_inplace(zb, sb)
            ub = out[r0:r1, c0:c0 + cw] if not normal else u[:zb.size].reshape(m, cw)
            _as_float64(zb, sb, ub)
            ub += 1.0
            ub *= _INV_2_64
            if not normal:
                continue
            rb, wb, ab, tb = (buf[:zb.size // 2].reshape(m, cw // 2)
                              for buf in (radius, wide, ang, trig))
            np.log(ub[:, 0::2], out=rb)
            rb *= -2.0
            np.sqrt(rb, out=rb)
            np.multiply(ub[:, 1::2], _TWO_PI, out=wb)
            np.copyto(ab, wb, casting="same_kind")
            # with n odd, the last pass's pairs go to the pass buffer first,
            # and all but the unused partner of the last one are copied out
            whole = c0 + cw <= n
            dst = out[r0:r1, c0:c0 + cw] if whole else ub
            np.cos(ab, out=tb)
            np.copyto(wb, tb)
            np.multiply(rb, wb, out=dst[:, 0::2])
            np.sin(ab, out=tb)
            np.copyto(wb, tb)
            np.multiply(rb, wb, out=dst[:, 1::2])
            if not whole:
                out[r0:r1, c0:n] = ub[:, :n - c0]


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
        n = int(n)
        out = np.empty(n, dtype=np.float64)
        _draw(np.array([self.seed_state], dtype=np.uint64), self.counter, out[None, :], False)
        self.counter += n
        return out

    def normals(self, n):
        """n standard normals; pairs are consumed in order with a carry slot,
        so scalar and block draws read the same sequence."""
        n = int(n)
        have = 1 if self._cached_normal is not None and n > 0 else 0
        pairs = (n - have + 1) // 2
        # room for the partner of an odd last draw, which goes to the carry slot
        out = np.empty(have + 2 * pairs, dtype=np.float64)
        if have:
            out[0] = self._cached_normal
            self._cached_normal = None
        if pairs:
            state = np.array([self.seed_state], dtype=np.uint64)
            _draw(state, self.counter, out[None, have:], True)
            self.counter += 2 * pairs
            if out.size > n:
                self._cached_normal = float(out[n])
        return out[:n]


def _derived_states(stream, stages, lo, hi):
    """[hi-lo, len(stages)] seed states; entry [i, k] is that of
    stream.derive(stages[k], lo+i)."""
    h1 = [_mix64((stream.seed_state + _GOLDEN * (int(s) + 1)) & _MASK) for s in stages]
    z = np.arange(lo + 1, hi + 1, dtype=np.uint64)[:, None] * np.uint64(_GOLDEN)
    z = z + np.array(h1, dtype=np.uint64)
    _mix64_inplace(z, np.empty_like(z))
    return z


def block_uniforms(stream, stage, lo, hi, n):
    """[hi-lo, n] uniforms; row i holds stream.derive(stage, lo+i).uniforms(n)."""
    out = np.empty((hi - lo, n), dtype=np.float64)
    _draw(_derived_states(stream, [stage], lo, hi).reshape(-1), 0, out, False)
    return out


def block_normals(stream, stage, lo, hi, n):
    """[hi-lo, n] normals; row i holds stream.derive(stage, lo+i).normals(n)."""
    out = np.empty((hi - lo, n), dtype=np.float64)
    _draw(_derived_states(stream, [stage], lo, hi).reshape(-1), 0, out, True)
    return out


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
    real = isinstance(horizon, numbers.Real) and not isinstance(horizon, bool)
    if not real or not math.isfinite(horizon) or horizon <= 0.0:
        raise ConfigError(f"horizon must be a finite number > 0, got {horizon!r}")
    if isinstance(num_steps, bool) or not isinstance(num_steps, numbers.Integral) or num_steps < 1:
        raise ConfigError(f"num_steps must be an integer >= 1, got {num_steps!r}")
    times = np.arange(num_steps + 1, dtype=np.float64) * (horizon / num_steps)
    times[-1] = horizon
    return TimeGrid(times)


def _simulate_chunk(problem, grid, stream, lo, hi, states, increments):
    """Fill rows [lo, hi) of states and of the C-contiguous increments:
    every step's increments drawn at once, then X_{n+1} = X_n + s dW_n.

    Sample i's step-n increments come from the sub-stream (n+1, i). The
    draw goes straight into increments, for blocks of samples whose seed
    states (one per sample and step) fill about one kernel pass, so a
    large batch never holds a full-size seed array. s dW is written into
    the states and summed along time in place, so no full-size temporary
    is made.
    """
    if not increments.flags.c_contiguous:
        raise ShapeError("increments must be C-contiguous: the draw writes into it in place")
    states[lo:hi, 0, :] = problem.xi.sample_block(stream, lo, hi)
    steps = range(1, grid.num_steps + 1)
    block = max(1, PASS_SIZE // grid.num_steps)
    for a in range(lo, hi, block):
        b = min(a + block, hi)
        seeds = _derived_states(stream, steps, a, b)
        _draw(seeds.reshape(-1), 0, increments[a:b].reshape(-1, problem.d), True)
    dw = increments[lo:hi]
    dw *= np.sqrt(np.diff(grid.times))[:, None]
    x = states[lo:hi]
    np.multiply(dw, problem.sigma, out=x[:, 1:])
    np.cumsum(x, axis=1, out=x)
    # a non-finite state stays non-finite in every later sum (s dW is never
    # NaN), so the terminal states show every bad sample
    bad = np.flatnonzero(~np.isfinite(x[:, -1]).all(axis=1))
    if bad.size:
        raise NumericError(f"non-finite state in sample {lo + int(bad[0])}")


def simulate_paths(problem, grid, batch, stream):
    """Simulate forward paths; returns (states, increments), C-contiguous
    float64 arrays shaped [batch, N+1, d] and [batch, N, d]. states[:, 0, :]
    is the initial draw and states[:, n+1, :] = states[:, n, :] +
    s increments[:, n, :]; increment n has variance dt_n per axis.

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
    return states, increments
