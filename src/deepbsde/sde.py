"""Seedable counter-based randomness and forward path simulation.

The forward process is X = xi + s W on a time grid, which is just its
read-only times t_0 = 0 < ... < t_N as make_uniform_grid returns them:
X_{n+1} = X_n + s dW_n with no drift and one constant s per problem
(sigma = s I), accumulated in place in the path array. `_simulate_block`
simulates samples [lo, hi) of a batch into arrays of its own; a batch from
simulate_paths is the block [0, batch). The arrays are stored step-major,
[N+1, batch, d] and [N, batch, d], and handed out as their [batch, N+1, d]
and [batch, N, d] transposed views, so the rollouts' per-step slabs
states[:, n, :] and increments[:, n, :] are contiguous.

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
in passes of PASS_SIZE values through a workspace of two buffers, so the
mixing, the float conversion and Box-Muller run in place on cache-sized
blocks instead of streaming full-length temporaries through memory. With an
odd count per row, the last pair's partner is never made, and a pass only a
few columns wide forms its keys one column at a time.

Work made of independent pieces runs on every usable CPU: `_run_spans`
runs a list of disjoint spans, the first on the calling thread and each
other on a thread of its own, and `_shares` cuts the work into one span
per CPU, none shorter than _MIN_PASSES kernel passes, so short calls stay
on the calling thread. Simulation splits its samples, the Monte Carlo
oracles their chunks of terminal points, the tape-free rollouts their
blocks. Each span writes only its own slice of the output and draws
through buffers of its own, allocated by the calling thread, and every
value is a function of its sample, step or stream place alone, so results
are the same bits on any number of CPUs. There is no setting for this.
"""

import contextvars
import math
import numbers
import os
import threading

import numpy as np

from .errors import ConfigError, NumericError

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MULT1 = 0xBF58476D1CE4E5B9
_MULT2 = 0x94D049BB133111EB
_INV_2_64 = 2.0 ** -64
_TWO_32 = 2.0 ** 32
_LOW_32 = np.uint64(0xFFFFFFFF)
_TWO_PI = 2.0 * np.pi

# values per pass of the draw kernel; its buffers then take about 0.5 MB
PASS_SIZE = 1 << 15
# a pass fewer columns wide than this forms its keys one column at a time
_NARROW = 8
# GOLDEN * j mod 2**64 for the columns j of a pass, made once
_KEYS = np.arange(PASS_SIZE, dtype=np.uint64) * np.uint64(_GOLDEN)
_KEYS.flags.writeable = False
# a thread is given no fewer kernel passes than this: starting and joining
# a thread takes about a sixth of a pass of normals (80 us against 500)
_MIN_PASSES = 4


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
    would be; z and tmp (uint64, z's shape) are overwritten, and out may be
    tmp itself viewed as float64 when both are 1-D; z is contiguous.

    numpy's uint64 -> float64 cast is not vectorised, its int64 one is. The
    32-bit halves convert exactly through int64 views, and float(hi) * 2**32
    is exact too, so float(hi) * 2**32 + float(lo) is z rounded once. Each
    half is converted in place where it lies; a 1-D cast onto its own bytes
    reads each value before writing it and makes no temporary.
    """
    np.right_shift(z, np.uint64(32), out=tmp)
    np.copyto(out, tmp.view(np.int64), casting="unsafe")
    out *= _TWO_32
    z &= _LOW_32
    flat = z.reshape(-1)  # z is contiguous: a 1-D view, cast in place
    np.copyto(flat.view(np.float64), flat.view(np.int64), casting="unsafe")
    out += z.view(np.float64)


def as_count(value, name, least=1):
    """int(value) for an integer (not a bool) >= least; anything else is a
    ConfigError naming the argument."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def box_muller_pair(u1, u2):
    """Two arrays of uniforms in (0, 1] -> a pair of independent standard
    normal arrays: (r cos a, r sin a) with r = sqrt(-2 ln u1) in float64 and
    a = float32(2 pi u2). cos a and sin a are taken in float32 and widened,
    so each value is within about 4e-7 r of the float64 transform."""
    r = np.sqrt(-2.0 * np.log(u1))
    ang = (_TWO_PI * u2).astype(np.float32)
    return r * np.cos(ang).astype(np.float64), r * np.sin(ang).astype(np.float64)


class _Workspace:
    """The draw kernel's scratch for passes of up to `size` values: two
    uint64 buffers, which the mixing, the float conversion and Box-Muller
    take in turn, and the row keys of a wide pass. A thread reuses one
    across all its draws; the calling thread allocates it."""

    __slots__ = ("z", "tmp", "row_keys")

    def __init__(self, size=PASS_SIZE):
        self.z = np.empty(size, dtype=np.uint64)
        self.tmp = np.empty(size, dtype=np.uint64)
        # a wide pass has at least _NARROW columns, so at most this many rows
        self.row_keys = np.empty(max(1, size // _NARROW), dtype=np.uint64)


def _draw(states, first, out, normal, work=None):
    """Fill out[r, j] from the stream whose seed state is states[r].

    Uniforms: out[r, j] is uniform number first + j + 1 of that stream, in
    (0, 1]. Normals: out[r, j] is normal j of the Box-Muller pairs over the
    uniforms from number first + 1 on (pair p reads uniforms 2p and 2p + 1
    past `first`), made as in box_muller_pair: float64 radius, float32
    angle, float32 cos and sin widened to float64, so each normal is within
    about 4e-7 times its radius of the float64 transform. The work goes in
    passes of at most PASS_SIZE values through `work` (a _Workspace, made
    to fit when none is given): a pass is a block of whole rows when a row
    is narrower than a pass, or a run of columns of one row when it is
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
    if work is None:
        work = _Workspace(per * cols)
    for c0 in range(0, width, cols):
        cw = min(cols, width - c0)
        # GOLDEN times a column's counter, formed as a masked python int: for
        # the pass's first column, or for each column of a narrow pass, which
        # is keyed one column at a time, since a broadcast add over rows only
        # a few columns wide runs its inner loop a few values at a time
        keys = [np.uint64((_GOLDEN * (first + c0 + j + 1)) & _MASK)
                for j in range(cw if cw < _NARROW else 1)]
        for r0 in range(0, rows, per):
            r1 = min(r0 + per, rows)
            m, size = r1 - r0, (r1 - r0) * cw
            zb = work.z[:size].reshape(m, cw)
            sb = work.tmp[:size].reshape(m, cw)
            if cw < _NARROW:
                for j, key in enumerate(keys):
                    np.add(states[r0:r1], key, out=zb[:, j])
            else:
                row_keys = work.row_keys[:m]
                np.add(states[r0:r1], keys[0], out=row_keys)
                np.add(row_keys[:, None], _KEYS[None, :cw], out=zb)
            _mix64_inplace(zb, sb)
            if not normal:
                ub = out[r0:r1, c0:c0 + cw]
                _as_float64(zb, sb, ub)
                ub += 1.0
                ub *= _INV_2_64
                continue
            # the uniforms take tmp's bytes; once read, the float64 radius
            # and angle take z's, and the float32 angle and trig tmp's
            ub = work.tmp[:size].view(np.float64)
            _as_float64(work.z[:size], work.tmp[:size], ub)
            ub = ub.reshape(m, cw)
            ub += 1.0
            ub *= _INV_2_64
            half = size // 2
            wide, narrow = work.z.view(np.float64), work.tmp.view(np.float32)
            rb, wb = (wide[k * half:(k + 1) * half].reshape(m, cw // 2) for k in (0, 1))
            np.log(ub[:, 0::2], out=rb)
            rb *= -2.0
            np.sqrt(rb, out=rb)
            np.multiply(ub[:, 1::2], _TWO_PI, out=wb)
            ab, tb = (narrow[k * half:(k + 1) * half].reshape(m, cw // 2) for k in (0, 1))
            np.copyto(ab, wb, casting="same_kind")
            dst = out[r0:r1, c0:min(c0 + cw, n)]
            np.cos(ab, out=tb)
            np.copyto(wb, tb)
            np.multiply(rb, wb, out=dst[:, 0::2])
            # with n odd, the last pair's partner is never made: only the
            # pairs whose sine lands in out take one
            p = dst.shape[1] // 2
            np.sin(ab[:, :p], out=tb[:, :p])
            np.copyto(wb[:, :p], tb[:, :p])
            np.multiply(rb[:, :p], wb[:, :p], out=dst[:, 1::2])


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
        n = as_count(n, "n", 0)
        out = np.empty(n, dtype=np.float64)
        _draw(np.array([self.seed_state], dtype=np.uint64), self.counter, out[None, :], False)
        self.counter += n
        return out

    def normals(self, n):
        """n standard normals; pairs are consumed in order with a carry slot,
        so scalar and block draws read the same sequence."""
        n = as_count(n, "n", 0)
        out = self._normals_at(0, n, np.empty(n + 1))
        self._skip_normals(n)
        return out

    def _normals_at(self, skip, count, buf, work=None):
        """Normals skip, ..., skip + count - 1 of those normals() would hand
        out next, as a view of buf (at least count + 1 floats); the stream
        does not move, so threads can read disjoint runs of it at once."""
        state = np.array([self.seed_state], dtype=np.uint64)
        q = skip - (self._cached_normal is not None)  # place among the pairs
        if q < 0:
            buf[0] = self._cached_normal
            _draw(state, self.counter, buf[None, 1:count], True, work)
            return buf[:count]
        odd = q & 1  # an odd place starts on a pair's sine
        _draw(state, self.counter + q - odd, buf[None, :count + odd], True, work)
        return buf[odd:count + odd]

    def _skip_normals(self, n):
        """Leave the stream as normals(n) would, drawing at most the carry."""
        if n == 0:
            return
        q = n - (self._cached_normal is not None)
        carry = float(self._normals_at(n, 1, np.empty(2))[0]) if q & 1 else None
        self.counter += q + (q & 1)
        self._cached_normal = carry


def _derived_states(stream, stages, lo, hi, out=None, tmp=None):
    """[len(stages), hi-lo] seed states; entry [k, i] is that of
    stream.derive(stages[k], lo+i). They are written into the uint64 buffer
    `out` and mixed with the scratch `tmp` where these are given."""
    h1 = [_mix64((stream.seed_state + _GOLDEN * (int(s) + 1)) & _MASK) for s in stages]
    shape = (len(h1), hi - lo)
    z = np.empty(shape, dtype=np.uint64) if out is None else out[:math.prod(shape)].reshape(shape)
    for j0 in range(0, hi - lo, PASS_SIZE):
        j1 = min(j0 + PASS_SIZE, hi - lo)
        # h1 + GOLDEN * (lo + j + 1) for the columns j of this run
        heads = np.array([(h + _GOLDEN * (lo + j0 + 1)) & _MASK for h in h1], dtype=np.uint64)
        np.add(heads[:, None], _KEYS[:j1 - j0], out=z[:, j0:j1])
    _mix64_inplace(z, np.empty_like(z) if tmp is None else tmp[:z.size].reshape(shape))
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


def make_uniform_grid(horizon, num_steps):
    """The uniform time grid on [0, horizon]: a read-only float64 array of
    the num_steps + 1 times t_0 = 0 < ... < t_N, the last pinned to horizon
    exactly. N is grid.size - 1, step n's dt is grid[n + 1] - grid[n]."""
    real = isinstance(horizon, numbers.Real) and not isinstance(horizon, bool)
    if not real or not math.isfinite(horizon) or horizon <= 0.0:
        raise ConfigError(f"horizon must be a finite number > 0, got {horizon!r}")
    num_steps = as_count(num_steps, "num_steps")
    times = np.arange(num_steps + 1, dtype=np.float64) * (horizon / num_steps)
    times[-1] = horizon
    times.flags.writeable = False
    return times


def _usable_cpus():
    """The CPUs this process may run on: its affinity set where the system
    reports one (Linux), else os.cpu_count() (macOS, Windows)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _shares(count, least):
    """Near-equal [a, b) spans that cover range(count) in order: one per
    usable CPU, but none with fewer than `least` units, so short work
    stays one span."""
    k = max(1, min(_usable_cpus(), count // least))
    return [(count * i // k, count * (i + 1) // k) for i in range(k)]


def _run_spans(work, spans):
    """Calls work(*span) for every span of the list, each on a thread of
    its own: the first on the calling thread, the rest on threads started
    before it and joined after it, each in a copy of the caller's context,
    so numpy's error state holds there too. One span runs as a plain call,
    and so does a span whose thread the system refuses to start. The spans
    must write disjoint output. Once all are joined, the error of the first
    span that raised is raised: the one a loop over the spans would meet
    first."""
    errors = [None] * len(spans)

    def run(k):
        try:
            work(*spans[k])
        except BaseException as e:  # re-raised below, in span order
            errors[k] = e

    here, threads = [0], []
    for k in range(1, len(spans)):
        t = threading.Thread(target=contextvars.copy_context().run, args=(run, k))
        try:
            t.start()
        except RuntimeError:  # "can't start new thread"
            here.append(k)
        else:
            threads.append(t)
    for k in here:
        run(k)
    for t in threads:
        t.join()
    for e in errors:
        if e is not None:
            raise e


def _simulate_block(problem, grid, stream, lo, hi):
    """Samples [lo, hi) of a batch as fresh (states, increments), hi - lo
    rows each, stored step-major: the arrays are [N+1, m, d] and [N, m, d]
    in memory and are returned as their [m, N+1, d] and [m, N, d]
    transposed views, so each step's slab [:, n, :] is contiguous.

    Sample i's step-n increments come from the sub-stream (n+1, i). They
    are drawn straight into increments, in pieces of about one kernel pass:
    runs of samples on the outer loop, each taken through its steps on the
    inner one, whole steps at a time when the block's slab fits in a pass.
    Each piece is scaled by sqrt(dt) and s, written into the states, and
    summed along time in place, X_{n+1} = X_n + s dW_n, while it is still
    in cache. The samples are cut into one span per CPU (_shares,
    _run_spans), each drawing through its own workspace and seed buffer;
    every value is a function of its sample and step alone, so the arrays
    are the same bits on any number of CPUs.
    """
    n_steps = grid.size - 1
    d = problem.d
    m = hi - lo
    states = np.empty((n_steps + 1, m, d), dtype=np.float64)
    increments = np.empty((n_steps, m, d), dtype=np.float64)
    states[0] = problem.xi.sample_block(stream, lo, hi)
    scale = np.sqrt(np.diff(grid))
    run = max(1, PASS_SIZE // d)  # samples of one step in a pass

    def simulate(a, b, work, seeds):
        # whole steps in a pass, when the span is the block
        per = max(1, run // m) if b - a == m else 1
        for r0 in range(a, b, run):
            r1 = min(r0 + run, b)
            for s0 in range(0, n_steps, per):
                s1 = min(s0 + per, n_steps)
                # whole steps of the block, or one step of a run: either is
                # contiguous, so the draw's reshape is a view
                inc = increments[s0:s1, r0:r1]
                keys = _derived_states(stream, range(s0 + 1, s1 + 1), lo + r0, lo + r1,
                                       seeds, work.tmp)
                _draw(keys.reshape(-1), 0, inc.reshape(-1, d), True, work)
                inc *= scale[s0:s1, None, None]
                x = states[s0:s1 + 1, r0:r1]
                np.multiply(inc, problem.sigma, out=x[1:])
                for n in range(s1 - s0):
                    x[n + 1] += x[n]

    # a span's samples hold at least _MIN_PASSES passes; its buffers fit its
    # largest pass, and its seeds one piece's rows
    least = -(-_MIN_PASSES * PASS_SIZE // (n_steps * d))
    size, rows = min(PASS_SIZE, m * n_steps * (d + (d & 1))), min(run, m * n_steps)
    _run_spans(simulate, [(a, b, _Workspace(size), np.empty(rows, dtype=np.uint64))
                          for a, b in _shares(m, least)])
    # a non-finite state stays non-finite in every later sum (s dW is never
    # NaN), so the terminal states show every bad sample
    bad = np.flatnonzero(~np.isfinite(states[-1]).all(axis=1))
    if bad.size:
        raise NumericError(f"non-finite state in sample {lo + int(bad[0])}")
    return states.transpose(1, 0, 2), increments.transpose(1, 0, 2)


def simulate_paths(problem, grid, batch, stream):
    """Simulate forward paths; returns (states, increments), float64 arrays
    shaped [batch, N+1, d] and [batch, N, d]. states[:, 0, :] is the initial
    draw and states[:, n+1, :] = states[:, n, :] + s increments[:, n, :];
    increment n has variance dt_n per axis. Both are step-major views (see
    `_simulate_block`): each step's slab [:, n, :] is contiguous.

    Sample i draws its initial point from the sub-stream (0, i) and its
    step-n increments from (n+1, i), so any [lo, hi) block of the batch
    simulated on its own (`_simulate_block`) is bitwise identical to the
    same rows of the full batch.
    """
    return _simulate_block(problem, grid, stream, 0, as_count(batch, "batch"))
