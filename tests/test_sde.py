import hashlib
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import deepbsde
from deepbsde.errors import ConfigError, NumericError, ShapeError
from deepbsde.problems import ProblemSpec, XiSampler, get_problem
from deepbsde.sde import (
    PASS_SIZE,
    RngStream,
    _as_float64,
    _draw,
    _run_spans,
    _simulate_block,
    _usable_cpus,
    block_normals,
    block_uniforms,
    box_muller_pair,
    make_uniform_grid,
    simulate_paths,
)

from conftest import machine


def _free_problem(d, sigma, g=None):
    return ProblemSpec(
        name="test", d=d, T=1.0, sigma=sigma,
        f=None, g=(g or (lambda x: np.zeros(x.shape[0]))),
        xi=XiSampler.point_mass(np.zeros(d)), exact=None,
    )


# -- generator ----------------------------------------------------------------

def test_splitmix_reference_sequence():
    # seed 0 must reproduce the published splitmix64 output sequence
    s = RngStream(0)
    got = [s.next_u64() for _ in range(3)]
    assert got == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_box_muller_hand_value():
    # u1=0.5, u2=0.25: r = sqrt(-2 ln 0.5), angle float32(pi/2), whose
    # float32 cosine is about -4.4e-8 and sine is 1
    a, b = box_muller_pair(np.array([0.5]), np.array([0.25]))
    r = np.sqrt(-2.0 * np.log(0.5))
    ang = np.float32(np.pi / 2.0)
    assert a[0] == r * np.float64(np.cos(ang))
    assert b[0] == r * np.float64(np.sin(ang))
    assert b[0] == r


def test_normal_moments():
    # mean, variance and fourth moment each within about 4 standard errors,
    # and the Kolmogorov-Smirnov distance to N(0, 1) below its 0.1% level
    draws = RngStream(2024).normals(1_000_000)
    assert abs(draws.mean()) < 4.0 / 1000.0
    assert abs(draws.var() - 1.0) < 0.01
    assert abs(np.mean(draws ** 4) - 3.0) < 0.04
    assert stats.kstest(draws, "norm").statistic < 1.95 / 1000.0


def test_normals_stay_within_float32_angle_bound():
    # against Box-Muller taken wholly in float64 over the same uniforms, the
    # float32 angle and trig move a normal by at most about 4e-7 r
    n = 1_000_000
    u = RngStream(19).uniforms(2 * n)
    r = np.sqrt(-2.0 * np.log(u[0::2]))
    ang = 2.0 * np.pi * u[1::2]
    want = np.stack([r * np.cos(ang), r * np.sin(ang)], axis=-1).reshape(-1)
    got = RngStream(19).normals(2 * n)
    assert np.all(np.abs(got - want) <= 4e-7 * np.repeat(r, 2))


def test_uint64_conversion_is_bitwise_the_cast():
    # the kernel's split conversion rounds once, as python's float(int) does,
    # at the edges of exact float64 integers and of the uint64 range
    edges = [0, 1, 2 ** 53 - 1, 2 ** 53, 2 ** 53 + 1, 2 ** 64 - 2 ** 11 + 1, 2 ** 64 - 1]
    mixed = [RngStream(4).next_u64() for _ in range(1000)]
    values = edges + mixed
    z = np.array(values, dtype=np.uint64)
    got = np.empty(z.size)
    _as_float64(z, np.empty_like(z), got)
    assert got.tolist() == [float(v) for v in values]


def test_uniforms_in_half_open_interval():
    u = RngStream(5).uniforms(10000)
    assert np.all(u > 0.0)
    assert np.all(u <= 1.0)


def test_same_seed_identical_sequences():
    a = RngStream(42)
    b = RngStream(42)
    assert np.array_equal(a.normals(1000), b.normals(1000))


def test_derived_streams_differ():
    root = RngStream(7)
    xs = root.derive(0).normals(100)
    ys = root.derive(1).normals(100)
    assert not np.array_equal(xs, ys)


def test_derive_is_stable_under_root_consumption():
    root = RngStream(9)
    before = root.derive(3).normals(8)
    root.normals(50)
    after = root.derive(3).normals(8)
    assert np.array_equal(before, after)


def test_scalar_draws_match_vector_draws():
    a = RngStream(11)
    b = RngStream(11)
    vec = b.normals(7)
    got = np.array([a.normals(1)[0] for _ in range(7)])
    assert np.array_equal(got, vec)


def test_normals_split_invariance():
    # the cached Box-Muller partner must survive across calls
    a = RngStream(123)
    b = RngStream(123)
    whole = a.normals(9)
    parts = np.concatenate([b.normals(3), b.normals(1), b.normals(5)])
    assert np.array_equal(whole, parts)


def test_block_normals_rows_match_derived_streams():
    root = RngStream(77)
    block = block_normals(root, stage=4, lo=10, hi=16, n=12)
    assert block.shape == (6, 12)
    for i in range(6):
        row = root.derive(4, 10 + i).normals(12)
        assert np.array_equal(block[i], row)


# -- pinned bytes ---------------------------------------------------------------
# Each digest is the first 16 hex digits of the sha256 of the float64 bytes.
# The sizes straddle the kernel's pass of 2**15 values. The uniform digests
# need only integer arithmetic and exact conversions; the normal and path
# digests also depend on numpy's SIMD math (float64 log, float32 sin and
# cos) and were taken with numpy 2.4.6 on X86_V4 (AVX-512).

def _digest(a):
    return hashlib.sha256(np.ascontiguousarray(a, dtype=np.float64).tobytes()).hexdigest()[:16]


# n: (digest of RngStream(2024).normals(n), of RngStream(2024).uniforms(n))
STREAM_PINS = {
    1: ("06b99b68bc74fc66", "d8620b970da94feb"),
    2: ("abca926fa365fd62", "09f3eaa5c3e93dd5"),
    32767: ("dfe0dbd3e5ecaf4a", "3445d46cd7ef2644"),
    32768: ("1f611ab6bd5f01ec", "60773a63ee2dee85"),
    32769: ("0e8e770f47cd40e9", "04bb8cc44b39ce42"),
    1_000_001: ("9753104dc83df6be", "843fc37a4adab32c"),
}

# (lo, hi, n): (digest of block_normals(RngStream(77), 4, lo, hi, n), of block_uniforms)
BLOCK_PINS = {
    (10, 16, 7): ("cbec459a0d5e6488", "1db0a865089e4e5f"),
    (5, 7, 32771): ("55c303cdb5e6eeea", "2f8ccd269ae81016"),
    (0, 3, 65538): ("cd507104be576500", "dd247ba973b0238e"),
}

# (problem, d, batch, N, overrides): (digest of states, of increments), seed 31
SIMULATE_PINS = {
    ("hjb", 100, 64, 20, ()): ("cc55e06b990eedf1", "fdda495c8394ba14"),
    ("allen_cahn", 1, 256, 40, ()): ("d40bbaa4867b6613", "0bf37425f6ce910d"),
    ("heat", 2, 33, 5, (("xi_mode", "box"),)): ("82dbe6431559ded1", "128b8568b53f5690"),
}


@pytest.mark.parametrize("n", sorted(STREAM_PINS))
def test_stream_draws_pinned(n):
    normals, uniforms = STREAM_PINS[n]
    assert _digest(RngStream(2024).normals(n)) == normals, machine()
    assert _digest(RngStream(2024).uniforms(n)) == uniforms, machine()


@pytest.mark.parametrize("lo, hi, n", sorted(BLOCK_PINS))
def test_block_draws_pinned(lo, hi, n):
    normals, uniforms = BLOCK_PINS[(lo, hi, n)]
    assert _digest(block_normals(RngStream(77), 4, lo, hi, n)) == normals, machine()
    assert _digest(block_uniforms(RngStream(77), 4, lo, hi, n)) == uniforms, machine()


@pytest.mark.parametrize("key", sorted(SIMULATE_PINS))
def test_simulated_paths_pinned(key):
    name, d, batch, steps, overrides = key
    p = get_problem(name, d, dict(overrides))
    paths, incs = simulate_paths(p, make_uniform_grid(p.T, steps), batch, RngStream(31))
    assert (_digest(paths), _digest(incs)) == SIMULATE_PINS[key], machine()


def test_normals_split_across_a_pass_boundary():
    s = RngStream(123)
    parts = np.concatenate([s.normals(PASS_SIZE - 1), s.normals(3)])
    assert np.array_equal(parts, RngStream(123).normals(PASS_SIZE + 2))
    assert _digest(parts) == "c167cf798e2db0cd"


def _scalar_uniforms(stream, n):
    """n uniforms of a stream from its python-int splitmix64 outputs, mapped
    into (0, 1] without the kernel."""
    return np.array([(float(stream.next_u64()) + 1.0) * 2.0 ** -64 for _ in range(n)])


def _scalar_normals(stream, n):
    """n normals of a stream: its scalar uniforms paired through
    box_muller_pair, without the kernel."""
    u = _scalar_uniforms(stream, n + (n & 1))
    z0, z1 = box_muller_pair(u[0::2], u[1::2])
    return np.stack([z0, z1], axis=-1).reshape(-1)[:n]


@pytest.mark.parametrize("first", [0, 5])
def test_draw_kernel_matches_scalar_reference(first):
    # two rows, each wider than one pass
    n = PASS_SIZE + 3
    seeds = [11, 2 ** 64 - 1]

    def want(scalar):
        rows = []
        for seed in seeds:
            s = RngStream(seed)
            s.counter = first
            rows.append(scalar(s, n))
        return np.array(rows)

    states = np.array(seeds, dtype=np.uint64)
    got_u = np.empty((2, n))
    got_z = np.empty((2, n))
    _draw(states, first, got_u, False)
    _draw(states, first, got_z, True)
    assert np.array_equal(got_u, want(_scalar_uniforms))
    assert np.array_equal(got_z, want(_scalar_normals))


def test_draws_raise_no_numpy_warnings():
    # counters near 2**64 wrap; every offset must wrap silently
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = RngStream(2 ** 64 - 3)
        u = s.uniforms(3 * PASS_SIZE + 5)
        z = s.normals(3 * PASS_SIZE + 5)
        b = block_normals(s, 2 ** 40, 2 ** 63, 2 ** 63 + 3, 2 * PASS_SIZE + 1)
        p = _free_problem(2, 1.0)
        simulate_paths(p, make_uniform_grid(1.0, 3), 5, s.derive(2 ** 62))
    assert np.all((u > 0.0) & (u <= 1.0))
    assert np.all(np.isfinite(z)) and np.all(np.isfinite(b))


def test_block_normals_odd_width_wider_than_a_pass_match_streams():
    root = RngStream(3)
    block = block_normals(root, 2, 0, 2, PASS_SIZE + 1)
    for i in range(2):
        assert np.array_equal(block[i], root.derive(2, i).normals(PASS_SIZE + 1))


# -- time grid ----------------------------------------------------------------

def test_uniform_grid_quarters():
    grid = make_uniform_grid(1.0, 4)
    assert np.array_equal(grid, np.array([0.0, 0.25, 0.5, 0.75, 1.0]))
    assert grid.size - 1 == 4


def test_uniform_grid_single_step():
    grid = make_uniform_grid(2.5, 1)
    assert np.array_equal(grid, np.array([0.0, 2.5]))


def test_uniform_grid_endpoint_exact():
    grid = make_uniform_grid(0.7, 7)
    assert grid[-1] == 0.7


def test_grid_validation():
    with pytest.raises(ConfigError):
        make_uniform_grid(-1.0, 4)
    with pytest.raises(ConfigError):
        make_uniform_grid(1.0, 0)


@pytest.mark.parametrize("horizon, num_steps, message", [
    (1.0, 2.5, "num_steps must be an integer"),
    (1.0, True, "num_steps must be an integer"),
    (1.0, np.int64(0), "num_steps must be an integer >= 1"),
    (float("nan"), 4, "horizon must be a finite number > 0"),
    (float("inf"), 4, "horizon must be a finite number > 0"),
    (0.0, 4, "horizon must be a finite number > 0"),
    ("1.0", 4, "horizon must be a finite number > 0"),
], ids=["fractional-steps", "bool-steps", "zero-numpy-steps", "nan-horizon", "inf-horizon",
        "zero-horizon", "string-horizon"])
def test_uniform_grid_checks_its_arguments(horizon, num_steps, message):
    # (1.0, 2.5) once built a 3-step grid with steps 0.4, 0.4 and 0.2, and a
    # NaN horizon failed as "time grid must start at 0"
    with pytest.raises(ConfigError, match=message):
        make_uniform_grid(horizon, num_steps)


def test_grid_times_read_only():
    grid = make_uniform_grid(1.0, 4)
    with pytest.raises(ValueError):
        grid[0] = 5.0


# -- path simulation ----------------------------------------------------------

def test_frozen_paths_under_zero_coefficients():
    p = ProblemSpec(
        name="test", d=2, T=1.0, sigma=0.0,
        f=None, g=lambda x: np.zeros(x.shape[0]),
        xi=XiSampler.point_mass(np.array([1.5, -2.0])), exact=None,
    )
    paths, _ = simulate_paths(p, make_uniform_grid(1.0, 5), 4, RngStream(1))
    for n in range(6):
        assert np.array_equal(paths[:, n, :], np.tile([1.5, -2.0], (4, 1)))


def test_telescoping_sum_of_increments():
    p = _free_problem(1, 1.0)
    grid = make_uniform_grid(1.0, 8)
    paths, incs = simulate_paths(p, grid, 16, RngStream(3))
    x = paths[:, 0, :].copy()
    for n in range(8):
        x = x + incs[:, n, :]
    assert np.array_equal(x, paths[:, 8, :])


def test_terminal_variance_matches_brownian_law():
    p = _free_problem(1, 1.0)
    paths, _ = simulate_paths(p, make_uniform_grid(1.0, 10), 100_000, RngStream(8))
    var = paths[:, -1, 0].var()
    assert abs(var - 1.0) < 0.03


def test_increment_statistics():
    p = _free_problem(3, 1.0)
    grid = make_uniform_grid(1.0, 4)
    _, incs = simulate_paths(p, grid, 100_000, RngStream(12))
    dt = 0.25
    n = incs.shape[0]
    se_mean = np.sqrt(dt / n)
    se_var = dt * np.sqrt(2.0 / n)
    for step in range(4):
        for k in range(3):
            col = incs[:, step, k]
            assert abs(col.mean()) < 4 * se_mean
            assert abs(col.var() - dt) < 4 * se_var


def test_paths_accumulate_scaled_increments_bitwise():
    p = ProblemSpec(
        name="test", d=2, T=1.0, sigma=1.7,
        f=None, g=lambda x: np.zeros(x.shape[0]),
        xi=XiSampler.uniform_box(np.array([-1.0, -1.0]), np.array([1.0, 1.0])),
        exact=None,
    )
    grid = make_uniform_grid(1.0, 6)
    paths, incs = simulate_paths(p, grid, 32, RngStream(21))
    # the two arrays themselves, as the rollouts take them: step-major views,
    # so that every step's slab arr[:, n, :] is contiguous
    for arr, shape in ((paths, (32, 7, 2)), (incs, (32, 6, 2))):
        assert type(arr) is np.ndarray and arr.dtype == np.float64 and arr.shape == shape
        assert arr.transpose(1, 0, 2).flags.c_contiguous
    for n in range(6):
        want = paths[:, n, :] + 1.7 * incs[:, n, :]
        assert np.array_equal(paths[:, n + 1, :], want)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_overflowing_paths_name_the_first_bad_sample():
    # the same stream with s = 1 gives the increments; s = 1e308 overflows
    # the running sum of some samples, and the first of them is named
    grid = make_uniform_grid(1.0, 4)
    _, incs = simulate_paths(_free_problem(2, 1.0), grid, 64, RngStream(3))
    sums = np.cumsum(1e308 * incs, axis=1)
    first = int(np.flatnonzero(~np.isfinite(sums).all(axis=(1, 2)))[0])
    assert first > 0
    with pytest.raises(NumericError, match=f"non-finite state in sample {first}$"):
        simulate_paths(_free_problem(2, 1e308), grid, 64, RngStream(3))
    # a block that starts past 0 names the sample by its index in the batch
    later = int(np.flatnonzero(~np.isfinite(sums[first + 1:]).all(axis=(1, 2)))[0]) + first + 1
    with pytest.raises(NumericError, match=f"non-finite state in sample {later}$"):
        _simulate_block(_free_problem(2, 1e308), grid, RngStream(3), first + 1, 64)


def test_seed_determinism():
    p = _free_problem(2, np.sqrt(2.0))
    grid = make_uniform_grid(1.0, 5)
    a_paths, a_incs = simulate_paths(p, grid, 64, RngStream(99))
    b_paths, b_incs = simulate_paths(p, grid, 64, RngStream(99))
    assert np.array_equal(a_paths, b_paths)
    assert np.array_equal(a_incs, b_incs)


def test_parallel_simulation_matches_serial():
    p = ProblemSpec(
        name="test", d=3, T=1.0, sigma=np.sqrt(2.0),
        f=None, g=lambda x: np.zeros(x.shape[0]),
        xi=XiSampler.uniform_box(-np.ones(3), np.ones(3)), exact=None,
    )
    # rows [lo, hi) simulated on their own equal the same rows of the batch,
    # so a batch can be split into chunks that run anywhere
    grid = make_uniform_grid(1.0, 7)
    full_paths, full_incs = simulate_paths(p, grid, 101, RngStream(5))
    for lo, hi in ((0, 26), (26, 27), (27, 101)):
        states, incs = _simulate_block(p, grid, RngStream(5), lo, hi)
        assert np.array_equal(states, full_paths[lo:hi])
        assert np.array_equal(incs, full_incs[lo:hi])


def test_simulation_rejects_empty_batch():
    p = _free_problem(1, 1.0)
    with pytest.raises((ConfigError, ShapeError)):
        simulate_paths(p, make_uniform_grid(1.0, 2), 0, RngStream(1))


@pytest.mark.parametrize("d, batch, steps, rows", [
    (1, 5, 4, range(5)),
    (3, 5, 4, range(5)),
    (7, 5, 4, range(5)),
    (1, 33_000, 2, (0, PASS_SIZE - 1, PASS_SIZE, 32_999)),
], ids=["d1", "d3", "d7", "d1-slab-in-runs"])
def test_paths_match_scalar_sub_streams(d, batch, steps, rows):
    # the kernel's pieces: several whole steps for a small batch, runs of
    # samples within one step when a step's slab is wider than a pass; and
    # its odd widths, with passes narrower (d = 1, 3) and not narrower (d = 7)
    # than the column-at-a-time keying
    p = ProblemSpec(
        name="test", d=d, T=1.0, sigma=1.3,
        f=None, g=lambda x: np.zeros(x.shape[0]),
        xi=XiSampler.uniform_box(-np.ones(d), np.ones(d)), exact=None,
    )
    grid = make_uniform_grid(1.0, steps)
    root = RngStream(17)
    paths, incs = simulate_paths(p, grid, batch, root)
    dt = np.diff(grid)
    for i in rows:
        x = p.xi.sample_block(root, i, i + 1)[0]
        assert np.array_equal(paths[i, 0], x)
        for n in range(steps):
            # the kernel's stream draws, and the python-int reference
            z = root.derive(n + 1, i).normals(d)
            assert np.array_equal(z, _scalar_normals(root.derive(n + 1, i), d))
            dw = z * np.sqrt(dt[n])
            assert np.array_equal(incs[i, n], dw), (i, n)
            x = x + 1.3 * dw
            assert np.array_equal(paths[i, n + 1], x), (i, n)


def test_simulation_memory_stays_bounded():
    # only the two results span the batch: the seeds, the kernel's buffers
    # and the per-sample keys are each about one pass
    p = get_problem("allen_cahn", 1)
    grid = make_uniform_grid(p.T, 40)
    tracemalloc.start()
    try:
        paths, incs = simulate_paths(p, grid, 100_000, RngStream(47))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    extra = peak - paths.nbytes - incs.nbytes
    assert extra < 2e6, f"traced peak {extra / 1e6:.1f} MB over the results"


@pytest.mark.parametrize("batch", [2.5, True, 0, -3, "4"])
def test_simulation_checks_its_batch(batch):
    # 2.5 once failed as a TypeError from numpy, and True ran one sample
    p = _free_problem(1, 1.0)
    with pytest.raises(ConfigError, match="batch must be an integer >= 1"):
        simulate_paths(p, make_uniform_grid(1.0, 2), batch, RngStream(1))


@pytest.mark.parametrize("n", [-1, 2.5, True, "3"])
@pytest.mark.parametrize("kind", ["uniforms", "normals"])
def test_stream_draws_check_their_count(kind, n):
    # -1 once gave an empty array and 2.5 gave 2 draws, both silently
    s = RngStream(1)
    with pytest.raises(ConfigError, match="n must be an integer >= 0"):
        getattr(s, kind)(n)
    assert s.counter == 0 and getattr(s, kind)(np.int64(0)).shape == (0,)


# -- parallel spans -------------------------------------------------------------

@pytest.mark.parametrize("d, batch, steps", [(1, 100_000, 40), (100, 4_096, 20)],
                         ids=["d1", "d100"])
def test_simulation_is_the_same_on_one_worker_and_on_several(workers, d, batch, steps):
    # the benchmark workloads' held-out shapes; three workers on any machine
    p = _free_problem(d, 1.7)
    grid = make_uniform_grid(1.0, steps)
    workers(1)
    one = simulate_paths(p, grid, batch, RngStream(61))
    started = workers(3)
    several = simulate_paths(p, grid, batch, RngStream(61))
    assert len(started) == 2
    for a, b in zip(one, several):
        assert a.tobytes() == b.tobytes()


def _stream_after(seed, first):
    s = RngStream(seed)
    s.normals(first)
    return s


@pytest.mark.parametrize("first", [0, 2, 3], ids=["fresh", "even", "carry"])
def test_stream_reads_any_run_of_its_normals_without_moving(first):
    # what a Monte Carlo span reads: normals skip, ..., skip + count - 1 of
    # those normals() would hand out next, from an odd place or a carry too
    ahead = _stream_after(5, first).normals(40)
    s = _stream_after(5, first)
    for skip in range(12):
        for count in (0, 1, 2, 5, 6):
            got = s._normals_at(skip, count, np.empty(count + 1))
            assert got.tobytes() == ahead[skip:skip + count].tobytes(), (skip, count)
    assert (s.counter, s._cached_normal) == (_stream_after(5, first).counter,
                                             _stream_after(5, first)._cached_normal)
    for n in range(7):
        skipped, drawn = _stream_after(5, first), _stream_after(5, first)
        skipped._skip_normals(n)
        drawn.normals(n)
        assert (skipped.counter, skipped._cached_normal) == (drawn.counter, drawn._cached_normal)


def test_span_errors_are_raised_in_span_order():
    # every span runs to its end; the first span's error wins, as in a loop
    ran = []

    def work(k):
        ran.append(k)
        if k > 0:
            raise ValueError(f"span {k}")

    with pytest.raises(ValueError, match="^span 1$"):
        _run_spans(work, [(0,), (1,), (2,)])
    assert sorted(ran) == [0, 1, 2]


def test_a_span_whose_thread_will_not_start_runs_on_the_caller(workers, monkeypatch):
    # a system out of threads refuses with RuntimeError; the work still runs
    p = _free_problem(3, 1.1)
    grid = make_uniform_grid(1.0, 20)
    workers(1)
    one = simulate_paths(p, grid, 20_000, RngStream(9))

    def refuse(self):
        raise RuntimeError("can't start new thread")

    workers(3)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    several = simulate_paths(p, grid, 20_000, RngStream(9))
    for a, b in zip(one, several):
        assert a.tobytes() == b.tobytes()


def test_spans_keep_the_callers_numpy_error_state():
    # each thread runs in a copy of the caller's context
    seen = [None] * 3

    def work(k):
        seen[k] = np.geterr()["over"]

    with np.errstate(over="raise"):
        _run_spans(work, [(0,), (1,), (2,)])
    assert seen == ["raise"] * 3


def test_usable_cpus_fall_back_to_the_cpu_count(monkeypatch):
    # macOS and Windows have no sched_getaffinity
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert _usable_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _usable_cpus() == 1


def test_importing_the_package_starts_no_thread():
    # threads start only inside a call that splits its work; no pool is
    # built at import, and concurrent.futures is never loaded
    package_root = str(Path(deepbsde.__file__).resolve().parent.parent)
    code = """
import sys, threading
sys.path.insert(0, sys.argv[1])
import deepbsde
print("concurrent.futures" in sys.modules, threading.active_count())
"""
    proc = subprocess.run([sys.executable, "-c", code, package_root],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "1"]
