"""The discretized value process, its loss, and the loss's adjoint.

Given simulated paths, the rollout threads a value estimate Y through time,

    Y_{n+1} = Y_n - f(t_n, X_n, Y_n, Z_n) dt_n + Z_n . dW_n,

and the loss is the mean squared gap between Y_N and g(X_N). `_forward` is
the one place this recursion runs; its callers differ only in where Y_0 and
each Z_n come from:
  - rollout_loss: the bank's networks, saving on a Tape what the adjoint
    reads, so that `backward` returns the gradient over the bank
  - rollout_values: the bank's networks, saving nothing, for evaluation
  - oracle_rollout_loss: the closed-form solution in place of the networks,
    which isolates pure time-discretization error

The two tape-free rollouts walk the batch in consecutive blocks of
VALUE_BLOCK samples, so a large held-out batch never builds a temporary of
more than one block's rows; only their outputs, one number per sample, span
the batch, and the loss is taken once over the whole gap. The blocks leave
every bit of one whole-batch pass wherever OpenBLAS gives each row of a
block's products the kernel it gets in the whole batch, as on both
benchmark workloads (see VALUE_BLOCK): each sample's recursion reads only
its own rows. A failure names the step and sample one pass would name.

`backward` is the hand-derived adjoint. From ybar_N = 2 (Y_N - g) / B it
runs, for n = N-1, ..., 0,

    zbar_n = ybar_{n+1} (dW_n - dt_n f_z),   ybar_n = ybar_{n+1} (1 - dt_n f_y),

with the driver partials of `ProblemSpec.df`. Each zbar_n runs back through
step n's network, and ybar_0 through the initial-value head. The gradients
are views of one flat vector laid out like the bank's theta, and every step
adds into them, so a shared network sums over the steps and z0 over the batch.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError, ShapeError
from .net import mlp_backward, mlp_eval
from .problems import sample_xi

# Samples per block of the tape-free rollouts. A block's outputs are bitwise
# those of one whole-batch pass where OpenBLAS computes each row of each
# product with the same kernel either way. Its kernels sweep rows in tiles
# (4 rows in the dgemv of a d=1 output layer) and sum the rows of a partial
# tile in another order, so a block must be a multiple of every tile, as a
# power of two is. Blocks of 2,050 and 2,978 rows moved 41 and 26 of 100,000
# allen_cahn_d1 terminal values by up to 6 ulps; blocks of 1,024, 2,048 and
# 4,096 kept every bit on both benchmark workloads. The kernel also follows
# a product's size: blocks of 96 rows moved 33 of hjb_d100's 4,096 values,
# and at d=10 with (20, 20) hidden widths, where a 2,048-row product takes
# OpenBLAS's small-matrix kernel and a whole batch does not, blocks of 2,048
# move most values by round-off (about 3e-16 of their size).
VALUE_BLOCK = 2048


class _NonFiniteValue(NumericError):
    """Y went non-finite at `step`, first in row `sample` of the batch given."""

    def __init__(self, step, sample):
        super().__init__(f"non-finite value at step {step}, sample {sample}")
        self.step, self.sample = step, sample


class Node:
    """One array a rollout saved: its `value` and, where the reverse sweep
    keeps one, `adjoint`, the gradient of the loss with respect to it."""

    __slots__ = ("value", "adjoint")

    def __init__(self, value):
        self.value = value
        self.adjoint = None


class Tape:
    """Record of one differentiable rollout.

    `nodes` lists the arrays the forward saved for `backward`, the loss
    last. `param_ids` holds one id per bank tensor in flatten order; they
    key the gradients `backward` returns. `grad` is the flat gradient of
    the last `backward`.
    """

    def __init__(self):
        self.nodes = []
        self.param_ids = []
        self.grad = None
        self._record = None

    def __len__(self):
        return len(self.nodes)


@dataclass(frozen=True)
class RolloutResult:
    """Loss node plus per-sample diagnostics (plain arrays)."""

    loss: Node
    y0_values: np.ndarray
    terminal_gap: np.ndarray


@dataclass(frozen=True)
class ValueRollout:
    """Rollout outputs without a tape."""

    loss: float
    y0_values: np.ndarray
    terminal_values: np.ndarray
    terminal_gap: np.ndarray


def _check_paths(problem, grid, paths, increments):
    states = paths.states
    incs = increments.increments
    if states.ndim != 3 or incs.ndim != 3:
        raise ShapeError("paths and increments must be [batch, steps(+1), d] arrays")
    batch = states.shape[0]
    if batch < 1:
        raise ShapeError("empty batch")
    if states.shape != (batch, grid.num_steps + 1, problem.d):
        raise ShapeError(f"paths shaped {states.shape}, expected {(batch, grid.num_steps + 1, problem.d)}")
    if incs.shape != (batch, grid.num_steps, problem.d):
        raise ShapeError(f"increments shaped {incs.shape}, expected {(batch, grid.num_steps, problem.d)}")
    return states, incs


def _terminal_values(problem, x_terminal):
    """g(X_N) as a [batch] array, not yet checked."""
    return np.asarray(problem.g(x_terminal), dtype=np.float64).reshape(x_terminal.shape[0])


def _checked_terminal(g):
    if not np.all(np.isfinite(g)):
        bad = int(np.argwhere(~np.isfinite(g))[0][0])
        raise NumericError(f"non-finite terminal value g at sample {bad}")
    return g


def _mse(gap):
    loss = float(np.mean(gap ** 2))
    if not math.isfinite(loss):
        raise NumericError("non-finite loss")
    return loss


def _forward(problem, grid, states, incs, y, z_at, steps=None):
    """Y_N, [batch, 1], of the recursion from Y_0 = y.

    z_at(n, x_n, saved) gives Z_n; with a `steps` list it appends what the
    adjoint reads to `saved`, and step n appends (saved, 1 - dt f_y,
    dW - dt f_z) to `steps`.
    """
    batch = states.shape[0]
    for n in range(grid.num_steps):
        t_n = float(grid.times[n])
        dt_n = grid.dt(n)
        x_n = states[:, n, :]
        dw = incs[:, n, :]
        saved = None if steps is None else []
        z = z_at(n, x_n, saved)
        gain = np.sum(z * dw, axis=1, keepdims=True)
        if problem.f is None:
            y_next = y + gain
            a, c = 1.0, dw
        else:
            fv = np.broadcast_to(
                np.asarray(problem.f(t_n, x_n, y, z), dtype=np.float64), (batch, 1)
            )
            y_next = y - dt_n * fv + gain
            if steps is not None:
                f_y, f_z = problem.df(t_n, x_n, y, z)
                a, c = 1.0 - dt_n * f_y, dw - dt_n * f_z
        if steps is not None:
            steps.append((saved, a, c))
        y = y_next
        if not np.all(np.isfinite(y)):
            raise _NonFiniteValue(n, int(np.argwhere(~np.isfinite(y[:, 0]))[0][0]))
    return y


def _in_blocks(problem, states, incs, forward):
    """(Y_0, Y_N, g(X_N)), each [batch], from `forward(states, incs) ->
    (Y_0, Y_N)` run on consecutive blocks of VALUE_BLOCK samples.

    A failure is the one a single pass over the whole batch raises: a
    non-finite Y at the earliest step, lowest sample first, before any
    non-finite g(X_N), lowest sample first.
    """
    batch = states.shape[0]
    y0, y, g = np.empty(batch), np.empty(batch), np.empty(batch)
    failures = []
    for lo in range(0, batch, VALUE_BLOCK):
        hi = min(lo + VALUE_BLOCK, batch)
        try:
            y0_block, y_block = forward(states[lo:hi], incs[lo:hi])
        except _NonFiniteValue as e:
            failures.append((e.step, lo + e.sample))
            continue
        y0[lo:hi], y[lo:hi] = y0_block[:, 0], y_block[:, 0]
        g[lo:hi] = _terminal_values(problem, states[lo:hi, -1, :])
    if failures:
        raise _NonFiniteValue(*min(failures))
    return y0, y, _checked_terminal(g)


def _check_bank_paths(problem, bank, grid, paths, increments):
    if bank.d != problem.d:
        raise ConfigError(f"bank dimension {bank.d} != problem dimension {problem.d}")
    if bank.num_steps != grid.num_steps:
        raise ConfigError(f"bank has {bank.num_steps} steps, grid has {grid.num_steps}")
    return _check_paths(problem, grid, paths, increments)


def _bank_forward(problem, bank, grid, states, incs, head=None, steps=None):
    """(Y_0, Y_N), each [batch, 1], with the bank's networks; `head` and
    `steps` receive what the adjoint reads when given."""
    if bank.xi_mode == "point":
        y0 = np.full((states.shape[0], 1), bank.y0, dtype=np.float64)
    else:
        y0 = mlp_eval(bank.y0_net, bank.activation, states[:, 0, :], head)

    def z_at(n, x_n, saved):
        k = bank.z_index(n)
        if k is None:
            return np.broadcast_to(bank.z0, x_n.shape)
        return mlp_eval(bank.z_nets[k], bank.activation, x_n, saved)

    return y0, _forward(problem, grid, states, incs, y0, z_at, steps)


def rollout_loss(tape, problem, bank, grid, paths, increments):
    """Rollout that records on a fresh `tape` what `backward` reads.

    `tape.param_ids` follows flatten_params order, so a gradient vector is
    the concatenation of backward's arrays in that order.
    """
    if tape.nodes:
        raise ConfigError("a tape records one rollout; pass a fresh Tape")
    states, incs = _check_bank_paths(problem, bank, grid, paths, increments)
    head, steps = [], []
    y0, y = _bank_forward(problem, bank, grid, states, incs, head, steps)
    g = _checked_terminal(_terminal_values(problem, states[:, -1, :]))
    gap = g - y[:, 0]
    loss = Node(np.array(_mse(gap)))
    arrays = head + [v for saved, a, c in steps for v in (*saved, a, c)] + [y]
    tape.nodes = [Node(v) for v in arrays if isinstance(v, np.ndarray)] + [loss]
    tape.param_ids = list(range(len(bank.tensor_items())))
    tape._record = (bank, head, steps, y, g)
    return RolloutResult(loss=loss, y0_values=y0[:, 0].copy(), terminal_gap=gap)


def backward(tape, loss):
    """Reverse sweep of the rollout on `tape`; returns {param id: gradient},
    each a view shaped like its bank tensor into `tape.grad`, a fresh flat
    vector laid out like the bank's theta."""
    if tape._record is None or loss is not tape.nodes[-1]:
        raise ConfigError("backward needs the loss of the rollout recorded on this tape")
    bank, head, steps, y, g = tape._record
    loss.adjoint = np.ones_like(loss.value)
    grad = np.zeros(bank.theta.size)
    head_grads, net_grads = bank.views(grad)
    ybar = (2.0 / y.shape[0]) * (y - g[:, None])
    for n in range(len(steps) - 1, -1, -1):
        saved, a, c = steps[n]
        zbar = ybar * c
        ybar = ybar * a
        k = bank.z_index(n)
        if k is None:
            head_grads[1] += zbar.sum(axis=0)
        else:
            _add_layers(net_grads[k], mlp_backward(bank.z_nets[k], bank.activation, saved, zbar))
    if bank.xi_mode == "point":
        head_grads[0] += ybar.sum(axis=0)
    else:
        _add_layers(head_grads, mlp_backward(bank.y0_net, bank.activation, head, ybar))
    flat = head_grads + [v for views in net_grads for v in views]
    if not np.all(np.isfinite(grad)):
        name = next(name for (name, _), v in zip(bank.tensor_items(), flat)
                    if not np.all(np.isfinite(v)))
        raise NumericError(f"non-finite gradient for tensor '{name}'")
    tape.grad = grad
    return dict(zip(tape.param_ids, flat))


def _add_layers(views, layers):
    for view, arr in zip(views, (arr for layer in layers for arr in layer)):
        view += arr


def rollout_values(problem, bank, grid, paths, increments):
    """The forward of rollout_loss, saving nothing, as plain arrays, in
    blocks of VALUE_BLOCK samples."""
    states, incs = _check_bank_paths(problem, bank, grid, paths, increments)
    y0, y, g = _in_blocks(problem, states, incs, lambda s, i: _bank_forward(problem, bank, grid, s, i))
    gap = g - y
    return ValueRollout(loss=_mse(gap), y0_values=y0, terminal_values=y, terminal_gap=gap)


def oracle_rollout_loss(problem, grid, paths, increments):
    """Rollout with the closed-form solution in place of the networks.

    The initial value is u(0, x_0) and each step feeds z = s grad u exactly,
    so the returned loss is pure time-discretization error: its large-batch
    limit shrinks linearly in the step size on smooth problems.
    """
    if problem.exact is None:
        raise ConfigError(f"problem '{problem.name}' has no closed-form solution")
    states, incs = _check_paths(problem, grid, paths, increments)

    def z_at(n, x_n, saved):
        t_n = float(grid.times[n])
        grad = np.asarray(problem.exact.grad(t_n, x_n), dtype=np.float64)
        return grad * problem.sigma

    def forward(s, i):
        y0 = np.asarray(problem.exact.u(0.0, s[:, 0, :]), dtype=np.float64).reshape(s.shape[0], 1)
        return y0, _forward(problem, grid, s, i, y0, z_at)

    _, y, g = _in_blocks(problem, states, incs, forward)
    return _mse(g - y)


def estimate_u0(bank, problem, n_eval, stream):
    """(mean, stddev) of the initial-value head over fresh starting draws.

    From a point start the head is a scalar, so the spread is exactly 0.
    """
    if n_eval < 1:
        raise ConfigError(f"n_eval must be at least 1, got {n_eval}")
    if bank.xi_mode == "point":
        return float(bank.y0), 0.0
    x = sample_xi(problem, n_eval, stream)
    vals = mlp_eval(bank.y0_net, bank.activation, x)[:, 0]
    return float(np.mean(vals)), float(np.std(vals))
