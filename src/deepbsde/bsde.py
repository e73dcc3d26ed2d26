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
    return states, incs, batch


def _terminal_values(problem, x_terminal):
    g = np.asarray(problem.g(x_terminal), dtype=np.float64).reshape(x_terminal.shape[0])
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
            bad = int(np.argwhere(~np.isfinite(y[:, 0]))[0][0])
            raise NumericError(f"non-finite value at step {n}, sample {bad}")
    return y


def _bank_rollout(problem, bank, grid, paths, increments, head=None, steps=None):
    """(Y_0, Y_N, g(X_N)) with the bank's networks; `head` and `steps`
    receive what the adjoint reads when given."""
    if bank.d != problem.d:
        raise ConfigError(f"bank dimension {bank.d} != problem dimension {problem.d}")
    if bank.num_steps != grid.num_steps:
        raise ConfigError(f"bank has {bank.num_steps} steps, grid has {grid.num_steps}")
    states, incs, batch = _check_paths(problem, grid, paths, increments)

    if bank.xi_mode == "point":
        y0 = np.full((batch, 1), bank.y0, dtype=np.float64)
    else:
        y0 = mlp_eval(bank.y0_net, bank.activation, states[:, 0, :], head)

    def z_at(n, x_n, saved):
        k = bank.z_index(n)
        if k is None:
            return np.broadcast_to(bank.z0, x_n.shape)
        return mlp_eval(bank.z_nets[k], bank.activation, x_n, saved)

    y = _forward(problem, grid, states, incs, y0, z_at, steps)
    return y0, y, _terminal_values(problem, states[:, -1, :])


def rollout_loss(tape, problem, bank, grid, paths, increments):
    """Rollout that records on a fresh `tape` what `backward` reads.

    `tape.param_ids` follows flatten_params order, so a gradient vector is
    the concatenation of backward's arrays in that order.
    """
    if tape.nodes:
        raise ConfigError("a tape records one rollout; pass a fresh Tape")
    head, steps = [], []
    y0, y, g = _bank_rollout(problem, bank, grid, paths, increments, head, steps)
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
    """The forward of rollout_loss, saving nothing, as plain arrays."""
    y0, y, g = _bank_rollout(problem, bank, grid, paths, increments)
    gap = g - y[:, 0]
    return ValueRollout(
        loss=_mse(gap),
        y0_values=y0[:, 0].copy(),
        terminal_values=y[:, 0].copy(),
        terminal_gap=gap,
    )


def oracle_rollout_loss(problem, grid, paths, increments):
    """Rollout with the closed-form solution in place of the networks.

    The initial value is u(0, x_0) and each step feeds z = s grad u exactly,
    so the returned loss is pure time-discretization error: its large-batch
    limit shrinks linearly in the step size on smooth problems.
    """
    if problem.exact is None:
        raise ConfigError(f"problem '{problem.name}' has no closed-form solution")
    states, incs, batch = _check_paths(problem, grid, paths, increments)
    y0 = np.asarray(problem.exact.u(0.0, states[:, 0, :]), dtype=np.float64).reshape(batch, 1)

    def z_at(n, x_n, saved):
        t_n = float(grid.times[n])
        grad = np.asarray(problem.exact.grad(t_n, x_n), dtype=np.float64)
        return grad * problem.sigma

    y = _forward(problem, grid, states, incs, y0, z_at)
    return _mse(_terminal_values(problem, states[:, -1, :]) - y[:, 0])


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
