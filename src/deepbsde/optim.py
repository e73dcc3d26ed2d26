"""First-order optimizers over one flat float64 parameter vector.

Every step updates its arrays in place and returns None. Adam's m and v are
allocated once, by `AdamState.create`; that state is the optimizer's whole state.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError


def _check_pair(params, grads):
    # a converted copy of params would take the update and lose it
    if not isinstance(params, np.ndarray) or params.dtype != np.float64:
        raise ShapeError(f"params must be a float64 ndarray, got {getattr(params, 'dtype', type(params))}")
    grads = np.asarray(grads, dtype=np.float64)
    if params.shape != grads.shape or params.ndim != 1:
        raise ShapeError(f"params {params.shape} and grads {grads.shape} must be equal flat vectors")
    return grads


def sgd_step(params, grads, lr):
    """params -= lr * grads."""
    if lr <= 0.0:
        raise ConfigError(f"learning rate must be positive, got {lr}")
    params -= lr * _check_pair(params, grads)


@dataclass
class AdamState:
    """Moment accumulators; step_count counts completed updates."""

    m: np.ndarray
    v: np.ndarray
    step_count: int
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def create(cls, size, beta1=0.9, beta2=0.999, eps=1e-8):
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ConfigError(f"betas must lie in [0, 1), got {beta1}, {beta2}")
        if eps <= 0.0:
            raise ConfigError(f"eps must be positive, got {eps}")
        return cls(
            m=np.zeros(size, dtype=np.float64),
            v=np.zeros(size, dtype=np.float64),
            step_count=0, beta1=beta1, beta2=beta2, eps=eps,
        )


def adam_step(state, params, grads, lr):
    """One bias-corrected moment update of params, state.m and state.v."""
    if lr <= 0.0:
        raise ConfigError(f"learning rate must be positive, got {lr}")
    grads = _check_pair(params, grads)
    if state.m.shape != params.shape:
        raise ShapeError(f"state sized {state.m.shape} does not match params {params.shape}")
    t = state.step_count + 1
    # every operation keeps the operand order of the textbook form,
    # ((1 - beta2) g) g included, so the results are bitwise those of
    # params - lr m_hat / (sqrt(v_hat) + eps)
    tmp = np.empty_like(params)
    step = np.empty_like(params)
    state.m *= state.beta1
    np.multiply(grads, 1.0 - state.beta1, out=tmp)
    state.m += tmp
    state.v *= state.beta2
    np.multiply(grads, 1.0 - state.beta2, out=tmp)
    tmp *= grads
    state.v += tmp
    np.divide(state.v, 1.0 - state.beta2 ** t, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += state.eps
    np.divide(state.m, 1.0 - state.beta1 ** t, out=step)
    step *= lr
    step /= tmp
    params -= step
    state.step_count = t


def clip_by_global_norm(grads, max_norm):
    """Rescale grads in place so its euclidean norm is at most max_norm
    (untouched below it); grads must be an ndarray."""
    if max_norm <= 0.0:
        raise ConfigError(f"max_norm must be positive, got {max_norm}")
    norm = float(np.linalg.norm(grads))
    if norm > max_norm:
        grads *= max_norm / norm


@dataclass(frozen=True)
class LrSchedule:
    """Piecewise-constant rates: (threshold, rate) pairs, thresholds ascending.

    The rate at step s is the rate of the last threshold <= s; before the
    first threshold the first rate applies.
    """

    entries: tuple

    def __post_init__(self):
        entries = tuple((int(t), float(r)) for t, r in self.entries)
        if not entries:
            raise ConfigError("schedule needs at least one entry")
        thresholds = [t for t, _ in entries]
        if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
            raise ConfigError(f"thresholds must be strictly increasing, got {thresholds}")
        if any(r <= 0.0 for _, r in entries):
            raise ConfigError("all rates must be positive")
        object.__setattr__(self, "entries", entries)

    @classmethod
    def constant(cls, rate):
        return cls(((0, rate),))


def lr_at(schedule, step):
    """Rate in effect at `step` (thresholds are inclusive)."""
    if step < 0:
        raise ConfigError(f"step must be non-negative, got {step}")
    rate = schedule.entries[0][1]
    for threshold, r in schedule.entries:
        if step >= threshold:
            rate = r
        else:
            break
    return rate
