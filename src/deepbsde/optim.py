"""First-order optimizers over flat float64 parameter vectors.

All steps are pure functions: inputs are never mutated, new arrays come
back. State lives in plain dataclasses so a training loop can checkpoint or
replay it trivially.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError


def _check_pair(params, grads):
    params = np.asarray(params, dtype=np.float64)
    grads = np.asarray(grads, dtype=np.float64)
    if params.shape != grads.shape or params.ndim != 1:
        raise ShapeError(f"params {params.shape} and grads {grads.shape} must be equal flat vectors")
    return params, grads


def sgd_step(params, grads, lr):
    """params - lr * grads."""
    if lr <= 0.0:
        raise ConfigError(f"learning rate must be positive, got {lr}")
    params, grads = _check_pair(params, grads)
    return params - lr * grads


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
    """One bias-corrected moment update; returns (new_params, new_state)."""
    if lr <= 0.0:
        raise ConfigError(f"learning rate must be positive, got {lr}")
    params, grads = _check_pair(params, grads)
    if state.m.shape != params.shape:
        raise ShapeError(f"state sized {state.m.shape} does not match params {params.shape}")
    t = state.step_count + 1
    # in place on four fresh arrays; every operation keeps the operand order
    # of the textbook form, ((1 - beta2) g) g included, so the results are
    # bitwise those of params - lr m_hat / (sqrt(v_hat) + eps)
    m = state.m * state.beta1
    tmp = np.multiply(grads, 1.0 - state.beta1)
    m += tmp
    v = state.v * state.beta2
    np.multiply(grads, 1.0 - state.beta2, out=tmp)
    tmp *= grads
    v += tmp
    np.divide(v, 1.0 - state.beta2 ** t, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += state.eps
    new_params = m / (1.0 - state.beta1 ** t)
    new_params *= lr
    new_params /= tmp
    np.subtract(params, new_params, out=new_params)
    new_state = AdamState(m=m, v=v, step_count=t,
                          beta1=state.beta1, beta2=state.beta2, eps=state.eps)
    return new_params, new_state


def clip_by_global_norm(grads, max_norm):
    """Rescale so the euclidean norm is at most max_norm (no-op below it)."""
    if max_norm <= 0.0:
        raise ConfigError(f"max_norm must be positive, got {max_norm}")
    grads = np.asarray(grads, dtype=np.float64)
    norm = float(np.linalg.norm(grads))
    if norm <= max_norm:
        return grads.copy()
    return grads * (max_norm / norm)


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
