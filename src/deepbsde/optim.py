"""First-order optimizers over one flat float64 parameter vector.

Every step updates its arrays in place and returns None. Adam's m and v are
allocated once, by `AdamState.create`; that state is the optimizer's whole
state, and its BETA1, BETA2 and EPS are Kingma & Ba's constants.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
# entries per pass of adam_step: a chunk's six float64 operands (params,
# grads, m, v and two scratch buffers) take 768 KB, so they stay in L2
CHUNK = 1 << 14


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
    if not 0.0 < lr < math.inf:
        raise ConfigError(f"learning rate must be positive and finite, got {lr}")
    params -= lr * _check_pair(params, grads)


@dataclass
class AdamState:
    """Moment accumulators; step_count counts completed updates."""

    m: np.ndarray
    v: np.ndarray
    step_count: int

    @classmethod
    def create(cls, size):
        return cls(m=np.zeros(size, dtype=np.float64), v=np.zeros(size, dtype=np.float64),
                   step_count=0)


def adam_step(state, params, grads, lr):
    """One bias-corrected moment update of params, state.m and state.v."""
    if not 0.0 < lr < math.inf:
        raise ConfigError(f"learning rate must be positive and finite, got {lr}")
    grads = _check_pair(params, grads)
    if state.m.shape != params.shape:
        raise ShapeError(f"state sized {state.m.shape} does not match params {params.shape}")
    t = state.step_count + 1
    m_scale = 1.0 - BETA1 ** t
    v_scale = 1.0 - BETA2 ** t
    # every operation keeps the operand order of the textbook form,
    # ((1 - BETA2) g) g included, so the results are bitwise those of
    # params - lr m_hat / (sqrt(v_hat) + EPS); a chunk's passes run while
    # its slices of params, grads, m and v are still in cache
    size = params.size
    tmp_buf = np.empty(min(size, CHUNK))
    step_buf = np.empty(min(size, CHUNK))
    for lo in range(0, size, CHUNK):
        hi = min(lo + CHUNK, size)
        p, g, m, v = params[lo:hi], grads[lo:hi], state.m[lo:hi], state.v[lo:hi]
        tmp, step = tmp_buf[:hi - lo], step_buf[:hi - lo]
        m *= BETA1
        np.multiply(g, 1.0 - BETA1, out=tmp)
        m += tmp
        v *= BETA2
        np.multiply(g, 1.0 - BETA2, out=tmp)
        tmp *= g
        v += tmp
        np.divide(v, v_scale, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += EPS
        np.divide(m, m_scale, out=step)
        step *= lr
        step /= tmp
        p -= step
    state.step_count = t


def clip_by_global_norm(grads, max_norm):
    """Rescale grads in place so its euclidean norm is at most max_norm
    (untouched below it); grads must be an ndarray."""
    if not 0.0 < max_norm < math.inf:
        raise ConfigError(f"max_norm must be positive and finite, got {max_norm}")
    norm = float(np.linalg.norm(grads))
    if norm > max_norm:
        grads *= max_norm / norm


def lr_at(values, boundaries, step):
    """Rate at `step` of a piecewise-constant schedule: values[k] from
    boundaries[k - 1] (inclusive), values[0] before boundaries[0]."""
    return values[bisect_right(boundaries, step)]
