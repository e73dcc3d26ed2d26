import numpy as np
import pytest


def central_diff_grad(loss_fn, theta, h=1e-6):
    """Central finite differences of a scalar function of a flat vector."""
    theta = np.asarray(theta, dtype=np.float64)
    out = np.zeros_like(theta)
    for k in range(theta.size):
        up = theta.copy()
        dn = theta.copy()
        up[k] += h
        dn[k] -= h
        out[k] = (loss_fn(up) - loss_fn(dn)) / (2.0 * h)
    return out


def max_rel_err(analytic, fd):
    analytic = np.asarray(analytic, dtype=np.float64).ravel()
    fd = np.asarray(fd, dtype=np.float64).ravel()
    return float(np.max(np.abs(analytic - fd) / (np.abs(fd) + 1e-12)))


def machine():
    """numpy's version and the highest SIMD target it dispatches to here.

    Pinned bytes of normals, paths and training artifacts depend on both, so
    the pin tests pass this as their assertion message: a mismatch then
    names the machine beside the one the pins were taken on.
    """
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    enabled = [target for target in __cpu_dispatch__ if __cpu_features__.get(target)]
    here = f"numpy {np.__version__}, top dispatch target {enabled[-1] if enabled else 'baseline'}"
    return f"{here}; the pins were taken on numpy 2.4.6, top dispatch target AVX512_SPR"


@pytest.fixture
def tmp_out(tmp_path):
    return tmp_path / "out"
