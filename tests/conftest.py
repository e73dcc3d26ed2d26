import ctypes

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


def bare_net(weights, biases):
    """A network outside any bank: its [(weight, bias), ...] layers as float64."""
    return [(np.asarray(w, dtype=np.float64), np.asarray(b, dtype=np.float64))
            for w, b in zip(weights, biases)]


def _openblas(symbol):
    """The string an OpenBLAS query of numpy's bundled library returns, or
    "unknown" when that library does not export `symbol`."""
    from numpy._core import _multiarray_umath
    # a handle to the extension also finds the symbols of the libraries it links
    query = getattr(ctypes.CDLL(_multiarray_umath.__file__), symbol, None)
    if query is None:
        return "unknown"
    query.restype = ctypes.c_char_p
    return query().decode("ascii", "replace").strip()


def machine():
    """numpy's version, the highest SIMD target it dispatches to here, and
    the OpenBLAS build and core it runs.

    Pinned bytes of normals, paths and training artifacts depend on these, so
    the pin tests pass this as their assertion message: a mismatch then
    names the machine beside the one the pins were taken on.
    """
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    enabled = [target for target in __cpu_dispatch__ if __cpu_features__.get(target)]
    here = (f"numpy {np.__version__}, top dispatch target "
            f"{enabled[-1] if enabled else 'baseline'}, OpenBLAS core "
            f"{_openblas('scipy_openblas_get_corename64_')} "
            f"({_openblas('scipy_openblas_get_config64_')})")
    return (f"{here}; the pins were taken on numpy 2.4.6, top dispatch target "
            "AVX512_SPR, OpenBLAS 0.3.31 core SkylakeX")


@pytest.fixture
def tmp_out(tmp_path):
    return tmp_path / "out"
