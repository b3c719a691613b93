"""The default numpy array backend — a bit-exact pass-through.

Every operation delegates to the identical numpy call the kernels made
before the backend refactor, with identical arguments, so the default path
produces bitwise-identical results to the historical hard-wired code (the
fixed-seed chain regression suite pins this).  ``asarray``/``to_numpy``/
``asindex`` are identity functions on data that is already numpy, so the
abstraction adds one attribute lookup per call and nothing else.
"""

from __future__ import annotations

import numpy as np

__all__ = ["NumpyBackend", "NUMPY"]


class NumpyBackend:
    """The host numpy backend (float64, CPU, bit-exact default)."""

    name = "numpy"
    ndarray = np.ndarray
    float64 = np.float64
    int64 = np.int64
    int8 = np.int8
    inf = np.inf

    # -- host <-> device movement (identity on the host backend) ----------
    @staticmethod
    def asarray(x, dtype=None):
        return np.asarray(x) if dtype is None else np.asarray(x, dtype=dtype)

    @staticmethod
    def to_numpy(x):
        return x

    @staticmethod
    def asindex(x):
        return x

    # -- constructors ------------------------------------------------------
    @staticmethod
    def array(x, dtype=None):
        return np.array(x) if dtype is None else np.array(x, dtype=dtype)

    @staticmethod
    def empty(shape, dtype=None):
        return np.empty(shape) if dtype is None else np.empty(shape, dtype=dtype)

    empty_like = staticmethod(np.empty_like)

    @staticmethod
    def zeros(shape, dtype=None):
        return np.zeros(shape) if dtype is None else np.zeros(shape, dtype=dtype)

    @staticmethod
    def ones(shape, dtype=None):
        return np.ones(shape) if dtype is None else np.ones(shape, dtype=dtype)

    @staticmethod
    def full(shape, value, dtype=None):
        return np.full(shape, value) if dtype is None else np.full(shape, value, dtype=dtype)

    arange = staticmethod(np.arange)
    eye = staticmethod(np.eye)

    # -- shape / layout ----------------------------------------------------
    stack = staticmethod(np.stack)

    @staticmethod
    def copy(x):
        return x.copy()
    broadcast_to = staticmethod(np.broadcast_to)
    ascontiguousarray = staticmethod(np.ascontiguousarray)

    @staticmethod
    def transpose(x, axes):
        return np.transpose(x, axes)

    @staticmethod
    def squeeze(x, axis=None):
        return np.squeeze(x, axis=axis)

    # -- math --------------------------------------------------------------
    matmul = staticmethod(np.matmul)
    einsum = staticmethod(np.einsum)
    exp = staticmethod(np.exp)
    log = staticmethod(np.log)
    expm1 = staticmethod(np.expm1)
    sqrt = staticmethod(np.sqrt)
    maximum = staticmethod(np.maximum)

    @staticmethod
    def clip(x, lo, hi):
        return np.clip(x, lo, hi)

    where = staticmethod(np.where)

    @staticmethod
    def max(x, axis=None, keepdims=False):
        return np.max(x, axis=axis, keepdims=keepdims)

    @staticmethod
    def sum(x, axis=None, keepdims=False):
        return np.sum(x, axis=axis, keepdims=keepdims)

    any = staticmethod(np.any)

    @staticmethod
    def unique(x, return_inverse=False, axis=None):
        return np.unique(x, return_inverse=return_inverse, axis=axis)

    diag = staticmethod(np.diag)
    fill_diagonal = staticmethod(np.fill_diagonal)

    @staticmethod
    def eigh(x):
        return np.linalg.eigh(x)

    @staticmethod
    def allclose(a, b, atol=1e-8):
        return np.allclose(a, b, atol=atol)

    isscalar = staticmethod(np.isscalar)

    @staticmethod
    def errstate(**kwargs):
        return np.errstate(**kwargs)

    # -- host-only index ops (planning; not part of ArrayBackend) ----------
    concatenate = staticmethod(np.concatenate)
    nonzero = staticmethod(np.nonzero)
    flatnonzero = staticmethod(np.flatnonzero)
    cumsum = staticmethod(np.cumsum)
    sort = staticmethod(np.sort)
    argsort = staticmethod(np.argsort)


#: The shared host-backend instance.  The abstracted kernel modules import
#: this directly for *host-side planning* (index tables, dedup, layout) and
#: use the selected backend handle for device math — the same split real
#: accelerator code makes between host and device work.
NUMPY = NumpyBackend()
