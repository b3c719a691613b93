"""The ``ArrayBackend`` protocol and the backend registry.

The paper's kernels are CUDA; this repo's are NumPy.  Everything the hot
paths need from an array library is a thin, enumerable surface — stacked
matmuls/einsums, elementwise transcendentals, log-sum-exp reductions,
gather/scatter indexing, and a handful of constructors — so that surface is
made explicit here as :class:`ArrayBackend`, and the kernels in
:mod:`repro.likelihood` call it through a handle instead of importing numpy
directly.  Two implementations ship:

``numpy`` (:mod:`repro.backend.numpy_backend`)
    The default.  Every operation *is* the corresponding numpy call, so
    results are bit-identical to the historical hard-wired code — fixed-seed
    chains are regression-pinned against the pre-backend implementation.

``torch`` (:mod:`repro.backend.torch_backend`)
    Optional; registered always, constructible only where ``torch`` is
    importable (capability metadata records availability so ``mpcgs info``
    can say why a backend cannot be selected).  Float64 end to end; results
    agree with numpy to documented tolerance (1e-9 on log-likelihoods), not
    bitwise — a different BLAS reassociates sums.

Backends are registered in :data:`BACKENDS` (the same
:class:`~repro.core.registry_base.Registry` machinery as samplers, engines,
models, and demographies) with capability metadata — dtype, device, and
whether the implementation's dependency is importable — and selected through
``MPCGSConfig.backend`` / ``mpcgs run --backend`` / listed by ``mpcgs info``.

The kernels draw a host/device line the way real accelerator code does:
**planning** (dirty masks, index tables, unique-length dedup) always
runs on the host through the explicit numpy handle, while **device math**
(the stacked products and reductions) goes through the *selected* backend.
The host handle also carries a few index ops only planning needs
(``concatenate``, ``nonzero``, ``flatnonzero``, ``cumsum``, ``sort``,
``argsort``); they are not part of :class:`ArrayBackend`, so device
backends need not implement them.
A lint step (``tools/check_backend_purity.py``) keeps the abstracted modules
honest: no direct ``np.`` usage, only backend handles.
"""

from __future__ import annotations

import importlib.util
from typing import Any, Protocol, runtime_checkable

from ..core.registry_base import Registry

__all__ = [
    "ArrayBackend",
    "BACKENDS",
    "get_backend",
    "available_backends",
    "backend_available",
    "register_backend",
]


@runtime_checkable
class ArrayBackend(Protocol):
    """The array operations the likelihood hot paths are written against.

    Attributes name the backend (``name``), its array type (``ndarray`` —
    used for isinstance checks and annotations), its dtypes
    (``float64``/``int64``/``int8``), and ``inf``.  Operations mirror the
    numpy calling conventions (``axis=``, ``keepdims=``) exactly; backends
    that use different spellings (torch's ``dim=``/``keepdim=``) adapt
    internally.  ``asarray`` moves host data onto the backend,
    ``to_numpy`` moves results back, and ``asindex`` converts a host-side
    integer/boolean index array into whatever the backend's fancy indexing
    consumes — all three are identity functions on the numpy backend, which
    is how the default path stays bit-identical and overhead-free.
    """

    name: str
    ndarray: type
    float64: Any
    int64: Any
    int8: Any
    inf: float

    # -- host <-> device movement ------------------------------------------
    def asarray(self, x, dtype=None): ...
    def to_numpy(self, x): ...
    def asindex(self, x): ...

    # -- constructors ------------------------------------------------------
    def array(self, x, dtype=None): ...
    def empty(self, shape, dtype=None): ...
    def empty_like(self, x): ...
    def zeros(self, shape, dtype=None): ...
    def ones(self, shape, dtype=None): ...
    def full(self, shape, value, dtype=None): ...
    def arange(self, n): ...
    def eye(self, n): ...

    # -- shape / layout ----------------------------------------------------
    def stack(self, xs, axis=0): ...
    def copy(self, x): ...
    def broadcast_to(self, x, shape): ...
    def ascontiguousarray(self, x): ...
    def transpose(self, x, axes): ...
    def squeeze(self, x, axis=None): ...

    # -- math --------------------------------------------------------------
    def matmul(self, a, b): ...
    def einsum(self, spec, *operands): ...
    def exp(self, x): ...
    def log(self, x): ...
    def expm1(self, x): ...
    def sqrt(self, x): ...
    def maximum(self, a, b): ...
    def clip(self, x, lo, hi): ...
    def where(self, cond, a, b): ...
    def max(self, x, axis=None, keepdims=False): ...
    def sum(self, x, axis=None, keepdims=False): ...
    def any(self, x): ...
    def unique(self, x, return_inverse=False, axis=None): ...
    def diag(self, x): ...
    def fill_diagonal(self, x, value): ...
    def eigh(self, x): ...
    def allclose(self, a, b, atol=1e-8): ...
    def isscalar(self, x): ...
    def errstate(self, **kwargs): ...


#: The backend registry — the fifth string-keyed extension registry, next to
#: samplers, engines, mutation models, and demographies.
BACKENDS = Registry("backend")

_INSTANCES: dict[str, ArrayBackend] = {}


def register_backend(
    name: str,
    builder,
    *,
    description: str = "",
    metadata: dict[str, Any] | None = None,
) -> None:
    """Register an array backend under ``name`` with capability metadata."""
    BACKENDS.register(name, builder, description=description, metadata=metadata)
    _INSTANCES.pop(name.lower(), None)


def backend_available(name: str) -> bool:
    """True if ``name`` is registered and its implementation is importable."""
    if name.lower() not in BACKENDS:
        return False
    meta = BACKENDS.metadata(name)
    requires = meta.get("requires")
    if not requires:
        return True
    return importlib.util.find_spec(requires) is not None


def get_backend(name: str = "numpy") -> ArrayBackend:
    """The (cached) backend instance registered under ``name``.

    Raises the registry's uniform unknown-name error for unregistered
    names, and an explicit "not importable here" error for registered
    backends whose dependency is missing — so a spec written on a
    torch-equipped machine fails loudly, not mysteriously, elsewhere.
    """
    key = name.lower()
    builder = BACKENDS.get(key)
    if not backend_available(key):
        requires = BACKENDS.metadata(key).get("requires")
        raise RuntimeError(
            f"backend {name!r} is registered but {requires!r} is not importable "
            f"in this environment; install it or select --backend numpy"
        )
    instance = _INSTANCES.get(key)
    if instance is None:
        instance = builder()
        _INSTANCES[key] = instance
    return instance


def available_backends() -> dict[str, str]:
    """Name -> one-line description of every registered backend."""
    return BACKENDS.describe()
