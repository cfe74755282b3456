"""Kernel backend registry for the columnar branch-postings hot path.

Two interchangeable backends implement the CSR kernel interface documented
in :mod:`repro.db.kernels.numpy_impl`:

* ``"numpy"`` — the pure-NumPy reference implementation (always available);
* ``"native"`` — the bundled C kernels (:mod:`repro.db.kernels.native`),
  compiled on demand with the system toolchain and called through ctypes.
  Single-pass and fused: the one reducer (``filter_verify_rows``) verifies
  and reduces a whole batch in one call, so pruned candidates never allocate
  intermediates and only hits come back.

The interface is three kernels — ``intersection_row`` and
``filter_verify_rows`` on the read path and ``merge_postings`` on the write
path.  The dense GBD lower bound has no kernel: the reducers apply it once
per order range, and the store's ``gbd_lower_bound_row`` is their NumPy
reference.  Every array they exchange is indexed
by the store's ``|V_G|``-clustered positions, each distinct order a
contiguous range.  ``filter_verify_rows`` — the serving engine's one plan
and all of top-k, a batch of queries per call — runs, per query, the reducer
its row names: the γ threshold, which accepts by the posterior table and γ
alone, or the k best, which ranks by the table and cuts off by its suffix
maximum.  No kernel knows the branch-bound cap ``GBD <= 2 τ̂``: under
:class:`~repro.core.search.GBDASearch`'s ``use_index_pruning`` ablation it is
a post-filter over the search's own dense scores.

``"auto"`` (the default everywhere a backend is configurable) resolves to
``native`` when it can be built on this machine and ``numpy`` otherwise, so
the compiled path is an optimisation, never a dependency.  The
``REPRO_KERNEL_BACKEND`` environment variable overrides what ``auto``
resolves to (explicitly configured names always win over the environment);
setting it to ``native`` makes an unbuildable backend a hard error — the CI
leg that pins the native backend wants build breakage loud, not a silent
numpy fallback.

Both backends are bit-identical by contract; the hypothesis parity suite
drives every online path under each.
"""

from __future__ import annotations

import os
import warnings
from typing import Optional, Tuple

from repro.db.kernels import numpy_impl

__all__ = [
    "available_backends",
    "backend_module",
    "native_available",
    "native_load_error",
    "resolve_backend",
]

KNOWN_BACKENDS = ("auto", "numpy", "native")

#: Resolved backend name -> module.  Stores hold only the *name* (modules are
#: not picklable and stores must stay picklable), so this lookup sits on
#: the kernel-call path and must stay a plain dict probe.
_MODULES = {"numpy": numpy_impl}


def native_available() -> bool:
    """Whether the compiled backend can be built and loaded on this machine."""
    from repro.db.kernels import native

    return native.available()


def native_load_error() -> Optional[str]:
    """Why the compiled backend is unavailable (``None`` when it loads)."""
    from repro.db.kernels import native

    native.available()
    return native.load_error()


def available_backends() -> Tuple[str, ...]:
    """The concrete backend names usable right now (``"auto"`` excluded)."""
    return ("numpy", "native") if native_available() else ("numpy",)


def resolve_backend(backend: str = "auto") -> str:
    """Resolve a configured backend name to a concrete one.

    ``auto`` honours ``REPRO_KERNEL_BACKEND`` when set, else prefers
    ``native`` when buildable.  An explicit (or environment-pinned)
    ``native`` raises with the recorded build error when unavailable.
    """
    requested = str(backend or "auto").strip().lower()
    if requested == "auto":
        env = os.environ.get("REPRO_KERNEL_BACKEND", "").strip().lower()
        if env and env != "auto":
            requested = env
        else:
            return "native" if native_available() else "numpy"
    if requested == "numpy":
        return "numpy"
    if requested == "native":
        if not native_available():
            raise RuntimeError(
                f"kernel backend 'native' is unavailable: {native_load_error()}"
            )
        return "native"
    raise ValueError(
        f"unknown kernel backend {requested!r}; expected one of {KNOWN_BACKENDS}"
    )


def backend_module(name: str):
    """The kernel module of a resolved backend name.

    A ``"native"`` name that cannot load *here* (e.g. a snapshot restored on
    a machine without a compiler) degrades to the numpy backend with a
    warning instead of failing the query path.
    """
    module = _MODULES.get(name)
    if module is None:
        if name != "native":
            raise ValueError(
                f"unknown kernel backend {name!r}; expected one of {KNOWN_BACKENDS}"
            )
        from repro.db.kernels import native

        if native.available():
            module = native
        else:
            warnings.warn(
                "native kernel backend unavailable on this machine "
                f"({native.load_error()}); falling back to numpy",
                RuntimeWarning,
                stacklevel=2,
            )
            module = numpy_impl
        _MODULES[name] = module
    return module
