"""The hot inner loops, re-exported from :mod:`._pure`.

Callers reach them as ``_kernel.poly_mul`` and so on, looked up on this
module at call time, so a profiler can rebind them here; ``_impl`` names
the module that holds the originals.

The package's own products call only the ``poly_*`` kernels.  The three
``state_*`` kernels, on states keyed by symbol tuples, serve the
normally-ordered recursion that the tests keep as the oracle of
``vertex.mode_apply`` (``tests/recursion.py``); they stay here because the
benchmark's traced run puts a span on each of them by this name, until
that run drops those spans.
"""

from . import _pure as _impl
from ._pure import (
    poly_axpy,
    poly_dots,
    poly_mul,
    state_axpy,
    state_deriv_sym,
    state_mul_sym,
)

__all__ = [
    "poly_mul",
    "poly_dots",
    "poly_axpy",
    "state_mul_sym",
    "state_deriv_sym",
    "state_axpy",
]
