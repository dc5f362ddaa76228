"""formaldisk: exact calculus on the formal n-disk and its vertex algebra.

Modules follow the mathematical layering: ``jets`` holds truncated
formal geometry over exact rationals, ``vertex`` the free-field vertex
algebra mode calculus, ``hc`` the vector-field and linear-group actions,
``gf``/``gms`` the Lie- and group-level characteristic cocycles,
``conformal`` the Virasoro structure, ``characters`` the q-series and
Eisenstein identities, and ``feynman`` the numerical anomaly checks.
"""

__version__ = "0.1.0"

# The one kernel there is; kept as a name for run reports that print it.
kernel_backend = "pure"

__all__ = ["kernel_backend", "__version__"]
