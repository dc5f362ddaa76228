"""Numerical verification of the regularized two-vertex wheel.

The scalar heat kernel (4 pi t)^{-1} exp(-|z-w|^2/4t) and the propagator
P_{eps<L}(z,w) = int_eps^L -(zbar-wbar)/(4t) K_t(z,w) dt combine, after the
w = z1 - z2 change of variables and the closed-form t-integral

    int_eps^1 t^{-2} e^{-a/t} dt = (e^{-a} - e^{-a/eps})/a,  a = |w|^2/4,

into a single difference kernel Q_eps(w); the wheel weight is then a 2D
cross-correlation of the two vertex products against Q_eps, evaluated on a
deterministic tensor grid.  As eps -> 0 the weight converges linearly in
eps to a fixed multiple of the contact term

    wheel2_rhs = 1/(2 (4 pi)^2) * int F dG/dz d^2z ;

the multiple (4 pi, from the Gaussian moment of Q) is frozen in
constants.WHEEL_NORMALIZATION, and the acceptance test checks the
Richardson-extrapolated schedule against the right-hand side.

numpy is imported the first time a function here reads ``np``, not when
the module loads: every other check in the package is exact and never
touches it, and ``cli`` imports this module for its two ``feynman``
subcommands, so loading numpy eagerly would charge its import time and
memory to every process.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys

from .constants import WHEEL_NORMALIZATION
from .errors import ShapeError


class _Numpy:
    """Stand-in for the numpy module until a function first reads ``np``:
    the first attribute lookup imports numpy and rebinds the global ``np``
    to it, so every later lookup goes straight to the module."""

    __slots__ = ()

    def __getattr__(self, name):
        global np
        import numpy
        np = numpy
        return getattr(numpy, name)


np = _Numpy()


class BumpField:
    """Compactly supported radial test function.

    value(z) = sum_k coeffs[k] * m^(k+1),  m = max(1 - |z-c|^2/r^2, 0),

    so each profile term vanishes at the support boundary; with the leading
    coefficient in the k >= 1 slot the field is C^1 across the boundary,
    which is all the quadrature needs.
    """

    __slots__ = ("center", "radius", "coeffs")

    def __init__(self, center, radius, coeffs):
        if radius <= 0:
            raise ShapeError("support radius must be positive")
        if not coeffs:
            raise ShapeError("profile needs at least one coefficient")
        self.center = complex(center)
        self.radius = float(radius)
        self.coeffs = [float(c) for c in coeffs]

    def _m(self, z):
        d = z - self.center
        return np.maximum(1.0 - (d.real ** 2 + d.imag ** 2) / self.radius ** 2,
                          0.0)

    def values(self, z):
        return self._poly(self._m(np.asarray(z, dtype=complex)))

    def _poly(self, m):
        # sum_k c_k m^{k+1}
        acc = np.zeros_like(m)
        for c in reversed(self.coeffs):
            acc = m * (acc + c)
        return acc

    def _dpoly(self, m):
        # d/dm of the profile polynomial
        acc = np.zeros_like(m)
        for k in range(len(self.coeffs) - 1, -1, -1):
            acc = acc * m + (k + 1) * self.coeffs[k]
        return acc

    def dz_values(self, z):
        """Exact d/dz of the field: dp/dm * (-(zbar - cbar)/r^2) inside."""
        z = np.asarray(z, dtype=complex)
        m = self._m(z)
        inside = m > 0
        d = np.conj(z - self.center)
        return np.where(inside, -self._dpoly(m) * d / self.radius ** 2, 0.0)

    def bounding_box(self):
        c, r = self.center, self.radius
        return (c.real - r, c.real + r, c.imag - r, c.imag + r)


def product_values(fields, z):
    acc = np.ones_like(np.asarray(z, dtype=complex), dtype=float)
    for f in fields:
        acc = acc * f.values(z)
    return acc


def product_dz_values(fields, z):
    """d/dz of the product, by the exact Leibniz rule."""
    z = np.asarray(z, dtype=complex)
    vals = [f.values(z) for f in fields]
    total = np.zeros_like(z)
    for i, f in enumerate(fields):
        term = f.dz_values(z).astype(complex)
        for j, v in enumerate(vals):
            if j != i:
                term = term * v
        total = total + term
    return total


class QuadConfig:
    """Deterministic quadrature parameters."""

    __slots__ = ("grid_n", "eps_schedule")

    def __init__(self, grid_n=192, eps_schedule=(0.1, 0.05, 0.02, 0.01)):
        if grid_n < 8:
            raise ShapeError("quadrature grid too small")
        sched = [float(e) for e in eps_schedule]
        if len(sched) < 2:
            raise ShapeError("eps schedule needs at least two entries")
        if any(e <= 0 for e in sched) or any(
                later >= earlier for earlier, later in zip(sched, sched[1:])):
            raise ShapeError("eps schedule must be positive and strictly decreasing")
        self.grid_n = int(grid_n)
        self.eps_schedule = sched


DEFAULT_CONFIG = QuadConfig()


def heat_kernel(t, z, w):
    """Scalar heat kernel (4 pi t)^{-1} exp(-|z-w|^2 / 4t); unit plane mass."""
    if t <= 0:
        raise ShapeError("heat kernel needs t > 0")
    z = complex(z)
    w = complex(w)
    return math.exp(-abs(z - w) ** 2 / (4.0 * t)) / (4.0 * math.pi * t)


def t_integral_limits(eps):
    """Closed forms of the two regulator integrals:

        int_eps^1 eps/(t+eps)^2 dt   = 1/2 - eps/(1+eps)      -> 1/2,
        int_eps^1 eps^3/(eps+t)^3 dt = eps/8 - eps^3/(2(1+eps)^2) -> 0.
    """
    if not 0 < eps < 1:
        raise ShapeError("eps must lie in (0, 1)")
    first = 0.5 - eps / (1.0 + eps)
    second = eps / 8.0 - eps ** 3 / (2.0 * (1.0 + eps) ** 2)
    return first, second


# Gauss-Legendre node counts: the regulator t-integrals and the propagator
QUAD_NODES = 512
PROPAGATOR_NODES = 64


@functools.lru_cache(maxsize=8)
def _gauss_legendre(n_nodes):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per node
    count and shared read-only by every caller."""
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def t_integral_quadrature(eps):
    """The same two integrals by Gauss-Legendre quadrature (cross-check).

    Substitutes t = e^s so the eps-scale peak has O(1) width in s; with
    r = eps/(t+eps) the integrands are r(1-r) and eps r^2 (1-r), which do
    not underflow.  Subnormal eps, where accuracy is lost, is refused.
    """
    if not sys.float_info.min <= eps < 1:
        raise ShapeError(f"quadrature eps must lie in "
                         f"[{sys.float_info.min!r}, 1), got {eps!r}")
    x, w = _gauss_legendre(QUAD_NODES)
    s0, s1 = math.log(eps), 0.0
    s = 0.5 * (s1 - s0) * x + 0.5 * (s1 + s0)
    r = eps / (np.exp(s) + eps)
    scale = 0.5 * (s1 - s0)
    first = float(np.sum(w * r * (1.0 - r)) * scale)
    second = float(np.sum(w * eps * r * r * (1.0 - r)) * scale)
    return first, second


def propagator(eps, length, z, w):
    """P_{eps<L}(z,w) by t-quadrature of -(zbar-wbar)/(4t) K_t(z,w)."""
    if not 0 < eps < length:
        raise ShapeError("need 0 < eps < L")
    z, w = complex(z), complex(w)
    dbar = np.conj(z - w)
    if dbar == 0:
        return 0j
    a = abs(z - w) ** 2 / 4.0
    # substitute t = e^s to resolve the 1/t^2 scale near eps
    s0, s1 = math.log(eps), math.log(length)
    x, wq = _gauss_legendre(PROPAGATOR_NODES)
    s = 0.5 * (s1 - s0) * x + 0.5 * (s1 + s0)
    t = np.exp(s)
    integrand = -dbar / (16.0 * math.pi * t ** 2) * np.exp(-a / t) * t
    return complex(np.sum(wq * integrand) * 0.5 * (s1 - s0))


def propagator_closed_form(eps, length, z, w):
    """Antiderivative value used as the quadrature oracle."""
    z, w = complex(z), complex(w)
    dbar = np.conj(z - w)
    a = abs(z - w) ** 2 / 4.0
    if a == 0:
        return 0j
    return -dbar / (16.0 * math.pi) * (math.exp(-a / length) -
                                       math.exp(-a / eps)) / a


def _difference_kernel(w_grid, eps):
    """Q_eps on the difference lattice (see module docstring)."""
    r2 = w_grid.real ** 2 + w_grid.imag ** 2
    a = r2 / 4.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(a > 0,
                         (np.exp(-a) - np.exp(-a / eps)) / np.where(a > 0, a, 1.0),
                         0.0)
    return -np.conj(w_grid) * np.exp(-r2 / (4.0 * eps)) * ratio / \
        (64.0 * math.pi ** 2 * eps)


def _common_grid(fields_f, fields_g, grid_n):
    boxes = [f.bounding_box() for f in fields_f + fields_g]
    x0 = min(b[0] for b in boxes)
    x1 = max(b[1] for b in boxes)
    y0 = min(b[2] for b in boxes)
    y1 = max(b[3] for b in boxes)
    span = max(x1 - x0, y1 - y0)
    pad = 0.02 * span
    x = np.linspace(x0 - pad, x0 - pad + span + 2 * pad, grid_n)
    y = np.linspace(y0 - pad, y0 - pad + span + 2 * pad, grid_n)
    h = x[1] - x[0]
    zz = x[None, :] + 1j * y[:, None]
    return zz, h


def _cross_correlation(fa, gb):
    """C[d] = sum_i fa[i] gb[i - d] on the difference lattice, via FFT."""
    n0, n1 = fa.shape
    size0, size1 = 2 * n0 - 1, 2 * n1 - 1
    ft_f = np.fft.fft2(fa, s=(size0, size1))
    ft_g = np.fft.fft2(gb, s=(size0, size1))
    corr = np.fft.ifft2(ft_f * np.conj(ft_g))
    corr = np.fft.fftshift(corr)
    return corr


def _check_regulators(eps_values):
    if not all(0 < eps < 1 for eps in eps_values):
        raise ShapeError("eps must lie in (0, 1)")


def _grid_and_f(fields_f, fields_g, config):
    """The common tensor grid, its step and F = prod(fields_f) on it."""
    zz, h = _common_grid(list(fields_f), list(fields_g), config.grid_n)
    return zz, h, product_values(fields_f, zz)


def _weights(zz, h, fa, fields_g, eps_values):
    """Wheel weights at each eps: the correlation of F with G is formed
    once, and only the difference kernel Q_eps depends on eps."""
    gb = product_values(fields_g, zz)
    corr = _cross_correlation(fa.astype(complex), gb.astype(complex))
    n0, n1 = fa.shape
    dx = (np.arange(2 * n1 - 1) - (n1 - 1)) * h
    dy = (np.arange(2 * n0 - 1) - (n0 - 1)) * h
    w_grid = dx[None, :] + 1j * dy[:, None]
    return [complex(np.sum(corr * _difference_kernel(w_grid, eps)) * h ** 4)
            for eps in eps_values]


def _rhs(zz, h, fa, fields_g):
    gdz = product_dz_values(fields_g, zz)
    return complex(np.sum(fa * gdz) * h * h / (2.0 * (4.0 * math.pi) ** 2))


def wheel2_weight(fields_f, fields_g, eps, config=DEFAULT_CONFIG):
    """Regularized weight of the two-vertex wheel at scale eps.

    Tensor-grid evaluation of
        int F(z1) G(z2) [dzbar ^ K_eps ^ P_{eps<1}](z1, z2)
    in its scalar-kernel form; complex-valued since one holomorphic
    derivative survives the regulator.
    """
    _check_regulators([eps])
    return _weights(*_grid_and_f(fields_f, fields_g, config), fields_g,
                    [eps])[0]


def wheel2_rhs(fields_f, fields_g, config=DEFAULT_CONFIG):
    """Closed-form limit 1/(2 (4 pi)^2) int F d(G)/dz d^2 z."""
    return _rhs(*_grid_and_f(fields_f, fields_g, config), fields_g)


def extrapolate_schedule(eps_values, weights):
    """Linear Richardson extrapolation from the two smallest regulators."""
    pairs = sorted(zip(eps_values, weights), key=lambda p: p[0])
    (e1, w1), (e2, w2) = pairs[0], pairs[1]
    return (e2 * w1 - e1 * w2) / (e2 - e1)


def wheel2_check(fields_f, fields_g, config=DEFAULT_CONFIG):
    """Run the schedule, extrapolate, normalize, compare with the rhs.

    The grid, F and the correlation of F with G are built once per check;
    each schedule entry only applies its difference kernel.

    Returns a dict with the schedule values, the extrapolated and
    normalized weight, the rhs, and the relative error; profiles so large
    that one of these overflows are refused.
    """
    _check_regulators(config.eps_schedule)
    with np.errstate(all="ignore"):
        zz, h, fa = _grid_and_f(fields_f, fields_g, config)
        weights = _weights(zz, h, fa, fields_g, config.eps_schedule)
        extrap = extrapolate_schedule(config.eps_schedule, weights)
        lhs = WHEEL_NORMALIZATION * extrap
        rhs = _rhs(zz, h, fa, fields_g)
    rel = abs(lhs - rhs) / max(abs(rhs), 1e-300)
    if not all(map(cmath.isfinite, weights + [lhs, rhs, rel])):
        raise ShapeError("wheel weight, contact term or relative error is "
                         "not finite; the profile values are too large")
    return {
        "eps_schedule": list(config.eps_schedule),
        "weights": weights,
        "extrapolated": extrap,
        "normalized": lhs,
        "rhs": rhs,
        "relative_error": rel,
    }


# -- spectral side of the partition-function identity -----------------------------


def spectral_eigenvalue(lam, tau):
    """Eigenvalue of mu^{-1} d/dz (2 dbar dbar*)^{-1} on the lam Fourier mode
    of the flat torus C/(Z + tau Z), assembled from the operator pieces:

        d/dz  e_lam = -(pi lam-bar / Im tau) e_lam,
        (2 dbar dbar*) e_lam = -(2 pi^2 |lam|^2 / (Im tau)^2) e_lam,
        mu = 2 pi Im tau,

    which simplifies to 1/(4 pi^2 lam)."""
    lam = complex(lam)
    if lam == 0:
        raise ShapeError("the zero mode is excluded")
    tau = complex(tau)
    imt = tau.imag
    dz_eig = -math.pi * np.conj(lam) / imt
    laplace_eig = -2.0 * math.pi ** 2 * abs(lam) ** 2 / imt ** 2
    mu = 2.0 * math.pi * imt
    return complex(dz_eig / (mu * laplace_eig))


def spectral_trace(weight, tau, cutoff):
    """sum over 0 < |lam| <= cutoff of spectral_eigenvalue(lam)^{2k}."""
    from .characters import LatticeSpec
    spec = LatticeSpec(complex(tau), cutoff)
    acc = 0j
    for lam in spec.points():
        acc += spectral_eigenvalue(lam, tau) ** weight
    return acc
