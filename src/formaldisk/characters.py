"""Characteristic-class q-series over Chern roots, all exact.

Ring elements are truncated polynomials in the roots x_1..x_n (reusing
JetSeries with x_i in the t_i slots); q-series are coefficient lists over
that ring or over plain rationals.  Todd and A-hat come from exact
univariate series inversion (rank-one jet inverses, as are q-series
inverses), the symmetric-power character from geometric
q-factors, and the Eisenstein series in their rational normalization

    R_{2k}(q) = -B_{2k}/(2k) + 2 sum_m sigma_{2k-1}(m) q^m

so that every identity in this module is an identity of exact rational
q-series.  The one numerical routine, the lattice Eisenstein sum, uses a
disk cutoff so the finite sum inherits every rotational symmetry of the
lattice.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ShapeError
from .jets import JetSeries

# -- exact scalar helpers -------------------------------------------------------


def bernoulli(m: int) -> Fraction:
    """Bernoulli number B_m (B_1 = -1/2 convention)."""
    if m < 0:
        raise ShapeError("Bernoulli index must be >= 0")
    row = []
    for j in range(m + 1):
        row.append(Fraction(1, j + 1))
        for i in range(j, 0, -1):
            row[i - 1] = i * (row[i - 1] - row[i])
    b = row[0]
    if m == 1:
        b = -b
    return b


def divisor_sigma(m: int, p: int) -> int:
    return sum(d ** p for d in range(1, m + 1) if m % d == 0)


def _series_inverse(a, order):
    """Inverse of a univariate rational series given as a coefficient list,
    as the rank-one jet inverse."""
    inv = JetSeries(1, order, {(d,): c for d, c in enumerate(a)}).inverse()
    return [inv.coeffs.get((d,), 0) for d in range(order + 1)]


def todd_root_series(order) -> list[Fraction]:
    """Coefficients of x/(1 - e^{-x}) up to the given degree."""
    denom = [Fraction((-1) ** d, math.factorial(d + 1)) for d in range(order + 1)]
    return _series_inverse(denom, order)


def a_hat_root_series(order) -> list[Fraction]:
    """Coefficients of (x/2)/sinh(x/2) up to the given degree."""
    s = [Fraction(0)] * (order + 1)
    for m in range(0, order // 2 + 1):
        s[2 * m] = Fraction(1, (2 ** (2 * m)) * math.factorial(2 * m + 1))
    return _series_inverse(s, order)


# -- the root ring ---------------------------------------------------------------


def power_sum(n, degree, k) -> JetSeries:
    """p_k = sum_i x_i^k."""
    out = JetSeries.zero(n, degree)
    for i in range(1, n + 1):
        out = out + JetSeries.variable(n, degree, i, k)
    return out


def chern_character_component(n, degree, k) -> JetSeries:
    """ch_k = sum_i x_i^k / k!."""
    return power_sum(n, degree, k).scale(Fraction(1, math.factorial(k)))


def c1(n, degree) -> JetSeries:
    return power_sum(n, degree, 1)


def _per_root(n, degree, coeffs, i, sign=1) -> JetSeries:
    """sum_d coeffs[d] (sign * x_i)^d."""
    data = {}
    for d, c in enumerate(coeffs):
        if d > degree or not c:
            continue
        e = [0] * n
        e[i - 1] = d
        data[tuple(e)] = c * (sign ** d)
    return JetSeries(n, degree, data, _clean=True)


def product_over_roots(n, degree, coeffs) -> JetSeries:
    out = JetSeries.one(n, degree)
    for i in range(1, n + 1):
        out = out * _per_root(n, degree, coeffs, i)
    return out


def todd(n, degree) -> JetSeries:
    """Td = prod_i x_i/(1 - e^{-x_i}), exact to the given degree."""
    return product_over_roots(n, degree, todd_root_series(degree))


def a_hat(n, degree) -> JetSeries:
    """A-hat = prod_i (x_i/2)/sinh(x_i/2), exact to the given degree."""
    return product_over_roots(n, degree, a_hat_root_series(degree))


def _exp_nilpotent(x, one, bound):
    """sum_{j <= bound} x^j / j!, which is exp(x) when x^(bound+1) = 0;
    ``x`` is a jet or a q-series and ``one`` the unit of its ring."""
    out = term = one
    for j in range(1, bound + 1):
        term = term * x
        if term.is_zero():
            break
        out = out + term.scale(Fraction(1, math.factorial(j)))
    return out


def jet_exp(f: JetSeries) -> JetSeries:
    """exp of a jet with zero constant term (nilpotent at truncation)."""
    if f.constant_term():
        raise ShapeError("jet_exp requires zero constant term")
    return _exp_nilpotent(f, JetSeries.one(f.n, f.order), f.order)


# -- q-series ------------------------------------------------------------------


class QSeries:
    """Truncated q-expansion with exact coefficients (rational or ring)."""

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs, order=None):
        coeffs = list(coeffs)
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise ShapeError("q-series order must be >= 0")
        if len(coeffs) != order + 1:
            raise ShapeError("need exactly order+1 coefficients")
        self.order = order
        self.coeffs = coeffs

    @classmethod
    def constant(cls, value, order):
        zero = value * 0
        return cls([value] + [zero] * order, order)

    def __add__(self, other):
        self._check(other)
        return QSeries([a + b for a, b in zip(self.coeffs, other.coeffs)],
                       self.order)

    def __sub__(self, other):
        self._check(other)
        return QSeries([a - b for a, b in zip(self.coeffs, other.coeffs)],
                       self.order)

    def __neg__(self):
        return QSeries([-a for a in self.coeffs], self.order)

    def _check(self, other):
        if not isinstance(other, QSeries) or other.order != self.order:
            raise ShapeError("q-series order mismatch")

    def __mul__(self, other):
        self._check(other)
        zero = self.coeffs[0] * 0
        out = [zero for _ in range(self.order + 1)]
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j in range(0, self.order + 1 - i):
                b = other.coeffs[j]
                if not b:
                    continue
                out[i + j] = out[i + j] + a * b
        return QSeries(out, self.order)

    def scale(self, scalar):
        return QSeries([c * scalar if c else c for c in self.coeffs], self.order)

    def map_coeffs(self, fn):
        return QSeries([fn(c) for c in self.coeffs], self.order)

    def is_zero(self):
        return all(not c for c in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.order == other.order and \
            all(a == b for a, b in zip(self.coeffs, other.coeffs))

    def __repr__(self):
        return f"QSeries(order={self.order}, {self.coeffs[:3]}...)"

    def inverse(self):
        """Inverse when the constant coefficient is a rational unit."""
        c0 = self.coeffs[0]
        if not isinstance(c0, (int, Fraction)) or not c0:
            raise ShapeError("q-series inverse needs a rational unit constant")
        return QSeries(_series_inverse(self.coeffs, self.order), self.order)

    def exp(self):
        """exp for series whose constant coefficient is nilpotent (either a
        zero rational or a ring element with zero constant term)."""
        one = QSeries.constant(self.coeffs[0] * 0 + 1, self.order)
        return _exp_nilpotent(self, one, self._exp_bound())

    def _exp_bound(self):
        c0 = self.coeffs[0]
        if isinstance(c0, (int, Fraction)):
            if c0:
                raise ShapeError("q-series exp needs a nilpotent constant term")
            return self.order
        if c0.constant_term():
            raise ShapeError("q-series exp needs a nilpotent constant term")
        return self.order + c0.order


def qseries_eval_complex(qs: QSeries, q: complex) -> complex:
    """Numeric evaluation of a rational q-series (testing/NUMERICS aid)."""
    acc = 0j
    for m, c in enumerate(qs.coeffs):
        acc += complex(c) * q ** m
    return acc


def lift_to_ring(qs: QSeries, n, degree) -> QSeries:
    """Embed a rational q-series as a constant-ring-valued one."""
    return QSeries([JetSeries.const(n, degree, c) for c in qs.coeffs], qs.order)


def eta_product(q_order, power) -> QSeries:
    """prod_{k>=1} (1-q^k)^power for a (possibly negative) integer power."""
    one = QSeries([Fraction(1)] + [Fraction(0)] * q_order, q_order)
    acc = one
    for k in range(1, q_order + 1):
        factor = [Fraction(0)] * (q_order + 1)
        factor[0] = Fraction(1)
        if k <= q_order:
            factor[k] = Fraction(-1)
        acc = acc * QSeries(factor, q_order)
    if power >= 0:
        out = one
        for _ in range(power):
            out = out * acc
        return out
    inv = acc.inverse()
    out = one
    for _ in range(-power):
        out = out * inv
    return out


# -- the graded character and the Witten class ----------------------------------


def ch_sym_product(n, degree, q_order) -> QSeries:
    """Character of the symmetric-power tower:
    prod_{l>=1} prod_i [(1 - q^l e^{x_i}) (1 - q^l e^{-x_i})]^{-1}."""
    one = JetSeries.one(n, degree)
    zero = JetSeries.zero(n, degree)
    out = QSeries([one] + [zero] * q_order, q_order)
    exp_cache = {}
    for sign in (1, -1):
        for i in range(1, n + 1):
            coeffs = [Fraction(1, math.factorial(d)) for d in range(degree + 1)]
            exp_cache[(i, sign)] = _per_root(n, degree, coeffs, i, sign=sign)
    for l in range(1, q_order + 1):
        for i in range(1, n + 1):
            for sign in (1, -1):
                e = exp_cache[(i, sign)]
                # geometric series sum_j q^{lj} e^{j x_i}
                coeffs = [zero] * (q_order + 1)
                coeffs[0] = one
                p = one
                for j in range(1, q_order // l + 1):
                    p = p * e
                    coeffs[l * j] = p
                out = out * QSeries(coeffs, q_order)
    return out


def witten_class(n, degree, q_order) -> QSeries:
    """A-hat times the symmetric-power character times the eta factor."""
    eta = lift_to_ring(eta_product(q_order, 2 * n), n, degree)
    ahat = QSeries.constant(a_hat(n, degree),
                            q_order)
    return ahat * ch_sym_product(n, degree, q_order) * eta


def char_identity_check(n, degree, q_order) -> QSeries:
    """Residual of: Td * ch(Sym-tower) - eta^{-2n} e^{c1/2} Wit; must vanish."""
    lhs = QSeries.constant(todd(n, degree), q_order) * \
        ch_sym_product(n, degree, q_order)
    expc1 = jet_exp(c1(n, degree).scale(Fraction(1, 2)))
    rhs = lift_to_ring(eta_product(q_order, -2 * n), n, degree) * \
        QSeries.constant(expc1, q_order) * witten_class(n, degree, q_order)
    return lhs - rhs


def eisenstein_q(weight: int, q_order: int) -> QSeries:
    """The rational Eisenstein series R_{2k}(q) = -B_{2k}/(2k)
    + 2 sum_{m>=1} sigma_{2k-1}(m) q^m, for weight = 2k >= 4."""
    if weight < 4 or weight % 2:
        raise ShapeError("eisenstein_q needs an even weight >= 4")
    coeffs = [-bernoulli(weight) / weight]
    for m in range(1, q_order + 1):
        coeffs.append(Fraction(2 * divisor_sigma(m, weight - 1)))
    return QSeries(coeffs, q_order)


def log_witten(n, degree, q_order) -> QSeries:
    """sum_{k>=2} R_{2k}(q) ch_{2k}, truncated at (degree, q_order)."""
    zero = JetSeries.zero(n, degree)
    out = QSeries([zero] * (q_order + 1), q_order)
    for k2 in range(4, degree + 1, 2):
        ch = chern_character_component(n, degree, k2)
        if ch.is_zero():
            continue
        r = eisenstein_q(k2, q_order)
        out = out + QSeries([ch.scale(c) for c in r.coeffs], q_order)
    return out


def log_witten_full(n, degree, q_order) -> QSeries:
    """Same sum including the weight-two quasi-modular term,
    R_2(q) = -B_2/2 + 2 sum sigma_1(m) q^m; then exp equals the Witten
    class in the full root ring, with no reduction."""
    out = log_witten(n, degree, q_order)
    if degree >= 2:
        coeffs = [-bernoulli(2) / 2]
        for m in range(1, q_order + 1):
            coeffs.append(Fraction(2 * divisor_sigma(m, 1)))
        ch = chern_character_component(n, degree, 2)
        out = out + QSeries([ch.scale(c) for c in coeffs], q_order)
    return out


def reduce_mod_p2(f: JetSeries) -> JetSeries:
    """Normal form modulo the ideal (sum_i x_i^2): substitute
    x_1^2 -> -(x_2^2 + ... + x_n^2) until no monomial has x_1-power >= 2."""
    n = f.n
    work = dict(f.coeffs)
    out = {}
    while work:
        e, c = work.popitem()
        if e[0] >= 2:
            base = (e[0] - 2,) + e[1:]
            for i in range(1, n):
                e2 = base[:i] + (base[i] + 2,) + base[i + 1:]
                work[e2] = work.get(e2, Fraction(0)) - c
                if not work[e2]:
                    del work[e2]
        else:
            out[e] = out.get(e, Fraction(0)) + c
    return JetSeries(f.n, f.order, {e: c for e, c in out.items() if c},
                     _clean=True)


def witten_exp_check(n, degree, q_order) -> QSeries:
    """Residual of exp(log Wit) - Wit in the root ring modulo (p_2).

    The reduction modulo p_2 = sum x_i^2 is the Chern-root avatar of the
    vanishing second Chern character that the theory assumes; the full-ring
    identity including the weight-two term is exp(log_witten_full) = Wit,
    which witten_exp_check_full verifies with no reduction.
    """
    res = log_witten(n, degree, q_order).exp() - witten_class(n, degree, q_order)
    return res.map_coeffs(reduce_mod_p2)


def witten_exp_check_full(n, degree, q_order) -> QSeries:
    """Residual of exp(log_witten_full) - Wit in the full root ring."""
    return log_witten_full(n, degree, q_order).exp() - \
        witten_class(n, degree, q_order)


def specialize_roots_zero(qs: QSeries) -> QSeries:
    """x -> 0 specialization: a rational q-series of constant terms."""
    return QSeries([c.constant_term() if isinstance(c, JetSeries) else c
                    for c in qs.coeffs], qs.order)


# -- lattice Eisenstein sums (numeric) -------------------------------------------


# bound on the (m, n) candidates a lattice sum visits; at the bound its list
# of about 1.6 M points takes some 130 MB and a second to build
MAX_LATTICE_POINTS = 2_000_000


class LatticeSpec:
    """Summation request: modulus tau (Im tau > 0) and disk cutoff radius;
    Re tau is kept modulo 1, a period of the lattice Z + tau Z."""

    __slots__ = ("tau", "cutoff")

    def __init__(self, tau: complex, cutoff: int):
        if not (math.isfinite(tau.real) and math.isfinite(tau.imag)):
            raise ShapeError("lattice modulus must be finite")
        if tau.imag <= 0:
            raise ShapeError("lattice modulus needs positive imaginary part")
        if cutoff < 1:
            raise ShapeError("cutoff must be >= 1")
        # rows n with |n Im tau| <= cutoff, times the m range of each row
        if (2 * cutoff / tau.imag + 3) * (2 * cutoff + 1) > MAX_LATTICE_POINTS:
            raise ShapeError(
                f"cutoff {cutoff} over Im tau {tau.imag:g} visits more than "
                f"{MAX_LATTICE_POINTS} lattice points")
        self.tau = complex(tau.real % 1.0, tau.imag)
        self.cutoff = int(cutoff)

    def points(self):
        """All lattice points 0 < |m + n tau| <= cutoff, radius-sorted
        descending so the smallest magnitudes accumulate last."""
        tau, r_max = self.tau, float(self.cutoff)
        n_max = int(r_max / tau.imag) + 1
        pts = []
        for n in range(-n_max, n_max + 1):
            y = n * tau.imag
            if abs(y) > r_max:
                continue
            center = -n * tau.real
            half = math.sqrt(r_max * r_max - y * y)
            m_lo = math.ceil(center - half)
            m_hi = math.floor(center + half)
            for m in range(m_lo, m_hi + 1):
                if m == 0 and n == 0:
                    continue
                lam = m + n * tau
                if abs(lam) <= r_max:
                    pts.append(lam)
        pts.sort(key=lambda z: -abs(z))
        return pts


def eisenstein_lattice(weight: int, spec: LatticeSpec) -> complex:
    """Truncated lattice sum sum_{0<|lam|<=R} lam^{-2k} over Z + tau Z.

    The disk cutoff keeps every rotational symmetry of the lattice, so the
    symmetry-forced zeros vanish to rounding error and the tail (whose
    angular average is zero) is far below the square-cutoff tail.
    """
    if weight < 4 or weight % 2:
        raise ShapeError("eisenstein_lattice needs an even weight >= 4 "
                         "(the weight-two sum is only conditionally convergent)")
    acc = 0j
    for lam in spec.points():
        acc += lam ** (-weight)
    return acc


def eisenstein_q_numeric(weight: int, tau: complex, q_order: int = 40) -> complex:
    """Numeric value of the full Eisenstein sum from its q-expansion:
    (2 pi i)^{2k}/(2k-1)! * R_{2k}(e^{2 pi i tau}), Re tau taken modulo 1."""
    angle = 2 * math.pi * (tau.real % 1.0)
    q = complex(math.cos(angle), math.sin(angle)) * \
        math.exp(-2 * math.pi * tau.imag)
    series = eisenstein_q(weight, q_order)
    pref = (2j * math.pi) ** weight / math.factorial(weight - 1)
    return pref * qseries_eval_complex(series, q)
