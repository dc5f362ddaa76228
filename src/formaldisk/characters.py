"""Characteristic-class q-series over Chern roots, all exact.

Ring elements are truncated polynomials in the roots x_1..x_n (reusing
JetSeries with x_i in the t_i slots).  A q-series truncated at q^Q is a
rank-one JetSeries at order Q whose coefficients are rationals or root jets,
so the jet product, inverse and exponential serve it too.  Todd and A-hat
come from exact univariate series inversion, the symmetric-power character
from geometric q-factors, and the Eisenstein series in their rational
normalization

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


def _nilpotency(c):
    """The b with c^(b+1) = 0 that the truncation guarantees, for c a zero
    rational (b = 0) or a jet whose constant term is nilpotent (b = its
    order plus the constant term's b)."""
    if isinstance(c, JetSeries):
        return c.order + _nilpotency(c.constant_term())
    if c:
        raise ShapeError("jet_exp requires a nilpotent constant term")
    return 0


def jet_exp(f: JetSeries, one) -> JetSeries:
    """exp(f) = sum_{j <= b} f^j / j! with f^(b+1) = 0: a jet with zero
    constant term, or a q-series over the root ring whose constant term is
    a root jet with zero constant term.  ``one`` is the one of the
    coefficient ring (``1`` for Q, ``JetSeries.one(n, degree)`` for the
    root ring), which a series need not store, the zero series least."""
    bound = _nilpotency(f)
    out = term = JetSeries.const(f.n, f.order, one)
    for j in range(1, bound + 1):
        term = term * f
        if term.is_zero():
            break
        out = out + term.scale(Fraction(1, math.factorial(j)))
    return out


# -- q-series --------------------------------------------------------------------
#
# A q-series truncated at q^Q is a rank-one jet at order Q whose coefficients
# are rationals or root jets.  One over the root ring stores root jets only:
# a root-ring scalar multiplies it through ``scale``, never ``*``.


def qseries_eval_complex(qs: JetSeries, q: complex) -> complex:
    """Numeric evaluation of a rational q-series at a complex q."""
    acc = 0j
    for (m,), c in sorted(qs.coeffs.items()):
        acc += complex(c) * q ** m
    return acc


def eta_product(q_order, power) -> JetSeries:
    """prod_{k>=1} (1-q^k)^power for a (possibly negative) integer power."""
    acc = JetSeries.one(1, q_order)
    for k in range(1, q_order + 1):
        acc = acc * JetSeries(1, q_order, {(0,): 1, (k,): -1}, _clean=True)
    return (acc if power >= 0 else acc.inverse()) ** abs(power)


# -- the graded character and the Witten class ----------------------------------


def ch_sym_product(n, degree, q_order) -> JetSeries:
    """Character of the symmetric-power tower:
    prod_{l>=1} prod_i [(1 - q^l e^{x_i}) (1 - q^l e^{-x_i})]^{-1}."""
    one = JetSeries.one(n, degree)
    out = JetSeries.const(1, q_order, one)
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
                coeffs = {(0,): one}
                p = one
                for j in range(1, q_order // l + 1):
                    p = p * e
                    coeffs[(l * j,)] = p
                out = out * JetSeries(1, q_order, coeffs, _clean=True)
    return out


def _witten_from(ch, n, degree, q_order) -> JetSeries:
    """A-hat times the symmetric-power character ``ch`` times the eta
    factor."""
    return ch.scale(a_hat(n, degree)) * eta_product(q_order, 2 * n)


def witten_class(n, degree, q_order) -> JetSeries:
    """A-hat times the symmetric-power character times the eta factor."""
    return _witten_from(ch_sym_product(n, degree, q_order), n, degree, q_order)


def char_identity_check(n, degree, q_order) -> JetSeries:
    """Residual of: Td * ch(Sym-tower) - eta^{-2n} e^{c1/2} Wit; must vanish."""
    ch = ch_sym_product(n, degree, q_order)
    lhs = ch.scale(todd(n, degree))
    expc1 = jet_exp(c1(n, degree).scale(Fraction(1, 2)), 1)
    rhs = _witten_from(ch, n, degree, q_order).scale(expc1) * \
        eta_product(q_order, -2 * n)
    return lhs - rhs


def _eisenstein_rational(weight, q_order) -> JetSeries:
    """R_{2k}(q) = -B_{2k}/(2k) + 2 sum_{m>=1} sigma_{2k-1}(m) q^m."""
    coeffs = {(0,): -bernoulli(weight) / weight}
    for m in range(1, q_order + 1):
        coeffs[(m,)] = 2 * divisor_sigma(m, weight - 1)
    return JetSeries(1, q_order, coeffs)


def eisenstein_q(weight: int, q_order: int) -> JetSeries:
    """The rational Eisenstein series R_{2k}(q), for weight = 2k >= 4."""
    if weight < 4 or weight % 2:
        raise ShapeError("eisenstein_q needs an even weight >= 4")
    return _eisenstein_rational(weight, q_order)


def log_witten(n, degree, q_order) -> JetSeries:
    """sum_{k>=2} R_{2k}(q) ch_{2k}, truncated at (degree, q_order)."""
    out = JetSeries.zero(1, q_order)
    for k2 in range(4, degree + 1, 2):
        ch = chern_character_component(n, degree, k2)
        out = out + eisenstein_q(k2, q_order).map_coeffs(ch.scale)
    return out


def _weight_two(n, degree, q_order) -> JetSeries:
    """R_2(q) ch_2, the weight-two quasi-modular term; zero below degree
    two."""
    if degree < 2:
        return JetSeries.zero(1, q_order)
    ch = chern_character_component(n, degree, 2)
    return _eisenstein_rational(2, q_order).map_coeffs(ch.scale)


def log_witten_full(n, degree, q_order) -> JetSeries:
    """Same sum including the weight-two quasi-modular term,
    R_2(q) = -B_2/2 + 2 sum sigma_1(m) q^m; then exp equals the Witten
    class in the full root ring, with no reduction."""
    return log_witten(n, degree, q_order) + _weight_two(n, degree, q_order)


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
                work[e2] = work.get(e2, 0) - c
        else:
            out[e] = out.get(e, 0) + c
    # the constructor stores integral sums as int and drops zero ones
    return JetSeries(f.n, f.order, out)


def witten_exp_residuals(n, degree, q_order):
    """The residuals of :func:`witten_exp_check` and
    :func:`witten_exp_check_full`, building log Wit and Wit once for both."""
    log, wit = log_witten(n, degree, q_order), witten_class(n, degree, q_order)
    one = JetSeries.one(n, degree)
    return ((jet_exp(log, one) - wit).map_coeffs(reduce_mod_p2),
            jet_exp(log + _weight_two(n, degree, q_order), one) - wit)


def witten_exp_check(n, degree, q_order) -> JetSeries:
    """Residual of exp(log Wit) - Wit in the root ring modulo (p_2).

    The reduction modulo p_2 = sum x_i^2 is the Chern-root avatar of the
    vanishing second Chern character that the theory assumes; the full-ring
    identity including the weight-two term is exp(log_witten_full) = Wit,
    which witten_exp_check_full verifies with no reduction.
    """
    return witten_exp_residuals(n, degree, q_order)[0]


def witten_exp_check_full(n, degree, q_order) -> JetSeries:
    """Residual of exp(log_witten_full) - Wit in the full root ring."""
    return witten_exp_residuals(n, degree, q_order)[1]


def specialize_roots_zero(qs: JetSeries) -> JetSeries:
    """x -> 0 specialization: a rational q-series of constant terms."""
    return qs.map_coeffs(
        lambda c: c.constant_term() if isinstance(c, JetSeries) else c)


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
