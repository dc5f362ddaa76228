"""Exact arithmetic on the formal n-disk at finite jet truncation.

Values are polynomial representatives of the quotient ring
Q[[t_1..t_n]] / m^(K+1): a :class:`JetSeries` stores a sparse map from
exponent multi-indices to exact scalars, and every binary operation
requires matching rank n and truncation order K.  Forms, vector fields,
matrices and automorphism jets are thin containers over JetSeries with
the usual Cartan calculus.

Coefficients are exact rationals: ``int`` or ``fractions.Fraction``, and
every operation here stores an integral one as ``int`` (``map_coeffs``
stores what its function returns).  Code that divides a coefficient must
divide exactly (``Fraction(c, m)``, never ``c / m`` on an ``int``).  Jets
can be coefficients too: the q-series of :mod:`formaldisk.characters` put
jets over the Chern roots in the slots, and the van Est derivative of
:mod:`formaldisk.gms` puts jets in two parameters s, u there; both take
the kernel's generic path.

A jet is a unit when its constant term is; :meth:`JetSeries.inverse`
inverts it over any coefficient ring.  Matrices of scalars or of jets have
one inverse, :func:`_matrix_inverse`, Gauss-Jordan elimination pivoting on
units; :mod:`formaldisk.gms` does not use it, and takes its Jacobians'
adjugates and determinants by cofactors instead (:func:`adjugate`), which
invert nothing.  Products of jet matrices and their traces are sums of jet
products, and :func:`matrix_products` and :func:`trace_products` hand a
whole batch of them to the kernel in one call (:func:`jet_dots`).

Truncation semantics worth remembering:

* products drop terms above order K (quotient semantics, exact);
* ``JetSeries.partial`` is exact on the stored representative, but as a
  statement about a genuine power series it is only trustworthy to
  order K-1 -- build inputs one order higher when that matters;
* ``poincare_homotopy`` multiplies by coordinates, so its output is
  reported at order K+1 to keep ``d h(w) = w`` exact.

Substitution has one path, the operator :class:`Substitution`, which
memoises the monomials of the substituted jets; ``JetSeries.subs``,
``jet_compose``, ``pullback_jet`` and ``pullback_form`` are built on it.

All values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

from fractions import Fraction

from . import _kernel
from .errors import ClosednessError, InvertibilityError, ShapeError
from .scalars import is_unit, norm_coeff, one_of, rat, scalar_inv


def _div_exact(c, m):
    """Exact quotient of a coefficient by a positive integer: an integral
    quotient of an ``int`` is an ``int``, and a jet coefficient is scaled."""
    if type(c) is int:
        return c // m if not c % m else Fraction(c, m)
    return c * Fraction(1, m)


def _check_same(a, b):
    if a.n != b.n or a.order != b.order:
        raise ShapeError(
            f"rank/order mismatch: ({a.n},{a.order}) vs ({b.n},{b.order})")


class JetSeries:
    """Truncated formal power series in t_1..t_n with exact coefficients."""

    __slots__ = ("n", "order", "coeffs")

    def __init__(self, n, order, coeffs=None, _clean=False):
        if n < 1:
            raise ShapeError("rank must be >= 1")
        if order < 0:
            raise ShapeError("truncation order must be >= 0")
        self.n = n
        self.order = order
        if coeffs is None:
            self.coeffs = {}
        elif _clean:
            self.coeffs = coeffs
        else:
            clean = {}
            for e, c in coeffs.items():
                e = tuple(int(x) for x in e)
                if len(e) != n or any(x < 0 for x in e):
                    raise ShapeError(f"bad exponent {e} for rank {n}")
                if sum(e) > order or not c:
                    continue
                clean[e] = (clean[e] + c) if e in clean else c
            self.coeffs = {e: norm_coeff(c) for e, c in clean.items() if c}

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, n, order):
        return cls(n, order, {}, _clean=True)

    @classmethod
    def const(cls, n, order, value):
        value = norm_coeff(value)
        if not value:
            return cls.zero(n, order)
        return cls(n, order, {(0,) * n: value}, _clean=True)

    @classmethod
    def one(cls, n, order):
        return cls.const(n, order, 1)

    @classmethod
    def variable(cls, n, order, i, power=1):
        """The monomial t_i^power (i is 1-based)."""
        if not 1 <= i <= n:
            raise ShapeError(f"variable index {i} out of range 1..{n}")
        if power > order:
            return cls.zero(n, order)
        e = [0] * n
        e[i - 1] = power
        return cls(n, order, {tuple(e): 1}, _clean=True)

    @classmethod
    def monomial(cls, n, order, exponents, coeff=1):
        return cls(n, order, {tuple(exponents): coeff})

    # -- structure ---------------------------------------------------------

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def constant_term(self):
        return self.coeffs.get((0,) * self.n, Fraction(0))

    def is_unit(self):
        """True when the constant term is a unit of the coefficient ring."""
        return is_unit(self.constant_term())

    def inverse(self):
        """For self = c (1 + g) with g in the maximal ideal, the inverse
        c^{-1} sum_k (-g)^k, in at most K products."""
        c = self.constant_term()
        if not is_unit(c):
            raise InvertibilityError("jet with a non-unit constant term")
        cinv = scalar_inv(c)
        h = 1 - self.scale(cinv)  # -g
        out = term = JetSeries.one(self.n, self.order)
        for _ in range(self.order):
            term = term * h
            if not term:
                break
            out = out + term
        return out.scale(cinv)

    def with_order(self, order):
        """Reinterpret the stored representative at another order.

        Raising the order is only meaningful for values known to be exact
        polynomials; lowering it truncates.
        """
        if order >= self.order:
            return JetSeries(self.n, order, dict(self.coeffs), _clean=True)
        return JetSeries(self.n, order,
                         {e: c for e, c in self.coeffs.items() if sum(e) <= order},
                         _clean=True)

    def map_coeffs(self, fn):
        out = {}
        for e, c in self.coeffs.items():
            v = fn(c)
            if v:
                out[e] = v
        return JetSeries(self.n, self.order, out, _clean=True)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = JetSeries.const(self.n, self.order, rat(other))
        _check_same(self, other)
        out = dict(self.coeffs)
        _kernel.poly_axpy(out, other.coeffs, 1)
        return JetSeries(self.n, self.order, out, _clean=True)

    __radd__ = __add__

    def __neg__(self):
        return JetSeries(self.n, self.order,
                         {e: -c for e, c in self.coeffs.items()}, _clean=True)

    def __sub__(self, other):
        if not isinstance(other, JetSeries):
            return self + -rat(other)
        _check_same(self, other)
        return JetSeries(self.n, self.order,
                         _kernel.poly_axpy(dict(self.coeffs), other.coeffs, -1),
                         _clean=True)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, JetSeries):
            _check_same(self, other)
            return JetSeries(self.n, self.order,
                             _kernel.poly_mul(self.coeffs, other.coeffs, self.order),
                             _clean=True)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, scalar):
        scalar = norm_coeff(scalar)
        if not scalar:
            return JetSeries.zero(self.n, self.order)
        out = {}
        for e, c in self.coeffs.items():
            v = scalar * c
            if v:
                # only a Fraction product can be an integral Fraction
                out[e] = norm_coeff(v) if type(v) is Fraction else v
        return JetSeries(self.n, self.order, out, _clean=True)

    def __pow__(self, k):
        if k < 0:
            raise ShapeError("negative powers of jets are not defined here")
        out = JetSeries.one(self.n, self.order)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __eq__(self, other):
        # a jet with no term but the constant one equals that constant, so
        # a jet over jets and a jet over Q with the same value are equal
        if isinstance(other, (int, Fraction)):
            return self._is_constant() and self.constant_term() == other
        if not isinstance(other, JetSeries):
            return NotImplemented
        return (self.n, self.order) == (other.n, other.order) and \
            self.coeffs == other.coeffs

    def __hash__(self):
        if self._is_constant():
            return hash(self.constant_term())
        return hash((self.n, self.order, frozenset(self.coeffs.items())))

    def _is_constant(self):
        """True when no term but the constant one is stored."""
        return not self.coeffs or (len(self.coeffs) == 1
                                   and (0,) * self.n in self.coeffs)

    def __repr__(self):
        from .grammar import format_jet
        return f"JetSeries({self.n},{self.order}; {format_jet(self)})"

    # -- calculus ------------------------------------------------------------

    def partial(self, i):
        """Formal d/dt_i, 1-based; exact on the stored representative."""
        if not 1 <= i <= self.n:
            raise ShapeError(f"direction {i} out of range 1..{self.n}")
        out = {}
        k = i - 1
        for e, c in self.coeffs.items():
            if e[k] == 0:
                continue
            v = e[k] * c
            # only a Fraction product can be an integral Fraction
            out[e[:k] + (e[k] - 1,) + e[k + 1:]] = \
                norm_coeff(v) if type(v) is Fraction else v
        return JetSeries(self.n, self.order, out, _clean=True)

    def subs(self, args):
        """Substitute the JetSeries tuple ``args`` (zero constant terms) for
        the variables, at order min(self.order, args order)."""
        if len(args) != self.n:
            raise ShapeError("substitution needs one series per variable")
        return Substitution(args, min(self.order, args[0].order)).jet(self)


class FormalForm:
    """Differential k-form with JetSeries coefficients.

    Only strictly increasing index tuples are stored, so antisymmetry is
    canonical.  Degree 0 forms store their single coefficient at key ().
    Any degree is allowed: above the rank only the zero form exists, and
    every form operation returns the degree its algebra gives.
    """

    __slots__ = ("n", "order", "degree", "comps")

    def __init__(self, n, order, degree, comps=None):
        if degree < 0:
            raise ShapeError("form degree must be >= 0")
        if degree > n:  # above top degree only the zero form exists
            comps = {}
        self.n = n
        self.order = order
        self.degree = degree
        clean = {}
        for idx, f in (comps or {}).items():
            idx = tuple(idx)
            if len(idx) != degree or list(idx) != sorted(set(idx)):
                raise ShapeError(f"component index {idx} must be strictly increasing")
            if any(not 1 <= i <= n for i in idx):
                raise ShapeError(f"component index {idx} out of range")
            if f.n != n or f.order != order:
                raise ShapeError("component rank/order mismatch")
            if not f.is_zero():
                clean[idx] = f
        self.comps = clean

    @classmethod
    def zero(cls, n, order, degree=0):
        return cls(n, order, degree, {})

    @classmethod
    def from_jet(cls, f: JetSeries):
        return cls(f.n, f.order, 0, {(): f})

    @classmethod
    def dt(cls, n, order, i):
        return cls(n, order, 1, {(i,): JetSeries.one(n, order)})

    def component(self, idx):
        idx = tuple(idx)
        return self.comps.get(idx, JetSeries.zero(self.n, self.order))

    def is_zero(self):
        return not self.comps

    def __bool__(self):
        return bool(self.comps)

    def with_order(self, order):
        return FormalForm(self.n, order, self.degree,
                          {i: f.with_order(order) for i, f in self.comps.items()})

    def map_coeffs(self, fn):
        return FormalForm(self.n, self.order, self.degree,
                          {i: f.map_coeffs(fn) for i, f in self.comps.items()})

    def __add__(self, other):
        _check_same(self, other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.degree != other.degree:
            raise ShapeError("cannot add forms of different degree")
        out = dict(self.comps)
        for idx, f in other.comps.items():
            g = out.get(idx)
            out[idx] = f if g is None else g + f
        return FormalForm(self.n, self.order, self.degree, out)

    def __neg__(self):
        return FormalForm(self.n, self.order, self.degree,
                          {i: -f for i, f in self.comps.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar):
        return FormalForm(self.n, self.order, self.degree,
                          {i: f.scale(scalar) for i, f in self.comps.items()})

    def scale_jet(self, f: JetSeries):
        return FormalForm(self.n, self.order, self.degree,
                          {i: g * f for i, g in self.comps.items()})

    def __eq__(self, other):
        if not isinstance(other, FormalForm):
            return NotImplemented
        if (self.n, self.order) != (other.n, other.order):
            return False
        if self.is_zero() and other.is_zero():
            return True
        return self.degree == other.degree and self.comps == other.comps

    def __hash__(self):
        # zero forms of every degree are equal; indices fix a nonzero degree
        return hash((self.n, self.order, frozenset(self.comps.items())))

    def __repr__(self):
        from .grammar import format_form
        return f"FormalForm({self.n},{self.order}; {format_form(self)})"


def _wedge_index(i_tuple, j_tuple):
    """Merge two increasing tuples; return (sign, merged), or None when they
    share an index.  The sign is the parity of the pairs x in i_tuple,
    y in j_tuple with x > y: a y merged ahead of x passes every x left."""
    merged = []
    inversions = p = q = 0
    li, lj = len(i_tuple), len(j_tuple)
    while p < li and q < lj:
        x, y = i_tuple[p], j_tuple[q]
        if x < y:
            merged.append(x)
            p += 1
        elif y < x:
            merged.append(y)
            q += 1
            inversions += li - p
        else:
            return None
    merged += i_tuple[p:] or j_tuple[q:]
    return -1 if inversions & 1 else 1, tuple(merged)


def wedge(w1: FormalForm, w2: FormalForm) -> FormalForm:
    """Graded-commutative wedge, of degree p + q; above the rank every index
    pair overlaps, which leaves the zero form of that degree."""
    _check_same(w1, w2)
    out = {}
    for i1, f1 in w1.comps.items():
        for i2, f2 in w2.comps.items():
            si = _wedge_index(i1, i2)
            if si is None:
                continue
            sign, idx = si
            term = f1 * f2
            if term.is_zero():
                continue
            if sign < 0:
                term = -term
            g = out.get(idx)
            out[idx] = term if g is None else g + term
    return FormalForm(w1.n, w1.order, w1.degree + w2.degree, out)


def de_rham(w: FormalForm) -> FormalForm:
    """Exterior derivative, of degree k + 1; from the top degree on every
    dt_i overlaps the index, which leaves the zero form of that degree."""
    out = {}
    for idx, f in w.comps.items():
        for i in range(1, w.n + 1):
            si = _wedge_index((i,), idx)
            if si is None:
                continue
            df = f.partial(i)
            if df.is_zero():
                continue
            sign, nidx = si
            term = -df if sign < 0 else df
            g = out.get(nidx)
            out[nidx] = term if g is None else g + term
    return FormalForm(w.n, w.order, w.degree + 1, out)


class FormalVectorField:
    """Element of W_n: components are the coefficients of d/dt_i."""

    # the hash is kept: fields key the per-operand memos of the state
    # actions, which look them up once per state
    __slots__ = ("n", "order", "comps", "_hash")

    def __init__(self, n, order, comps):
        comps = list(comps)
        if len(comps) != n:
            raise ShapeError("need one component per direction")
        for f in comps:
            if f.n != n or f.order != order:
                raise ShapeError("component rank/order mismatch")
        self.n = n
        self.order = order
        self.comps = comps
        self._hash = None

    @classmethod
    def zero(cls, n, order):
        return cls(n, order, [JetSeries.zero(n, order)] * n)

    @classmethod
    def monomial(cls, n, order, exponents, direction, coeff=1):
        """coeff * t^exponents d/dt_direction (direction 1-based)."""
        comps = [JetSeries.zero(n, order) for _ in range(n)]
        comps[direction - 1] = JetSeries.monomial(n, order, exponents, coeff)
        return cls(n, order, comps)

    def component(self, i):
        return self.comps[i - 1]

    def is_zero(self):
        return all(f.is_zero() for f in self.comps)

    def vanishes_at_origin(self):
        return all(not f.constant_term() for f in self.comps)

    def degree(self):
        """The largest total degree of a stored term; 0 for the zero
        field."""
        return max((sum(e) for f in self.comps for e in f.coeffs), default=0)

    def with_order(self, order):
        return FormalVectorField(self.n, order,
                                 [f.with_order(order) for f in self.comps])

    def __add__(self, other):
        _check_same(self, other)
        return FormalVectorField(self.n, self.order,
                                 [a + b for a, b in zip(self.comps, other.comps)])

    def __neg__(self):
        return FormalVectorField(self.n, self.order, [-f for f in self.comps])

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar):
        return FormalVectorField(self.n, self.order,
                                 [f.scale(scalar) for f in self.comps])

    def apply_to(self, f: JetSeries) -> JetSeries:
        """X(f) = sum_i X^i d f/dt_i."""
        out = JetSeries.zero(self.n, self.order)
        for i in range(1, self.n + 1):
            out = out + self.comps[i - 1] * f.partial(i)
        return out

    def __eq__(self, other):
        if not isinstance(other, FormalVectorField):
            return NotImplemented
        return (self.n, self.order) == (other.n, other.order) and \
            self.comps == other.comps

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.n, self.order, tuple(self.comps)))
        return self._hash

    def __repr__(self):
        from .grammar import format_vf
        return f"FormalVectorField({self.n},{self.order}; {format_vf(self)})"


def vf_bracket(x: FormalVectorField, y: FormalVectorField) -> FormalVectorField:
    """[X,Y]^i = sum_j (X^j d_j Y^i - Y^j d_j X^i)."""
    _check_same(x, y)
    comps = []
    for i in range(1, x.n + 1):
        comps.append(x.apply_to(y.comps[i - 1]) - y.apply_to(x.comps[i - 1]))
    return FormalVectorField(x.n, x.order, comps)


def contract(x: FormalVectorField, w: FormalForm) -> FormalForm:
    """Interior product i_X."""
    _check_same(x, w)
    if w.degree == 0:
        return FormalForm.zero(w.n, w.order, 0)
    out = {}
    for idx, f in w.comps.items():
        for pos, i in enumerate(idx):
            xi = x.comps[i - 1]
            if xi.is_zero():
                continue
            term = -(f * xi) if pos % 2 else f * xi
            nidx = idx[:pos] + idx[pos + 1:]
            g = out.get(nidx)
            out[nidx] = term if g is None else g + term
    return FormalForm(w.n, w.order, w.degree - 1, out)


def lie_derivative(x: FormalVectorField, w: FormalForm) -> FormalForm:
    """Cartan formula L_X = d i_X + i_X d."""
    _check_same(x, w)
    return de_rham(contract(x, w)) + contract(x, de_rham(w))


class JetMatrix:
    """n x n matrix over the truncated ring."""

    __slots__ = ("n", "order", "entries")

    def __init__(self, n, order, entries):
        entries = [list(row) for row in entries]
        if len(entries) != n or any(len(r) != n for r in entries):
            raise ShapeError("matrix must be n x n")
        for row in entries:
            for f in row:
                if f.n != n or f.order != order:
                    raise ShapeError("entry rank/order mismatch")
        self.n = n
        self.order = order
        self.entries = entries

    @classmethod
    def zero(cls, n, order):
        zero = JetSeries.zero(n, order)
        return cls(n, order, [[zero] * n for _ in range(n)])

    @classmethod
    def identity(cls, n, order):
        one, zero = JetSeries.one(n, order), JetSeries.zero(n, order)
        return cls(n, order, [[one if i == j else zero for j in range(n)]
                              for i in range(n)])

    def __add__(self, other):
        _check_same(self, other)
        return JetMatrix(self.n, self.order,
                         [[a + b for a, b in zip(ra, rb)]
                          for ra, rb in zip(self.entries, other.entries)])

    def __sub__(self, other):
        _check_same(self, other)
        return JetMatrix(self.n, self.order,
                         [[a - b for a, b in zip(ra, rb)]
                          for ra, rb in zip(self.entries, other.entries)])

    def __neg__(self):
        return JetMatrix(self.n, self.order,
                         [[-a for a in row] for row in self.entries])

    def __mul__(self, other):
        """Matrix product; an entry product with a zero factor is skipped."""
        return matrix_products([(self, other)])[0]

    def map_entries(self, fn):
        return JetMatrix(self.n, self.order,
                         [[fn(f) for f in row] for row in self.entries])

    def __eq__(self, other):
        if not isinstance(other, JetMatrix):
            return NotImplemented
        return (self.n, self.order) == (other.n, other.order) and \
            self.entries == other.entries

    def __repr__(self):
        return f"JetMatrix({self.n},{self.order})"


def jet_dots(rows, n, order):
    """The sums of products sum a*b, one per row ``[(a, b), ...]`` of jets
    of rank ``n`` and order ``order``, in one kernel call; a pair with a
    zero factor forms no product."""
    sums = _kernel.poly_dots([[(a.coeffs, b.coeffs) for a, b in row if a and b]
                              for row in rows], order)
    return [JetSeries(n, order, s, _clean=True) for s in sums]


def _batch_shape(pairs):
    n, order = pairs[0][0].n, pairs[0][0].order
    for a, b in pairs:
        _check_same(a, pairs[0][0])
        _check_same(a, b)
    return n, order


def matrix_products(pairs):
    """The products a*b of a batch of pairs of jet matrices of one rank and
    order, in one kernel call."""
    if not pairs:
        return []
    n, order = _batch_shape(pairs)
    rng = range(n)
    sums = jet_dots([[(a.entries[i][k], b.entries[k][j]) for k in rng]
                     for a, b in pairs for i in rng for j in rng], n, order)
    return [JetMatrix(n, order, [sums[p + i * n:p + (i + 1) * n]
                                 for i in rng])
            for p in range(0, len(sums), n * n)]


def trace_products(pairs):
    """The traces tr(ab) of a batch of pairs of jet matrices of one rank and
    order, in one kernel call, without the off-diagonal entries of ab."""
    if not pairs:
        return []
    n, order = _batch_shape(pairs)
    rng = range(n)
    return jet_dots([[(a.entries[i][j], b.entries[j][i])
                      for i in rng for j in rng] for a, b in pairs], n, order)


class JetAutomorphism:
    """Jet of a formal automorphism: components in the maximal ideal with an
    invertible linear part."""

    __slots__ = ("n", "order", "comps")

    def __init__(self, n, order, comps):
        comps = list(comps)
        if len(comps) != n:
            raise ShapeError("automorphism needs n components")
        for f in comps:
            if f.n != n or f.order != order:
                raise ShapeError("component rank/order mismatch")
            if f.constant_term():
                raise InvertibilityError(
                    "automorphism components must vanish at the origin")
        self.n = n
        self.order = order
        self.comps = comps
        if _matrix_inverse(self.linear_part()) is None:
            raise InvertibilityError("linear part is singular")

    @classmethod
    def identity(cls, n, order):
        return cls(n, order, [JetSeries.variable(n, order, i)
                              for i in range(1, n + 1)])

    def linear_part(self):
        out = []
        for f in self.comps:
            row = []
            for j in range(self.n):
                e = tuple(1 if k == j else 0 for k in range(self.n))
                row.append(f.coeffs.get(e, Fraction(0)))
            out.append(row)
        return out

    def __eq__(self, other):
        if not isinstance(other, JetAutomorphism):
            return NotImplemented
        return (self.n, self.order) == (other.n, other.order) and \
            self.comps == other.comps

    def __repr__(self):
        from .grammar import format_jet
        body = ", ".join(format_jet(f) for f in self.comps)
        return f"JetAutomorphism({self.n},{self.order}; ({body}))"


def _matrix_inverse(rows):
    """Gauss-Jordan elimination pivoting on units; None when singular.

    The entries may be rationals or jets, over rationals or over jets.
    These rings are local, so an invertible matrix always offers a unit
    pivot.  Zero and one are those of the first column's first unit, so a
    jet over jets gets its coefficients' one; a product with a zero factor
    is skipped.
    """
    n = len(rows)
    unit = next((r[0] for r in rows if is_unit(r[0])), None)
    if unit is None:
        return None
    one = one_of(unit)
    zero = one * 0
    a = [list(r) for r in rows]
    inv = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if is_unit(a[r][col])), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        d = scalar_inv(a[col][col])
        a[col] = [d * v if v else v for v in a[col]]
        inv[col] = [d * v if v else v for v in inv[col]]
        for r in range(n):
            f = a[r][col]
            if r == col or not f:
                continue
            a[r] = [x - f * y if y else x for x, y in zip(a[r], a[col])]
            inv[r] = [x - f * y if y else x for x, y in zip(inv[r], inv[col])]
    return inv


def jet_compose(outer: JetAutomorphism, inner: JetAutomorphism) -> JetAutomorphism:
    """Substitution outer(inner(t)); result order is the min of the two."""
    if outer.n != inner.n:
        raise ShapeError("rank mismatch in composition")
    order = min(outer.order, inner.order)
    sub = Substitution(inner.comps, order)
    return JetAutomorphism(outer.n, order, [sub.jet(f) for f in outer.comps])


def jacobian(phi: JetAutomorphism) -> JetMatrix:
    """Jac(phi)_ij = d phi_i / d t_j."""
    n = phi.n
    return JetMatrix(n, phi.order,
                     [[phi.comps[i].partial(j + 1) for j in range(n)]
                      for i in range(n)])


def jet_invert(x):
    """Two-sided inverse to order K of a JetMatrix."""
    if isinstance(x, JetMatrix):
        inv = _matrix_inverse(x.entries)
        if inv is None:
            raise InvertibilityError("constant term of matrix is singular")
        return JetMatrix(x.n, x.order, inv)
    raise ShapeError(f"cannot invert {type(x).__name__}")


def adjugate(m: JetMatrix):
    """(adj m, det m) by cofactors, over any coefficient ring; no entry is
    inverted, so a singular matrix has both too.

    The minor of the rows R and columns C (increasing tuples) is expanded
    along its first row, sum_j (-1)^j m[R_0][C_j] minor(R - R_0, C - C_j).
    The minors that the cofactors adj[j][i] = (-1)^(i+j) minor(rows - i,
    cols - j) and the determinant need are collected from the top down and
    formed from the bottom up, each once, the minors of one size in one
    kernel call.
    """
    n, order, e = m.n, m.order, m.entries
    full = tuple(range(n))

    def drop(t, k):
        return t[:k] + t[k + 1:]

    need = [set() for _ in range(n + 1)]
    need[n].add((full, full))
    need[n - 1].update((drop(full, i), drop(full, j))
                       for i in full for j in full)
    for k in range(n, 1, -1):
        need[k - 1].update((r[1:], drop(c, j))
                           for r, c in need[k] for j in range(k))
    minors = {((), ()): JetSeries.one(n, order)}
    minors.update({((i,), (j,)): e[i][j] for i in full for j in full})
    signed = (e, [[-f for f in row] for row in e])
    for k in range(2, n + 1):
        keys = sorted(need[k])
        minors.update(zip(keys, jet_dots(
            [[(signed[j & 1][r[0]][c[j]], minors[r[1:], drop(c, j)])
              for j in range(k)] for r, c in keys], n, order)))

    def cofactor(i, j):
        minor = minors[drop(full, i), drop(full, j)]
        return -minor if (i + j) & 1 else minor

    return (JetMatrix(n, order, [[cofactor(i, j) for i in full]
                                 for j in full]),
            minors[full, full])


def poincare_homotopy(w: FormalForm) -> FormalForm:
    """Radial (Euler-operator) homotopy h with d h(w) = w for closed w.

    Uses the standard coordinates: h(t^a dt_I) multiplies by coordinates and
    divides by (|a| + k), so the result is reported at order K+1 to keep the
    identity exact on the stored representative.
    """
    if w.degree < 1:
        raise ShapeError("homotopy needs a form of degree >= 1")
    if not de_rham(w).is_zero():
        raise ClosednessError("poincare_homotopy requires a closed form")
    n, order, k = w.n, w.order + 1, w.degree
    acc = {}  # index of the (k-1)-form -> its coefficients
    for idx, f in w.comps.items():
        scaled = {e: _div_exact(c, sum(e) + k) for e, c in f.coeffs.items()}
        for pos, i in enumerate(idx):
            shifted = {e[:i - 1] + (e[i - 1] + 1,) + e[i:]: c
                       for e, c in scaled.items()}
            _kernel.poly_axpy(acc.setdefault(idx[:pos] + idx[pos + 1:], {}),
                              shifted, -1 if pos % 2 else 1)
    return FormalForm(n, order, k - 1, {
        nidx: JetSeries(n, order, coeffs, _clean=True)
        for nidx, coeffs in acc.items()})


def integrate_var(f: JetSeries, i: int) -> JetSeries:
    """Monomial antiderivative in t_i, vanishing at t_i = 0; order rises by 1."""
    if not 1 <= i <= f.n:
        raise ShapeError(f"direction {i} out of range 1..{f.n}")
    out = {}
    k = i - 1
    for e, c in f.coeffs.items():
        e2 = e[:k] + (e[k] + 1,) + e[k + 1:]
        out[e2] = _div_exact(c, e[k] + 1)
    return JetSeries(f.n, f.order + 1, out, _clean=True)


def staircase_primitive(w: FormalForm) -> FormalForm:
    """A non-radial primitive of a closed 2-form, by iterated t_a-integration.

    Used as an independent counterpart to :func:`poincare_homotopy`: the two
    primitives differ by an exact form.  Result order is K+1.
    """
    if w.degree != 2:
        raise ShapeError("staircase_primitive expects a two-form")
    if not de_rham(w).is_zero():
        raise ClosednessError("staircase_primitive requires a closed form")
    n, order = w.n, w.order + 1
    theta = FormalForm.zero(n, order, 1)
    rem = w.with_order(order)
    for a in range(1, n):
        comps = {}
        for (i1, i2), f in rem.comps.items():
            if i1 != a:
                continue
            g = integrate_var(f, a).with_order(order)
            if (i2,) in comps:
                comps[(i2,)] = comps[(i2,)] + g
            else:
                comps[(i2,)] = g
        if not comps:
            continue
        part = FormalForm(n, order, 1, comps)
        theta = theta + part
        rem = rem - de_rham(part)
    if not rem.is_zero():
        raise ClosednessError("staircase integration left a residual; "
                              "input was not closed at this truncation")
    return theta


def pullback_form(phi: JetAutomorphism, w: FormalForm) -> FormalForm:
    """phi^*(f dt_I) = (f o phi) d phi_{i1} ^ ... ^ d phi_{ik}."""
    if phi.n != w.n:
        raise ShapeError("rank mismatch in pullback")
    return Substitution(phi.comps, min(phi.order, w.order)).form(w)


def pullback_jet(phi: JetAutomorphism, f: JetSeries) -> JetSeries:
    return Substitution(phi.comps, min(phi.order, f.order)).jet(f)


class Substitution:
    """The substitution t_i -> args_i at one truncation order, built once.

    ``args`` are jets of one rank and order with zero constant terms (the
    components of an automorphism, say).  The monomials args^e are memoised,
    each one product of a smaller monomial and one argument, so pulling a
    jet sum_e c_e t^e back is the sum of the c_e args^e and makes no product
    beyond the monomials not met before.  The differentials d args_i, for
    pulling forms back, are built on first use.  :meth:`JetSeries.subs`,
    :func:`jet_compose`, :func:`pullback_jet` and :func:`pullback_form` all
    build one of these; a caller that pulls many values back along the
    same jets builds it once and keeps it.
    """

    __slots__ = ("order", "args", "_source", "_mono", "_diffs")

    def __init__(self, args, order):
        args = tuple(args)
        m, aorder = args[0].n, args[0].order
        for g in args:
            if g.n != m or g.order != aorder:
                raise ShapeError("substitution arguments must share rank/order")
            if g.constant_term():
                raise InvertibilityError(
                    "substitution requires zero constant terms")
        self.order = order
        self.args = tuple(g.with_order(order) for g in args)
        self._source = args
        self._mono = {(0,) * len(args): JetSeries.one(m, order)}
        for i, g in enumerate(self.args):
            self._mono[tuple(int(k == i) for k in range(len(args)))] = g
        self._diffs = None

    def _monomial(self, e):
        got = self._mono.get(e)
        if got is None:
            i = len(e) - 1
            while not e[i]:
                i -= 1
            got = self._monomial(e[:i] + (e[i] - 1,) + e[i + 1:]) \
                * self.args[i]
            self._mono[e] = got
        return got

    def jet(self, f: JetSeries) -> JetSeries:
        """f(args), at the substitution order."""
        if f.n != len(self.args):
            raise ShapeError("substitution needs one series per variable")
        order = self.order
        out = {}
        for e, c in f.coeffs.items():
            # args^e lies in m^|e|, so it vanishes above the order
            if sum(e) <= order:
                _kernel.poly_axpy(out, self._monomial(e).coeffs, c)
        return JetSeries(self.args[0].n, order, out, _clean=True)

    def differentials(self):
        """The one-forms d args_i, truncated to the substitution order."""
        if self._diffs is None:
            m, order = self.args[0].n, self.order
            self._diffs = [
                FormalForm(m, order, 1,
                           {(j,): g.partial(j).with_order(order)
                            for j in range(1, m + 1)})
                for g in self._source]
        return self._diffs

    def form(self, w: FormalForm) -> FormalForm:
        """The pullback of ``w``: f dt_I goes to f(args) d args_I."""
        if w.n != len(self.args):
            raise ShapeError("rank mismatch in pullback")
        diffs = self.differentials()
        out = FormalForm.zero(self.args[0].n, self.order, w.degree)
        for idx, f in w.comps.items():
            term = FormalForm.from_jet(self.jet(f))
            for i in idx:
                term = wedge(term, diffs[i - 1])
            out = out + term
        return out


class FormMatrix:
    """n x n matrix of FormalForms (mixed degrees allowed per entry).

    The product forms each entry's first term, which fixes its degree and
    order, and after it skips the terms with a zero factor.  A matrix of
    jets enters as a matrix of 0-forms.
    """

    __slots__ = ("n", "order", "entries")

    def __init__(self, n, order, entries):
        entries = [list(row) for row in entries]
        if len(entries) != n or any(len(r) != n for r in entries):
            raise ShapeError("matrix must be n x n")
        self.n = n
        self.order = order
        self.entries = entries

    def wedge_mul(self, other: "FormMatrix") -> "FormMatrix":
        n = self.n
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = None
                for k in range(n):
                    x, y = self.entries[i][k], other.entries[k][j]
                    if acc is None:
                        acc = wedge(x, y)
                    elif x and y:
                        acc = acc + wedge(x, y)
                row.append(acc)
            out.append(row)
        return FormMatrix(n, self.order, out)

    def trace(self) -> FormalForm:
        acc = None
        for i in range(self.n):
            acc = self.entries[i][i] if acc is None else acc + self.entries[i][i]
        return acc

    def map_entries(self, fn):
        return FormMatrix(self.n, self.order,
                          [[fn(f) for f in row] for row in self.entries])


def monomial_exponents(n, max_degree, min_degree=0):
    """Exponent tuples e in N^n with min_degree <= |e| <= max_degree."""
    def gen(prefix, remaining_slots, budget):
        if remaining_slots == 0:
            yield prefix
            return
        for k in range(budget + 1):
            yield from gen(prefix + (k,), remaining_slots - 1, budget - k)

    return [e for e in gen((), n, max_degree) if sum(e) >= min_degree]


def basis_monomial_fields(n, order, max_degree, min_degree=0):
    """All monomial vector fields t^a d_j with min_degree <= |a| <= max_degree
    and |a| <= order: a field of degree above the order is zero."""
    return [FormalVectorField.monomial(n, order, e, j)
            for e in monomial_exponents(n, min(max_degree, order), min_degree)
            for j in range(1, n + 1)]
