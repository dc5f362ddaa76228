"""The beta-gamma vertex algebra on n generators, as an exact mode calculus.

States are polynomials in the creation symbols b^j_m (m <= -1, weight -m)
and c^j_m (m <= 0, weight -m) with rational coefficients, stored as ``int``
when integral and as ``fractions.Fraction`` otherwise (the checked
constructor and :meth:`VAState.scale` normalise them, as the jets do); all
generators are even, so monomials are plain multisets.  The vertex
structure is driven entirely by the two generating fields: the modes of
b^j_{-1} multiply by b-symbols (negative modes) or differentiate in c
(non-negative modes), the modes of c^j_0 multiply by c-symbols or
differentiate in b with a sign, and every other mode is a
derivative-of-generator mode.  The n-th product of composite states is
computed by the standard normally-ordered recursion (the l = -1
specialisation of the mode-composition identity), peeling the canonical
leading symbol.

Bookkeeping bounds on conformal weight and c_0-degree model the completed
algebra at finite size; all arithmetic below the bounds is exact, and the
strict policy turns any overflow into an error rather than silent loss.

States are immutable and operations pure.  The recursion memoizes on
module-level dicts whose entries are deterministic and policy-independent,
so concurrent use can at worst duplicate a computation (individual dict
reads/writes are atomic under the GIL); ``clear_mode_cache`` resets them,
together with every memo registered through ``on_cache_clear`` (the
per-operand memos of :mod:`formaldisk.hc`).
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter

from . import _kernel
from .errors import ShapeError, TruncationOverflowError
from .scalars import norm_coeff

# neutral coefficient: the mode calculus is integral, so plain ints carry
# most workloads and Fractions only enter through rational user input
ONE = 1

# symbol encoding: (kind, j, m) with kind 0 = b (m <= -1), 1 = c (m <= 0)
KIND_B = 0
KIND_C = 1


def sym_key(s):
    """Canonical order: b before c, then j ascending, then m descending."""
    return (s[0], s[1], -s[2])


def make_sym(kind, j, m):
    if kind == KIND_B and m > -1:
        raise ShapeError(f"b-symbol mode must be <= -1, got {m}")
    if kind == KIND_C and m > 0:
        raise ShapeError(f"c-symbol mode must be <= 0, got {m}")
    if j < 1:
        raise ShapeError("generator index must be >= 1")
    return (kind, j, m)


def sym_weight(s):
    return -s[2]


_MODE_INDEX = itemgetter(2)


def mono_weight(mono):
    # map with a C getter: no memo is needed, the sum costs about a lookup
    return -sum(map(_MODE_INDEX, mono))


def mono_c0_degree(mono):
    return sum(1 for s in mono if s[0] == KIND_C and s[2] == 0)


def mono_b_count(mono):
    return sum(1 for s in mono if s[0] == KIND_B)


def _sorted_mono(syms):
    return tuple(sorted(syms, key=sym_key))


class TruncationPolicy:
    """Bookkeeping bounds: max conformal weight, max c_0-degree, strictness."""

    __slots__ = ("max_weight", "max_c0", "strict")

    def __init__(self, max_weight, max_c0, strict=True):
        if max_weight < 0 or max_c0 < 0:
            raise ShapeError("policy bounds must be non-negative")
        self.max_weight = max_weight
        self.max_c0 = max_c0
        self.strict = strict

    def admits(self, mono):
        return mono_weight(mono) <= self.max_weight and \
            mono_c0_degree(mono) <= self.max_c0

    def reject(self, what):
        if self.strict:
            raise TruncationOverflowError(what)

    def __eq__(self, other):
        if not isinstance(other, TruncationPolicy):
            return NotImplemented
        return (self.max_weight, self.max_c0, self.strict) == \
            (other.max_weight, other.max_c0, other.strict)

    def __hash__(self):
        return hash((self.max_weight, self.max_c0, self.strict))

    def __repr__(self):
        mode = "strict" if self.strict else "drop"
        return f"TruncationPolicy(weight<={self.max_weight}, c0<={self.max_c0}, {mode})"


def _check_compatible(a, b):
    if a.n != b.n:
        raise ShapeError("states have different rank")
    if a.policy != b.policy:
        raise ShapeError("states carry different truncation policies")


class VAState:
    """Exact element of the (truncated) chiral-differential-operator space."""

    __slots__ = ("n", "policy", "terms")

    def __init__(self, n, policy, terms=None, _clean=False):
        if n < 1:
            raise ShapeError("rank must be >= 1")
        self.n = n
        self.policy = policy
        if terms is None:
            self.terms = {}
            return
        if _clean:
            self.terms = terms
            return
        clean = {}
        for mono, c in terms.items():
            if not c:
                continue
            mono = _sorted_mono(mono)
            for s in mono:
                if not 1 <= s[1] <= n:
                    raise ShapeError(f"symbol index {s[1]} out of range 1..{n}")
                make_sym(*s)
            if not policy.admits(mono):
                policy.reject(f"monomial exceeds policy: {mono}")
                continue
            clean[mono] = clean[mono] + c if mono in clean else c
        self.terms = {m: norm_coeff(c) for m, c in clean.items() if c}

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, n, policy):
        return cls(n, policy, {}, _clean=True)

    @classmethod
    def vacuum(cls, n, policy):
        return cls(n, policy, {(): ONE}, _clean=True)

    @classmethod
    def generator(cls, n, policy, kind, j, m, coeff=ONE):
        return cls(n, policy, {(make_sym(kind, j, m),): norm_coeff(coeff)})

    # -- structure ------------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def coefficient(self, syms):
        return self.terms.get(_sorted_mono(syms), Fraction(0))

    def weight_decomposition(self):
        """Map conformal weight -> homogeneous component."""
        buckets = {}
        for mono, c in self.terms.items():
            buckets.setdefault(mono_weight(mono), {})[mono] = c
        return {w: VAState(self.n, self.policy, t, _clean=True)
                for w, t in sorted(buckets.items())}

    def weight(self):
        """Weight of a homogeneous state (error otherwise, -1 for zero)."""
        ws = {mono_weight(m) for m in self.terms}
        if not ws:
            return -1
        if len(ws) > 1:
            raise ShapeError(f"state is not weight-homogeneous: weights {sorted(ws)}")
        return ws.pop()

    def max_weight(self):
        return max((mono_weight(m) for m in self.terms), default=0)

    def filtration_degree(self):
        """Number of b-symbols; max over monomials when inhomogeneous."""
        return max((mono_b_count(m) for m in self.terms), default=0)

    # -- linear structure -------------------------------------------------------

    def __add__(self, other):
        _check_compatible(self, other)
        out = dict(self.terms)
        _kernel.state_axpy(out, other.terms, 1)
        for m, c in other.terms.items():
            # the terms are normalised, so only adding a Fraction can leave
            # an integral Fraction behind
            if type(c) is Fraction and m in out:
                out[m] = norm_coeff(out[m])
        return VAState(self.n, self.policy, out, _clean=True)

    def __neg__(self):
        return VAState(self.n, self.policy,
                       {m: -c for m, c in self.terms.items()}, _clean=True)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar):
        scalar = norm_coeff(scalar)
        if not scalar:
            return VAState.zero(self.n, self.policy)
        return VAState(self.n, self.policy,
                       {m: norm_coeff(scalar * c) for m, c in self.terms.items()},
                       _clean=True)

    def __mul__(self, other):
        """Commutative product of creation polynomials (multiset merge)."""
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        _check_compatible(self, other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                key = _sorted_mono(m1 + m2)
                c = c1 * c2
                out[key] = out[key] + c if key in out else c
        return VAState(self.n, self.policy, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, VAState):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __repr__(self):
        from .grammar import format_state
        return f"VAState({self.n}; {format_state(self)})"


def vacuum(n, policy=None) -> VAState:
    if policy is None:
        policy = TruncationPolicy(8, 8)
    return VAState.vacuum(n, policy)


def _binom(i, k):
    """Generalized binomial C(i, k) for integer i (possibly negative), k >= 0."""
    num = 1
    for r in range(k):
        num *= i - r
    den = 1
    for r in range(2, k + 1):
        den *= r
    return num // den


def _apply_gen_mode(kind, j, i, data):
    """Mode i of the generating state (b^j_{-1} or c^j_0) on a raw dict."""
    if kind == KIND_B:
        if i < 0:
            return _kernel.state_mul_sym(data, (KIND_B, j, i))
        return _kernel.state_deriv_sym(data, (KIND_C, j, -i), 1)
    if i <= -1:
        return _kernel.state_mul_sym(data, (KIND_C, j, i + 1))
    return _kernel.state_deriv_sym(data, (KIND_B, j, -i - 1), -1)


def _apply_sym_mode(sym, i, data):
    """Mode i of the single-symbol state sym, using
    (T^k u)_(i) = (-1)^k i(i-1)...(i-k+1) u_(i-k)."""
    kind, j, m = sym
    k = -m - 1 if kind == KIND_B else -m
    if k == 0:  # generator symbol, unit coefficient
        return _apply_gen_mode(kind, j, i, data)
    coeff = _binom(i, k) * ((-1) ** (k & 1))
    if not coeff:
        return {}
    out = _apply_gen_mode(kind, j, i - k, data)
    if coeff != 1 and out:
        out = {mo: coeff * c for mo, c in out.items()}
    return out


_MODE_CACHE: dict = {}
_SYM_CACHE: dict = {}
_CLEAR_HOOKS: list = []


def on_cache_clear(hook):
    """Register a no-argument callable that ``clear_mode_cache`` also runs."""
    _CLEAR_HOOKS.append(hook)


def clear_mode_cache():
    _MODE_CACHE.clear()
    _SYM_CACHE.clear()
    for hook in _CLEAR_HOOKS:
        hook()


def _sym_mode_mono(sym, i, vmono):
    """Memoized single-symbol mode on a single monomial."""
    key = (sym, i, vmono)
    hit = _SYM_CACHE.get(key)
    if hit is None:
        hit = _apply_sym_mode(sym, i, {vmono: ONE})
        _SYM_CACHE[key] = hit
    return hit


def _mode_mono(amono, m, vmono):
    """Raw m-th product (monomial a)_(m) (monomial v) as a dict."""
    key = (amono, m, vmono)
    hit = _MODE_CACHE.get(key)
    if hit is not None:
        return hit
    if not amono:
        out = {vmono: ONE} if m == -1 else {}
    elif len(amono) == 1:
        out = _sym_mode_mono(amono[0], m, vmono)
    else:
        s = amono[0]
        rest = amono[1:]
        out = {}
        sym_cache = _SYM_CACHE
        axpy = _kernel.state_axpy
        # sum_i S_(-1-i) (R_(m+i) v): R_(m+i) v = 0 once m+i >= wt(R)+wt(v)
        top = mono_weight(rest) + mono_weight(vmono) - m
        for i in range(0, top):
            inner = _mode_mono(rest, m + i, vmono)
            for mono2, c2 in inner.items():
                skey = (s, -1 - i, mono2)
                sv = sym_cache.get(skey)
                if sv is None:
                    sv = _apply_sym_mode(s, -1 - i, {mono2: ONE})
                    sym_cache[skey] = sv
                axpy(out, sv, c2)
        # sum_i R_(m-1-i) (S_(i) v): S_(i) v = 0 once i >= wt(S)+wt(v)
        top = sym_weight(s) + mono_weight(vmono)
        for i in range(0, top):
            sv = _sym_mode_mono(s, i, vmono)
            for mono2, c2 in sv.items():
                axpy(out, _mode_mono(rest, m - 1 - i, mono2), c2)
    _MODE_CACHE[key] = out
    return out


def mode_apply(a: VAState, m: int, v: VAState) -> VAState:
    """The m-th product a_(m) v.

    Exact below the policy bounds; a product whose weight would exceed the
    policy either raises (strict) or is dropped (non-strict).
    """
    _check_compatible(a, v)
    policy = a.policy
    acc = {}
    for amono, ac in a.terms.items():
        wa = mono_weight(amono)
        for vmono, vc in v.terms.items():
            w = wa + mono_weight(vmono) - m - 1
            if w > policy.max_weight:
                policy.reject(
                    f"mode product weight {w} exceeds bound {policy.max_weight}")
                continue
            res = _mode_mono(amono, m, vmono)
            if res:
                _kernel.state_axpy(acc, res, ac * vc)
    # monomials arrive canonically sorted; only the c0 bound can still trip,
    # and only on a monomial with more symbols than the bound
    max_c0 = policy.max_c0
    over = [mo for mo in acc
            if len(mo) > max_c0 and mono_c0_degree(mo) > max_c0]
    for mo in over:
        policy.reject(f"mode product exceeds c0 bound: {mo}")
        del acc[mo]
    return VAState(a.n, policy, acc, _clean=True)


def translate(v: VAState) -> VAState:
    """Translation operator T: b_m -> -m b_{m-1}, c_m -> -(m-1) c_{m-1},
    extended as a derivation; T|0> = 0."""
    out = {}
    for mono, c in v.terms.items():
        for pos, s in enumerate(mono):
            kind, j, m = s
            factor = -m if kind == KIND_B else -(m - 1)
            if not factor:
                continue
            repl = (kind, j, m - 1)
            key = _sorted_mono(mono[:pos] + (repl,) + mono[pos + 1:])
            cc = factor * c
            out[key] = out[key] + cc if key in out else cc
    return VAState(v.n, v.policy, out)


def generator_mode(kind, j, i):
    """The endomorphism (generator)_(i) as a function on states."""
    def op(v: VAState) -> VAState:
        acc = {}
        for mono, c in v.terms.items():
            _kernel.state_axpy(acc, _apply_gen_mode(kind, j, i, {mono: ONE}), c)
        return VAState(v.n, v.policy, acc)
    return op


def weight_of(v: VAState):
    """Weight decomposition of a state (spec name for the bookkeeping map)."""
    return v.weight_decomposition()


def filtration_degree(v: VAState) -> int:
    return v.filtration_degree()


def borcherds_check(a: VAState, b: VAState, c: VAState, l: int, m: int):
    """Evaluate both sides of the mode-composition identity

        (a_(l) b)_(m) c = sum_j (-1)^j C(l,j)
            [ a_(l-j) (b_(m+j) c) - (-1)^l b_(l+m-j) (a_(j) c) ]

    and return (equal, lhs, rhs)."""
    _check_compatible(a, b)
    _check_compatible(a, c)
    lhs = mode_apply(mode_apply(a, l, b), m, c)
    rhs = VAState.zero(a.n, a.policy)
    jtop = max(b.max_weight() + c.max_weight() - m,
               a.max_weight() + c.max_weight(), 0)
    sign_l = (-1) ** (l & 1)
    for j in range(0, jtop + 1):
        cl_j = _binom(l, j) * ((-1) ** (j & 1))
        if not cl_j:
            continue
        first = mode_apply(a, l - j, mode_apply(b, m + j, c))
        second = mode_apply(b, l + m - j, mode_apply(a, j, c))
        rhs = rhs + (first - second.scale(sign_l)).scale(cl_j)
    return lhs == rhs, lhs, rhs


def enumerate_weight_monomials(n, weight):
    """Monomials in b^j_{-w}, c^j_{-w} (w >= 1) of exact total weight."""
    syms = []
    for w in range(1, weight + 1):
        for j in range(1, n + 1):
            syms.append((KIND_B, j, -w))
            syms.append((KIND_C, j, -w))

    out = []

    def rec(start, remaining, acc):
        if remaining == 0:
            out.append(_sorted_mono(acc))
            return
        for idx in range(start, len(syms)):
            s = syms[idx]
            w = sym_weight(s)
            if w <= remaining:
                rec(idx, remaining - w, acc + (s,))

    rec(0, weight, ())
    return sorted(set(out), key=lambda mo: tuple(sym_key(s) for s in mo))


def enumerate_c0_monomials(n, max_degree):
    """Monomials in the c^j_0 of degree <= max_degree."""
    out = []

    def rec(j, remaining, acc):
        if j > n:
            out.append(_sorted_mono(acc))
            return
        for k in range(remaining + 1):
            rec(j + 1, remaining - k, acc + ((KIND_C, j, 0),) * k)

    rec(1, max_degree, ())
    return sorted(set(out), key=lambda mo: (len(mo), tuple(sym_key(s) for s in mo)))


def enumerate_basis(n, max_weight, max_c0):
    """All basis monomials of weight <= max_weight and c0-degree <= max_c0."""
    out = []
    for w in range(max_weight + 1):
        for wm in enumerate_weight_monomials(n, w):
            for cm in enumerate_c0_monomials(n, max_c0):
                out.append(_sorted_mono(wm + cm))
    return out
