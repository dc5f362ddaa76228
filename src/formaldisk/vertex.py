"""The beta-gamma vertex algebra on n generators, as an exact mode calculus.

States are polynomials in the creation symbols b^j_m (m <= -1, weight -m)
and c^j_m (m <= 0, weight -m) with rational coefficients, stored as ``int``
when integral and as ``fractions.Fraction`` otherwise (every operation
normalises them, as the jets do); all generators are even, so monomials
are plain multisets.  The vertex
structure is driven entirely by the two generating fields: the modes of
b^j_{-1} multiply by b-symbols (negative modes) or differentiate in c
(non-negative modes), the modes of c^j_0 multiply by c-symbols or
differentiate in b with a sign, and every other mode is a
derivative-of-generator mode.  The n-th product of composite states is
computed two ways, which share the loop over term pairs, the bounds and
the diagnostics.  :func:`mode_apply` takes the standard normally-ordered
recursion (the l = -1 specialisation of the mode-composition identity),
peeling the canonical leading symbol.  :func:`wick_apply` takes Wick's
theorem for free fields (Kac, *Vertex Algebras for Beginners*, 2nd ed.):
each field factor of a monomial annihilates one symbol of the other or
creates one, with no recursion.  The zero modes of :mod:`formaldisk.hc`
(its vector-field and form actions) use Wick's theorem; the
mode-composition check, the CLI's ``mode-apply`` and the tests' reference
route for ``hc.rho_omega2`` use the recursion, so each is an oracle for
the other.

Bookkeeping bounds on conformal weight and c_0-degree model the completed
algebra at finite size; all arithmetic below the bounds is exact, and any
term past a bound is refused with :class:`TruncationOverflowError`, never
dropped: a dropped term could have fed terms below the bounds (b_(0)
differentiates in c_0).

Monomials are interned (hash-consed): the canonically sorted symbol tuple
of a monomial gets an int id from one module-level table, which also
stores its weight and its c_0-degree, so products read them by list index.
:attr:`VAState.terms` maps ids to coefficients.  Tuples appear only where
symbols are inserted, removed or read: the checked constructor, the
multiset product, translation, the mode caches' misses, and conversion
and printing (:meth:`VAState.mono_terms`).  Equal monomials have equal
ids, so equal states have equal ``terms``.  The table is append-only and
is never cleared, not even by ``clear_mode_cache``: live states, and the
memos of :mod:`formaldisk.hc`, hold ids, and an id handed out again would
silently rename their monomials.  It grows with the distinct monomials a
process meets, a finite number under any fixed policy bounds.

States are immutable and operations pure.  Both products memoize on
module-level dicts whose entries are deterministic and policy-independent.
The recursion's ``_MODE_CACHE`` maps ``(id, m, id)`` to a monomial's m-th
product on a monomial and its ``_SYM_CACHE`` maps ``(symbol, i, id)`` to a
symbol's i-th mode on a monomial.  Wick's ``_WICK_CACHE`` holds the same
products, computed without recursion, so it holds only the pairs asked
for, and with no Python container per product: its key is the one int
``((m << 32 | id) << 32) | id`` (injective for every m while ids stay
below 2^32), and its value the int ``start << 32 | end`` that places
the product's ids and coefficients, in turn, in one flat list,
``_WICK_RUNS``.  A product on a monomial with c_0 symbols is factored
through the cached products on its c_0-free part (see ``_wick_mono``), so
Wick's splits run once per c_0-free monomial; the creators' products they
reuse sit in ``_CREATED`` and are emptied with the cache.  Each cache
holds at most ``MODE_CACHE_SIZE``, ``SYM_CACHE_SIZE`` and
``WICK_CACHE_SIZE`` entries: a miss that finds its cache full empties that
cache before it stores, which costs only recomputation.  Concurrent use
can at worst duplicate a computation: individual dict reads/writes are
atomic under the GIL, one lock makes adding an id atomic and another makes
storing a run, or emptying the Wick cache with its runs, atomic, and a
reader re-reads the count of evictions after copying a run, so it never
uses a run emptied under it.  ``clear_mode_cache`` empties every cache,
together with every memo registered through ``on_cache_clear`` (the
per-operand memos of :mod:`formaldisk.hc`).
"""

from __future__ import annotations

import operator
import threading
from fractions import Fraction
from itertools import filterfalse
from types import MappingProxyType

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


_FIELD = operator.itemgetter(0, 1)
_MODE = operator.itemgetter(2)


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


def _sorted_mono(syms):
    # two stable sorts on C-level keys give the order of sym_key
    return tuple(sorted(sorted(syms, key=_MODE, reverse=True), key=_FIELD))


# -- the intern table: one row per id, never cleared (module docstring) -------

_IDS: dict = {}  # canonically sorted monomial tuple -> id
_MONO: list = []  # id -> monomial tuple
_WEIGHT: list = []  # id -> conformal weight
_C0: list = []  # id -> c_0-degree
_INTERN_LOCK = threading.Lock()


def _intern(mono):
    """Id of a canonically sorted monomial tuple, added on first sight."""
    i = _IDS.get(mono)
    if i is None:
        with _INTERN_LOCK:
            i = _IDS.get(mono)
            if i is None:
                i = len(_MONO)
                _MONO.append(mono)
                _WEIGHT.append(-sum(s[2] for s in mono))
                _C0.append(sum(1 for s in mono if s[0] == KIND_C and s[2] == 0))
                # published last: a reader that finds the id finds its row
                _IDS[mono] = i
    return i


_EMPTY = _intern(())


class TruncationPolicy:
    """Bookkeeping bounds: max conformal weight and max c_0-degree.

    Interned: equal bounds give one object, so equal means identical.
    """

    __slots__ = ("max_weight", "max_c0")
    _INTERNED: dict = {}

    def __new__(cls, max_weight, max_c0):
        key = (max_weight, max_c0)
        got = cls._INTERNED.get(key)
        if got is None:
            if max_weight < 0 or max_c0 < 0:
                raise ShapeError("policy bounds must be non-negative")
            got = super().__new__(cls)
            got.max_weight, got.max_c0 = key
            # a racing thread may have stored one first; keep that one
            got = cls._INTERNED.setdefault(key, got)
        return got

    def __repr__(self):
        return f"TruncationPolicy(weight<={self.max_weight}, c0<={self.max_c0})"


def _check_compatible(a, b):
    if a.n != b.n:
        raise ShapeError("states have different rank")
    if a.policy is not b.policy:
        raise ShapeError("states carry different truncation policies")


class VAState:
    """Exact element of the (truncated) chiral-differential-operator space.

    ``terms`` maps monomial ids (see the module docstring) to nonzero
    coefficients.  The checked constructor takes monomial tuples in any
    symbol order; ``_clean=True`` takes ids and trusts them.
    """

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
            k = _intern(mono)
            if _WEIGHT[k] > policy.max_weight or _C0[k] > policy.max_c0:
                raise TruncationOverflowError(f"monomial exceeds policy: {mono}")
            clean[k] = clean[k] + c if k in clean else c
        self.terms = {k: norm_coeff(c) for k, c in clean.items() if c}

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, n, policy):
        return cls(n, policy, {}, _clean=True)

    @classmethod
    def vacuum(cls, n, policy):
        return cls(n, policy, {_EMPTY: ONE}, _clean=True)

    @classmethod
    def generator(cls, n, policy, kind, j, m, coeff=ONE):
        return cls(n, policy, {(make_sym(kind, j, m),): norm_coeff(coeff)})

    # -- structure ------------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def mono_terms(self):
        """The terms keyed by canonically sorted monomial tuples."""
        mono = _MONO
        return {mono[k]: c for k, c in self.terms.items()}

    def coefficient(self, syms):
        return self.terms.get(_IDS.get(_sorted_mono(syms)), Fraction(0))

    def weight_decomposition(self):
        """Map conformal weight -> homogeneous component."""
        buckets = {}
        for k, c in self.terms.items():
            buckets.setdefault(_WEIGHT[k], {})[k] = c
        return {w: VAState(self.n, self.policy, t, _clean=True)
                for w, t in sorted(buckets.items())}

    def weight(self):
        """Weight of a homogeneous state (error otherwise, -1 for zero)."""
        ws = {_WEIGHT[k] for k in self.terms}
        if not ws:
            return -1
        if len(ws) > 1:
            raise ShapeError(f"state is not weight-homogeneous: weights {sorted(ws)}")
        return ws.pop()

    def max_weight(self):
        return max((_WEIGHT[k] for k in self.terms), default=0)

    def filtration_degree(self):
        """Number of b-symbols; max over monomials when inhomogeneous."""
        return max((sum(1 for s in _MONO[k] if s[0] == KIND_B)
                    for k in self.terms), default=0)

    # -- linear structure -------------------------------------------------------

    def __add__(self, other):
        _check_compatible(self, other)
        out = dict(self.terms)
        _kernel.poly_axpy(out, other.terms, 1)
        return VAState(self.n, self.policy, out, _clean=True)

    def __neg__(self):
        return VAState(self.n, self.policy,
                       {k: -c for k, c in self.terms.items()}, _clean=True)

    def __sub__(self, other):
        _check_compatible(self, other)
        return VAState(self.n, self.policy,
                       _kernel.poly_axpy(dict(self.terms), other.terms, -1),
                       _clean=True)

    def scale(self, scalar):
        scalar = norm_coeff(scalar)
        if not scalar:
            return VAState.zero(self.n, self.policy)
        return VAState(self.n, self.policy,
                       {k: norm_coeff(scalar * c) for k, c in self.terms.items()},
                       _clean=True)

    def __mul__(self, other):
        """Commutative product of creation polynomials (multiset merge)."""
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        _check_compatible(self, other)
        out = {}
        right = other.mono_terms().items()
        for m1, c1 in self.mono_terms().items():
            for m2, c2 in right:
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


def vacuum(n, policy) -> VAState:
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
    """Mode i of the generating state (b^j_{-1} or c^j_0) on a dict keyed
    by monomial tuples."""
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


# each cache's bound, in entries; from cold, the acceptance test of the
# conformal structure (criterion 3) fills 47,748 mode and 68,721 sym
# entries, and that of the vertex axioms (criterion 1) stores 310,171 and
# 312,680, above the bound, so each cache empties once during it
MODE_CACHE_SIZE = 1 << 18
SYM_CACHE_SIZE = 1 << 18

_MODE_CACHE: dict = {}
_SYM_CACHE: dict = {}
# about half of all cached results are empty; they share one read-only map
_NO_TERMS = MappingProxyType({})
_CLEAR_HOOKS: list = []


def on_cache_clear(hook):
    """Register a no-argument callable that ``clear_mode_cache`` also runs."""
    _CLEAR_HOOKS.append(hook)


def clear_mode_cache():
    """Empty the mode caches, the Wick cache with its runs and the
    creators' products, and the registered memos.  The intern table
    stays: live states hold its ids."""
    _MODE_CACHE.clear()
    _SYM_CACHE.clear()
    with _WICK_LOCK:
        _empty_wick()
    for hook in _CLEAR_HOOKS:
        hook()


def _sym_mode_mono(sym, i, vid):
    """Memoized single-symbol mode on the monomial with id ``vid``."""
    key = (sym, i, vid)
    hit = _SYM_CACHE.get(key)
    if hit is None:
        raw = _apply_sym_mode(sym, i, {_MONO[vid]: ONE})
        hit = {_intern(mo): c for mo, c in raw.items()} or _NO_TERMS
        if len(_SYM_CACHE) >= SYM_CACHE_SIZE:
            _SYM_CACHE.clear()
        _SYM_CACHE[key] = hit
    return hit


def _mode_mono(aid, m, vid):
    """Raw m-th product (monomial aid)_(m) (monomial vid), id-keyed; the
    result is cached, so callers only read it."""
    key = (aid, m, vid)
    hit = _MODE_CACHE.get(key)
    if hit is not None:
        return hit
    mono = _MONO[aid]
    if not mono:
        out = {vid: ONE} if m == -1 else {}
    elif len(mono) == 1:
        out = _sym_mode_mono(mono[0], m, vid)
    else:
        s = mono[0]
        rest = _intern(mono[1:])
        out = {}
        sym_cache = _SYM_CACHE
        axpy = _kernel.state_axpy
        # sum_i S_(-1-i) (R_(m+i) v): R_(m+i) v = 0 once m+i >= wt(R)+wt(v)
        top = _WEIGHT[rest] + _WEIGHT[vid] - m
        for i in range(0, top):
            inner = _mode_mono(rest, m + i, vid)
            for mono2, c2 in inner.items():
                sv = sym_cache.get((s, -1 - i, mono2))
                if sv is None:
                    sv = _sym_mode_mono(s, -1 - i, mono2)
                axpy(out, sv, c2)
        # sum_i R_(m-1-i) (S_(i) v): S_(i) v = 0 once i >= wt(S)+wt(v)
        top = sym_weight(s) + _WEIGHT[vid]
        for i in range(0, top):
            sv = _sym_mode_mono(s, i, vid)
            for mono2, c2 in sv.items():
                axpy(out, _mode_mono(rest, m - 1 - i, mono2), c2)
    if not out:
        out = _NO_TERMS
    if len(_MODE_CACHE) >= MODE_CACHE_SIZE:
        _MODE_CACHE.clear()
    _MODE_CACHE[key] = out
    return out


def print_key(mono):
    """The order in which states print their monomials: weight, then
    length, then the symbols' canonical keys."""
    return (sum(-s[2] for s in mono), len(mono), tuple(sym_key(s) for s in mono))


def _mode_state(acc, n, policy):
    """A mode product's id-keyed terms as a state: the weights are within
    the bound, so only the c0 bound can trip; a term above it is refused,
    naming the first such monomial in print order."""
    max_c0 = policy.max_c0
    over = [_MONO[k] for k in acc if _C0[k] > max_c0]
    if over:
        raise TruncationOverflowError(
            f"mode product exceeds c0 bound: {min(over, key=print_key)}")
    return VAState(n, policy, acc, _clean=True)


def mode_apply(a: VAState, m: int, v: VAState) -> VAState:
    """The m-th product a_(m) v, by the normally-ordered recursion.

    Exact below the policy bounds; a product with a term past them raises
    :class:`TruncationOverflowError`.
    """
    return _product(a, m, v, _mode_mono)


def wick_apply(a: VAState, m: int, v: VAState) -> VAState:
    """The m-th product a_(m) v, by Wick's theorem; equal to
    :func:`mode_apply`, with the same bounds and diagnostics."""
    return _product(a, m, v, _wick_mono)


def _product(a, m, v, mono_product):
    """a_(m) v from the products of monomials that ``mono_product(aid, m,
    vid)`` returns, integral and id-keyed."""
    _check_compatible(a, v)
    policy = a.policy
    acc = {}
    for aid, ac in a.terms.items():
        wa = _WEIGHT[aid]
        for vid, vc in v.terms.items():
            w = wa + _WEIGHT[vid] - m - 1
            if w > policy.max_weight:
                raise TruncationOverflowError(
                    f"mode product weight {w} exceeds bound {policy.max_weight}")
            res = mono_product(aid, m, vid)
            if res:
                # res is integral; a Fraction of a or v can make an integral
                # sum, which poly_axpy stores as int
                _kernel.poly_axpy(acc, res, ac * vc)
    # only a c^j_0 factor of a, creating at mode -1, creates a c_0 symbol,
    # so the c0-degree of a_(m) v is at most a's largest plus v's largest
    c0 = _C0.__getitem__
    if acc and max(map(c0, a.terms)) + max(map(c0, v.terms)) > \
            policy.max_c0:
        return _mode_state(acc, a.n, policy)
    return VAState(a.n, policy, acc, _clean=True)


# -- modes by Wick's theorem ---------------------------------------------------

# entries of the Wick cache; a miss that finds it full empties it, with its
# runs and the creators' products.  From cold, the acceptance test of the
# extension cocycle (criterion 2), whose zero modes all go through it and
# none through the recursion, fills 66,137 entries and 379,040 slots of runs
WICK_CACHE_SIZE = 1 << 18

_WICK_CACHE: dict = {}  # ((m << 32 | id) << 32) | id -> start << 32 | end
_WICK_RUNS: list = []  # runs of ids and coefficients in turn
_CREATED: dict = {}  # (creating factors, mode sum) -> [(monomial, coeff)]
# evictions so far; one empties the cache, counts itself, then empties the
# runs, so a reader that reads the same count before finding a run and
# after copying it copied it whole
_WICK_EPOCH = 0
_WICK_LOCK = threading.Lock()


def _empty_wick():
    """Empty the Wick cache, its runs and the creators' products; the
    caller holds ``_WICK_LOCK``."""
    global _WICK_EPOCH
    _WICK_CACHE.clear()
    _WICK_EPOCH += 1
    _WICK_RUNS.clear()
    _CREATED.clear()


def _wick_mono(aid, m, vid):
    """(monomial aid)_(m) (monomial vid) by Wick's theorem, id-keyed and
    integral, as a new dict built from the product's cached run.

    A miss on a monomial v with c_0 symbols splits v = P w into its c_0
    symbols P and the rest w.  Only a b-factor (T^k b^j)/k! of a can
    annihilate a c^j_0 of P: at generator mode 0, where its own mode is k
    and its coefficient (-1)^k.  So

        a_(m) (P w) = sum_B prod_{f in B} (-1)^{k_f} (d_B P)
                      (a minus B)_(m - |B| - sum_{f in B} k_f) w,

    B running over the sets of b-factors of a that each take a c_0 of P,
    and d_B P being P differentiated once in each c_0 taken.  Wick's
    splits (:func:`_wick_free`) then run once per (a minus B, mode, w),
    and a miss on (a, m, v) multiplies those cached products by monomials
    in the c_0.
    """
    key = ((m << 32 | aid) << 32) | vid
    epoch = _WICK_EPOCH
    run = _WICK_CACHE.get(key)
    if run is not None:
        flat = _WICK_RUNS[run >> 32:run & 0xFFFFFFFF]
        if epoch == _WICK_EPOCH:
            it = iter(flat)
            return dict(zip(it, it))
    out = (_wick_factored if _C0[vid] else _wick_free)(aid, m, vid)
    out = {k: c for k, c in out.items() if c}
    flat = []
    for k, c in out.items():
        flat += (k, c)
    with _WICK_LOCK:
        if len(_WICK_CACHE) >= WICK_CACHE_SIZE:
            _empty_wick()
        start = len(_WICK_RUNS)
        _WICK_RUNS.extend(flat)
        # published last: a reader that finds the key finds its run
        _WICK_CACHE[key] = start << 32 | len(_WICK_RUNS)
    return out


def _wick_factored(aid, m, vid):
    """{id: coefficient} of a_(m) v for v with c_0 symbols, from the cached
    products on v's c_0-free part (see :func:`_wick_mono`)."""
    mono = _MONO[vid]
    c0 = tuple(filterfalse(_MODE, mono))
    wid = _intern(tuple(filter(_MODE, mono)))
    amono = _MONO[aid]
    # (b-factors of a taken, c_0 symbols left, mode shift, coefficient)
    parts = [((), c0, 0, 1)]
    for s in amono:
        if s[0] != KIND_B:
            break  # b-symbols sort first
        target = (KIND_C, s[1], 0)
        if target in c0:
            # (T^k b)/k! at mode k is (-1)^k b_(0) = (-1)^k d/dc_0, and
            # 1 + k = -s[2]
            sign = 1 - 2 * ((-s[2] - 1) & 1)
            for i in range(len(parts)):
                taken, left, shift, c = parts[i]
                if target in left:
                    pos = left.index(target)
                    parts.append((taken + (s,), left[:pos] + left[pos + 1:],
                                  shift - s[2], sign * left.count(target) * c))
    out = {}
    get = out.get
    for taken, left, shift, c in parts:
        rid = aid
        if taken:
            rest = list(amono)
            for s in taken:
                rest.remove(s)
            rid = _intern(tuple(rest))
        for k, cc in _wick_mono(rid, m - shift, wid).items():
            if left:
                k = _intern(_sorted_mono(_MONO[k] + left))
            out[k] = get(k, 0) + c * cc
    return out


def _wick_free(aid, m, vid):
    """{id: coefficient} of (monomial aid)_(m) (monomial vid) by Wick's
    theorem, for any v (:func:`_wick_mono` calls it for v free of c_0).

    A monomial state is a normally-ordered product of free fields, and so
    is its m-th mode: each of its r field factors splits into an
    annihilating and a creating part, the factors' modes summing to
    m + 1 - r.  A factor of symbol (T^k u)/k!, u = b^j_{-1} or c^j_0, has
    modes (-1)^k C(i, k) u_(i-k) (as in ``_apply_sym_mode``): it
    annihilates one matching symbol of v (a b-field differentiates a
    c-symbol, a c-field a b-symbol with sign -1), which fixes its mode, or
    creates a symbol with a mode i <= -1.  The creators of one split share
    what is left of the mode sum; annihilation acts first, so the symbols
    left of v are multiplied by the created ones.  Symbols are removed and
    merged on tuples, and only the results are interned.
    """
    out = {}
    get = out.get
    mono = _MONO[vid]
    fields = {s[:2] for s in mono}
    # (v's symbols left, annihilators' mode sum, creating factors) ->
    # coefficient, one factor (kind, j, k) at a time; a factor whose field
    # annihilates no symbol of v only creates
    splits = {(mono, 0, ()): 1}
    idle = ()
    factors = [(s[0], s[1], -s[2] - 1 if s[0] == KIND_B else -s[2])
               for s in _MONO[aid]]
    for f in factors:
        # kind ^ 1 is the other kind, the one a field annihilates
        if (f[0] ^ 1, f[1]) in fields:
            splits = _split(splits, f)
        else:
            idle += (f,)
    total = m + 1 - len(factors)
    for (rest, used, creating), c in splits.items():
        creating += idle
        if not creating:
            if used == total:
                k = _intern(rest)
                out[k] = get(k, 0) + c
            continue
        for created, cc in _created(creating, total - used):
            k = _intern(_sorted_mono(rest + created))
            out[k] = get(k, 0) + c * cc
    return out


def _created(creating, total):
    """[(monomial, coefficient)]: the creating factors' products, their
    modes i <= -1 summing to ``total``."""
    key = (creating, total)
    hit = _CREATED.get(key)
    if hit is None:
        out = {}
        for modes in _compositions(total, len(creating)):
            coeff = 1
            syms = []
            for (kind, j, k), i in zip(creating, modes):
                coeff *= _binom(i, k) * (1 - 2 * (k & 1))
                syms.append((kind, j, i - k if kind == KIND_B else i - k + 1))
            mono = _sorted_mono(syms)
            out[mono] = out.get(mono, 0) + coeff
        hit = _CREATED[key] = [(mono, c) for mono, c in out.items() if c]
    return hit


def _split(splits, factor):
    """Each split extended by the factor (kind, j, k): creating, or
    annihilating one matching symbol of what is left of v, by the mode
    i >= 0 of its generator: b_(i) = d/dc_{-i}, c_(i) = -d/db_{-i-1}."""
    kind, j, k = factor
    sign = 1 - 2 * (k & 1)
    if kind == KIND_C:
        sign, target, shift = -sign, KIND_B, 1
    else:
        target, shift = KIND_C, 0
    out = {}
    get = out.get
    for (rest, used, creating), c in splits.items():
        key = (rest, used, creating + (factor,))
        out[key] = get(key, 0) + c
        prev = None
        for pos, s in enumerate(rest):
            if s[0] != target or s[1] != j or s == prev:
                continue
            prev = s
            i = -s[2] - shift
            coeff = sign * rest.count(s)
            if k:
                coeff *= _binom(i + k, k)
            key = (rest[:pos] + rest[pos + 1:], used + i + k, creating)
            out[key] = get(key, 0) + coeff * c
    return out


def _compositions(total, parts):
    """Tuples of ``parts`` integers <= -1 summing to ``total``."""
    if parts == 1:
        if total <= -1:
            yield (total,)
        return
    # each of the other parts takes at least -1 of what is left
    for i in range(-1, total + parts - 2, -1):
        for rest in _compositions(total - i, parts - 1):
            yield (i,) + rest


def translate(v: VAState) -> VAState:
    """Translation operator T: b_m -> -m b_{m-1}, c_m -> -(m-1) c_{m-1},
    extended as a derivation; T|0> = 0."""
    out = {}
    for mono, c in v.mono_terms().items():
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
        return VAState(v.n, v.policy,
                       _apply_gen_mode(kind, j, i, v.mono_terms()))
    return op


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
