"""The beta-gamma vertex algebra on n generators, as an exact mode calculus.

States are polynomials in the creation symbols b^j_m (m <= -1, weight -m)
and c^j_m (m <= 0, weight -m) with rational coefficients, stored as ``int``
when integral and as ``fractions.Fraction`` otherwise (every operation
normalises them, as the jets do); all generators are even, so monomials
are plain multisets.  The n-th product of composite states,
:func:`mode_apply`, is computed one way, by Wick's theorem for free fields
(Kac, *Vertex Algebras for Beginners*, 2nd ed.): each field factor of a
monomial annihilates one symbol of the other or creates one, with no
recursion.  The mode-composition check, the CLI's ``mode-apply``, the
conformal checks and the zero modes of :mod:`formaldisk.hc` all call it.
The tests keep the standard normally-ordered recursion (the l = -1
specialisation of the mode-composition identity, peeling the canonical
leading symbol) in ``tests/recursion.py`` as its oracle.

A :class:`TruncationPolicy` bounds weight and c_0-degree to guard input from
outside: a term past a bound is refused, naming the bound and a value that
admits it, never dropped, as it could feed terms below the bounds (b_(0)
differentiates in c_0).  No policy changes a result or bounds a loop, so a
check whose flags bound its states works under ``CODE_LIMITS``.

Inside this module a symbol (kind, j, m) is one int, its code
``kind << 40 | j << 20 | -m``: kind, index and weight each have a field,
so integer order is the canonical order of :func:`sym_key`, the low 20
bits are the weight (zero only for a c_0 symbol, as a b-symbol weighs at
least 1), ``code >> 20`` is the field (kind, j), and the mode m - d has
the code plus d.  A monomial is the sorted tuple of its codes, so merging
two is ``tuple(sorted(...))`` and inserting one symbol a plain ``bisect``.
The codes stay inside: the checked constructor, :meth:`VAState.generator`,
:meth:`VAState.mono_terms`, :meth:`VAState.coefficient`, translation, the
enumerations, :func:`print_key` and every diagnostic take or give symbol
triples.  A symbol whose index or weight does not fit its 20-bit field is
refused with :class:`ShapeError` before it is encoded (after the policy
check, whose diagnostic comes first), and so is a mode product whose
weight does not fit, since its symbols weigh at most the product: a code
never aliases another symbol.

Monomials are interned (hash-consed): the sorted code tuple of a monomial
gets an int id from one module-level table, whose rows hold the tuple
(``_MONO``, with ``_IDS`` its inverse), its weight (``_WEIGHT``) and its
c_0-degree (``_C0``), so products read them by list index.
:attr:`VAState.terms` maps ids to coefficients.  Tuples appear only where
symbols are inserted, removed or read: the checked constructor, the
multiset product, translation, the mode cache's misses, and conversion and
printing (:meth:`VAState.mono_terms`).  Equal monomials have equal ids, so
equal states have equal ``terms``.  The table is append-only and is never
cleared, not even by ``clear_mode_cache``: live states, and the memos of
:mod:`formaldisk.hc`, hold ids, and an id handed out again would silently
rename their monomials.  It grows with the distinct monomials a process
meets, a finite number under any fixed policy bounds.

States are immutable and operations pure.  Products of monomials are
memoized with no Python container per product: ``_MODE_CACHE`` maps the
one int ``((m << 32 | id) << 32) | id`` (injective for every m while ids
stay below 2^32) to the int ``start << 32 | end`` that places the
product's ids and coefficients, in turn, in one flat list,
``_WICK_RUNS``.  A product on a monomial with c_0 symbols is factored
through the cached products on its c_0-free part (see ``_wick_mono``), so
Wick's splits run once per c_0-free monomial.  ``_SYM_CACHE`` holds the
creators' products they reuse.  The cache holds at most
``MODE_CACHE_SIZE`` entries: a miss that finds it full empties it, with
its runs and the creators' products, before it stores, which costs only
recomputation.  Concurrent use can at worst duplicate a computation:
individual dict reads/writes are atomic under the GIL, one lock makes
adding an id atomic and another makes storing a run, or emptying the cache
with its runs, atomic, and a reader re-reads the count of evictions after
copying a run, so it never uses a run emptied under it.
``clear_mode_cache`` empties the caches, together with every memo
registered through ``on_cache_clear`` (the per-operand memos of
:mod:`formaldisk.hc`).
"""

from __future__ import annotations

import threading
from bisect import bisect
from fractions import Fraction
from itertools import filterfalse
from math import comb

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
    if kind not in (KIND_B, KIND_C):
        raise ShapeError(f"symbol kind must be {KIND_B} (b) or {KIND_C} (c), "
                         f"got {kind}")
    if kind == KIND_B and m > -1:
        raise ShapeError(f"b-symbol mode must be <= -1, got {m}")
    if kind == KIND_C and m > 0:
        raise ShapeError(f"c-symbol mode must be <= 0, got {m}")
    if j < 1:
        raise ShapeError("generator index must be >= 1")
    return (kind, j, m)


def sym_weight(s):
    return -s[2]


def _canonical(syms):
    """Symbol triples in the canonical order of :func:`sym_key`."""
    return tuple(sorted(syms, key=sym_key))


# -- symbol codes (module docstring) --------------------------------------------

_LOW = (1 << 20) - 1  # the weight field, and the largest index and weight
_C = KIND_C << 40  # the least c-code: b-codes sort first
_FLIP = 1 << 20  # code >> 20 is the field (kind, j); this flips its kind


def _code(s):
    """The code of a checked symbol triple; an index or weight that does
    not fit its field is refused, never aliased."""
    kind, j, m = s
    if j > _LOW or -m > _LOW:
        raise ShapeError(f"symbol {s} does not fit the symbol code: index "
                         f"and weight must be below {_LOW + 1}")
    return kind << 40 | j << 20 | -m


def _decode(mono):
    """The symbol triples of a tuple of codes."""
    return tuple((x >> 40, x >> 20 & _LOW, -(x & _LOW)) for x in mono)


# a code's weight, zero exactly for a c_0 symbol; a C-level callable, so
# filter() splits a monomial into its c_0 symbols and the rest in C
_WEIGHS = _LOW.__and__


# -- the intern table: one row per id, never cleared (module docstring) -------

_IDS: dict = {}  # sorted tuple of codes -> id
_MONO: list = []  # id -> sorted tuple of codes
_WEIGHT: list = []  # id -> conformal weight
_C0: list = []  # id -> c_0-degree
_INTERN_LOCK = threading.Lock()


def _intern(mono):
    """Id of a sorted tuple of codes, added on first sight."""
    i = _IDS.get(mono)
    if i is None:
        with _INTERN_LOCK:
            i = _IDS.get(mono)
            if i is None:
                i = len(_MONO)
                _MONO.append(mono)
                _WEIGHT.append(sum(x & _LOW for x in mono))
                _C0.append(sum(1 for x in mono if not x & _LOW))
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


CODE_LIMITS = TruncationPolicy(_LOW, _LOW)  # the symbol code's own limits


def _check_compatible(a, b):
    if a.n != b.n:
        raise ShapeError("states have different rank")
    if a.policy is not b.policy:
        raise ShapeError("states carry different truncation policies")


class VAState:
    """Exact element of the (truncated) chiral-differential-operator space.

    ``terms`` maps monomial ids (see the module docstring) to nonzero
    coefficients.  The checked constructor takes monomials as tuples of
    symbol triples in any order; ``_clean=True`` takes ids and trusts
    them.
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
            mono = _canonical(mono)
            for s in mono:
                if not 1 <= s[1] <= n:
                    raise ShapeError(f"symbol index {s[1]} out of range 1..{n}")
                make_sym(*s)
            weight = -sum(s[2] for s in mono)
            c0 = sum(1 for s in mono if s[0] == KIND_C and s[2] == 0)
            for bound, needed in (("max_weight", weight), ("max_c0", c0)):
                if needed > getattr(policy, bound):
                    raise TruncationOverflowError(
                        f"monomial exceeds policy: {mono}", bound, needed)
            # canonical triples give sorted codes
            codes = tuple(map(_code, mono))
            clean[codes] = clean[codes] + c if codes in clean else c
        self.terms = {_intern(m): norm_coeff(c) for m, c in clean.items() if c}

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
        """The terms keyed by canonically sorted tuples of symbol triples."""
        mono = _MONO
        return {_decode(mono[k]): c for k, c in self.terms.items()}

    def coefficient(self, syms):
        try:
            mono = tuple(sorted(_code(make_sym(*s)) for s in syms))
        except ShapeError:
            return 0  # no state holds an invalid symbol, nor one past the code
        return self.terms.get(_IDS.get(mono), 0)

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
        return max((sum(1 for x in _MONO[k] if x < _C)
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
        right = [(_MONO[k], c) for k, c in other.terms.items()]
        for k1, c1 in self.terms.items():
            m1 = _MONO[k1]
            for m2, c2 in right:
                key = tuple(sorted(m1 + m2))
                c = c1 * c2
                out[key] = out[key] + c if key in out else c
        policy = self.policy
        terms = {}
        for mono, c in out.items():
            if not c:
                continue
            k = _intern(mono)
            if _WEIGHT[k] > policy.max_weight or _C0[k] > policy.max_c0:
                VAState(self.n, policy, {_decode(mono): c})  # refuses it
            terms[k] = norm_coeff(c)
        return VAState(self.n, policy, terms, _clean=True)

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


_CLEAR_HOOKS: list = []


def on_cache_clear(hook):
    """Register a no-argument callable that ``clear_mode_cache`` also runs."""
    _CLEAR_HOOKS.append(hook)


def clear_mode_cache():
    """Empty the mode cache with its runs and the creators' products, and
    the registered memos.  The intern table stays: live states hold its
    ids."""
    with _WICK_LOCK:
        _empty_wick()
    for hook in _CLEAR_HOOKS:
        hook()


def print_key(mono):
    """The order in which states print their monomials: weight, then
    length, then the symbols' canonical keys."""
    return (sum(-s[2] for s in mono), len(mono), tuple(sym_key(s) for s in mono))


def _mode_state(acc, n, policy):
    """A mode product's id-keyed terms as a state: the weights are within
    the bound, so only the c0 bound can trip; a term above it is refused,
    naming the first such monomial in print order."""
    over = [k for k in acc if _C0[k] > policy.max_c0]
    if over:
        mono = min((_decode(_MONO[k]) for k in over), key=print_key)
        raise TruncationOverflowError(f"mode product exceeds c0 bound: {mono}",
                                      "max_c0", max(_C0[k] for k in over))
    return VAState(n, policy, acc, _clean=True)


def mode_apply(a: VAState, m: int, v: VAState) -> VAState:
    """The m-th product a_(m) v, by Wick's theorem.

    Exact below the policy bounds; a product with a term past them raises
    :class:`TruncationOverflowError`, and one within them whose weight does
    not fit the symbol code raises :class:`ShapeError`.
    """
    _check_compatible(a, v)
    policy = a.policy
    # a term's symbols weigh at most the term, so a weight that fits the
    # code keeps every symbol of the product in it
    top = min(policy.max_weight, _LOW)
    acc = {}
    for aid, ac in a.terms.items():
        wa = _WEIGHT[aid]
        for vid, vc in v.terms.items():
            w = wa + _WEIGHT[vid] - m - 1
            if w > top:
                if w > policy.max_weight:
                    raise TruncationOverflowError(
                        f"mode product weight {w} exceeds bound "
                        f"{policy.max_weight}", "max_weight", w)
                raise ShapeError(f"mode product weight {w} does not fit the "
                                 f"symbol code: it must be below {_LOW + 1}")
            res = _wick_mono(aid, m, vid)
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


# -- products of monomials by Wick's theorem ------------------------------------

# entries of the mode cache; a miss that finds it full empties it, with its
# runs and the creators' products.  From cold, the acceptance test of the
# vertex axioms (criterion 1) fills 32,876 entries, 1,011,942 slots of runs
# and 13,873 creators' products, that of the extension cocycle (criterion 2)
# 66,137, 379,040 and 308, and that of the conformal structure (criterion 3)
# 15,387, 25,354 and 30, which a test pins
MODE_CACHE_SIZE = 1 << 18

_MODE_CACHE: dict = {}  # ((m << 32 | id) << 32) | id -> start << 32 | end
_WICK_RUNS: list = []  # runs of ids and coefficients in turn
_SYM_CACHE: dict = {}  # (creating codes, spare) -> [(codes, coefficient)]
# evictions so far; one empties the cache, counts itself, then empties the
# runs, so a reader that reads the same count before finding a run and
# after copying it copied it whole
_WICK_EPOCH = 0
_WICK_LOCK = threading.Lock()


def _empty_wick():
    """Empty the mode cache, its runs and the creators' products; the
    caller holds ``_WICK_LOCK``."""
    global _WICK_EPOCH
    _MODE_CACHE.clear()
    _WICK_EPOCH += 1
    _WICK_RUNS.clear()
    _SYM_CACHE.clear()


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
    run = _MODE_CACHE.get(key)
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
        if len(_MODE_CACHE) >= MODE_CACHE_SIZE:
            _empty_wick()
        start = len(_WICK_RUNS)
        _WICK_RUNS.extend(flat)
        # published last: a reader that finds the key finds its run
        _MODE_CACHE[key] = start << 32 | len(_WICK_RUNS)
    return out


def _wick_factored(aid, m, vid):
    """{id: coefficient} of a_(m) v for v with c_0 symbols, from the cached
    products on v's c_0-free part (see :func:`_wick_mono`)."""
    mono = _MONO[vid]
    c0 = tuple(filterfalse(_WEIGHS, mono))
    wid = _intern(tuple(filter(_WEIGHS, mono)))
    amono = _MONO[aid]
    # (b-factors of a taken, c_0 symbols left, mode shift, coefficient)
    parts = [((), c0, 0, 1)]
    for s in amono:
        if s >= _C:
            break  # b-codes sort first
        target = _C | (s >> 20 << 20)  # c^j_0 of the b-symbol's j
        if target in c0:
            # (T^k b)/k! at mode k is (-1)^k b_(0) = (-1)^k d/dc_0, and
            # 1 + k is the symbol's weight
            w = s & _LOW
            sign = 1 - 2 * ((w - 1) & 1)
            for i in range(len(parts)):
                taken, left, shift, c = parts[i]
                if target in left:
                    pos = left.index(target)
                    parts.append((taken + (s,), left[:pos] + left[pos + 1:],
                                  shift + w, sign * left.count(target) * c))
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
                k = _intern(tuple(sorted(_MONO[k] + left)))
            out[k] = get(k, 0) + c * cc
    return out


def _wick_free(aid, m, vid):
    """{id: coefficient} of (monomial aid)_(m) (monomial vid) by Wick's
    theorem, for any v (:func:`_wick_mono` calls it for v free of c_0).

    A monomial state is a normally-ordered product of free fields, and so
    is its m-th mode: each of its r field factors splits into an
    annihilating and a creating part, the factors' modes summing to
    m + 1 - r.  A factor of symbol (T^k u)/k!, u = b^j_{-1} or c^j_0, has
    modes (-1)^k C(i, k) u_(i-k): it annihilates one matching symbol of v
    (a b-field differentiates a c-symbol, a c-field a b-symbol with sign
    -1), which fixes its mode, or creates a symbol with a mode i <= -1
    (:func:`_created`).  The creators of one split share what is left of
    the mode sum; annihilation acts first, so the symbols left of v are
    multiplied by the created ones.  Symbols are removed and merged on
    sorted tuples of codes, and only the results are interned.
    """
    out = {}
    get = out.get
    mono = _MONO[vid]
    fields = {x >> 20 for x in mono}
    # (v's symbols left, annihilators' mode sum, creating symbols of a) ->
    # coefficient, one factor at a time; a factor whose field annihilates
    # no symbol of v only creates
    splits = {(mono, 0, ()): 1}
    idle = ()
    amono = _MONO[aid]
    for s in amono:
        # a field annihilates the symbols of its other kind
        if (s >> 20) ^ _FLIP in fields:
            splits = _split(splits, s)
        else:
            idle += (s,)
    total = m + 1 - len(amono)
    for (rest, used, creating), c in splits.items():
        if idle:
            creating = tuple(sorted(creating + idle))
        if not creating:
            if used == total:
                k = _intern(rest)
                out[k] = get(k, 0) + c
            continue
        # the creators' modes i = -1 - d, d >= 0, sum to total - used
        spare = used - total - len(creating)
        if spare < 0:
            continue
        for created, cc in _created(creating, spare):
            k = _intern(tuple(sorted(rest + created)))
            out[k] = get(k, 0) + c * cc
    return out


def _created(creating, spare):
    """[(monomial, coefficient)]: the products of the creating symbols of
    a, each factor taking a mode i = -1 - d, the d >= 0 summing to
    ``spare``.

    A factor (T^k u)/k! of symbol (kind, j, m), k = -m - 1 + kind, at mode
    i = -1 - d has coefficient (-1)^k C(i, k) = C(k + d, k) and creates
    (kind, j, m - d), whose code is the factor's plus d.  The factors are
    taken one at a time, the first against the cached products of the
    others, so equal partial monomials with equal mode sums are merged
    once.
    """
    key = (creating, spare)
    hit = _SYM_CACHE.get(key)
    if hit is None:
        first = creating[0]
        k = (first & _LOW) - 1 + (first >> 40)
        if len(creating) == 1:
            hit = [((first + spare,), comb(k + spare, k))]
        else:
            others = creating[1:]
            out = {}
            get = out.get
            for d in range(spare + 1):
                s = first + d
                c = comb(k + d, k)
                for part, cc in _created(others, spare - d):
                    i = bisect(part, s)
                    mono = part[:i] + (s,) + part[i:]
                    out[mono] = get(mono, 0) + c * cc
            hit = list(out.items())
        _SYM_CACHE[key] = hit
    return hit


def _split(splits, s):
    """Each split extended by the factor of symbol code s: creating, or
    annihilating one matching symbol of what is left of v, by the mode
    i >= 0 of its generator: b_(i) = d/dc_{-i}, c_(i) = -d/db_{-i-1}."""
    kind = s >> 40
    k = (s & _LOW) - 1 + kind
    sign = (1 - 2 * (k & 1)) * (1 - 2 * kind)
    target = (s >> 20) ^ _FLIP
    out = {}
    get = out.get
    for (rest, used, creating), c in splits.items():
        key = (rest, used, creating + (s,))
        out[key] = get(key, 0) + c
        prev = None
        for pos, t in enumerate(rest):
            if t >> 20 != target or t == prev:
                continue
            prev = t
            i = (t & _LOW) - kind
            coeff = sign * rest.count(t)
            if k:
                coeff *= comb(i + k, k)
            key = (rest[:pos] + rest[pos + 1:], used + i + k, creating)
            out[key] = get(key, 0) + coeff * c
    return out


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
            key = _canonical(mono[:pos] + (repl,) + mono[pos + 1:])
            cc = factor * c
            out[key] = out[key] + cc if key in out else cc
    return VAState(v.n, v.policy, out)


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
            out.append(_canonical(acc))
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
            out.append(_canonical(acc))
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
                out.append(_canonical(wm + cm))
    return out
