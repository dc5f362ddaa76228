"""The oracle for :func:`formaldisk.vertex.mode_apply`: the n-th product by
the standard normally-ordered recursion.

The recursion is the l = -1 specialisation of the mode-composition
identity: a monomial S R (S its canonical leading symbol) acts as

    (S R)_(m) v = sum_i S_(-1-i) R_(m+i) v + sum_i R_(m-1-i) S_(i) v,

and a single symbol (T^k u)/k!, u = b^j_{-1} or c^j_0, acts through the
modes of its generating field, (T^k u)_(i) = (-1)^k i(i-1)...(i-k+1)
u_(i-k): the modes of b^j_{-1} multiply by b-symbols (negative modes) or
differentiate in c (non-negative modes), and those of c^j_0 multiply by
c-symbols or differentiate in b with a sign.  It shares with the package
only the intern table, the state kernels of :mod:`formaldisk._kernel` and
the diagnostics of the bounds, and none of Wick's theorem, so the tests
hold every product of the package against it, coefficient types and
diagnostics included.

Both memos are keyed by monomial ids and hold at most ``MEMO_SIZE``
entries (a store into a full one empties it first); a monomial's m-th
product on a monomial fills ``_MODE_MEMO`` and a single symbol's i-th mode
on a monomial ``_SYM_MEMO``.  ``vertex.clear_mode_cache`` empties both.
"""

from types import MappingProxyType

from formaldisk import _kernel, vertex
from formaldisk.errors import TruncationOverflowError
from formaldisk.vertex import KIND_B, KIND_C, ONE, VAState

MEMO_SIZE = 1 << 18

_MODE_MEMO: dict = {}
_SYM_MEMO: dict = {}
# about half of all memoized results are empty; they share one read-only map
_NO_TERMS = MappingProxyType({})

vertex.on_cache_clear(_MODE_MEMO.clear)
vertex.on_cache_clear(_SYM_MEMO.clear)


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
    coeff = vertex._binom(i, k) * ((-1) ** (k & 1))
    if not coeff:
        return {}
    out = _apply_gen_mode(kind, j, i - k, data)
    if coeff != 1 and out:
        out = {mo: coeff * c for mo, c in out.items()}
    return out


def _store(memo, key, value):
    if len(memo) >= MEMO_SIZE:
        memo.clear()
    memo[key] = value


def _sym_mode_mono(sym, i, vid):
    """Memoized single-symbol mode on the monomial with id ``vid``."""
    key = (sym, i, vid)
    hit = _SYM_MEMO.get(key)
    if hit is None:
        raw = _apply_sym_mode(sym, i, {vertex._MONO[vid]: ONE})
        hit = {vertex._intern(mo): c for mo, c in raw.items()} or _NO_TERMS
        _store(_SYM_MEMO, key, hit)
    return hit


def _mode_mono(aid, m, vid):
    """Raw m-th product (monomial aid)_(m) (monomial vid), id-keyed; the
    result is memoized, so callers only read it."""
    key = (aid, m, vid)
    hit = _MODE_MEMO.get(key)
    if hit is not None:
        return hit
    mono = vertex._MONO[aid]
    if not mono:
        out = {vid: ONE} if m == -1 else {}
    elif len(mono) == 1:
        out = _sym_mode_mono(mono[0], m, vid)
    else:
        s = mono[0]
        rest = vertex._intern(mono[1:])
        out = {}
        axpy = _kernel.state_axpy
        weight = vertex._WEIGHT
        # sum_i S_(-1-i) (R_(m+i) v): R_(m+i) v = 0 once m+i >= wt(R)+wt(v)
        for i in range(0, weight[rest] + weight[vid] - m):
            for mono2, c2 in _mode_mono(rest, m + i, vid).items():
                axpy(out, _sym_mode_mono(s, -1 - i, mono2), c2)
        # sum_i R_(m-1-i) (S_(i) v): S_(i) v = 0 once i >= wt(S)+wt(v)
        for i in range(0, -s[2] + weight[vid]):
            for mono2, c2 in _sym_mode_mono(s, i, vid).items():
                axpy(out, _mode_mono(rest, m - 1 - i, mono2), c2)
    out = out or _NO_TERMS
    _store(_MODE_MEMO, key, out)
    return out


def mode_apply(a: VAState, m: int, v: VAState) -> VAState:
    """The m-th product a_(m) v by the recursion, with the bounds and
    diagnostics of :func:`formaldisk.vertex.mode_apply`; the c0 bound is
    checked on every product."""
    vertex._check_compatible(a, v)
    policy = a.policy
    acc = {}
    for aid, ac in a.terms.items():
        for vid, vc in v.terms.items():
            w = vertex._WEIGHT[aid] + vertex._WEIGHT[vid] - m - 1
            if w > policy.max_weight:
                raise TruncationOverflowError(
                    f"mode product weight {w} exceeds bound {policy.max_weight}")
            _kernel.poly_axpy(acc, _mode_mono(aid, m, vid), ac * vc)
    return vertex._mode_state(acc, a.n, policy)


def generator_mode(kind, j, i):
    """The endomorphism (generator)_(i) as a function on states."""
    def op(v: VAState) -> VAState:
        return VAState(v.n, v.policy,
                       _apply_gen_mode(kind, j, i, v.mono_terms()))
    return op
