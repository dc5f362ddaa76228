"""The hot inner loops, in pure Python.

They operate on plain containers:

* polynomials: dict mapping exponent tuples (length n) to coefficients,
* states: dict mapping sorted tuples of mode symbols to coefficients,

where a mode symbol is an int triple ``(kind, j, m)`` with kind 0 for b,
1 for c.  The two axpys only add, so they also serve states keyed by the
monomial ids of :mod:`formaldisk.vertex`.  The ``state_*`` kernels serve
only the tests' recursion oracle (see :mod:`formaldisk._kernel`).

Coefficient contract.  The main code path stores exact rationals: ``int``
or ``fractions.Fraction``.  :func:`poly_mul` multiplies such operands as
integers -- numerators over one common denominator per operand -- and
returns every coefficient as ``int`` when it is integral and as
``Fraction`` otherwise; :func:`poly_dots`, the sums of such products, does
the same with one common denominator per sum, and :func:`poly_axpy`
stores its sums the same way.  Both products share one integer loop,
:func:`_mul_into`.  Jet coefficients (the root jets of the q-series, the
jets in two parameters of the van Est derivative) take the schoolbook
product :func:`_poly_mul_generic`, which uses only ``+``, ``*`` and
truthiness and is also the reference the integer products are tested
against.  The other functions here are ring-agnostic in the same way.
"""

from fractions import Fraction
from itertools import accumulate
from math import gcd


MONO_TABLE_SIZE = 1 << 16

# (n, order) -> (pack, unpack): pack maps an exponent tuple of total degree
# <= order to (key, degree), key reading the tuple as the digits of an
# integer in base order + 1; unpack maps the key back to the tuple
_TABLES: dict = {}


def _tables(n, order):
    tables = _TABLES.get((n, order))
    if tables is None:
        tables = _TABLES[n, order] = ({}, {})
    return tables


def _store(table, k, v):
    if len(table) >= MONO_TABLE_SIZE:
        table.clear()
    table[k] = v


def _pack(e, order, tables):
    """(key, degree) of the exponent tuple ``e``, interned when the degree
    is at most ``order`` (above it a digit may reach the base, and the key
    would name another tuple)."""
    base = order + 1
    key = d = 0
    for x in e:
        key = key * base + x
        d += x
    if d <= order:
        _store(tables[0], e, (key, d))
        _store(tables[1], key, e)
    return key, d


def _unpack(key, n, order, tables):
    """The exponent tuple of a key of total degree at most ``order``."""
    base = order + 1
    k = key
    e = []
    for _ in range(n):
        k, x = divmod(k, base)
        e.append(x)
    e.reverse()
    e = tuple(e)
    _store(tables[0], e, (key, sum(e)))
    _store(tables[1], key, e)
    return e


def poly_mul(a, b, order):
    """Truncated product of sparse exponent-dict polynomials.

    Exponent tuples with total degree above ``order`` are dropped; that is
    the quotient-ring semantics, not a loss of information.  Rational
    operands are multiplied exactly in integers (see the module docstring);
    zero coefficients are never stored.  Exponent tuples and their integer
    keys are translated through the tables of :data:`_TABLES`, one pair per
    (rank, order), each holding at most ``MONO_TABLE_SIZE`` entries: storing
    into a full table empties it first.  An entry is a pure function of its
    key, so a race between threads can at worst store it twice.
    """
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    n = len(next(iter(a)))
    tables = _tables(n, order)
    if len(a) == 1:
        return _poly_mul_term(a, b, order, n, tables)
    la = _lift(a, order, tables)
    if la is None:
        return _poly_mul_generic(a, b, order)
    lb = _lift(b, order, tables)
    if lb is None:
        return _poly_mul_generic(a, b, order)
    acc = {}
    _mul_into(acc, la[0], list(accumulate(lb[0])), order)
    return _settle(acc, la[1] * lb[1], n, order, tables)


def poly_dots(rows, order):
    """Truncated sums of products: for each row ``[(a, b), ...]`` of
    exponent-dict polynomials of one rank, the sum of the ``a * b`` at
    ``order``, with coefficients stored as :func:`poly_mul` stores them.

    Each distinct operand dict of the call (by identity) is lifted once, and
    each row is accumulated in integers over one common denominator and
    unpacked once.  A row with an operand that is not rational is the sum
    of schoolbook products.  A pair with an empty operand forms no product,
    and an empty row sums to ``{}``.
    """
    lifts = {}  # id(poly) -> [buckets, den, buckets accumulated] or None
    tables = n = None

    def lift(poly):
        got = lifts.get(id(poly), False)
        if got is False:
            got = _lift(poly, order, tables)
            got = lifts[id(poly)] = None if got is None else [*got, None]
        return got

    out = []
    for row in rows:
        pairs = [(a, b) if len(a) <= len(b) else (b, a)
                 for a, b in row if a and b]
        if not pairs:
            out.append({})
            continue
        if tables is None:
            n = len(next(iter(pairs[0][0])))
            tables = _tables(n, order)
        lifted = [(lift(a), lift(b)) for a, b in pairs]
        if any(la is None or lb is None for la, lb in lifted):
            acc = {}
            for a, b in pairs:
                poly_axpy(acc, _poly_mul_generic(a, b, order), 1)
            out.append(acc)
            continue
        den = 1
        for la, lb in lifted:
            q = la[1] * lb[1]
            if den % q:
                den = den // gcd(den, q) * q
        acc = {}
        for la, lb in lifted:
            buckets_a = la[0]
            s = den // (la[1] * lb[1])
            if s != 1:
                buckets_a = [[(k, c * s) for k, c in terms]
                             for terms in buckets_a]
            if lb[2] is None:
                lb[2] = list(accumulate(lb[0]))
            _mul_into(acc, buckets_a, lb[2], order)
        out.append(_settle(acc, den, n, order, tables))
    return out


def _mul_into(acc, buckets_a, upto_b, order):
    """The integer product loop: ``acc[key] += ca * cb`` over the term pairs
    of total degree at most ``order``.  ``buckets_a`` is a lifted operand
    (see :func:`_lift`) and ``upto_b[d]`` lists the terms of the other of
    total degree <= d, so a term of degree d meets exactly those of degree
    <= order - d."""
    get = acc.get
    for da, terms_a in enumerate(buckets_a):
        if not terms_a:
            continue
        terms_b = upto_b[order - da]
        if not terms_b:
            continue
        for ka, ca in terms_a:
            for kb, cb in terms_b:
                k = ka + kb
                acc[k] = get(k, 0) + ca * cb


def _settle(acc, den, n, order, tables):
    """The polynomial of integer numerators ``acc`` over ``den``, keyed by
    exponent tuples, without its zero terms; integral coefficients as int."""
    unpack = tables[1].get
    out = {}
    for k, v in acc.items():
        if not v:
            continue
        e = unpack(k) or _unpack(k, n, order, tables)
        if den != 1:
            v = v // den if not v % den else Fraction(v, den)
        out[e] = v
    return out


def _lift(poly, order, tables):
    """Integer form of a rational polynomial, bucketed by total degree.

    Returns ``(buckets, den)``: ``den`` is the least common multiple of the
    coefficient denominators and ``buckets[d]`` lists ``(key, num)`` for the
    terms of total degree ``d <= order``, where ``num / den`` is the
    coefficient and ``key`` reads the exponent tuple as the digits of an
    integer in base ``order + 1`` (no digit of a kept product can carry).
    Returns None when a coefficient is neither ``int`` nor ``Fraction``.
    """
    buckets = [[] for _ in range(order + 1)]
    pack = tables[0].get
    den = 1
    for e, c in poly.items():
        t = type(c)
        if t is not int:
            if t is not Fraction:
                return None
            q = c.denominator
            if q == 1:
                c = c.numerator
            elif den % q:
                den = den // gcd(den, q) * q
        key, d = pack(e) or _pack(e, order, tables)
        if d <= order:
            buckets[d].append((key, c))
    if den != 1:
        buckets = [[(k, c.numerator * (den // c.denominator))
                    for k, c in terms] for terms in buckets]
    return buckets, den


def _poly_mul_term(a, b, order, n, tables):
    """Product with the one-term polynomial ``a``, in any coefficient ring."""
    ((ea, ca),) = a.items()
    pack = tables[0].get
    unpack = tables[1].get
    ka, da = pack(ea) or _pack(ea, order, tables)
    room = order - da
    if room < 0:
        return {}
    out = {}
    for eb, cb in b.items():
        kb, db = pack(eb) or _pack(eb, order, tables)
        if db > room:
            continue
        c = ca * cb
        if not c:
            continue
        if type(c) is Fraction and c.denominator == 1:
            c = c.numerator
        k = ka + kb
        out[unpack(k) or _unpack(k, n, order, tables)] = c
    return out


def _poly_mul_generic(a, b, order):
    """Schoolbook truncated product over any coefficient ring."""
    if len(a) > len(b):
        a, b = b, a
    out = {}
    for ea, ca in a.items():
        da = sum(ea)
        for eb, cb in b.items():
            if da + sum(eb) > order:
                continue
            key = tuple(x + y for x, y in zip(ea, eb))
            c = ca * cb
            if key in out:
                c = out[key] + c
            if c:
                out[key] = c
            elif key in out:
                del out[key]
    return out


def poly_axpy(acc, data, coef):
    """In-place ``acc += coef * data`` for polynomials (or states); an
    integral rational is stored as ``int``, like :func:`poly_mul` does."""
    get = acc.get
    for key, c in data.items():
        v = coef * c
        old = get(key)
        if old is not None:
            v = old + v
        if v:
            # only a Fraction can be an integral Fraction
            if type(v) is Fraction and v.denominator == 1:
                v = v.numerator
            acc[key] = v
        elif old is not None:
            del acc[key]
    return acc


def _sym_key(s):
    return (s[0], s[1], -s[2])


def state_mul_sym(data, sym):
    """Multiply every monomial of a state by the mode symbol ``sym``.

    Monomials are kept sorted by the canonical key (kind, j, -m); insertion
    is injective on monomials so no coefficient merging can occur.
    """
    sk = _sym_key(sym)
    out = {}
    for mono, c in data.items():
        i = 0
        ln = len(mono)
        while i < ln and _sym_key(mono[i]) <= sk:
            i += 1
        out[mono[:i] + (sym,) + mono[i:]] = c
    return out


def state_deriv_sym(data, sym, sign):
    """Apply ``sign * d/d(sym)`` to a state, symbols being even variables."""
    out = {}
    for mono, c in data.items():
        mult = 0
        idx = -1
        for i, s in enumerate(mono):
            if s == sym:
                mult += 1
                if idx < 0:
                    idx = i
        if not mult:
            continue
        key = mono[:idx] + mono[idx + 1:]
        v = (sign * mult) * c
        if key in out:
            v = out[key] + v
        if v:
            out[key] = v
        elif key in out:
            del out[key]
    return out


def state_axpy(acc, data, coef):
    """In-place ``acc += coef * data`` for states (tuple- or id-keyed),
    storing sums as they come: the mode recursion is integral."""
    get = acc.get
    for key, c in data.items():
        v = coef * c
        old = get(key)
        if old is not None:
            v = old + v
        if v:
            acc[key] = v
        elif old is not None:
            del acc[key]
    return acc
