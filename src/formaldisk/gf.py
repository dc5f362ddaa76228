"""Continuous Lie-algebra cochains on formal vector fields and the explicit
characteristic cocycles: the connection-failure (Atiyah) representative, its
trace powers, the divergence class, and the primitive transgressing the
second trace power.

Cochains on W_n are evaluation procedures, not stored tensors; cocycle
conditions are property-tested on monomial generating sets up to a degree
cutoff.  Transcendental normalizations are carried symbolically by
:class:`ScaleTag` so every stored form stays exact rational.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

from .errors import ShapeError
from .jets import (FormalForm, FormalVectorField, FormMatrix, JetSeries,
                   de_rham, lie_derivative, vf_bracket, wedge)


def atiyah_rep(x: FormalVectorField) -> FormMatrix:
    """The 1-cochain value At(X) = -d(d_j X^i) (dt^j tensor d_i), returned as
    the n x n matrix of one-forms with entry [i][j] = -d(d_j X^i).

    Vanishes on constant and linear fields: only second derivatives of the
    coefficients survive.
    """
    n, order = x.n, x.order
    entries = []
    for i in range(n):
        row = []
        for j in range(n):
            g = x.comps[i].partial(j + 1)
            row.append(-de_rham(FormalForm.from_jet(g)))
        entries.append(row)
    return FormMatrix(n, order, entries)


def c1_gf(x: FormalVectorField) -> FormalForm:
    """c_1(X) = d(sum_i d_i X^i), the divergence differential."""
    div = JetSeries.zero(x.n, x.order)
    for i in range(1, x.n + 1):
        div = div + x.comps[i - 1].partial(i)
    return de_rham(FormalForm.from_jet(div))


def ch2_gf(x: FormalVectorField, y: FormalVectorField) -> FormalForm:
    """ch_2 cocycle: (X, Y) |-> - sum_ij d(d_j X^i) ^ d(d_i Y^j).

    Antisymmetric in (X, Y); the output is de Rham closed by construction
    (it is a wedge of exact one-forms).
    """
    if x.n != y.n or x.order != y.order:
        raise ShapeError("rank/order mismatch")
    n, order = x.n, x.order
    out = FormalForm.zero(n, order, 2)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            fij = x.comps[i - 1].partial(j)
            gji = y.comps[j - 1].partial(i)
            dd = de_rham(FormalForm.from_jet(fij))
            dg = de_rham(FormalForm.from_jet(gji))
            out = out - wedge(dd, dg)
    return out


def alpha_primitive(x: FormalVectorField, y: FormalVectorField) -> FormalForm:
    """The transgressing 2-cochain with values in one-forms:
    (X,Y) |-> - sum_ij (d_j X^i) d(d_i Y^j); satisfies d_dR alpha = ch_2."""
    if x.n != y.n or x.order != y.order:
        raise ShapeError("rank/order mismatch")
    n, order = x.n, x.order
    out = FormalForm.zero(n, order, 1)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            fij = x.comps[i - 1].partial(j)
            gji = y.comps[j - 1].partial(i)
            dg = de_rham(FormalForm.from_jet(gji))
            out = out - dg.scale_jet(fij)
    return out


class ScaleTag:
    """Symbolic normalization 1/((-2 pi i)^k k!) attached to an exact form."""

    __slots__ = ("k",)

    def __init__(self, k):
        self.k = k

    def __eq__(self, other):
        if not isinstance(other, ScaleTag):
            return NotImplemented
        return self.k == other.k

    def __hash__(self):
        return hash(("scale", self.k))

    def __repr__(self):
        return f"1/((-2*pi*i)^{self.k} * {self.k}!)"


# Sign from regrading the interleaved (Lie, form) slots of the k-fold wedge
# into (Lie..Lie, form..form); pins k = 1, 2 to c1_gf and ch2_gf exactly.
def _regrade_sign(k):
    return -1 if (k * (k + 1) // 2) % 2 else 1


def chk_gf(k: int, fields) -> tuple[FormalForm, ScaleTag]:
    """k-th trace power of the connection-failure cocycle, antisymmetrized
    over its k vector-field slots, as (exact rational k-form, scale tag).

    Above the rank the form is the zero k-form.  For k = 1 and k = 2 the
    exact form equals c1_gf and ch2_gf respectively.
    """
    fields = list(fields)
    if len(fields) != k:
        raise ShapeError(f"chk_gf needs exactly {k} vector fields")
    if k < 1:
        raise ShapeError("k must be >= 1")
    n, order = fields[0].n, fields[0].order
    for f in fields:
        if f.n != n or f.order != order:
            raise ShapeError("rank/order mismatch")
    mats = [atiyah_rep(f) for f in fields]
    acc = FormalForm.zero(n, order, k)
    for perm in permutations(range(k)):
        sign = 1
        seen = list(perm)
        for a in range(k):
            for b in range(a + 1, k):
                if seen[a] > seen[b]:
                    sign = -sign
        prod = mats[perm[0]]
        for idx in perm[1:]:
            prod = prod.wedge_mul(mats[idx])
        acc = acc + prod.trace().scale(sign)
    fact = 1
    for r in range(2, k + 1):
        fact *= r
    acc = acc.scale(Fraction(_regrade_sign(k), fact))
    return acc, ScaleTag(k)


class LieCochainEval:
    """Evaluation-style p-cochain on W_n with a module action.

    ``evaluate`` maps p monomial vector fields to a module value (a form,
    or anything the supplied action understands); ``action(X, value)``
    implements the module structure, Lie derivative by default.
    """

    __slots__ = ("arity", "evaluate", "action")

    def __init__(self, arity, evaluate, action=lie_derivative):
        self.arity = arity
        self.evaluate = evaluate
        self.action = action

    def __call__(self, *fields):
        if len(fields) != self.arity:
            raise ShapeError(f"cochain has arity {self.arity}, got {len(fields)}")
        return self.evaluate(*fields)


def ce_diff_eval(phi: LieCochainEval, *fields):
    """Chevalley-Eilenberg differential, evaluated:

    (d phi)(X_0..X_p) = sum_i (-1)^i X_i . phi(.. X_i-hat ..)
                      + sum_{i<j} (-1)^{i+j} phi([X_i,X_j], .. hats ..).
    """
    p = phi.arity
    if len(fields) != p + 1:
        raise ShapeError(f"d of a {p}-cochain takes {p + 1} arguments")
    acc = None
    for i, xi in enumerate(fields):
        rest = fields[:i] + fields[i + 1:]
        term = phi.action(xi, phi(*rest))
        if i % 2:
            term = -term
        acc = term if acc is None else acc + term
    for i in range(p + 1):
        for j in range(i + 1, p + 1):
            bracket = vf_bracket(fields[i], fields[j])
            rest = tuple(f for kdx, f in enumerate(fields) if kdx not in (i, j))
            term = phi(bracket, *rest)
            if (i + j) % 2:
                term = -term
            acc = term if acc is None else acc + term
    return acc
