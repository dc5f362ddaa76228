"""Actions of formal vector fields, forms, and GL_n on the state space.

A vector field f(t) d/dt_j embeds as the weight-one state f(c) b^j_{-1}
and acts through its zero mode; a one-form f(t) dt_j embeds as
f(c) T(c^j_0) and likewise acts through the zero mode, which kills exact
forms, so closed two-forms act through any de Rham primitive (here the
radial one).  The failure of the vector-field action to be a Lie map is
the extension cocycle; :func:`msv_defect` computes it as an operator and
the tests match it against the explicit second Chern-character cocycle.

Zero modes are applied by :func:`vertex.mode_apply`, the package's one
n-th product, which takes Wick's theorem: :func:`rho_w`, :func:`rho_omega1`
and :func:`rho_omega2`.  The tests hold :func:`rho_omega2` against an
independent route that shares no code with it past the embedding: the
first mode of the translated staircase primitive, taken by the
normally-ordered recursion that ``tests/recursion.py`` keeps as the
oracle.

A sweep applies the same operand to many states, so the work fixed by the
operand is built once: bounded memos (``MEMO_SIZE`` operands each, least
recently used evicted first) map a field and policy to its embedded state
``tau_w``, a pair of fields to their bracket, and a closed two-form and
policy to the embedded primitive that :func:`rho_omega2` applies.  The
closedness check is the one of ``poincare_homotopy``, which runs inside
that memo's builder, and a raised error is not stored, so a non-closed form
is refused on every call.
``vertex.clear_mode_cache`` empties these memos along with the mode
cache.  The builders look ``tau_w``, ``vf_bracket`` and
``poincare_homotopy`` up as module globals, so a rebound name takes effect.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .errors import ClosednessError, InvertibilityError, ShapeError
from .gf import ch2_gf
from .jets import (FormalForm, FormalVectorField, JetSeries, de_rham,
                   lie_derivative, poincare_homotopy, vf_bracket,
                   _matrix_inverse)
from .vertex import KIND_B, KIND_C, VAState, mode_apply, on_cache_clear

# operands held by each per-operand memo
MEMO_SIZE = 256


def jet_to_state(f: JetSeries, policy) -> VAState:
    """Substitute c^i_0 for t_i: the dimension-zero embedding of functions."""
    terms = {}
    for e, c in f.coeffs.items():
        mono = []
        for i, k in enumerate(e):
            mono.extend([(KIND_C, i + 1, 0)] * k)
        terms[tuple(mono)] = c
    return VAState(f.n, policy, terms)


def state_to_jet(v: VAState, order) -> JetSeries:
    """Inverse of jet_to_state on weight-zero states."""
    coeffs = {}
    for mono, c in v.mono_terms().items():
        e = [0] * v.n
        for kind, j, m in mono:
            if kind != KIND_C or m != 0:
                raise ShapeError("state is not of conformal weight zero")
            e[j - 1] += 1
        coeffs[tuple(e)] = c
    return JetSeries(v.n, order, coeffs)


def tau_w(x: FormalVectorField, policy) -> VAState:
    """f(t) d_j  |->  f(c) b^j_{-1}, in conformal weight one."""
    out = VAState.zero(x.n, policy)
    for j in range(1, x.n + 1):
        f = x.comps[j - 1]
        if f.is_zero():
            continue
        out = out + jet_to_state(f, policy) * \
            VAState.generator(x.n, policy, KIND_B, j, -1)
    return out


@functools.lru_cache(maxsize=MEMO_SIZE)
def _tau_w_memo(x: FormalVectorField, policy) -> VAState:
    return tau_w(x, policy)


def rho_w(x: FormalVectorField, v: VAState) -> VAState:
    """Zero mode of tau_w(x); a grading-preserving derivation of products."""
    return mode_apply(_tau_w_memo(x, v.policy), 0, v)


def tau_omega1(theta: FormalForm, policy) -> VAState:
    """f(t) dt_j  |->  f(c) T(c^j_0) = f(c) c^j_{-1}."""
    if theta.degree != 1:
        raise ShapeError("tau_omega1 expects a one-form")
    out = VAState.zero(theta.n, policy)
    for (j,), f in theta.comps.items():
        out = out + jet_to_state(f, policy) * \
            VAState.generator(theta.n, policy, KIND_C, j, -1)
    return out


def rho_omega1(theta: FormalForm, v: VAState) -> VAState:
    """Zero mode of tau_omega1(theta); vanishes when theta is exact."""
    return mode_apply(tau_omega1(theta, v.policy), 0, v)


def rho_omega2(omega: FormalForm, v: VAState) -> VAState:
    """Action of a closed two-form, i.e. of any de Rham primitive: the zero
    mode of tau_omega1 of the radial primitive.  Exact one-forms act by
    zero, so every primitive gives the same operator."""
    if omega.degree != 2:
        raise ShapeError("rho_omega2 expects a two-form")
    return mode_apply(_omega2_state(omega, v.policy), 0, v)


@functools.lru_cache(maxsize=MEMO_SIZE)
def _omega2_state(omega: FormalForm, policy) -> VAState:
    """tau_omega1 of the radial primitive of a closed two-form;
    ``poincare_homotopy`` refuses a non-closed one."""
    return tau_omega1(poincare_homotopy(omega), policy)


def gl_act(a_matrix, v: VAState) -> VAState:
    """Linear change of frame: c-modes transform by A, b-modes by (A^T)^{-1},
    extended multiplicatively over monomials; commutes with T.

    Substitution into symbols is contravariant, so a left action on states
    (gl_act(A) gl_act(B) = gl_act(AB)) replaces c^j by sum_k A[k][j] c^k,
    i.e. the row-vector reading of "c goes to A c".
    """
    n = v.n
    rows = [[Fraction(x) for x in row] for row in a_matrix]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ShapeError("matrix must be n x n")
    inv = _matrix_inverse(rows)
    if inv is None:
        raise InvertibilityError("gl_act requires an invertible matrix")
    # substitution matrices, indexed [old j][new k]
    c_sub = [[rows[k][j] for k in range(n)] for j in range(n)]
    b_sub = [[inv[j][k] for k in range(n)] for j in range(n)]
    out = VAState.zero(n, v.policy)
    for mono, coef in v.mono_terms().items():
        acc = VAState(n, v.policy, {(): coef})
        for kind, j, m in mono:
            mat = c_sub if kind == KIND_C else b_sub
            sym_sum = VAState.zero(n, v.policy)
            for k in range(1, n + 1):
                if mat[j - 1][k - 1]:
                    sym_sum = sym_sum + VAState.generator(
                        n, v.policy, kind, k, m, mat[j - 1][k - 1])
            acc = acc * sym_sum
        out = out + acc
    return out


def msv_defect(x: FormalVectorField, y: FormalVectorField,
               v: VAState) -> VAState:
    """D(X,Y)v = [rho_W(X), rho_W(Y)] v - rho_W([X,Y]) v, with the
    bracket taken whole (:func:`exact_bracket`).

    Nonzero exactly because the vector fields act only projectively; the
    defect is the extension cocycle applied to v.
    """
    first = rho_w(x, rho_w(y, v)) - rho_w(y, rho_w(x, v))
    return first - rho_w(_bracket_memo(x, y), v)


def lift_pair(x: FormalVectorField, y: FormalVectorField):
    """X and Y at deg X + deg Y - 1, or X's order when higher: the order of
    every term of [X, Y] and ch2(X, Y), which the zero modes act on whole."""
    order = max(x.order, x.degree() + y.degree() - 1)
    return x.with_order(order), y.with_order(order)


def exact_bracket(x: FormalVectorField,
                  y: FormalVectorField) -> FormalVectorField:
    """[X, Y] with every term kept: the bracket of :func:`lift_pair`."""
    return vf_bracket(*lift_pair(x, y))


@functools.lru_cache(maxsize=MEMO_SIZE)
def _bracket_memo(x: FormalVectorField, y: FormalVectorField):
    return exact_bracket(x, y)


on_cache_clear(_tau_w_memo.cache_clear)
on_cache_clear(_omega2_state.cache_clear)
on_cache_clear(_bracket_memo.cache_clear)


class ExtendedVectorField:
    """Pair (X, omega) in the extension of W_n by closed two-forms."""

    __slots__ = ("field", "form")

    def __init__(self, field: FormalVectorField, form: FormalForm):
        if form.degree != 2:
            raise ShapeError("extension component must be a two-form")
        if not de_rham(form).is_zero():
            raise ClosednessError("extension component must be closed")
        if field.n != form.n:
            raise ShapeError("rank mismatch in extended field")
        self.field = field
        self.form = form

    @classmethod
    def lift(cls, field: FormalVectorField):
        return cls(field, FormalForm.zero(field.n, field.order, 2))

    def __eq__(self, other):
        if not isinstance(other, ExtendedVectorField):
            return NotImplemented
        return self.field == other.field and self.form == other.form

    def __repr__(self):
        return f"ExtendedVectorField({self.field!r}, {self.form!r})"


def tilde_bracket(a: ExtendedVectorField, b: ExtendedVectorField) -> ExtendedVectorField:
    """[(X,w),(Y,e)] = ([X,Y], L_X e - L_Y w + ch2(X,Y))."""
    x, y = a.field, b.field
    form = lie_derivative(x, b.form) - lie_derivative(y, a.form) + ch2_gf(x, y)
    return ExtendedVectorField(vf_bracket(x, y), form)
