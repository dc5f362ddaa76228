"""The group two-cocycle of formal automorphisms valued in closed two-forms.

Built from Jacobian currents: with g the Jacobian jet of an automorphism,
alpha3 is the Chern-Simons-type 3-form (1/3) tr((g^{-1} dg)^3), alpha2 the
two-argument current pairing, mu a radial primitive of alpha3, and the
lifted cocycle combines them so that the Polyakov-Wiegmann identity makes
it closed.  The derivative at the identity is taken over the jets in two
parameters s, u (the s*u coefficient of id + sX, id + uY) and lands on the
Lie-level cocycle up to one calibrated scale.

Each factor runs at the least order that keeps the reported residual, at
the input order K, exact.  Truncation commutes with products, and with
substitution along jets that vanish at the origin, but not with
derivatives: a derivative of a jet known to order k is known to order k-1.
So the Jacobian g = Jac(phi) and its partials d_a g are taken from phi known
to order K+3 (an input is an exact polynomial, so lifting it is free; a
composition f2 o f1 is formed at K+3) and then truncated.  The
substitution, alpha2 and the currents alpha2 reads are formed at K+1,
because d alpha2 enters the Polyakov-Wiegmann residual: the right currents
of its first argument f1 and the left currents of its second f2.  alpha3's
products run at K, and mu, its radial primitive, comes out at K+1.  So
alpha3 of f2 truncates f2's left currents and alpha3 of f1 its right ones
(the right currents R_a = g M_a g^{-1} are conjugate to the left ones M_a,
so tr([R_a, R_b] R_c) = tr([M_a, M_b] M_c)), while alpha3 of an
automorphism that no alpha2 reads (f2 o f1 in ``pw_check``) multiplies the
Jacobian adjugate and partials at K; the adjugate is built once, at K+1
when alpha2 reads a current of that automorphism and at K otherwise.  Every
value is then exact at the order it is reported, and the residuals are
exactly zero, not zero-up-to-top-degree.

No Jacobian is inverted.  With N_a = adj(g) d_a g, the current is
M_a = N_a / det g, and the jets commute, so each form is a trace of
numerators scaled once per component:

* the (a<b<c) component of alpha3 is tr([M_a, M_b] M_c)
  = tr([N_a, N_b] N_c) / det(g)^3, and
* the (a<b) component of alpha2 = tr(P ^ R) is tr(P_a R_b) - tr(P_b R_a),
  the same sums over the numerators (f1's right ones and the pullback of
  f2's left ones) divided by det(g1) (det g2 o f1).

For criterion 6's unipotent jets g is the identity plus linear terms, so
the numerators are sparse polynomials of low degree and only the one
scaling per component is dense.  The adjugate and determinant come from
cofactors (:func:`~formaldisk.jets.adjugate`), over any coefficient ring.
alpha3 inverts its determinant once, at K, and alpha2 inverts the one
product det(g1) (det g2 o f1) at K+1, after det g2 is pulled back.

Each automorphism a check uses gets one :class:`_Currents`, which builds
its adjugate and determinant, the current numerators that are read and its
substitution operator once, on first use; alpha3 and mu return zero below
rank three before any of that work.  The traces are taken form component
by form component, and no off-diagonal entry of a matrix product is formed
only to be dropped by the trace.  Each batch of traces is one kernel call,
a sum of products per component
(:func:`~formaldisk.jets.trace_products`), and so is each batch of matrix
products (the n numerators of one side, alpha3's commutators), each size
of minors, alpha2's pullback sums and each form's scaling, so that a jet
read by several products of a batch is brought into the kernel's integer
form once.  The whole-matrix product
:meth:`~formaldisk.jets.FormMatrix.wedge_mul` computes the same forms and
is the reference the tests hold these to.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations

from .constants import GMS_D1_SCALE
from .errors import ShapeError
from .gf import ch2_gf
from .jets import (FormalForm, FormalVectorField, JetAutomorphism, JetMatrix,
                   JetSeries, Substitution, adjugate, de_rham, jacobian,
                   jet_compose, jet_dots, matrix_products, poincare_homotopy,
                   trace_products)


def _lift(phi: JetAutomorphism, order) -> JetAutomorphism:
    return JetAutomorphism(phi.n, order,
                           [f.with_order(order) for f in phi.comps])


def _check_pair(f1, f2):
    if f1.n != f2.n or f1.order != f2.order:
        raise ShapeError("automorphisms must share rank and order")


def _truncate(m: JetMatrix, order) -> JetMatrix:
    if order == m.order:
        return m
    return JetMatrix(m.n, order, [[f.with_order(order) for f in row]
                                  for row in m.entries])


class _Currents:
    """One automorphism's Jacobian data, each part built once, on first use.

    ``phi`` is known to order ``order + 2`` or more, so that the partials of
    its Jacobian are exact at the working order ``order`` (K+1 for a check
    reported at K).  With g = Jac(phi) and M_a = g^{-1} d_a g:
    ``left[a]`` = adj(g) d_a g and ``right[a]`` = d_a g adj(g) are the
    numerators of the currents M_a = left[a] / det g and
    g M_a g^{-1} = right[a] / det g, ``det`` is det g, and ``sub`` pulls
    jets and forms back along phi, all at the working order.

    ``left`` and ``right`` say which current sides a reader takes at the
    working order.  The adjugate and the determinant are built there when
    one is read, and one order below, where alpha3 lives, when neither is;
    only alpha3 inverts the determinant, at its own order.  alpha3
    truncates a side that is read, the left one if both are, and otherwise
    forms its own numerators one order below.
    """

    def __init__(self, phi: JetAutomorphism, order, left=False, right=False):
        self.phi = phi
        self.order = order
        self.reads_left = left
        self.reads_right = right
        self.adjugate_order = order if left or right else order - 1

    @cached_property
    def _jacobian(self):
        """(adj g, det g, [d_a g for each direction a]) at the highest order
        read: the partials are taken before truncating."""
        order = self.adjugate_order
        g = jacobian(self.phi)
        dg = [g.map_entries(lambda f, a=a: f.partial(a))
              for a in range(1, self.phi.n + 1)]
        return (*adjugate(_truncate(g, order)),
                [_truncate(d, order) for d in dg])

    @property
    def det(self) -> JetSeries:
        return self._jacobian[1]

    def _truncated_jacobian(self, order):
        adj, _, dg = self._jacobian
        if order > adj.order:
            raise ShapeError("currents read above the order of their "
                             "Jacobian adjugate")
        return _truncate(adj, order), [_truncate(d, order) for d in dg]

    @cached_property
    def left(self):
        adj, dg = self._truncated_jacobian(self.order)
        return matrix_products([(adj, d) for d in dg])

    @cached_property
    def right(self):
        adj, dg = self._truncated_jacobian(self.order)
        return matrix_products([(d, adj) for d in dg])

    @cached_property
    def sub(self) -> Substitution:
        return Substitution(self.phi.comps, self.order)

    @cached_property
    def alpha3(self) -> FormalForm:
        """(1/3) tr(A^3) for A = g^{-1} dg = sum_a M_a dt_a, by components,
        one order below the working order: no derivative of it is taken.

        The trace is cyclic, so of the six orderings of M_a M_b M_c the
        three even ones have one trace and the three odd ones another, and
        the (a<b<c) component is tr([M_a, M_b] M_c), that is
        tr([N_a, N_b] N_c) / det(g)^3 for the numerators N_a.  The right
        numerators d_a g adj(g) = g N_a g^{-1} give the same traces.
        """
        n, order = self.phi.n, self.order - 1
        if n < 3:
            return FormalForm.zero(n, order, 3)
        if self.reads_left:
            m = [_truncate(x, order) for x in self.left]
        elif self.reads_right:
            m = [_truncate(x, order) for x in self.right]
        else:
            adj, dg = self._truncated_jacobian(order)
            m = matrix_products([(adj, d) for d in dg])
        ab = list(combinations(range(n - 1), 2))
        prods = matrix_products([(m[a], m[b]) for a, b in ab]
                                + [(m[b], m[a]) for a, b in ab])
        comm = {k: x - y for k, x, y in zip(ab, prods, prods[len(ab):])}
        abc = list(combinations(range(n), 3))
        traces = trace_products([(comm[a, b], m[c]) for a, b, c in abc])
        dinv = self.det.with_order(order).inverse()
        cube = dinv * dinv * dinv
        return FormalForm(n, order, 3, {
            (a + 1, b + 1, c + 1): t for (a, b, c), t in
            zip(abc, jet_dots([[(t, cube)] for t in traces], n, order))})

    @cached_property
    def mu(self) -> FormalForm:
        """The radial primitive of alpha3; the homotopy raises its order
        back to the working order."""
        return poincare_homotopy(self.alpha3)


def _currents(phi: JetAutomorphism, left=False, right=False) -> _Currents:
    """The currents of an automorphism given at order K, at working order
    K+1, with the sides read there.  Its components are exact polynomials,
    so lifting them is free."""
    return _Currents(_lift(phi, phi.order + 3), phi.order + 1, left, right)


def _compose(c1: _Currents, c2: _Currents, left=False,
             right=False) -> _Currents:
    """The currents of f2 o f1, composed at the order the factors are known
    to, which truncation commutes with."""
    return _Currents(jet_compose(c2.phi, c1.phi), c1.order, left, right)


def _alpha2(c1: _Currents, c2: _Currents) -> FormalForm:
    """tr( f1^*(g2^{-1} dg2) ^ dg1 g1^{-1} ), by components.

    The pullback placement is the one that satisfies Polyakov-Wiegmann
    exactly (tests pin it down).  With P_a and R_b the dt-coefficients of
    the two factors, the (a<b) component is tr(P_a R_b) - tr(P_b R_a).
    Both are taken over the numerators, P'_a and R'_b, and scaled once by
    the inverse of det(g1) (det g2 o f1): substitution is a ring map, so the
    pulled denominator is the pullback of det g2, a polynomial of low
    degree, and the one inverse is taken after the substitution.
    """
    n, order, sub = c1.phi.n, c1.order, c1.sub
    # dphi[c][a] = d_a phi_c, and f1^*(N dt_c) = (N o f1) sum_a dphi[c][a] dt_a
    dphi = [[d.component((a,)) for a in range(1, n + 1)]
            for d in sub.differentials()]
    pulled = [mc.map_entries(sub.jet) for mc in c2.left]
    rng = range(n)
    sums = jet_dots([[(pulled[c].entries[i][j], dphi[c][a]) for c in rng]
                     for a in rng for i in rng for j in rng], n, order)
    p = [JetMatrix(n, order, [sums[(a * n + i) * n:(a * n + i + 1) * n]
                              for i in rng]) for a in rng]
    r = c1.right
    ab = list(combinations(rng, 2))
    traces = trace_products([(p[a], r[b]) for a, b in ab]
                            + [(p[b], r[a]) for a, b in ab])
    scale = (c1.det * sub.jet(c2.det)).inverse()
    comps = jet_dots([[(x - y, scale)]
                      for x, y in zip(traces, traces[len(ab):])], n, order)
    return FormalForm(n, order, 2, {
        (a + 1, b + 1): f for (a, b), f in zip(ab, comps)})


def _alpha_tilde(c1: _Currents, c2: _Currents, c21: _Currents) -> FormalForm:
    """alpha~(f1, f2), with c21 the currents of f2 o f1."""
    return _alpha2(c1, c2) - c1.mu - c1.sub.form(c2.mu) + c21.mu


def alpha2(f1: JetAutomorphism, f2: JetAutomorphism) -> FormalForm:
    """Two-argument Jacobian-current pairing; bilinear in the jets."""
    _check_pair(f1, f2)
    return _alpha2(_currents(f1, right=True),
                   _currents(f2, left=True)).with_order(f1.order)


def alpha3(phi: JetAutomorphism) -> FormalForm:
    """(1/3) tr((g^{-1} dg)^3); zero below rank three, de Rham closed."""
    return _currents(phi).alpha3


def mu(phi: JetAutomorphism) -> FormalForm:
    """Radial primitive of alpha3: d mu(f) = alpha3(f) exactly.

    Reported at order K+1, like the homotopy it is built from.
    """
    return _currents(phi).mu


def _pw_terms(f1: JetAutomorphism, f2: JetAutomorphism):
    """alpha3(f2 o f1), alpha3(f1), f1^* alpha3(f2) and d alpha2(f1, f2),
    each at the input order K."""
    _check_pair(f1, f2)
    order = f1.order
    c1, c2 = _currents(f1, right=True), _currents(f2, left=True)
    # alpha3(f2) is known to order K, so its pullback is exact to order K
    return (_compose(c1, c2).alpha3, c1.alpha3,
            c1.sub.form(c2.alpha3).with_order(order),
            de_rham(_alpha2(c1, c2)).with_order(order))


def pw_check(f1: JetAutomorphism, f2: JetAutomorphism):
    """Polyakov-Wiegmann identity
        alpha3(f2 o f1) = alpha3(f1) + f1^* alpha3(f2) - d alpha2(f1, f2);
    returns (holds, residual-at-input-order)."""
    lhs, a3, pulled, d_a2 = _pw_terms(f1, f2)
    residual = lhs - (a3 + pulled - d_a2)
    return residual.is_zero(), residual


def alpha_tilde(f1: JetAutomorphism, f2: JetAutomorphism) -> FormalForm:
    """Lifted two-cocycle: alpha2 corrected by the coboundary of mu,

        alpha~(f1,f2) = alpha2(f1,f2) - mu(f1) - f1^* mu(f2) + mu(f2 o f1),

    the sign of the mu-terms being forced by closedness: with the
    Polyakov-Wiegmann orientation satisfied by alpha2 here, d(mu-coboundary)
    equals +d alpha2, so the correction must be subtracted.  Closed, and a
    group cocycle for the pullback-twisted product
    (f1, w1)(f2, w2) = (f2 o f1, w1 + f1^* w2 + alpha~(f1,f2))."""
    _check_pair(f1, f2)
    c1, c2 = _currents(f1, right=True), _currents(f2, left=True)
    return _alpha_tilde(c1, c2, _compose(c1, c2)).with_order(f1.order)


def group_cocycle_residual(f1, f2, f3) -> FormalForm:
    """Associativity form of the extension product:
        alpha~(f1,f2) + alpha~(f2 o f1, f3) - f1^* alpha~(f2,f3)
          - alpha~(f1, f3 o f2)."""
    _check_pair(f1, f2)
    _check_pair(f2, f3)
    c1 = _currents(f1, right=True)
    c2 = _currents(f2, left=True, right=True)
    c3 = _currents(f3, left=True)
    c21, c32 = _compose(c1, c2, right=True), _compose(c2, c3, left=True)
    # composition is associative on jets: f3 o (f2 o f1) = (f3 o f2) o f1
    c321 = _compose(c1, c32)
    res = _alpha_tilde(c1, c2, c21) + _alpha_tilde(c21, c3, c321) \
        - c1.sub.form(_alpha_tilde(c2, c3, c32)) \
        - _alpha_tilde(c1, c32, c321)
    return res.with_order(f1.order)


def _nilpotent_deform(x: FormalVectorField, which) -> JetAutomorphism:
    """id + s X (which='s') or id + u X (which='u'), where s and u are the
    variables of ``JetSeries(2, 2)``, the coefficient ring Q[s,u]/(s,u)^3."""
    unit = JetSeries.variable(2, 2, 1 if which == "s" else 2)
    n, order = x.n, x.order
    return JetAutomorphism(n, order, [
        JetSeries.variable(n, order, i + 1) + f.map_coeffs(unit.scale)
        for i, f in enumerate(x.comps)])


def d1_compare(x: FormalVectorField, y: FormalVectorField):
    """Van Est derivative of alpha_tilde at the identity against ch2.

    Deforms along (id + sX, id + uY) over the jets Q[s,u]/(s,u)^3,
    extracts the s*u coefficient, antisymmetrizes in (X, Y), and compares
    with the calibrated multiple of ch2(X,Y).  Both fields must vanish at
    the origin.

    The derivative lives over Q[s,u]/(s^2,u^2), and the jets compute it
    exactly: (s,u)^3 lies in (s^2,u^2), so reducing modulo (s^2,u^2) is a
    ring map that keeps the s*u coordinate; every step of alpha~ is a ring
    operation, a rational scaling or the inverse of a unit; and both rings
    call an element a unit exactly when its constant term is nonzero, so
    the determinant that alpha2 inverts is a unit in both.

    On this path alpha~ is alpha2: the Jacobian of id + sX, of id + uY and
    of their composite is the identity plus a matrix in the ideal (s, u),
    so every current lies in (s, u) and alpha3, a product of three, lies in
    (s,u)^3 = 0, and so does its primitive mu.  The composite's currents
    and the three mu terms are therefore not formed.
    Returns (lie_level_form, ch2_form, verdict).
    """
    if not (x.vanishes_at_origin() and y.vanishes_at_origin()):
        raise ShapeError("d1_compare needs fields vanishing at the origin")
    if x.n != y.n or x.order != y.order:
        raise ShapeError("rank/order mismatch")

    def su_part(form: FormalForm) -> FormalForm:
        # a rational coefficient has no s*u part
        return form.map_coeffs(
            lambda c: c.coeffs.get((1, 1), 0) if isinstance(c, JetSeries)
            else 0)

    mxy = su_part(alpha2(_nilpotent_deform(x, "s"),
                         _nilpotent_deform(y, "u")))
    myx = su_part(alpha2(_nilpotent_deform(y, "s"),
                         _nilpotent_deform(x, "u")))
    lie_level = mxy - myx
    c2 = ch2_gf(x, y)
    return lie_level, c2, lie_level == c2.scale(GMS_D1_SCALE)
