"""Scalar rings for jet and state coefficients.

The default coefficient ring is Q, stored as ``int`` when integral and as
``fractions.Fraction`` otherwise; :func:`norm_coeff` is the one place that
normalises a rational to that form, for jets and states alike.  For the van
Est derivative of group cochains we also need the rank-4 extension
``Q[s,u]/(s^2, u^2)``; :class:`NilpotentPair` models it exactly.  Jet and
form arithmetic only uses ``+``, ``-``, ``*``, division by units and
truthiness, so either ring can sit in a coefficient slot.

Units and inverses are methods of the ring elements (``is_unit()`` and
``inverse()`` of pairs and jets); :func:`is_unit` and :func:`scalar_inv`
handle the rationals and defer to those methods for any other ring.
"""

from __future__ import annotations

from fractions import Fraction


def rat(x) -> Fraction:
    """Coerce ints, strings like '2/3', and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def norm_coeff(x):
    """A scalar as a stored coefficient: rationals as ``int`` when integral.

    Strings are parsed as rationals; ``int``, non-integral ``Fraction`` and
    other rings (such as :class:`NilpotentPair`) pass through unchanged.
    """
    if isinstance(x, str):
        x = rat(x)
    if type(x) is Fraction and x.denominator == 1:
        return x.numerator
    return x


class NilpotentPair:
    """Element a + b*s + c*u + d*s*u of Q[s,u]/(s^2, u^2)."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a=0, b=0, c=0, d=0):
        self.a = rat(a)
        self.b = rat(b)
        self.c = rat(c)
        self.d = rat(d)

    S: "NilpotentPair"
    U: "NilpotentPair"

    @classmethod
    def promote(cls, x) -> "NilpotentPair":
        if isinstance(x, NilpotentPair):
            return x
        return cls(rat(x))

    def __bool__(self):
        return bool(self.a or self.b or self.c or self.d)

    def __eq__(self, other):
        o = NilpotentPair.promote(other)
        return (self.a, self.b, self.c, self.d) == (o.a, o.b, o.c, o.d)

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def __add__(self, other):
        o = NilpotentPair.promote(other)
        return NilpotentPair(self.a + o.a, self.b + o.b, self.c + o.c, self.d + o.d)

    __radd__ = __add__

    def __neg__(self):
        return NilpotentPair(-self.a, -self.b, -self.c, -self.d)

    def __sub__(self, other):
        return self + (-NilpotentPair.promote(other))

    def __rsub__(self, other):
        return NilpotentPair.promote(other) + (-self)

    def __mul__(self, other):
        o = NilpotentPair.promote(other)
        return NilpotentPair(
            self.a * o.a,
            self.a * o.b + self.b * o.a,
            self.a * o.c + self.c * o.a,
            self.a * o.d + self.d * o.a + self.b * o.c + self.c * o.b,
        )

    __rmul__ = __mul__

    def is_unit(self) -> bool:
        return bool(self.a)

    def inverse(self) -> "NilpotentPair":
        if not self.a:
            raise ZeroDivisionError("NilpotentPair with zero body is not a unit")
        ia = 1 / self.a
        return NilpotentPair(
            ia,
            -self.b * ia * ia,
            -self.c * ia * ia,
            -self.d * ia * ia + 2 * self.b * self.c * ia * ia * ia,
        )

    def __truediv__(self, other):
        o = NilpotentPair.promote(other)
        return self * o.inverse()

    def __rtruediv__(self, other):
        return NilpotentPair.promote(other) * self.inverse()

    def __repr__(self):
        return f"NilpotentPair({self.a}, {self.b}, {self.c}, {self.d})"


NilpotentPair.S = NilpotentPair(0, 1, 0, 0)
NilpotentPair.U = NilpotentPair(0, 0, 1, 0)


def is_unit(x) -> bool:
    """True when x is invertible in its ring."""
    if isinstance(x, (int, Fraction)):
        return bool(x)
    return x.is_unit()


def scalar_inv(x):
    """The inverse of a unit of its ring."""
    if isinstance(x, (int, Fraction)):
        return Fraction(1) / x
    return x.inverse()
