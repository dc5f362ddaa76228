"""Scalars for jet and state coefficients.

The coefficient ring is Q, stored as ``int`` when integral and as
``fractions.Fraction`` otherwise; :func:`norm_coeff` is the one place that
normalises a rational to that form, for jets and states alike.  The only
other coefficients are jets themselves (the root jets of the q-series and
the jets in two parameters of the van Est derivative): jet arithmetic only
uses ``+``, ``-``, ``*``, inverses of units and truthiness, so a jet can
sit in a coefficient slot.

Units and inverses of jets are their methods (``is_unit()`` and
``inverse()``); :func:`is_unit` and :func:`scalar_inv` handle the
rationals and defer to those methods for a jet, and :func:`one_of` builds
a jet's one from the ring of its coefficients.
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
    jets pass through unchanged.
    """
    if isinstance(x, str):
        x = rat(x)
    if type(x) is Fraction and x.denominator == 1:
        return x.numerator
    return x


def is_unit(x) -> bool:
    """True when x is invertible in its ring."""
    if isinstance(x, (int, Fraction)):
        return bool(x)
    return x.is_unit()


def one_of(x):
    """The one of x's ring: for a jet, the constant jet whose coefficient
    is the one of the ring of x's constant term."""
    if isinstance(x, (int, Fraction)):
        return x * 0 + 1
    return type(x).const(x.n, x.order, one_of(x.constant_term()))


def scalar_inv(x):
    """The inverse of a unit of its ring."""
    if isinstance(x, (int, Fraction)):
        return Fraction(1) / x
    return x.inverse()
