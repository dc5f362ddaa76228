"""Textual grammar for jets, forms, vector fields, states and automorphism
jets, shared with the CLI:

* rationals ``-?\\d+(/\\d+)?``; variables ``t1..tn``; powers ``^``;
  products ``*`` (or juxtaposition); sums ``+``/``-``;
* ``d<i>`` is the vector-field direction d/dt_i, ``dt<i>`` the 1-form
  generator, and ``^`` between ``dt`` factors is the wedge;
* states use ``b[<j>,<m>]``, ``c[<j>,<m>]``, ``vac`` for the vacuum;
* an automorphism jet is ``(e1, ..., en)``, n scalar components.

Example: ``2/3*t1^2*t2 d1 + t2 d2``.

The parser builds the package's own values, a :class:`JetSeries` for a
scalar.  Where a sum or an entry point needs another kind, a scalar becomes
a form, a constant scalar a state, and zero a vector field.

Every formatter below emits a canonical string (graded-lexicographic term
order) that re-parses to an equal value; the CLI relies on that round trip.

Jets are truncated at the given order as they are parsed.  A product or
power of nonzero jets (or of a jet and a vector field) that the truncation
makes zero is a :class:`ParseError` at its operator: over Q only truncation
can do that, and a check run on the lost value would pass vacuously.  So is
a variable ``t_i`` at jet order 0 (in a state, where the order is 0, a
variable is refused outright).  Form products are exempt, since
``dt1^dt1 = 0`` is genuine.  Parentheses, the automorphism's own included,
nest at most ``MAX_NESTING`` deep; a deeper ``(`` is a :class:`ParseError`
at it.  A power whose constant term would take more than
``MAX_POWER_BITS`` bits is one too, at the exponent; the bound holds for
chained and nested powers alike, since each is checked on the value built.
Any other power takes at most as many products as the nilpotency index of
its base less the constant term, however large the exponent.
"""

from __future__ import annotations

import operator
import re
import sys
from fractions import Fraction

from .errors import FormalDiskError, ParseError, ShapeError
from .jets import (FormalForm, FormalVectorField, JetAutomorphism, JetSeries,
                   wedge)
from .vertex import KIND_B, KIND_C, VAState, print_key

# each level of parentheses costs the recursive descent six frames, so
# this keeps a parse far below the interpreter's recursion limit
MAX_NESTING = 100
# c^k for a rational c other than 0 and +-1 has a numerator or denominator
# of at least k bits, so 2^3000000000, or 2^1000^1000^1000, would take
# minutes and gigabytes; a constant term of 0 or +-1 keeps a power's
# coefficients polynomial in k.  2^10000 has 3,011 digits, below the
# interpreter's limit of 4,300 for converting an int to a string.
MAX_POWER_BITS = 10000

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<number>\d+(?:/\d+)?)
  | (?P<dt>dt(?P<dti>\d+))
  | (?P<dd>d(?P<ddi>\d+))
  | (?P<tvar>t(?P<ti>\d+))
  | (?P<bc>[bc]\[\s*(?P<bcj>-?\d+)\s*,\s*(?P<bcm>-?\d+)\s*\])
  | (?P<vac>vac)
  | (?P<op>[-+*^(),])
""", re.VERBOSE)

_DIGITS_RE = re.compile(r"\d+")

# the kind of each value, as diagnostics name it
_KIND = {JetSeries: "scalar", FormalForm: "form", FormalVectorField: "vf",
         VAState: "state"}


def _tokenize(text):
    tokens = []
    pos = 0
    limit = sys.get_int_max_str_digits()
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError("unrecognized input", text, pos)
        if m.lastgroup != "ws":
            if limit and m.end() - pos > limit:
                for run in _DIGITS_RE.finditer(text, pos, m.end()):
                    if len(run.group()) > limit:
                        raise ParseError(f"number longer than {limit} digits",
                                         text, run.start())
            tokens.append((m.lastgroup, m, pos))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


def _constant(x):
    """A jet's constant term, a form's degree-0 one, a state's vacuum
    coefficient."""
    if isinstance(x, VAState):
        return x.coefficient(())
    if isinstance(x, FormalForm):
        x = x.component(())
    return x.constant_term()


class _Parser:
    def __init__(self, text, n, order=None, policy=None):
        self.text = text
        self.n = n
        self.order = order
        self.policy = policy
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def error(self, msg, pos=None):
        if pos is None:
            pos = self.tokens[self.i][2]
        raise ParseError(msg, self.text, pos)

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def accept_op(self, op):
        kind, m, _ = self.peek()
        if kind == "op" and m.group("op") == op:
            self.i += 1
            return True
        return False

    # -- value helpers --------------------------------------------------------

    def promote(self, v, cls, expected=None, pos=None):
        """``v`` as a ``cls``: a scalar becomes a form, a constant scalar a
        state, zero a vector field.  Anything else is an error, which an
        entry point words as ``expected``."""
        if isinstance(v, cls):
            return v
        if isinstance(v, JetSeries):
            if cls is FormalForm:
                return FormalForm.from_jet(v)
            if cls is VAState:
                c = v.constant_term()
                if v != JetSeries.const(self.n, v.order, c):
                    self.error("non-constant scalar cannot be a state", pos)
                return VAState.vacuum(self.n, self.policy).scale(c)
            if cls is FormalVectorField and v.is_zero():
                return FormalVectorField.zero(self.n, self.order)
        found = _KIND[type(v)]
        self.error(f"{expected}, got a {found}" if expected else
                   f"expected a {_KIND[cls]}, found a {found}", pos)

    def add(self, a, b):
        if type(a) is not type(b):
            # the sum is a state if a term is, else a form, else a field
            cls = next(c for c in (VAState, FormalForm, FormalVectorField)
                       if c in (type(a), type(b)))
            a, b = self.promote(a, cls), self.promote(b, cls)
        try:
            return a + b
        except ShapeError as exc:
            self.error(str(exc))

    def check_truncation(self, factors, product, pos):
        """Nonzero jets multiply to zero only through truncation; a value
        lost that way would make every later check pass vacuously."""
        if product.is_zero() and not any(f.is_zero() for f in factors):
            self.error("product of nonzero factors is zero at jet order "
                       f"{self.order}; raise --jet-order", pos)

    def mul(self, a, b, pos):
        if isinstance(b, JetSeries) and not isinstance(a, JetSeries):
            a, b = b, a  # a scalar factor commutes with every value
        if isinstance(a, JetSeries):
            if isinstance(b, JetSeries):
                out = a * b
            elif isinstance(b, FormalVectorField):
                out = FormalVectorField(self.n, self.order,
                                        [f * a for f in b.comps])
            else:
                return self.mul(self.promote(a, type(b)), b, pos)
            self.check_truncation((a, b), out, pos)
            return out
        if isinstance(a, FormalForm) and isinstance(b, FormalForm):
            return wedge(a, b)
        if isinstance(a, VAState) and isinstance(b, VAState):
            return a * b
        self.error(f"cannot multiply a {_KIND[type(a)]} by a "
                   f"{_KIND[type(b)]}")

    def power(self, x, k, op_pos, pos):
        if isinstance(x, FormalVectorField):
            self.error("cannot exponentiate a vector field", pos)
        # c^k for c = p/q has at most k * ceil(log2 max(|p|, q)) + 1 bits
        c = _constant(x)
        if k * (max(abs(c.numerator), c.denominator) - 1).bit_length() > \
                MAX_POWER_BITS:
            self.error("power would build a rational of more than "
                       f"{MAX_POWER_BITS} bits", pos)
        if not k:
            if isinstance(x, VAState):
                return VAState.vacuum(self.n, self.policy)
            return JetSeries.one(self.n, self.order)
        mul = wedge if isinstance(x, FormalForm) else operator.mul
        if not c:
            # x is nilpotent: once a partial power is zero, so is x^k
            out = x
            for _ in range(k - 1):
                out = mul(out, x)
                if out.is_zero():
                    break
        else:
            # x = c + y with y nilpotent, so x^k is the sum of
            # binom(k, j) c^(k-j) y^j over the j <= k with y^j nonzero:
            # as many products as y's nilpotency index, whatever k is.  A
            # state's y is nilpotent since each symbol adds to the weight or
            # the c0-degree; y^j goes factor by factor, so a power past the
            # policy names the first monomial past it
            y = self.add(x, JetSeries.const(self.n, self.order, -c))
            out = JetSeries.const(self.n, self.order, c ** k)
            yj, binom = None, 1
            for j in range(1, k + 1):
                yj = y if yj is None else mul(yj, y)
                if yj.is_zero():
                    break
                binom = binom * (k - j + 1) // j
                out = self.add(out, yj.scale(binom * c ** (k - j)))
            out = self.promote(out, type(x))
        if isinstance(x, JetSeries):
            self.check_truncation((x,), out, op_pos)
        return out

    # -- grammar ---------------------------------------------------------------

    def parse_expr(self):
        val = self.parse_signed_term()
        while True:
            if self.accept_op("+"):
                val = self.add(val, self.parse_signed_term())
            elif self.accept_op("-"):
                val = self.add(val, -self.parse_signed_term())
            else:
                return val

    def parse_signed_term(self):
        neg = False
        while True:
            if self.accept_op("-"):
                neg = not neg
            elif not self.accept_op("+"):
                break
        val = self.parse_product()
        return -val if neg else val

    _ATOM_STARTS = {"number", "dt", "dd", "tvar", "bc", "vac"}

    def parse_product(self):
        val = self.parse_power()
        while True:
            # the "*", or the next factor when the product is juxtaposed
            kind, m, pos = self.peek()
            if self.accept_op("*") or kind in self._ATOM_STARTS or \
                    (kind == "op" and m.group("op") == "("):
                val = self.mul(val, self.parse_power(), pos)
                continue
            return val

    def parse_power(self):
        base = self.parse_atom()
        while self.accept_op("^"):
            op_pos = self.tokens[self.i - 1][2]
            kind, m, pos = self.peek()
            if kind == "dt":
                if not isinstance(base, FormalForm):
                    self.error("wedge requires form factors", pos)
                base = wedge(base, self.parse_atom())
                continue
            if kind != "number" or "/" in m.group("number"):
                self.error("exponent must be a non-negative integer", pos)
            self.next()
            base = self.power(base, int(m.group("number")), op_pos, pos)
        return base

    def parse_atom(self):
        kind, m, pos = self.next()
        if kind == "number":
            try:
                value = Fraction(m.group("number"))
            except ZeroDivisionError:
                self.error("zero denominator", pos)
            return JetSeries.const(self.n, self.order, value)
        if kind == "tvar":
            i = int(m.group("ti"))
            if not 1 <= i <= self.n:
                self.error(f"variable t{i} out of range for rank {self.n}", pos)
            if self.order < 1:
                # t_i is zero at order 0, and a check on the lost value
                # would pass vacuously
                if self.policy is not None:
                    self.error(f"variable t{i} cannot appear in a state", pos)
                self.error(f"variable t{i} is zero at jet order {self.order}; "
                           "raise --jet-order", pos)
            return JetSeries.variable(self.n, self.order, i)
        if kind == "dt":
            i = int(m.group("dti"))
            if not 1 <= i <= self.n:
                self.error(f"dt{i} out of range for rank {self.n}", pos)
            return FormalForm.dt(self.n, self.order, i)
        if kind == "dd":
            i = int(m.group("ddi"))
            if not 1 <= i <= self.n:
                self.error(f"direction d{i} out of range for rank {self.n}", pos)
            return FormalVectorField.monomial(self.n, self.order,
                                              (0,) * self.n, i)
        if kind in ("bc", "vac") and self.policy is None:
            self.error("state symbols are not allowed in this context", pos)
        if kind == "bc":
            sym_kind = KIND_B if m.group("bc").startswith("b") else KIND_C
            j, mm = int(m.group("bcj")), int(m.group("bcm"))
            if not 1 <= j <= self.n:
                self.error(f"generator index {j} out of range", pos)
            try:
                return VAState.generator(self.n, self.policy, sym_kind, j, mm)
            except ShapeError as exc:
                self.error(str(exc), pos)
        if kind == "vac":
            return VAState.vacuum(self.n, self.policy)
        if kind == "op" and m.group("op") == "(":
            return self.parse_group(pos)[0]
        self.error("expected a value", pos)

    def parse_group(self, pos, cls=None):
        """The values between the ``(`` at ``pos`` and its ``)``: one, or
        given ``cls`` as many as commas separate, each made a ``cls``."""
        if self.depth == MAX_NESTING:
            self.error(f"parentheses nested deeper than {MAX_NESTING}", pos)
        self.depth += 1
        vals = [self.parse_expr()]
        if cls is not None:
            vals = [self.promote(vals[0], cls)]
            while self.accept_op(","):
                vals.append(self.promote(self.parse_expr(), cls))
        if not self.accept_op(")"):
            self.error("expected ')'")
        self.depth -= 1
        return vals

    def end(self, val):
        """``val``, once the whole text is read."""
        kind, _, pos = self.peek()
        if kind != "end":
            self.error("trailing input", pos)
        return val


def parse_value(text, n, order=None, policy=None):
    """Parse to whichever of scalar/form/vector-field/state the text denotes."""
    p = _Parser(text, n, order=order, policy=policy)
    return p.end(p.parse_expr())


def _parse_as(cls, expected, text, n, order, policy=None):
    p = _Parser(text, n, order=order, policy=policy)
    return p.promote(p.end(p.parse_expr()), cls, expected, 0)


def parse_scalar(text, n, order) -> JetSeries:
    return _parse_as(JetSeries, "expected a scalar expression", text, n, order)


def parse_vector_field(text, n, order) -> FormalVectorField:
    return _parse_as(FormalVectorField, "expected a vector field", text, n,
                     order)


def parse_form(text, n, order) -> FormalForm:
    return _parse_as(FormalForm, "expected a form", text, n, order)


def parse_state(text, n, policy) -> VAState:
    return _parse_as(VAState, "expected a state", text, n, 0, policy)


def parse_automorphism(text, n, order) -> JetAutomorphism:
    """Comma-separated component list, e.g. ``(t1+t2^2, t2)``."""
    p = _Parser(text, n, order=order)
    pos = p.peek()[2]
    if not p.accept_op("("):
        p.error("automorphism must be parenthesized components", 0)
    comps = p.end(p.parse_group(pos, JetSeries))
    if len(comps) != n:
        p.error(f"expected {n} components, got {len(comps)}", 0)
    return JetAutomorphism(n, order, comps)


# -- canonical formatting -----------------------------------------------------


def format_rational(x) -> str:
    """``str(x)``, or a :class:`FormalDiskError` where the interpreter
    refuses to convert an integer that long."""
    try:
        return str(x)
    except ValueError:
        raise FormalDiskError(
            "coefficient too long to print: more than "
            f"{sys.get_int_max_str_digits()} digits") from None


def _format_terms(terms):
    """terms: list of (coefficient, body-string); canonical +/- joining."""
    if not terms:
        return "0"
    chunks = []
    for idx, (coef, body) in enumerate(terms):
        if isinstance(coef, (int, Fraction)):
            mag, neg = abs(coef), coef < 0
        else:  # a jet coefficient has no sign
            mag, neg = f"({coef!r})", False
        if body:
            txt = body if mag == 1 else f"{format_rational(mag)}*{body}"
        else:
            txt = format_rational(mag)
        if idx == 0:
            chunks.append(f"-{txt}" if neg else txt)
        else:
            chunks.append(f" - {txt}" if neg else f" + {txt}")
    return "".join(chunks)


def _jet_terms(f, tail="", sep=""):
    """(coefficient, body) of each term of the jet f in graded-lex order;
    a body is the monomial, then ``sep`` and ``tail`` when both are
    nonempty."""
    terms = []
    for e in sorted(f.coeffs, key=lambda e: (sum(e), e)):
        mono = "*".join(f"t{i}" if k == 1 else f"t{i}^{k}"
                        for i, k in enumerate(e, 1) if k)
        if mono and tail:
            mono = f"{mono}{sep}{tail}"
        terms.append((f.coeffs[e], mono or tail))
    return terms


def format_jet(f: JetSeries) -> str:
    return _format_terms(_jet_terms(f))


def format_form(w: FormalForm) -> str:
    terms = []
    for idx in sorted(w.comps):
        dts = "^".join(f"dt{i}" for i in idx)
        terms += _jet_terms(w.comps[idx], dts, "*")
    return _format_terms(terms)


def format_vf(x: FormalVectorField) -> str:
    terms = []
    for j, f in enumerate(x.comps, 1):
        terms += _jet_terms(f, f"d{j}", " ")
    return _format_terms(terms)


def format_state(v: VAState) -> str:
    by_mono = v.mono_terms()
    terms = []
    for mono in sorted(by_mono, key=print_key):
        if not mono:
            body = "vac"
        else:
            parts = []
            for kind, j, m in mono:
                letter = "b" if kind == KIND_B else "c"
                parts.append(f"{letter}[{j},{m}]")
            body = "*".join(parts)
        terms.append((by_mono[mono], body))
    return _format_terms(terms)


def format_automorphism(phi: JetAutomorphism) -> str:
    return "(" + ", ".join(format_jet(f) for f in phi.comps) + ")"
