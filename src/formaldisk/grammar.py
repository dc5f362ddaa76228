"""Shared textual grammar for jets, forms, vector fields, and states.

Grammar, shared with the CLI:

* rationals ``-?\\d+(/\\d+)?``; variables ``t1..tn``; powers ``^``;
  products ``*`` (or juxtaposition); sums ``+``/``-``;
* ``d<i>`` is the vector-field direction d/dt_i, ``dt<i>`` the 1-form
  generator, and ``^`` between ``dt`` factors is the wedge;
* states use ``b[<j>,<m>]``, ``c[<j>,<m>]``, ``vac`` for the vacuum.

Example: ``2/3*t1^2*t2 d1 + t2 d2``.

Every formatter below emits a canonical string (graded-lexicographic term
order) that re-parses to an equal value; the CLI relies on that round trip.

Jets are truncated at the given order as they are parsed.  A product or
power of nonzero jets (or of a jet and a vector field) that the truncation
makes zero is a :class:`ParseError` at its operator: over Q only truncation
can do that, and a check run on the lost value would pass vacuously.  So is
a variable ``t_i`` at jet order 0 (in a state, where the order is 0, a
variable is refused outright).  Form products are exempt, since
``dt1^dt1 = 0`` is genuine.  Errors inside an automorphism component point
into the full parenthesized text.  Parentheses nest at most
``MAX_NESTING`` deep; a deeper ``(`` is a :class:`ParseError` at it.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError, ShapeError
from .jets import FormalForm, FormalVectorField, JetAutomorphism, JetSeries
from .vertex import KIND_B, KIND_C, VAState, sym_key

# each level of parentheses costs the recursive descent five frames, so
# this keeps a parse far below the interpreter's recursion limit
MAX_NESTING = 100

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


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError("unrecognized input", text, pos)
        if m.lastgroup != "ws" and not m.group("ws"):
            kind = None
            for name in ("number", "dt", "dd", "tvar", "bc", "vac", "op"):
                if m.group(name):
                    kind = name
                    break
            tokens.append((kind, m, pos))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Val:
    """Parsed value: one of scalar | form | vf | state."""

    __slots__ = ("kind", "payload")

    def __init__(self, kind, payload):
        self.kind = kind
        self.payload = payload


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

    def promote(self, v, kind):
        if v.kind == kind:
            return v
        if v.kind == "scalar":
            if kind == "form":
                return _Val("form", FormalForm.from_jet(v.payload))
            if kind == "state":
                if self.policy is None:
                    self.error("state symbols are not allowed in this context")
                return _Val("state", self.jet_to_state(v.payload))
            if kind == "vf" and v.payload.is_zero():
                return _Val("vf", FormalVectorField.zero(self.n, self.order))
        self.error(f"expected a {kind}, found a {v.kind}")

    def jet_to_state(self, f):
        c = f.constant_term()
        if f != JetSeries.const(self.n, f.order, c):
            self.error("non-constant scalar cannot be a state")
        return VAState.vacuum(self.n, self.policy).scale(c)

    def add(self, a, b):
        if a.kind != b.kind:
            if "state" in (a.kind, b.kind):
                a = self.promote(a, "state")
                b = self.promote(b, "state")
            elif "form" in (a.kind, b.kind):
                a = self.promote(a, "form")
                b = self.promote(b, "form")
            elif "vf" in (a.kind, b.kind):
                a = self.promote(a, "vf")
                b = self.promote(b, "vf")
        try:
            return _Val(a.kind, a.payload + b.payload)
        except ShapeError as exc:
            self.error(str(exc))

    def check_truncation(self, factors, product, pos):
        """Nonzero jets multiply to zero only through truncation; a value
        lost that way would make every later check pass vacuously."""
        if product.is_zero() and not any(f.is_zero() for f in factors):
            self.error("product of nonzero factors is zero at jet order "
                       f"{self.order}; raise --jet-order", pos)

    def mul(self, a, b, pos):
        from .jets import wedge
        order = (a.kind, b.kind)
        if order == ("scalar", "scalar"):
            out = a.payload * b.payload
            self.check_truncation((a.payload, b.payload), out, pos)
            return _Val("scalar", out)
        if "scalar" in order:
            s, other = (a, b) if a.kind == "scalar" else (b, a)
            if other.kind == "form":
                return _Val("form", other.payload.scale_jet(s.payload))
            if other.kind == "vf":
                out = FormalVectorField(
                    self.n, self.order,
                    [f * s.payload for f in other.payload.comps])
                self.check_truncation((s.payload, other.payload), out, pos)
                return _Val("vf", out)
            if other.kind == "state":
                return _Val("state", self.scale_state(other.payload, s.payload))
        if order == ("form", "form"):
            return _Val("form", wedge(a.payload, b.payload))
        if order == ("state", "state"):
            return _Val("state", a.payload * b.payload)
        self.error(f"cannot multiply a {a.kind} by a {b.kind}")

    def scale_state(self, state, jet):
        c = jet.constant_term()
        if jet != JetSeries.const(self.n, self.order, c):
            self.error("non-constant scalar cannot scale a state")
        return state.scale(c)

    # -- grammar ---------------------------------------------------------------

    def parse_expr(self):
        val = self.parse_signed_term()
        while True:
            if self.accept_op("+"):
                val = self.add(val, self.parse_signed_term())
            elif self.accept_op("-"):
                val = self.add(val, self.negate(self.parse_signed_term()))
            else:
                return val

    def negate(self, v):
        return _Val(v.kind, -v.payload)

    def parse_signed_term(self):
        neg = False
        while True:
            if self.accept_op("-"):
                neg = not neg
            elif self.accept_op("+"):
                pass
            else:
                break
        val = self.parse_product()
        return self.negate(val) if neg else val

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
        from .jets import wedge
        base = self.parse_atom()
        while self.accept_op("^"):
            op_pos = self.tokens[self.i - 1][2]
            kind, m, pos = self.peek()
            if kind == "dt":
                if base.kind != "form":
                    self.error("wedge requires form factors", pos)
                nxt = self.parse_atom()
                base = _Val("form", wedge(base.payload, nxt.payload))
                continue
            if kind != "number" or "/" in m.group("number"):
                self.error("exponent must be a non-negative integer", pos)
            self.next()
            k = int(m.group("number"))
            if base.kind == "scalar":
                out = base.payload ** k
                self.check_truncation((base.payload,), out, op_pos)
                base = _Val("scalar", out)
            elif base.kind == "form":
                if k == 0:
                    base = _Val("scalar", JetSeries.one(self.n, self.order))
                else:
                    acc = base
                    for _ in range(k - 1):
                        acc = _Val("form", wedge(acc.payload, base.payload))
                    base = acc
            elif base.kind == "state":
                acc = VAState.vacuum(self.n, self.policy)
                for _ in range(k):
                    acc = acc * base.payload
                base = _Val("state", acc)
            else:
                self.error("cannot exponentiate a vector field", pos)
        return base

    def parse_atom(self):
        kind, m, pos = self.next()
        if kind == "number":
            try:
                value = Fraction(m.group("number"))
            except ZeroDivisionError:
                self.error("zero denominator", pos)
            return _Val("scalar", JetSeries.const(self.n, self.order, value))
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
            return _Val("scalar", JetSeries.variable(self.n, self.order, i))
        if kind == "dt":
            i = int(m.group("dti"))
            if not 1 <= i <= self.n:
                self.error(f"dt{i} out of range for rank {self.n}", pos)
            return _Val("form", FormalForm.dt(self.n, self.order, i))
        if kind == "dd":
            i = int(m.group("ddi"))
            if not 1 <= i <= self.n:
                self.error(f"direction d{i} out of range for rank {self.n}", pos)
            comps = [JetSeries.zero(self.n, self.order) for _ in range(self.n)]
            comps[i - 1] = JetSeries.one(self.n, self.order)
            return _Val("vf", FormalVectorField(self.n, self.order, comps))
        if kind == "bc":
            if self.policy is None:
                self.error("state symbols are not allowed in this context", pos)
            sym_kind = KIND_B if m.group("bc").startswith("b") else KIND_C
            j, mm = int(m.group("bcj")), int(m.group("bcm"))
            if not 1 <= j <= self.n:
                self.error(f"generator index {j} out of range", pos)
            try:
                return _Val("state", VAState.generator(
                    self.n, self.policy, sym_kind, j, mm))
            except ShapeError as exc:
                self.error(str(exc), pos)
        if kind == "vac":
            if self.policy is None:
                self.error("state symbols are not allowed in this context", pos)
            return _Val("state", VAState.vacuum(self.n, self.policy))
        if kind == "op" and m.group("op") == "(":
            if self.depth == MAX_NESTING:
                self.error(f"parentheses nested deeper than {MAX_NESTING}",
                           pos)
            self.depth += 1
            val = self.parse_expr()
            if not self.accept_op(")"):
                self.error("expected ')'")
            self.depth -= 1
            return val
        self.error("expected a value", pos)

    def parse_complete(self):
        val = self.parse_expr()
        kind, _, pos = self.peek()
        if kind != "end":
            self.error("trailing input", pos)
        return val


def parse_value(text, n, order=None, policy=None):
    """Parse to whichever of scalar/form/vector-field/state the text denotes."""
    p = _Parser(text, n, order=order, policy=policy)
    return p.parse_complete()


def parse_scalar(text, n, order) -> JetSeries:
    v = parse_value(text, n, order=order)
    if v.kind != "scalar":
        raise ParseError(f"expected a scalar expression, got a {v.kind}", text, 0)
    return v.payload


def parse_vector_field(text, n, order) -> FormalVectorField:
    v = parse_value(text, n, order=order)
    if v.kind == "scalar" and v.payload.is_zero():
        return FormalVectorField.zero(n, order)
    if v.kind != "vf":
        raise ParseError(f"expected a vector field, got a {v.kind}", text, 0)
    return v.payload


def parse_form(text, n, order) -> FormalForm:
    v = parse_value(text, n, order=order)
    if v.kind == "scalar":
        return FormalForm.from_jet(v.payload)
    if v.kind != "form":
        raise ParseError(f"expected a form, got a {v.kind}", text, 0)
    return v.payload


def parse_state(text, n, policy) -> VAState:
    v = parse_value(text, n, order=0, policy=policy)
    if v.kind == "scalar":
        p = _Parser(text, n, order=0, policy=policy)
        return p.jet_to_state(v.payload)
    if v.kind != "state":
        raise ParseError(f"expected a state, got a {v.kind}", text, 0)
    return v.payload


def parse_automorphism(text, n, order) -> JetAutomorphism:
    """Comma-separated component list, e.g. ``(t1+t2^2, t2)``."""
    s = text.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise ParseError("automorphism must be parenthesized components", text, 0)
    body = s[1:-1]
    parts = []
    depth = 0
    start = 0
    for i, ch in enumerate(body):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append((start, body[start:i]))
            start = i + 1
    parts.append((start, body[start:]))
    if len(parts) != n:
        raise ParseError(f"expected {n} components, got {len(parts)}", text, 0)
    # a component's errors point into the full text: past the leading
    # blanks, the "(" and the components before it
    body_pos = len(text) - len(text.lstrip()) + 1
    comps = []
    for start, part in parts:
        try:
            comps.append(parse_scalar(part, n, order))
        except ParseError as exc:
            raise ParseError(exc.args[0], text,
                             body_pos + start + exc.pos) from None
    return JetAutomorphism(n, order, comps)


# -- canonical formatting -----------------------------------------------------


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
            txt = body if mag == 1 else f"{mag}*{body}"
        else:
            txt = str(mag)
        if idx == 0:
            chunks.append(f"-{txt}" if neg else txt)
        else:
            chunks.append(f" - {txt}" if neg else f" + {txt}")
    return "".join(chunks)


def _mono_str(e):
    parts = []
    for i, k in enumerate(e):
        if k == 0:
            continue
        parts.append(f"t{i + 1}" if k == 1 else f"t{i + 1}^{k}")
    return "*".join(parts)


def format_jet(f: JetSeries) -> str:
    terms = []
    for e in sorted(f.coeffs, key=lambda e: (sum(e), e)):
        terms.append((f.coeffs[e], _mono_str(e)))
    return _format_terms(terms)


def format_form(w: FormalForm) -> str:
    if w.degree == 0:
        return format_jet(w.component(()))
    terms = []
    for idx in sorted(w.comps):
        dts = "^".join(f"dt{i}" for i in idx)
        f = w.comps[idx]
        for e in sorted(f.coeffs, key=lambda e: (sum(e), e)):
            mono = _mono_str(e)
            body = f"{mono}*{dts}" if mono else dts
            terms.append((f.coeffs[e], body))
    return _format_terms(terms)


def format_vf(x: FormalVectorField) -> str:
    terms = []
    for j in range(1, x.n + 1):
        f = x.comps[j - 1]
        for e in sorted(f.coeffs, key=lambda e: (sum(e), e)):
            mono = _mono_str(e)
            body = f"{mono} d{j}" if mono else f"d{j}"
            terms.append((f.coeffs[e], body))
    return _format_terms(terms)


def format_state(v: VAState) -> str:
    def mono_key(mo):
        return (sum(-s[2] for s in mo), len(mo), tuple(sym_key(s) for s in mo))

    by_mono = v.mono_terms()
    terms = []
    for mono in sorted(by_mono, key=mono_key):
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
