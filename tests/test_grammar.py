"""Shared expression grammar: parsing, canonical printing, diagnostics."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from formaldisk.errors import ParseError, TruncationOverflowError
from formaldisk.grammar import (MAX_NESTING, MAX_POWER_BITS,
                                format_automorphism, format_form, format_jet,
                                format_state, format_vf, parse_automorphism,
                                parse_form, parse_scalar, parse_state,
                                parse_vector_field)
from formaldisk.jets import (FormalForm, FormalVectorField, JetAutomorphism,
                             JetSeries)
from formaldisk.vertex import KIND_B, KIND_C, TruncationPolicy, VAState

POL = TruncationPolicy(10, 10)


class TestScalars:
    def test_rationals_and_powers(self):
        f = parse_scalar("2/3*t1^2*t2 - 1", 2, 4)
        expected = JetSeries.monomial(2, 4, (2, 1), F(2, 3)) - \
            JetSeries.one(2, 4)
        assert f == expected

    def test_parentheses(self):
        f = parse_scalar("(1+t1)*(1-t1)", 1, 4)
        t = JetSeries.variable(1, 4, 1)
        assert f == JetSeries.one(1, 4) - t * t

    def test_roundtrip(self):
        for text in ("0", "1", "-2/3", "t1^3 - 2*t1*t2 + 5"):
            f = parse_scalar(text, 2, 5)
            assert parse_scalar(format_jet(f), 2, 5) == f

    def test_repr_of_other_coefficient_rings(self):
        s, u = JetSeries.variable(2, 2, 1), JetSeries.variable(2, 2, 2)
        su = JetSeries(1, 2, {(0,): u + 1, (1,): s.scale(F(-1, 2))})
        assert repr(su) == ("JetSeries(1,2; (JetSeries(2,2; 1 + t2)) "
                            "+ (JetSeries(2,2; -1/2*t1))*t1)")
        root = JetSeries(1, 1, {(1,): JetSeries.variable(2, 1, 2, 1) - 1})
        assert repr(root) == "JetSeries(1,1; (JetSeries(2,1; -1 + t2))*t1)"
        rational = JetSeries(2, 2, {(0, 0): -1, (1, 1): F(-2, 3), (0, 1): 1})
        assert repr(rational) == "JetSeries(2,2; -1 + t2 - 2/3*t1*t2)"


class TestVectorFields:
    def test_spec_example(self):
        x = parse_vector_field("2/3*t1^2*t2 d1 + t2 d2", 2, 4)
        assert x.comps[0] == JetSeries.monomial(2, 4, (2, 1), F(2, 3))
        assert x.comps[1] == JetSeries.variable(2, 4, 2)

    def test_roundtrip(self):
        for text in ("d1", "t1*t2 d1 - t2^2 d2", "2/3*t1^2*t2 d1 + t2 d2"):
            x = parse_vector_field(text, 2, 4)
            assert parse_vector_field(format_vf(x), 2, 4) == x

    def test_zero(self):
        assert parse_vector_field("0", 2, 4).is_zero()


class TestForms:
    def test_wedge_parsing(self):
        w = parse_form("dt1^dt2 - t1*dt1^dt2", 2, 4)
        one = JetSeries.one(2, 4)
        t1 = JetSeries.variable(2, 4, 1)
        assert w == FormalForm(2, 4, 2, {(1, 2): one - t1})

    def test_one_forms(self):
        w = parse_form("t2 dt1 + t1 dt2", 2, 4)
        assert w.component((1,)) == JetSeries.variable(2, 4, 2)

    def test_antisymmetry_normalization(self):
        assert parse_form("dt2^dt1", 2, 4) == parse_form("-dt1^dt2", 2, 4)
        assert parse_form("dt1^dt1", 2, 4).is_zero()
        # a vanishing wedge is not truncation and is accepted
        assert parse_form("dt1*dt1", 2, 4).is_zero()
        assert parse_form("t1^4*dt1^dt1", 2, 4).is_zero()

    def test_roundtrip(self):
        for text in ("dt1", "t1*dt2 - 3*dt1", "dt1^dt2", "2*t2*dt1^dt2"):
            w = parse_form(text, 2, 4)
            assert parse_form(format_form(w), 2, 4) == w


class TestStates:
    def test_generators_and_products(self):
        v = parse_state("c[1,0]*b[1,-1]", 1, POL)
        assert v == VAState.generator(1, POL, KIND_C, 1, 0) * \
            VAState.generator(1, POL, KIND_B, 1, -1)

    def test_vacuum_and_sums(self):
        v = parse_state("2*vac + c[1,0] - b[1,-1]", 1, POL)
        assert v.coefficient(()) == 2
        assert v.coefficient([(KIND_C, 1, 0)]) == 1
        assert v.coefficient([(KIND_B, 1, -1)]) == -1
        # an absent monomial reads 0, an int like every integral coefficient
        absent = v.coefficient([(KIND_B, 1, -1), (KIND_C, 1, 0)])
        assert absent == 0 and type(absent) is int

    def test_mode_range_enforced(self):
        with pytest.raises(ParseError):
            parse_state("b[1,0]", 1, POL)
        with pytest.raises(ParseError):
            parse_state("c[1,1]", 1, POL)

    def test_roundtrip(self, rng):
        from tests.conftest import random_state
        for _ in range(25):
            n = rng.choice([1, 2])
            v = random_state(rng, n, POL, terms=3)
            assert parse_state(format_state(v), n, POL) == v


class TestAutomorphisms:
    def test_spec_example(self):
        phi = parse_automorphism("(t1+t2^2, t2)", 2, 4)
        t1 = JetSeries.variable(2, 4, 1)
        t2 = JetSeries.variable(2, 4, 2)
        assert phi == JetAutomorphism(2, 4, [t1 + t2 * t2, t2])

    def test_roundtrip(self, rng):
        from tests.conftest import random_unipotent
        for n in (1, 2, 3):
            phi = random_unipotent(rng, n, 4)
            assert parse_automorphism(format_automorphism(phi), n, 4) == phi

    def test_component_count(self):
        with pytest.raises(ParseError):
            parse_automorphism("(t1, t2)", 3, 4)

    @pytest.mark.parametrize("text, message, pos", [
        # the whole text is tokenized before its parentheses are read
        ("(t1, t2)x", "unrecognized input", 8),
        ("(t1, t2", "expected ')'", 7),
        ("(t1 d1, t2)", "expected a scalar, found a vf", 6),
        ("(t1, t2) + t1", "trailing input", 9),
        ("t1, t2", "automorphism must be parenthesized components", 0),
        ("(t1, t2, t1)", "expected 2 components, got 3", 0),
    ])
    def test_errors(self, text, message, pos):
        with pytest.raises(ParseError) as info:
            parse_automorphism(text, 2, 4)
        assert (info.value.args[0], info.value.pos) == (message, pos)

    def test_nesting_limit_counts_the_outer_parenthesis(self):
        inner = "(" * (MAX_NESTING - 1) + "t1" + ")" * (MAX_NESTING - 1)
        assert parse_automorphism(f"({inner})", 1, 4) == \
            JetAutomorphism(1, 4, [JetSeries.variable(1, 4, 1)])
        with pytest.raises(ParseError, match="nested deeper") as info:
            parse_automorphism(f"(({inner}))", 1, 4)
        assert info.value.pos == MAX_NESTING


class TestPowers:
    def test_form_powers(self):
        w = "(dt1^dt2 + dt3^dt4)"
        assert parse_form(w + "^2", 4, 2) == \
            parse_form("2*dt1^dt2^dt3^dt4", 4, 2)
        assert parse_form(w + "^3", 4, 2).is_zero()
        assert parse_form("(t1*dt1)^0", 1, 2) == \
            FormalForm.from_jet(JetSeries.one(1, 2))
        # 2^k over forms stops at the power bound, as over scalars
        assert parse_form(f"(2 + 0*dt1)^{MAX_POWER_BITS}", 1, 0) == \
            FormalForm.from_jet(JetSeries.const(1, 0, 2 ** MAX_POWER_BITS))

    def test_large_exponent_of_a_settled_base(self):
        # a million, not billions: a parser that takes k products still
        # ends here, and the CLI tests time the billions in a subprocess
        k = 10 ** 6
        assert parse_form(f"dt1^{k}", 2, 2).is_zero()
        assert parse_state(f"vac^{k}", 1, POL) == VAState.vacuum(1, POL)
        assert parse_state(f"(-vac)^{k + 1}", 1, POL) == \
            -VAState.vacuum(1, POL)
        # a constant term of 1 keeps the coefficients binomial in k
        k = 3 * 10 ** 9
        t = JetSeries.variable(1, 2, 1)
        assert parse_scalar(f"(1 + t1)^{k}", 1, 2) == \
            JetSeries.one(1, 2) + t.scale(k) + (t * t).scale(k * (k - 1) // 2)

    @pytest.mark.parametrize("parse, text, k", [
        # k is the largest exponent within the bound; 3 costs two bits
        (parse_scalar, "2^{}", MAX_POWER_BITS),
        (parse_scalar, "(1/2 + t1)^{}", MAX_POWER_BITS),
        (parse_form, "(-3 + 0*dt1)^{}", MAX_POWER_BITS // 2),
        (parse_vector_field, "2^{} d1", MAX_POWER_BITS),
        (lambda text, n, order: parse_state(text, n, POL), "(2*vac)^{}",
         MAX_POWER_BITS),
        # chained and nested powers are bounded by the value they build
        (parse_vector_field, "2^100^{} d1", MAX_POWER_BITS // 100),
        (parse_scalar, "((2 + t1)^100)^{}", MAX_POWER_BITS // 100),
        (lambda text, n, order: parse_state(text, n, POL),
         "((2*vac)^100)^{}", MAX_POWER_BITS // 100)])
    def test_power_bound(self, parse, text, k):
        parse(text.format(k), 1, 2)
        text = text.format(k + 1)
        with pytest.raises(ParseError, match="more than 10000 bits") as info:
            parse(text, 1, 2)
        assert info.value.pos == text.rindex(str(k + 1))

    @pytest.mark.parametrize("parse, text, pos", [
        (parse_vector_field, "2^1000^1000^1000 d1", 7),
        (parse_vector_field, "((2^1000)^1000)^1000 d1", 10),
        (lambda text, n, order: parse_state(text, n, POL),
         "((2*vac)^1000)^1000", 15)])
    def test_tower_of_powers_stops_at_the_first_step_past_the_bound(
            self, parse, text, pos):
        with pytest.raises(ParseError, match="more than 10000 bits") as info:
            parse(text, 1, 2)
        assert info.value.pos == pos

    def test_state_power_past_the_policy_names_the_first_monomial(self):
        # taken factor by factor, b^33 fails at b^9 under weight <= 8
        pol = TruncationPolicy(8, 10)
        with pytest.raises(TruncationOverflowError) as info:
            parse_state("b[1,-1]^33", 1, pol)
        assert str(info.value) == \
            f"monomial exceeds policy: {((KIND_B, 1, -1),) * 9}"
        assert parse_state("b[1,-1]^8", 1, pol) == \
            VAState(1, pol, {((KIND_B, 1, -1),) * 8: 1})


class TestDiagnostics:
    def test_caret_position(self):
        try:
            parse_scalar("t1 + % + t2", 2, 4)
        except ParseError as exc:
            diag = exc.caret_diagnostic()
            line, caret = diag.splitlines()
            assert line == "t1 + % + t2"
            assert caret.index("^") == line.index("%")
        else:
            raise AssertionError("expected a parse error")

    def test_truncation_to_zero_points_at_operator(self):
        # (parser, text, caret position); juxtaposition points at the factor
        for parse, text, pos in ((parse_scalar, "t1^5", 2),
                                 (parse_scalar, "t1^3*t2^2", 4),
                                 (parse_vector_field, "t1^3 t2^2 d1", 5),
                                 (parse_vector_field, "(t1^2 d2)*t2^3", 9)):
            with pytest.raises(ParseError, match="jet order 4") as info:
                parse(text, 2, 4)
            assert info.value.pos == pos, text
        # sums that cancel and zero factors are not truncation
        assert parse_scalar("t1^2 - t1^2", 2, 4).is_zero()
        assert parse_scalar("0*t1^4", 2, 4).is_zero()
        assert parse_scalar("t1^4*t2^0", 2, 4) == JetSeries.monomial(
            2, 4, (4, 0))

    def test_automorphism_error_points_into_full_text(self):
        text = "  (t1+t2, t2 + %)"
        with pytest.raises(ParseError) as info:
            parse_automorphism(text, 2, 4)
        assert info.value.text == text
        assert info.value.pos == text.index("%")

    @pytest.mark.parametrize("text, diagnostic", [
        ("t1 d1 +\n t2 % d2", " t2 % d2\n    ^ unrecognized input"),
        ("t1\td1 + %", "t1 d1 + %\n        ^ unrecognized input"),
        ("t1 +\n\tt2 +\n", "\n^ expected a value"),
    ])
    def test_caret_on_the_line_of_the_error(self, text, diagnostic):
        with pytest.raises(ParseError) as info:
            parse_vector_field(text, 2, 4)
        assert info.value.caret_diagnostic() == diagnostic

    def test_missing_value_points_at_end(self):
        for text in ("", "t1 +", "t1*", "-", "(t1 d1) +"):
            with pytest.raises(ParseError, match="expected a value") as info:
                parse_vector_field(text, 2, 4) if "d1" in text else \
                    parse_scalar(text, 2, 4)
            assert info.value.pos == len(text), text

    def test_out_of_range_variable(self):
        with pytest.raises(ParseError):
            parse_scalar("t3", 2, 4)

    def test_kind_mismatches(self):
        with pytest.raises(ParseError):
            parse_scalar("t1 d1", 2, 4)
        with pytest.raises(ParseError):
            parse_vector_field("t1 + t2", 2, 4)
        with pytest.raises(ParseError):
            parse_form("d1", 2, 4)
        with pytest.raises(ParseError):
            parse_scalar("b[1,-1]", 1, 4)

    def test_trailing_input(self):
        with pytest.raises(ParseError):
            parse_scalar("t1 )", 2, 4)


@settings(max_examples=50, deadline=None)
@given(st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
    max_size=5))
def test_jet_roundtrip_property(coeffs):
    f = JetSeries(2, 6, coeffs)
    assert parse_scalar(format_jet(f), 2, 6) == f
