"""Tests for the expression language: grammar, spans, round trips."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spehcalc import (
    ArthurParameter,
    CuspidalMultiset,
    CuspidalSymbol,
    HalfInt,
    ParseError,
    Segment,
    SegmentRep,
    SourceSpan,
    SpehDatum,
    TwistedCuspidal,
    format_param,
    format_segment,
    format_segment_rep,
    format_support,
    format_term,
    parse_param,
    parse_rep,
    parse_segment,
    parse_support,
)
from _fixtures import ONE, PARSERS, PARSE_ERRORS, RHO


# strategies

_IDENT_FIRST = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_"
_IDENT_REST = _IDENT_FIRST + "0123456789"

idents = st.one_of(
    st.sampled_from(["one", "rho", "sigma", "chi", "tau_2", "phi", "nu"]),
    st.builds(
        lambda first, rest: first + rest,
        st.sampled_from(_IDENT_FIRST),
        st.text(_IDENT_REST, max_size=6),
    ),
).filter(lambda s: s != "x")  # the reserved product operator


@st.composite
def symbols(draw):
    name = draw(idents)
    degree = 1 if name == "one" else draw(st.integers(1, 4))
    return CuspidalSymbol(name, degree)


@st.composite
def speh_terms(draw):
    return SpehDatum(draw(symbols()), draw(st.integers(1, 9)), draw(st.integers(1, 9)))


@st.composite
def params(draw):
    return ArthurParameter(tuple(draw(st.lists(speh_terms(), max_size=5))))


@st.composite
def segments(draw):
    a = HalfInt(draw(st.integers(-12, 12)))
    return Segment(draw(symbols()), a, a + draw(st.integers(0, 9)))


@st.composite
def supports(draw):
    entries = draw(
        st.lists(
            st.builds(
                TwistedCuspidal, symbols(), st.integers(-12, 12).map(HalfInt)
            ),
            max_size=6,
        )
    )
    return CuspidalMultiset(tuple(entries))


class TestParsing:
    def test_trivial_shorthand(self):
        assert parse_param("triv(3)") == ArthurParameter((SpehDatum(ONE, 1, 3),))

    def test_speh_term(self):
        assert parse_param("u(rho;2,3)") == ArthurParameter((SpehDatum(RHO, 2, 3),))

    def test_sum_with_shorthands(self):
        parsed = parse_param("u(one;1,7) + u(one;5,1) + chi")
        expected = ArthurParameter(
            (SpehDatum(ONE, 1, 7), SpehDatum(ONE, 5, 1), SpehDatum(CuspidalSymbol("chi"), 1, 1))
        )
        assert parsed == expected
        assert parsed.dim == 13

    def test_zero_is_empty(self):
        assert parse_param("0") == ArthurParameter(())

    def test_steinberg_coherence(self):
        for n in range(1, 8):
            assert parse_param(f"st({n})") == parse_param(f"u(one;{n},1)")

    def test_segment_rep_coherence(self):
        assert parse_param("Z[-1..1]{rho}") == parse_param("u(rho;1,3)")
        assert parse_param("Q[-1/2..1/2]{rho}") == parse_param("u(rho;2,1)")

    def test_product_and_sum_normalize_identically(self):
        assert parse_param("rho x st(2) x rho") == parse_param("rho + st(2) + rho")
        assert parse_param("rho x st(2) + chi") == parse_param("rho + st(2) x chi")

    def test_symbol_degree_suffix(self):
        parsed = parse_param("u(sigma:2;1,4)")
        assert parsed.terms[0].rho == CuspidalSymbol("sigma", 2)
        assert parsed.dim == 8

    def test_whitespace_insensitive(self):
        assert parse_param(" u( rho ; 2 , 3 ) + chi ") == parse_param("u(rho;2,3)+chi")

    def test_parse_rep_returns_lone_segment_rep(self):
        rep = parse_rep("Q[0..1]{rho}")
        assert rep == SegmentRep("Q", Segment(RHO, HalfInt(0), HalfInt(2)))

    def test_parse_rep_returns_param_for_sums(self):
        assert isinstance(parse_rep("Q[-1..1]{rho} + chi"), ArthurParameter)

    def test_parse_segment(self):
        assert parse_segment("[-3/2..1/2]{rho}") == Segment(RHO, HalfInt(-3), HalfInt(1))

    def test_parse_support(self):
        support = parse_support("{nu^-1 rho, rho, nu^(3/2) sigma:2}")
        assert len(support) == 3
        assert parse_support("{}") == CuspidalMultiset(())


def span_of(text: str) -> tuple[int, int, frozenset]:
    with pytest.raises(ParseError) as info:
        parse_param(text)
    err = info.value
    return err.span.start, err.span.end, err.expected


class TestErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "u(rho,2,3)",     # wrong separator
            "u(rho;0,3)",     # degree-0 dimension
            "u(rho;2,3",      # unterminated
            "triv()",
            "st(-1)",
            "Z[1..0]{rho}",   # b - a negative
            "Z[0..1/2]{rho}", # gap not an integer
            "Z[0..2]{rho}",   # non-centered in parameter position
            "Q[1/3..1]{rho}", # denominator not 2
            "one:2",          # reserved symbol with degree
            "x",              # reserved product operator
            "rho +",
            "rho ! chi",
            "",
            "0 + rho",
        ],
    )
    def test_rejects_with_span_inside_input(self, text):
        start, end, expected = span_of(text)
        assert 0 <= start <= end <= len(text)
        assert expected

    @pytest.mark.parametrize("indent", [1, 3])
    @pytest.mark.parametrize("case", PARSE_ERRORS, ids=[c["name"] for c in PARSE_ERRORS])
    def test_leading_whitespace_shifts_the_span(self, case, indent):
        """Whitespace put in front of any golden error's text moves its span
        by as many characters and keeps its expected set."""
        with pytest.raises(ParseError) as info:
            PARSERS[case["parser"]](" " * indent + case["text"])
        err = info.value
        assert [err.span.start - indent, err.span.end - indent] == case["span"]
        assert sorted(err.expected) == case["expected"]

    def test_error_without_expected_set_is_refused(self):
        with pytest.raises(ValueError) as info:
            ParseError("unexpected character", SourceSpan(0, 1), frozenset())
        assert str(info.value) == "a parse error must carry a non-empty expected set"

    def test_non_centered_message(self):
        with pytest.raises(ParseError, match="centered"):
            parse_param("Z[0..2]{rho}")

    def test_support_errors(self):
        with pytest.raises(ParseError):
            parse_support("{nu^ rho}")
        with pytest.raises(ParseError):
            parse_support("{rho,}")

    def test_segment_trailing_junk(self):
        with pytest.raises(ParseError, match="end of input"):
            parse_segment("[0..1]{rho} x")

    @given(st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=40))
    def test_arbitrary_input_parses_or_fails_with_valid_span(self, text):
        for parser in (parse_param, parse_rep, parse_segment, parse_support):
            try:
                parser(text)
            except ParseError as err:
                assert 0 <= err.span.start <= err.span.end <= len(text)
                assert err.expected


class TestFormatting:
    def test_param_canonical_form(self):
        parsed = parse_param("chi + u(one;5,1) + u(one;1,7)")
        assert format_param(parsed) == "u(chi;1,1) + u(one;1,7) + u(one;5,1)"

    def test_empty_param(self):
        assert format_param(ArthurParameter(())) == "0"

    def test_support_form(self):
        support = parse_support("{nu^(1/2) rho, nu^-2 one, sigma:3}")
        assert format_support(support) == "{nu^-2 one, nu^(1/2) rho, sigma:3}"

    def test_segment_forms(self):
        seg = Segment(RHO, HalfInt(-3), HalfInt(1))
        assert format_segment(seg) == "[-3/2..1/2]{rho}"
        assert format_segment_rep(SegmentRep("Z", seg)) == "Z[-3/2..1/2]{rho}"

    def test_term_form(self):
        assert format_term(SpehDatum(CuspidalSymbol("sigma", 2), 3, 1)) == "u(sigma:2;3,1)"


class TestRoundTrips:
    @given(params())
    def test_param_round_trip(self, param):
        assert parse_param(format_param(param)) == param

    @given(supports())
    def test_support_round_trip(self, support):
        assert parse_support(format_support(support)) == support

    @given(segments())
    def test_segment_round_trip(self, segment):
        assert parse_segment(format_segment(segment)) == segment

    @given(segments(), st.sampled_from(["Z", "Q"]))
    def test_segment_rep_round_trip(self, segment, kind):
        rep = SegmentRep(kind, segment)
        assert parse_rep(format_segment_rep(rep)) == rep
