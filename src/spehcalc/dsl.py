"""Surface syntax for parameters, Speh terms, segments and supports.

Grammar (whitespace free between tokens):

    param    := "0" | term (("+" | "x") term)*
    term     := "u(" symbol ";" int "," int ")"      Speh datum u_rho(a,b)
              | "triv(" int ")"                      trivial rep, u(one;1,n)
              | "st(" int ")"                        Steinberg, u(one;n,1)
              | ("Z" | "Q") segment                  segment rep (centered
                                                     when a parameter term)
              | symbol                               shorthand for u(sym;1,1)
    segment  := "[" half ".." half "]" "{" symbol "}"
    symbol   := ident (":" int)?                     degree defaults to 1
    half     := int | int "/2"
    support  := "{" "}" | "{" twisted ("," twisted)* "}"
    twisted  := ("nu^" (int | "(" int "/2" ")"))? symbol

"+" and "x" both separate factors and normalize to one multiset, so the
ident "x" is reserved; "one" names the trivial-character line and always
has degree 1.  The formatters emit the canonical form: terms in canonical
order, u(...) syntax, " + " separators.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

from .core import (
    ArthurParameter,
    CuspidalMultiset,
    CuspidalSymbol,
    HalfInt,
    SpehDatum,
    TwistedCuspidal,
)
from .segments import Segment, SegmentRep, speh_from_segment_rep

TRIVIAL_LINE = "one"
PRODUCT_IDENT = "x"


@dataclass(frozen=True)
class SourceSpan:
    start: int
    end: int


class ParseError(Exception):
    """Parse failure at a span of the input, naming the grammar rule that
    was expected there."""

    def __init__(self, message: str, span: SourceSpan, expected: frozenset[str]):
        if not expected:
            raise ValueError("a parse error must carry a non-empty expected set")
        super().__init__(message)
        self.message = message
        self.span = span
        self.expected = expected

    def __str__(self) -> str:
        names = ", ".join(sorted(self.expected))
        return f"{self.message} at {self.span.start}..{self.span.end} (expected {names})"


_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<int>-?[0-9]+)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<dotdot>\.\.)
    | (?P<punct>[+;,(){}\[\]:/^])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # "int" | "ident" | "dotdot" | "punct" | "eof"
    text: str
    start: int
    end: int

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.start, self.end)


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(
                f"unexpected character {text[pos]!r}",
                SourceSpan(pos, pos + 1),
                frozenset({"token"}),
            )
        pos = m.end()
        kind = m.lastgroup
        if kind == "ws":
            continue
        tokens.append(_Token(kind, m.group(), m.start(), m.end()))
    tokens.append(_Token("eof", "", len(text), len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, tok: _Token, rule: str, expected: set[str]) -> ParseError:
        shown = tok.text if tok.kind != "eof" else "end of input"
        return ParseError(f"{rule}: unexpected {shown!r}", tok.span, frozenset(expected))

    def expect_punct(self, text: str, rule: str) -> _Token:
        tok = self.peek()
        if tok.kind == "punct" and tok.text == text:
            return self.advance()
        raise self.fail(tok, rule, {f"'{text}'"})

    def expect_eof(self, rule: str) -> None:
        tok = self.peek()
        if tok.kind != "eof":
            raise self.fail(tok, rule, {"end of input"})

    # atoms

    def parse_int(self, rule: str) -> tuple[int, _Token]:
        tok = self.peek()
        if tok.kind != "int":
            raise self.fail(tok, rule, {"integer"})
        return int(self.advance().text), tok

    def parse_positive_int(self, rule: str) -> int:
        value, tok = self.parse_int(rule)
        if value < 1:
            raise ParseError(
                f"{rule}: expected a positive integer, got {value}",
                tok.span,
                frozenset({"positive integer"}),
            )
        return value

    def parse_half(self) -> HalfInt:
        value, tok = self.parse_int("half-integer")
        if self.peek().kind == "punct" and self.peek().text == "/":
            self.advance()
            denom, denom_tok = self.parse_int("half-integer")
            if denom != 2:
                raise ParseError(
                    "half-integer: denominator must be the literal 2",
                    denom_tok.span,
                    frozenset({"'2'"}),
                )
            return HalfInt(value)
        return HalfInt.of(value)

    def parse_symbol(self) -> CuspidalSymbol:
        tok = self.peek()
        if tok.kind != "ident":
            raise self.fail(tok, "symbol", {"identifier"})
        if tok.text == PRODUCT_IDENT:
            raise ParseError(
                f"symbol: {PRODUCT_IDENT!r} is the reserved product operator",
                tok.span,
                frozenset({"identifier"}),
            )
        self.advance()
        degree = 1
        if self.peek().kind == "punct" and self.peek().text == ":":
            self.advance()
            degree = self.parse_positive_int("symbol degree")
        if tok.text == TRIVIAL_LINE and degree != 1:
            raise ParseError(
                f"symbol: reserved symbol {TRIVIAL_LINE!r} has degree 1",
                tok.span,
                frozenset({"degree 1"}),
            )
        return CuspidalSymbol(tok.text, degree)

    def parse_segment_body(self) -> Segment:
        open_tok = self.expect_punct("[", "segment")
        a = self.parse_half()
        tok = self.peek()
        if tok.kind != "dotdot":
            raise self.fail(tok, "segment", {"'..'"})
        self.advance()
        b = self.parse_half()
        close_tok = self.expect_punct("]", "segment")
        self.expect_punct("{", "segment")
        symbol = self.parse_symbol()
        self.expect_punct("}", "segment")
        try:
            return Segment(symbol, a, b)
        except ValueError as exc:
            raise ParseError(
                f"segment: {exc}",
                SourceSpan(open_tok.start, close_tok.end),
                frozenset({"b - a a non-negative integer"}),
            ) from None

    # terms

    def parse_term(self) -> Union[SpehDatum, SegmentRep]:
        tok = self.peek()
        if tok.kind != "ident":
            raise self.fail(tok, "term", {"'u('", "'triv('", "'st('", "'Z['", "'Q['", "symbol"})
        following = self.peek(1)
        if tok.text == "u" and following.kind == "punct" and following.text == "(":
            return self.parse_u_term()
        if tok.text in ("triv", "st") and following.kind == "punct" and following.text == "(":
            return self.parse_named_term(tok.text)
        if tok.text in ("Z", "Q") and following.kind == "punct" and following.text == "[":
            self.advance()
            return SegmentRep(tok.text, self.parse_segment_body())
        return SpehDatum(self.parse_symbol(), 1, 1)

    def parse_u_term(self) -> SpehDatum:
        self.advance()  # "u"
        self.expect_punct("(", "Speh term")
        symbol = self.parse_symbol()
        self.expect_punct(";", "Speh term")
        a = self.parse_positive_int("Speh term")
        self.expect_punct(",", "Speh term")
        b = self.parse_positive_int("Speh term")
        self.expect_punct(")", "Speh term")
        return SpehDatum(symbol, a, b)

    def parse_named_term(self, name: str) -> SpehDatum:
        self.advance()  # "triv" / "st"
        self.expect_punct("(", f"{name} term")
        n = self.parse_positive_int(f"{name} term")
        self.expect_punct(")", f"{name} term")
        one = CuspidalSymbol(TRIVIAL_LINE, 1)
        return SpehDatum(one, 1, n) if name == "triv" else SpehDatum(one, n, 1)

    def term_to_speh(self, term: Union[SpehDatum, SegmentRep], span: SourceSpan) -> SpehDatum:
        if isinstance(term, SpehDatum):
            return term
        try:
            return speh_from_segment_rep(term)
        except ValueError as exc:
            raise ParseError(
                f"parameter term: {exc}", span, frozenset({"centered segment"})
            ) from None

    def at_separator(self) -> bool:
        tok = self.peek()
        return (tok.kind == "punct" and tok.text == "+") or (
            tok.kind == "ident" and tok.text == PRODUCT_IDENT
        )

    def parse_param_or_rep(self) -> Union[ArthurParameter, SegmentRep]:
        tok = self.peek()
        if tok.kind == "int" and tok.text == "0" and self.peek(1).kind == "eof":
            self.advance()
            return ArthurParameter(())
        start = self.peek()
        first = self.parse_term()
        if isinstance(first, SegmentRep) and self.peek().kind == "eof":
            return first
        end = self.tokens[self.pos - 1]
        terms = [self.term_to_speh(first, SourceSpan(start.start, end.end))]
        while self.at_separator():
            self.advance()
            start = self.peek()
            term = self.parse_term()
            end = self.tokens[self.pos - 1]
            terms.append(self.term_to_speh(term, SourceSpan(start.start, end.end)))
        self.expect_eof("parameter")
        return ArthurParameter(tuple(terms))

    # supports

    def parse_twisted(self) -> TwistedCuspidal:
        tok = self.peek()
        if tok.kind == "ident" and tok.text == "nu" and self.peek(1).text == "^":
            self.advance()
            self.advance()
            exp_tok = self.peek()
            if exp_tok.kind == "int":
                self.advance()
                exponent = HalfInt.of(int(exp_tok.text))
            elif exp_tok.kind == "punct" and exp_tok.text == "(":
                self.advance()
                numer, _ = self.parse_int("twist exponent")
                self.expect_punct("/", "twist exponent")
                denom, denom_tok = self.parse_int("twist exponent")
                if denom != 2:
                    raise ParseError(
                        "twist exponent: denominator must be the literal 2",
                        denom_tok.span,
                        frozenset({"'2'"}),
                    )
                self.expect_punct(")", "twist exponent")
                exponent = HalfInt(numer)
            else:
                raise self.fail(exp_tok, "twist exponent", {"integer", "'('"})
            return TwistedCuspidal(self.parse_symbol(), exponent)
        return TwistedCuspidal(self.parse_symbol(), HalfInt(0))

    def parse_support_body(self) -> CuspidalMultiset:
        self.expect_punct("{", "support")
        if self.peek().kind == "punct" and self.peek().text == "}":
            self.advance()
            return CuspidalMultiset(())
        entries = [self.parse_twisted()]
        while self.peek().kind == "punct" and self.peek().text == ",":
            self.advance()
            entries.append(self.parse_twisted())
        self.expect_punct("}", "support")
        return CuspidalMultiset(tuple(entries))


def parse_param(text: str) -> ArthurParameter:
    """Parse an Arthur parameter; segment-rep terms must be centered."""
    parser = _Parser(text)
    result = parser.parse_param_or_rep()
    if isinstance(result, SegmentRep):
        end = parser.tokens[parser.pos - 1] if parser.pos else parser.peek()
        return ArthurParameter((parser.term_to_speh(result, SourceSpan(0, end.end)),))
    return result


def parse_rep(text: str) -> Union[ArthurParameter, SegmentRep]:
    """Parse either a parameter or a lone (possibly non-centered) Z/Q
    segment representation."""
    parser = _Parser(text)
    return parser.parse_param_or_rep()


def parse_segment(text: str) -> Segment:
    """Parse a bare segment ``[a..b]{symbol}``."""
    parser = _Parser(text)
    segment = parser.parse_segment_body()
    parser.expect_eof("segment")
    return segment


def parse_support(text: str) -> CuspidalMultiset:
    """Parse a cuspidal support multiset ``{nu^e sym, ...}``."""
    parser = _Parser(text)
    support = parser.parse_support_body()
    parser.expect_eof("support")
    return support


# formatters: output is the canonical form


def format_symbol(symbol: CuspidalSymbol) -> str:
    if symbol.degree == 1:
        return symbol.id
    return f"{symbol.id}:{symbol.degree}"


def format_term(s: SpehDatum) -> str:
    return f"u({format_symbol(s.rho)};{s.a},{s.b})"


def format_param(param: ArthurParameter) -> str:
    if len(param) == 0:
        return "0"
    return " + ".join(format_term(s) for s in param)


def format_twisted(t: TwistedCuspidal) -> str:
    if t.exponent.doubled == 0:
        return format_symbol(t.symbol)
    if t.exponent.is_integer:
        return f"nu^{t.exponent.doubled // 2} {format_symbol(t.symbol)}"
    return f"nu^({t.exponent.doubled}/2) {format_symbol(t.symbol)}"


def format_support(support: CuspidalMultiset) -> str:
    """The sorted twist list; each run is formatted once and repeated."""
    return "{" + ", ".join(", ".join([format_twisted(t)] * m) for t, m in support.runs) + "}"


def format_segment(segment: Segment) -> str:
    return f"[{segment.a}..{segment.b}]{{{format_symbol(segment.rho)}}}"


def format_segment_rep(rep: SegmentRep) -> str:
    return f"{rep.kind}{format_segment(rep.segment)}"
