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

parse_segment and parse_support read text as a stream of plain tokens,
one per integer, identifier or punctuation mark.  parse_param and
parse_rep first try the whole text against one regex: u(sym[:deg];a,b)
terms exactly as parse_u_term accepts them, separated by "+" or "x".
This is the form the formatters emit, and it costs one match for the
text and one more for each term's fields.  Any other text, including
every invalid one, is read over the plain stream, so every error, with
its message, span and expected set, comes from the plain stream.
"""

from __future__ import annotations

import re
from typing import Callable, Union

from .core import (
    ArthurParameter,
    CuspidalMultiset,
    CuspidalSymbol,
    HalfInt,
    SpehDatum,
    TwistedCuspidal,
    _Record,
)
from .segments import Segment, SegmentRep, speh_from_segment_rep

TRIVIAL_LINE = "one"
PRODUCT_IDENT = "x"


class SourceSpan(_Record):
    __slots__ = ("start", "end")

    def __init__(self, start: int, end: int) -> None:
        set_start, set_end = self._setters
        set_start(self, start)
        set_end(self, end)


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

# A u(sym[:deg];a,b) term exactly when parse_u_term accepts it: sym is
# not "x", "one" has no degree but 1, and the degree, a and b are
# positive.  Its fields sym, deg (empty when absent), a and b are groups
# that open with {open}: "(" captures them, for findall; "(?:" does not,
# for the whole-text match, where a capture would only cost time.
_POSITIVE = r"0*[1-9][0-9]*"
_U_TERM = (
    r"u\((?!x[:;])(?!one:(?!0*1;)){open}[A-Za-z_][A-Za-z0-9_]*)"
    r"(?::{open}{pos}))?;{open}{pos}),{open}{pos})\)"
)
_U_TERM_RE = re.compile(_U_TERM.format(open="(", pos=_POSITIVE))
# A whole text of such terms, separated by "+" or by an "x" that does not
# begin a longer identifier, with whitespace free around each.
_U_TERMS_RE = re.compile(
    r"\s*{term}(?:\s*(?:\+|x(?![A-Za-z0-9_]))\s*{term})*\s*".format(
        term=_U_TERM.format(open="(?:", pos=_POSITIVE)
    )
)


_Tok = tuple[str, str, int, int]  # (kind, text, start, end)


def _tokenize(text: str) -> list[_Tok]:
    """The tokens of text, whitespace dropped, in one pass, ending with an
    ("eof", "", n, n) sentinel.  Kind is "int", "ident", "dotdot" or
    "punct"; no two kinds share a text, so the parser tells punctuation
    apart by its text alone."""
    tokens = []
    pos = 0
    for m in _TOKEN_RE.finditer(text):
        start, end = m.span()
        if start != pos:
            break  # the characters between two matches fit no token
        pos = end
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group(), start, end))
    if pos != len(text):
        raise ParseError(
            f"unexpected character {text[pos]!r}",
            SourceSpan(pos, pos + 1),
            frozenset({"token"}),
        )
    tokens.append(("eof", "", pos, pos))
    return tokens


def _span(tok: _Tok) -> SourceSpan:
    return SourceSpan(tok[2], tok[3])


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def accept(self, text: str) -> bool:
        """Consume the next token if its text is text."""
        if self.tokens[self.pos][1] == text:
            self.pos += 1
            return True
        return False

    def fail(self, tok: _Tok, rule: str, expected: set[str]) -> ParseError:
        shown = tok[1] if tok[0] != "eof" else "end of input"
        return ParseError(f"{rule}: unexpected {shown!r}", _span(tok), frozenset(expected))

    def expect_punct(self, text: str, rule: str) -> _Tok:
        tok = self.tokens[self.pos]
        if tok[1] != text:
            raise self.fail(tok, rule, {f"'{text}'"})
        self.pos += 1
        return tok

    def expect_eof(self, rule: str) -> None:
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            raise self.fail(tok, rule, {"end of input"})

    # atoms

    def parse_int(self, rule: str) -> tuple[int, _Tok]:
        tok = self.tokens[self.pos]
        if tok[0] != "int":
            raise self.fail(tok, rule, {"integer"})
        self.pos += 1
        return int(tok[1]), tok

    def parse_positive_int(self, rule: str) -> int:
        value, tok = self.parse_int(rule)
        if value < 1:
            raise ParseError(
                f"{rule}: expected a positive integer, got {value}",
                _span(tok),
                frozenset({"positive integer"}),
            )
        return value

    def parse_denominator(self, rule: str) -> None:
        """Consume a half-integer's denominator, which must be 2."""
        denom, tok = self.parse_int(rule)
        if denom != 2:
            raise ParseError(
                f"{rule}: denominator must be the literal 2", _span(tok), frozenset({"'2'"})
            )

    def parse_half(self) -> HalfInt:
        value, _ = self.parse_int("half-integer")
        if self.accept("/"):
            self.parse_denominator("half-integer")
            return HalfInt(value)
        return HalfInt.of(value)

    def parse_symbol(self) -> CuspidalSymbol:
        tok = self.tokens[self.pos]
        if tok[0] != "ident":
            raise self.fail(tok, "symbol", {"identifier"})
        name = tok[1]
        if name == PRODUCT_IDENT:
            raise ParseError(
                f"symbol: {PRODUCT_IDENT!r} is the reserved product operator",
                _span(tok),
                frozenset({"identifier"}),
            )
        self.pos += 1
        degree = self.parse_positive_int("symbol degree") if self.accept(":") else 1
        if name == TRIVIAL_LINE and degree != 1:
            raise ParseError(
                f"symbol: reserved symbol {TRIVIAL_LINE!r} has degree 1",
                _span(tok),
                frozenset({"degree 1"}),
            )
        return CuspidalSymbol(name, degree)

    def parse_segment_body(self) -> Segment:
        open_tok = self.expect_punct("[", "segment")
        a = self.parse_half()
        self.expect_punct("..", "segment")
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
                SourceSpan(open_tok[2], close_tok[3]),
                frozenset({"b - a a non-negative integer"}),
            ) from None

    # terms

    def parse_term(self) -> Union[SpehDatum, SegmentRep]:
        tok = self.tokens[self.pos]
        if tok[0] != "ident":
            raise self.fail(tok, "term", {"'u('", "'triv('", "'st('", "'Z['", "'Q['", "symbol"})
        name, following = tok[1], self.tokens[self.pos + 1][1]
        if following == "(" and name == "u":
            return self.parse_u_term()
        if following == "(" and name in ("triv", "st"):
            return self.parse_named_term(name)
        if following == "[" and name in ("Z", "Q"):
            self.pos += 1
            return SegmentRep(name, self.parse_segment_body())
        return SpehDatum(self.parse_symbol(), 1, 1)

    def parse_u_term(self) -> SpehDatum:
        self.pos += 2  # "u" "(", checked by parse_term
        symbol = self.parse_symbol()
        self.expect_punct(";", "Speh term")
        a = self.parse_positive_int("Speh term")
        self.expect_punct(",", "Speh term")
        b = self.parse_positive_int("Speh term")
        self.expect_punct(")", "Speh term")
        return SpehDatum(symbol, a, b)

    def parse_named_term(self, name: str) -> SpehDatum:
        self.pos += 2  # "triv" / "st" and "(", checked by parse_term
        n = self.parse_positive_int(f"{name} term")
        self.expect_punct(")", f"{name} term")
        one = CuspidalSymbol(TRIVIAL_LINE, 1)
        return SpehDatum(one, 1, n) if name == "triv" else SpehDatum(one, n, 1)

    def term_to_speh(self, term: Union[SpehDatum, SegmentRep], start: int, end: int) -> SpehDatum:
        """The Speh datum of a parameter term that spans start..end."""
        if term.__class__ is SpehDatum:
            return term
        try:
            return speh_from_segment_rep(term)
        except ValueError as exc:
            raise ParseError(
                f"parameter term: {exc}", SourceSpan(start, end), frozenset({"centered segment"})
            ) from None

    def parse_param_or_rep(self) -> Union[ArthurParameter, SegmentRep]:
        tokens = self.tokens
        if tokens[0][1] == "0" and tokens[1][0] == "eof":
            self.pos = 1
            return ArthurParameter(())
        first = self.parse_term()
        if isinstance(first, SegmentRep) and tokens[self.pos][0] == "eof":
            return first
        terms = [self.term_to_speh(first, tokens[0][2], tokens[self.pos - 1][3])]
        while tokens[self.pos][1] in ("+", PRODUCT_IDENT):
            self.pos += 1
            start = tokens[self.pos][2]
            term = self.parse_term()
            terms.append(self.term_to_speh(term, start, tokens[self.pos - 1][3]))
        self.expect_eof("parameter")
        return ArthurParameter(tuple(terms))

    def parse_param(self) -> ArthurParameter:
        result = self.parse_param_or_rep()
        if isinstance(result, SegmentRep):
            return ArthurParameter((self.term_to_speh(result, 0, self.tokens[self.pos - 1][3]),))
        return result

    # supports

    def parse_twisted(self) -> TwistedCuspidal:
        if self.tokens[self.pos][1] == "nu" and self.tokens[self.pos + 1][1] == "^":
            self.pos += 2
            exp_tok = self.tokens[self.pos]
            if exp_tok[0] == "int":
                self.pos += 1
                exponent = HalfInt.of(int(exp_tok[1]))
            elif self.accept("("):
                numer, _ = self.parse_int("twist exponent")
                self.expect_punct("/", "twist exponent")
                self.parse_denominator("twist exponent")
                self.expect_punct(")", "twist exponent")
                exponent = HalfInt(numer)
            else:
                raise self.fail(exp_tok, "twist exponent", {"integer", "'('"})
            return TwistedCuspidal(self.parse_symbol(), exponent)
        return TwistedCuspidal(self.parse_symbol(), HalfInt(0))

    def parse_support_body(self) -> CuspidalMultiset:
        self.expect_punct("{", "support")
        if self.accept("}"):
            return CuspidalMultiset(())
        entries = [self.parse_twisted()]
        while self.accept(","):
            entries.append(self.parse_twisted())
        self.expect_punct("}", "support")
        return CuspidalMultiset(tuple(entries))


def _read_param_text(text: str, read: Callable[[_Parser], object]):
    """The parameter of a text of u-terms alone, by ``_U_TERMS_RE``, with
    each distinct term's value built once; for any other text, read(parser)
    over the plain stream, which returns the value or raises the error."""
    if _U_TERMS_RE.fullmatch(text) is None:
        return read(_Parser(text))
    symbols: dict[tuple, CuspidalSymbol] = {}
    data: dict[tuple, SpehDatum] = {}
    terms = []
    for key in _U_TERM_RE.findall(text):
        s = data.get(key)
        if s is None:
            name, degree, a, b = key
            rho = symbols.get((name, degree))
            if rho is None:
                rho = symbols[name, degree] = CuspidalSymbol(name, int(degree) if degree else 1)
            s = data[key] = SpehDatum(rho, int(a), int(b))
        terms.append(s)
    return ArthurParameter(terms)


def parse_param(text: str) -> ArthurParameter:
    """Parse an Arthur parameter; segment-rep terms must be centered."""
    return _read_param_text(text, _Parser.parse_param)


def parse_rep(text: str) -> Union[ArthurParameter, SegmentRep]:
    """Parse either a parameter or a lone (possibly non-centered) Z/Q
    segment representation."""
    return _read_param_text(text, _Parser.parse_param_or_rep)


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


def _format_twist(doubled: int, symbol_text: str) -> str:
    if doubled == 0:
        return symbol_text
    if doubled % 2 == 0:
        return f"nu^{doubled // 2} {symbol_text}"
    return f"nu^({doubled}/2) {symbol_text}"


def format_twisted(t: TwistedCuspidal) -> str:
    return _format_twist(t.exponent.doubled, format_symbol(t.symbol))


def format_support(support: CuspidalMultiset) -> str:
    """The sorted twist list, read from the support's lines: each symbol
    is formatted once a line and each run once, then repeated."""
    parts = []
    for symbol, exponents, mults in support._lines:
        symbol_text = format_symbol(symbol)
        parts += [(_format_twist(e, symbol_text) + ", ") * m for e, m in zip(exponents, mults)]
    return "{" + "".join(parts)[:-2] + "}"


def format_segment(segment: Segment) -> str:
    return f"[{segment.a}..{segment.b}]{{{format_symbol(segment.rho)}}}"


def format_segment_rep(rep: SegmentRep) -> str:
    return f"{rep.kind}{format_segment(rep.segment)}"
