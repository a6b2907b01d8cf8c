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
from functools import lru_cache
from typing import Callable, Union

from .core import (
    ArthurParameter,
    CuspidalMultiset,
    CuspidalSymbol,
    HalfInt,
    SpehDatum,
    TwistedCuspidal,
    _line_triple,
    _Record,
)
from .segments import Segment, SegmentRep, speh_from_segment_rep

TRIVIAL_LINE = "one"
PRODUCT_IDENT = "x"


class SourceSpan(_Record):
    __slots__ = ("start", "end")

    def __init__(self, start: int, end: int) -> None:
        self._set(start, end)


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


def _error(message: str, start: int, end: int, *expected: str) -> ParseError:
    """The parse error at start..end that expects each rule in expected."""
    return ParseError(message, SourceSpan(start, end), frozenset(expected))


def _shown(text: str) -> str:
    """A token's text as an error names it; only the end token's is empty."""
    return text or "end of input"


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
        raise _error(f"unexpected character {text[pos]!r}", pos, pos + 1, "token")
    tokens.append(("eof", "", pos, pos))
    return tokens


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

    def fail(self, tok: _Tok, rule: str, *expected: str) -> ParseError:
        return _error(f"{rule}: unexpected {_shown(tok[1])!r}", tok[2], tok[3], *expected)

    def expect(self, text: str, rule: str) -> _Tok:
        """Consume the next token, which must have text text ("" at the end)."""
        tok = self.tokens[self.pos]
        if tok[1] != text:
            raise self.fail(tok, rule, f"'{text}'" if text else _shown(text))
        self.pos += 1
        return tok

    # atoms

    def parse_int(self, rule: str) -> tuple[int, _Tok]:
        tok = self.tokens[self.pos]
        if tok[0] != "int":
            raise self.fail(tok, rule, "integer")
        self.pos += 1
        return int(tok[1]), tok

    def parse_positive_int(self, rule: str) -> int:
        value, tok = self.parse_int(rule)
        if value < 1:
            raise _error(f"{rule}: expected a positive integer, got {value}",
                         tok[2], tok[3], "positive integer")
        return value

    def parse_denominator(self, rule: str) -> None:
        """Consume a half-integer's denominator, which must be 2."""
        denom, tok = self.parse_int(rule)
        if denom != 2:
            raise _error(f"{rule}: denominator must be the literal 2", tok[2], tok[3], "'2'")

    def parse_half(self) -> HalfInt:
        value, _ = self.parse_int("half-integer")
        if self.accept("/"):
            self.parse_denominator("half-integer")
            return HalfInt(value)
        return HalfInt.of(value)

    def parse_symbol(self) -> CuspidalSymbol:
        tok = self.tokens[self.pos]
        if tok[0] != "ident":
            raise self.fail(tok, "symbol", "identifier")
        name = tok[1]
        if name == PRODUCT_IDENT:
            raise _error(f"symbol: {PRODUCT_IDENT!r} is the reserved product operator",
                         tok[2], tok[3], "identifier")
        self.pos += 1
        degree = self.parse_positive_int("symbol degree") if self.accept(":") else 1
        if name == TRIVIAL_LINE and degree != 1:
            raise _error(f"symbol: reserved symbol {TRIVIAL_LINE!r} has degree 1",
                         tok[2], tok[3], "degree 1")
        return CuspidalSymbol(name, degree)

    def parse_segment_body(self) -> Segment:
        open_tok = self.expect("[", "segment")
        a = self.parse_half()
        self.expect("..", "segment")
        b = self.parse_half()
        close_tok = self.expect("]", "segment")
        self.expect("{", "segment")
        symbol = self.parse_symbol()
        self.expect("}", "segment")
        try:
            return Segment(symbol, a, b)
        except ValueError as exc:
            raise _error(f"segment: {exc}", open_tok[2], close_tok[3],
                         "b - a a non-negative integer") from None

    # terms

    def parse_term(self) -> Union[SpehDatum, SegmentRep]:
        tok = self.tokens[self.pos]
        if tok[0] != "ident":
            raise self.fail(tok, "term", "'u('", "'triv('", "'st('", "'Z['", "'Q['", "symbol")
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
        self.expect(";", "Speh term")
        a = self.parse_positive_int("Speh term")
        self.expect(",", "Speh term")
        b = self.parse_positive_int("Speh term")
        self.expect(")", "Speh term")
        return SpehDatum(symbol, a, b)

    def parse_named_term(self, name: str) -> SpehDatum:
        self.pos += 2  # "triv" / "st" and "(", checked by parse_term
        n = self.parse_positive_int(f"{name} term")
        self.expect(")", f"{name} term")
        one = CuspidalSymbol(TRIVIAL_LINE, 1)
        return SpehDatum(one, 1, n) if name == "triv" else SpehDatum(one, n, 1)

    def term_to_speh(self, term: Union[SpehDatum, SegmentRep], start: int) -> SpehDatum:
        """The Speh datum of a parameter term from start to the last token read."""
        if term.__class__ is SpehDatum:
            return term
        try:
            return speh_from_segment_rep(term)
        except ValueError as exc:
            end = self.tokens[self.pos - 1][3]
            raise _error(f"parameter term: {exc}", start, end, "centered segment") from None

    def parse_param_or_rep(self) -> Union[ArthurParameter, SegmentRep]:
        tokens = self.tokens
        if tokens[0][1] == "0" and tokens[1][0] == "eof":
            self.pos = 1
            return ArthurParameter(())
        first = self.parse_term()
        if isinstance(first, SegmentRep) and tokens[self.pos][0] == "eof":
            return first
        terms = [self.term_to_speh(first, tokens[0][2])]
        while tokens[self.pos][1] in ("+", PRODUCT_IDENT):
            self.pos += 1
            start = tokens[self.pos][2]
            terms.append(self.term_to_speh(self.parse_term(), start))
        self.expect("", "parameter")
        return ArthurParameter(tuple(terms))

    def parse_param(self) -> ArthurParameter:
        result = self.parse_param_or_rep()
        if isinstance(result, SegmentRep):
            return ArthurParameter((self.term_to_speh(result, self.tokens[0][2]),))
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
                self.expect("/", "twist exponent")
                self.parse_denominator("twist exponent")
                self.expect(")", "twist exponent")
                exponent = HalfInt(numer)
            else:
                raise self.fail(exp_tok, "twist exponent", "integer", "'('")
            return TwistedCuspidal(self.parse_symbol(), exponent)
        return TwistedCuspidal(self.parse_symbol(), HalfInt(0))

    def parse_support_body(self) -> CuspidalMultiset:
        self.expect("{", "support")
        if self.accept("}"):
            return CuspidalMultiset(())
        entries = [self.parse_twisted()]
        while self.accept(","):
            entries.append(self.parse_twisted())
        self.expect("}", "support")
        return CuspidalMultiset(tuple(entries))


# The whole-text path's symbols, kept across texts (up to 1024 of them):
# a symbol is an immutable value, so one object serves every text that
# names it, and dicts keyed by symbols then find it by identity.
_symbol = lru_cache(maxsize=1024)(CuspidalSymbol)


def _read_param_text(text: str, read: Callable[[_Parser], object]):
    """The parameter of a text of u-terms alone, by ``_U_TERMS_RE``, its
    lines written straight from the ``findall`` keys, with no Speh datum
    built: each term's integers are read, in the order of the text, and
    its degree as a number, so "rho", "rho:1" and "rho:01" land on one
    line.  For any other text, read(parser) over the plain stream, which
    returns the value or raises the error."""
    if _U_TERMS_RE.fullmatch(text) is None:
        return read(_Parser(text))
    lines: dict[tuple[str, int], dict[tuple[int, int], int]] = {}
    for name, degree, a, b in _U_TERM_RE.findall(text):
        symbol = (name, int(degree) if degree else 1)
        line = lines.get(symbol)
        if line is None:
            line = lines[symbol] = {}
        key = (int(a), int(b))
        line[key] = line.get(key, 0) + 1
    return ArthurParameter._from_lines(tuple([
        _line_triple(_symbol(*symbol), lines[symbol]) for symbol in sorted(lines)
    ]))


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
    parser.expect("", "segment")
    return segment


def parse_support(text: str) -> CuspidalMultiset:
    """Parse a cuspidal support multiset ``{nu^e sym, ...}``."""
    parser = _Parser(text)
    support = parser.parse_support_body()
    parser.expect("", "support")
    return support


# formatters: output is the canonical form


def format_symbol(symbol: CuspidalSymbol) -> str:
    if symbol.degree == 1:
        return symbol.id
    return f"{symbol.id}:{symbol.degree}"


def _u_texts(symbol_text: str, keys: tuple[tuple[int, int], ...]) -> list[str]:
    """The canonical texts u(symbol_text;a,b) of a line's (a, b) keys."""
    return [f"u({symbol_text};{a},{b})" for a, b in keys]


def format_term(s: SpehDatum) -> str:
    # the template of _u_texts, spelled out: certificates format term by term
    return f"u({format_symbol(s.rho)};{s.a},{s.b})"


def _format_lines(lines: tuple, spell: Callable[[str, tuple], list[str]], separator: str,
                  opening: str = "", closing: str = "") -> str:
    """The text of a value's lines between opening and closing: each
    symbol formatted once a line, and the line's keys spelled by one call
    spell(symbol text, keys), with no call per key; each text is repeated
    by its key's sum and the copies joined by separator.  The whole text
    is built by one join, with the separator cut from the last part only."""
    parts = [opening]
    for symbol, keys, sums in lines:
        parts += [(text + separator) * n for text, n in zip(spell(format_symbol(symbol), keys), sums)]
    if lines:
        parts[-1] = parts[-1][:-len(separator)]
    parts.append(closing)
    return "".join(parts)


def format_param(param: ArthurParameter) -> str:
    return _format_lines(param._lines, _u_texts, " + ") or "0"


def _twist_texts(symbol_text: str, exponents: tuple[int, ...]) -> list[str]:
    """The canonical texts of a line's twists of symbol_text, by doubled
    exponent: the bare symbol at 0, nu^k at an integer k, nu^(d/2) at a
    half-integer."""
    return [
        symbol_text if d == 0 else f"nu^{d // 2} {symbol_text}" if d % 2 == 0 else f"nu^({d}/2) {symbol_text}"
        for d in exponents
    ]


def format_twisted(t: TwistedCuspidal) -> str:
    return _twist_texts(format_symbol(t.symbol), (t.exponent.doubled,))[0]


def format_support(support: CuspidalMultiset) -> str:
    return _format_lines(support._lines, _twist_texts, ", ", "{", "}")


def format_segment(segment: Segment) -> str:
    return f"[{segment.a}..{segment.b}]{{{format_symbol(segment.rho)}}}"


def format_segment_rep(rep: SegmentRep) -> str:
    return f"{rep.kind}{format_segment(rep.segment)}"
