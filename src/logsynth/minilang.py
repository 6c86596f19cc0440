"""MiniLang frontend: a small imperative language for modeling
logging-heavy code.

Grammar (whitespace-insensitive, `//` line comments):

    unit      := { annot? method }
    annot     := "component" STRING
    method    := "void" IDENT "(" ")" block
    block     := "{" { stmt } "}"
    stmt      := log | invoke | assign | ifst | whilest | "return" ";"
    log       := "log" "(" LEVEL "," part { "+" part } ")" ";"
    part      := STRING | IDENT
    invoke    := IDENT "(" ")" ";"
    assign    := IDENT "=" STRING ";"
    ifst      := "if" "(" cond ")" block [ "else" block ]
    whilest   := "while" "(" cond ")" block
    cond      := "true" | "false" | [ "!" ] IDENT

LEVEL is one of info/warn/error.  STRING is double-quoted on one line,
with `\\"` and `\\\\` escapes.  IDENT is a word that is not a keyword:
one character that `str.isalpha` accepts or `_`, then any characters
that `str.isalnum` accepts or `_`, so `é` and `x²` are identifiers and
`²x` is not.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass, field

from .errors import LogsynthError
from .model import LEVELS

KEYWORDS = frozenset(
    {"void", "component", "log", "if", "else", "while", "return", "true", "false"}
)


class ParseError(LogsynthError):
    """Syntax or structural error in a MiniLang source unit."""

    def __init__(self, line: int, column: int, message: str,
                 path: str | None = None):
        prefix = f"{path}:" if path else ""
        super().__init__(f"{prefix}{line}:{column}: {message}")
        self.line = line
        self.column = column
        self.message = message
        self.path = path


@dataclass(frozen=True)
class SourceUnit:
    path: str
    text: str

    def __post_init__(self):
        if not self.path:
            raise ValueError("SourceUnit.path must be non-empty")


# ── AST ──────────────────────────────────────────────────────────────

@dataclass(frozen=True)
class StrLit:
    text: str


@dataclass(frozen=True)
class VarRef:
    name: str


@dataclass(frozen=True)
class Condition:
    """A branch guard: a boolean variable, its negation, or a literal.

    var=None encodes the literals: negated=False is `true`,
    negated=True is `false`.
    """

    var: str | None = None
    negated: bool = False


COND_TRUE = Condition(None, False)
COND_FALSE = Condition(None, True)


@dataclass(frozen=True)
class LogCall:
    level: str
    parts: tuple[StrLit | VarRef, ...]
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Invoke:
    target: str


@dataclass(frozen=True)
class Assign:
    var: str
    value: str


@dataclass(frozen=True)
class If:
    cond: Condition
    then: tuple["Statement", ...]
    orelse: tuple["Statement", ...] | None = None


@dataclass(frozen=True)
class While:
    cond: Condition
    body: tuple["Statement", ...]


@dataclass(frozen=True)
class Return:
    pass


Statement = LogCall | Invoke | Assign | If | While | Return


@dataclass(frozen=True)
class AstMethod:
    name: str
    body: tuple[Statement, ...]
    component: str | None = None


# ── Lexer ────────────────────────────────────────────────────────────

# A class, not a tuple: a 3-tuple has the size of the short identifier
# strings the AST keeps, so freed token tuples would leave holes in their
# allocator pools (1.4 MB more peak RSS on bench's deep-chains workload).
@dataclass
class Token:
    kind: str  # IDENT, STRING, EOF, or the text of a keyword or punctuation
    text: str
    at: int    # offset into the source text


# Whitespace and comments match no group.  A string's body takes any
# character but `"`, `\` and a newline, or one of the escapes `\"` and
# `\\`; without its closing quote, what follows the body names the error.
_TOKEN = re.compile(r"""
    [ \t\r\n]+ | //[^\n]*
  | (?P<word>\w+)
  | (?P<punct>[{}();=+!,])
  | "(?P<open>(?:[^"\\\n]|\\["\\])*)(?P<string>")?
  | (?P<bad>.)
""", re.VERBOSE)
_ESCAPED = re.compile(r"\\(.)")


def _position(text: str, at: int) -> tuple[int, int]:
    """The 1-based line and column of offset `at` in `text`."""
    line_start = text.rfind("\n", 0, at) + 1
    return text.count("\n", 0, line_start) + 1, at - line_start + 1


def _tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    for m in _TOKEN.finditer(text):
        group = m.lastgroup
        if group is None:
            continue
        at = m.start()
        if group == "word":
            word = m.group()
            # \w also matches digits and other numerals, which cannot start a word
            if not (word[0].isalpha() or word[0] == "_"):
                raise ParseError(*_position(text, at), f"unexpected character {word[0]!r}")
            toks.append(Token(word if word in KEYWORDS else "IDENT", word, at))
        elif group == "punct":
            toks.append(Token(m.group(), m.group(), at))
        elif group == "string":
            toks.append(Token("STRING", _ESCAPED.sub(r"\1", m.group("open")), at))
        elif group == "open":
            end = m.end()
            if end + 1 < len(text) and text[end] == "\\":
                raise ParseError(*_position(text, end),
                                 f"invalid escape '\\{text[end + 1]}' in string")
            raise ParseError(*_position(text, at), "unterminated string literal")
        else:
            raise ParseError(*_position(text, at), f"unexpected character {m.group()!r}")
    toks.append(Token("EOF", "", len(text)))
    return toks


# ── Parser ───────────────────────────────────────────────────────────

class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0
        # offsets of the newlines, for the line of each logging statement
        self.newlines = [m.start() for m in re.finditer("\n", text)]

    def _cur(self) -> Token:
        return self.toks[self.pos]

    def _advance(self) -> Token:
        tok = self.toks[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def _error(self, message: str, at: int | None = None) -> ParseError:
        if at is None:
            at = self._cur().at
        return ParseError(*_position(self.text, at), message)

    def _expect(self, kind: str) -> Token:
        """Consume the keyword or punctuation `kind`."""
        tok = self._cur()
        if tok.kind != kind:
            raise self._error(f"expected '{kind}', found {tok.text or 'end of file'!r}")
        return self._advance()

    def _expect_ident(self, what: str = "identifier") -> Token:
        tok = self._cur()
        if tok.kind != "IDENT":
            raise self._error(f"expected {what}, found {tok.text or 'end of file'!r}")
        return self._advance()

    def _at(self, kind: str) -> bool:
        return self._cur().kind == kind

    # unit := { annot? method }
    def parse_unit(self) -> list[AstMethod]:
        methods: list[AstMethod] = []
        seen: dict[str, int] = {}
        while self._cur().kind != "EOF":
            component = None
            if self._at("component"):
                self._advance()
                tok = self._cur()
                if tok.kind != "STRING":
                    raise self._error("expected component name string")
                component = tok.text
                self._advance()
            name_tok = self._cur()
            method = self._parse_method(component)
            if method.name in seen:
                raise self._error(f"duplicate method name '{method.name}'", name_tok.at)
            seen[method.name] = 1
            methods.append(method)
        return methods

    # method := "void" IDENT "(" ")" block
    def _parse_method(self, component: str | None) -> AstMethod:
        self._expect("void")
        name = self._expect_ident("method name").text
        self._expect("(")
        self._expect(")")
        body = self._parse_block()
        return AstMethod(name, body, component)

    def _parse_block(self) -> tuple[Statement, ...]:
        self._expect("{")
        stmts: list[Statement] = []
        while not self._at("}"):
            if self._cur().kind == "EOF":
                raise self._error("expected '}', found end of file")
            stmts.append(self._parse_statement())
        self._advance()
        return tuple(stmts)

    def _parse_statement(self) -> Statement:
        if self._at("log"):
            return self._parse_log()
        if self._at("if"):
            return self._parse_if()
        if self._at("while"):
            return self._parse_while()
        if self._at("return"):
            self._advance()
            self._expect(";")
            return Return()
        tok = self._cur()
        if tok.kind != "IDENT":
            raise self._error(f"expected statement, found {tok.text or 'end of file'!r}")
        self._advance()
        if self._at("("):
            self._advance()
            self._expect(")")
            self._expect(";")
            return Invoke(tok.text)
        if self._at("="):
            self._advance()
            val = self._cur()
            if val.kind != "STRING":
                raise self._error("expected string literal on right-hand side")
            self._advance()
            self._expect(";")
            return Assign(tok.text, val.text)
        raise self._error("expected '(' or '=' after identifier")

    # log := "log" "(" LEVEL "," part { "+" part } ")" ";"
    def _parse_log(self) -> LogCall:
        kw = self._expect("log")
        self._expect("(")
        level_tok = self._cur()
        if level_tok.kind != "IDENT" or level_tok.text not in LEVELS:
            raise self._error("expected log level (info, warn, or error)")
        self._advance()
        self._expect(",")
        parts: list[StrLit | VarRef] = [self._parse_part()]
        while self._at("+"):
            self._advance()
            parts.append(self._parse_part())
        self._expect(")")
        self._expect(";")
        return LogCall(level_tok.text, tuple(parts),
                       line=bisect_left(self.newlines, kw.at) + 1)

    def _parse_part(self) -> StrLit | VarRef:
        tok = self._cur()
        if tok.kind == "STRING":
            self._advance()
            return StrLit(tok.text)
        if tok.kind == "IDENT":
            self._advance()
            return VarRef(tok.text)
        raise self._error("expected string literal or variable in log message")

    def _parse_if(self) -> If:
        self._expect("if")
        self._expect("(")
        cond = self._parse_cond()
        self._expect(")")
        then = self._parse_block()
        orelse = None
        if self._at("else"):
            self._advance()
            orelse = self._parse_block()
        return If(cond, then, orelse)

    def _parse_while(self) -> While:
        self._expect("while")
        self._expect("(")
        cond = self._parse_cond()
        self._expect(")")
        body = self._parse_block()
        return While(cond, body)

    # cond := "true" | "false" | [ "!" ] IDENT
    def _parse_cond(self) -> Condition:
        if self._at("true"):
            self._advance()
            return COND_TRUE
        if self._at("false"):
            self._advance()
            return COND_FALSE
        negated = False
        if self._at("!"):
            self._advance()
            negated = True
        name = self._expect_ident("condition variable").text
        return Condition(name, negated)


def parse_unit(source: SourceUnit) -> list[AstMethod]:
    """Parse one source unit into its method declarations, in order.

    Raises ParseError at the first syntax error; duplicate method names
    are also a ParseError.
    """
    return _Parser(source.text).parse_unit()


def parse_units(sources: list[SourceUnit]) -> list[AstMethod]:
    """Parse several units; method names must be unique across all of them.
    Errors carry the offending unit's path."""
    methods: list[AstMethod] = []
    seen: dict[str, str] = {}
    for src in sources:
        try:
            parsed = parse_unit(src)
        except ParseError as exc:
            raise ParseError(exc.line, exc.column, exc.message,
                             path=src.path) from None
        for m in parsed:
            if m.name in seen:
                raise ParseError(
                    1, 1, f"duplicate method name '{m.name}' "
                    f"(already declared in {seen[m.name]})", path=src.path,
                )
            seen[m.name] = src.path
            methods.append(m)
    return methods
