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

The lexer splits a unit's text with one compiled pattern and keeps its
tokens in three flat lists: kinds, texts and offsets.  The parser walks
those lists with an integer cursor and keeps the open blocks of a method
on an explicit stack, so nesting depth is bounded by memory, not by
Python's recursion limit.  Positions are computed from offsets only for
an error or a logging statement's line.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate

from .errors import LogsynthError
from .model import GUARD_FALSE, GUARD_TRUE, LEVELS, AssignAct, Guard, Literal, LoggingStatement, Var

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
# Statement leaves are model values, which lowering places without
# conversion: a `LoggingStatement` of `Literal` and `Var` parts, an
# `AssignAct`, and the `Guard` of an if's or while's taken edge.

@dataclass(frozen=True)
class Invoke:
    target: str


@dataclass(frozen=True)
class If:
    cond: Guard
    then: tuple["Statement", ...]
    orelse: tuple["Statement", ...] | None = None


@dataclass(frozen=True)
class While:
    cond: Guard
    body: tuple["Statement", ...]


@dataclass(frozen=True)
class Return:
    pass


Statement = LoggingStatement | Invoke | AssignAct | If | While | Return


@dataclass(frozen=True)
class AstMethod:
    name: str
    body: tuple[Statement, ...]
    component: str | None = None


# ── Lexer ────────────────────────────────────────────────────────────

# One group captures every token: a `//` comment, a word, a punctuation
# character or a whole string literal, whose body takes any character
# but `"`, `\` and a newline, or one of the escapes `\"` and `\\`.
# `re.split` leaves what lies between two tokens at the even positions
# of its result, and the text lexes when all of that is whitespace.
_TOKEN = re.compile(r'(//[^\n]*|\w+|[{}();=+!,]|"[^"\\\n]*(?:\\["\\][^"\\\n]*)*")')
_OPEN_STRING = re.compile(r'"[^"\\\n]*(?:\\["\\][^"\\\n]*)*')
_ESCAPED = re.compile(r"\\(.)")
_BLANK = " \t\r\n"
_KINDS = {word: word for word in (*KEYWORDS, *"{}();=+!,")}


def _position(text: str, at: int) -> tuple[int, int]:
    """The 1-based line and column of offset `at` in `text`."""
    line_start = text.rfind("\n", 0, at) + 1
    return text.count("\n", 0, line_start) + 1, at - line_start + 1


def _lex_error(text: str, at: int) -> ParseError:
    """The error for the character at `at`, which starts no token: a
    string without its closing quote, or a character no token takes."""
    if text[at] == '"':
        end = _OPEN_STRING.match(text, at).end()
        if end + 1 < len(text) and text[end] == "\\":
            return ParseError(*_position(text, end),
                              f"invalid escape '\\{text[end + 1]}' in string")
        return ParseError(*_position(text, at), "unterminated string literal")
    return ParseError(*_position(text, at), f"unexpected character {text[at]!r}")


def _tokenize(text: str) -> tuple[list[str], list[str], list[int]]:
    """The kinds, texts and offsets of `text`'s tokens, ending with an
    EOF token at len(text).  A kind is IDENT, STRING, EOF, or the text of
    a keyword or punctuation; a string's text is its unescaped body."""
    pieces = _TOKEN.split(text)
    starts = list(accumulate(map(len, pieces), initial=0))
    bad = len(text)  # the first character outside every token
    if "".join(pieces[0::2]).strip(_BLANK):
        for g in range(0, len(pieces), 2):
            rest = pieces[g].lstrip(_BLANK)
            if rest:
                bad = starts[g + 1] - len(rest)
                break
    kinds: list[str] = []
    texts: list[str] = []
    offsets: list[int] = []
    for piece, at in zip(pieces[1::2], starts[1::2]):
        kind = _KINDS.get(piece)
        if kind is None:
            first = piece[0]
            if first == '"':
                kind = "STRING"
                piece = piece[1:-1]
                if "\\" in piece:
                    piece = _ESCAPED.sub(r"\1", piece)
            elif first == "/":
                continue
            elif first.isalpha() or first == "_":
                kind = "IDENT"
            else:  # \w also matches digits and other numerals
                raise _lex_error(text, min(at, bad))
        kinds.append(kind)
        texts.append(piece)
        offsets.append(at)
    if bad < len(text):
        raise _lex_error(text, bad)
    kinds.append("EOF")
    texts.append("")
    offsets.append(len(text))
    return kinds, texts, offsets


# ── Parser ───────────────────────────────────────────────────────────

# token runs the parser checks with one comparison each
_PARAMS_AND_BODY = ["(", ")", "{"]
_COND_END = [")", "{"]
_CALL_END = [")", ";"]


def _parse(text: str) -> list[AstMethod]:
    """The methods of one unit, parsed on a cursor over the token lists.
    The open if, else and while blocks of a method wait on a stack, each
    with the statement list it will join when it closes."""
    kinds, texts, offsets = _tokenize(text)
    # offsets of the newlines, for the line of each logging statement
    newlines = [m.start() for m in re.finditer("\n", text)]

    def fail(message: str, i: int) -> ParseError:
        return ParseError(*_position(text, offsets[i]), message)

    def expected(what: str, i: int) -> ParseError:
        return fail(f"expected {what}, found {texts[i] or 'end of file'!r}", i)

    def mismatch(i: int, run: list[str]) -> ParseError:
        """The error for the first token from `i` on that breaks `run`."""
        while kinds[i] == run[0]:
            i += 1
            run = run[1:]
        return expected(f"'{run[0]}'", i)

    methods: list[AstMethod] = []
    names: set[str] = set()
    i = 0
    while kinds[i] != "EOF":
        component = None
        if kinds[i] == "component":
            if kinds[i + 1] != "STRING":
                raise fail("expected component name string", i + 1)
            component = texts[i + 1]
            i += 2
        start = i
        if kinds[i] != "void":
            raise expected("'void'", i)
        if kinds[i + 1] != "IDENT":
            raise expected("method name", i + 1)
        name = texts[i + 1]
        i += 2
        if kinds[i:i + 3] != _PARAMS_AND_BODY:
            raise mismatch(i, _PARAMS_AND_BODY)
        i += 3
        body: list[Statement] = []
        stmts = body  # the innermost open block's statements
        stack: list[tuple] = []  # (keyword, cond, outer stmts, then-block)
        while True:
            kind = kinds[i]
            if kind == "IDENT":
                follow = kinds[i + 1]
                if follow == "(":
                    if kinds[i + 2:i + 4] != _CALL_END:
                        raise mismatch(i + 2, _CALL_END)
                    stmts.append(Invoke(texts[i]))
                elif follow == "=":
                    if kinds[i + 2] != "STRING":
                        raise fail("expected string literal on right-hand side", i + 2)
                    if kinds[i + 3] != ";":
                        raise expected("';'", i + 3)
                    stmts.append(AssignAct(texts[i], texts[i + 2]))
                else:
                    raise fail("expected '(' or '=' after identifier", i + 1)
                i += 4
            elif kind == "log":
                if kinds[i + 1] != "(":
                    raise expected("'('", i + 1)
                level = texts[i + 2]
                if kinds[i + 2] != "IDENT" or level not in LEVELS:
                    raise fail("expected log level (info, warn, or error)", i + 2)
                if kinds[i + 3] != ",":
                    raise expected("','", i + 3)
                line = bisect_left(newlines, offsets[i]) + 1
                i += 4
                parts: list[Literal | Var] = []
                while True:
                    part = kinds[i]
                    if part == "STRING":
                        parts.append(Literal(texts[i]))
                    elif part == "IDENT":
                        parts.append(Var(texts[i]))
                    else:
                        raise fail("expected string literal or variable in log message", i)
                    if kinds[i + 1] != "+":
                        break
                    i += 2
                if kinds[i + 1:i + 3] != _CALL_END:
                    raise mismatch(i + 1, _CALL_END)
                i += 3
                stmts.append(LoggingStatement(level, tuple(parts), line=line))
            elif kind == "}":
                i += 1
                if not stack:
                    break
                keyword, cond, outer, then = stack.pop()
                block = tuple(stmts)
                stmts = outer
                if keyword == "while":
                    outer.append(While(cond, block))
                elif keyword == "else":
                    outer.append(If(cond, then, block))
                elif kinds[i] == "else":
                    if kinds[i + 1] != "{":
                        raise expected("'{'", i + 1)
                    i += 2
                    stack.append(("else", cond, outer, block))
                    stmts = []
                else:
                    outer.append(If(cond, block))
            elif kind == "if" or kind == "while":
                # cond := "true" | "false" | [ "!" ] IDENT
                if kinds[i + 1] != "(":
                    raise expected("'('", i + 1)
                i += 2
                if kinds[i] == "true":
                    cond = GUARD_TRUE
                elif kinds[i] == "false":
                    cond = GUARD_FALSE
                else:
                    value = kinds[i] != "!"
                    if not value:
                        i += 1
                    if kinds[i] != "IDENT":
                        raise expected("condition variable", i)
                    cond = Guard(texts[i], value)
                if kinds[i + 1:i + 3] != _COND_END:
                    raise mismatch(i + 1, _COND_END)
                i += 3
                stack.append((kind, cond, stmts, None))
                stmts = []
            elif kind == "return":
                if kinds[i + 1] != ";":
                    raise expected("';'", i + 1)
                i += 2
                stmts.append(Return())
            elif kind == "EOF":
                raise fail("expected '}', found end of file", i)
            else:
                raise expected("statement", i)
        if name in names:
            raise fail(f"duplicate method name '{name}'", start)
        names.add(name)
        methods.append(AstMethod(name, tuple(body), component))
    return methods


def parse_unit(source: SourceUnit) -> list[AstMethod]:
    """Parse one source unit into its method declarations, in order.

    Raises ParseError at the first syntax error; duplicate method names
    are also a ParseError.
    """
    return _parse(source.text)


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
