"""Lexer for the XPath subset of Figure 3.

The token stream is deliberately small: path separators, names, the
``@`` attribute marker, bracketed predicates, comparison operators,
literals, and the handful of zero-argument functions (``text()`` and the
aggregates).  The paper's ``contains`` operator is lexed as an operator
token when it appears in operator position (the parser decides; here it
is just a NAME followed by special handling, see ``_looks_like_op``).
"""

from __future__ import annotations

import re
from enum import Enum
from typing import List, NamedTuple, Optional

from repro.errors import XPathSyntaxError


class TokenKind(Enum):
    SLASH = "/"
    DSLASH = "//"
    NAME = "name"
    STAR = "*"
    AT = "@"
    LBRACKET = "["
    RBRACKET = "]"
    LPAREN = "("
    RPAREN = ")"
    PIPE = "|"
    FUNC = "func"          # name immediately followed by "()"
    OP = "op"              # > >= = < <= != contains
    STRING = "string"
    NUMBER = "number"
    END = "end"


class Token(NamedTuple):
    kind: TokenKind
    value: str
    position: int

    def __repr__(self):
        return "Token(%s, %r, @%d)" % (self.kind.name, self.value,
                                       self.position)


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.\-]*")
_NUMBER_RE = re.compile(r"-?\d+(?:\.\d+)?")
_WS_RE = re.compile(r"\s+")

#: Multi-character operators must be tried before their prefixes.
_OPERATORS = (">=", "<=", "!=", ">", "<", "=")

#: Functions allowed by the grammar (predicate FO and output O).
KNOWN_FUNCTIONS = ("text", "count", "sum", "avg", "min", "max", "last",
                   "position")

#: Reverse axes from full XPath; recognized only to give a clear
#: "unsupported" diagnostic rather than a confusing parse error.
REVERSE_AXES = ("preceding-sibling", "preceding", "ancestor",
                "ancestor-or-self", "parent")


def tokenize_query(query: str) -> List[Token]:
    """Tokenize ``query``; raise :class:`XPathSyntaxError` on bad input.

    >>> print(" ".join(t.kind.name for t in tokenize_query("/a[@id=1]")))
    SLASH NAME LBRACKET AT NAME OP NUMBER RBRACKET END
    """
    tokens: List[Token] = []
    pos = 0
    n = len(query)
    while pos < n:
        ch = query[pos]
        ws = _WS_RE.match(query, pos)
        if ws:
            pos = ws.end()
            continue
        if ch == "/":
            if query.startswith("//", pos):
                tokens.append(Token(TokenKind.DSLASH, "//", pos))
                pos += 2
            else:
                tokens.append(Token(TokenKind.SLASH, "/", pos))
                pos += 1
            continue
        if ch == "*":
            tokens.append(Token(TokenKind.STAR, "*", pos))
            pos += 1
            continue
        if ch == "@":
            tokens.append(Token(TokenKind.AT, "@", pos))
            pos += 1
            continue
        if ch == "[":
            tokens.append(Token(TokenKind.LBRACKET, "[", pos))
            pos += 1
            continue
        if ch == "]":
            tokens.append(Token(TokenKind.RBRACKET, "]", pos))
            pos += 1
            continue
        if ch == "|":
            tokens.append(Token(TokenKind.PIPE, "|", pos))
            pos += 1
            continue
        if ch == "(":
            tokens.append(Token(TokenKind.LPAREN, "(", pos))
            pos += 1
            continue
        if ch == ")":
            tokens.append(Token(TokenKind.RPAREN, ")", pos))
            pos += 1
            continue
        matched_op = _match_operator(query, pos)
        if matched_op:
            tokens.append(Token(TokenKind.OP, matched_op, pos))
            pos += len(matched_op)
            continue
        if ch in ("'", '"'):
            end = query.find(ch, pos + 1)
            if end == -1:
                raise XPathSyntaxError("unterminated string literal",
                                       query=query, position=pos)
            tokens.append(Token(TokenKind.STRING, query[pos + 1:end], pos))
            pos = end + 1
            continue
        num = _NUMBER_RE.match(query, pos)
        if num and not _NAME_RE.match(query, pos):
            tokens.append(Token(TokenKind.NUMBER, num.group(), pos))
            pos = num.end()
            continue
        name = _NAME_RE.match(query, pos)
        if name:
            word = name.group()
            after = name.end()
            if word == "contains" and _in_operator_position(tokens):
                tokens.append(Token(TokenKind.OP, "contains", pos))
                pos = after
                continue
            if query.startswith("()", after):
                tokens.append(Token(TokenKind.FUNC, word, pos))
                pos = after + 2
                continue
            if query.startswith("::", after):
                # axis::name syntax; surfaced to the parser as a NAME with
                # the axis prefix so it can reject reverse axes clearly.
                tokens.append(Token(TokenKind.NAME, word + "::", pos))
                pos = after + 2
                continue
            if query.startswith(":", after):
                # Namespace-prefixed name (dc:title).  Prefixes are
                # opaque here — XSQ is namespace-unaware, matching tags
                # textually like the paper's system.
                local = _NAME_RE.match(query, after + 1)
                if local is None:
                    raise XPathSyntaxError(
                        "expected a local name after %r:" % word,
                        query=query, position=after)
                word = "%s:%s" % (word, local.group())
                after = local.end()
            tokens.append(Token(TokenKind.NAME, word, pos))
            pos = after
            continue
        raise XPathSyntaxError("unexpected character %r" % ch,
                               query=query, position=pos)
    tokens.append(Token(TokenKind.END, "", n))
    return tokens


def _match_operator(query: str, pos: int) -> Optional[str]:
    for op in _OPERATORS:
        if query.startswith(op, pos):
            return op
    return None


def _in_operator_position(tokens: List[Token]) -> bool:
    """True when the previous token can be the left operand of an OP.

    Distinguishes the ``contains`` *operator* (``[text() contains 'x']``)
    from an element that happens to be named ``contains``
    (``/contains/text()``).
    """
    if not tokens:
        return False
    prev = tokens[-1]
    return prev.kind in (TokenKind.FUNC, TokenKind.NAME)
