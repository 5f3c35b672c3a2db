"""A self-contained pure-Python incremental XML tokenizer.

This is the repository's second, independent event source.  It exists
for two reasons:

1. Differential testing: every document used in tests is parsed by both
   this tokenizer and expat and the event sequences must agree.
2. It gives a reference with zero reliance on expat behaviour (entity
   handling, buffer splits).

The Section 6.2 parse-only baseline is the ``xml.sax`` producer
(:class:`~repro.baselines.pureparser.PureParser`), not this tokenizer.

Scope: well-formed XML 1.0 documents with elements, attributes, text,
comments, CDATA sections, processing instructions, an optional XML
declaration/DOCTYPE, and the five predefined entities plus numeric
character references.  That covers every dataset generated in
:mod:`repro.datagen` and the paper's corpora.
"""

from __future__ import annotations

import io
import re
import sys
from typing import IO, Iterator, List, Union

from repro.errors import StreamError
from repro.streaming.events import BeginEvent, EndEvent, Event, TextEvent

_NAME = r"[A-Za-z_:][A-Za-z0-9_.:\-]*"
_ATTR_RE = re.compile(
    r"\s+(%s)\s*=\s*(\"[^\"]*\"|'[^']*')" % _NAME)
_OPEN_TAG_RE = re.compile(
    r"<(%s)((?:\s+%s\s*=\s*(?:\"[^\"]*\"|'[^']*'))*)\s*(/?)>" % (_NAME, _NAME))
_CLOSE_TAG_RE = re.compile(r"</(%s)\s*>" % _NAME)
_ENTITY_RE = re.compile(r"&(#x?[0-9A-Fa-f]+|[A-Za-z]+);")

_PREDEFINED_ENTITIES = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "quot": '"',
    "apos": "'",
}


def _decode_entities(text: str) -> str:
    """Expand predefined entities and numeric character references."""
    if "&" not in text:
        return text

    def replace(match):
        body = match.group(1)
        if body.startswith("#x") or body.startswith("#X"):
            return chr(int(body[2:], 16))
        if body.startswith("#"):
            return chr(int(body[1:]))
        try:
            return _PREDEFINED_ENTITIES[body]
        except KeyError:
            raise StreamError("undefined entity: &%s;" % body) from None

    return _ENTITY_RE.sub(replace, text)


def _parse_attrs(raw: str) -> dict:
    attrs = {}
    for match in _ATTR_RE.finditer(raw):
        # sys.intern: attribute names recur on every element of a
        # dataset, and interned keys make the engines' dict probes
        # pointer comparisons instead of character scans.
        name = sys.intern(match.group(1))
        value = match.group(2)[1:-1]
        attrs[name] = _decode_entities(value)
    return attrs


class _Starved(Exception):
    """Internal: the current token is incomplete; more input is needed."""


class TextEventSource:
    """Incremental pure-Python event source.

    The tokenizer keeps only the unconsumed tail of the input in memory,
    so arbitrarily large documents stream in constant space (bounded by
    the largest single token — one tag, or one run of text between
    tags).
    """

    def __init__(self, source: Union[str, bytes, bytearray, memoryview, IO],
                 chunk_size: int = 64 * 1024):
        if isinstance(source, (bytes, bytearray, memoryview)):
            self._stream: IO = io.StringIO(bytes(source).decode("utf-8"))
        elif isinstance(source, str):
            import os
            if source.lstrip()[:1] != "<" and os.path.exists(source):
                if source.endswith(".gz"):
                    import gzip
                    self._stream = gzip.open(source, "rt",
                                             encoding="utf-8")
                else:
                    self._stream = open(source, "r", encoding="utf-8")
            else:
                self._stream = io.StringIO(source)
        elif hasattr(source, "read"):
            self._stream = source
        else:
            raise StreamError("unsupported XML input type: %r" % type(source))
        self._chunk_size = chunk_size

    def __iter__(self) -> Iterator[Event]:
        self._buf = ""
        self._pos = 0
        self._eof = False
        depth = 0
        tag_stack: List[str] = []
        try:
            while True:
                try:
                    token = self._next_token(bool(tag_stack))
                except _Starved:
                    # Refill and retry; once EOF is set no token path
                    # starves again, so this cannot loop forever.
                    self._read_more()
                    continue
                if token is None:
                    break
                kind, payload = token
                if kind == "text":
                    if tag_stack:
                        yield TextEvent(tag_stack[-1], payload, depth)
                    elif payload.strip():
                        raise StreamError("text outside document element")
                elif kind == "begin":
                    tag, attrs, self_closing = payload
                    depth += 1
                    yield BeginEvent(tag, attrs, depth)
                    if self_closing:
                        yield EndEvent(tag, depth)
                        depth -= 1
                    else:
                        tag_stack.append(tag)
                elif kind == "end":
                    if not tag_stack:
                        raise StreamError(
                            "close tag %r with no open element" % payload)
                    yield EndEvent(payload, depth)
                    depth -= 1
                    tag_stack.pop()
        finally:
            self._stream.close()
        if tag_stack:
            raise StreamError("document ended with open elements: %s"
                              % "/".join(tag_stack))

    def _read_more(self) -> bool:
        """Append one chunk to the buffer; return False at end of input."""
        if self._eof:
            return False
        if self._pos:
            self._buf = self._buf[self._pos:]
            self._pos = 0
        chunk = self._stream.read(self._chunk_size)
        if isinstance(chunk, bytes):
            chunk = chunk.decode("utf-8")
        if not chunk:
            self._eof = True
            return False
        self._buf += chunk
        return True

    def _next_token(self, inside_element: bool):
        """Return the next ('text'|'begin'|'end', payload) token.

        Returns ``None`` at clean end of document.  Raises
        :class:`_Starved` when the buffer ends mid-token; the caller
        refills and retries.  Markup that produces no event (comments,
        PIs, declarations) is consumed by looping here rather than
        returning to the caller.
        """
        while True:
            buf, pos = self._buf, self._pos
            if pos >= len(buf):
                if self._eof:
                    return None
                raise _Starved()

            lt = buf.find("<", pos)
            if lt != 0 and lt != pos:
                if lt == -1:
                    if not self._eof:
                        raise _Starved()
                    text = buf[pos:]
                    self._pos = len(buf)
                    if not text.strip():
                        return self._next_token(inside_element)
                    return ("text", _decode_entities(text))
                text = buf[pos:lt]
                self._pos = lt
                if inside_element and text.strip():
                    return ("text", _decode_entities(text))
                if not inside_element and text.strip():
                    raise StreamError("text outside document element")
                continue

            head = buf[pos:pos + 9]
            if len(head) < 9 and not self._eof and len(buf) - pos < 9:
                raise _Starved()
            if head.startswith("<!--"):
                end = buf.find("-->", pos + 4)
                if end == -1:
                    if self._eof:
                        raise StreamError("unterminated comment")
                    raise _Starved()
                self._pos = end + 3
                continue
            if head.startswith("<![CDATA["):
                end = buf.find("]]>", pos + 9)
                if end == -1:
                    if self._eof:
                        raise StreamError("unterminated CDATA section")
                    raise _Starved()
                content = buf[pos + 9:end]
                self._pos = end + 3
                if inside_element and content:
                    return ("text", content)
                continue
            if head.startswith("<?") or head.startswith("<!"):
                end = buf.find(">", pos + 2)
                if end == -1:
                    if self._eof:
                        raise StreamError("unterminated declaration")
                    raise _Starved()
                self._pos = end + 1
                continue
            if head.startswith("</"):
                match = _CLOSE_TAG_RE.match(buf, pos)
                if match is None:
                    if buf.find(">", pos) == -1 and not self._eof:
                        raise _Starved()
                    raise StreamError(
                        "malformed close tag near %r" % buf[pos:pos + 40])
                self._pos = match.end()
                return ("end", sys.intern(match.group(1)))

            match = _OPEN_TAG_RE.match(buf, pos)
            if match is None:
                if buf.find(">", pos) == -1 and not self._eof:
                    raise _Starved()
                raise StreamError("malformed tag near %r" % buf[pos:pos + 40])
            # Interned tags collapse every downstream tag comparison
            # (step matching, dispatch routing, TagTable probes) to a
            # pointer check; a dataset has few distinct tags, so the
            # intern table stays tiny.
            tag = sys.intern(match.group(1))
            attrs = _parse_attrs(match.group(2)) if match.group(2) else {}
            self._pos = match.end()
            return ("begin", (tag, attrs, bool(match.group(3))))


def tokenize_xml(source: Union[str, bytes, IO]) -> Iterator[Event]:
    """Yield events from ``source`` using the pure-Python tokenizer.

    >>> [e.kind for e in tokenize_xml('<a x="1"><b/>t</a>')]
    ['begin', 'begin', 'end', 'text', 'end']
    """
    return iter(TextEventSource(source))
