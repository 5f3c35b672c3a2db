"""Shared infrastructure for the dataset generators.

:class:`XmlWriter` produces well-formed XML into memory or a file with
automatic escaping and indentation-free output (whitespace between tags
would distort the text-size statistics of Figure 15).
:func:`dataset_statistics` computes the columns of that figure for any
generated dataset.
"""

from __future__ import annotations

import io
import random
from typing import IO, List, Optional, Union

from repro.streaming.sax_source import parse_events
from repro.streaming.serialize import escape_attr, escape_text

#: Word pool used across generators; sized so tag/text statistics are
#: stable and content is compressible like real prose.
WORDS = (
    "the of and a to in is was he for it with as his on be at by had not "
    "are but from or have an they which one you were her all she there "
    "would their we him been has when who will more no if out so said "
    "what up its about into than them can only other new some could time "
    "these two may then do first any my now such like our over man me "
    "even most made after also did many before must through years where "
    "much your way well down should because each just those people how "
    "too little state good very make world still own see men work long "
    "here get both between life being under never day same another know "
    "while last might us great old year off come since against go came "
    "right used take three love heart night sweet king queen lord lady "
    "sword crown blood honor grace noble fair"
).split()


class XmlWriter:
    """Streaming XML writer with an element stack.

    >>> w = XmlWriter()
    >>> _ = w.begin("a", id="1").text("x").end()
    >>> print(w.getvalue())
    <a id="1">x</a>
    """

    def __init__(self, out: Optional[IO] = None):
        self._out = out if out is not None else io.StringIO()
        self._own = out is None
        self._stack: List[str] = []
        self.bytes_written = 0

    def _write(self, text: str) -> None:
        self._out.write(text)
        self.bytes_written += len(text)

    def begin(self, tag: str, **attrs: str) -> "XmlWriter":
        parts = ["<", tag]
        for name, value in attrs.items():
            parts.append(' %s="%s"' % (name, escape_attr(str(value))))
        parts.append(">")
        self._write("".join(parts))
        self._stack.append(tag)
        return self

    def end(self) -> "XmlWriter":
        tag = self._stack.pop()
        self._write("</%s>" % tag)
        return self

    def text(self, content: str) -> "XmlWriter":
        self._write(escape_text(str(content)))
        return self

    def element(self, tag: str, content: str = "", **attrs: str) -> "XmlWriter":
        """Shorthand for begin/text/end."""
        self.begin(tag, **attrs)
        if content:
            self.text(content)
        return self.end()

    def newline(self) -> "XmlWriter":
        """Optional cosmetic newline (between top-level records only)."""
        self._write("\n")
        return self

    def close_all(self) -> "XmlWriter":
        while self._stack:
            self.end()
        return self

    def getvalue(self) -> str:
        if not self._own:
            raise ValueError("writer is bound to an external stream")
        return self._out.getvalue()


def sentence(rng: random.Random, n_words: int) -> str:
    """A pseudo-sentence of ``n_words`` pool words."""
    return " ".join(rng.choice(WORDS) for _ in range(n_words))


def finish(writer: XmlWriter, out: Optional[IO], path: Optional[str]
           ) -> Optional[str]:
    """Common generator epilogue: return the text or close the file."""
    writer.close_all()
    if path is not None:
        out.close()
        return None
    return writer.getvalue()


def open_target(path: Optional[str]):
    """Return (writer, stream) for in-memory or on-disk generation."""
    if path is None:
        return XmlWriter(), None
    stream = open(path, "w", encoding="utf-8")
    return XmlWriter(stream), stream


class DatasetStats:
    """The Figure 15 columns for one dataset."""

    __slots__ = ("size_bytes", "text_bytes", "element_count",
                 "avg_depth", "max_depth", "avg_tag_length")

    def __init__(self, size_bytes: int, text_bytes: int, element_count: int,
                 avg_depth: float, max_depth: int, avg_tag_length: float):
        self.size_bytes = size_bytes
        self.text_bytes = text_bytes
        self.element_count = element_count
        self.avg_depth = avg_depth
        self.max_depth = max_depth
        self.avg_tag_length = avg_tag_length

    def row(self, name: str) -> str:
        """One formatted row in the Figure 15 layout."""
        return "%-8s %8.2fMB %8.2fMB %10d %8.2f/%-3d %8.2f" % (
            name, self.size_bytes / 1e6, self.text_bytes / 1e6,
            self.element_count, self.avg_depth, self.max_depth,
            self.avg_tag_length)

    def __repr__(self):
        return ("DatasetStats(size=%d, text=%d, elements=%d, "
                "avg_depth=%.2f, max_depth=%d, avg_tag=%.2f)"
                % (self.size_bytes, self.text_bytes, self.element_count,
                   self.avg_depth, self.max_depth, self.avg_tag_length))


def dataset_statistics(source: Union[str, bytes]) -> DatasetStats:
    """Compute Figure 15's dataset description columns.

    ``avg_depth`` averages over elements; ``text_bytes`` counts
    character-data bytes only.
    """
    if isinstance(source, str) and source.lstrip()[:1] != "<":
        import os
        size_bytes = os.path.getsize(source)
    else:
        size_bytes = len(source)
    text_bytes = 0
    element_count = 0
    depth_total = 0
    max_depth = 0
    tag_length_total = 0
    for event in parse_events(source):
        if event.kind == "begin":
            element_count += 1
            depth_total += event.depth
            if event.depth > max_depth:
                max_depth = event.depth
            tag_length_total += len(event.tag)
        elif event.kind == "text":
            text_bytes += len(event.text)
    if element_count == 0:
        raise ValueError("empty dataset")
    return DatasetStats(
        size_bytes=size_bytes,
        text_bytes=text_bytes,
        element_count=element_count,
        avg_depth=depth_total / element_count,
        max_depth=max_depth,
        avg_tag_length=tag_length_total / element_count,
    )
