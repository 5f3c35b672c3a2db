"""One rule for ``str`` input: it is text.

A ``str`` document, a text-mode stream and ``str`` chunks all reach
expat as text, which is never re-decoded by the encoding the XML
declaration names; only ``bytes`` are.  A document that declares
ISO-8859-1 must therefore read the same whatever container carries it
and whichever mode runs it, and the same as the pure-Python tokenizer
reads it.
"""

import io

import pytest

import repro
from repro.baselines.dom import build_dom, evaluate
from repro.parallel import run_bulk
from repro.streaming.sax_source import parse_events
from repro.streaming.textparser import tokenize_xml

DOC = '<?xml version="1.0" encoding="ISO-8859-1"?><a>café</a>'
QUERY = "/a/text()"
EXPECTED = [event.text for event in tokenize_xml(DOC)
            if event.kind == "text"]

#: Fresh containers of the same document (a stream is read once).
CONTAINERS = {
    "str": lambda: DOC,
    "StringIO": lambda: io.StringIO(DOC),
    "str-chunks": lambda: [DOC[i:i + 3] for i in range(0, len(DOC), 3)],
    "latin-1-bytes": lambda: DOC.encode("latin-1"),
}


def test_expected_value_is_the_declared_text():
    assert EXPECTED == ["café"]


@pytest.mark.parametrize("container", sorted(CONTAINERS))
@pytest.mark.parametrize("engine", ["fast", "nc", "f"])
def test_single_query_engines(engine, container):
    compiled = repro.compile(QUERY, engine=engine)
    assert compiled.run(CONTAINERS[container]()) == EXPECTED


@pytest.mark.parametrize("container", sorted(CONTAINERS))
def test_query_set(container):
    compiled = repro.compile([QUERY, "//a/text()"])
    assert compiled.run(CONTAINERS[container]()) == [EXPECTED, EXPECTED]


@pytest.mark.parametrize("container", sorted(CONTAINERS))
def test_union(container):
    compiled = repro.compile(QUERY + " | /a/b/text()")
    assert compiled.run(CONTAINERS[container]()) == EXPECTED


@pytest.mark.parametrize("container", sorted(CONTAINERS))
def test_bulk(container):
    bulk = run_bulk(QUERY, [CONTAINERS[container]()], workers=1)
    assert bulk.results() == [EXPECTED]


@pytest.mark.parametrize("container", sorted(CONTAINERS))
def test_dom_oracle(container):
    source = CONTAINERS[container]()
    if not isinstance(source, (str, bytes)):
        source = parse_events(source)
    assert evaluate(build_dom(source), QUERY) == EXPECTED


@pytest.mark.parametrize("document", [DOC, DOC.encode("latin-1")],
                         ids=["str", "latin-1-bytes"])
@pytest.mark.parametrize("engine", ["fast", "nc", "f"])
def test_push_at_every_split(engine, document):
    compiled = repro.compile(QUERY, engine=engine)
    for split in range(len(document) + 1):
        session = compiled.push()
        out = session.feed(document[:split])
        out += session.feed(document[split:])
        out += session.finish()
        assert out == EXPECTED, split


class TestMixedChunks:
    """One push session may mix ``str`` and ``bytes``: the first chunk
    fixes the encoding (UTF-8 after a ``str``, the declared one after
    ``bytes``) and later chunks are read in it, a ``str`` one as its
    UTF-8 bytes."""

    def feed(self, chunks):
        session = repro.compile(QUERY).push()
        out = []
        for chunk in chunks:
            out += session.feed(chunk)
        return out + session.finish()

    def test_undeclared_document_mixes_freely(self):
        doc = "<a>café</a>"
        for split in range(len(doc) + 1):
            head, tail = doc[:split], doc[split:]
            assert self.feed([head.encode(), tail]) == ["café"]
            assert self.feed([head, tail.encode()]) == ["café"]

    def test_str_first_fixes_utf8(self):
        head, tail = DOC.split("é")
        assert self.feed([head, "é".encode(), tail]) == ["café"]
