"""Unit tests for the xml.sax pull producer and the chunks it is fed."""

import io

import pytest

from repro.errors import StreamError
from repro.streaming.sax_source import parse_events
from repro.streaming.source import STREAM, coerce_source


def kinds(xml, **kwargs):
    return [e.kind for e in parse_events(xml, **kwargs)]


class TestBasicParsing:
    def test_single_element(self):
        events = list(parse_events("<a/>"))
        assert [e.kind for e in events] == ["begin", "end"]
        assert events[0].tag == events[1].tag == "a"
        assert events[0].depth == events[1].depth == 1

    def test_nested_depths(self):
        events = list(parse_events("<a><b><c/></b></a>"))
        begins = {e.tag: e.depth for e in events if e.kind == "begin"}
        assert begins == {"a": 1, "b": 2, "c": 3}

    def test_attributes(self):
        events = list(parse_events('<a x="1" y="two"/>'))
        assert events[0].attrs == {"x": "1", "y": "two"}

    def test_text_event_tag_and_depth(self):
        events = list(parse_events("<a><b>hello</b></a>"))
        text = [e for e in events if e.kind == "text"][0]
        assert text.tag == "b"
        assert text.text == "hello"
        assert text.depth == 2

    def test_whitespace_only_text_dropped(self):
        assert kinds("<a>\n  <b/>\n</a>") == ["begin", "begin", "end", "end"]

    def test_mixed_content_order(self):
        events = list(parse_events("<a>x<b>y</b>z</a>"))
        assert [e.kind for e in events] == [
            "begin", "text", "begin", "text", "end", "text", "end"]
        assert [e.text for e in events if e.kind == "text"] == ["x", "y", "z"]

    def test_entities_decoded(self):
        events = list(parse_events("<a>&lt;tag&gt; &amp; more</a>"))
        text = [e for e in events if e.kind == "text"][0]
        assert text.text == "<tag> & more"

    def test_adjacent_character_chunks_coalesced(self):
        # Long text forces expat to split callbacks; one TextEvent results.
        body = "word " * 50_000
        events = list(parse_events("<a>%s</a>" % body))
        texts = [e for e in events if e.kind == "text"]
        assert len(texts) == 1
        assert texts[0].text == body


class TestInputKinds:
    def test_bytes_input(self):
        assert kinds(b"<a><b/></a>") == ["begin", "begin", "end", "end"]

    def test_file_object_input(self):
        stream = io.BytesIO(b"<a>t</a>")
        assert kinds(stream) == ["begin", "text", "end"]

    def test_path_input(self, tmp_path):
        path = tmp_path / "doc.xml"
        path.write_text("<a><b>x</b></a>")
        assert kinds(str(path)) == ["begin", "begin", "text", "end", "end"]

    def test_markup_string_preferred_over_path(self):
        # A string starting with '<' is always markup, never a filename.
        assert kinds("<a/>") == ["begin", "end"]

    def test_missing_file_raises(self):
        with pytest.raises(StreamError):
            list(parse_events("no/such/file.xml"))

    def test_small_chunk_sizes(self):
        xml = '<a x="12"><b>some text</b><c/></a>'
        expected = list(parse_events(xml))
        for chunk_size in (1, 2, 3, 7, 16):
            assert list(parse_events(xml, chunk_size=chunk_size)) == expected

    def test_bytearray_input(self):
        assert kinds(bytearray(b"<a><b/></a>")) == [
            "begin", "begin", "end", "end"]

    def test_memoryview_input(self):
        assert kinds(memoryview(b"<a>t</a>")) == ["begin", "text", "end"]

    def test_memoryview_chunked_reads_avoid_full_copy(self):
        # The buffer reader slices lazily: the same events come out
        # regardless of chunk size, without an up-front BytesIO copy.
        raw = b'<a x="12"><b>some &amp; text</b><c/></a>'
        expected = list(parse_events(raw))
        for chunk_size in (1, 3, 16):
            got = list(parse_events(memoryview(raw),
                                    chunk_size=chunk_size))
            assert got == expected

    def test_coerce_source_classifies_bytes_like(self):
        for source in (b"<a/>", bytearray(b"<a/>"),
                       memoryview(b"<a/>")):
            coerced = coerce_source(source)
            assert coerced.kind == STREAM
            assert b"".join(coerced.chunks(3)) == b"<a/>"


class TestErrors:
    def test_mismatched_tags_raise(self):
        with pytest.raises(StreamError):
            list(parse_events("<a><b></a></b>"))

    def test_unclosed_document_raises(self):
        with pytest.raises(StreamError):
            list(parse_events("<a><b>"))

    def test_garbage_raises(self):
        with pytest.raises(StreamError):
            list(parse_events("<a>&undefined;</a>"))

    def test_unsupported_input_type(self):
        with pytest.raises(StreamError):
            list(parse_events(12345))  # type: ignore[arg-type]


class TestStreamingBehaviour:
    def test_events_available_before_document_ends(self):
        # Feed a document whose tail would fail; the prefix must still
        # have been yielded before the error surfaces.
        xml = "<a><b>x</b>" + "<c></c>" * 10  # never closes <a>
        source = parse_events(xml, chunk_size=4)
        seen = []
        with pytest.raises(StreamError):
            for event in source:
                seen.append(event.kind)
        assert seen[:3] == ["begin", "begin", "text"]
