"""Text coalescing at the parser boundaries.

The batch producer (``PushBatchParser.batches`` over a source's
``chunks()``, what ``coerce_source(...).batches()`` runs) must deliver
exactly the event stream the ``xml.sax`` producer (``parse_events``)
delivers over the same chunks — one TEXT tuple per run of text,
flushed only at element boundaries — no matter where the input is
split: CDATA sections, entity references, comments interrupting a text
run, or plain text cut by a tiny read-chunk size.  The fast path
consumes batches; the interpreted engines consume events; both must
see the same document.  The pure-Python tokenizer (``TextEventSource``,
the independent reference parser) yields events only; its stream, put
through the ``batch_events`` adapter a batch-fed session applies to
plain events, must describe the same document at any read-chunk size.
"""

import pytest

from repro.streaming.events import BEGIN, END, TEXT, batch_events
from repro.streaming.push import DEFAULT_BATCH_SIZE, PushBatchParser
from repro.streaming.sax_source import parse_events
from repro.streaming.source import DEFAULT_CHUNK_SIZE, coerce_source
from repro.streaming.textparser import TextEventSource
from repro.xsq.fastpath import TagTable

DOCS = {
    "cdata": "<a><x><![CDATA[hello <world> & ]]&gt; stuff]]></x></a>",
    "cdata-adjacent-text": "<a><x>pre<![CDATA[ mid <&> ]]>post</x></a>",
    "entities": "<a><x>one &amp; two &lt;three&gt; &#65;&#x42;</x></a>",
    "comment-splits-text": "<a><x>one<!-- chatter -->two</x></a>",
    "pi-splits-text": "<a><x>one<?pi data?>two</x></a>",
    "long-runs": "<r>" + "".join(
        "<v i='%d'>%s</v>" % (i, "abcdefghij" * 7) for i in range(5)) + "</r>",
    "nested-mixed": ("<a>alpha<b>beta<c>gamma</c>delta</b>epsilon"
                     "<b at='1'>zeta</b></a>"),
}


def sax_batches(doc, tags, chunk_size=DEFAULT_CHUNK_SIZE,
                batch_size=DEFAULT_BATCH_SIZE):
    """``doc``'s tuple batches, parsed ``chunk_size`` at a time."""
    return PushBatchParser(tags).batches(
        coerce_source(doc).chunks(chunk_size), batch_size)


def flatten_batches(batches, tags):
    """Batched tuples → comparable (kind, tag-name, payload, depth)."""
    flat = []
    for batch in batches:
        for kind, tid, payload, depth in batch:
            flat.append((kind, tags.names[tid], payload, depth))
    return flat


def from_events(source):
    """The unbatched Event stream, through the same tuple adapter."""
    tags = TagTable()
    return flatten_batches(batch_events(iter(source), tags), tags)


def normalized(flat):
    """Merge adjacent same-element TEXT runs, drop whitespace-only ones.

    The pure-Python tokenizer emits one token per literal text segment
    (it has no lookahead to merge around comments), the expat boundary
    one per coalesced run; after this normalization both describe the
    same document.
    """
    out = []
    for item in flat:
        kind, name, payload, depth = item
        if kind == TEXT:
            if not payload.strip():
                continue
            if out and out[-1][0] == TEXT and out[-1][1] == name \
                    and out[-1][3] == depth:
                out[-1] = (TEXT, name, out[-1][2] + payload, depth)
                continue
        out.append(item)
    return out


class TestSaxBatchesCoalescing:
    @pytest.mark.parametrize("name", sorted(DOCS))
    @pytest.mark.parametrize("chunk_size", [3, 7, 64 * 1024])
    def test_batched_equals_unbatched(self, name, chunk_size):
        doc = DOCS[name]
        tags = TagTable()
        batched = flatten_batches(
            sax_batches(doc, tags, chunk_size=chunk_size), tags)
        unbatched = from_events(parse_events(doc, chunk_size=chunk_size))
        assert batched == unbatched

    @pytest.mark.parametrize("name", sorted(DOCS))
    def test_chunk_size_never_shows(self, name):
        doc = DOCS[name]
        tags = TagTable()
        tiny = flatten_batches(
            sax_batches(doc, tags, chunk_size=2), tags)
        tags2 = TagTable()
        whole = flatten_batches(
            sax_batches(doc, tags2, chunk_size=1 << 20), tags2)
        assert tiny == whole

    @pytest.mark.parametrize("name", sorted(DOCS))
    def test_batch_size_never_shows(self, name):
        doc = DOCS[name]
        tags = TagTable()
        one = flatten_batches(
            sax_batches(doc, tags, batch_size=1), tags)
        tags2 = TagTable()
        big = flatten_batches(
            sax_batches(doc, tags2, batch_size=4096), tags2)
        assert one == big

    def test_one_text_event_per_run(self):
        """Comments, entities, and chunk edges inside a run coalesce."""
        for name in ("comment-splits-text", "pi-splits-text", "entities",
                     "cdata-adjacent-text"):
            tags = TagTable()
            flat = flatten_batches(
                sax_batches(DOCS[name], tags, chunk_size=3), tags)
            texts = [item for item in flat if item[0] == TEXT]
            assert len(texts) == 1, (name, texts)

    def test_coalesced_content(self):
        tags = TagTable()
        flat = flatten_batches(
            sax_batches(DOCS["comment-splits-text"], tags, chunk_size=4), tags)
        texts = [item for item in flat if item[0] == TEXT]
        assert texts == [(TEXT, "x", "onetwo", 2)]
        tags = TagTable()
        flat = flatten_batches(
            sax_batches(DOCS["entities"], tags, chunk_size=5), tags)
        texts = [item for item in flat if item[0] == TEXT]
        assert texts == [(TEXT, "x", "one & two <three> AB", 2)]

    def test_cdata_markup_is_literal_text(self):
        tags = TagTable()
        flat = flatten_batches(
            sax_batches(DOCS["cdata"], tags, chunk_size=6), tags)
        kinds = [item[0] for item in flat]
        assert kinds == [BEGIN, BEGIN, TEXT, END, END]
        # No entity expansion inside CDATA: the &gt; stays literal.
        assert flat[2][2] == "hello <world> & ]]&gt; stuff"


class TestTextBatchesCoalescing:
    """The tokenizer's events through ``batch_events``."""

    @pytest.mark.parametrize("name", sorted(DOCS))
    @pytest.mark.parametrize("chunk_size", [3, 7, 64 * 1024])
    def test_batched_equals_unbatched(self, name, chunk_size):
        doc = DOCS[name]
        events = list(TextEventSource(doc, chunk_size=chunk_size))
        tags = TagTable()
        batched = flatten_batches(
            batch_events(iter(events), tags, batch_size=chunk_size), tags)
        kinds = {"begin": BEGIN, "text": TEXT, "end": END}
        assert batched == [
            (kinds[event.kind], event.tag,
             event.attrs if event.kind == "begin"
             else event.text if event.kind == "text" else None,
             event.depth)
            for event in events]

    @pytest.mark.parametrize("name", sorted(DOCS))
    def test_chunk_size_never_shows(self, name):
        doc = DOCS[name]
        tiny = normalized(from_events(TextEventSource(doc, chunk_size=2)))
        whole = normalized(from_events(
            TextEventSource(doc, chunk_size=1 << 20)))
        assert tiny == whole

    @pytest.mark.parametrize("name", sorted(DOCS))
    def test_agrees_with_sax_source(self, name):
        """Both parser boundaries describe the same document."""
        doc = DOCS[name]
        text_flat = normalized(from_events(
            TextEventSource(doc, chunk_size=5)))
        tags = TagTable()
        sax_flat = normalized(flatten_batches(
            sax_batches(doc, tags, chunk_size=5), tags))
        assert text_flat == sax_flat
