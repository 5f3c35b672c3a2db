"""An empty document is a parse error in every pull mode.

expat reports "no element found" for a document with no root element.
Every tier, a query set, a union, the bulk runner and the DOM oracle
must surface it as :class:`~repro.errors.StreamError`, never as an
empty result list.
"""

import io

import pytest

import repro
from repro.baselines.dom import build_dom
from repro.errors import StreamError, TaskFailedError
from repro.parallel import run_bulk

QUERY = "/a/text()"
SET = [QUERY, "//b/text()"]
SOURCES = {"bytes": lambda: b"", "stream": lambda: io.BytesIO(b"")}


def run(query, engine="auto"):
    return lambda source: repro.compile(query, engine=engine).run(source)


def iter_results(query, engine="auto"):
    return lambda source: list(
        repro.compile(query, engine=engine).iter_results(source))


MODES = {"dom": build_dom,
         "set-run": run(SET),
         "set-iter_results": iter_results(SET),
         "union-run": run(QUERY + " | //b/text()"),
         "union-iter_results": iter_results(QUERY + " | //b/text()")}
for _engine in ("fast", "nc", "f"):
    MODES["%s-run" % _engine] = run(QUERY, _engine)
    MODES["%s-iter_results" % _engine] = iter_results(QUERY, _engine)


@pytest.mark.parametrize("source", sorted(SOURCES))
@pytest.mark.parametrize("mode", sorted(MODES))
def test_empty_document_raises_stream_error(mode, source):
    with pytest.raises(StreamError, match="no element found"):
        MODES[mode](SOURCES[source]())


@pytest.mark.parametrize("source", sorted(SOURCES))
@pytest.mark.parametrize("query", [QUERY, SET], ids=["query", "set"])
def test_bulk_empty_document_fails_with_stream_error(query, source):
    with pytest.raises(TaskFailedError) as info:
        run_bulk(query, [SOURCES[source]()], workers=1).results()
    assert info.value.exc_type == "StreamError"
    assert "no element found" in info.value.message
