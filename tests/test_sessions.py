"""Every result mode is one document session.

``run()``, ``iter_results()`` and ``push()`` drive the same session
over the same runtime, so they must agree on results, ``RunStats`` and
everything an attached ``obs`` bundle records; and every session kind
honours the same closed-handle contract.
"""

import pytest

import repro
from repro.errors import StreamError
from repro.obs import Observability
from repro.streaming.source import coerce_source

DOC = ("<pub>"
       + "".join("<book><title>t%d</title><price>%d</price></book>"
                 % (i, 4 + i % 10) for i in range(12))
       + "<year>2002</year></pub>")

#: (label, query spec, engine choice, bundle options)
CASES = [
    ("f", "/pub/book[price<8]/title/text()", "f", {}),
    ("nc", "/pub/book[price<8]/title/text()", "nc", {}),
    # The fast path accepts only spans + metrics.
    ("fast", "/pub/book[price<8]/title/text()", "fast", {"events": False}),
    ("set", ["/pub/book[price<8]/title/text()", "//year/text()",
             "/pub/book/price/count()"], "auto", {}),
]

#: Counters every mode must record identically.
COUNTERS = ("repro_runs_total", "repro_run_events_total",
            "repro_results_total", "repro_buffer_ops_total")


def _compile(spec, choice, options):
    obs = Observability(**options)
    if isinstance(spec, list):
        return repro.compile(spec, obs=obs), obs
    return repro.compile(spec, engine=choice, obs=obs), obs


def _stats(compiled):
    per_query = getattr(compiled, "per_query_stats", None)
    if per_query is not None:
        return [run.as_dict() for run in per_query]
    return compiled.stats.as_dict()


def _run(compiled):
    out = compiled.run(DOC)
    if out and isinstance(out[0], list):  # per-query lists -> pairs
        return sorted((i, v) for i, values in enumerate(out)
                      for v in values)
    return out


def _iter(compiled):
    out = list(compiled.iter_results(DOC))
    return sorted(out) if out and isinstance(out[0], tuple) else out


def _push(size):
    def mode(compiled):
        session = compiled.push()
        out = []
        for start in range(0, len(DOC), size):
            out += session.feed(DOC[start:start + size])
        out += session.finish()
        return sorted(out) if out and isinstance(out[0], tuple) else out
    return mode


MODES = [("run", _run), ("iter", _iter), ("push7", _push(7)),
         ("push64", _push(64))]


def _observe(spec, choice, options, mode):
    compiled, obs = _compile(spec, choice, options)
    results = mode(compiled)
    snapshot = obs.metrics.as_dict()
    counters = {key: value for key, value in snapshot.items()
                if key.split("{")[0] in COUNTERS}
    return results, _stats(compiled), counters, snapshot


@pytest.mark.parametrize("label,spec,choice,options", CASES,
                         ids=[case[0] for case in CASES])
def test_every_mode_records_the_same(label, spec, choice, options):
    runs = {name: _observe(spec, choice, options, mode)
            for name, mode in MODES}
    results, stats, counters, _ = runs["run"]
    assert results
    for name, (other_results, other_stats, other_counters, _) in \
            runs.items():
        assert other_results == results, name
        assert other_stats == stats, name
        assert other_counters == counters, name


@pytest.mark.parametrize("choice", ["f", "nc"])
def test_interpreted_modes_sample_occupancy_per_event(choice):
    query = "/pub/book[price<8]/title/text()"
    for name, mode in MODES:
        compiled, obs = _compile(query, choice, {})
        mode(compiled)
        key = 'repro_buffer_occupancy_items_count{engine="%s"}' \
            % compiled.engine_name
        assert obs.metrics.as_dict()[key] == compiled.stats.events, name


def test_shared_dispatch_modes_record_fanout_per_event():
    queries = ["/pub/book/title/text()", "//year/text()"]
    for name, mode in MODES:
        compiled, obs = _compile(queries, "auto", {})
        mode(compiled)
        key = 'repro_dispatch_fanout_queries_count{engine="multiquery"}'
        assert obs.metrics.as_dict()[key] == compiled.stats.events, name


ENGINES = {
    "fast": ("/pub/year/text()", "fast"),
    "nc": ("/pub/year/text()", "nc"),
    "f": ("//year/text()", "f"),
    "union": ("/pub/year/text() | //title/text()", "auto"),
    "empty": ("/pub/parent::x/text()", "auto"),
}


@pytest.mark.parametrize("kind", sorted(ENGINES))
def test_closed_handle_contract(kind):
    query, choice = ENGINES[kind]
    compiled = repro.compile(query, engine=choice)
    handle = compiled.engine.push()
    events = list(coerce_source(DOC).events())
    handle.feed_events(events)
    handle.finish()
    assert handle.closed
    assert handle.finish() == []  # idempotent
    with pytest.raises(StreamError):
        handle.feed_events(events)
    if hasattr(handle, "feed_batch"):
        with pytest.raises(StreamError):
            handle.feed_batch([])
