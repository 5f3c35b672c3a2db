"""Differential tests for multi-core bulk execution.

The contract under test: ``run_bulk(sources, workers=N)`` is
observationally identical to the serial loop for every N — same
per-document results, same submission order, same aggregated RunStats —
across predicate categories, closures, unions, aggregates, query sets,
and every engine choice.  Plus the failure semantics: structured
per-document errors, and a worker hard-crash that surfaces instead of
hanging the pool.
"""

import io
import os

import pytest

import repro
from repro.api import select_engine
from repro.errors import StreamError, TaskFailedError, WorkerCrashError
from repro.obs import Observability
from repro.parallel import BulkResult, Task, TaskPool, run_bulk
from repro.xsq.engine import RunStats


def corpus():
    """A small varied corpus: matches, non-matches, nesting, attrs."""
    docs = []
    for i in range(9):
        year = 1998 + i
        price = 5 + 2 * i
        docs.append(
            "<pub><year>%d</year>"
            "<book id='b%d'><author><name>a%d</name></author>"
            "<price>%d</price><title>t%d</title></book>"
            "<pub><year>%d</year><book><title>inner%d</title>"
            "<price>%d</price></book></pub>"
            "</pub>" % (year, i, i, price, i, year + 1, i, price + 1))
    docs.append("<pub><note>no books here</note></pub>")
    docs.append("<pub><book><title>untitled author-less</title></book></pub>")
    return docs


# One query per predicate/feature category the engines distinguish.
QUERIES = [
    "/pub/book/title/text()",                       # plain path
    "/pub/book[@id='b3']/title/text()",             # attribute predicate
    "/pub[year>2002]/book/price/text()",            # comparison predicate
    "//book[author]/title/text()",                  # existence predicate
    "//book[price<12]/title/text()",                # closure + comparison
    "//pub//title/text()",                          # nested closures
    "//book/price/sum()",                           # aggregate
    "//book/count()",                               # aggregate (count)
    "/pub/year/text() | //title/text()",            # top-level union
    "/pub/missing/text()",                          # no matches anywhere
]


def serial_reference(query, docs, engine="auto"):
    """The ground truth: one engine, one doc at a time, stats totaled."""
    eng = select_engine(query, engine)
    results, stats = [], []
    for doc in docs:
        results.append(eng.run(doc))
        if eng.stats is not None:
            stats.append(eng.stats)
    return results, RunStats.totals(stats).as_dict()


class TestDifferential:
    @pytest.mark.parametrize("query", QUERIES)
    def test_pool_matches_serial(self, query):
        docs = corpus()
        expected, expected_stats = serial_reference(query, docs)
        for workers in (1, 3):
            bulk = run_bulk(query, docs, workers=workers, chunk_size=2)
            assert bulk.results() == expected, (query, workers)
            assert bulk.stats.as_dict() == expected_stats, (query, workers)

    @pytest.mark.parametrize("engine", ["f", "nc", "fast"])
    def test_forced_engines(self, engine):
        query = "/pub/book/title/text()"  # every engine supports this
        docs = corpus()
        expected, expected_stats = serial_reference(query, docs, engine)
        bulk = run_bulk(query, docs, workers=2, chunk_size=1, engine=engine)
        assert bulk.results() == expected
        assert bulk.stats.as_dict() == expected_stats

    def test_forced_f_on_closure_query(self):
        query = "//book[price<12]//title/text()"
        docs = corpus()
        expected, _ = serial_reference(query, docs, "f")
        assert run_bulk(query, docs, workers=2, engine="f").results() \
            == expected

    def test_query_set_grouped(self):
        queries = ["/pub/book/title/text()", "//price/text()",
                   "//book/count()"]
        docs = corpus()
        from repro.xsq.multiquery import MultiQueryEngine
        eng = MultiQueryEngine(queries)
        expected = [eng.run(doc) for doc in docs]
        for workers in (1, 2):
            bulk = run_bulk(queries, docs, workers=workers, chunk_size=2)
            assert bulk.results() == expected

    def test_submission_order_and_indices(self):
        docs = corpus()
        bulk = run_bulk("//title/text()", docs, workers=3, chunk_size=1)
        indices = [doc.index for doc in bulk]
        assert indices == list(range(len(docs)))

    def test_chunk_boundaries_do_not_matter(self):
        docs = corpus()
        baseline = run_bulk("//title/text()", docs, workers=1).results()
        for chunk_size in (1, 2, 5, 100):
            assert run_bulk("//title/text()", docs, workers=2,
                            chunk_size=chunk_size).results() == baseline


class TestSources:
    def test_paths_bytes_text_and_streams(self, tmp_path):
        doc = "<pub><year>2003</year></pub>"
        path = tmp_path / "doc.xml"
        path.write_text(doc)
        sources = [str(path), doc, doc.encode("utf-8"),
                   io.BytesIO(doc.encode("utf-8")),
                   io.StringIO(doc)]
        bulk = run_bulk("/pub/year/text()", sources, workers=2,
                        chunk_size=1)
        docs = list(bulk)
        assert [d.results for d in docs] == [["2003"]] * 5
        assert docs[0].source == str(path)
        assert docs[1].source == "<doc #1>"
        assert docs[4].source == "<stream #4>"

    def test_lazy_generator_corpus(self):
        def docs():
            for i in range(25):
                yield "<r><v>%d</v></r>" % i

        bulk = run_bulk("/r/v/text()", docs(), workers=2, chunk_size=3,
                        max_inflight_bytes=64)  # tiny: forces backpressure
        assert bulk.results() == [[str(i)] for i in range(25)]

    def test_missing_path_is_structured(self):
        with pytest.raises(StreamError):
            run_bulk("/r/text()", ["/nonexistent/nowhere.xml"],
                     workers=1).results()


class TestFailures:
    def test_task_error_names_source(self, tmp_path):
        bad = tmp_path / "broken.xml"
        bad.write_text("<unclosed>")
        good = "<r><v>1</v></r>"
        with pytest.raises(TaskFailedError) as info:
            run_bulk("/r/v/text()", [good, str(bad), good],
                     workers=2, chunk_size=1).results()
        assert str(bad) in str(info.value)
        assert info.value.index == 1
        assert info.value.exc_type == "StreamError"

    def test_on_error_skip_keeps_going(self, tmp_path):
        bad = tmp_path / "broken.xml"
        bad.write_text("<unclosed>")
        good = "<r><v>1</v></r>"
        bulk = run_bulk("/r/v/text()", [good, str(bad), good],
                        workers=2, chunk_size=1, on_error="skip")
        docs = list(bulk)
        assert [d.ok for d in docs] == [True, False, True]
        assert docs[1].results is None
        assert docs[1].error.source == str(bad)
        assert len(bulk.errors) == 1
        assert bulk.documents == 2

    def test_invalid_on_error_rejected(self):
        with pytest.raises(ValueError):
            run_bulk("/r/text()", [], on_error="ignore")

    def test_worker_crash_surfaces_with_source(self):
        class CrashSpec:
            def setup(self, worker_id):
                def run(payload):
                    if payload == "boom":
                        os._exit(13)
                    return payload, None
                return run

        tasks = [Task("ok-%d" % i, "src-%d" % i) for i in range(4)]
        tasks.insert(2, Task("boom", "the-poison-doc"))
        pool = TaskPool(CrashSpec(), workers=2, chunk_size=1,
                        poll_interval=0.05)
        with pytest.raises(WorkerCrashError) as info:
            list(pool.run(iter(tasks)))
        assert info.value.exitcode == 13
        assert info.value.source == "the-poison-doc"
        assert "the-poison-doc" in str(info.value)

    def test_exit_after_last_message_is_not_a_crash(self):
        """A worker can put its goodbye and exit between the parent's
        empty-queue poll and its liveness check: the unread message
        must win over the clean exit code."""
        class ExitedProcess:
            exitcode = 0

            def is_alive(self):
                return False

        class LateQueue:
            """Reads empty on the first poll, then holds the goodbye."""

            def __init__(self):
                self.polls = 0
                self.messages = [("done", 0, {"docs": 0})]

            def empty(self):
                self.polls += 1
                return self.polls == 1

            def get(self):
                return self.messages.pop(0)

        class TaskQueue:
            def put(self, _item):
                pass

        pool = TaskPool(None, workers=1, poll_interval=0)
        pool._processes = [ExitedProcess()]
        assert list(pool._collect(iter(()), TaskQueue(), LateQueue())) == []
        assert pool.worker_summaries == {0: {"docs": 0}}

    def test_setup_failure_surfaces(self):
        class BadSetupSpec:
            def setup(self, worker_id):
                raise RuntimeError("no engine for you")

        pool = TaskPool(BadSetupSpec(), workers=2, chunk_size=1,
                        poll_interval=0.05)
        with pytest.raises(WorkerCrashError) as info:
            list(pool.run(iter([Task("x", "x")])))
        assert "no engine for you" in str(info.value)

    def test_pool_usable_after_raise(self, tmp_path):
        """A raised error must not leak worker processes into the next
        run (regression: generator finalized inside a forked child)."""
        bad = tmp_path / "broken.xml"
        bad.write_text("<unclosed>")
        with pytest.raises(TaskFailedError):
            run_bulk("/r/v/text()", [str(bad)], workers=2).results()
        docs = ["<r><v>%d</v></r>" % i for i in range(6)]
        assert run_bulk("/r/v/text()", docs, workers=2,
                        chunk_size=1).results() == [[str(i)]
                                                    for i in range(6)]


class TestFacade:
    def test_compiled_query_run_bulk(self):
        docs = corpus()
        q = repro.compile("//book[author]/title/text()")
        expected = [q.run(doc) for doc in docs]
        bulk = q.run_bulk(docs, workers=2, chunk_size=2)
        assert isinstance(bulk, BulkResult)
        assert bulk.results() == expected

    def test_compiled_query_set_run_bulk(self):
        docs = corpus()
        qs = repro.compile(["//title/text()", "//book/count()"])
        expected = [qs.run(doc) for doc in docs]
        assert qs.run_bulk(docs, workers=2, chunk_size=2).results() \
            == expected

    def test_top_level_export(self):
        assert repro.run_bulk is run_bulk
        docs = ["<r><v>7</v></r>"]
        assert repro.run_bulk("/r/v/text()", docs, workers=1).results() \
            == [["7"]]

    def test_engine_choice_rides_along(self):
        q = repro.compile("/r/v/text()", engine="f")
        assert q.engine_choice == "f"
        assert q.run_bulk(["<r><v>1</v></r>"], workers=1).results() \
            == [["1"]]


class TestObservability:
    def test_parallel_metric_family(self):
        obs = Observability(events=False)
        docs = ["<r><v>%d</v></r>" % i for i in range(8)]
        bulk = run_bulk("/r/v/text()", docs, workers=2, chunk_size=1,
                        obs=obs)
        bulk.results()
        metrics = obs.metrics
        assert metrics.counter("repro_parallel_docs_total").value == 8
        assert metrics.counter("repro_parallel_bytes_total").value \
            == sum(len(d) for d in docs)
        assert metrics.gauge("repro_parallel_workers").value == 2
        per_worker = sum(
            metrics.counter("repro_parallel_worker_docs_total",
                            worker=str(wid)).value for wid in (0, 1))
        assert per_worker == 8
        steals = sum(
            metrics.counter("repro_parallel_chunks_total",
                            worker=str(wid)).value for wid in (0, 1))
        assert steals == 8  # chunk_size=1 → one steal per doc
        text = obs.metrics_text()
        assert "repro_parallel_queue_depth" in text
        assert "repro_parallel_inflight_bytes_max" in text

    def test_spans_and_run_record(self):
        obs = Observability(events=False)
        docs = ["<r><v>%d</v></r>" % i for i in range(4)]
        run_bulk("/r/v/text()", docs, workers=2, obs=obs).results()
        names = [span.name for span in obs.tracer.finished]
        assert "bulk-run" in names
        assert names.count("bulk-worker") == 2
        assert obs.metrics.counter("repro_runs_total",
                                   engine="parallel-bulk").value == 1

    def test_doc_error_counter(self, tmp_path):
        obs = Observability(events=False)
        bad = tmp_path / "broken.xml"
        bad.write_text("<unclosed>")
        bulk = run_bulk("/r/v/text()", ["<r><v>1</v></r>", str(bad)],
                        workers=2, chunk_size=1, obs=obs, on_error="skip")
        list(bulk)
        assert obs.metrics.counter(
            "repro_parallel_doc_errors_total").value == 1


class TestPoolGeneric:
    def test_ordered_merge_under_skew(self):
        """Uneven task durations must not reorder the output."""
        class SleepSpec:
            def setup(self, worker_id):
                import time as _time

                def run(payload):
                    _time.sleep(payload)
                    return payload, None
                return run

        delays = [0.08, 0.0, 0.05, 0.0, 0.02, 0.0]
        tasks = [Task(d, "t%d" % i) for i, d in enumerate(delays)]
        pool = TaskPool(SleepSpec(), workers=3, chunk_size=1,
                        poll_interval=0.02)
        out = list(pool.run(iter(tasks)))
        assert [o.index for o in out] == list(range(len(delays)))
        assert [o.result for o in out] == delays

    def test_serial_path_summaries(self):
        class EchoSpec:
            def setup(self, worker_id):
                return lambda payload: (payload, None)

        pool = TaskPool(EchoSpec(), workers=1)
        out = list(pool.run(Task(i, "t%d" % i) for i in range(5)))
        assert [o.result for o in out] == list(range(5))
        assert pool.worker_summaries[0]["docs"] == 5

    def test_worker_stats_account_for_every_doc(self):
        docs = ["<r><v>%d</v></r>" % i for i in range(10)]
        bulk = run_bulk("/r/v/text()", docs, workers=2, chunk_size=2)
        bulk.results()
        assert sum(s["docs"] for s in bulk.worker_stats.values()) == 10
