"""XSQ — XPath queries on streaming XML data.

A from-scratch Python reproduction of Peng & Chawathe, *XPath Queries on
Streaming Data* (SIGMOD 2003): the XSQ-F and XSQ-NC streaming engines
built from hierarchical pushdown transducers with buffers, plus every
substrate and comparison system the paper's evaluation uses.

Quickstart::

    import repro

    query = repro.compile("//book[price<11]/author/text()")
    for author in query.iter_results("catalog.xml"):
        print(author)

Main entry points:

* :func:`repro.compile` — the unified facade; picks the right engine,
  shares compiled HPDTs process-wide, and groups query *lists* into a
  single shared-dispatch pass
* :class:`XSQEngine` (XSQ-F) and :class:`XSQEngineNC` (XSQ-NC) — the
  underlying engines, still public for engine-specific work
* :func:`repro.xpath.parse_query` — the XPath subset parser
* :mod:`repro.streaming` — the SAX-with-depth event model and sources
* :mod:`repro.baselines` — the paper's comparison systems
* :mod:`repro.datagen` — SHAKE/NASA/DBLP/PSD-like dataset generators
* :mod:`repro.bench` — throughput/memory measurement harness
* :mod:`repro.parallel` — multi-core bulk execution over document
  corpora (:func:`repro.run_bulk`, ``compile(...).run_bulk``)
* :mod:`repro.serve` — the asyncio subscription server behind
  ``xsq serve``: persistent queries, incremental chunk feeds, result
  fan-out (``compile(...).feed(chunk)`` is the library-level push API)
"""

from repro.api import (
    CompiledQuery,
    CompiledQuerySet,
    EmptyEngine,
    PushSession,
    UnionEngine,
    compile,
    select_engine,
)
from repro.errors import (
    ClosureNotSupportedError,
    FastPathUnsupportedError,
    NotWellFormedError,
    ReproError,
    StreamError,
    UnsupportedFeatureError,
    XPathSyntaxError,
)
from repro.xpath import parse_query
from repro.streaming.dtd import Dtd, StreamingValidator, parse_dtd
from repro.xsq import (
    Bpdt,
    DispatchIndex,
    HpdtCache,
    MultiQueryEngine,
    BufferTrace,
    DepthVector,
    Hpdt,
    StatBuffer,
    XSQEngine,
    XSQEngineFast,
    XSQEngineNC,
)
from repro.obs import EventTrace, MetricsRegistry, Observability, Tracer
from repro.parallel import BulkResult, DocumentResult, TaskPool, run_bulk

__version__ = "1.0.0"

__all__ = [
    "compile",
    "run_bulk",
    "BulkResult",
    "DocumentResult",
    "TaskPool",
    "CompiledQuery",
    "CompiledQuerySet",
    "PushSession",
    "select_engine",
    "EmptyEngine",
    "UnionEngine",
    "HpdtCache",
    "DispatchIndex",
    "XSQEngine",
    "XSQEngineFast",
    "XSQEngineNC",
    "MultiQueryEngine",
    "parse_dtd",
    "Dtd",
    "StreamingValidator",
    "Hpdt",
    "Bpdt",
    "DepthVector",
    "BufferTrace",
    "EventTrace",
    "Observability",
    "Tracer",
    "MetricsRegistry",
    "StatBuffer",
    "parse_query",
    "ReproError",
    "XPathSyntaxError",
    "UnsupportedFeatureError",
    "ClosureNotSupportedError",
    "FastPathUnsupportedError",
    "NotWellFormedError",
    "StreamError",
    "__version__",
]
