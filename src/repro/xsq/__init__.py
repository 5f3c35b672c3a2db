"""The XSQ system: streaming XPath via hierarchical pushdown transducers.

Public entry points:

* :class:`XSQEngine` — XSQ-F, the full engine (closures, multiple
  predicates, aggregations).
* :class:`XSQEngineNC` — XSQ-NC, the faster deterministic engine that
  rejects closures.
* :class:`XSQEngineFast` — the compiled fast path: the deterministic
  HPDT lowered to integer-indexed transition tables at compile time.
* :class:`Hpdt` / :class:`Bpdt` — the compiled automata, inspectable
  (``describe()``, ``to_dot()``).

See DESIGN.md for how the modules map onto the paper's sections.
"""

from repro.xsq.aggregates import StatBuffer, format_number
from repro.xsq.bpdt import Bpdt
from repro.xsq.buffers import BufferItem, BufferTrace, OutputQueue
from repro.xsq.compile_cache import (
    DEFAULT_CACHE,
    HpdtCache,
    clear_default_cache,
    compile_hpdt,
)
from repro.xsq.depthvector import DepthVector
from repro.xsq.dispatch import DispatchIndex
from repro.xsq.engine import RunStats, XSQEngine
from repro.xsq.fastpath import (
    FastPlan,
    FastRuntime,
    TagTable,
    XSQEngineFast,
    compile_fastplan,
)
from repro.xsq.hpdt import Hpdt
from repro.xsq.matcher import MatcherRuntime, PredicateInstance
from repro.xsq.multiquery import MultiQueryEngine
from repro.xsq.nc import XSQEngineNC
from repro.xsq.schema_opt import Plan, optimize

__all__ = [
    "StatBuffer",
    "format_number",
    "Bpdt",
    "BufferItem",
    "BufferTrace",
    "OutputQueue",
    "DEFAULT_CACHE",
    "HpdtCache",
    "clear_default_cache",
    "compile_hpdt",
    "DepthVector",
    "DispatchIndex",
    "RunStats",
    "XSQEngine",
    "XSQEngineFast",
    "XSQEngineNC",
    "FastPlan",
    "FastRuntime",
    "TagTable",
    "compile_fastplan",
    "MultiQueryEngine",
    "Plan",
    "optimize",
    "Hpdt",
    "MatcherRuntime",
    "PredicateInstance",
]
