"""Compiled HPDT fast path: transition tables lowered to a kernel.

The interpreted runtimes pay per-event Python overhead the paper's
C/Java systems never would: ``isinstance``-chained predicate dispatch,
string tag comparison, per-element object allocation.  For the query
classes whose automaton is *deterministic* — child-axis-only paths with
the paper's plain predicate categories 1–5, and closure paths without
predicates once determinized — all of that work is a function of the
query alone, so this module freezes it at compile time, the way Koch
et al. freeze their stream schedule:

* **Tag interning** (:class:`TagTable`): every distinct tag name maps to
  a small int once, at the parser boundary; the runtime then routes on
  ints.  The table is shared with the multi-query
  :class:`~repro.xsq.dispatch.DispatchIndex` so shared-dispatch routing
  uses the same ids.  A plan that can react to no tag it does not name
  closes its table after lowering, and the parser then builds no tuple
  for any other tag (parser projection).
* **Transition tables** (:class:`FastPlan`): per HPDT state (= number of
  matched leading steps, the deterministic engine's single current
  position) an int-keyed dict maps a begin event's tag id to the
  *complete* action list for that event — category-3/4 witness tests
  for the parent step and/or the match program for the next step — with
  every predicate lowered to a precompiled closure (no ``isinstance``,
  no attribute walks).  Text and child-text deciding events get the
  same treatment.
* **Closure plans** (:class:`ClosurePlan`): a predicate-free path with
  ``//`` steps (text, ``@attr`` or aggregate output) needs no
  buffering, so its automaton is determinized lazily: one DFA state
  per open matched element, transitions filled on first use under a
  lock and bounded by ``states × (alphabet + 1) × 2`` however many
  tags the stream carries.
* **Generated kernels** (:mod:`repro.xsq.codegen`): every plan is
  lowered to a single closure-free dispatch function with the states
  and tag ids baked in as constants, memoized on the plan
  (``plan.kernel``) so it rides the HPDT compile cache exactly like the
  tables themselves.  :class:`FastRuntime` holds the per-document state
  around it: one preallocated predicate-instance stack, integer depth
  gating, batched event feed (``(kind, tag_id, payload, depth)`` tuples
  from :meth:`~repro.streaming.source.CoercedSource.batches`), no
  Event objects, no per-event attribute dispatch.

* **Element (catchall) output** runs on the fast path too: when the
  query has no output expression the runtime captures the matched
  subtree straight from the batched tuples — opening tags rendered from
  the interned name + attrs dict, text through the zero-allocation
  :func:`~repro.streaming.serialize.escape_text` fast path — producing
  the same canonical serialization as the interpreted engines'
  :class:`~repro.streaming.serialize.EventSerializer` (comments/PIs
  dropped, CDATA and entities normalized at the parser boundary).

Semantics are *identical* to the interpreted engines — the fast path
reuses :class:`~repro.xsq.matcher.PredicateInstance`,
:class:`~repro.xsq.matcher.Chain` and
:class:`~repro.xsq.buffers.OutputQueue` unchanged for every item that
must wait, and counts the determined results it sends without
enqueueing (:attr:`FastRuntime.results`) into the queue's totals, so
results, document order and the buffer-operation counters (RunStats)
are byte-for-byte the same, which ``tests/test_fastpath_equivalence.py``
and ``tests/test_direct_emission.py`` prove differentially
(``tests/test_closure_kernels.py`` for closure plans, against XSQ-F).
Queries outside the supported classes (closures with predicates or
element output, ``not()``/``or()``, nested-path predicates) raise :class:`~repro.errors.FastPathUnsupportedError`
naming the first unsupported feature; ``engine="auto"`` catches it and
falls back to an interpreted runtime with the reason surfaced in
``.explain()``.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.errors import FastPathUnsupportedError
from repro.xpath.ast import (
    AggregateOutput,
    AttrExists,
    AttrOutput,
    Axis,
    ChildAttrExists,
    ChildExists,
    ElementOutput,
    NotPredicate,
    OrPredicate,
    PathPredicate,
    Query,
    TextExists,
    TextOutput,
    compare,
)
from repro.xpath.parser import parse_query
from repro.xsq.aggregates import StatBuffer
from repro.xsq.buffers import BufferItem, OutputQueue
from repro.xsq.compile_cache import compile_hpdt
from repro.xsq.dispatch import needs_every_tag, projection_note
from repro.xsq.engine import RunStats, _QueryEngine
from repro.xsq.hpdt import Hpdt
from repro.xsq.matcher import PredicateInstance


class TagTable:
    """Bidirectional tag-name ↔ small-int interner.

    One table per engine run family: the parser boundary interns each
    distinct tag once (``sys.intern``-ed names make the dict lookups
    pointer comparisons in the common case) and every downstream
    consumer — the fast runtime's transition rows, the dispatch index's
    id routes — keys on the resulting ints.

    A table is *closed* once the plan (or query group) lowered against
    it can react to no tag it lacks — no ``*`` node test or predicate
    child and no element output
    (:func:`repro.xsq.dispatch.needs_every_tag`).  A closed table never
    interns again: :meth:`intern` returns None for a new name, and the
    batch producers build no tuple for such a tag, only count it
    (document projection at the parser).  An open table grows with
    every new name the streams carry.
    """

    __slots__ = ("ids", "names", "closed", "_lock")

    def __init__(self):
        self.ids: Dict[str, int] = {}
        self.names: List[str] = []
        self.closed = False
        self._lock = threading.Lock()

    def intern(self, tag: str) -> Optional[int]:
        tid = self.ids.get(tag)
        if tid is None and not self.closed:
            # One table serves every session of its plan or group, and
            # serve broker streams may be fed from different threads:
            # assign new ids under a lock (hits stay lock-free), and
            # publish the name before the id.
            with self._lock:
                tid = self.ids.get(tag)
                if tid is None:
                    tid = len(self.names)
                    self.names.append(tag)
                    self.ids[tag] = tid
        return tid

    def close(self) -> None:
        """Freeze the vocabulary: from now on unknown tags are dropped."""
        self.closed = True

    def get(self, tag: str) -> Optional[int]:
        """The id for ``tag`` if already interned (compile-time lookup)."""
        return self.ids.get(tag)

    def __len__(self) -> int:
        return len(self.names)

    def __repr__(self):
        return "<TagTable %d tags%s>" % (len(self.names),
                                         ", closed" if self.closed else "")


def unsupported_reason(query: Query) -> Optional[Tuple[str, str]]:
    """Why the fast path cannot run ``query`` — or None if it can.

    Returns ``(slug, message)`` for the *first* unsupported feature in
    query order (steps left to right, predicates in order, output
    last), which is what ``.explain()`` reports after a fallback.  A
    query with a closure axis lowers only without predicates and
    without element output (:class:`ClosurePlan`).
    """
    closure = any(step.axis is Axis.DESCENDANT for step in query.steps)
    for index, step in enumerate(query.steps):
        where = "step %d (%s)" % (index + 1, step.node_test)
        for predicate in step.predicates:
            if isinstance(predicate, NotPredicate):
                return ("not-predicate",
                        "not() predicate at %s" % where)
            if isinstance(predicate, OrPredicate):
                return ("or-predicate",
                        "or disjunction at %s" % where)
            if isinstance(predicate, PathPredicate):
                return ("path-predicate",
                        "nested path predicate at %s" % where)
            if closure:
                return ("closure-predicate",
                        "predicate at %s of a query with a closure axis "
                        "// needs the nondeterministic runtime" % where)
    if closure and isinstance(query.output, ElementOutput):
        return ("closure-element-output",
                "element output of a query with a closure axis // needs "
                "the nondeterministic runtime")
    return None


# -- predicate lowering ----------------------------------------------------

def _attr_test(predicate) -> Callable[[dict], bool]:
    """Category-1 predicate → closure over an attrs dict."""
    if isinstance(predicate, AttrExists):
        attr = predicate.attr

        def test(attrs, _attr=attr):
            return _attr in attrs
        return test
    attr, op, value = predicate.attr, predicate.op, predicate.value

    def test(attrs, _attr=attr, _op=op, _value=value):
        found = attrs.get(_attr)
        return found is not None and compare(found, _op, _value)
    return test


def _text_test(predicate) -> Callable[[str], bool]:
    """Category-2 predicate → closure over the element's text."""
    if isinstance(predicate, TextExists):
        def test(text):
            return bool(text.strip())
        return test
    op, value = predicate.op, predicate.value

    def test(text, _op=op, _value=value):
        return compare(text, _op, _value)
    return test


def _child_attr_test(predicate) -> Optional[Callable[[dict], bool]]:
    """Category-3/4 predicate → closure over the child's attrs.

    ``None`` means the child's begin event alone is the witness
    (category 3: bare ``[child]``).
    """
    if isinstance(predicate, ChildExists):
        return None
    if isinstance(predicate, ChildAttrExists):
        attr = predicate.attr

        def test(attrs, _attr=attr):
            return _attr in attrs
        return test
    attr, op, value = predicate.attr, predicate.op, predicate.value

    def test(attrs, _attr=attr, _op=op, _value=value):
        found = attrs.get(_attr)
        return found is not None and compare(found, _op, _value)
    return test


def _child_text_test(predicate) -> Callable[[str], bool]:
    """Category-5 predicate → closure over the child's text."""
    op, value = predicate.op, predicate.value

    def test(text, _op=op, _value=value):
        return compare(text, _op, _value)
    return test


def _compile_match(step):
    """Lower one location step's begin-event decision to ``(prog, const,
    undecided)``.

    ``prog(attrs)`` evaluates the category-1 predicates and returns
    ``False`` (dead), or ``const``; when there are none, ``prog`` is
    ``None`` and the verdict is the constant directly.  ``const`` is
    ``True`` when no deciding events are pending and ``None`` (enter
    NA) otherwise; ``undecided`` are the pending predicate indices.
    """
    cat1_tests = []
    undecided = []
    for index, predicate in enumerate(step.predicates):
        if predicate.resolves_at_begin:
            cat1_tests.append(_attr_test(predicate))
        else:
            undecided.append(index)
    const = True if not undecided else None
    if not cat1_tests:
        return None, const, tuple(undecided)
    tests = tuple(cat1_tests)

    def prog(attrs, _tests=tests, _const=const):
        for test in _tests:
            if not test(attrs):
                return False
        return _const
    return prog, const, tuple(undecided)


def _output_kind(query: Query) -> Tuple[str, Optional[str]]:
    """``(out_kind, out_attr)``: how a plan's result sites produce
    values (text, attr, count, agg or element)."""
    output = query.output
    if isinstance(output, TextOutput):
        return "text", None
    if isinstance(output, AttrOutput):
        return "attr", output.attr
    if isinstance(output, AggregateOutput):
        return ("count" if output.name == "count" else "agg"), None
    assert isinstance(output, ElementOutput)
    return "element", None


class FastPlan:
    """The HPDT lowered to integer-indexed transition rows.

    State ``m`` (0..n) is "the first ``m`` location steps are matched
    by the currently open path" — the deterministic engine's single
    current position.  Each row answers, for one event kind at the only
    depths that can matter, "what is the complete action list?":

    ``begin_named[m]``
        tag id → ``(watches, match)`` for a begin event at depth
        ``m+1``: ``watches`` are the category-3/4 witness tests of step
        ``m-1`` listening for this child tag, ``match`` the lowered
        begin decision of step ``m`` (or None when the tag doesn't
        match it).
    ``begin_default[m]``
        the entry for tags not named in the row (wildcard watches
        and/or a wildcard node test), or None — in which case an
        unnamed begin event falls through in O(1).
    ``text_tests[m]``
        category-2 tests of step ``m-1`` for a text event at depth
        ``m``.
    ``child_text_named[m]`` / ``child_text_default[m]``
        category-5 tests of step ``m-1`` keyed by the child's tag id,
        for a text event at depth ``m+1``.
    """

    __slots__ = ("query", "tags", "n", "begin_named", "begin_default",
                 "text_tests", "child_text_named", "child_text_default",
                 "out_attr", "out_kind", "kernel", "eager_gate",
                 "schema_no_buffer", "schema_note")

    def __init__(self, query: Query, tags: TagTable, schema_info=None):
        self.query = query
        self.tags = tags
        #: ``(fn, note)`` once :func:`repro.xsq.codegen.compile_kernel`
        #: has run; None until then.  Memoized here so the kernel rides the
        #: HPDT compile cache exactly like the tables.
        self.kernel: Optional[tuple] = None
        #: Schema-derived state (None/False without a schema): per-state
        #: eagerly-resolved predicate-index sets, the static no-buffer
        #: proof, and the ``explain()`` note.  See
        #: :class:`repro.xsq.schema_compile.FastSchemaInfo`.
        self.eager_gate: Optional[tuple] = None
        self.schema_no_buffer = False
        self.schema_note: Optional[str] = None
        steps = query.steps
        n = self.n = len(steps)
        intern = tags.intern
        pruned_watches = 0
        narrowed_states = 0

        matches = [_compile_match(step) for step in steps]
        self.begin_named: List[Dict[int, tuple]] = []
        self.begin_default: List[Optional[tuple]] = []
        self.text_tests: List[tuple] = [()] * (n + 1)
        self.child_text_named: List[Dict[int, tuple]] = \
            [dict() for _ in range(n + 1)]
        self.child_text_default: List[tuple] = [()] * (n + 1)

        for m in range(n + 1):
            # Deciding-event watches of the deepest matched step (m-1).
            named_watches: Dict[int, list] = {}
            wild_watches: list = []
            text_tests: list = []
            ct_named: Dict[int, list] = {}
            ct_wild: list = []
            if m >= 1:
                step = steps[m - 1]
                # Transition pruning: a witness tag the schema forbids
                # as a child of every possible parent can never fire
                # its watch — the entry is dropped from the row.
                pool = (schema_info.child_pool[m]
                        if schema_info is not None else None)
                for pred_index, predicate in enumerate(step.predicates):
                    if predicate.resolves_at_begin:
                        continue
                    category = predicate.category
                    if category == 2:
                        text_tests.append((pred_index,
                                           _text_test(predicate)))
                    elif category in (3, 4):
                        if pool is not None and predicate.child != "*" \
                                and predicate.child not in pool:
                            pruned_watches += 1
                            continue
                        entry = (pred_index, _child_attr_test(predicate))
                        if predicate.child == "*":
                            wild_watches.append(entry)
                        else:
                            named_watches.setdefault(
                                intern(predicate.child), []).append(entry)
                    else:  # category 5
                        if pool is not None and predicate.child != "*" \
                                and predicate.child not in pool:
                            pruned_watches += 1
                            continue
                        entry = (pred_index, _child_text_test(predicate))
                        if predicate.child == "*":
                            ct_wild.append(entry)
                        else:
                            ct_named.setdefault(
                                intern(predicate.child), []).append(entry)
            self.text_tests[m] = tuple(text_tests)
            self.child_text_default[m] = tuple(ct_wild)
            self.child_text_named[m] = {
                tid: tuple(entries) + tuple(ct_wild)
                for tid, entries in ct_named.items()}

            # The match decision for step m, fused into the same row.
            match = None
            match_tid = None
            wildcard_step = False
            if m < n:
                match = matches[m]
                if steps[m].node_test == "*":
                    wildcard_step = True
                else:
                    match_tid = intern(steps[m].node_test)

            # Transition pruning: a wildcard step whose schema-allowed
            # tag set is finite (and small) is enumerated into named
            # entries, dropping the catch-all default — on schema-valid
            # documents no other tag can begin at this position.
            enum_tids = None
            if wildcard_step and schema_info is not None:
                from repro.xsq.schema_compile import MAX_WILDCARD_TAGS
                allowed_m = schema_info.allowed[m]
                if 0 < len(allowed_m) <= MAX_WILDCARD_TAGS:
                    enum_tids = frozenset(intern(tag)
                                          for tag in sorted(allowed_m))
                    narrowed_states += 1

            keys = set(named_watches)
            if match_tid is not None:
                keys.add(match_tid)
            if enum_tids is not None:
                keys |= enum_tids
            row: Dict[int, tuple] = {}
            for tid in keys:
                watches = tuple(named_watches.get(tid, ())) \
                    + tuple(wild_watches)
                if enum_tids is not None:
                    row_match = match if tid in enum_tids else None
                else:
                    row_match = match \
                        if (wildcard_step or tid == match_tid) else None
                row[tid] = (watches, row_match)
            default = None
            wild_match = wildcard_step and enum_tids is None
            if wild_watches or wild_match:
                default = (tuple(wild_watches),
                           match if wild_match else None)
            self.begin_named.append(row)
            self.begin_default.append(default)

        if schema_info is not None:
            if any(schema_info.eager_gate):
                self.eager_gate = tuple(schema_info.eager_gate)
            self.schema_no_buffer = schema_info.no_buffer
            gated = sum(len(gate) for gate in schema_info.eager_gate)
            bits = ["fingerprint %s" % schema_info.fingerprint]
            if pruned_watches:
                bits.append("pruned %d watch hook(s)" % pruned_watches)
            if narrowed_states:
                bits.append("narrowed %d wildcard state(s)" % narrowed_states)
            if gated:
                bits.append("eager resolution on %d predicate(s)" % gated)
            self.schema_note = "schema: " + ", ".join(bits)

        self.out_kind, self.out_attr = _output_kind(query)

    def describe(self) -> str:
        """Table-shape summary for ``.explain()``."""
        rows = sum(len(row) for row in self.begin_named)
        watches = sum(
            len(entries)
            for row in self.begin_named for entries, _ in row.values())
        return ("compiled transition tables: %d states, %d interned tags, "
                "%d begin-row entries (%d watch hooks), output=%s"
                % (self.n + 1, len(self.tags), rows, watches,
                   self.out_kind))


class _Unfilled:
    """Marks a DFA transition no document has needed yet."""

    __slots__ = ()

    def __repr__(self):
        return "UNFILLED"


#: A transition-row entry the kernel fills on first use.
UNFILLED = _Unfilled()


class ClosurePlan(FastPlan):
    """A predicate-free path with closure steps, determinized lazily.

    The paper runs ``//`` on XSQ-F's nondeterministic HPDT: one matcher
    instance per (element, step) binding, every result through the
    buffer queue.  Without predicates nothing needs buffering, and the
    automaton determinizes by lazy subset construction (Green et al.,
    "Processing XML Streams with Deterministic Automata").  A DFA state
    stands for two sets of matched-step counts at one open element:

    ``here``
        the counts ``k`` such that steps ``1..k`` match a path ending
        at this element (``{0}`` for the document root);
    ``down``
        the counts a ``//`` step passes down to descendants: every
        ``k < n`` reached here or at an ancestor whose step ``k+1`` is
        a closure.

    A begin event's successor depends on its parent's state, on whether
    it is that parent's child (depth is parent + 1) and on its tag: a
    child step continues only from ``here``, a closure step from
    ``down``.  The kernel pushes only elements that match some step and
    compares depths with the nearest pushed ancestor: everything in
    between matched nothing, so its successor is that ancestor's "not a
    child" transition.  The same argument keeps the route-partitioned
    sub-batches of a query group correct: withheld elements name no tag
    of the query, so they match nothing either.

    Transitions are filled on first use, under a lock (one plan serves
    every session of its engine, and the serve broker feeds streams
    from several threads).  Rows are keyed by interned tag id for the
    query's alphabet; every other tag is one "other" symbol, stored
    once per state and row, so the table never holds more than
    ``states × (alphabet + 1) × 2`` entries however many distinct tags
    the streams carry (:meth:`transition_count`,
    :meth:`transition_bound`).

    Each state is a list ``[child_row, closure_row, other_child,
    other_closure, weight, final, id, (here, down)]``.  The rows map
    alphabet tag ids to successor states, ``None`` when the element
    matches no step and :data:`UNFILLED` until first use.  ``weight`` is
    the number of steps the element matches (XSQ-F's live instances for
    it, hence ``peak_instances``) and ``final`` says it matches the
    whole path.
    """

    __slots__ = ("alphabet", "wildcard", "root", "states", "_index",
                 "_lock")

    def __init__(self, query: Query, tags: TagTable):
        self.query = query
        self.tags = tags
        self.kernel = None
        self.eager_gate = None
        self.schema_no_buffer = False
        self.schema_note = None
        steps = query.steps
        self.n = len(steps)
        self.out_kind, self.out_attr = _output_kind(query)
        #: Tag id -> name for every tag a node test names.
        self.alphabet: Dict[int, str] = {
            tags.intern(step.node_test): step.node_test
            for step in steps if step.node_test != "*"}
        self.wildcard = any(step.node_test == "*" for step in steps)
        self.states: List[list] = []
        self._index: Dict[Tuple[frozenset, frozenset], list] = {}
        self._lock = threading.Lock()
        self.root = self._state(frozenset((0,)), frozenset(
            (0,) if steps[0].axis is Axis.DESCENDANT else ()))

    def _state(self, here: frozenset, down: frozenset) -> list:
        key = (here, down)
        state = self._index.get(key)
        if state is None:
            # Without a wildcard step an unnamed tag matches no step.
            other = UNFILLED if self.wildcard else None
            state = [dict.fromkeys(self.alphabet, UNFILLED),
                     dict.fromkeys(self.alphabet, UNFILLED),
                     other, other, len(here - {0}), self.n in here,
                     len(self.states), key]
            self.states.append(state)
            self._index[key] = state
        return state

    def _successor(self, state: list, child: bool,
                   tag: Optional[str]) -> Optional[list]:
        """The state of an element with ``tag`` (None: a tag outside
        the alphabet) below an element in ``state``."""
        here, down = state[7]
        n = self.n
        base = (here - {n}) | down if child else down
        steps = self.query.steps
        reached = frozenset(k + 1 for k in base
                            if steps[k].node_test in ("*", tag))
        if not reached:
            return None
        passed = frozenset(k for k in base | reached
                           if k < n and steps[k].axis is Axis.DESCENDANT)
        return self._state(reached, passed)

    def fill(self, state: list, child: bool, tid: int) -> Optional[list]:
        """Compute, store and return one transition (the kernel's slow
        path, taken once per entry)."""
        tag = self.alphabet.get(tid)
        with self._lock:
            if tag is None:
                slot = 2 if child else 3
                target = state[slot]
                if target is UNFILLED:
                    target = state[slot] = self._successor(state, child,
                                                           None)
            else:
                row = state[0] if child else state[1]
                target = row[tid]
                if target is UNFILLED:
                    target = row[tid] = self._successor(state, child, tag)
        return target

    def transition_count(self) -> int:
        """Transitions stored so far (filled entries, all states)."""
        with self._lock:
            return sum(1 for state in self.states
                       for entry in (*state[0].values(), *state[1].values(),
                                     state[2], state[3])
                       if entry is not UNFILLED)

    def transition_bound(self) -> int:
        """The table's size bound: states × (alphabet + 1) × 2."""
        return len(self.states) * (len(self.alphabet) + 1) * 2

    def describe(self) -> str:
        return ("lazy DFA: %d steps, %d states so far, alphabet of %d "
                "tags + other, %d of at most %d transitions filled, "
                "output=%s" % (self.n, len(self.states), len(self.alphabet),
                               self.transition_count(),
                               self.transition_bound(), self.out_kind))


def compile_fastplan(hpdt: Hpdt, tags: Optional[TagTable] = None,
                     schema_info=None) -> FastPlan:
    """Lower ``hpdt`` to a :class:`FastPlan`, or raise
    :class:`FastPathUnsupportedError` naming the first blocker.

    With ``tags=None`` the plan is memoized on the HPDT itself
    (``hpdt._fastplan``), so it rides the process-wide HPDT compile
    cache: a query compiled once per process is *lowered* once per
    process too.  The plan gets its own :class:`TagTable`, closed as
    soon as lowering ends unless the query needs every tag
    (:func:`repro.xsq.dispatch.needs_every_tag`), so the parser drops
    every tag the plan never interned.  Passing an explicit shared
    ``tags`` table (the multi-query path, where every member must agree
    on tag ids) bypasses the memo and leaves closing to the group.

    Schema-aware lowerings (``schema_info`` from
    :func:`repro.xsq.schema_compile.analyze_fastpath`) are memoized
    separately, keyed by schema fingerprint (``hpdt._schema_plans``) —
    never on the shared schema-less ``_fastplan`` slot, so a schema'd
    compile can never leak pruned rows into a plain run of the same
    HPDT object.
    """
    reason = unsupported_reason(hpdt.query)
    if reason is not None:
        slug, message = reason
        raise FastPathUnsupportedError(message, reason=slug)
    if tags is not None:
        if hpdt.query.has_closure:
            return ClosurePlan(hpdt.query, tags)
        return FastPlan(hpdt.query, tags, schema_info)
    if hpdt.query.has_closure:
        # A closure plan has no rows for a schema to prune and no
        # predicates to resolve eagerly: it ignores ``schema_info``.
        if hpdt._fastplan is None:
            hpdt._fastplan = _closed(ClosurePlan(hpdt.query, TagTable()),
                                     hpdt)
        return hpdt._fastplan
    if schema_info is not None:
        plans = getattr(hpdt, "_schema_plans", None)
        if plans is None:
            plans = hpdt._schema_plans = {}
        plan = plans.get(schema_info.fingerprint)
        if plan is None:
            plan = _closed(FastPlan(hpdt.query, TagTable(), schema_info),
                           hpdt)
            plans[schema_info.fingerprint] = plan
        return plan
    if hpdt._fastplan is None:
        hpdt._fastplan = _closed(FastPlan(hpdt.query, TagTable()), hpdt)
    return hpdt._fastplan


def _closed(plan: FastPlan, hpdt: Hpdt) -> FastPlan:
    """``plan`` with its own table closed when no unnamed tag can
    matter to it."""
    if not needs_every_tag(hpdt):
        plan.tags.close()
    return plan


class FastRuntime:
    """One deterministic pass per document, on the plan's kernel.

    Mirrors :class:`repro.xsq.nc._NCRuntime`'s depth-gated logic —
    including its sparse-feed safety under shared dispatch (at any
    moment the open element at depth ``matched`` is *the* matched one,
    so withheld events can never desynchronize the gate) — but consumes
    batched tuples through the plan's generated kernel
    (:func:`repro.xsq.codegen.compile_kernel`), bound here as the
    instance's ``run_batch``.  The buffer discipline is the shared one:
    ``PredicateInstance``, ``Chain`` and ``OutputQueue`` are reused
    unchanged for items that must wait, and a determined result sent
    through :attr:`emit` is counted in :attr:`results`, which
    :meth:`finish` folds into the queue's totals.  That is what makes
    results, order, and RunStats counters identical to the interpreted
    engines.

    :meth:`reset` readies a finished runtime for the next document:
    the query group keeps its members' runtimes across documents
    instead of building them again.
    """

    def __init__(self, plan: FastPlan, hpdt: Hpdt, sink: list,
                 stat: Optional[StatBuffer] = None,
                 queue: Optional[OutputQueue] = None):
        self.plan = plan
        self.hpdt = hpdt
        self.stat = stat
        self.queue = queue if queue is not None else OutputQueue(sink)
        if self.queue.track_ownership:
            raise FastPathUnsupportedError(
                "the fast path runs without per-operation instrumentation; "
                "trace/accounting-bearing queues need an interpreted "
                "runtime", reason="observability")
        self._closure = isinstance(plan, ClosurePlan)
        self.sink = sink
        #: Where the kernel sends a determined result it does not
        #: enqueue: the sink itself, or, for a union member, the
        #: queue's :meth:`~repro.xsq.buffers.OutputQueue.send`, which
        #: also records the union's shared seq for the node-set dedupe.
        self.emit = self.queue.send if self.queue.track_seqs \
            else sink.append
        kernel = plan.kernel
        if kernel is None:
            from repro.xsq.codegen import compile_kernel
            kernel = compile_kernel(plan)
        # Bound on the instance so every document session (and the
        # profiler, which wraps it in place) runs the same kernel.
        self.run_batch = kernel[0].__get__(self, FastRuntime)
        self.reset()

    def reset(self) -> None:
        """Start the next document: the automaton at its root, no open
        instance or capture, and an empty queue and aggregate.  Nothing
        of the last document stays reachable but what the sink holds
        (the caller empties it)."""
        self.peak_instances = 0
        #: Results the kernel sent without enqueueing them; the queue's
        #: totals take them at ``finish()``.
        self.results = 0
        if self._closure:
            #: One ``(depth, state, live)`` triple per open element that
            #: matched a step, over the document root: ``live`` counts
            #: the matched steps of every open element down to this one.
            self.stack = [(0, self.plan.root, 0)]
        else:
            self.matched = 0
            #: Preallocated instance stack: slot m holds the activation
            #: of step m for the currently matched path (valid for
            #: m < matched).
            self.inst_stack: List[Optional[PredicateInstance]] = \
                [None] * self.plan.n
        #: Open element capture: the serialized parts of the matched
        #: subtree (None outside a match) and its buffered item.  Kept
        #: on the runtime, not the kernel, so captures survive arbitrary
        #: batch splits (push mode feeds whatever chunks arrive).
        self._cap_parts: Optional[List[str]] = None
        self._cap_item: Optional[BufferItem] = None
        self.queue.reset()
        if self.stat is not None:
            self.stat.reset()

    def finish(self) -> None:
        results = self.results
        queue = self.queue
        if results:
            # The interpreted engines enqueue, flush and emit each of
            # these at once, at an empty queue: one item buffered.
            queue.enqueued_total += results
            queue.flushed_total += results
            queue.emitted_total += results
            if queue.peak_size < 1:
                queue.peak_size = 1
        queue.finish()

    def profile_state(self) -> int:
        """The matched-step count the profiler charges the next event
        to (for a closure plan, the deepest step the nearest matched
        element matches, as XSQ-F reports it)."""
        if self._closure:
            here, _down = self.stack[-1][1][7]
            return max(here)
        return self.matched

    def _agg_emitter(self, value: float) -> Callable[[BufferItem], None]:
        stat = self.stat

        def emit(_item: BufferItem) -> None:
            stat.update(value)

        return emit


class XSQEngineFast(_QueryEngine):
    """The compiled fast path behind ``repro.compile(..., engine="auto")``.

    Same surface as the interpreted engines (``run`` / ``iter_results``
    / ``stats`` / ``explain``), same results, order and buffer
    counters; construction raises
    :class:`~repro.errors.FastPathUnsupportedError` when the query or
    the observability configuration needs an interpreted runtime.
    ``obs`` bundles carrying only spans, metrics or the profiler are
    accepted (run stats and phase spans are recorded); a bundle with
    per-event instruments (:attr:`repro.obs.Observability.per_event`)
    forces the fallback — by design, the fast path has no per-event
    hook points.
    """

    name = "xsq-fast"
    supports_predicates = True
    supports_closures = True
    supports_aggregates = True
    streaming = True

    def __init__(self, query: Union[str, Query], obs=None, *, cache=None,
                 schema=None):
        if obs is not None and obs.per_event:
            raise FastPathUnsupportedError(
                "per-event observability (event trace, accounting, "
                "per-event timing) needs an interpreted runtime",
                reason="observability")
        self.obs = obs
        self.schema = None
        schema_info = None
        analyze = None
        if schema is not None:
            # Imported lazily: the schema-off path never loads the
            # schema-compilation module at all.
            from repro.xsq.schema_compile import (analyze_fastpath,
                                                  coerce_schema)
            self.schema = coerce_schema(schema)
            analyze = analyze_fastpath
        schema_key = (self.schema.fingerprint
                      if self.schema is not None else None)
        if obs is not None:
            with obs.span("compile", engine=self.name):
                if isinstance(query, str):
                    with obs.span("parse"):
                        query = parse_query(query)
                with obs.span("hpdt-compile"):
                    self.hpdt = compile_hpdt(query, cache=cache, obs=obs,
                                             schema_key=schema_key)
                with obs.span("fastplan-lower"):
                    if analyze is not None:
                        schema_info = analyze(self.schema, self.hpdt.query)
                    self.plan = compile_fastplan(self.hpdt,
                                                 schema_info=schema_info)
        else:
            self.hpdt = compile_hpdt(query, cache=cache,
                                     schema_key=schema_key)
            if analyze is not None:
                schema_info = analyze(self.schema, self.hpdt.query)
            self.plan = compile_fastplan(self.hpdt,
                                         schema_info=schema_info)
        self.query = self.hpdt.query
        # Imported lazily: processes that only run NC/F never load the
        # kernel generator.
        from repro.xsq.codegen import compile_kernel
        self.kernel, self.kernel_note = compile_kernel(self.plan)
        self.trace = None
        self.last_stats: Optional[RunStats] = None
        self.last_stat_buffer: Optional[StatBuffer] = None
        self.selection_note: Optional[str] = None

    def _session(self, sink: list, streaming_agg: bool = False,
                 drain: bool = True):
        """A :class:`~repro.xsq.push.FastPushHandle` over a fresh
        runtime: it consumes batched tuples (``feed_batch``) produced
        by a :class:`~repro.streaming.push.PushBatchParser` sharing this
        plan's :class:`TagTable`, or plain events (``feed_events``)."""
        from repro.xsq.push import FastPushHandle
        stat = self._new_stat(streaming_agg)
        runtime = FastRuntime(self.plan, self.hpdt, sink, stat=stat)
        return FastPushHandle(self, runtime, sink, stat, streaming_agg,
                              drain)

    def explain(self) -> str:
        lines = [self.hpdt.describe(), "",
                 "runtime: xsq-fast (%s)" % self.plan.describe()]
        lines.append("kernel: %s" % self.kernel_note)
        lines.append(projection_note(self.hpdt, len(self.plan.tags)))
        if self.plan.schema_note:
            lines.append(self.plan.schema_note)
        if self.plan.schema_no_buffer:
            lines.append("buffering: none (schema)")
        if self.selection_note:
            lines.append(self.selection_note)
        return "\n".join(lines)
