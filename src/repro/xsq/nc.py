"""XSQ-NC: the deterministic engine without closures (Section 6).

The paper ships two versions of XSQ: XSQ-F (full, nondeterministic) and
XSQ-NC, which supports multiple predicates and aggregations but rejects
the closure axis.  Without ``//`` a location path aligns location steps
with element depths one-to-one, so the HPDT is deterministic: at any
moment there is a single current state, at most one transition arc can
match an event, matching can stop at the first hit, and — because a
single embedding exists per element — results are determined in
document order and can be sent to the output the moment their last
predicate resolves, with no duplicate bookkeeping.

Those properties are exactly why the paper measures XSQ-NC faster than
XSQ-F on identical closure-free queries (Figures 16/17) and more
sensitive to predicate position and result size (Figures 21/22): the
deterministic engine's per-event work collapses to a depth comparison
for everything outside the single match path.

The buffer machinery (:class:`OutputQueue`, :class:`PredicateInstance`,
:class:`Chain`) is shared with XSQ-F; in deterministic runs the
head-of-queue rule never actually delays an item (an earlier item's
governing predicates always resolve no later than a later item's, since
they live on the shared ancestor path).
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, List, Optional, Union

from repro.errors import ClosureNotSupportedError
from repro.streaming.events import Event
from repro.streaming.serialize import EventSerializer
from repro.xpath.ast import (
    AggregateOutput,
    AttrOutput,
    ElementOutput,
    Query,
    TextOutput,
)
from repro.xpath.parser import parse_query
from repro.xsq.aggregates import StatBuffer
from repro.xsq.bpdt import Bpdt
from repro.xsq.buffers import BufferItem, BufferTrace, OutputQueue
from repro.xsq.compile_cache import compile_hpdt
from repro.xsq.engine import RunStats, XSQEngine, _schema_note
from repro.xpath.ast import NotPredicate, OrPredicate, PathPredicate
from repro.xsq.matcher import Chain, PathTracker, PredicateInstance


class _NCFrame:
    """State for the one matched element at one depth of the match path."""

    __slots__ = ("instance", "text_watch", "child_begin_watch",
                 "child_text_watch", "element_item", "serializer",
                 "trackers", "dead_watch")

    def __init__(self, instance: PredicateInstance):
        self.instance = instance
        self.text_watch: List[tuple] = []
        self.child_begin_watch: List[tuple] = []
        self.child_text_watch: List[tuple] = []
        self.element_item: Optional[BufferItem] = None
        self.serializer: Optional[EventSerializer] = None
        self.trackers: List[PathTracker] = []
        # Schema dead-tag watches (see matcher.Frame.dead_watch).
        self.dead_watch: Optional[List[tuple]] = None


class _NCRuntime:
    """One deterministic pass over one document."""

    def __init__(self, engine: "XSQEngineNC", sink: List[str],
                 stat: Optional[StatBuffer],
                 trace: Optional[BufferTrace],
                 account=None):
        self.engine = engine
        self.hpdt = engine.hpdt
        self.steps = engine.query.steps
        self.n = len(self.steps)
        self.output = engine.query.output
        self.sink = sink
        self.stat = stat
        self.queue = OutputQueue(sink, trace=trace, account=account)
        self.account = account
        self.frames: List[_NCFrame] = []
        self._schema_dead = engine._schema_dead
        self._trackers: List[PathTracker] = []
        self._live_instances = 0
        self.peak_instances = 0
        # Execution profiler (repro.obs.profile); see MatcherRuntime.
        self.prof = None

    # -- event handlers ----------------------------------------------------

    def feed(self, event: Event) -> None:
        kind = event.kind
        if kind == "begin":
            self._on_begin(event)
        elif kind == "end":
            self._on_end(event)
        else:
            self._on_text(event)

    def finish(self) -> None:
        self.queue.finish()

    def profile_state(self) -> int:
        """Automaton progress for profiler attribution: the HPDT is
        deterministic, so the frame count *is* the current state."""
        return len(self.frames)

    def _on_begin(self, event: Event) -> None:
        frames = self.frames
        depth = event.depth
        matched = len(frames)
        if self._serializing():
            frames[-1].serializer.feed(event)
        if self._trackers:
            for tracker in self._trackers:
                tracker.on_begin(event.tag, event.attrs, depth, self)
        if depth != matched + 1:
            # Inside an unmatched subtree, or deeper than the match
            # path: nothing to do.  This single comparison is the
            # deterministic engine's fast path.
            return
        # A direct child of the deepest matched element may decide its
        # category-3/4 predicates, matched or not.
        if matched and frames[-1].child_begin_watch:
            prof = self.prof
            t0 = prof.clock() if prof is not None else 0.0
            for instance, pred_index, predicate in frames[-1].child_begin_watch:
                if instance.status is None and pred_index in instance.pending:
                    if Bpdt.child_begin_verdict(predicate, event.tag,
                                                event.attrs):
                        instance.witness(pred_index, self)
            if prof is not None:
                prof.add_phase("predicate", prof.clock() - t0,
                               len(frames[-1].child_begin_watch))
        # Schema eager falsification: after the witness scan, a child
        # tag past which the content model can never produce the
        # witness settles the pending predicate FALSE immediately (see
        # matcher.MatcherRuntime._on_begin).
        if matched and frames[-1].dead_watch is not None:
            for instance, pred_index, dead in frames[-1].dead_watch:
                if instance.status is None and event.tag in dead \
                        and pred_index in instance.pending:
                    instance.resolve_false(self)
        if depth > self.n:
            return
        step = self.steps[depth - 1]
        if not step.matches_tag(event.tag):
            return
        bpdt = self.hpdt.bpdts[(depth, (1 << depth) - 1)]
        verdict = bpdt.begin_verdict(event.attrs)
        if verdict is False:
            return
        if verdict is True:
            instance = PredicateInstance(depth, None)
        else:
            undecided = [(i, p) for i, p in enumerate(step.predicates)
                         if not p.resolves_at_begin]
            instance = PredicateInstance(depth, {i for i, _ in undecided})
        frame = _NCFrame(instance)
        if verdict is None:
            for pred_index, predicate in undecided:
                self._register_watcher(frame, instance, pred_index,
                                       predicate, depth)
            if self._schema_dead is not None:
                hooks = self._schema_dead.get((depth - 1, event.tag))
                if hooks:
                    pending = instance.pending
                    for pred_index, dead in hooks:
                        if pred_index in pending:
                            if frame.dead_watch is None:
                                frame.dead_watch = []
                            frame.dead_watch.append(
                                (instance, pred_index, dead))
        frames.append(frame)
        self._live_instances += 1
        if self._live_instances > self.peak_instances:
            self.peak_instances = self._live_instances
        if self.account is not None:
            self.account.set_instances(self._live_instances)
        if depth == self.n:
            self._on_result_begin(frame, event)

    def _register_watcher(self, frame: _NCFrame,
                          instance: PredicateInstance, pred_index: int,
                          predicate, depth: int) -> None:
        """Route one undecided predicate to its deciding-event hook."""
        if isinstance(predicate, NotPredicate):
            instance.negated.add(pred_index)
            self._register_watcher(frame, instance, pred_index,
                                   predicate.inner, depth)
            return
        if isinstance(predicate, OrPredicate):
            for branch in predicate.branches:
                if not branch.resolves_at_begin:
                    self._register_watcher(frame, instance, pred_index,
                                           branch, depth)
            return
        if isinstance(predicate, PathPredicate):
            tracker = PathTracker(instance, pred_index, predicate, depth)
            frame.trackers.append(tracker)
            self._trackers.append(tracker)
            return
        entry = (instance, pred_index, predicate)
        if predicate.category == 2:
            frame.text_watch.append(entry)
        elif predicate.category in (3, 4):
            frame.child_begin_watch.append(entry)
        else:
            frame.child_text_watch.append(entry)

    def _on_text(self, event: Event) -> None:
        frames = self.frames
        matched = len(frames)
        depth = event.depth
        if self._serializing():
            frames[-1].serializer.feed(event)
        if self._trackers:
            for tracker in self._trackers:
                tracker.on_text(event.text, depth, self)
        if depth == matched and frames:
            frame = frames[-1]
            if frame.text_watch:
                prof = self.prof
                t0 = prof.clock() if prof is not None else 0.0
                for instance, pred_index, predicate in frame.text_watch:
                    if (instance.status is None
                            and pred_index in instance.pending
                            and Bpdt.text_verdict(predicate, event.text)):
                        instance.witness(pred_index, self)
                if prof is not None:
                    prof.add_phase("predicate", prof.clock() - t0,
                                   len(frame.text_watch))
            if matched == self.n:
                self._on_result_text(event)
        elif depth == matched + 1 and frames and frames[-1].child_text_watch:
            # Text inside a direct child of the deepest matched element
            # may decide its category-5 predicates.
            prof = self.prof
            t0 = prof.clock() if prof is not None else 0.0
            for instance, pred_index, predicate in frames[-1].child_text_watch:
                if (instance.status is None
                        and pred_index in instance.pending
                        and Bpdt.child_text_verdict(predicate, event.tag,
                                                    event.text)):
                    instance.witness(pred_index, self)
            if prof is not None:
                prof.add_phase("predicate", prof.clock() - t0,
                               len(frames[-1].child_text_watch))

    def _on_end(self, event: Event) -> None:
        frames = self.frames
        if self._serializing():
            frames[-1].serializer.feed(event)
        if self._trackers:
            for tracker in self._trackers:
                tracker.on_end(event.depth)
        if event.depth != len(frames) or not frames:
            return
        frame = frames.pop()
        if frame.trackers:
            for tracker in frame.trackers:
                tracker.done = True
            self._trackers = [t for t in self._trackers if not t.done]
        if frame.element_item is not None:
            frame.element_item.value = frame.serializer.getvalue()
            self.queue.value_finalized(frame.element_item)
        self._live_instances -= 1
        if self.account is not None:
            self.account.set_instances(self._live_instances)
        if frame.instance.status is None:
            frame.instance.resolve_at_end(self)

    # -- result production ---------------------------------------------------

    def _serializing(self) -> bool:
        frames = self.frames
        return (bool(frames) and len(frames) == self.n
                and frames[-1].serializer is not None)

    def _on_result_begin(self, frame: _NCFrame, event: Event) -> None:
        output = self.output
        if isinstance(output, AttrOutput):
            value = event.attrs.get(output.attr)
            if value is not None:
                self._make_item(value)
        elif isinstance(output, ElementOutput):
            item = self._make_item(None, value_ready=False)
            if item is not None:
                frame.element_item = item
                frame.serializer = EventSerializer()
                frame.serializer.feed(event)
        elif isinstance(output, AggregateOutput) and output.name == "count":
            self._make_item("1", on_emit=self._agg_emitter(1.0))

    def _on_result_text(self, event: Event) -> None:
        output = self.output
        if isinstance(output, TextOutput):
            self._make_item(event.text)
        elif isinstance(output, AggregateOutput) and output.name != "count":
            try:
                value = float(event.text.strip())
            except ValueError:
                return
            self._make_item(event.text, on_emit=self._agg_emitter(value))

    def _agg_emitter(self, value: float) -> Callable[[BufferItem], None]:
        stat = self.stat

        def emit(_item: BufferItem) -> None:
            stat.update(value)

        return emit

    def _make_item(self, value: Optional[str], value_ready: bool = True,
                   on_emit: Optional[Callable] = None) -> BufferItem:
        """Buffer one output unit against the single current embedding."""
        tracking = self.queue.track_ownership
        instances = tuple(frame.instance for frame in self.frames)
        if any(inst.status is False for inst in instances):
            # A negated predicate was witnessed mid-element: the whole
            # path is already dead (before not(), a False instance could
            # only exist after its frame had popped).
            return None
        pending = [inst for inst in instances if inst.status is None]
        owner = (self.hpdt.id_for_statuses(
            tuple([True] + [inst.status is True
                            for inst in instances[:-1]]))
            if tracking else (len(instances), 0))
        item = self.queue.new_item(value, owner, value_ready=value_ready,
                                   on_emit=on_emit, governed=len(pending))
        item.live_chains = 1
        chain = Chain(item, len(pending), instances, ())
        if not pending:
            self.queue.mark_output(item)
        else:
            for instance in pending:
                instance.chain_watchers.append(chain)
            if tracking:
                target = chain.owner_id(self.hpdt)
                if target is not None and target != item.owner:
                    self.queue.upload(item, target)
        return item


class XSQEngineNC:
    """XSQ-NC: deterministic streaming XPath, no closure axis.

    Raises :class:`ClosureNotSupportedError` at construction when the
    query contains ``//``; callers fall back to :class:`XSQEngine`.
    """

    name = "xsq-nc"
    supports_predicates = True
    supports_closures = False
    supports_aggregates = True
    streaming = True

    def __init__(self, query: Union[str, Query], obs=None, *,
                 cache=None, schema=None):
        self.obs = obs
        self.schema = None
        self._schema_dead = None
        schema_key = None
        analyze = None
        if schema is not None:
            # Lazy: the schema-less path never imports the schema
            # compiler.
            from repro.xsq.schema_compile import (analyze_runtime,
                                                  coerce_schema)
            self.schema = coerce_schema(schema)
            schema_key = self.schema.fingerprint
            analyze = analyze_runtime
        if obs is not None:
            with obs.span("compile", engine=self.name):
                if isinstance(query, str):
                    from repro.xpath.tokens import tokenize_query
                    with obs.span("tokenize"):
                        tokenize_query(query.strip())
                    with obs.span("parse"):
                        query = parse_query(query)
                self._reject_closure(query)
                with obs.span("hpdt-compile"):
                    self.hpdt = compile_hpdt(query, cache=cache, obs=obs,
                                             schema_key=schema_key)
        else:
            if isinstance(query, str):
                query = parse_query(query)
            self._reject_closure(query)
            self.hpdt = compile_hpdt(query, cache=cache,
                                     schema_key=schema_key)
        self.query = self.hpdt.query
        if analyze is not None:
            self._schema_dead = analyze(self.schema, self.query)
        if obs is not None and obs.events is not None:
            self.trace: Optional[BufferTrace] = obs.events
        else:
            self.trace = None
        self.last_stats: Optional[RunStats] = None
        self.last_stat_buffer: Optional[StatBuffer] = None
        # Set by repro.api.select_engine when engine="auto" fell back
        # here from the compiled fast path; surfaced by explain().
        self.selection_note: Optional[str] = None

    @staticmethod
    def _reject_closure(query: Query) -> None:
        if query.has_closure:
            raise ClosureNotSupportedError(
                "XSQ-NC does not support the closure axis //; "
                "use XSQEngine (XSQ-F) for %r" % (query.text,))

    def run(self, source, sink: Optional[List[str]] = None) -> List[str]:
        """Evaluate the query over ``source``; see :meth:`XSQEngine.run`."""
        if sink is None:
            sink = []
        obs = self.obs
        if obs is None:
            events = self._as_events(source)
            stat = self._new_stat(False)
            runtime = self._new_runtime(sink, stat)
            count = 0
            feed = runtime.feed
            for event in events:
                count += 1
                feed(event)
            runtime.finish()
            self._capture_stats(runtime, count, stat)
            if stat is not None:
                return [stat.render()]
            return sink
        with obs.span("run", engine=self.name, query=self.query.text):
            with obs.span("stream", engine=self.name) as stream_span:
                events = self._as_events(source)
                stat = self._new_stat(False)
                runtime = self._new_runtime(sink, stat)
                profiler = obs.profiler
                if profiler is not None:
                    count = profiler.pump_events(
                        self.name, events, runtime,
                        on_event=obs.event_hook())
                    profiler.timed_finish(runtime)
                else:
                    count = self._pump_observed(events, runtime, obs)
                    runtime.finish()
        self._capture_stats(runtime, count, stat)
        obs.record_run(self.name, self.last_stats,
                       seconds=stream_span.duration)
        if stat is not None:
            return [stat.render()]
        return sink

    # The instrumented event loop is identical for both engines.
    _pump_observed = XSQEngine._pump_observed

    def iter_results(self, source) -> Iterator[str]:
        """Yield results incrementally (intermediate values for aggregates)."""
        events = self._as_events(source)
        sink: List[str] = []
        stat = self._new_stat(True)
        runtime = self._new_runtime(sink, stat)
        obs = self.obs
        on_event = obs.event_hook() if obs is not None else None
        count = 0
        for event in events:
            count += 1
            if on_event is not None:
                on_event(event)
            runtime.feed(event)
            if stat is not None:
                for value in stat.drain_snapshots():
                    yield value
            elif sink:
                # Drain (don't retain): bounded memory on long streams.
                for value in sink:
                    yield value
                sink.clear()
        runtime.finish()
        self._capture_stats(runtime, count, stat)
        if obs is not None:
            obs.record_run(self.name, self.last_stats)
        if stat is not None:
            yield stat.render()
        else:
            for value in sink:
                yield value
            sink.clear()

    def _as_events(self, source) -> Iterable[Event]:
        from repro.streaming.source import coerce_source
        return coerce_source(source).events()

    def push(self, streaming_agg: bool = False):
        """Open a push handle for one incrementally-fed document; see
        :meth:`XSQEngine.push` — the handle type and semantics are
        identical, over the deterministic runtime."""
        from repro.xsq.push import EventPushHandle
        sink: List[str] = []
        stat = self._new_stat(streaming_agg)
        runtime = self._new_runtime(sink, stat)
        obs = self.obs
        on_event = obs.event_hook() if obs is not None else None
        return EventPushHandle(self, runtime, sink, stat=stat,
                               streaming_agg=streaming_agg,
                               on_event=on_event)

    def _new_stat(self, streaming: bool) -> Optional[StatBuffer]:
        if isinstance(self.query.output, AggregateOutput):
            return StatBuffer(self.query.output.name,
                              track_snapshots=streaming)
        return None

    def _new_runtime(self, sink: List[str],
                     stat: Optional[StatBuffer]) -> _NCRuntime:
        account = None
        if self.obs is not None and self.obs.accounting is not None:
            account = self.obs.accounting.account(self.query.text,
                                                  engine=self.name)
        return _NCRuntime(self, sink, stat, self.trace, account=account)

    def _capture_stats(self, runtime: _NCRuntime, events: int,
                       stat: Optional[StatBuffer]) -> None:
        queue = runtime.queue
        self.last_stats = RunStats(
            events=events,
            enqueued=queue.enqueued_total,
            cleared=queue.cleared_total,
            emitted=queue.emitted_total,
            peak_buffered_items=queue.peak_size,
            peak_instances=runtime.peak_instances,
            flushed=queue.flushed_total,
            uploaded=queue.uploaded_total,
        )
        self.last_stat_buffer = stat

    def explain(self) -> str:
        lines = [self.hpdt.describe(), "",
                 "runtime: xsq-nc (deterministic interpreted runtime)"]
        if self.schema is not None:
            lines.append(_schema_note(self.schema, self._schema_dead))
        if self.selection_note:
            lines.append(self.selection_note)
        return "\n".join(lines)

    @property
    def stats(self) -> Optional[RunStats]:
        """Stats from the most recent run (the facade's uniform name)."""
        return self.last_stats

    def __repr__(self):
        return "<XSQEngineNC %r>" % (self.query.text,)
