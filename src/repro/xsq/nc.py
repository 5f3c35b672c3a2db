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

from typing import Callable, List, Optional, Union

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
from repro.xsq.engine import XSQEngine
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
            # The matched element may itself be the child whose text
            # decides its parent's category-5 predicates
            # (``/b[a<1]/a``): witness before buffering the result.
            if matched >= 2 and frames[-2].child_text_watch:
                self._child_text(frames[-2], event)
            if matched == self.n:
                self._on_result_text(event)
        elif depth == matched + 1 and frames and frames[-1].child_text_watch:
            # Text inside a direct child of the deepest matched element
            # may decide its category-5 predicates.
            self._child_text(frames[-1], event)

    def _child_text(self, parent: _NCFrame, event: Event) -> None:
        """Run ``parent``'s category-5 watches on a direct child's text."""
        prof = self.prof
        t0 = prof.clock() if prof is not None else 0.0
        for instance, pred_index, predicate in parent.child_text_watch:
            if (instance.status is None
                    and pred_index in instance.pending
                    and Bpdt.child_text_verdict(predicate, event.tag,
                                                event.text)):
                instance.witness(pred_index, self)
        if prof is not None:
            prof.add_phase("predicate", prof.clock() - t0,
                           len(parent.child_text_watch))

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


class XSQEngineNC(XSQEngine):
    """XSQ-NC: deterministic streaming XPath, no closure axis.

    Raises :class:`ClosureNotSupportedError` at construction when the
    query contains ``//``; callers fall back to :class:`XSQEngine`.
    Construction, sessions, stats and ``explain`` are XSQ-F's; only the
    runtime differs.
    """

    name = "xsq-nc"
    supports_closures = False
    runtime_line = "runtime: xsq-nc (deterministic interpreted runtime)"

    def _checked(self, query: Union[str, Query]) -> Query:
        if isinstance(query, str):
            query = parse_query(query)
        if query.has_closure:
            raise ClosureNotSupportedError(
                "XSQ-NC does not support the closure axis //; "
                "use XSQEngine (XSQ-F) for %r" % (query.text,))
        return query

    def _new_runtime(self, sink: List[str], stat: Optional[StatBuffer],
                     account) -> _NCRuntime:
        return _NCRuntime(self, sink, stat, self.trace, account=account)
