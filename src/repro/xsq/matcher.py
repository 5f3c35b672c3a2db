"""Nondeterministic HPDT execution (Section 4.3).

This module runs the compiled HPDT over an event stream.  The paper
describes the runtime as a *current state set* in which each state
carries a depth vector; here the same information is held as a DAG of
:class:`StepMatch` objects — one per (element, location step, embedding)
— whose parent chains are exactly the depth vectors (one entry per
location-step entry event), plus one shared :class:`PredicateInstance`
per (element, step) activation, which is the paper's observation that a
BPDT's TRUE/NA state is a function of the element alone.

The correspondence to the paper's machinery, piece by piece:

=====================================  ====================================
Paper (Section 4.3)                    This module
=====================================  ====================================
current state with depth vector dv     a live :class:`StepMatch` chain
BPDT in NA / TRUE state                :attr:`PredicateInstance.status`
                                       ``None`` / ``True``
deciding event fires (Figs 6-9 arcs)   :meth:`PredicateInstance.witness`
                                       (inverted for ``not()`` indices)
NA→START at ``</tag>`` + queue.clear() :meth:`PredicateInstance
                                       .resolve_at_end` killing chains,
                                       dead items unlinked
NA→TRUE + queue.upload()/flush()       :meth:`PredicateInstance.resolve_true`
                                       re-owning or output-marking items
item enqueued under several dvs        one :class:`BufferItem` with one
                                       :class:`Chain` per embedding
"mark as output, send at queue head"   :class:`repro.xsq.buffers.OutputQueue`
category-6 path predicates (extension) one :class:`PathTracker` per
                                       activation
=====================================  ====================================
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.streaming.events import Event, event_of
from repro.streaming.serialize import EventSerializer
from repro.xpath.ast import (
    AggregateOutput,
    AttrOutput,
    Axis,
    ElementOutput,
    NotPredicate,
    OrPredicate,
    PathAttrCompare,
    PathAttrExists,
    PathExists,
    PathPredicate,
    PathTextCompare,
    Query,
    TextOutput,
    compare,
    test_tag,
)
from repro.xsq.aggregates import StatBuffer
from repro.xsq.bpdt import Bpdt
from repro.xsq.buffers import BufferItem, BufferTrace, OutputQueue
from repro.xsq.hpdt import Hpdt


class PredicateInstance:
    """TRUE/NA state of one BPDT activation for one stream element.

    ``status`` is ``None`` while the BPDT sits in its NA state, ``True``
    once a deciding event moves it to TRUE, and ``False`` after the
    element's end event falls back to START.  All embeddings that pass
    through the same element at the same step share one instance.
    """

    __slots__ = ("level", "pending", "status", "chain_watchers", "negated")

    def __init__(self, level: int, pending: Optional[set]):
        self.level = level
        self.pending = pending or set()
        self.status: Optional[bool] = None if self.pending else True
        self.chain_watchers: List["Chain"] = []
        #: Indices of pending predicates wrapped in not(): their witness
        #: events falsify the step, and the end event confirms them.
        self.negated: set = set()

    def resolve_pred(self, pred_index: int, runtime: "MatcherRuntime") -> None:
        """One of the step's predicates just evaluated to true."""
        if self.status is not None:
            return
        self.pending.discard(pred_index)
        if not self.pending:
            self.resolve_true(runtime)

    def witness(self, pred_index: int, runtime: "MatcherRuntime") -> None:
        """A deciding event for predicate ``pred_index`` just fired.

        For a plain predicate that settles it true; for a negated one
        it falsifies the whole activation (Figure 5's FAILED semantics,
        arriving late).
        """
        if self.status is not None:
            return
        if pred_index in self.negated:
            self.resolve_false(runtime)
        else:
            self.resolve_pred(pred_index, runtime)

    def resolve_at_end(self, runtime: "MatcherRuntime") -> None:
        """The element's end event: NA falls back to START — unless
        every still-pending predicate is a negation, in which case the
        absence of witnesses is exactly what not() asserts."""
        if self.status is not None:
            return
        if self.negated and self.pending <= self.negated:
            self.pending.clear()
            self.resolve_true(runtime)
        else:
            self.resolve_false(runtime)

    def resolve_true(self, runtime: "MatcherRuntime") -> None:
        self.status = True
        watchers, self.chain_watchers = self.chain_watchers, []
        for chain in watchers:
            chain.on_instance_true(runtime)

    def resolve_false(self, runtime: "MatcherRuntime") -> None:
        """End event reached with predicates still undecided (NA→START)."""
        self.status = False
        watchers, self.chain_watchers = self.chain_watchers, []
        for chain in watchers:
            chain.on_instance_false(runtime)

    def __repr__(self):
        return "<Instance L%d %s>" % (self.level, self.status)


#: Sentinel stored in a frame's instance table when a category-1
#: predicate already failed at the begin event (Figure 5's FAILED sink):
#: no embedding through this (element, step) can ever succeed.
FAILED_INSTANCE = "failed"


class PathTracker:
    """Per-activation matcher for one path predicate (category 6).

    Because path steps are all child-axis, the match state is a single
    integer: how many leading path steps the *currently open* element
    path below the anchor matches.  Begin events at relative depth
    ``match_len + 1`` may extend it, the matching end event retracts
    it, and reaching the full length triggers the predicate's terminal
    test (existence, attribute, or text).
    """

    __slots__ = ("instance", "pred_index", "predicate", "base_depth",
                 "match_len", "done")

    def __init__(self, instance: "PredicateInstance", pred_index: int,
                 predicate: PathPredicate, base_depth: int):
        self.instance = instance
        self.pred_index = pred_index
        self.predicate = predicate
        self.base_depth = base_depth
        self.match_len = 0
        self.done = False

    @property
    def length(self) -> int:
        return len(self.predicate.path)

    def on_begin(self, tag: str, attrs, depth: int,
                 runtime: "MatcherRuntime") -> None:
        if self.done or self.instance.status is not None:
            self.done = True
            return
        rel = depth - self.base_depth
        if rel != self.match_len + 1 or rel > self.length:
            return
        if not test_tag(self.predicate.path[rel - 1], tag):
            return
        self.match_len = rel
        if rel < self.length:
            return
        predicate = self.predicate
        if isinstance(predicate, PathExists):
            self._resolve(runtime)
        elif isinstance(predicate, PathAttrExists):
            if predicate.attr in attrs:
                self._resolve(runtime)
        elif isinstance(predicate, PathAttrCompare):
            value = attrs.get(predicate.attr)
            if value is not None and compare(value, predicate.op,
                                             predicate.value):
                self._resolve(runtime)
        # PathTextCompare waits for the terminal element's text events.

    def on_text(self, text: str, depth: int,
                runtime: "MatcherRuntime") -> None:
        if self.done or self.match_len != self.length:
            return
        predicate = self.predicate
        if not isinstance(predicate, PathTextCompare):
            return
        if depth == self.base_depth + self.length \
                and compare(text, predicate.op, predicate.value):
            self._resolve(runtime)

    def on_end(self, depth: int) -> None:
        if self.done:
            return
        rel = depth - self.base_depth
        if rel >= 1 and rel == self.match_len:
            self.match_len = rel - 1

    def _resolve(self, runtime: "MatcherRuntime") -> None:
        self.done = True
        self.instance.witness(self.pred_index, runtime)


class StepMatch:
    """One embedding of one element at one location step.

    The chain of ``parent`` links is the paper's depth vector for the
    corresponding current state; :meth:`depth_vector` materializes it.
    """

    __slots__ = ("step_index", "depth", "parent", "instance")

    def __init__(self, step_index: int, depth: int,
                 parent: Optional["StepMatch"],
                 instance: Optional[PredicateInstance]):
        self.step_index = step_index
        self.depth = depth
        self.parent = parent
        self.instance = instance

    def depth_vector(self) -> Tuple[int, ...]:
        depths: List[int] = []
        current: Optional[StepMatch] = self
        while current is not None and current.step_index >= 0:
            depths.append(current.depth)
            current = current.parent
        depths.reverse()
        return tuple(depths)

    def __repr__(self):
        return "<StepMatch step=%d dv=%r>" % (self.step_index,
                                              self.depth_vector())


class Chain:
    """One embedding's claim on a buffered item.

    ``instances`` holds the predicate instances of every level 1..n on
    the embedding's path; ``pending`` counts those still NA.  When the
    count hits zero the item is output-marked; when any instance goes
    false the chain dies, and when an item's last chain dies the item is
    cleared.
    """

    __slots__ = ("item", "pending", "instances", "dead", "dv")

    def __init__(self, item: BufferItem, pending: int,
                 instances: Tuple[PredicateInstance, ...],
                 dv: Tuple[int, ...]):
        self.item = item
        self.pending = pending
        self.instances = instances
        self.dead = False
        self.dv = dv

    def owner_id(self, hpdt: Hpdt) -> Optional[Tuple[int, int]]:
        """Current buffer position: the BPDT of the deepest NA level.

        ``None`` means no level is NA any more — the item belongs to the
        output, not to a buffer (the all-ones flush rule).
        """
        deepest_na = -1
        for instance in self.instances:
            if instance.status is None:
                deepest_na = instance.level
        if deepest_na < 0:
            return None
        statuses = [True]  # level 0: the root BPDT, always true
        for instance in self.instances:
            if instance.level < deepest_na:
                statuses.append(instance.status is True)
        return hpdt.id_for_statuses(tuple(statuses[:deepest_na]))

    def on_instance_true(self, runtime: "MatcherRuntime") -> None:
        if self.dead or self.item.state != "pending":
            return
        self.pending -= 1
        if self.pending == 0:
            runtime.queue.mark_output(self.item, depth_vector=self.dv)
            return
        if runtime.queue.track_ownership:
            # Ownership hops (Section 4.3's uploads) are observable
            # only through the trace or the accountant's per-BPDT
            # gauges; skip the arithmetic otherwise.
            owner = self.owner_id(runtime.hpdt)
            if owner is not None and owner != self.item.owner:
                runtime.queue.upload(self.item, owner,
                                     depth_vector=self.dv)

    def on_instance_false(self, runtime: "MatcherRuntime") -> None:
        if self.dead:
            return
        self.dead = True
        self.item.live_chains -= 1
        if self.item.live_chains <= 0:
            runtime.queue.mark_dead(self.item, depth_vector=self.dv)


class Frame:
    """Per-open-element runtime state."""

    __slots__ = ("tag", "depth", "contexts", "instances", "text_watch",
                 "child_begin_watch", "child_text_watch", "result_matches",
                 "element_item", "serializer", "trackers", "closure_down",
                 "dead_watch")

    def __init__(self, tag: str, depth: int):
        self.tag = tag
        self.depth = depth
        self.contexts: List[StepMatch] = []
        # Lazily-cached subset of ``contexts`` that survives into a
        # subtree the shared dispatch index skipped (closure contexts
        # only); see MatcherRuntime._closure_down.
        self.closure_down: Optional[List[StepMatch]] = None
        # step_index -> PredicateInstance | FAILED_INSTANCE
        self.instances: Dict[int, object] = {}
        # (instance, pred_index, predicate) triples still waiting.
        self.text_watch: List[tuple] = []
        self.child_begin_watch: List[tuple] = []
        self.child_text_watch: List[tuple] = []
        # Schema dead-tag watches: (instance, pred_index, dead_tags)
        # triples — a child whose tag is in ``dead_tags`` proves the
        # predicate's witness can no longer arrive (content-model
        # ordering), so the instance falsifies early.  None (not an
        # empty list) when no schema is attached: the per-begin check
        # is one attribute load.
        self.dead_watch: Optional[List[tuple]] = None
        self.result_matches: List[StepMatch] = []
        self.element_item: Optional[BufferItem] = None
        self.serializer: Optional[EventSerializer] = None
        self.trackers: List[PathTracker] = []


class MatcherRuntime:
    """Drives the HPDT over an event stream, filling ``sink``.

    One instance handles one document at a time.  Single-query engines
    construct a fresh runtime per run (the compiled :class:`Hpdt` is
    reusable across runs); the query group keeps its members' runtimes
    and calls :meth:`reset` between documents.
    """

    def __init__(self, hpdt: Hpdt, sink: List[str],
                 trace: Optional[BufferTrace] = None,
                 stat: Optional[StatBuffer] = None,
                 queue: Optional[OutputQueue] = None,
                 account=None, schema_dead=None,
                 tag_names: Optional[List[str]] = None):
        self.hpdt = hpdt
        # The query group's TagTable.names, for run_batch().
        self.tag_names = tag_names
        # (step_index, tag) -> ((pred_index, dead_tags), ...) from
        # repro.xsq.schema_compile.analyze_runtime; None without schema.
        self._schema_dead = schema_dead
        self.query: Query = hpdt.query
        self.steps = hpdt.query.steps
        self.last_step = len(self.steps) - 1
        self.output = hpdt.query.output
        self.sink = sink
        self.stat = stat
        self.queue = queue if queue is not None \
            else OutputQueue(sink, trace=trace, account=account)
        self.account = self.queue.account
        # Execution profiler (repro.obs.profile); set by
        # Profiler.attach, read inside the watch-scan branches only —
        # un-profiled runs pay one None-test per *watched* event, never
        # per event.
        self.prof = None
        if self.account is None:
            # The accountant tail in _on_end is the runtime's only
            # per-event obs branch; pay the None-check once per run by
            # binding the plain handler (feed() and run_batch() both go
            # through self.on_end).
            self.on_end = self._on_end_plain
        self.reset()

    def reset(self) -> None:
        """Start the next document: only the document root open, no
        instance, serializer or tracker, and an empty queue and
        aggregate.  Nothing of the last document stays reachable but
        what the sink holds (the caller empties it)."""
        root_frame = Frame("", 0)
        root_frame.contexts = [StepMatch(-1, 0, None, None)]
        self.stack: List[Frame] = [root_frame]
        self._serializing: List[Frame] = []
        self._trackers: List[PathTracker] = []
        # Peak simultaneously-open instances: the runtime memory metric.
        self._live_instances = 0
        self.peak_instances = 0
        self.queue.reset()
        if self.stat is not None:
            self.stat.reset()

    # -- public driving --------------------------------------------------

    def feed(self, event: Event) -> None:
        kind = event.kind
        if kind == "begin":
            self.on_begin(event)
        elif kind == "end":
            self.on_end(event)
        else:
            self.on_text(event)

    def run_batch(self, batch) -> None:
        """Feed batched ``(kind, tag_id, payload, depth)`` tuples, their
        tag ids read through :attr:`tag_names`: how a query group
        drives an XSQ-F member, the way it drives a kernel member's
        ``run_batch``.  Each tuple becomes one Event for its kind's
        handler."""
        names = self.tag_names
        # Indexed by tuple kind: BEGIN, TEXT, END.
        handlers = (self.on_begin, self.on_text, self.on_end)
        for item in batch:
            handlers[item[0]](event_of(item, names))

    def finish(self) -> None:
        self.queue.finish()

    def profile_state(self) -> int:
        """Automaton progress for profiler attribution: the deepest
        match frontier (count of matched location steps) at the top of
        the stack — the nondeterministic analogue of an HPDT state id."""
        top = self.stack[-1]
        return max((sm.step_index for sm in top.contexts), default=-1) + 1

    def _closure_down(self, frame: Frame) -> List[StepMatch]:
        """Contexts that survive a subtree the dispatch index skipped.

        When the shared dispatch (:mod:`repro.xsq.dispatch`) withholds
        the events of elements this query cannot react to, the frames
        it would have pushed for them all carry the same context list:
        the parent's contexts filtered to those whose next step is a
        closure (``//`` self-loop propagation).  The filter is
        idempotent — every survivor's next step is a closure step, so
        it survives again at any deeper skipped level — which is why a
        gap of any depth collapses to this one cached list.
        """
        down = frame.closure_down
        if down is None:
            steps = self.steps
            down = [sm for sm in frame.contexts
                    if steps[sm.step_index + 1].axis is Axis.DESCENDANT]
            frame.closure_down = down
        return down

    # -- event handlers ----------------------------------------------------

    def _on_begin(self, event: Event) -> None:
        parent = self.stack[-1]
        tag = event.tag
        attrs = event.attrs
        frame = Frame(tag, event.depth)
        # Under shared dispatch (repro.xsq.dispatch) events this runtime
        # cannot react to are never delivered, so the stack is sparse:
        # ``parent`` may be a strict ancestor rather than the document
        # parent.  ``adjacent`` gates the direct-child semantics below;
        # in dense (single-query) runs it is always True.
        adjacent = parent.depth == event.depth - 1

        # (a) This begin event may decide category-3/4 predicates of the
        # parent element (Figures 7/8: NA -> TRUE on a passing <child>)
        # or advance a path tracker (category 6).
        if adjacent and parent.child_begin_watch:
            prof = self.prof
            t0 = prof.clock() if prof is not None else 0.0
            for entry in parent.child_begin_watch:
                instance, pred_index, predicate = entry
                if instance.status is not None or pred_index not in instance.pending:
                    continue
                if Bpdt.child_begin_verdict(predicate, tag, attrs):
                    instance.witness(pred_index, self)
            if prof is not None:
                prof.add_phase("predicate", prof.clock() - t0,
                               len(parent.child_begin_watch))
        # (a') Schema eager falsification: a child tag after which the
        # content model can never produce the witness again settles the
        # predicate FALSE now — buffered items under this activation
        # die here instead of at the parent's end event.  Runs after
        # the witness scan above so a tag that is both witness and
        # dead-marker (category 3/4) resolves TRUE first.
        if adjacent and parent.dead_watch is not None:
            for instance, pred_index, dead in parent.dead_watch:
                if instance.status is None and tag in dead \
                        and pred_index in instance.pending:
                    instance.resolve_false(self)
        if self._trackers:
            for tracker in self._trackers:
                tracker.on_begin(tag, attrs, event.depth, self)

        # (b) Advance the match frontier: try each context against the
        # next location step, propagating closure contexts downwards
        # (the // self-transition on START states).
        contexts = frame.contexts
        steps = self.steps
        for sm in (parent.contexts if adjacent
                   else self._closure_down(parent)):
            next_index = sm.step_index + 1
            step = steps[next_index]
            if step.axis is Axis.DESCENDANT:
                contexts.append(sm)
            if not step.matches_tag(tag):
                continue
            instance = frame.instances.get(next_index)
            if instance is None:
                instance = self._new_instance(frame, next_index, attrs)
            if instance is FAILED_INSTANCE:
                continue
            match = StepMatch(next_index, event.depth, sm, instance)
            if next_index < self.last_step:
                contexts.append(match)
            else:
                frame.result_matches.append(match)

        self.stack.append(frame)

        # (c) Output hooks for result candidates.
        if frame.result_matches:
            self._on_result_begin(frame, event)
        if self._serializing:
            for holder in self._serializing:
                holder.serializer.feed(event)

    def _on_text(self, event: Event) -> None:
        frame = self.stack[-1]

        # Category-2 predicates of this element (Figure 6).
        if frame.text_watch:
            prof = self.prof
            t0 = prof.clock() if prof is not None else 0.0
            for entry in frame.text_watch:
                instance, pred_index, predicate = entry
                if instance.status is not None or pred_index not in instance.pending:
                    continue
                if Bpdt.text_verdict(predicate, event.text):
                    instance.witness(pred_index, self)
            if prof is not None:
                prof.add_phase("predicate", prof.clock() - t0,
                               len(frame.text_watch))

        # Path trackers watching a terminal element's text (category 6).
        if self._trackers:
            for tracker in self._trackers:
                tracker.on_text(event.text, event.depth, self)

        # Category-5 predicates of the parent element (Figure 9).  The
        # depth check keeps sparse stacks (shared dispatch) honest: the
        # watch only covers text in *direct* children of its element.
        if len(self.stack) >= 2:
            parent = self.stack[-2]
            if parent.child_text_watch \
                    and parent.depth == event.depth - 1:
                prof = self.prof
                t0 = prof.clock() if prof is not None else 0.0
                for entry in parent.child_text_watch:
                    instance, pred_index, predicate = entry
                    if (instance.status is not None
                            or pred_index not in instance.pending):
                        continue
                    if Bpdt.child_text_verdict(predicate, frame.tag,
                                               event.text):
                        instance.witness(pred_index, self)
                if prof is not None:
                    prof.add_phase("predicate", prof.clock() - t0,
                                   len(parent.child_text_watch))

        # Result values carried by text events.
        if frame.result_matches:
            output = self.output
            if isinstance(output, TextOutput):
                self._make_item(event.text, frame.result_matches)
            elif isinstance(output, AggregateOutput) and output.name != "count":
                try:
                    value = float(event.text.strip())
                except ValueError:
                    value = None
                if value is not None:
                    self._make_item(
                        event.text, frame.result_matches,
                        on_emit=self._agg_emitter(value))

        if self._serializing:
            for holder in self._serializing:
                holder.serializer.feed(event)

    def _on_end(self, event: Event) -> None:
        frame = self._on_end_plain(event)
        if self.account is not None and frame.instances:
            self.account.set_instances(self._live_instances)

    def _on_end_plain(self, event: Event) -> Frame:
        """:meth:`_on_end` minus the accountant tail; returns the
        closed frame.

        Bound as ``self.on_end`` when no account is attached (see
        ``__init__``).
        """
        if self._serializing:
            for holder in self._serializing:
                holder.serializer.feed(event)
        frame = self.stack.pop()
        if frame.element_item is not None:
            frame.element_item.value = frame.serializer.getvalue()
            self._serializing.remove(frame)
            self.queue.value_finalized(frame.element_item)
        if self._trackers:
            if frame.trackers:
                # The anchor element closed: its trackers are finished.
                for tracker in frame.trackers:
                    tracker.done = True
                self._trackers = [t for t in self._trackers if not t.done]
            for tracker in self._trackers:
                tracker.on_end(event.depth)
        # NA -> START: every still-undecided activation is now false
        # (all children seen, none satisfied the predicate).
        for instance in frame.instances.values():
            if instance is not FAILED_INSTANCE:
                self._live_instances -= 1
                if instance.status is None:
                    instance.resolve_at_end(self)
        return frame

    # Instance bindings may replace these (the plain end-handler); feed()
    # and run_batch() always go through them.
    on_begin = _on_begin
    on_text = _on_text
    on_end = _on_end

    # -- helpers ----------------------------------------------------------

    def _new_instance(self, frame: Frame, step_index: int,
                      attrs: Dict[str, str]):
        """Activate the BPDT of ``step_index`` for this element.

        Evaluates category-1 predicates immediately (Figure 5) and
        registers deciding-event watchers for the rest (Figures 6–9).
        """
        step = self.steps[step_index]
        bpdt = self.hpdt.bpdts[(step_index + 1,
                                (1 << (step_index + 1)) - 1)]
        verdict = bpdt.begin_verdict(attrs)
        if verdict is False:
            frame.instances[step_index] = FAILED_INSTANCE
            return FAILED_INSTANCE
        if verdict is True:
            instance = PredicateInstance(step_index + 1, None)
        else:
            undecided = [(i, p) for i, p in enumerate(step.predicates)
                         if not p.resolves_at_begin]
            instance = PredicateInstance(step_index + 1,
                                         {i for i, _ in undecided})
            for pred_index, predicate in undecided:
                self._register_watcher(frame, instance, pred_index,
                                       predicate)
            if self._schema_dead is not None:
                hooks = self._schema_dead.get((step_index, frame.tag))
                if hooks:
                    pending = instance.pending
                    for pred_index, dead in hooks:
                        if pred_index in pending:
                            if frame.dead_watch is None:
                                frame.dead_watch = []
                            frame.dead_watch.append(
                                (instance, pred_index, dead))
        frame.instances[step_index] = instance
        self._live_instances += 1
        if self._live_instances > self.peak_instances:
            self.peak_instances = self._live_instances
        if self.account is not None:
            self.account.set_instances(self._live_instances)
        return instance

    def _register_watcher(self, frame: Frame, instance: PredicateInstance,
                          pred_index: int, predicate) -> None:
        """Route one undecided predicate to its deciding-event hook.

        An ``or`` disjunction registers every non-attribute branch
        against the same (instance, pred_index) slot: the first branch
        witnessed true settles the whole predicate.
        """
        if isinstance(predicate, NotPredicate):
            instance.negated.add(pred_index)
            self._register_watcher(frame, instance, pred_index,
                                   predicate.inner)
            return
        if isinstance(predicate, OrPredicate):
            for branch in predicate.branches:
                if not branch.resolves_at_begin:
                    self._register_watcher(frame, instance, pred_index,
                                           branch)
            return
        if isinstance(predicate, PathPredicate):
            tracker = PathTracker(instance, pred_index, predicate,
                                  frame.depth)
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

    def _on_result_begin(self, frame: Frame, event: Event) -> None:
        output = self.output
        if isinstance(output, AttrOutput):
            value = event.attrs.get(output.attr)
            if value is not None:
                self._make_item(value, frame.result_matches)
        elif isinstance(output, ElementOutput):
            item = self._make_item(None, frame.result_matches,
                                   value_ready=False)
            if item is not None:
                frame.element_item = item
                frame.serializer = EventSerializer()
                self._serializing.append(frame)
        elif isinstance(output, AggregateOutput) and output.name == "count":
            self._make_item("1", frame.result_matches,
                            on_emit=self._agg_emitter(1.0))

    def _agg_emitter(self, value: float) -> Callable[[BufferItem], None]:
        stat = self.stat

        def emit(_item: BufferItem) -> None:
            stat.update(value)

        return emit

    def _make_item(self, value: Optional[str],
                   result_matches: List[StepMatch],
                   value_ready: bool = True,
                   on_emit: Optional[Callable] = None) -> Optional[BufferItem]:
        """Buffer one output unit with one chain per live embedding.

        Depth vectors and buffer-ownership hops exist for the trace
        facility (the paper's worked examples) and the resource
        accountant; when neither is attached they are skipped — the
        chain bookkeeping alone decides emission.
        """
        tracking = self.queue.track_ownership
        chain_specs = []
        for sm in result_matches:
            instances: List[PredicateInstance] = []
            dead = False
            current: Optional[StepMatch] = sm
            while current is not None and current.step_index >= 0:
                instance = current.instance
                if instance.status is False:
                    dead = True
                    break
                instances.append(instance)
                current = current.parent
            if dead:
                continue
            instances.reverse()
            chain_specs.append(
                (tuple(instances),
                 sm.depth_vector() if tracking else ()))
        if not chain_specs:
            return None
        first_instances, first_dv = chain_specs[0]
        owner = (self._creation_owner(first_instances) if tracking
                 else (len(first_instances), 0))
        governed = 0
        if self.account is not None:
            # Unresolved predicates governing the item: the *minimum*
            # over embeddings (any one chain resolving outputs the
            # item), consumed by the auditor's necessary-buffering
            # check.
            governed = min(
                sum(1 for inst in instances if inst.status is None)
                for instances, _dv in chain_specs)
        item = self.queue.new_item(value, owner, value_ready=value_ready,
                                   on_emit=on_emit, depth_vector=first_dv,
                                   governed=governed)
        item.live_chains = len(chain_specs)
        for instances, dv in chain_specs:
            pending = [inst for inst in instances if inst.status is None]
            chain = Chain(item, len(pending), instances, dv)
            if not pending:
                self.queue.mark_output(item, depth_vector=dv)
                break
            for instance in pending:
                instance.chain_watchers.append(chain)
        else:
            # No chain satisfied yet; record the first upload hop (the
            # item logically moves from the lowest layer to the deepest
            # still-NA ancestor's buffer, Section 4.3's upload rule).
            if tracking:
                target = Chain(item, 0, first_instances,
                               first_dv).owner_id(self.hpdt)
                if target is not None and target != item.owner:
                    self.queue.upload(item, target, depth_vector=first_dv)
        return item

    def _creation_owner(self, instances: Tuple[PredicateInstance, ...]
                        ) -> Tuple[int, int]:
        """Lowest-layer BPDT position given current predicate knowledge."""
        statuses = [True]  # root level
        for instance in instances[:-1]:
            statuses.append(instance.status is True)
        return self.hpdt.id_for_statuses(tuple(statuses))
