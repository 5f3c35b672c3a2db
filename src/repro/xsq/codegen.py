"""Generated per-plan kernels: the fast tier's only runtime.

Each :class:`~repro.xsq.fastpath.FastPlan` is lowered to one
*generated, closure-free dispatch function* the way "Scalable XSLT
Evaluation" compiles its plan to code: states and tag ids baked in as
``int`` constants, predicate tests inlined as direct calls, result
buffering unrolled.  It is compiled once with ``compile()``/``exec``
and memoized on the plan (``plan.kernel``), so it rides the
process-wide HPDT compile cache exactly like the tables.

Four shapes are selected automatically:

* **linear chains** (no predicates, no wildcard steps): the whole
  per-state dispatch collapses to one comparison against an expected-tag
  tuple — ``event[3] == matched + 1 and _EXPECT[matched] == event[1]``
  — because a predicate-free path query has exactly one way forward
  from every state.
* **begin-resolved plans** (every predicate is category 1, or there are
  none): no :class:`~repro.xsq.matcher.PredicateInstance` is ever
  allocated — ``matched`` alone carries the automaton state, and
  every result is determined where it is produced.  ``peak_instances``
  stays identical to the interpreted engines because live instances
  always equal ``matched`` there.
* **general plans**: the instance stack, witness tests and chain
  wiring are kept, but unrolled per state with the pending-predicate
  index sets written out as literals, states emitted deepest-first
  (that is where documents spend their events), and predicate-free
  states sharing one pre-resolved instance instead of allocating.
* **closure stacks** (a :class:`~repro.xsq.fastpath.ClosurePlan`: a
  predicate-free path with ``//`` steps): the kernel walks the plan's
  lazily built DFA over a stack of ``(depth, state, live)`` triples,
  one per open element that matched a step.  A begin event is one dict
  hit and a push, an end event a pop, a text event one test for the
  final state; a missing transition is filled once on the plan.
  Nothing can pend, so every result takes the direct path below.  The
  source depends only on the output kind and the wildcard flag, so
  plans of one shape share one compiled function.

Result sites follow the paper's output rule (Sec 3.3, 4.3): an item is
buffered only while its membership is undetermined.  A site whose
value is determined, with nothing queued ahead of it, calls the
runtime's one result binding ``emit`` (the sink's ``append``, or for a
union member :meth:`~repro.xsq.buffers.OutputQueue.send`, which also
draws the union's seq) or, for ``count()``/``sum()``, the aggregate's
``update``, and adds one to ``self.results``.  No
:class:`~repro.xsq.buffers.BufferItem` is made.  That is every site of
a begin-resolved, schema no-buffer or closure-stack plan; a general
plan tests its governing instances and the queue's head first, and
only a pending item, or a determined one behind a queued item, goes
through ``new_item``.  Element output always takes the queue, since
its value completes at the end tag.  ``FastRuntime.finish`` adds
``results`` to the queue's enqueued, flushed and emitted totals and
raises its peak to at least 1, which is what XSQ-NC and XSQ-F count
for an item enqueued and sent at once, so ``RunStats`` stay equal.

Every plan gets a kernel, however deep the path or wide a transition
row: state and tag dispatch are emitted as *flat* ``if ...: ...;
continue`` blocks rather than ``elif`` chains, which Python's compiler
nests one level per branch.  The cost of a very wide row is a linear
scan per begin event at that state (see ``docs/PERFORMANCE.md``).

The kernel is bound as the *runtime instance's* ``run_batch`` (see
:class:`~repro.xsq.fastpath.FastRuntime`), so the pull loop, push
handles (``xsq serve``), ``iter_results`` and the sampling profiler all
execute it; automaton state (``matched``, capture buffers, peaks) is
loaded at entry and stored at exit of every call, which keeps
single-tuple profiler sampling and arbitrary push-mode batch splits
semantically identical to one big batch.  The generated source is kept
on the function (``fn.__xsq_source__``) for inspection and tests.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.streaming.serialize import begin_tag, escape_text
from repro.xsq.fastpath import UNFILLED, ClosurePlan
from repro.xsq.matcher import Chain, PredicateInstance


def compile_kernel(plan) -> Tuple[Callable, str]:
    """Lower ``plan`` to a generated kernel; memoized on the plan.

    Returns ``(fn, note)``: ``fn`` is the kernel (an unbound function
    taking ``(self, batch)``, to be bound to a
    :class:`~repro.xsq.fastpath.FastRuntime`) and ``note`` describes
    its shape — surfaced by ``.explain()``.
    """
    cached = plan.kernel
    if cached is not None:
        return cached
    if isinstance(plan, ClosurePlan):
        fn = _closure_kernel(plan)
        note = ("generated kernel: %d-step path, %d lines, closure stack "
                "(lazy DFA)" % (plan.n, fn.__xsq_source__.count("\n")))
    else:
        source, namespace, flavor = _generate(plan)
        fn = _build(source, namespace, plan.query.text)
        note = ("generated kernel: %d states, %d lines, %s"
                % (plan.n + 1, source.count("\n"), flavor))
    plan.kernel = (fn, note)
    return plan.kernel


def _build(source: str, namespace: dict, label: str) -> Callable:
    code = compile(source, "<xsq-kernel %s>" % label, "exec")
    exec(code, namespace)
    fn = namespace["__xsq_kernel__"]
    fn.__xsq_source__ = source
    return fn


#: Closure kernels by shape.  Their source depends only on the output
#: kind and on whether the path has a wildcard step (the automaton
#: lives on the plan), so every plan of one shape shares one function.
_CLOSURE_KERNELS: Dict[Tuple[str, bool], Callable] = {}


def _closure_kernel(plan) -> Callable:
    key = (plan.out_kind, plan.wildcard)
    fn = _CLOSURE_KERNELS.get(key)
    if fn is None:
        fn = _build(_closure_source(*key), {"UNFILLED": UNFILLED},
                    "closure %s%s" % (key[0], " wildcard" if key[1] else ""))
        fn = _CLOSURE_KERNELS.setdefault(key, fn)
    return fn


def kernel_source(plan) -> str:
    """The generated source for ``plan``'s kernel."""
    return compile_kernel(plan)[0].__xsq_source__


class _Emitter:
    """Indented line buffer plus a registry of inlined closures."""

    def __init__(self):
        self.lines: List[str] = []
        self.namespace = {
            "PredicateInstance": PredicateInstance,
            "Chain": Chain,
            "_BTAG": begin_tag,
            "_ESC": escape_text,
        }
        self._counter = 0

    def w(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def reg(self, obj, hint: str) -> str:
        """Expose ``obj`` to the kernel under a fresh global name."""
        name = "_%s_%d" % (hint, self._counter)
        self._counter += 1
        self.namespace[name] = obj
        return name

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


def _generate(plan):
    query = plan.query
    n = plan.n
    out_kind = plan.out_kind
    element = out_kind == "element"
    # Begin-resolved plans never allocate instances: every predicate's
    # verdict is known at the match's own begin event.
    simple = all(predicate.resolves_at_begin
                 for step in query.steps for predicate in step.predicates)
    e = _Emitter()
    # States whose instance can actually be NA at result time (a match
    # entry with begin-undecided predicates); every other stack slot
    # holds a pre-resolved singleton.  With exactly one such state the
    # chain wiring at result sites specializes to a two-way branch.
    pending_states = set()
    for m in range(n):
        entries = list(plan.begin_named[m].values())
        if plan.begin_default[m] is not None:
            entries.append(plan.begin_default[m])
        for _watches, match in entries:
            if match is not None and match[1] is not True:
                pending_states.add(m)
    e.pending_states = sorted(pending_states)
    w = e.w

    w(0, "def __xsq_kernel__(self, batch):")
    w(1, "matched = self.matched")
    w(1, "peak = self.peak_instances")
    if element or not (simple or plan.schema_no_buffer):
        # Element output and pending items go through the queue.
        w(1, "queue = self.queue")
        w(1, "new_item = queue.new_item")
        w(1, "mark_output = queue.mark_output")
    if not element:
        _emit_result_locals(e, out_kind)
    if not simple:
        w(1, "inst_stack = self.inst_stack")
    if element:
        w(1, "cap = self._cap_parts")
        w(1, "names = self.plan.tags.names")
    expect = _linear_expect(plan) if simple else None
    if expect is not None:
        w(1, "_EXPECT = %r" % (expect,))
    w(1, "for event in batch:")
    w(2, "kind = event[0]")

    # -- BEGIN -------------------------------------------------------------
    w(2, "if kind == 0:")
    if element:
        w(3, "if cap is not None:")
        w(4, "attrs = event[2]")
        w(4, "if attrs:")
        w(5, "cap.append(_BTAG(names[event[1]], attrs))")
        w(4, "else:")
        w(5, 'cap.append("<" + names[event[1]] + ">")')
    if expect is not None:
        # Linear chain: one comparison replaces the whole state
        # dispatch.  _EXPECT[n] is a -1 sentinel so a begin just below
        # a full match (depth n+1, matched == n) can never advance.
        w(3, "if event[3] == matched + 1 and _EXPECT[matched] "
             "== event[1]:")
        w(4, "matched += 1")
        w(4, "if peak < matched:")
        w(5, "peak = matched")
        if plan.out_kind in ("attr", "count", "element"):
            w(4, "if matched == %d:" % n)
            _emit_begin_output(e, plan, 5, simple)
    else:
        w(3, "if event[3] != matched + 1:")
        w(4, "continue")
        # Deepest states first: most documents produce most of their
        # begin events far from the root, so the hot state should win
        # the dispatch in one comparison.  Each state is a flat block
        # ending in ``continue``: an elif chain would nest one level per
        # state and overflow the compiler on very deep paths.
        for m in reversed(range(n + 1)):
            if plan.begin_named[m] or plan.begin_default[m]:
                w(3, "if matched == %d:" % m)
                _emit_begin_state(e, plan, m, simple, element)
                w(4, "continue")

    # -- END ---------------------------------------------------------------
    w(2, "elif kind == 2:")
    if element:
        w(3, "if cap is not None:")
        w(4, 'cap.append("</" + names[event[1]] + ">")')
        w(4, "if event[3] == matched:")
        w(5, "item = self._cap_item")
        w(5, 'item.value = "".join(cap)')
        w(5, "queue.value_finalized(item)")
        w(5, "cap = None")
        w(5, "self._cap_item = None")
    w(3, "if event[3] == matched and matched:")
    w(4, "matched -= 1")
    if not simple:
        w(4, "instance = inst_stack[matched]")
        w(4, "if instance.status is None:")
        w(5, "instance.resolve_at_end(self)")

    # -- TEXT --------------------------------------------------------------
    has_child_text = [bool(plan.child_text_named[m])
                      or bool(plan.child_text_default[m])
                      for m in range(n + 1)]
    text_states = []
    for m in range(1, n + 1):
        # ``up``: the matched element is itself a direct child whose
        # own text decides step m-2's category-5 predicates.
        up = has_child_text[m - 1]
        own = bool(plan.text_tests[m]) or up or (
            m == n and out_kind in ("text", "agg"))
        child = has_child_text[m]
        if own or child:
            text_states.append((m, own, child))
    if text_states or element:
        w(2, "else:")
        if element:
            w(3, "if cap is not None:")
            w(4, "cap.append(_ESC(event[2]))")
        if text_states:
            w(3, "depth = event[3]")
            for m, own, child in reversed(text_states):
                w(3, "if matched == %d:" % m)
                if own:
                    w(4, "if depth == %d:" % m)
                    _emit_text_own(e, plan, m, 5, simple)
                    if child:
                        w(4, "elif depth == %d:" % (m + 1))
                        _emit_text_child(e, plan, m, 5)
                else:
                    w(4, "if depth == %d:" % (m + 1))
                    _emit_text_child(e, plan, m, 5)
                w(4, "continue")

    # -- epilogue ----------------------------------------------------------
    w(1, "self.matched = matched")
    w(1, "self.peak_instances = peak")
    if element:
        w(1, "self._cap_parts = cap")
    else:
        w(1, "self.results = nres")

    if expect is not None:
        flavor = "linear chain (collapsed dispatch)"
    elif simple:
        flavor = "begin-resolved (no instance allocation)"
    else:
        flavor = "general (instances + chains)"
    if element:
        flavor += ", element capture"
    return e.source(), e.namespace, flavor


def _closure_source(out_kind: str, wildcard: bool) -> str:
    """The closure-stack kernel over a :class:`ClosurePlan`'s lazy DFA.

    ``stack`` holds one ``(depth, state, live)`` triple per open element
    that matched a step; the top is kept in locals.  A begin event is
    one row lookup (the child row when its depth is the top's + 1, the
    closure row otherwise) and, if the element matches a step, a push;
    an end event at the top's depth is a pop; a text event is one test
    for the final state.  A missing transition goes to ``plan.fill``
    once.  Nothing is ever buffered: results go straight to ``emit``
    (or the aggregate), counted in ``self.results``.
    """
    e = _Emitter()
    w = e.w
    w(0, "def __xsq_kernel__(self, batch):")
    w(1, "stack = self.stack")
    w(1, "push = stack.append")
    w(1, "pop = stack.pop")
    w(1, "top_depth, top, live = stack[-1]")
    w(1, "peak = self.peak_instances")
    w(1, "fill = self.plan.fill")
    w(1, "unfilled = UNFILLED")
    _emit_result_locals(e, out_kind)
    if out_kind == "attr":
        w(1, "attr = self.plan.out_attr")
    w(1, "for event in batch:")
    w(2, "kind = event[0]")
    w(2, "if kind == 0:")
    w(3, "depth = event[3]")
    for test, row, other, child in (
            ("if depth == top_depth + 1:", 0, 2, True),
            ("else:", 1, 3, False)):
        w(3, test)
        # Without a wildcard step every unnamed tag matches nothing, so
        # a row miss needs no "other" default.
        default = ", top[%d]" % other if wildcard else ""
        w(4, "nxt = top[%d].get(event[1]%s)" % (row, default))
        w(4, "if nxt is None:")
        w(5, "continue")
        w(4, "if nxt is unfilled:")
        w(5, "nxt = fill(top, %s, event[1])" % child)
        w(5, "if nxt is None:")
        w(6, "continue")
    w(3, "top = nxt")
    w(3, "top_depth = depth")
    w(3, "live += top[4]")
    w(3, "if live > peak:")
    w(4, "peak = live")
    w(3, "push((depth, top, live))")
    if out_kind == "count":
        w(3, "if top[5]:")
        w(4, "update(1.0)")
        w(4, "nres += 1")
    elif out_kind == "attr":
        w(3, "if top[5]:")
        w(4, "value = event[2].get(attr)")
        w(4, "if value is not None:")
        w(5, "emit(value)")
        w(5, "nres += 1")
    w(2, "elif kind == 2:")
    w(3, "if event[3] == top_depth:")
    w(4, "pop()")
    w(4, "top_depth, top, live = stack[-1]")
    if out_kind == "text":
        w(2, "elif event[3] == top_depth and top[5]:")
        w(3, "emit(event[2])")
        w(3, "nres += 1")
    elif out_kind == "agg":
        w(2, "elif event[3] == top_depth and top[5]:")
        w(3, "try:")
        w(4, "fval = float(event[2].strip())")
        w(3, "except ValueError:")
        w(4, "continue")
        w(3, "update(fval)")
        w(3, "nres += 1")
    w(1, "self.peak_instances = peak")
    w(1, "self.results = nres")
    return e.source()


def _linear_expect(plan) -> Optional[tuple]:
    """Expected-tag tuple for a pure linear chain, or None.

    A plan qualifies when every state advances on exactly one named
    tag with no watches, no begin-time predicate program and no
    wildcard default — i.e. a predicate-free path query.  The returned
    tuple has length ``n + 1``: index ``m`` is the tag id state ``m``
    advances on, and index ``n`` is a ``-1`` sentinel (tag ids are
    non-negative) so the collapsed dispatch can index it while a full
    match is on the stack without ever advancing.
    """
    expect = []
    for m in range(plan.n):
        if plan.begin_default[m] is not None:
            return None
        row = plan.begin_named[m]
        if len(row) != 1:
            return None
        (tid, (watches, match)), = row.items()
        if watches or match is None:
            return None
        prog, _const, _undecided = match
        if prog is not None:
            return None
        expect.append(tid)
    if plan.begin_named[plan.n] or plan.begin_default[plan.n] is not None:
        return None
    return tuple(expect) + (-1,)


def _emit_begin_state(e, plan, m, simple, element):
    """One ``matched == m`` begin branch: tid dispatch, watches, match."""
    w = e.w
    row = plan.begin_named[m]
    default = plan.begin_default[m]
    if row:
        w(4, "tid = event[1]")
        for tid, (watches, match) in sorted(row.items()):
            w(4, "if tid == %d:" % tid)
            _emit_begin_entry(e, plan, m, watches, match, 5, simple, element)
            w(5, "continue")
    if default is not None:
        _emit_begin_entry(e, plan, m, default[0], default[1], 4,
                          simple, element)


def _emit_begin_entry(e, plan, m, watches, match, ind, simple, element):
    w = e.w
    if watches:
        # Witness tests for the parent step (m-1) on this child tag.
        w(ind, "instance = inst_stack[%d]" % (m - 1))
        w(ind, "if instance.status is None:")
        w(ind + 1, "pending = instance.pending")
        for pred_index, test in watches:
            if test is None:
                w(ind + 1, "if %d in pending:" % pred_index)
            else:
                name = e.reg(test, "W%d" % m)
                w(ind + 1, "if %d in pending and %s(event[2]):"
                  % (pred_index, name))
            w(ind + 2, "instance.witness(%d, self)" % pred_index)
    if match is not None:
        gates = plan.eager_gate
        if gates is not None and m and gates[m]:
            # Eager resolution (schema): a parent still pending on a
            # gated predicate can never resolve it True anymore — skip
            # the descent outright instead of chaining buffered items
            # under it.
            w(ind, "instance = inst_stack[%d]" % (m - 1))
            w(ind, "if instance.status is None and not "
                   "instance.pending.isdisjoint({%s}):"
              % ", ".join(str(index) for index in sorted(gates[m])))
            w(ind + 1, "continue")
        prog, const, undecided = match
        if prog is not None:
            name = e.reg(prog, "M%d" % m)
            w(ind, "if %s(event[2]) is not False:" % name)
            ind += 1
        if not simple:
            if const is True:
                # Predicate-free state: its instance resolves TRUE at
                # construction and is never mutated afterwards (no
                # watchers attach to resolved instances, end events
                # skip them), so all elements share one.
                name = e.reg(PredicateInstance(m + 1, None), "IN%d" % m)
                w(ind, "inst_stack[%d] = %s" % (m, name))
            else:
                w(ind, "inst_stack[%d] = PredicateInstance(%d, {%s})"
                  % (m, m + 1,
                     ", ".join(str(index) for index in undecided)))
        w(ind, "matched = %d" % (m + 1))
        w(ind, "if peak < %d:" % (m + 1))
        w(ind + 1, "peak = %d" % (m + 1))
        if m + 1 == plan.n:
            _emit_begin_output(e, plan, ind, simple)


def _emit_begin_output(e, plan, ind, simple):
    """Result production at the final match's begin event, inlined."""
    w = e.w
    out_kind = plan.out_kind
    if out_kind == "attr":
        w(ind, "value = event[2].get(%r)" % plan.out_attr)
        w(ind, "if value is not None:")
        _emit_result(e, plan, ind + 1, "value", simple)
    elif out_kind == "count":
        _emit_result(e, plan, ind, '"1"', simple, stat_value="1.0")
    elif out_kind == "element":
        _emit_result(e, plan, ind, "None", simple, element=True)
        w(ind, "self._cap_item = item")
        w(ind, "attrs = event[2]")
        w(ind, "if attrs:")
        w(ind + 1, "cap = [_BTAG(names[event[1]], attrs)]")
        w(ind, "else:")
        w(ind + 1, 'cap = ["<" + names[event[1]] + ">"]')


def _emit_text_own(e, plan, m, ind, simple):
    """Text event at depth m, state m: category-2 tests, the parent's
    category-5 tests on this (matched) child, then text output."""
    w = e.w
    tests = plan.text_tests[m]
    if tests:
        w(ind, "instance = inst_stack[%d]" % (m - 1))
        w(ind, "if instance.status is None:")
        w(ind + 1, "pending = instance.pending")
        for pred_index, test in tests:
            name = e.reg(test, "T%d" % m)
            w(ind + 1, "if %d in pending and %s(event[2]):"
              % (pred_index, name))
            w(ind + 2, "instance.witness(%d, self)" % pred_index)
    if plan.child_text_named[m - 1] or plan.child_text_default[m - 1]:
        _emit_text_child(e, plan, m - 1, ind, fallthrough=True)
    if m == plan.n:
        out_kind = plan.out_kind
        if out_kind == "text":
            _emit_result(e, plan, ind, "event[2]", simple)
        elif out_kind == "agg":
            w(ind, "try:")
            w(ind + 1, "fval = float(event[2].strip())")
            w(ind, "except ValueError:")
            w(ind + 1, "pass")
            w(ind, "else:")
            _emit_result(e, plan, ind + 1, "event[2]", simple,
                         stat_value="fval")


def _emit_text_child(e, plan, m, ind, fallthrough=False):
    """Text event at depth m+1, state m: category-5 tests by child tag.

    A named tag's block ends the event with ``continue`` unless
    ``fallthrough`` (the caller still has work for this event); then the
    wildcard block is guarded by a set test instead.
    """
    w = e.w
    named = plan.child_text_named[m]
    default = plan.child_text_default[m]

    def entries_block(entries, ind):
        w(ind, "instance = inst_stack[%d]" % (m - 1))
        w(ind, "if instance.status is None:")
        w(ind + 1, "pending = instance.pending")
        for pred_index, test in entries:
            name = e.reg(test, "C%d" % m)
            w(ind + 1, "if %d in pending and %s(event[2]):"
              % (pred_index, name))
            w(ind + 2, "instance.witness(%d, self)" % pred_index)

    if named:
        w(ind, "tid = event[1]")
        for tid, entries in sorted(named.items()):
            w(ind, "if tid == %d:" % tid)
            entries_block(entries, ind + 1)
            if not fallthrough:
                w(ind + 1, "continue")
    if default:
        if named and fallthrough:
            w(ind, "if tid not in {%s}:"
              % ", ".join(str(tid) for tid in sorted(named)))
            ind += 1
        entries_block(default, ind)


def _emit_result_locals(e, out_kind) -> None:
    """Prologue locals of the direct result sites: ``emit`` (the
    runtime's one result binding) or the aggregate's ``update``, and
    the ``results`` counter the runtime folds into the queue's totals
    at ``finish()``."""
    if out_kind in ("text", "attr"):
        e.w(1, "emit = self.emit")
    else:
        e.w(1, "update = self.stat.update")
    e.w(1, "nres = self.results")


def _emit_result(e, plan, ind, value_expr, simple, stat_value=None,
                 element=False):
    """One result site, inlined.

    A value whose membership is already determined while nothing is
    queued ahead of it goes straight out: ``emit(value)`` (or
    ``update(stat_value)`` for an aggregate) and ``nres += 1``, with no
    :class:`~repro.xsq.buffers.BufferItem`.  XSQ-NC would enqueue,
    flush and emit it at once, so the runtime adds ``results`` to each
    of those totals at ``finish()``.  On a begin-resolved or schema
    no-buffer plan every site is determined and nothing is ever
    queued, so the site is just the direct path.

    Otherwise the site mirrors ``_NCRuntime._make_item`` for untracked
    queues (the only kind the fast path accepts): owner ``(n, 0)``, one
    chain, governed = still-NA ancestor count; a determined item behind
    a queued one is marked for output and waits its turn.  Element
    output always takes the queue: its value completes at the end tag.
    """
    w = e.w
    n = plan.n
    keywords = ""
    if element:
        keywords += ", value_ready=False"
    if stat_value is not None:
        keywords += ", on_emit=self._agg_emitter(%s)" % stat_value

    def enqueue(ind, governed):
        w(ind, "item = new_item(%s, (%d, 0)%s, governed=%s)"
          % (value_expr, n, keywords, governed))
        w(ind, "item.live_chains = 1")

    def direct(ind):
        if stat_value is None:
            w(ind, "emit(%s)" % value_expr)
        else:
            w(ind, "update(%s)" % stat_value)
        w(ind, "nres += 1")

    if simple or plan.schema_no_buffer:
        # No instance is ever pending (on a schema no-buffer plan every
        # non-begin predicate is eagerly gated upstream, so a site only
        # runs once its governing instances resolved True).
        if element:
            enqueue(ind, 0)
            w(ind, "mark_output(item)")
        else:
            direct(ind)
        return
    if len(e.pending_states) == 1:
        # Only one stack slot can be NA: branch on its status directly,
        # skipping the tuple build and pending scan when it has already
        # resolved (the common case once the witness arrived).
        w(ind, "i_p = inst_stack[%d]" % e.pending_states[0])
        w(ind, "if i_p.status is None:")
        enqueue(ind + 1, 1)
        w(ind + 1, "chain = Chain(item, 1, tuple(inst_stack), ())")
        w(ind + 1, "i_p.chain_watchers.append(chain)")
    else:
        w(ind, "pending_i = [i_ for i_ in inst_stack if i_.status is None]")
        w(ind, "if pending_i:")
        enqueue(ind + 1, "len(pending_i)")
        w(ind + 1, "chain = Chain(item, len(pending_i), tuple(inst_stack), "
                   "())")
        w(ind + 1, "for i_ in pending_i:")
        w(ind + 2, "i_.chain_watchers.append(chain)")
    if not element:
        # Determined, and nothing queued ahead: straight out.  On a
        # child-axis plan a queued item means some open element's
        # instance still pends, and it governs this site too, so the
        # head test never fails here; it stays as the guard of
        # document order.
        w(ind, "elif queue._head is None:")
        direct(ind + 1)
    w(ind, "else:")
    enqueue(ind + 1, 0)
    w(ind + 1, "mark_output(item)")
