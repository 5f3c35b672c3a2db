"""Schema-aware query optimization — the paper's stated future work.

Section 5: "Currently the XSQ system is schema-unaware.  It is an
interesting topic to automatically incorporate schema information, if
available, into the system for optimization."  Given a DTD
(:mod:`repro.streaming.dtd`), this module performs three sound
transformations before the HPDT is built:

1. **Static emptiness.**  If the location path cannot bind to any
   tag sequence the DTD permits — or a predicate tests a child the
   schema forbids, or text where the schema allows none — the query's
   answer is empty for every valid document and the stream need not be
   read at all.

2. **Guaranteed-predicate elimination.**  A ``[child]`` predicate is
   dropped when the content model *requires* that child (every
   accepted child sequence contains it), and ``[@attr]`` when the DTD
   declares the attribute ``#REQUIRED`` (a valid element cannot omit
   it).  ``[text()]`` is never dropped: a DTD only says whether
   character data is *allowed* — mixed content ``(#PCDATA | a | b)*``
   also accepts the empty sequence, so no DTD can guarantee an element
   carries non-empty text.  Fewer predicates mean fewer NA states,
   smaller HPDTs, and less buffering.

3. **Closure elimination.**  On a non-recursive DTD, ``//`` steps are
   expanded into the finitely many child-axis paths the schema allows.
   If exactly one path survives, the query becomes deterministic and
   runs on the fast tiers; several paths run as a grouped union in one
   pass (:class:`repro.api.UnionEngine`).  Recursive DTDs —
   35 of 60 real DTDs per the survey the paper cites — are left to
   XSQ-F, whose nondeterministic machinery exists precisely for them.

:func:`optimize` returns the outcome as a :class:`Plan` (for
inspection: ``Plan.describe()``).  Running a query schema-aware is
``repro.compile(query, schema=dtd)``: :func:`repro.api.select_engine`
applies these rewrites first, runs a several-path expansion on
:class:`repro.api.UnionEngine` and compiles the chosen engine
schema-aware (:mod:`repro.xsq.schema_compile`).
"""

from __future__ import annotations

import itertools
from typing import FrozenSet, List, Optional, Sequence, Set, Tuple, \
    Union

from repro.streaming.dtd import ContentModel, Dtd, Expr, Nothing
from repro.xpath.ast import (
    AttrExists,
    Axis,
    ChildAttrCompare,
    ChildAttrExists,
    ChildExists,
    ChildTextCompare,
    LocationStep,
    NotPredicate,
    OrPredicate,
    PathPredicate,
    PathTextCompare,
    Predicate,
    Query,
    TextCompare,
    TextExists,
)
from repro.xpath.parser import parse_query

#: Abort closure expansion past this many union branches.
MAX_EXPANSIONS = 64


# ---------------------------------------------------------------------------
# Schema reasoning helpers
# ---------------------------------------------------------------------------

def _possible_roots(dtd: Dtd) -> FrozenSet[str]:
    """Document-element candidates: the declared root, else any element
    that no other element can contain (else every element)."""
    if dtd.root is not None:
        return frozenset([dtd.root])
    children: Set[str] = set()
    for kids in dtd.child_graph().values():
        if "*" in kids:
            return frozenset(dtd.elements)
        children |= kids
    top = frozenset(dtd.elements) - children
    return top or frozenset(dtd.elements)


def _allowed_children(dtd: Dtd, tag: str) -> FrozenSet[str]:
    kids = dtd.child_graph().get(tag, frozenset())
    if "*" in kids:
        return frozenset(dtd.elements)
    return kids


def _match_test(node_test: str, tags: FrozenSet[str]) -> FrozenSet[str]:
    if node_test == "*":
        return tags
    return tags & {node_test}


def _always_contains(model: ContentModel, tag: str,
                     state_limit: int = 200) -> bool:
    """Does *every* child sequence the model accepts contain ``tag``?

    Explores derivative states reachable using only other tags; if any
    such state is accepting, a valid sequence without ``tag`` exists.
    State identity uses repr (Brzozowski derivatives are finite modulo
    similarity; repr captures our normalized forms), with a hard cap as
    a safety net — on hitting the cap we answer False (conservative:
    the predicate is kept).
    """
    alphabet = model.expr.all_tags() - {tag}
    if "*" in model.expr.all_tags():
        return False  # ANY content guarantees nothing
    seen: Set[str] = set()
    frontier: List[Expr] = [model.initial_state()]
    while frontier:
        state = frontier.pop()
        key = repr(state)
        if key in seen:
            continue
        seen.add(key)
        if len(seen) > state_limit:
            return False
        if model.accepting(state):
            return False
        for other in alphabet:
            nxt = model.advance(state, other)
            if not isinstance(nxt, Nothing):
                frontier.append(nxt)
    return True


def _predicate_possible(dtd: Dtd, tag: str, predicate: Predicate) -> bool:
    """Can the predicate ever hold on an element named ``tag``?

    Conservative: only structural impossibilities count.
    """
    decl = dtd.elements.get(tag)
    if decl is None:
        return False
    if isinstance(predicate, NotPredicate):
        # not(F) is possible unless F is schema-guaranteed.
        return not _predicate_guaranteed(dtd, tag, predicate.inner)
    if isinstance(predicate, OrPredicate):
        return any(_predicate_possible(dtd, tag, branch)
                   for branch in predicate.branches)
    if isinstance(predicate, PathPredicate):
        current = frozenset([tag])
        for hop in predicate.path:
            pool = frozenset(itertools.chain.from_iterable(
                _allowed_children(dtd, t) for t in current))
            current = _match_test(hop, pool)
            if not current:
                return False
        if isinstance(predicate, PathTextCompare):
            return any(
                dtd.elements[t].content.allows_text()
                for t in current if t in dtd.elements)
        return True
    if isinstance(predicate, (TextExists, TextCompare)):
        return decl.content.allows_text()
    if isinstance(predicate, (ChildExists, ChildAttrExists,
                              ChildAttrCompare, ChildTextCompare)):
        children = _allowed_children(dtd, tag)
        if predicate.child != "*" and predicate.child not in children:
            return False
        if isinstance(predicate, ChildTextCompare) \
                and predicate.child != "*":
            child_decl = dtd.elements.get(predicate.child)
            if child_decl is not None \
                    and not child_decl.content.allows_text():
                return False
    return True


def _predicate_guaranteed(dtd: Dtd, tag: str, predicate: Predicate) -> bool:
    """Is the predicate true on *every* valid element named ``tag``?"""
    if isinstance(predicate, NotPredicate):
        # not(F) is guaranteed exactly when F is schema-impossible.
        return not _predicate_possible(dtd, tag, predicate.inner)
    if isinstance(predicate, OrPredicate):
        return any(_predicate_guaranteed(dtd, tag, branch)
                   for branch in predicate.branches)
    if isinstance(predicate, AttrExists):
        decl = dtd.elements.get(tag)
        if decl is None:
            return False
        att = decl.attributes.get(predicate.attr)
        return att is not None and att.required
    if not isinstance(predicate, ChildExists) or predicate.child == "*":
        return False
    decl = dtd.elements.get(tag)
    if decl is None:
        return False
    return _always_contains(decl.content, predicate.child)


# ---------------------------------------------------------------------------
# The optimization plan
# ---------------------------------------------------------------------------

class Plan:
    """Outcome of schema analysis for one query."""

    def __init__(self, original: Query):
        self.original = original
        self.empty = False
        self.queries: List[Query] = [original]
        #: The query after predicate simplification, before closure
        #: expansion.
        self.simplified: Query = original
        self.notes: List[str] = []

    @property
    def is_union(self) -> bool:
        return len(self.queries) > 1

    @property
    def closure_free(self) -> bool:
        return all(not q.has_closure for q in self.queries)

    def describe(self) -> str:
        lines = ["plan for: %s" % (self.original.text or self.original)]
        if self.empty:
            lines.append("  statically empty")
        else:
            for query in self.queries:
                lines.append("  run: %r" % query)
        for note in self.notes:
            lines.append("  note: %s" % note)
        return "\n".join(lines)

    def __repr__(self):
        return "<Plan %s: %d quer%s%s>" % (
            "EMPTY" if self.empty else "run", len(self.queries),
            "y" if len(self.queries) == 1 else "ies",
            " (union)" if self.is_union else "")


def optimize(dtd: Dtd, query: Union[str, Query],
             max_expansions: int = MAX_EXPANSIONS) -> Plan:
    """Run the full analysis pipeline; always sound, sometimes a no-op."""
    parsed = parse_query(query) if isinstance(query, str) else query
    plan = Plan(parsed)

    bindings = _step_bindings(dtd, parsed.steps)
    if bindings is None:
        plan.empty = True
        plan.queries = []
        plan.notes.append("location path matches no schema-valid document")
        return plan

    simplified, notes = _simplify_predicates(dtd, parsed, bindings)
    plan.notes.extend(notes)
    if simplified is None:
        plan.empty = True
        plan.queries = []
        return plan
    plan.queries = [simplified]
    plan.simplified = simplified

    if simplified.has_closure and not dtd.is_recursive():
        expanded = _eliminate_closures(dtd, simplified, max_expansions)
        if expanded is not None:
            plan.queries = expanded
            plan.notes.append(
                "expanded closures into %d child-axis path(s)"
                % len(expanded))
    elif simplified.has_closure:
        plan.notes.append("DTD is recursive; closures kept (XSQ-F)")
    return plan


def _step_bindings(dtd: Dtd, steps: Sequence[LocationStep]
                   ) -> Optional[List[Tuple[FrozenSet[str],
                                            FrozenSet[str]]]]:
    """Per-step ``(bound, matchable)`` tag sets under the schema.

    ``matchable`` is every tag the step's axis and node test can reach;
    ``bound`` additionally requires each predicate to be satisfiable.
    Emptiness and path propagation use ``bound``; predicate *dropping*
    must quantify over ``matchable``, because removing a predicate
    widens the step to every matchable tag — including the ones the
    predicate itself excluded.  None when some step binds nothing
    (statically empty query).
    """
    bindings: List[Tuple[FrozenSet[str], FrozenSet[str]]] = []
    context: FrozenSet[str] = frozenset()  # tags bound by previous step
    for index, step in enumerate(steps):
        if index == 0:
            pool = (_possible_roots(dtd) if step.axis is Axis.CHILD
                    else frozenset(dtd.elements))
        elif step.axis is Axis.CHILD:
            pool = frozenset(itertools.chain.from_iterable(
                _allowed_children(dtd, tag) for tag in context))
        else:
            pool = frozenset(itertools.chain.from_iterable(
                dtd.reachable_tags(tag) for tag in context))
        matchable = frozenset(_match_test(step.node_test, pool))
        bound = frozenset(
            tag for tag in matchable
            if all(_predicate_possible(dtd, tag, p)
                   for p in step.predicates))
        if not bound:
            return None
        bindings.append((bound, matchable))
        context = bound
    return bindings


def _simplify_predicates(dtd: Dtd, query: Query,
                         bindings: List[Tuple[FrozenSet[str],
                                              FrozenSet[str]]]
                         ) -> Tuple[Optional[Query], List[str]]:
    """Drop predicates the schema guarantees on every binding."""
    notes: List[str] = []
    new_steps: List[LocationStep] = []
    changed = False
    for step, (bound, matchable) in zip(query.steps, bindings):
        kept: List[Predicate] = []
        for predicate in step.predicates:
            if all(_predicate_guaranteed(dtd, tag, predicate)
                   for tag in matchable):
                notes.append("dropped %r on %s%s: guaranteed by schema"
                             % (predicate, step.axis, step.node_test))
                changed = True
            else:
                kept.append(predicate)
        new_steps.append(LocationStep(step.axis, step.node_test,
                                      tuple(kept)))
    if not changed:
        return query, notes
    rewritten = Query(tuple(new_steps), query.output,
                      text=(query.text or "") + " [schema-simplified]")
    return rewritten, notes


def _eliminate_closures(dtd: Dtd, query: Query, max_expansions: int
                        ) -> Optional[List[Query]]:
    """Expand ``//`` steps into explicit child paths (non-recursive DTD).

    Returns None when the expansion would exceed ``max_expansions``.
    """
    # Each partial expansion: (steps so far, tags the last step binds).
    partials: List[Tuple[List[LocationStep], FrozenSet[str]]] = [([], None)]
    for index, step in enumerate(query.steps):
        next_partials: List[Tuple[List[LocationStep], FrozenSet[str]]] = []
        for steps_so_far, context in partials:
            if step.axis is Axis.CHILD:
                if context is None:
                    pool = _possible_roots(dtd)
                else:
                    pool = frozenset(itertools.chain.from_iterable(
                        _allowed_children(dtd, tag) for tag in context))
                bound = _match_test(step.node_test, pool)
                bound = frozenset(
                    t for t in bound
                    if all(_predicate_possible(dtd, t, p)
                           for p in step.predicates))
                if bound:
                    next_partials.append(
                        (steps_so_far + [LocationStep(Axis.CHILD,
                                                      step.node_test,
                                                      step.predicates)],
                         bound))
                continue
            # Descendant step: enumerate every child path from the
            # context to an element matching the node test.
            starts = (list(_possible_roots(dtd)) if context is None
                      else list(context))
            start_is_root = context is None
            for path in _paths_to_test(dtd, starts, step, start_is_root):
                prefix = [LocationStep(Axis.CHILD, tag) for tag in path[:-1]]
                final = LocationStep(Axis.CHILD, path[-1], step.predicates)
                next_partials.append(
                    (steps_so_far + prefix + [final], frozenset([path[-1]])))
                if len(next_partials) > max_expansions:
                    return None
        if not next_partials:
            return []
        partials = next_partials
        if len(partials) > max_expansions:
            return None
    expanded = []
    seen: Set[Tuple] = set()
    for steps, _ in partials:
        key = tuple((s.axis, s.node_test, s.predicates) for s in steps)
        if key in seen:
            continue
        seen.add(key)
        expanded.append(Query(tuple(steps), query.output,
                              text="%s [path %d]" % (query.text or "",
                                                     len(expanded) + 1)))
    return expanded


def _paths_to_test(dtd: Dtd, starts: List[str], step: LocationStep,
                   start_is_root: bool):
    """Yield child-tag paths realizing one descendant step.

    From the virtual root, ``//t`` may match the document element
    itself (path length 1); from a bound element, the match is a proper
    descendant (length >= 1 below the start, excluded from the path).
    Only callable on non-recursive DTDs, where paths cannot repeat tags.
    """
    def walk(tag: str, suffix: List[str]):
        if tag in suffix:
            return  # cycle guard (defensive; DTD checked non-recursive)
        path = suffix + [tag]
        if step.matches_tag(tag) and all(
                _predicate_possible(dtd, tag, p)
                for p in step.predicates):
            yield path
        for child in _allowed_children(dtd, tag):
            yield from walk(child, path)

    if start_is_root:
        for root in starts:
            yield from walk(root, [])
    else:
        for start in starts:
            for child in _allowed_children(dtd, start):
                yield from walk(child, [])
