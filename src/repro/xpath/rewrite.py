"""Rewriting reverse axes into forward-only queries.

Section 5 of the paper points at Olteanu et al., *XPath: Looking
Forward*, for evaluating queries with reverse axes on streams: rewrite
them into equivalent forward-only queries first, then run the ordinary
streaming engine.  This module implements the rewrite for the fragment
that maps into the Figure 3 grammar:

* ``parent::r`` (and its ``..`` shorthand) directly after a
  predicate-free child step folds that step into a predicate::

      /pub/book/parent::pub      ->  /pub[book]
      /pub/*/parent::pub[year]   ->  /pub[*][year]
      /a/b/parent::c             ->  provably empty (b's parent is a)

  The parent step's own predicates transfer to the folded-into step,
  and its node test intersects with that step's (incompatible tests
  prove the query empty).

* ``self::r`` intersects node tests in place.

``ancestor::``/``ancestor-or-self::`` need *path* predicates
(``[b/c]``), which the Figure 3 grammar cannot express, so they raise
:class:`UnsupportedFeatureError` with a message saying exactly that —
the same boundary the paper draws for XSQ itself.

Entry point: :func:`rewrite_reverse_axes` takes the extended query text
and returns a forward-only :class:`~repro.xpath.ast.Query`, or ``None``
when the rewrite proves the query can match nothing.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from repro.errors import UnsupportedFeatureError, XPathSyntaxError
from repro.xpath.ast import Output, Query
from repro.xpath.parser import parse_query

#: Splits the query into slash-separated components while keeping the
#: axis of each step ('//' vs '/').  Predicates cannot contain slashes
#: in this grammar, so a textual split is exact.
_STEP_RE = re.compile(r"(//|/)([^/]+)")

_REVERSE_UNSUPPORTED = ("ancestor", "ancestor-or-self", "preceding",
                        "preceding-sibling", "following",
                        "following-sibling")


def rewrite_reverse_axes(query_text: str) -> Optional[Query]:
    """Rewrite ``parent::``/``..``/``self::`` steps away.

    Returns the equivalent forward-only query, or ``None`` when the
    rewrite proves the query empty on every document.

    >>> rewrite_reverse_axes("/pub/book/parent::pub").steps
    (/pub[book],)
    >>> rewrite_reverse_axes("/a/b/parent::c") is None
    True
    >>> rewrite_reverse_axes("/pub/book/text()").text
    '/pub/book/text()'
    """
    components = _split_components(query_text)
    rewritten: List[Tuple[str, str]] = []  # (axis text, step text)
    for axis_text, body in components:
        kind, remainder = _classify(body)
        if kind == "forward":
            rewritten.append((axis_text, body))
            continue
        if kind == "self":
            if not rewritten:
                raise UnsupportedFeatureError(
                    "self:: on the document root is not expressible")
            if axis_text == "//":
                raise UnsupportedFeatureError(
                    "//self:: is not a rewriteable form")
            merged = _merge_self(rewritten[-1], remainder)
            if merged is None:
                return None
            rewritten[-1] = merged
            continue
        # kind == "parent"
        if axis_text == "//":
            raise UnsupportedFeatureError(
                "//parent:: selects unboundedly many ancestors; use "
                "ancestor::, which this fragment cannot express")
        if rewritten and rewritten[-1][0] == "//":
            raise UnsupportedFeatureError(
                "parent:: after a closure step needs path predicates, "
                "outside the Figure 3 grammar")
        if len(rewritten) < 2:
            # The folded step's parent would be the virtual root, which
            # is not an element: nothing can match.
            return None
        folded_axis, folded_body = rewritten.pop()
        if "[" in folded_body:
            raise UnsupportedFeatureError(
                "parent:: after a predicated step needs nested path "
                "predicates, outside the Figure 3 grammar")
        merged = _merge_parent(rewritten[-1], folded_body, remainder)
        if merged is None:
            return None
        rewritten[-1] = merged
    if not rewritten:
        raise XPathSyntaxError("query has no location steps",
                               query=query_text)
    text = "".join(axis + body for axis, body in rewritten)
    return parse_query(text)


def trailing_output(query_text: str) -> Optional[Output]:
    """The output of ``query_text``'s last component, or ``None`` when
    that component is a reverse step.

    A query the rewrite proves empty still has this output, and an
    aggregate one a value over no matches.

    >>> trailing_output("/pub/parent::x/count()")
    /count()
    """
    axis_text, body = _split_components(query_text)[-1]
    if _classify(body)[0] != "forward":
        return None
    return parse_query("/*" + axis_text + body).output


def _split_components(query_text: str) -> List[Tuple[str, str]]:
    text = query_text.strip()
    if not text.startswith("/"):
        raise XPathSyntaxError("query must start with '/' or '//'",
                               query=query_text)
    components = []
    position = 0
    for match in _STEP_RE.finditer(text):
        if match.start() != position:
            raise XPathSyntaxError("malformed query near %r"
                                   % text[position:position + 10],
                                   query=query_text)
        components.append((match.group(1), match.group(2).strip()))
        position = match.end()
    if position != len(text):
        raise XPathSyntaxError("trailing text %r" % text[position:],
                               query=query_text)
    return components


def _classify(body: str) -> Tuple[str, str]:
    """-> ("forward", body) | ("parent", rest) | ("self", rest).

    ``rest`` for reverse kinds is the node test plus any predicates,
    e.g. ``pub[year]`` from ``parent::pub[year]``.
    """
    if body == "..":
        return ("parent", "*")
    if body.startswith("parent::"):
        return ("parent", body[len("parent::"):])
    if body.startswith("self::"):
        return ("self", body[len("self::"):])
    for axis in _REVERSE_UNSUPPORTED:
        if body.startswith(axis + "::"):
            raise UnsupportedFeatureError(
                "%s:: cannot be rewritten into the Figure 3 grammar "
                "(it needs path predicates); see Olteanu et al., "
                "'XPath: Looking Forward'" % axis)
    return ("forward", body)


def _split_test_preds(step_text: str) -> Tuple[str, str]:
    bracket = step_text.find("[")
    if bracket == -1:
        return step_text, ""
    return step_text[:bracket], step_text[bracket:]


def _intersect_tests(a: str, b: str) -> Optional[str]:
    if a == "*":
        return b
    if b == "*" or a == b:
        return a
    return None  # provably empty


def _merge_self(prev: Tuple[str, str], self_body: str
                ) -> Optional[Tuple[str, str]]:
    prev_axis, prev_body = prev
    prev_test, prev_preds = _split_test_preds(prev_body)
    self_test, self_preds = _split_test_preds(self_body)
    merged_test = _intersect_tests(prev_test, self_test)
    if merged_test is None:
        return None
    return (prev_axis, merged_test + prev_preds + self_preds)


def _merge_parent(prev: Tuple[str, str], folded_body: str,
                  parent_body: str) -> Optional[Tuple[str, str]]:
    """Fold ``prev/folded/parent::parent_body`` into one step.

    ``prev`` must end up matching both its own test and the parent
    step's test, gain a child-existence predicate for the folded step,
    and inherit the parent step's predicates.
    """
    prev_axis, prev_body = prev
    prev_test, prev_preds = _split_test_preds(prev_body)
    parent_test, parent_preds = _split_test_preds(parent_body)
    merged_test = _intersect_tests(prev_test, parent_test)
    if merged_test is None:
        return None
    child_pred = "[%s]" % folded_body
    return (prev_axis, merged_test + prev_preds + child_pred + parent_preds)


def supports_reverse_axes(query_text: str) -> bool:
    """Quick check: does the text use any reverse-axis syntax at all?"""
    return ("parent::" in query_text or "self::" in query_text
            or "/.." in query_text
            or any(axis + "::" in query_text
                   for axis in _REVERSE_UNSUPPORTED))
