"""Spans around the calls the benchmark makes into each layer.

The program is not instrumented for this: in a traced run the
benchmark swaps each layer's public function or method for a wrapper
that records one span per call (name, start, end, parent, work count)
and restores the originals afterwards.  Spans are kept in memory and
written out when the run ends.  Untraced runs never install a wrapper.

A layer's *self time* is its spans' duration minus the part of each
interval its child spans cover, so nested layers (a push session's
feed contains a parser feed and a runtime feed) are not counted twice.
"""

from __future__ import annotations

import json
import sys
import time


class Tracer:
    """In-memory span recorder for one single-threaded run.

    With ``keep=False`` every span tree is dropped as soon as its root
    closes: the wrappers still do all their work (so their cost can be
    measured over a long run) but memory stays flat.
    """

    def __init__(self, clock=time.perf_counter, keep=True):
        self.clock = clock
        self.keep = keep
        # Each span: [name, start, end, parent_index, count]
        self.spans = []
        self._stack = []

    def begin(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, 0])
        self._stack.append(index)
        return index

    def end(self, index, count=0):
        span = self.spans[index]
        span[2] = self.clock()
        span[4] = count
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError("span %r closed out of order" % span[0])
        if not self.keep and not self._stack:
            del self.spans[:]

    def span(self, name, count=0):
        return _SpanContext(self, name, count)

    def wrap(self, fn, name, count=None):
        """``fn`` recording a span per call.

        ``name`` is a string or a callable of the call's arguments (a
        method can name its span after the instance); ``count`` maps
        ``(args, result)`` to the call's work count.
        """
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.begin(name(*args) if callable(name) else name)
            n = 0
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    n = count(args, result)
                return result
            finally:
                tracer.end(index, n)

        return traced

    def dump(self, path, meta=None):
        with open(path, "w") as fh:
            json.dump({"meta": meta or {},
                       "fields": ["name", "start", "end", "parent",
                                  "count"],
                       "spans": self.spans}, fh)


class _SpanContext:
    def __init__(self, tracer, name, count):
        self.tracer = tracer
        self.name = name
        self.count = count
        self.index = None

    def __enter__(self):
        self.index = self.tracer.begin(self.name)
        return self

    def __exit__(self, *_exc):
        self.tracer.end(self.index, self.count)
        return False


def self_times(spans):
    """``{name: [self_seconds, calls, count]}`` over closed spans.

    Self time subtracts the union of each span's direct children's
    intervals (clipped to the parent), so overlapping or nested child
    spans are never subtracted twice.
    """
    children = {}
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children.setdefault(span[3], []).append(index)
    out = {}
    for index, (name, start, end, _parent, count) in enumerate(spans):
        if end is None:
            continue
        covered = 0.0
        cursor = start
        kids = sorted((spans[k][1], spans[k][2])
                      for k in children.get(index, ())
                      if spans[k][2] is not None)
        for k_start, k_end in kids:
            k_start = max(k_start, cursor)
            k_end = min(k_end, end)
            if k_end > k_start:
                covered += k_end - k_start
                cursor = k_end
        row = out.setdefault(name, [0.0, 0, 0])
        row[0] += (end - start) - covered
        row[1] += 1
        row[2] += count
    return out


def total_times(spans):
    """``{name: inclusive_seconds}`` over closed spans."""
    out = {}
    for name, start, end, _parent, _count in spans:
        if end is not None:
            out[name] = out.get(name, 0.0) + (end - start)
    return out


class Patches:
    """Swap functions and methods for traced wrappers; undo on exit."""

    def __init__(self, tracer):
        self.tracer = tracer
        self._undo = []

    def function(self, module, attr, name, count=None):
        """Wrap ``module.attr`` and every ``repro`` module's import of it.

        Modules that did ``from x import f`` hold their own binding,
        so each loaded ``repro.*`` module bound to the same object is
        patched too.
        """
        original = getattr(module, attr)
        wrapped = self.tracer.wrap(original, name, count)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro"
                                   or mod_name.startswith("repro.")):
                continue
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapped)
                self._undo.append((mod, attr, original, True))

    def method(self, cls, attr, name, count=None):
        own = attr in cls.__dict__
        original = getattr(cls, attr)
        setattr(cls, attr, self.tracer.wrap(original, name, count))
        self._undo.append((cls, attr, original, own))

    def undo(self):
        for owner, attr, original, own in reversed(self._undo):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._undo = []

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        self.undo()
        return False


def _len_result(_args, result):
    return len(result) if result is not None else 0


def _first_arg_len(args, _result):
    fed = args[1] if len(args) > 1 else None
    return len(fed) if hasattr(fed, "__len__") else 0


def _handle_tier(prefix):
    def name(handle, *_args):
        tier = getattr(handle._engine, "name", "")
        return "xsq.%s.%s" % ({"xsq-nc": "nc", "xsq-f": "f"}.get(tier, tier),
                              prefix)
    return name


def install_layer_spans(patches):
    """Wrap each layer's public entry points the workloads call into.

    Span names follow the modules: ``xpath.*``, ``xsq.*``,
    ``streaming.*``, ``api.*`` and ``serve.*``.
    """
    import repro.api as api
    import repro.xpath.parser as parser
    import repro.xsq.codegen as codegen
    import repro.xsq.compile_cache as compile_cache
    import repro.xsq.fastpath as fastpath
    import repro.xsq.multiquery as multiquery
    import repro.xsq.push as push
    import repro.streaming.push as spush
    import repro.serve.broker as broker

    patches.function(parser, "parse_query", "xpath.parse")
    patches.function(compile_cache, "compile_hpdt", "xsq.hpdt")
    patches.function(fastpath, "compile_fastplan", "xsq.fastplan")
    patches.function(codegen, "compile_kernel", "xsq.codegen")

    patches.method(api.CompiledQuery, "run", "api.run")
    patches.method(api.CompiledQuery, "push", "api.session_open")
    patches.method(api.PushSession, "feed", "api.session_feed")
    patches.method(api.PushSession, "finish", "api.session_finish")

    for cls, name in ((spush.PushBatchParser, "streaming.push_batch"),
                      (spush.PushEventParser, "streaming.push_event")):
        patches.method(cls, "feed", name + ".feed", _len_result)
        patches.method(cls, "finish", name + ".finish", _len_result)

    patches.method(push.FastPushHandle, "feed_batch", "xsq.kernel.feed",
                   _first_arg_len)
    patches.method(push.FastPushHandle, "finish", "xsq.kernel.finish")
    patches.method(push.EventPushHandle, "feed_events",
                   _handle_tier("feed"), _first_arg_len)
    patches.method(push.EventPushHandle, "finish", _handle_tier("finish"))
    patches.method(push.MultiPushHandle, "feed_events",
                   "xsq.multiquery.feed", _first_arg_len)
    patches.method(push.MultiPushHandle, "finish", "xsq.multiquery.finish")
    patches.method(multiquery.MultiQueryEngine, "__init__",
                   "xsq.multiquery.build")

    patches.method(broker.SubscriptionBroker, "subscribe",
                   "serve.broker.subscribe")
    patches.method(broker.SubscriptionBroker, "unsubscribe",
                   "serve.broker.unsubscribe")
    patches.method(broker.SubscriptionBroker, "open_stream",
                   "serve.broker.open")
    patches.method(broker.BrokerStream, "feed", "serve.broker.route",
                   _len_result)
    patches.method(broker.BrokerStream, "finish", "serve.broker.route",
                   _len_result)


def layer_seconds(selfs, *names):
    return sum(selfs[n][0] for n in names if n in selfs)


def layer_calls(selfs, *names):
    return sum(selfs[n][1] for n in names if n in selfs)


def layer_count(selfs, *names):
    return sum(selfs[n][2] for n in names if n in selfs)
