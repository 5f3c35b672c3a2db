"""The traced benchmark's layer wrappers still fit the program.

``perfbench/trace.py`` wraps each layer's entry points by module,
class and attribute name.  Installing them here makes a renamed class
or method fail the test suite, not only the traced benchmark run, and
checks that undoing the patches restores every class and module.
"""

import os
import sys

import repro
import repro.api
import repro.serve.broker
import repro.streaming.push
import repro.xsq.multiquery
import repro.xsq.push
from repro.streaming.sax_source import parse_events

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.trace import Patches, Tracer, install_layer_spans  # noqa: E402

#: Every namespace install_layer_spans patches.
PATCHED = [
    repro.api.CompiledQuery, repro.api.PushSession,
    repro.streaming.push.PushBatchParser,
    repro.streaming.push.PushEventParser,
    repro.xsq.push.FastPushHandle, repro.xsq.push.EventPushHandle,
    repro.xsq.push.MultiPushHandle,
    repro.xsq.multiquery.MultiQueryEngine,
    repro.serve.broker.SubscriptionBroker, repro.serve.broker.BrokerStream,
]


#: The functions it wraps, in every ``repro`` module that imported them.
FUNCTIONS = ("parse_query", "compile_hpdt", "compile_fastplan",
             "compile_kernel")


def _snapshot():
    return ([dict(vars(cls)) for cls in PATCHED],
            {(name, attr): getattr(module, attr, None)
             for name, module in list(sys.modules.items())
             if name == "repro" or name.startswith("repro.")
             for attr in FUNCTIONS})


def test_layer_spans_install_and_undo():
    repro.compile(["/r/a/text()", "//a[b]/text()"])  # load every layer
    before = _snapshot()
    tracer = Tracer()
    with Patches(tracer) as patches:
        install_layer_spans(patches)
        compiled = repro.compile(["/r/a/text()", "//a[b]/text()"])
        session = compiled.push()
        session.feed_events(parse_events("<r><a>1<b/></a></r>"))
        session.finish()
        names = {span[0] for span in tracer.spans}
    assert {"xsq.multiquery.build", "xsq.multiquery.feed",
            "xsq.multiquery.finish", "api.session_finish"} <= names
    classes, functions = _snapshot()
    assert classes == before[0]
    assert {key: functions.get(key) for key in before[1]} == before[1]
