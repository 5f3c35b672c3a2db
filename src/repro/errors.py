"""Exception hierarchy for the repro (XSQ) package.

Every error raised by the package derives from :class:`ReproError`, so a
caller can catch a single exception type at the public-API boundary.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class XPathSyntaxError(ReproError):
    """The XPath query text could not be parsed.

    Attributes
    ----------
    query:
        The offending query text.
    position:
        Character offset into the query where parsing failed, when known.
    """

    def __init__(self, message, query=None, position=None):
        super().__init__(message)
        self.query = query
        self.position = position


class UnsupportedFeatureError(ReproError):
    """The query uses an XPath feature outside the supported subset.

    The supported subset is the grammar of Figure 3 of the paper plus the
    extensions documented in DESIGN.md (wildcards, multiple predicates,
    extra aggregates).  Reverse axes and positional functions raise this
    error, matching the paper's stated scope.
    """


class NotWellFormedError(ReproError):
    """The XML stream violates well-formedness.

    Raised by the simple PDA of Section 3.1 when an end tag does not
    match the begin tag on top of the stack, when an end tag arrives with
    an empty stack, or when the stream ends with open elements.
    """


class FastPathUnsupportedError(UnsupportedFeatureError):
    """The compiled fast path cannot run this query or configuration.

    Raised by :class:`repro.xsq.fastpath.XSQEngineFast` at construction.
    ``reason`` is a short stable slug (``closure-predicate``,
    ``closure-element-output``, ``not-predicate``, ``or-predicate``,
    ``path-predicate``, ``observability``, ``union``) naming the
    *first* unsupported feature; ``engine="auto"`` catches this error,
    falls back to an interpreted runtime, and surfaces the slug in
    ``.explain()`` and the ``repro_fastpath_fallback_total`` metric.
    (``element-output`` and ``closure-axis`` were slugs of earlier
    versions; element results and predicate-free closures now run on
    the fast path, so neither can be raised any more.)
    """

    def __init__(self, message, reason="unsupported"):
        super().__init__(message)
        self.reason = reason


class ClosureNotSupportedError(UnsupportedFeatureError):
    """Raised by XSQ-NC when the query contains the closure axis ``//``.

    The paper's XSQ-NC variant deliberately rejects closures; callers
    should fall back to :class:`repro.xsq.engine.XSQEngine` (XSQ-F).
    """


class StreamError(ReproError):
    """An event source produced an invalid or inconsistent event stream."""


class QuotaExceededError(ReproError):
    """A subscription-service tenant hit a configured resource quota.

    Raised by :class:`repro.serve.SubscriptionBroker` when a tenant
    tries to register more subscriptions than
    ``max_subscriptions_per_tenant`` allows.  ``tenant`` and ``quota``
    carry the offending tenant label and the configured limit.
    """

    def __init__(self, message, tenant=None, quota=None):
        super().__init__(message)
        self.tenant = tenant
        self.quota = quota


class TaskFailedError(ReproError):
    """One bulk-execution task (usually: one document) failed.

    Raised (or collected, with ``on_error="skip"``) by
    :mod:`repro.parallel`.  The pool keeps the failure structured
    instead of letting a worker's traceback die with the process:

    Attributes
    ----------
    source:
        Label of the failing source (the file path, or ``<doc #n>`` for
        in-memory documents).
    index:
        The task's submission index (document order).
    exc_type / message / traceback_text:
        The original worker-side exception, stringified so it crosses
        the process boundary losslessly.
    """

    def __init__(self, source, index, exc_type, message, traceback_text=""):
        super().__init__("%s failed on %s: %s: %s"
                         % ("bulk task #%d" % index, source, exc_type,
                            message))
        self.source = source
        self.index = index
        self.exc_type = exc_type
        self.message = message
        self.traceback_text = traceback_text


class WorkerCrashError(ReproError):
    """A pool worker process died without reporting a result.

    Covers hard deaths the in-process exception path cannot: segfaults,
    ``os._exit``, the OOM killer.  ``source`` names the first unfinished
    task of the chunk the worker held, when one is known.
    """

    def __init__(self, message, worker_id=None, exitcode=None, source=None,
                 traceback_text=""):
        super().__init__(message)
        self.worker_id = worker_id
        self.exitcode = exitcode
        self.source = source
        self.traceback_text = traceback_text
