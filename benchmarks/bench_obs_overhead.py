"""Observability overhead: the disabled path must cost nothing.

Engines take ``obs=None`` by default; a document session opened without
a bundle binds the runtime's own methods into its loop, so attaching
nothing should time within noise of the seed.  The other groups price
what the instrumentation actually costs when it *is* attached — spans +
metrics + event trace, and the per-event dispatch timer on top.
"""

import pytest

from repro.obs import Observability
from repro.xsq.engine import XSQEngine
from repro.xsq.fastpath import XSQEngineFast

QUERY = "/PLAY/ACT/SCENE/SPEECH/SPEAKER/text()"


@pytest.fixture(scope="module")
def shake(cache):
    return cache.path("shake")


@pytest.mark.benchmark(group="obs-overhead")
def test_obs_disabled(benchmark, shake):
    """Baseline: no bundle attached (the seed's hot path)."""
    engine = XSQEngine(QUERY)
    results = benchmark(engine.run, shake)
    assert results


@pytest.mark.benchmark(group="obs-overhead")
def test_obs_accounting_off(benchmark, shake):
    """A bundle attached but accounting off: the default, priced.

    ``Observability()`` leaves ``accounting=None``, so the queue gets
    no account and the engine uses the trace-only event hook — the
    accountant must add nothing to this configuration.
    """

    def run():
        obs = Observability(spans=False, events=False, metrics=False)
        assert obs.accounting is None
        return XSQEngine(QUERY, obs=obs).run(shake)

    assert benchmark(run)


@pytest.mark.benchmark(group="obs-overhead")
def test_obs_accounting_on(benchmark, shake):
    """The accountant alone: gauges + delay histogram, no trace."""

    def run():
        obs = Observability(spans=False, events=False, accounting=True)
        return XSQEngine(QUERY, obs=obs).run(shake)

    assert benchmark(run)


@pytest.mark.benchmark(group="obs-overhead")
def test_obs_attached(benchmark, shake):
    """Spans + metrics + event trace recording every buffer op."""

    def run():
        obs = Observability()
        return XSQEngine(QUERY, obs=obs).run(shake)

    assert benchmark(run)


@pytest.mark.benchmark(group="obs-overhead")
def test_obs_per_event_timing(benchmark, shake):
    """The heaviest setting: a clock read around every dispatch."""

    def run():
        obs = Observability(per_event_timing=True)
        return XSQEngine(QUERY, obs=obs).run(shake)

    assert benchmark(run)


def test_disabled_path_skips_instrumentation(shake):
    """The acceptance bound, made falsifiable.

    ``obs=None`` is the seed loop by construction — the session chooses
    its instruments once, when it opens, and without a bundle it binds
    the runtime's own ``feed`` with no hook, histogram or timer around
    it — so "disabled regresses <5% vs seed" can only break if that
    choice disappears and the disabled path starts paying per-event
    instrumentation.  Both halves are asserted: the bare session binds
    the plain method while an attached one wraps it, and the disabled
    and attached timings have not converged (the attached bundle
    samples a histogram and records a trace entry per buffer op, which
    costs well over 5%).
    """
    import time

    from repro.xsq.matcher import MatcherRuntime

    bare = XSQEngine(QUERY).push()
    assert bare._feed.__func__ is MatcherRuntime.feed
    attached = XSQEngine(QUERY, obs=Observability()).push()
    assert getattr(attached._feed, "__func__", None) is not \
        MatcherRuntime.feed

    def best_of(fn, runs=5):
        samples = []
        for _ in range(runs):
            t0 = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - t0)
        return min(samples)

    disabled = best_of(lambda: XSQEngine(QUERY).run(shake))
    attached = best_of(
        lambda: XSQEngine(QUERY, obs=Observability()).run(shake))
    assert disabled < attached


@pytest.mark.benchmark(group="obs-overhead")
def test_obs_fastpath_disabled(benchmark, shake):
    """The compiled fast path with no bundle: the new throughput floor."""
    engine = XSQEngineFast(QUERY)
    results = benchmark(engine.run, shake)
    assert results


@pytest.mark.benchmark(group="obs-overhead")
def test_obs_fastpath_spans_metrics(benchmark, shake):
    """Fast path with the obs it accepts: spans + run-level metrics.

    Everything per-event is rejected at construction (the engine falls
    back), so the only instrumentation cost here is per *run* — a few
    span records and one stats export — which must be invisible at
    stream scale.
    """

    def run():
        obs = Observability(spans=True, events=False)
        return XSQEngineFast(QUERY, obs=obs).run(shake)

    assert benchmark(run)


@pytest.mark.benchmark(group="tag-interning")
def test_tag_interning_cost(benchmark, shake):
    """Price ``sys.intern`` at the parser boundary (its consumers —
    dict probes on tag/attr names throughout the engines — get pointer
    comparisons in exchange)."""
    import sys

    with open(shake, "r", encoding="utf-8") as handle:
        text = handle.read()
    tags = [line.split(">", 1)[0].strip("</")
            for line in text.split("<")[1:2048]]

    def intern_all():
        interned = [sys.intern(tag) for tag in tags]
        return interned

    assert benchmark(intern_all)


def test_fastpath_rejects_per_event_instrumentation():
    """The fast path stays branch-free by *construction*: per-event obs
    cannot attach, it forces the interpreted fallback instead."""
    from repro.errors import FastPathUnsupportedError

    with pytest.raises(FastPathUnsupportedError):
        XSQEngineFast(QUERY, obs=Observability())  # event trace on
    with pytest.raises(FastPathUnsupportedError):
        XSQEngineFast(QUERY, obs=Observability(
            spans=False, events=False, accounting=True))
    with pytest.raises(FastPathUnsupportedError):
        XSQEngineFast(QUERY, obs=Observability(per_event_timing=True))


def test_interpreted_paths_never_import_codegen():
    """NC/F runs never load the codegen module, so the kernel generator
    costs nothing when the fast tier is not used.  The import sits
    inside ``XSQEngineFast.__init__``; this pins it there.
    """
    import subprocess
    import sys

    probe = (
        "import sys\n"
        "from repro.xsq.nc import XSQEngineNC\n"
        "from repro.xsq.engine import XSQEngine\n"
        "from repro.xsq.fastpath import XSQEngineFast\n"
        "doc = '<a><b>x</b></a>'\n"
        "XSQEngineNC('/a/b/text()').run(doc)\n"
        "XSQEngine('/a/b/text()').run(doc)\n"
        "assert 'repro.xsq.codegen' not in sys.modules, 'codegen loaded'\n"
    )
    subprocess.run([sys.executable, "-c", probe], check=True)


def test_uninstrumented_runs_bind_plain_methods():
    """Satellite check: the per-event None-tests are hoisted to setup.

    An ``obs=None`` session binds the runtime's plain ``feed`` (single
    query) or its members' ``run_batch`` (query group) and no
    observer.  Below it, an un-instrumented :class:`OutputQueue` binds
    the ``_plain`` method variants once in ``__init__``; an
    instrumented one keeps the class methods.  Likewise
    :class:`MatcherRuntime` binds the plain end-handler when no
    accountant is attached.  If these bindings disappear, every event
    and buffer op pays the None-checks again — the regression the
    benchmark group above would then show.
    """
    from repro.obs.accounting import ResourceAccountant
    from repro.xsq.buffers import BufferTrace, OutputQueue
    from repro.xsq.hpdt import Hpdt
    from repro.xsq.matcher import MatcherRuntime
    from repro.xsq.multiquery import MultiQueryEngine
    from repro.xsq.push import MultiPushHandle

    session = XSQEngine(QUERY).push()
    assert session._feed.__func__ is MatcherRuntime.feed
    assert session._runtime.on_end.__func__ is MatcherRuntime._on_end_plain
    assert session._runtime.queue.new_item.__func__ is \
        OutputQueue._new_item_plain
    # The closure-with-predicate member runs interpreted beside the
    # kernel member; its runtime's end handler is the plain method.
    group = MultiQueryEngine([QUERY, "//SPEECH[LINE]//SPEAKER/text()"]
                             ).push()
    assert group._observe is None
    assert group.feed_batch.__func__ is MultiPushHandle._feed_ordered
    kernel, matcher = group._members.runtimes
    assert not isinstance(kernel, MatcherRuntime)
    assert matcher.on_end.__func__ is MatcherRuntime._on_end_plain

    plain = OutputQueue([])
    assert plain.new_item.__func__ is OutputQueue._new_item_plain
    assert plain.mark_output.__func__ is OutputQueue._mark_output_plain
    assert plain.mark_dead.__func__ is OutputQueue._mark_dead_plain
    assert plain.finish.__func__ is OutputQueue._finish_plain

    traced = OutputQueue([], trace=BufferTrace())
    assert traced.new_item.__func__ is OutputQueue.new_item
    assert traced.mark_output.__func__ is OutputQueue.mark_output

    hpdt = Hpdt("/a/b/text()")
    runtime = MatcherRuntime(hpdt, [])
    assert runtime.on_end.__func__ is MatcherRuntime._on_end_plain
    account = ResourceAccountant().account("/a/b/text()", engine="xsq-f")
    observed = MatcherRuntime(hpdt, [], account=account)
    assert observed.on_end.__func__ is MatcherRuntime._on_end


def test_accounting_off_attaches_nothing():
    """Accounting off keeps the queue on the seed path by construction.

    Without an accountant (and without a trace) the queue never tracks
    ownership, never estimates bytes, and the ``if account is not
    None`` branches in the buffer hot path all short-circuit — the
    structural guarantee behind the "accounting=off within noise"
    acceptance bound.
    """
    from repro.xsq.buffers import OutputQueue

    obs = Observability(spans=False, events=False, metrics=False)
    assert obs.accounting is None
    assert obs.event_hook() is None
    queue = OutputQueue([])
    assert queue.account is None
    assert queue.track_ownership is False


@pytest.mark.benchmark(group="obs-overhead")
def test_obs_profile_interpreted(benchmark, shake):
    """Full per-event profiling on the interpreted engine.

    Every event pays two extra clock reads (the consecutive-timestamp
    feed wrapper) plus the queue proxy on buffer ops — the price of exact,
    unsampled attribution.
    """

    def run():
        obs = Observability(spans=False, events=False, profile=True)
        return XSQEngine(QUERY, obs=obs).run(shake)

    assert benchmark(run)


@pytest.mark.benchmark(group="obs-overhead")
def test_obs_fastpath_profile_sampled(benchmark, shake):
    """Sampled profiling on the fast path: the <=5% acceptance bound.

    Batches are timed at batch boundaries (four clock reads per ~2048
    events) and only every 64th batch runs event-at-a-time, so the 2x
    throughput floor over the interpreted engines must survive with
    the profiler attached.
    """

    def run():
        obs = Observability(spans=False, events=False, profile=True)
        return XSQEngineFast(QUERY, obs=obs).run(shake)

    assert benchmark(run)


def test_profiler_off_skips_instrumentation(shake):
    """Profiler-off is the seed loop, structurally.

    A default bundle carries no profiler, so the sessions it opens wrap
    nothing of the profiler's: no queue proxy is installed, the
    runtime's ``finish`` and the kernel's ``run_batch`` stay the
    runtime's own, no per-event clock reads happen, and no profile
    phases accumulate.  An attached profiler on the same engine does
    accumulate them — the pair makes "profiling off costs nothing"
    falsifiable without a timing race.
    """
    from repro.obs.profile import Profiler, _ProfiledQueue

    obs = Observability(spans=False, events=False)
    assert obs.profiler is None
    session = XSQEngine(QUERY, obs=obs).push()
    runtime = session._runtime
    assert not isinstance(runtime.queue, _ProfiledQueue)
    assert runtime.prof is None
    assert "finish" not in vars(runtime)
    fast = XSQEngineFast(QUERY, obs=obs).push()
    assert fast._run_batch.__func__ is fast._engine.kernel
    assert "finish" not in vars(fast._runtime)
    XSQEngine(QUERY, obs=obs).run(shake)

    prof = Profiler()
    obs_on = Observability(spans=False, events=False, profile=prof)
    XSQEngine(QUERY, obs=obs_on).run(shake)
    assert prof.events > 0
    assert prof.phases["parse"][0] > 0
    assert prof.phases["automaton"][0] > 0


def test_latency_off_attaches_nothing():
    """The delivery-latency path is free by construction when off.

    The document sessions carry no stamp site; a default bundle carries
    no delivery tracker and no flight recorder, and a broker without a
    bundle leaves every stream's recorder unset.  If any of these
    defaults flips, the un-instrumented serve pipeline starts paying
    per-result clock reads — the regression the benchmark cases below
    would then show.
    """
    from repro.serve import SubscriptionBroker

    obs = Observability(spans=False, events=False)
    assert obs.delivery is None
    assert obs.flight is None
    assert obs.tracer.on_finish is None

    broker = SubscriptionBroker()
    assert broker.delivery is None
    broker.subscribe("/pub/item/value/text()")
    stream = broker.open_stream()
    assert stream._latency is None


def test_recorder_wires_only_when_asked():
    """``recorder=True`` attaches the flight ring and the span hook;
    any other configuration leaves both off."""
    from repro.obs import FlightRecorder

    on = Observability(spans=True, events=False, recorder=True)
    assert isinstance(on.flight, FlightRecorder)
    assert on.tracer.on_finish == on.flight.record_span

    sized = Observability(spans=False, events=False, recorder=64)
    assert sized.flight.capacity == 64

    off = Observability()
    assert off.flight is None


def _broker_feed(shake, obs):
    """One broker stream's feed loop over the Shakespeare document in
    64 KB chunks; with a delivery tracker on ``obs``, every delivered
    result's provenance record is completed as the server would."""
    from repro.serve import SubscriptionBroker

    with open(shake, "rb") as handle:
        data = handle.read()
    chunks = [data[i:i + 65536] for i in range(0, len(data), 65536)]
    broker = SubscriptionBroker(obs=obs)
    broker.subscribe(QUERY)

    def run():
        stream = broker.open_stream()
        out = []
        for chunk in chunks:
            out += stream.feed(chunk)
        out += stream.finish()
        tracker = broker.delivery
        if tracker is not None:
            timings = stream.take_timings()
            assert len(timings) == len(out)
            for timing in timings:
                timing.write = tracker.clock()
                tracker.complete(timing)
        return out

    return run


@pytest.mark.benchmark(group="latency-overhead")
def test_push_latency_detached(benchmark, shake):
    """Baseline: a broker stream with no latency recorder attached."""
    assert benchmark(_broker_feed(shake, None))


@pytest.mark.benchmark(group="latency-overhead")
def test_push_latency_attached(benchmark, shake):
    """The same feed loop with per-result provenance stamping (the
    broker stream is the one stamper): prices the delivery tracker's
    clock reads per feed cycle and per result."""
    obs = Observability(spans=False, events=False)
    obs.enable_delivery()
    assert benchmark(_broker_feed(shake, obs))


def test_profiler_off_fastpath_accepts_bundle(shake):
    """The fast path accepts a profiler-free bundle and stays batched.

    Construction only falls back for per-event observability; a bundle
    with spans/metrics and no profiler must keep the compiled engine,
    and attaching a profiler must not change results.
    """
    plain = XSQEngineFast(QUERY).run(shake)
    obs = Observability(events=False)
    assert obs.profiler is None
    assert XSQEngineFast(QUERY, obs=obs).run(shake) == plain
    obs_on = Observability(events=False, profile=True)
    assert XSQEngineFast(QUERY, obs=obs_on).run(shake) == plain
    assert obs_on.profiler.sampling
