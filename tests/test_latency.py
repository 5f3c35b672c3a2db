"""End-to-end delivery latency: provenance records and the tracker.

Unit layer for :mod:`repro.obs.latency` (percentile math, the
``ResultTiming`` stage path, the recorder's stamping protocol, the
tracker's histograms/reservoirs) plus the broker integration: streams
opened from an obs-attached broker stamp every routed result with
subscription identity, and ``xsq top`` renders the delivery section.
"""

import pytest

from repro.obs import Observability
from repro.obs.accounting import format_delivery, format_top
from repro.obs.latency import (
    DeliveryTracker,
    LatencyRecorder,
    ResultTiming,
    percentile,
)
from repro.serve import SubscriptionBroker

DOC = ("<pub><book><name>First</name><price>5</price></book>"
       "<book><name>Second</name><price>15</price></book>"
       "<year>2002</year></pub>")


def chunked(doc, size=7):
    return [doc[index:index + size] for index in range(0, len(doc), size)]


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 0.5) == 0.0

    def test_single_value(self):
        assert percentile([3.0], 0.5) == 3.0
        assert percentile([3.0], 0.99) == 3.0

    def test_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 0.50) == 50.0
        assert percentile(values, 0.99) == 99.0
        assert percentile(values, 1.00) == 100.0

    def test_unsorted_input(self):
        assert percentile([9.0, 1.0, 5.0], 0.5) == 5.0


class TestResultTiming:
    def test_total_needs_feed_and_write(self):
        timing = ResultTiming(feed=1.0)
        assert timing.total is None
        timing.write = 1.5
        assert timing.total == pytest.approx(0.5)

    def test_stage_deltas_cover_full_path(self):
        timing = ResultTiming(feed=1.0, batch=1.1, emit=1.3)
        timing.dispatch = 1.35
        timing.enqueue = 1.40
        timing.write = 1.50
        stages = dict(timing.stage_deltas())
        assert stages["parse"] == pytest.approx(0.1)
        assert stages["match"] == pytest.approx(0.2)
        assert stages["dispatch"] == pytest.approx(0.05)
        assert stages["enqueue"] == pytest.approx(0.05)
        assert stages["write"] == pytest.approx(0.10)

    def test_partial_path_skips_unstamped_stages(self):
        timing = ResultTiming(feed=1.0, batch=None, emit=1.2)
        assert [stage for stage, _ in timing.stage_deltas()] == []
        timing.dispatch = 1.25
        assert [stage for stage, _ in timing.stage_deltas()] == ["dispatch"]

    def test_as_dict_round_trips_fields(self):
        timing = ResultTiming(feed=1.0, batch=1.1, emit=1.2)
        timing.sub = "s1"
        timing.tenant = "alice"
        record = timing.as_dict()
        assert record["sub"] == "s1" and record["tenant"] == "alice"
        assert record["feed"] == 1.0 and record["write"] is None


class TestLatencyRecorder:
    def test_emitted_shares_cycle_stamps(self):
        tracker = DeliveryTracker()
        recorder = tracker.recorder()
        recorder.start_feed()
        recorder.mark_batch()
        recorder.emitted(3)
        assert len(recorder.pending) == 3
        feeds = {timing.feed for timing in recorder.pending}
        emits = {timing.emit for timing in recorder.pending}
        assert len(feeds) == 1 and len(emits) == 1

    def test_handle_entry_defers_to_transport_stamp(self):
        tracker = DeliveryTracker()
        recorder = tracker.recorder()
        recorder.start_feed()
        before = recorder._feed
        recorder.handle_entry()  # transport already stamped: no-op
        assert recorder._feed == before
        recorder.emitted(1)
        recorder.handle_entry()  # bare-handle use: stamps entry itself
        assert recorder._feed is not None

    def test_cycle_resets_after_emit(self):
        tracker = DeliveryTracker()
        recorder = tracker.recorder()
        recorder.start_feed()
        recorder.emitted(1)
        assert recorder._feed is None and recorder._batch is None
        recorder.emitted(0)
        assert recorder.pending[-1].feed is not None  # first cycle kept

    def test_take_claims_and_clears(self):
        tracker = DeliveryTracker()
        recorder = tracker.recorder()
        recorder.start_feed()
        recorder.emitted(2)
        claimed = recorder.take()
        assert len(claimed) == 2
        assert recorder.take() == []


class TestDeliveryTracker:
    def completed_timing(self, tracker, sub="s1", tenant="t", total=0.01):
        timing = ResultTiming(feed=1.0, batch=1.001, emit=1.002)
        timing.sub = sub
        timing.tenant = tenant
        timing.dispatch = 1.003
        timing.enqueue = 1.004
        timing.write = 1.0 + total
        tracker.complete(timing)
        return timing

    def test_incomplete_timing_ignored(self):
        tracker = DeliveryTracker()
        tracker.complete(ResultTiming(feed=1.0))  # no write stamp
        assert tracker.completed == 0

    def test_snapshot_per_subscription(self):
        tracker = DeliveryTracker()
        for _ in range(10):
            self.completed_timing(tracker, sub="s1", total=0.010)
        self.completed_timing(tracker, sub="s2", total=0.100)
        snap = tracker.snapshot()
        assert snap["completed"] == 11
        assert snap["subscriptions"]["s1"]["count"] == 10
        assert snap["subscriptions"]["s1"]["p50_seconds"] == \
            pytest.approx(0.010)
        assert snap["subscriptions"]["s2"]["max_seconds"] == \
            pytest.approx(0.100)
        assert snap["max_seconds"] == pytest.approx(0.100)

    def test_reservoir_bounded(self):
        tracker = DeliveryTracker(reservoir=8)
        for _ in range(100):
            self.completed_timing(tracker)
        assert len(tracker.latencies("s1")) == 8
        assert tracker.snapshot()["subscriptions"]["s1"]["count"] == 100

    def test_metrics_histograms_observed(self):
        obs = Observability(spans=False, events=False)
        tracker = DeliveryTracker(metrics=obs.metrics)
        self.completed_timing(tracker, sub="s1", tenant="alice")
        text = obs.metrics.render_prometheus()
        assert "repro_serve_delivery_seconds_count" in text
        assert 'sub="s1"' in text and 'tenant="alice"' in text
        assert 'repro_serve_stage_seconds_count{stage="parse"}' in text
        assert 'repro_serve_stage_seconds_count{stage="write"}' in text


class TestBrokerIntegration:
    def run_document(self, obs):
        broker = SubscriptionBroker(obs=obs)
        names = broker.subscribe("/pub/book/name/text()", tenant="alice")
        years = broker.subscribe("/pub/year/text()", tenant="bob")
        stream = broker.open_stream()
        out = []
        for chunk in chunked(DOC):
            out += stream.feed(chunk)
        out += stream.finish()
        return broker, stream, {"names": names, "years": years}, out

    def test_stream_attaches_recorder_when_obs_present(self):
        obs = Observability(spans=False, events=False)
        broker, stream, _, _ = self.run_document(obs)
        assert broker.delivery is obs.delivery
        assert isinstance(stream._latency, LatencyRecorder)
        # The stream stamps emission itself, after fan-out; the group
        # session carries no recorder.
        assert stream._handle.latency is None

    def test_timings_labelled_with_owning_subscription(self):
        obs = Observability(spans=False, events=False)
        _, stream, sids, out = self.run_document(obs)
        timings = stream.take_timings()
        assert len(timings) == len(out) == 3
        assert [t.sub for t in timings] == [sid for sid, _ in out]
        by_sub = {t.sub: t.tenant for t in timings}
        assert by_sub[sids["names"]] == "alice"
        assert by_sub[sids["years"]] == "bob"
        for timing in timings:
            assert timing.feed is not None
            assert timing.batch is not None
            assert timing.emit is not None
            assert timing.feed <= timing.batch <= timing.emit

    def test_shared_query_gets_one_timing_per_delivered_result(self):
        # Two tenants hold the same query: the broker evaluates it once
        # and fans each result out, so every delivered pair needs its
        # own record, labelled with its own subscription and tenant.
        obs = Observability(spans=False, events=False)
        broker = SubscriptionBroker(obs=obs)
        alice = broker.subscribe("/pub/book/name/text()", tenant="alice")
        bob = broker.subscribe("/pub/book/name/text()", tenant="bob")
        stream = broker.open_stream(tenant="carol")
        out = []
        timings = []
        for chunk in chunked(DOC):
            out += stream.feed(chunk)
            timings += stream.take_timings()
        out += stream.finish()
        timings += stream.take_timings()
        assert sorted(out) == sorted([(alice, "First"), (bob, "First"),
                                      (alice, "Second"), (bob, "Second")])
        assert len(timings) == len(out)
        assert [t.sub for t in timings] == [sid for sid, _ in out]
        tenant_of = {alice: "alice", bob: "bob"}
        assert all(t.tenant == tenant_of[t.sub] for t in timings)
        assert len({id(t) for t in timings}) == len(timings)
        for timing in timings:
            assert timing.feed <= timing.batch <= timing.emit

    def test_no_obs_leaves_stamping_detached(self):
        broker = SubscriptionBroker()
        broker.subscribe("/pub/year/text()")
        stream = broker.open_stream()
        for chunk in chunked(DOC):
            stream.feed(chunk)
        stream.finish()
        assert stream.take_timings() == []

    def test_completed_timings_surface_in_obs_snapshot(self):
        obs = Observability(spans=False, events=False)
        _, stream, _, _ = self.run_document(obs)
        for timing in stream.take_timings():
            timing.write = obs.delivery.clock()
            obs.delivery.complete(timing)
        snap = obs.snapshot()
        assert snap["delivery"]["completed"] == 3
        assert len(snap["delivery"]["subscriptions"]) == 2


class TestTopRendering:
    def build_snapshot(self):
        tracker = DeliveryTracker()
        timing = ResultTiming(feed=1.0, batch=1.1, emit=1.2)
        timing.sub = "s1"
        timing.tenant = "alice"
        timing.write = 1.25
        tracker.complete(timing)
        return tracker.snapshot()

    def test_format_delivery_table(self):
        text = format_delivery(self.build_snapshot())
        assert "delivery: results=1" in text
        assert "s1" in text and "alice" in text
        assert "P99" in text

    def test_format_top_includes_delivery_section(self):
        obs = Observability(spans=False, events=False)
        tracker = obs.enable_delivery()
        assert obs.enable_delivery() is tracker  # get-or-create
        timing = ResultTiming(feed=1.0, batch=1.0, emit=1.0)
        timing.sub = "s9"
        timing.write = 1.002
        tracker.complete(timing)
        text = format_top(obs.snapshot())
        assert "delivery:" in text
        assert "s9" in text

    def test_format_top_omits_delivery_when_absent(self):
        obs = Observability(spans=False, events=False)
        assert "delivery:" not in format_top(obs.snapshot())

    def test_human_seconds_units(self):
        from repro.obs.accounting import _human_seconds
        assert _human_seconds(2.5).endswith("s")
        assert _human_seconds(0.002).endswith("ms")
        assert _human_seconds(0.00005).endswith("us")
