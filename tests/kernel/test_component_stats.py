"""Tests for the component hierarchy and statistics accumulators."""

import pytest

from repro.kernel import Component, Simulator
from repro.kernel.stats import (Accumulator, Counter, ThroughputMeter,
                                UtilizationTracker)


@pytest.fixture
def sim():
    return Simulator()


class TestComponent:
    def test_path_reflects_hierarchy(self, sim):
        root = Component(sim, "ssd")
        chn = Component(sim, "chn0", parent=root)
        way = Component(sim, "way1", parent=chn)
        assert way.path() == "ssd.chn0.way1"

    def test_children_registered(self, sim):
        root = Component(sim, "ssd")
        child = Component(sim, "host", parent=root)
        assert root.children == {"host": child}

    def test_duplicate_child_rejected(self, sim):
        root = Component(sim, "ssd")
        Component(sim, "host", parent=root)
        with pytest.raises(ValueError):
            Component(sim, "host", parent=root)

    def test_name_validation(self, sim):
        with pytest.raises(ValueError):
            Component(sim, "")
        with pytest.raises(ValueError):
            Component(sim, "a.b")

    def test_walk_depth_first(self, sim):
        root = Component(sim, "r")
        a = Component(sim, "a", parent=root)
        Component(sim, "a1", parent=a)
        Component(sim, "b", parent=root)
        assert [c.path() for c in root.walk()] == ["r", "r.a", "r.a.a1", "r.b"]

    def test_find_by_dotted_path(self, sim):
        root = Component(sim, "r")
        a = Component(sim, "a", parent=root)
        target = Component(sim, "deep", parent=a)
        assert root.find("a.deep") is target

    def test_find_missing_raises(self, sim):
        root = Component(sim, "r")
        with pytest.raises(KeyError):
            root.find("nope")

    def test_collect_stats_keys_by_path(self, sim):
        root = Component(sim, "r")
        child = Component(sim, "c", parent=root)
        child.stats.counter("ops").increment(3)
        collected = root.collect_stats()
        assert collected == {"r.c": {"ops.count": 3}}


class TestCounterAccumulator:
    def test_counter(self):
        counter = Counter()
        counter.increment()
        counter.increment(5)
        assert counter.value == 6

    def test_accumulator_stats(self):
        acc = Accumulator()
        for sample in (2.0, 4.0, 6.0):
            acc.add(sample)
        assert acc.count == 3
        assert acc.total == 12.0
        assert acc.mean == pytest.approx(4.0)
        assert acc.minimum == 2.0
        assert acc.maximum == 6.0
        assert acc.variance == pytest.approx(4.0)
        assert acc.stddev == pytest.approx(2.0)

    def test_empty_accumulator(self):
        acc = Accumulator()
        assert acc.mean == 0.0
        assert acc.variance == 0.0


class TestUtilizationTracker:
    def test_busy_window(self, sim):
        tracker = UtilizationTracker(sim)

        def proc():
            tracker.set_busy()
            yield 100
            tracker.set_idle()
            yield 100

        sim.process(proc())
        sim.run()
        assert tracker.busy_time() == 100
        assert tracker.utilization() == pytest.approx(0.5)

    def test_idempotent_transitions(self, sim):
        tracker = UtilizationTracker(sim)
        tracker.set_busy()
        tracker.set_busy()
        tracker.set_idle()
        tracker.set_idle()
        assert tracker.busy_time() == 0

    def test_open_interval_counts(self, sim):
        tracker = UtilizationTracker(sim)

        def proc():
            tracker.set_busy()
            yield 100

        sim.process(proc())
        sim.run()
        assert tracker.busy_time() == 100
        assert tracker.utilization() == pytest.approx(1.0)


class TestThroughputMeter:
    def test_mbps(self, sim):
        meter = ThroughputMeter(sim)

        def proc():
            yield 1_000_000  # 1 us
            meter.record(4096)
            yield 1_000_000
            meter.record(4096)

        sim.process(proc())
        sim.run()
        # Default window is [first, last] sample: 8192 bytes over the
        # 1 us between the two records = 8192 MB/s.  The idle 1 us of
        # warm-up before the first record no longer dilutes the figure.
        assert meter.megabytes_per_second() == pytest.approx(8192.0)
        # from_zero=True restores the absolute window (t=0 .. last):
        # 8192 bytes over 2 us = 4096 MB/s.
        assert meter.megabytes_per_second(
            from_zero=True) == pytest.approx(4096.0)
        assert meter.iops() == pytest.approx(2 / 1e-6)
        assert meter.iops(from_zero=True) == pytest.approx(2 / 2e-6)

    def test_empty_meter(self, sim):
        meter = ThroughputMeter(sim)
        assert meter.megabytes_per_second() == 0.0
        assert meter.iops() == 0.0

    def test_explicit_window(self, sim):
        meter = ThroughputMeter(sim)

        def proc():
            yield 1_000_000
            meter.record(1_000_000)  # 1 MB

        sim.process(proc())
        sim.run()
        # 1 MB over explicitly 1 second window = 1 MB/s.
        assert meter.megabytes_per_second(window_ps=10**12) == pytest.approx(1.0)

    def test_iops(self, sim):
        meter = ThroughputMeter(sim)

        def proc():
            for __ in range(10):
                yield 100_000_000  # 100 us apart
                meter.record(512)

        sim.process(proc())
        sim.run()
        # Samples land at 100us..1000us: the observed window is 900us,
        # and from_zero=True measures against absolute time (1 ms).
        assert meter.iops() == pytest.approx(10 / 0.9e-3)
        assert meter.iops(from_zero=True) == pytest.approx(10 / 1e-3)
