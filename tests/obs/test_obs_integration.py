"""End-to-end observability: the gap-free invariant on a real device.

The load-bearing property: with observability armed, every completed
command's stage durations sum *exactly* to its end-to-end latency — for
writes (cached and not) and reads alike — and arming it does not change
a single simulated timestamp.
"""

import pytest

from repro.faults import FaultConfig
from repro.host import IoStatus, sequential_read, sequential_write
from repro.kernel import Simulator
from repro.nand import NandGeometry
from repro.obs import (disable_observability, enable_observability,
                       to_chrome_trace, validate_chrome_trace)
from repro.ssd import (CachePolicy, SsdArchitecture, SsdDevice, run_workload)
from repro.ssd.metrics import collect_utilization_timelines

GEO = NandGeometry(planes_per_die=1, blocks_per_plane=64, pages_per_block=32)


def tiny_arch(**overrides):
    defaults = dict(n_channels=2, n_ways=2, dies_per_way=2, n_ddr_buffers=2,
                    geometry=GEO, dram_refresh=False,
                    cache_policy=CachePolicy.NO_CACHING)
    defaults.update(overrides)
    return SsdArchitecture(**defaults)


@pytest.fixture
def recorder():
    recorder = enable_observability()
    yield recorder
    disable_observability()


def run_point(workload, **arch_overrides):
    sim = Simulator()
    device = SsdDevice(sim, tiny_arch(**arch_overrides))
    result = run_workload(sim, device, workload)
    return sim, device, result


class TestGapFreeInvariant:
    def assert_spans_tile(self, recorder, expect_commands):
        assert recorder.commands_completed == expect_commands
        assert len(recorder.commands) == expect_commands
        for span in recorder.commands:
            assert span.finished and span.end_ps >= span.start_ps
            assert sum(span.stage_totals().values()) == \
                span.end_ps - span.start_ps, span

    def test_writes_no_cache(self, recorder):
        run_point(sequential_write(4096 * 40))
        self.assert_spans_tile(recorder, 40)
        stages = set(recorder.breakdown())
        assert "host_xfer" in stages and "flash_drain" in stages

    def test_writes_cached(self, recorder):
        run_point(sequential_write(4096 * 40),
                  cache_policy=CachePolicy.CACHING)
        self.assert_spans_tile(recorder, 40)

    def test_reads(self, recorder):
        run_point(sequential_read(4096 * 40))
        self.assert_spans_tile(recorder, 40)
        stages = set(recorder.breakdown())
        # The read path marks the fine-grained flash stages.
        assert {"nand_busy", "bus_xfer", "ecc_decode"} <= stages

    def test_component_activity_recorded(self, recorder):
        run_point(sequential_read(4096 * 20))
        activities = set(recorder.component_breakdown())
        assert {"bus_cmd", "bus_xfer", "ecc_decode"} <= activities
        assert recorder.busiest_tracks()
        # Die tracks record their array state as the activity name.
        assert "reading" in activities

    def test_exported_trace_validates(self, recorder):
        run_point(sequential_read(4096 * 20))
        assert validate_chrome_trace(to_chrome_trace(recorder)) == []


class TestRunResultWiring:
    def test_stage_breakdown_populated_when_armed(self, recorder):
        __, __, result = run_point(sequential_write(4096 * 20))
        assert result.stage_breakdown
        shares = [row["share"] for row in result.stage_breakdown.values()]
        assert sum(shares) == pytest.approx(1.0)
        assert "stage_breakdown" in result.to_dict()

    def test_stage_breakdown_empty_when_disarmed(self):
        __, __, result = run_point(sequential_write(4096 * 20))
        assert result.stage_breakdown == {}

    def test_utilization_timelines(self):
        __, device, __ = run_point(sequential_write(4096 * 20))
        timelines = collect_utilization_timelines(device, buckets=16)
        assert set(timelines) == {"chn0.dies", "chn1.dies"}
        for series in timelines.values():
            assert series and all(0.0 <= point <= 1.0 for point in series)


class TestFailureStatus:
    def test_failed_command_span_carries_status(self, recorder):
        """A command the device fails keeps its error status on its span
        and in the exported trace; a completed one carries none."""
        run_point(sequential_write(4096 * 8),
                  faults=FaultConfig(enabled=True, seed=42,
                                     program_fail_prob=1.0,
                                     spare_blocks_per_plane=0))
        assert len(recorder.commands) == 8
        assert {span.status for span in recorder.commands} \
            == {IoStatus.WRITE_FAILED.value}
        slices = [event for event in to_chrome_trace(recorder)["traceEvents"]
                  if event.get("cat") == "command"]
        assert {event["args"]["status"] for event in slices} \
            == {IoStatus.WRITE_FAILED.value}

    def test_completed_command_span_has_no_status(self, recorder):
        run_point(sequential_write(4096 * 4))
        assert [span.status for span in recorder.commands] == [None] * 4


class TestZeroCost:
    def test_armed_run_is_time_identical(self):
        """Observability must observe, not perturb: same simulated end
        time and throughput with the hook armed or not."""
        baseline_sim, __, baseline = run_point(sequential_write(4096 * 30))
        enable_observability()
        try:
            armed_sim, __, armed = run_point(sequential_write(4096 * 30))
        finally:
            disable_observability()
        assert armed_sim.now == baseline_sim.now
        assert armed.sustained_mbps == baseline.sustained_mbps
        assert armed.mean_latency_us == baseline.mean_latency_us

    def test_read_run_is_time_identical(self):
        baseline_sim, __, __ = run_point(sequential_read(4096 * 30))
        enable_observability()
        try:
            armed_sim, __, __ = run_point(sequential_read(4096 * 30))
        finally:
            disable_observability()
        assert armed_sim.now == baseline_sim.now
