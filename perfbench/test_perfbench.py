"""The benchmark's own tests: ``python3 -m pytest perfbench``."""

import collections
import json
import os

import pytest

import hooks
import run
import tracegen
import workloads
import yardstick
from repro.core.ftlsweep import ftl_sweep
from repro.core.sweep import SweepRunner
from repro.core.tracereplay import TraceWorkload, replay_trace
from repro.host.traces import characterize, iter_trace
from repro.kernel import Simulator

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    SPEC = json.load(f)


def _shape(lines):
    rows = [line.split(",") for line in lines[1:]]
    return (len(rows),
            collections.Counter(row[3] for row in rows),
            collections.Counter(row[5] for row in rows),
            rows[-1][0])


class TestTraceGenerator:
    def test_same_seed_same_trace(self):
        assert tracegen.generate_lines(7, 200, 50_000) \
            == tracegen.generate_lines(7, 200, 50_000)

    def test_seeds_differ_in_content_not_shape(self):
        first = tracegen.generate_lines(7, 200, 50_000)
        second = tracegen.generate_lines(8, 200, 50_000)
        assert first != second
        assert _shape(first) == _shape(second)

    def test_profile_matches_declared_shape(self, tmp_path):
        path = str(tmp_path / "trace.csv")
        tracegen.write_trace(path, 3, 120, 100_000)
        profile = characterize(iter_trace(path))
        assert profile.records == 120
        assert profile.read_fraction == pytest.approx(0.7, abs=0.01)
        assert profile.sequential_fraction == pytest.approx(0.5, abs=0.02)
        assert profile.duration_s == pytest.approx(0.1, rel=1e-6)
        assert sum(profile.size_hist.values()) == 120


def _digest_untraced_and_traced(evaluate):
    """(untraced digest, traced digest, tracer) for one evaluation."""
    plain = run.digest(evaluate())
    probe = hooks.Probe()
    tracer = hooks.Tracer(probe)
    with probe.installed(), tracer.installed(run.SETUP_SPANS):
        traced = run.digest(evaluate())
    return plain, traced, tracer


class TestWrappersAreTransparent:
    def test_replay_outputs_unchanged(self, tmp_path):
        path = str(tmp_path / "trace.csv")
        tracegen.write_trace(path, 5, 20, 2_000)

        def evaluate():
            outcome = replay_trace(TraceWorkload.from_file(path))
            return workloads.simulated_only(outcome.result.to_dict())

        plain, traced, tracer = _digest_untraced_and_traced(evaluate)
        assert plain == traced
        assert tracer.stats["dram.refresh_loop"].resumes > 0
        assert tracer.stats["host.transfer"].calls == 20
        assert tracer.stats["host.trace_load"].calls == 1

    def test_ftl_outputs_unchanged(self, tmp_path):
        path = str(tmp_path / "trace.csv")
        tracegen.write_trace(path, 5, 20, 2_000)

        def evaluate():
            payloads = ftl_sweep(
                TraceWorkload.from_file(path, max_commands=4),
                schemes=["dftl"], dram_budgets=[8192],
                runner=SweepRunner(workers=1))
            return {name: workloads.simulated_only(payload)
                    for name, payload in payloads.items()}

        plain, traced, tracer = _digest_untraced_and_traced(evaluate)
        assert plain == traced
        assert tracer.stats["ftl.precondition"].calls == 1
        assert tracer.stats["ftl.write"].calls > 0

    def test_missing_setup_hook_raises(self):
        original = Simulator.process
        tracer = hooks.Tracer(hooks.Probe())
        with pytest.raises(AttributeError):
            with tracer.installed({("repro.core.tracereplay", "absent"):
                                   "host.trace_load"}):
                pass
        assert Simulator.process is original

    def test_hooks_are_removed_on_exit(self):
        originals = (Simulator.process, Simulator.run)
        probe = hooks.Probe()
        with probe.installed(), hooks.Tracer(probe).installed():
            assert (Simulator.process, Simulator.run) != originals
        assert (Simulator.process, Simulator.run) == originals


class TestPrintedMetrics:
    def test_workload_names_match(self):
        assert [w["name"] for w in SPEC["workloads"]] \
            == list(workloads.WORKLOADS)

    @pytest.mark.parametrize("trace", [False, True])
    def test_printed_metrics_match_spec(self, trace, tmp_path, monkeypatch):
        # A short Fig. 3 burst, held to its own cycle rows.
        monkeypatch.setattr(workloads, "FIG3_COMMANDS", 8)
        cycle_rows, __ = workloads.fig3_rows()
        monkeypatch.setattr(run, "load_references",
                            lambda: ({}, cycle_rows))
        report = run.run("fig3_fast", 2, 0.01, trace, str(tmp_path))
        result = report["result"]
        key = "per_layer" if trace else "end_to_end"
        assert [(name, entry["unit"])
                for name, entry in result["metrics"].items()] \
            == [(entry["name"], entry["unit"]) for entry in SPEC[key]]
        assert result["correct"] and result["failed"] == 0
        # Repetitions, untraced and traced.
        assert result["attempted"] == \
            (2 if trace else 1) * run.MIN_REPETITIONS


class TestYardstick:
    def test_chunk_is_fixed_work(self):
        assert yardstick.run_chunk() == yardstick.CHECKSUM
        assert yardstick.run_chunk() == yardstick.CHECKSUM

    def test_sampler_time_is_left_out_and_handler_restored(self):
        import signal
        probe = hooks.Probe()
        sampler = yardstick.Sampler(probe)
        before = signal.getsignal(signal.SIGPROF)
        with sampler.sampling():
            cpu0 = probe.cpu()
            yardstick.run_chunk(events=400_000)
            cpu = probe.cpu() - cpu0
        assert signal.getsignal(signal.SIGPROF) is before
        # One chunk before, one after, and some on the timer in between.
        assert sampler.chunks > 2
        assert probe.excluded_cpu_s == pytest.approx(sampler.cpu_s)
        assert cpu > 0
