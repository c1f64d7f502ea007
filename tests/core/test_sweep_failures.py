"""Sweep hardening: failure envelopes, timeouts, resume of failed points,
worker death.

A crashing point must never take the sweep down with it — it becomes a
typed :class:`PointFailure` with its traceback, is reported in the
summary, is stored in the cache for post-mortems, and is re-run (not
replayed) by a resumed sweep.  A worker process killed mid-point costs
one re-run of that point and changes no payload.
"""

import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.core import (PointFailure, SweepCache, SweepPoint, SweepRunner,
                        fingerprint, print_progress)
from repro.core import sweep as sweep_module
from repro.host import sequential_write
from repro.nand import NandGeometry
from repro.ssd import SsdArchitecture

SMALL_GEO = NandGeometry(planes_per_die=1, blocks_per_plane=64,
                         pages_per_block=32)


def tiny_arch(**overrides):
    base = dict(n_channels=2, n_ddr_buffers=2, n_ways=2, dies_per_way=2,
                geometry=SMALL_GEO, dram_refresh=False)
    base.update(overrides)
    return SsdArchitecture(**base)


def good_point(name="good", **params):
    return SweepPoint(name=name, arch=tiny_arch(),
                      workload=sequential_write(4096 * 10),
                      evaluator="measure", params=params)


def bad_point(name="bad"):
    """A point whose evaluation raises (bogus data-path mode)."""
    return SweepPoint(name=name, arch=tiny_arch(),
                      workload=sequential_write(4096 * 10),
                      evaluator="measure", params={"mode": "bogus"})


def _eval_flaky(point):
    """Fails until its sentinel file exists, then succeeds."""
    sentinel = point.params["sentinel"]
    try:
        with open(sentinel, "r", encoding="utf-8"):
            pass
    except OSError:
        raise RuntimeError("flaky point: first attempt crashes")
    return {"recovered": True}, 1


def _eval_sleepy(point):
    time.sleep(float(point.params.get("seconds", 5.0)))
    return {"slept": True}, 1


def _eval_killer(point):
    """Appends one line per execution attempt to ``<log>/<name>.count``
    (the attempt ledger); a point marked ``kill`` SIGKILLs its own
    process on its first attempt."""
    ledger = os.path.join(point.params["log"], f"{point.name}.count")
    with open(ledger, "a", encoding="utf-8") as handle:
        handle.write(f"{os.getpid()}\n")
    with open(ledger, encoding="utf-8") as handle:
        attempts = len(handle.readlines())
    if point.params["kill"] and attempts == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return {"point": point.name, "value": point.params["value"]}, 1


sweep_module.EVALUATORS.setdefault("test_flaky", _eval_flaky)
sweep_module.EVALUATORS.setdefault("test_sleepy", _eval_sleepy)
sweep_module.EVALUATORS.setdefault("test_killer", _eval_killer)


class TestFailureEnvelopes:
    def test_crash_becomes_typed_failure(self):
        result = SweepRunner(workers=1).run([good_point(), bad_point()])
        assert result.summary.failed == 1
        assert result.summary.total == 2
        good, bad = result.outcomes
        assert not good.failed
        assert bad.failed
        assert bad.failure.error_type == "ValueError"
        assert "bogus" in bad.failure.message
        assert "Traceback" in bad.failure.traceback
        assert bad.payload == {}

    def test_failed_points_excluded_from_payloads(self):
        result = SweepRunner(workers=1).run([good_point(), bad_point()])
        assert set(result.payloads()) == {"good"}
        assert [o.name for o in result.failures()] == ["bad"]

    def test_format_failures_report(self):
        result = SweepRunner(workers=1).run([good_point(), bad_point()])
        report = result.format_failures()
        assert "failed_points: 1" in report
        assert "bad: ValueError" in report
        clean = SweepRunner(workers=1).run([good_point()])
        assert clean.format_failures() == ""

    def test_summary_format_flags_failures(self):
        result = SweepRunner(workers=1).run([bad_point()])
        assert "1 FAILED" in result.summary.format()
        clean = SweepRunner(workers=1).run([good_point()])
        assert "FAILED" not in clean.summary.format()

    def test_print_progress_shows_failure(self, capsys):
        result = SweepRunner(workers=1).run([bad_point()])
        print_progress(result.outcomes[0], 1, 1)
        captured = capsys.readouterr().out
        assert "FAILED" in captured
        assert "ValueError" in captured

    def test_pool_path_survives_crashing_point(self):
        """Worker processes return failure envelopes like any result."""
        points = [good_point("g1"), bad_point("b1"), good_point("g2")]
        result = SweepRunner(workers=3).run(points)
        assert result.summary.failed == 1
        assert [o.name for o in result.failures()] == ["b1"]
        assert not result.outcomes[0].failed
        assert not result.outcomes[2].failed

    def test_point_failure_round_trip(self):
        failure = PointFailure(error_type="ValueError", message="boom",
                               traceback="Traceback ...")
        assert PointFailure.from_dict(failure.to_dict()) == failure


class TestFailureCache:
    def test_failure_stored_for_post_mortem(self, tmp_path):
        runner = SweepRunner(workers=1, cache_dir=str(tmp_path))
        result = runner.run([bad_point()])
        key = result.outcomes[0].key
        envelope = SweepCache(str(tmp_path)).load(key)
        assert envelope is not None
        assert envelope["failure"]["error_type"] == "ValueError"
        assert "Traceback" in envelope["failure"]["traceback"]

    def test_resume_reruns_failed_points(self, tmp_path):
        """A recorded failure is post-mortem data, not a result: the
        flaky point fails once, then a resumed sweep re-runs (and this
        time completes) it instead of replaying the failure."""
        sentinel = tmp_path / "fixed.flag"
        point = SweepPoint(name="flaky", arch="stub", workload="wl",
                           evaluator="test_flaky",
                           params={"sentinel": str(sentinel)})
        cache_dir = str(tmp_path / "cache")
        first = SweepRunner(workers=1, cache_dir=cache_dir).run([point])
        assert first.summary.failed == 1

        sentinel.write_text("fault repaired\n")
        second = SweepRunner(workers=1, cache_dir=cache_dir).run([point])
        assert second.summary.failed == 0
        assert second.summary.simulated == 1  # re-ran, not served stale
        assert second.outcomes[0].payload == {"recovered": True}

        # ...and the healthy result now caches normally.
        third = SweepRunner(workers=1, cache_dir=cache_dir).run([point])
        assert third.summary.cached == 1

    def test_good_points_still_cache_alongside_failures(self, tmp_path):
        runner = SweepRunner(workers=1, cache_dir=str(tmp_path))
        runner.run([good_point(), bad_point()])
        again = SweepRunner(workers=1,
                            cache_dir=str(tmp_path)).run([good_point(),
                                                          bad_point()])
        assert again.summary.cached == 1      # the good point
        assert again.summary.failed == 1      # the bad one re-ran


class TestTimeouts:
    def test_runaway_point_times_out(self, tmp_path):
        point = SweepPoint(name="slow", arch="stub", workload="wl",
                           evaluator="test_sleepy",
                           params={"seconds": 10.0})
        started = time.perf_counter()
        result = SweepRunner(workers=1, timeout_s=0.2).run([point])
        assert time.perf_counter() - started < 5.0
        assert result.summary.failed == 1
        assert result.outcomes[0].failure.error_type == "PointTimeout"
        assert "exceeded" in result.outcomes[0].failure.message

    def test_fast_point_unaffected_by_timeout(self):
        result = SweepRunner(workers=1, timeout_s=60.0).run([good_point()])
        assert result.summary.failed == 0

    def test_timeout_validation(self):
        with pytest.raises(ValueError):
            SweepRunner(timeout_s=0.0)
        with pytest.raises(ValueError):
            SweepRunner(timeout_s=-1.0)


class TestRunnerBookkeeping:
    def test_last_result_retained(self):
        runner = SweepRunner(workers=1)
        result = runner.run([good_point(), bad_point()])
        assert runner.last_result is result
        assert runner.last_summary is result.summary

    def test_failure_payloads_are_deterministic(self):
        """Two runs of the same failing point produce the same envelope
        fields that participate in reports (not the traceback text)."""
        a = SweepRunner(workers=1).run([bad_point()]).outcomes[0]
        b = SweepRunner(workers=1).run([bad_point()]).outcomes[0]
        assert a.failure.error_type == b.failure.error_type
        assert a.failure.message == b.failure.message
        assert fingerprint(bad_point()) == fingerprint(bad_point())

    def test_failure_envelope_is_json_serializable(self):
        result = SweepRunner(workers=1).run([bad_point()])
        blob = json.dumps(result.outcomes[0].failure.to_dict())
        assert "ValueError" in blob


def killer_points(log):
    """Two quick ledger points around one that kills its worker."""
    return [SweepPoint(name=name, arch="stub", workload="wl",
                       evaluator="test_killer",
                       params={"log": log, "value": float(i),
                               "kill": name == "killer"})
            for i, name in enumerate(("k0", "killer", "k2"))]


def attempts(log, name):
    try:
        with open(os.path.join(log, f"{name}.count"),
                  encoding="utf-8") as handle:
            return [int(line) for line in handle]
    except OSError:
        return []


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="fork start method unavailable")
class TestWorkerDeath:
    """A forked child of a plain parallel sweep dies by SIGKILL mid-point:
    the sweep finishes, the point is re-run exactly once, and every
    payload matches the serial run byte for byte."""

    def test_sigkilled_child_rerun_once_payloads_identical(
            self, tmp_path, monkeypatch):
        # Two forked children even on a 1-CPU box: a serial run would
        # execute the killer in the test process itself.
        monkeypatch.setattr(sweep_module.os, "cpu_count", lambda: 2)
        log = str(tmp_path / "log")
        os.makedirs(log)
        points = [good_point("g0")] + killer_points(log) \
            + [good_point("g1")]
        runner = SweepRunner(workers=2)
        result = runner.run(points)
        assert result.summary.workers == 2

        assert result.summary.failed == 0
        assert result.summary.simulated == len(points)
        tries = attempts(log, "killer")
        assert len(tries) == 2                   # killed once, re-run once
        assert tries[0] != os.getpid()           # it died in a child
        assert len(attempts(log, "k0")) == len(attempts(log, "k2")) == 1

        # Reference: the same points serially, with the killer's ledger
        # already holding its first attempt so it does not fire in the
        # test process itself.
        reference_log = str(tmp_path / "reference")
        os.makedirs(reference_log)
        with open(os.path.join(reference_log, "killer.count"), "w",
                  encoding="utf-8") as handle:
            handle.write("0\n")
        reference = SweepRunner(workers=1).run(
            [good_point("g0")] + killer_points(reference_log)
            + [good_point("g1")])
        blob = lambda res: json.dumps(  # noqa: E731
            [o.payload for o in res.outcomes], sort_keys=True)
        assert blob(result) == blob(reference)
