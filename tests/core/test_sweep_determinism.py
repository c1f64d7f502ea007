"""Determinism tier: the parallel engine's key invariant.

A sweep fanned out over worker processes must produce results identical
to the same sweep run serially in process — and a serial sweep repeated
must reproduce itself exactly (hidden global state would break both).
"""

import pytest

from repro.core import DesignSpaceExplorer, SweepPoint, SweepRunner
from repro.host import sequential_write
from repro.nand import NandGeometry
from repro.ssd import SsdArchitecture

SMALL_GEO = NandGeometry(planes_per_die=1, blocks_per_plane=64,
                         pages_per_block=32)
N_COMMANDS = 100


def four_point_space():
    """A tiny 4-point design space cheap enough for the tier-1 suite."""
    base = dict(n_ways=2, dies_per_way=2, geometry=SMALL_GEO,
                dram_refresh=False)
    return {
        f"P{n}": SsdArchitecture(n_channels=n, n_ddr_buffers=n, **base)
        for n in (1, 2, 4, 8)
    }


def explore_with(workers):
    explorer = DesignSpaceExplorer(max_commands=N_COMMANDS)
    return explorer.explore(four_point_space(),
                            sequential_write(4096 * N_COMMANDS),
                            runner=SweepRunner(workers=workers))


class TestParallelSerialIdentity:
    def test_workers4_matches_workers1(self):
        serial = explore_with(workers=1)
        parallel = explore_with(workers=4)
        assert serial.target_mbps == parallel.target_mbps
        # DesignPoint / BreakdownRow / SsdArchitecture are dataclasses:
        # == compares every field, so this is full-content identity.
        assert serial.points == parallel.points
        assert [p.name for p in serial.points] \
            == [p.name for p in parallel.points]

    def test_serial_repeat_run_identical(self):
        """Two fresh serial sweeps must agree — catches hidden global
        state leaking between simulations."""
        first = explore_with(workers=1)
        second = explore_with(workers=1)
        assert first.target_mbps == second.target_mbps
        assert first.points == second.points

    def test_parallel_payloads_byte_identical(self):
        """At the raw-payload level (what the cache stores), parallel and
        serial evaluations of the same points agree exactly."""
        import json
        workload = sequential_write(4096 * N_COMMANDS)
        points = [SweepPoint(name=name, arch=arch, workload=workload,
                             params={"max_commands": N_COMMANDS})
                  for name, arch in four_point_space().items()]
        serial = SweepRunner(workers=1).run(points)
        parallel = SweepRunner(workers=4).run(points)
        blob = lambda res: json.dumps(  # noqa: E731
            [o.payload for o in res.outcomes], sort_keys=True)
        assert blob(serial) == blob(parallel)

    def test_derived_rankings_agree(self):
        serial = explore_with(workers=1)
        parallel = explore_with(workers=4)
        assert [p.name for p in serial.pareto_frontier()] \
            == [p.name for p in parallel.pareto_frontier()]
        assert serial.cheapest_within().name == parallel.cheapest_within().name

    def test_shared_fingerprint_keeps_each_name(self, monkeypatch):
        """Two points with one fingerprint under different names (the
        name is not part of the key) each reach the evaluator under
        their own name in a parallel run, as they do serially: the
        ``measure`` payload's label is the point name."""
        import json
        from repro.core import sweep as sweep_module
        monkeypatch.setattr(sweep_module.os, "cpu_count", lambda: 2)
        arch = four_point_space()["P2"]
        workload = sequential_write(4096 * 10)
        points = [SweepPoint(name=name, arch=arch, workload=workload,
                             evaluator="measure")
                  for name in ("alpha", "beta")]
        serial = SweepRunner(workers=1).run(points)
        parallel = SweepRunner(workers=2).run(points)
        assert parallel.summary.workers == 2
        assert [o.payload["label"] for o in parallel.outcomes] \
            == ["alpha", "beta"]
        blob = lambda res: json.dumps(  # noqa: E731
            [o.payload for o in res.outcomes], sort_keys=True)
        assert blob(serial) == blob(parallel)
