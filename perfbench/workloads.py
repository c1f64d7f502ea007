"""The benchmark's four workloads, each driven through the public API.

Every workload runs in this process, through ``SweepRunner(workers=1)``
with no result cache where a runner is involved, so nothing is served
from an earlier run.  ``run_*`` returns the simulated outputs (the
payload the correctness gate digests) and the number of host commands
it issued.

* ``fig3_cycle`` -- Fig. 3 (SATA II, NCQ 32, closed-loop 4 KiB
  sequential writes) over Table II C1, C3, C6 at cycle fidelity: the
  busy path, where per-command work is a real share of host time.
* ``fig3_fast`` -- the same points at calibrated ``fast`` fidelity,
  calibration included in every repetition: no refresh process and no
  ONFI phase chain, so kernel overhead dominates.
* ``trace_replay`` -- the seeded MSR trace replayed open loop on the
  default 32-die architecture at cycle fidelity, reads preloaded: the
  idle-heavy case, where simulated time rather than activity sets the
  host cost.
* ``ftl_steady`` -- a prefix of the same trace through the 4-die FTL
  microscope with steady-state preconditioning, pagemap and dftl at the
  smallest default DRAM budget: the only workload where the FTL does
  real work.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.core.calibrate import calibrate
from repro.core.experiments import fig3_sweep
from repro.core.ftlsweep import default_dram_budgets, ftl_sweep
from repro.core.sweep import SweepRunner
from repro.core.tracereplay import TraceWorkload, replay_trace
from repro.ssd.architecture import SsdArchitecture

import tracegen

FIG3_CONFIGS = ("C1", "C3", "C6")
#: Commands per Fig. 3 scenario run, shrunk from the study's 2000 so
#: that two repetitions of all twelve device runs fit in the benchmark's
#: run time.  Measured against 2000 commands, 500 keeps the per-command
#: profile that sets host cost: kernel events per command -6%, refresh
#: share of events -5%, host CPU per command within 1%.  WAF GC calls
#: per command are 21% low, because GC starts only once the first blocks
#: fill; past that point the GC rate per command is the 2000-command one.
#: The paper fixes this input (sequential 4 KiB writes), so the seed does
#: not change it and the Fig. 3 outputs are the same at every seed.
FIG3_COMMANDS = 500
#: Scenario runs per Table II configuration (DDR+FLASH, cache, no cache,
#: HOST+DDR).
FIG3_RUNS_PER_CONFIG = 4

TRACE_RECORDS = 120
TRACE_DURATION_US = 100_000
FTL_RECORDS = 80
FTL_SCHEMES = ("pagemap", "dftl")

#: Keys of a RunResult payload that measure the simulator, not the model.
HOST_KEYS = ("events", "wall_seconds")


@dataclass
class Inputs:
    """Everything a workload receives, made from the seed."""

    seed: int
    trace_path: str


@dataclass
class Outcome:
    """What one repetition of a workload produced."""

    payload: Dict[str, Any]
    issued: int
    runner: Optional[SweepRunner] = None
    #: Wall seconds spent in calibration, and the part of them inside
    #: the event loop (excluded from the timed phase).
    calibrate_s: float = 0.0
    calibrate_loop_s: float = 0.0


@dataclass
class Workload:
    name: str
    fidelity: str
    run: Callable[[Inputs, Any], Outcome]
    #: Records of the generated trace it replays (0: none).
    trace_records: int = 0


def make_inputs(seed: int, workdir: str) -> Inputs:
    """Generate the seeded inputs; the trace goes to ``workdir``."""
    path = os.path.join(workdir, f"trace-{seed}.csv")
    tracegen.write_trace(path, seed, TRACE_RECORDS, TRACE_DURATION_US)
    return Inputs(seed=seed, trace_path=path)


def simulated_only(payload: Dict[str, Any]) -> Dict[str, Any]:
    """A RunResult payload without the keys that measure the host."""
    return {key: value for key, value in payload.items()
            if key not in HOST_KEYS}


def fig3_rows(fidelity=None):
    """Fig. 3 rows as plain dicts, and the runner that produced them."""
    runner = SweepRunner(workers=1)
    rows = fig3_sweep(n_commands=FIG3_COMMANDS,
                      configs=list(FIG3_CONFIGS), runner=runner,
                      fidelity=fidelity)
    payload = {name: dataclasses.asdict(row)
               for name, row in sorted(rows.items())}
    return payload, runner


def run_fig3_cycle(inputs: Inputs, probe) -> Outcome:
    payload, runner = fig3_rows()
    return Outcome(payload=payload, runner=runner,
                   issued=(len(FIG3_CONFIGS) * FIG3_RUNS_PER_CONFIG
                           * FIG3_COMMANDS))


def run_fig3_fast(inputs: Inputs, probe) -> Outcome:
    loop_before = probe.loop_wall_s
    started = probe.wall()
    calibration = calibrate(SsdArchitecture(), cache_dir=None)
    calibrate_s = probe.wall() - started
    calibrate_loop_s = probe.loop_wall_s - loop_before
    payload, runner = fig3_rows(calibration.to_fidelity())
    return Outcome(payload=payload, runner=runner,
                   issued=(len(FIG3_CONFIGS) * FIG3_RUNS_PER_CONFIG
                           * FIG3_COMMANDS),
                   calibrate_s=calibrate_s,
                   calibrate_loop_s=calibrate_loop_s)


def run_trace_replay(inputs: Inputs, probe) -> Outcome:
    outcome = replay_trace(TraceWorkload.from_file(inputs.trace_path),
                           label="perfbench/trace_replay")
    payload = simulated_only(outcome.result.to_dict())
    payload["trace_profile"] = outcome.profile.to_dict()
    return Outcome(payload=payload, issued=TRACE_RECORDS)


def run_ftl_steady(inputs: Inputs, probe) -> Outcome:
    workload = TraceWorkload.from_file(inputs.trace_path,
                                       max_commands=FTL_RECORDS)
    runner = SweepRunner(workers=1)
    payloads = ftl_sweep(workload, schemes=list(FTL_SCHEMES),
                         dram_budgets=[min(default_dram_budgets())],
                         runner=runner)
    return Outcome(payload={name: simulated_only(payload)
                            for name, payload in sorted(payloads.items())},
                   issued=len(FTL_SCHEMES) * FTL_RECORDS, runner=runner)


def max_rel_error(fast: Dict[str, Any], cycle: Dict[str, Any]) -> float:
    """Largest relative error of fast Fig. 3 bars against cycle ones.

    The ``HOST ideal`` bar is analytic (equal by construction) and is
    left out, as in ``repro.core.calibrate.fidelity_error_report``.
    """
    worst = 0.0
    for config, row in cycle.items():
        for bar, reference in row.items():
            if bar in ("label", "host_ideal_mbps"):
                continue
            measured = fast[config][bar]
            error = abs(measured - reference) / abs(reference) \
                if reference else abs(measured)
            worst = max(worst, error)
    return worst


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (
        Workload("fig3_cycle", "cycle", run_fig3_cycle),
        Workload("fig3_fast", "fast", run_fig3_fast),
        Workload("trace_replay", "cycle", run_trace_replay, TRACE_RECORDS),
        Workload("ftl_steady", "cycle", run_ftl_steady, FTL_RECORDS),
    )
}
