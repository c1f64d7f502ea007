"""The simulator's benchmark: host-time throughput per workload.

Run from the repository root::

    python3 perfbench/run.py --workload fig3_cycle --seed 1 --seconds 30 --trace 0

It builds nothing: the simulator is the pure-Python package under
``src``.  One run generates the workload's inputs from ``--seed``,
repeats the workload in this process as often as fits in ``--seconds``
(at least twice), checks every repetition's outputs and prints the
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are a human-readable summary and a ``details`` JSON line
(machine stamp, clocks, trace profile, digests, gate violations).

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, as the
median over repetitions.  Every host time is ``time.perf_counter``
seconds scaled to a nominal machine speed (below):

* ``cmds_per_s`` -- host commands completed per host second inside the
  event loop (``Simulator.run``);
* ``kcps`` -- kilo-cycles of the 200 MHz platform clock simulated per
  host second inside the event loop (the paper's Fig. 6 unit);
* ``wall_s`` -- host seconds of one repetition, set-up and runner
  overhead included;
* ``setup_s`` -- host seconds of one repetition spent outside the event
  loop: device construction, preload, calibration, trace loading,
  preconditioning and result assembly;
* ``peak_rss_mb`` -- peak resident set of this process (one workload per
  process, so no other workload's peak carries in).

The simulator is single-threaded, so its wall time is its CPU time plus
the time the host took the core away.  Process CPU time is no better a
clock on a virtual machine with steal-time accounting: the stolen time
is taken off whatever runs at the next scheduler tick, so a 1 ms trace
load can read 0 CPU seconds and a short interval is off by milliseconds.
Both clocks still move with the neighbours: on a shared host the same
code takes up to twice as long while a neighbour is busy.  So while an
untraced repetition runs, ``yardstick.Sampler`` times a fixed,
benchmark-owned chunk of pure-Python event-loop work every
``yardstick.PERIOD_S`` of process CPU and leaves that time out of the
repetition's clocks, and the repetition's seconds are multiplied by
``yardstick.NOMINAL_CHUNK_S`` over its mean chunk seconds.  The details
line keeps every repetition's unscaled wall and CPU seconds and chunk
times, and the unscaled medians.

``--trace 1`` alternates untraced and traced repetitions and prints the
per-layer metrics of BENCHMARK.json (see ``layer_values``): span counts
and self times from ``hooks.Tracer`` (clock ``time.perf_counter``),
the devices' public counters, and ``trace.overhead``, the traced to
untraced host CPU ratio.  ``dram.refresh.share`` is the DRAM refresh
processes' resumes over all kernel events.

A repetition is one operation.  It fails if any command fails or goes
missing, if its simulated outputs differ from the first repetition's,
if a cycle-fidelity workload's outputs differ from the digest in
``reference.json`` (Fig. 3 at every seed, the trace workloads at the
default seed), if ``fig3_fast`` strays from its cycle reference by more
than the program's declared error bound, or, traced, if its outputs
differ from the untraced ones.  The cycle reference of ``fig3_fast`` is
the Fig. 3 cycle rows stored in ``reference.json`` -- the rows whose
digest ``fig3_cycle`` is held to -- so no cycle run shares the fast
workload's process and its peak memory.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import yardstick

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

DEFAULT_SEED = 1
MIN_REPETITIONS = 2
#: Picoseconds per cycle of the 200 MHz platform clock.
PS_PER_CYCLE = 5000


@dataclass
class Repetition:
    """Measurements and outputs of one repetition of a workload."""

    wall_s: float
    #: Wall seconds in the event loop, calibration's left out.
    loop_wall_s: float
    all_loop_wall_s: float
    cpu_s: float
    loop_cpu_s: float
    issued: int
    completed: int
    failed_commands: int
    sim_ps: int
    events: int
    digest: str
    payload: Dict[str, Any]
    counters: Dict[str, float]
    calibrate_s: float
    runner_overhead_s: float
    #: Mean wall and CPU seconds of a yardstick chunk during the
    #: repetition (untraced repetitions only).
    chunk_s: float = 0.0
    chunk_cpu_s: float = 0.0
    spans: Dict[str, Any] = field(default_factory=dict)
    kernel_self_s: float = 0.0

    @property
    def setup_s(self) -> float:
        return self.wall_s - self.loop_wall_s

    def scaled(self, seconds: float) -> float:
        """Wall seconds of this repetition on the nominal machine."""
        return seconds * yardstick.NOMINAL_CHUNK_S / self.chunk_s


def digest(payload: Dict[str, Any]) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def device_counters(devices) -> Dict[str, float]:
    """Public counters of the devices a repetition built."""
    dram = {"row_hits": 0, "row_misses": 0, "row_empty": 0, "refreshes": 0}
    die_util: List[float] = []
    ftl = {"host_writes": 0, "gc_relocations": 0, "translation_reads": 0,
           "cmt_hits": 0, "cmt_misses": 0}
    for device in devices:
        for component in device.walk():
            counters = component.stats.counters
            for key in dram:
                if key in counters:
                    dram[key] += counters[key].value
        if device.channels:
            die_util.append(sum(c.mean_die_utilization()
                                for c in device.channels)
                            / len(device.channels))
        if hasattr(device, "ftl_metrics"):
            metrics = device.ftl_metrics()
            for key in ftl:
                ftl[key] += int(metrics.get(key, 0))
    return {**dram, **ftl,
            "die_util": statistics.fmean(die_util) if die_util else 0.0}


def measure(workload, inputs, probe, tracer=None,
            sampler=None) -> Repetition:
    """Run one repetition under the probe, and the tracer or the
    yardstick sampler if given."""
    # Collect the previous repetition's garbage outside the timed region.
    gc.collect()
    probe.reset()
    if tracer is not None:
        tracer.reset()
    with sampler.sampling() if sampler is not None else nullcontext():
        wall0, cpu0 = probe.wall(), probe.cpu()
        outcome = workload.run(inputs, probe)
        wall = probe.wall() - wall0
        cpu = probe.cpu() - cpu0
    devices = probe.devices
    device_sims = {id(device.sim): device.sim for device in devices}
    runner_overhead = 0.0
    if outcome.runner is not None:
        result = outcome.runner.last_result
        runner_overhead = result.summary.wall_seconds - sum(
            point.elapsed_s for point in result.outcomes)
    rep = Repetition(
        wall_s=wall,
        loop_wall_s=probe.loop_wall_s - outcome.calibrate_loop_s,
        all_loop_wall_s=probe.loop_wall_s,
        cpu_s=cpu, loop_cpu_s=probe.loop_cpu_s,
        issued=outcome.issued,
        completed=sum(device.commands_completed for device in devices),
        failed_commands=sum(device.commands_failed for device in devices),
        sim_ps=sum(sim.now for sim in device_sims.values()),
        events=sum(sim.events_processed for sim in probe.sims.values()),
        digest=digest(outcome.payload), payload=outcome.payload,
        counters=device_counters(devices),
        calibrate_s=outcome.calibrate_s,
        runner_overhead_s=runner_overhead)
    if sampler is not None:
        rep.chunk_s = sampler.mean_wall_s
        rep.chunk_cpu_s = sampler.mean_cpu_s
    if tracer is not None:
        rep.spans = {name: (stat.calls, stat.resumes, stat.self_s,
                            stat.total_s)
                     for name, stat in tracer.stats.items()}
        rep.kernel_self_s = probe.loop_wall_s - tracer.top_in_loop_s
    probe.reset()
    return rep


# ----------------------------------------------------------------------
# Correctness gate


class Gate:
    """Collects violations; each failing check is one failed operation."""

    def __init__(self, workload, inputs, digests: Dict[str, str],
                 cycle_reference: Optional[Dict[str, Any]]) -> None:
        self.workload = workload
        self.inputs = inputs
        self.digests = digests
        self.cycle_reference = cycle_reference
        self.first_digest: Optional[str] = None
        self.violations: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.max_rel_error = 0.0

    def _reference_problem(self, digest_: str) -> List[str]:
        """Mismatch with the reference digest of this workload's cycle
        outputs; trace workloads are pinned at the default seed only."""
        expected = self.digests.get(self.workload.name)
        if expected is None or digest_ == expected:
            return []
        if self.workload.trace_records and self.inputs.seed != DEFAULT_SEED:
            return []
        return [f"digest {digest_[:16]} differs from the "
                f"{self.workload.name} reference {expected[:16]}"]

    def _record(self, label: str, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.violations.append(f"{label}: " + "; ".join(problems))

    def check(self, rep: Repetition, label: str,
              untraced_digest: Optional[str] = None) -> None:
        from repro.core.calibrate import DEFAULT_ERROR_BOUND
        from workloads import max_rel_error
        problems = []
        if rep.failed_commands:
            problems.append(f"{rep.failed_commands} failed commands")
        if rep.completed != rep.issued:
            problems.append(f"completed {rep.completed} of "
                            f"{rep.issued} issued commands")
        if self.first_digest is None:
            self.first_digest = rep.digest
        elif rep.digest != self.first_digest:
            problems.append("simulated outputs differ across repetitions")
        if untraced_digest is not None and rep.digest != untraced_digest:
            problems.append("traced outputs differ from untraced outputs")
        if self.workload.fidelity == "cycle":
            problems += self._reference_problem(rep.digest)
        if self.cycle_reference is not None:
            error = max_rel_error(rep.payload, self.cycle_reference)
            self.max_rel_error = max(self.max_rel_error, error)
            if error > DEFAULT_ERROR_BOUND:
                problems.append(f"max relative error {error:.4f} exceeds "
                                f"the bound {DEFAULT_ERROR_BOUND}")
        self._record(label, problems)


# ----------------------------------------------------------------------
# Metrics


def median(values) -> float:
    return statistics.median(list(values))


def end_to_end_metrics(reps: List[Repetition],
                       scaled: bool = True) -> Dict[str, float]:
    """Medians over the repetitions, host seconds on the nominal machine
    (or as measured, if not ``scaled``)."""
    def seconds(rep, value):
        return rep.scaled(value) if scaled else value

    return {
        "cmds_per_s": median(r.completed / seconds(r, r.loop_wall_s)
                             for r in reps),
        "kcps": median(r.sim_ps / PS_PER_CYCLE / 1e3
                       / seconds(r, r.loop_wall_s) for r in reps),
        "wall_s": median(seconds(r, r.wall_s) for r in reps),
        "setup_s": median(seconds(r, r.setup_s) for r in reps),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _spans(rep: Repetition, select, column: int) -> float:
    return sum(values[column] for name, values in rep.spans.items()
               if select(name))


CALLS, RESUMES, SELF_S, TOTAL_S = range(4)


def _named(*names: str):
    return lambda name: name in names


def _starts(prefix: str):
    return lambda name: name.startswith(prefix)


def layer_values(rep: Repetition) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition."""
    c = rep.counters
    refresh_resumes = _spans(rep, _starts("dram.refresh"), RESUMES)
    row_accesses = c["row_hits"] + c["row_misses"] + c["row_empty"]
    cmt = c["cmt_hits"] + c["cmt_misses"]
    return {
        "kernel.events": rep.events,
        "kernel.events_per_cmd": rep.events / max(rep.completed, 1),
        "kernel.resumes": _spans(rep, lambda name: True, RESUMES),
        "kernel.self_s": rep.kernel_self_s,
        "dram.refresh.resumes": refresh_resumes,
        "dram.refresh.self_s": _spans(rep, _starts("dram.refresh"), SELF_S),
        "dram.refresh.share": refresh_resumes / max(rep.events, 1),
        "dram.refreshes": c["refreshes"],
        "dram.access.calls": _spans(rep, _named("dram.access"), CALLS),
        "dram.access.self_s": _spans(rep, _named("dram.access"), SELF_S),
        "dram.row_hit_ratio": (c["row_hits"] / row_accesses
                               if row_accesses else 0.0),
        "host.transfer.calls": _spans(rep, _named("host.transfer"), CALLS),
        "host.transfer.self_s": _spans(rep, _named("host.transfer"),
                                       SELF_S),
        "host.trace_load_s": _spans(rep, _named("host.trace_load"),
                                    TOTAL_S),
        "cpu.commands": _spans(rep, _named("cpu.process_command"), CALLS),
        "cpu.self_s": _spans(rep, _starts("cpu."), SELF_S),
        "controller.program.calls": _spans(
            rep, _starts("controller.program"), CALLS),
        "controller.read.calls": _spans(rep, _starts("controller.read"),
                                        CALLS),
        "controller.erase.calls": _spans(rep, _starts("controller.erase"),
                                         CALLS),
        "controller.self_s": _spans(rep, _starts("controller."), SELF_S),
        "nand.self_s": _spans(rep, _starts("nand."), SELF_S),
        "nand.die_util": c["die_util"],
        "ssd.execute.self_s": _spans(rep, _named("ssd.execute"), SELF_S),
        "ssd.flush.self_s": _spans(
            rep, lambda name: name.startswith("ssd.") and "flush" in name,
            SELF_S),
        "ssd.gc_work.calls": _spans(rep, _named("ssd.gc_work"), CALLS),
        "ftl.writes": c["host_writes"],
        "ftl.gc_relocations": c["gc_relocations"],
        "ftl.translation_reads": c["translation_reads"],
        "ftl.cmt_hit_ratio": c["cmt_hits"] / cmt if cmt else 0.0,
        "ftl.self_s": _spans(rep, _starts("ftl."), SELF_S)
        - _spans(rep, _named("ftl.precondition"), TOTAL_S),
        "ftl.precondition_s": _spans(rep, _named("ftl.precondition"),
                                     TOTAL_S),
    }


def per_layer_metrics(untraced: List[Repetition], traced: List[Repetition],
                      max_error: float) -> Dict[str, float]:
    rows = [layer_values(rep) for rep in traced]
    metrics = {name: median(row[name] for row in rows) for name in rows[0]}
    loop_wall = median(r.all_loop_wall_s for r in untraced)
    metrics.update({
        "kernel.us_per_event": loop_wall / max(traced[0].events, 1) * 1e6,
        "core.runner_overhead_s": median(r.runner_overhead_s
                                         for r in untraced),
        "core.calibrate_s": median(r.calibrate_s for r in untraced),
        "trace.overhead": (median(r.wall_s for r in traced)
                           / median(r.wall_s for r in untraced)),
        "fidelity.max_rel_error": max_error,
    })
    return metrics


#: Module-level functions timed as set-up spans in the traced run.
SETUP_SPANS = {
    ("repro.core.tracereplay", "_load_commands"): "host.trace_load",
    ("repro.core.ftlsweep", "_load_commands"): "host.trace_load",
    ("repro.core.ftlsweep", "_precondition_steady"): "ftl.precondition",
}


def load_references() -> Tuple[Dict[str, str], Dict[str, Any]]:
    """From ``reference.json``: {workload: digest of its cycle outputs},
    and the Fig. 3 cycle rows (``fig3_cycle``'s digest is theirs)."""
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as f:
        stored = json.load(f)
    rows = stored["fig3_cycle_rows"]
    return {**stored["digests"], "fig3_cycle": digest(rows)}, rows


def declared_units(trace: bool) -> Dict[str, str]:
    """{metric: unit} of BENCHMARK.json's per-layer or end-to-end list."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {entry["name"]: entry["unit"]
            for entry in spec["per_layer" if trace else "end_to_end"]}


# ----------------------------------------------------------------------
# Stamp


def git_rev(root: str) -> str:
    """HEAD's commit id, or ``unknown`` outside a git checkout."""
    try:
        # The ceiling keeps git from finding a repository above ``root``.
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=30,
            env={**os.environ,
                 "GIT_CEILING_DIRECTORIES": os.path.dirname(root)})
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def stamp(seed: int) -> Dict[str, Any]:
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "machine": platform.machine(), "git_rev": git_rev(ROOT),
            "seed": seed}


# ----------------------------------------------------------------------


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        workdir: str) -> Dict[str, Any]:
    import hooks
    import workloads

    workload = workloads.WORKLOADS[workload_name]
    inputs = workloads.make_inputs(seed, workdir)
    digests, fig3_cycle_rows = load_references()
    probe = hooks.Probe()
    sampler = yardstick.Sampler(probe)
    tracer = hooks.Tracer(probe) if trace else None
    untraced: List[Repetition] = []
    traced: List[Repetition] = []
    gate = Gate(workload, inputs, digests,
                fig3_cycle_rows if workload.fidelity == "fast" else None)
    with probe.installed():
        # Stop before a repetition that would end past the deadline.
        deadline = time.perf_counter() + seconds
        last = 0.0
        while (len(untraced) < MIN_REPETITIONS
               or time.perf_counter() + last <= deadline):
            began = time.perf_counter()
            rep = measure(workload, inputs, probe, sampler=sampler)
            gate.check(rep, f"repetition {len(untraced) + 1}")
            untraced.append(rep)
            if tracer is not None:
                with tracer.installed(SETUP_SPANS):
                    rep = measure(workload, inputs, probe, tracer)
                gate.check(rep, f"traced repetition {len(traced) + 1}",
                           untraced_digest=untraced[-1].digest)
                traced.append(rep)
            last = time.perf_counter() - began

    if trace:
        metrics = per_layer_metrics(untraced, traced, gate.max_rel_error)
    else:
        metrics = end_to_end_metrics(untraced)
    units = declared_units(trace)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                           f"are not both computed and declared in "
                           f"BENCHMARK.json")
    first = untraced[0]
    details = {
        "workload": workload_name,
        "stamp": stamp(seed),
        "clocks": {"cmds_per_s": "perf_counter", "kcps": "perf_counter",
                   "setup_s": "perf_counter", "wall_s": "perf_counter",
                   "span self times": "perf_counter",
                   "cpu_s, loop_cpu_s": "process_time"},
        "nominal_chunk_s": yardstick.NOMINAL_CHUNK_S,
        "unscaled": end_to_end_metrics(untraced, scaled=False),
        "repetitions": [
            {"wall_s": r.wall_s, "loop_wall_s": r.loop_wall_s,
             "setup_s": r.setup_s, "chunk_s": r.chunk_s,
             "cpu_s": r.cpu_s, "loop_cpu_s": r.loop_cpu_s,
             "chunk_cpu_s": r.chunk_cpu_s}
            for r in untraced],
        "traced_repetitions": len(traced),
        "issued_commands": first.issued,
        "completed_commands": first.completed,
        "simulated_cycles": first.sim_ps // PS_PER_CYCLE,
        "kernel_events": first.events,
        "digest": first.digest,
        "max_rel_error": gate.max_rel_error,
        "violations": gate.violations,
    }
    if workload.trace_records:
        from repro.host.traces import characterize, iter_trace, limit_records
        details["trace_profile"] = characterize(limit_records(
            iter_trace(inputs.trace_path), workload.trace_records)).to_dict()
    return {
        "details": details,
        "result": {
            "correct": gate.failed == 0,
            "attempted": gate.attempted,
            "failed": gate.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()},
        },
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no simulator sources under {SRC}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        report = run(args.workload, args.seed, args.seconds,
                     bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, entry in report["result"]["metrics"].items():
        print(f"{name:28s} {entry['value']:.6g} {entry['unit']}")
    for violation in report["details"]["violations"]:
        print(f"VIOLATION {violation}")
    print("details " + json.dumps(report["details"], sort_keys=True))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
