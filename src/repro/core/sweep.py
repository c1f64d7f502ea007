"""Design-space sweep engine: one runner, a content-addressed result cache.

The paper's workflow is *fine-grained design space exploration*: many
independent (architecture, workload) points evaluated against the same
metrics.  Those evaluations share nothing at runtime, so
:class:`SweepRunner` runs them serially in process (``workers=1``) or
fans them out over forked workers that drain a leased work queue
(:mod:`repro.core.leases`) — the same claim → evaluate → publish loop a
durable campaign uses — and memoizes each point in an on-disk cache
keyed by a stable content hash of the architecture + workload +
evaluator parameters + a code-version salt.  Re-running a sweep
therefore only simulates new or changed points, and because every
finished point is flushed to the cache as it arrives, a killed sweep
resumes where it left off.

Determinism contract: a point's *payload* (the cacheable result) depends
only on its fingerprint inputs — parallel and serial runs produce
identical payloads, which the determinism test tier locks down.  Wall
time and scheduling order are metadata, never part of a payload.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import multiprocessing
import multiprocessing.connection
import os
import random
import shutil
import signal
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

from ..ssd.device import DataPathMode
from .leases import DEFAULT_LEASE_TTL_S, LeaseKeeper, LeaseQueue
from ..ssd.scenarios import breakdown_with_events, measure

#: Salt folded into every fingerprint.  Bump whenever a change alters the
#: simulated numbers (timing models, scheduler fixes, metric definitions)
#: so stale cache entries from older code are treated as misses.
#: sweep-2: architectures gained the fault-injection config field.
#: sweep-3: RunResult payloads gained stage_breakdown and are sanitized
#: with json_safe (non-finite floats become null).
#: sweep-4: architectures gained the fidelity config field (cycle/fast
#: abstraction levels participate in every fingerprint).
#: sweep-5: RunResult reliability payloads gained page_reads,
#: background_write_faults and the per-command outcome histogram.
#: sweep-6: architectures gained the FTL scheme registry fields
#: (ftl_scheme / ftl_dram_bytes / ftl_group_pages) and real-FTL
#: RunResult payloads gained the ftl metrics section.
#: sweep-7: the tenants evaluator landed (multi-initiator arbitration,
#: per-tenant log-binned tail percentiles, interference matrices) and
#: devices gained namespace→channel placement state.
CODE_VERSION = "sweep-7"


# ----------------------------------------------------------------------
# Content fingerprinting


def canonical(obj: Any) -> Any:
    """Reduce a model object to a JSON-safe canonical form.

    Dataclasses carry their qualified type name so that two schemes with
    identical fields (e.g. fixed vs adaptive BCH defaults) never collide;
    enums reduce to type + value.  Unsupported types raise ``TypeError``
    — the caller decides whether that makes the point uncacheable.

    An object may define ``__canonical__()`` to control its own
    fingerprint form — e.g. :class:`~repro.core.tracereplay.TraceWorkload`
    substitutes the trace file's content hash for its path, so moving a
    trace on disk never invalidates cached sweep results.
    """
    if hasattr(obj, "__canonical__"):
        return canonical(obj.__canonical__())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        body = {f.name: canonical(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
        return {"__dataclass__": type(obj).__qualname__, **body}
    if isinstance(obj, enum.Enum):
        return {"__enum__": type(obj).__qualname__, "value": obj.value}
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    if isinstance(obj, Mapping):
        return {str(key): canonical(value)
                for key, value in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [canonical(item) for item in obj]
    raise TypeError(f"cannot fingerprint object of type {type(obj).__name__}")


@dataclass(frozen=True)
class SweepPoint:
    """One independent evaluation: an architecture under a workload.

    ``evaluator`` names a registered evaluation function; ``params`` are
    its keyword knobs (both are part of the fingerprint, so a parameter
    change is a cache miss).
    """

    name: str
    arch: Any
    workload: Any
    evaluator: str = "breakdown"
    params: Mapping[str, Any] = field(default_factory=dict)


def fingerprint(point: SweepPoint, salt: str = CODE_VERSION) -> str:
    """Stable content hash of everything that determines the payload."""
    document = {
        "salt": salt,
        "evaluator": point.evaluator,
        "params": canonical(dict(point.params)),
        "arch": canonical(point.arch),
        "workload": canonical(point.workload),
    }
    blob = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _seed_for(point: SweepPoint, key: Optional[str]) -> int:
    """Deterministic per-point RNG seed, identical serial or parallel."""
    if key is not None:
        return int(key[:16], 16)
    digest = hashlib.sha256(point.name.encode("utf-8")).hexdigest()
    return int(digest[:16], 16)


# ----------------------------------------------------------------------
# Evaluators


def _eval_breakdown(point: SweepPoint) -> Tuple[Dict[str, Any], int]:
    row, events = breakdown_with_events(
        point.arch, point.workload,
        max_commands=point.params.get("max_commands"))
    return dataclasses.asdict(row), events


def _eval_measure(point: SweepPoint) -> Tuple[Dict[str, Any], int]:
    params = dict(point.params)
    mode = DataPathMode(params.get("mode", DataPathMode.FULL.value))
    result = measure(point.arch, point.workload, mode=mode,
                     max_commands=params.get("max_commands"),
                     label=params.get("label", point.name),
                     preload_reads=params.get("preload_reads", True),
                     warm_start=params.get("warm_start", False))
    payload = result.to_dict()
    # Wall time is machine load, not simulation output; keep payloads
    # deterministic so cached and fresh runs agree byte for byte.
    payload["wall_seconds"] = 0.0
    return payload, result.events


def _eval_replay(point: SweepPoint) -> Tuple[Dict[str, Any], int]:
    """Real-trace replay (workload is a TraceWorkload).

    Deferred import: the replay machinery lives in
    :mod:`repro.core.tracereplay`, which imports this module's types.
    """
    from .tracereplay import evaluate_replay_point
    return evaluate_replay_point(point)


def _eval_ftl(point: SweepPoint) -> Tuple[Dict[str, Any], int]:
    """Real-FTL trace replay (scheme zoo / DRAM-budget sweep points).

    Deferred import for the same reason as :func:`_eval_replay`:
    :mod:`repro.core.ftlsweep` imports this module's types.
    """
    from .ftlsweep import evaluate_ftl_point
    return evaluate_ftl_point(point)


def _eval_tenants(point: SweepPoint) -> Tuple[Dict[str, Any], int]:
    """Multi-tenant arbitration run (tenant-count × policy grid points).

    Deferred import for the same reason as :func:`_eval_replay`:
    :mod:`repro.core.tenantsweep` imports this module's types.
    """
    from .tenantsweep import evaluate_tenants_point
    return evaluate_tenants_point(point)


EVALUATORS: Dict[str, Callable[[SweepPoint], Tuple[Dict[str, Any], int]]] = {
    "breakdown": _eval_breakdown,
    "measure": _eval_measure,
    "replay": _eval_replay,
    "ftl": _eval_ftl,
    "tenants": _eval_tenants,
}


def _evaluate(point: SweepPoint, key: Optional[str],
              salt: str) -> Dict[str, Any]:
    """Run one point and wrap the result in a cache envelope."""
    evaluator = EVALUATORS.get(point.evaluator)
    if evaluator is None:
        raise ValueError(f"unknown evaluator {point.evaluator!r}; "
                         f"registered: {sorted(EVALUATORS)}")
    random.seed(_seed_for(point, key))
    started = time.perf_counter()
    payload, events = evaluator(point)
    return {
        "salt": salt,
        "name": point.name,
        "evaluator": point.evaluator,
        "payload": payload,
        "events": int(events),
        "elapsed_s": time.perf_counter() - started,
    }


class PointTimeout(Exception):
    """A sweep point exceeded the runner's per-point time budget."""


def _evaluate_guarded(point: SweepPoint, key: Optional[str], salt: str,
                      timeout_s: Optional[float]) -> Dict[str, Any]:
    """:func:`_evaluate`, but a crash or timeout becomes a *failure
    envelope* instead of an exception.

    Workers publish these like any other result, so one diverging point
    cannot take down the sweep; the recorded traceback travels with
    the envelope for the summary report and the cache.
    """
    started = time.perf_counter()
    use_alarm = (timeout_s is not None and timeout_s > 0
                 and hasattr(signal, "SIGALRM"))
    previous = None
    if use_alarm:
        def on_alarm(signum, frame):
            raise PointTimeout(
                f"point {point.name!r} exceeded {timeout_s:.1f}s")
        try:
            previous = signal.signal(signal.SIGALRM, on_alarm)
            signal.setitimer(signal.ITIMER_REAL, timeout_s)
        except ValueError:   # not in the main thread: run unguarded
            use_alarm = False
    try:
        return _evaluate(point, key, salt)
    except Exception as error:
        return {
            "salt": salt,
            "name": point.name,
            "evaluator": point.evaluator,
            "payload": {},
            "events": 0,
            "elapsed_s": time.perf_counter() - started,
            "failure": {
                "error_type": type(error).__name__,
                "message": str(error),
                "traceback": traceback.format_exc(),
            },
        }
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


# ----------------------------------------------------------------------
# Result cache


class SweepCache:
    """Content-addressed JSON store: one file per evaluated point.

    A corrupted, truncated or structurally wrong file is a miss, never an
    error — the point is simply re-simulated and the entry rewritten.
    """

    def __init__(self, directory: str):
        self.directory = str(directory)

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.json")

    def load(self, key: str) -> Optional[Dict[str, Any]]:
        try:
            with open(self._path(key), "r", encoding="utf-8") as handle:
                envelope = json.load(handle)
        except (OSError, ValueError):
            return None
        if not isinstance(envelope, dict) \
                or not isinstance(envelope.get("payload"), dict):
            return None
        return envelope

    def store(self, key: str, envelope: Dict[str, Any]) -> None:
        os.makedirs(self.directory, exist_ok=True)
        path = self._path(key)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(envelope, handle, sort_keys=True)
        os.replace(tmp, path)  # atomic: a killed sweep leaves no partials

    def discard(self, key: str) -> None:
        try:
            os.unlink(self._path(key))
        except OSError:
            pass

    def __len__(self) -> int:
        try:
            return sum(1 for name in os.listdir(self.directory)
                       if name.endswith(".json"))
        except OSError:
            return 0


# ----------------------------------------------------------------------
# Runner


@dataclass
class PointFailure:
    """Typed record of a point that crashed, timed out or was lost.

    Stored in the cache envelope (so post-mortems survive the run) but
    always treated as a cache *miss* on load — a re-run sweep runs
    failed points again instead of replaying their failures.
    """

    error_type: str
    message: str
    traceback: str = ""

    def to_dict(self) -> Dict[str, str]:
        return {"error_type": self.error_type, "message": self.message,
                "traceback": self.traceback}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PointFailure":
        return cls(error_type=str(data.get("error_type", "Exception")),
                   message=str(data.get("message", "")),
                   traceback=str(data.get("traceback", "")))


@dataclass
class PointOutcome:
    """One point's result plus provenance."""

    name: str
    payload: Dict[str, Any]
    cached: bool
    events: int
    elapsed_s: float
    key: Optional[str]
    failure: Optional[PointFailure] = None

    @property
    def failed(self) -> bool:
        return self.failure is not None


@dataclass
class SweepSummary:
    """Aggregate accounting for one :meth:`SweepRunner.run` call.

    The three point counts are disjoint — ``total == cached + simulated
    + failed`` — so a resumed campaign over a warm cache reports its
    served points as ``cached``, never ``simulated``, and a fresh
    failure is ``failed``, not ``simulated``.
    """

    total: int
    cached: int
    simulated: int
    wall_seconds: float
    simulated_events: int
    workers: int
    failed: int = 0

    @property
    def events_per_sec(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.simulated_events / self.wall_seconds

    def format(self) -> str:
        line = (f"sweep: {self.total} points "
                f"({self.cached} cached, {self.simulated} simulated"
                + (f", {self.failed} FAILED" if self.failed else "")
                + f") in {self.wall_seconds:.2f}s")
        if self.simulated:
            line += (f" — {self.events_per_sec / 1e3:.0f}k events/s "
                     f"across {self.workers} worker(s)")
        return line


@dataclass
class SweepResult:
    """Outcomes in input order + the sweep summary."""

    outcomes: List[PointOutcome]
    summary: SweepSummary

    def payloads(self) -> Dict[str, Dict[str, Any]]:
        return {outcome.name: outcome.payload for outcome in self.outcomes
                if not outcome.failed}

    def failures(self) -> List[PointOutcome]:
        """Failed points, in input order."""
        return [outcome for outcome in self.outcomes if outcome.failed]

    def format_failures(self) -> str:
        """Human-readable ``failed_points`` section for the sweep report."""
        failures = self.failures()
        if not failures:
            return ""
        lines = [f"failed_points: {len(failures)}"]
        for outcome in failures:
            lines.append(f"  {outcome.name}: "
                         f"{outcome.failure.error_type}: "
                         f"{outcome.failure.message}")
        return "\n".join(lines)


def drain(work: Sequence[Tuple[SweepPoint, str]], results: SweepCache,
          queue: LeaseQueue, salt: str, timeout_s: Optional[float],
          publish: Optional[Callable[[SweepPoint, str, Dict[str, Any]],
                                     None]] = None,
          poll_s: float = 0.05) -> int:
    """Claim → evaluate → publish ``(point, key)`` pairs until every key
    has an envelope in ``results``.

    Any number of processes may drain the same work against the same
    queue and results: a point runs where its lease was won, and a
    process that finds everything left leased elsewhere reaps orphans
    (dead same-host owners, expired leases) and waits for the live
    owners to publish.  A failure envelope counts as done — it is this
    run's result for the point.  ``publish`` defaults to storing the
    envelope in ``results``.  Returns the number of points evaluated
    here.
    """
    if publish is None:
        def publish(point: SweepPoint, key: str,
                    envelope: Dict[str, Any]) -> None:
            results.store(key, envelope)
    executed = 0
    while True:
        claimed_any = False
        missing = 0
        for point, key in work:
            if results.load(key) is not None:
                continue  # published (or failed) — done for this run
            missing += 1
            lease = queue.claim(key)
            if lease is None:
                continue
            claimed_any = True
            try:
                if results.load(key) is not None:
                    continue  # published while we raced for the lease
                with LeaseKeeper(queue, lease):
                    envelope = _evaluate_guarded(point, key, salt, timeout_s)
                publish(point, key, envelope)
                executed += 1
            finally:
                queue.release(lease)
        if missing == 0:
            return executed
        if not claimed_any:
            # Everything left is leased elsewhere: recover orphans, then
            # wait for live owners to publish.
            if not (queue.reap_dead() or queue.reap_expired()):
                time.sleep(poll_s)


def _fork_join(count: int, target: Callable[[], Any]) -> None:
    """Run ``target`` in ``count`` forked children; reap each as it exits.

    Children are joined in exit order, not start order, so a killed
    child never lingers as a zombie whose pid still looks alive to its
    siblings' :meth:`LeaseQueue.reap_dead`.  Without ``fork`` (or when a
    fork fails) fewer children run, and the caller's own drain picks up
    the rest.
    """
    if count < 1 or "fork" not in multiprocessing.get_all_start_methods():
        return
    context = multiprocessing.get_context("fork")
    children = []
    try:
        for _ in range(count):
            child = context.Process(target=target)
            child.start()
            children.append(child)
    except OSError:
        pass
    while children:
        ready = multiprocessing.connection.wait(
            [child.sentinel for child in children])
        for child in [child for child in children
                      if child.sentinel in ready]:
            child.join()
            children.remove(child)


def _unpublished(point: SweepPoint) -> Dict[str, Any]:
    """Failure envelope for a point no drain published (unreachable
    unless the results directory was wiped mid-run)."""
    return {"payload": {}, "events": 0, "elapsed_s": 0.0,
            "failure": {"error_type": "SweepError",
                        "message": f"point {point.name!r} never published"}}


class SweepRunner:
    """Runs independent sweep points, in process or over forked workers.

    ``workers=None`` uses every core.  The width is capped at the CPU
    count and at the number of pending points.  A width of 1 runs the
    points serially in process: no forks, no lease files, and no
    filesystem writes without a cache.  A wider run forks children that
    drain the pending points through a private :class:`LeaseQueue` (see
    :func:`drain`); then the parent reaps the leases of dead children
    and drains what is left, so a child killed mid-point costs one
    re-run of that point.  With ``cache_dir`` set, finished points are
    stored in the cache as they complete, and future runs serve any
    point whose fingerprint already has a successful entry.
    """

    #: Cap the parallel width at the CPU count: asking for more workers
    #: than cores only buys fork overhead (BENCH_sweep.json measured
    #: "parallel" 7% slower than serial on a 1-CPU box).  Campaign
    #: workers are explicit user intent, so a campaign lifts the cap.
    cap_at_cpus = True

    def __init__(self, workers: Optional[int] = None,
                 cache_dir: Optional[str] = None,
                 salt: str = CODE_VERSION,
                 progress: Optional[Callable[[PointOutcome, int, int],
                                             None]] = None,
                 timeout_s: Optional[float] = None):
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1 (or None for all cores)")
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError("timeout_s must be positive (or None)")
        self.workers = workers if workers is not None \
            else (os.cpu_count() or 1)
        self.cache = SweepCache(cache_dir) if cache_dir else None
        self.salt = salt
        self.progress = progress
        self.timeout_s = timeout_s
        #: Lease directory shared with other processes; ``None`` gives
        #: each parallel run a private one.
        self.queue_dir: Optional[str] = None
        self.lease_ttl_s = DEFAULT_LEASE_TTL_S
        self.last_summary: Optional[SweepSummary] = None
        self.last_result: Optional[SweepResult] = None

    # ------------------------------------------------------------------
    def run(self, points: Sequence[SweepPoint]) -> SweepResult:
        points = list(points)
        started = time.perf_counter()
        keys = self._fingerprints(points)
        outcomes: List[Optional[PointOutcome]] = [None] * len(points)
        envelopes: List[Optional[Dict[str, Any]]] = [None] * len(points)
        done = 0

        def finish(index: int, envelope: Dict[str, Any],
                   cached: bool) -> None:
            nonlocal done
            failure = envelope.get("failure")
            outcomes[index] = PointOutcome(
                name=points[index].name, payload=envelope["payload"],
                cached=cached, events=int(envelope.get("events", 0)),
                elapsed_s=0.0 if cached
                else float(envelope.get("elapsed_s", 0.0)),
                key=keys[index],
                failure=None if failure is None
                else PointFailure.from_dict(failure))
            envelopes[index] = envelope
            done += 1
            self._emit(outcomes[index], done, len(points))

        pending: List[int] = []
        for index, key in enumerate(keys):
            envelope = self._served(key)
            if envelope is not None:
                finish(index, envelope, cached=True)
            else:
                pending.append(index)

        cap = (os.cpu_count() or 1) if self.cap_at_cpus else self.workers
        workers = min(self.workers, cap, max(1, len(pending)))
        if workers == 1 and self.queue_dir is None:
            for index in pending:
                finish(index, self._evaluate_here(points[index], keys[index]),
                       cached=False)
        elif pending:
            for index, envelope in self._run_queued(points, keys, pending,
                                                    workers):
                finish(index, envelope, cached=False)
        self._sync(points, keys, envelopes)

        # Disjoint accounting: a fresh point that failed is "failed", not
        # "simulated", and cached + simulated + failed == total.
        simulated = [o for o in outcomes if not o.cached and not o.failed]
        summary = SweepSummary(
            total=len(points),
            cached=sum(1 for o in outcomes if o.cached),
            simulated=len(simulated),
            wall_seconds=time.perf_counter() - started,
            simulated_events=sum(o.events for o in simulated),
            workers=workers,
            failed=sum(1 for o in outcomes if o.failed),
        )
        self.last_summary = summary
        result = SweepResult(outcomes=list(outcomes), summary=summary)
        self.last_result = result
        return result

    # ------------------------------------------------------------------
    def _fingerprints(self, points: Sequence[SweepPoint]
                      ) -> List[Optional[str]]:
        keys: List[Optional[str]] = []
        for point in points:
            try:
                keys.append(fingerprint(point, self.salt))
            except TypeError:
                keys.append(None)  # unhashable workload: run uncached
        return keys

    def _served(self, key: Optional[str]) -> Optional[Dict[str, Any]]:
        """The cached successful envelope for ``key``, if any.  Recorded
        failures are post-mortem data, never results: a re-run sweep
        runs the point again."""
        if self.cache is None or key is None:
            return None
        envelope = self.cache.load(key)
        if envelope is None or envelope.get("failure") is not None:
            return None
        return envelope

    def _evaluate_here(self, point: SweepPoint,
                       key: Optional[str]) -> Dict[str, Any]:
        envelope = _evaluate_guarded(point, key, self.salt, self.timeout_s)
        if self.cache is not None and key is not None:
            self.cache.store(key, envelope)
        return envelope

    def _run_queued(self, points: Sequence[SweepPoint],
                    keys: Sequence[Optional[str]], pending: Sequence[int],
                    workers: int) -> List[Tuple[int, Dict[str, Any]]]:
        """Drain ``pending`` through the lease queue: ``workers`` forked
        children (none at width 1), then the parent reaps dead
        children's leases and drains what is left.

        The queue holds one point per fingerprint.  A point with no
        fingerprint, or one that shares its fingerprint with an earlier
        pending point of another name, runs in the parent afterwards,
        so every point still reaches its evaluator under its own name.
        """
        first: Dict[str, int] = {}
        queued: List[int] = []
        loose: List[int] = []
        for index in pending:
            key = keys[index]
            owner = first.setdefault(key, index) if key is not None else index
            if key is None or points[owner].name != points[index].name:
                loose.append(index)
            else:
                queued.append(index)
        work = [(points[index], keys[index]) for index in queued
                if first[keys[index]] == index]

        envelopes: Dict[int, Dict[str, Any]] = {}
        scratch = None
        if self.cache is None or self.queue_dir is None:
            scratch = tempfile.mkdtemp(prefix="repro-sweep-")
        try:
            results = self.cache if self.cache is not None \
                else SweepCache(os.path.join(scratch, "results"))
            queue = LeaseQueue(self.queue_dir
                               or os.path.join(scratch, "queue"),
                               ttl_s=self.lease_ttl_s)
            for _, key in work:
                # Pending means no successful entry: whatever is stored
                # is a recorded failure, which the drain would take as
                # this run's result.
                results.discard(key)
            queue.reap_dead()
            _fork_join(workers if workers > 1 else 0,
                       lambda: self._drain(work, results, queue))
            queue.reap_dead()
            self._drain(work, results, queue)
            for index in queued:
                envelopes[index] = results.load(keys[index]) \
                    or _unpublished(points[index])
        finally:
            if scratch is not None:
                shutil.rmtree(scratch, ignore_errors=True)
        for index in loose:
            envelopes[index] = self._evaluate_here(points[index], keys[index])
        return sorted(envelopes.items())

    def _drain(self, work: Sequence[Tuple[SweepPoint, str]],
               results: SweepCache, queue: LeaseQueue) -> None:
        drain(work, results, queue, self.salt, self.timeout_s)

    def _sync(self, points: Sequence[SweepPoint],
              keys: Sequence[Optional[str]],
              envelopes: Sequence[Dict[str, Any]]) -> None:
        """Hook run once every point has its envelope (campaigns index
        them in their result store)."""

    def _emit(self, outcome: PointOutcome, done: int, total: int) -> None:
        if self.progress is not None:
            self.progress(outcome, done, total)


def print_progress(outcome: PointOutcome, done: int, total: int) -> None:
    """Default per-point progress line (the CLI's callback)."""
    if outcome.failed:
        status = (f"FAILED ({outcome.failure.error_type}: "
                  f"{outcome.failure.message})")
    elif outcome.cached:
        status = "cached"
    else:
        status = f"simulated in {outcome.elapsed_s:6.2f}s"
    print(f"[{done:>3}/{total}] {outcome.name:<24} {status}", flush=True)
