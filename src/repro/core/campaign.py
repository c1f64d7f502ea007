"""Durable campaign engine: leased work-queue, resumable manifests.

A *campaign* is a sweep that survives anything: its point set, leases,
results and result database all live in one on-disk directory that any
number of worker processes — in one parent, or independent ``repro
campaign worker`` processes on hosts sharing the directory — can drain
cooperatively.  Layout::

    <campaign dir>/
        manifest.json      point names + fingerprints + salt (identity)
        points.pkl         the SweepPoint objects workers re-load
        queue/             lease files, one per in-flight point
        results/           content-addressed envelopes (SweepCache format)
        campaign.sqlite    the queryable result store (repro.core.store)

Claiming, reaping and heartbeating are the lease protocol of
:mod:`repro.core.leases`.  On top of it:

* **Publishing** writes the envelope with an atomic replace and records
  it in SQLite with ``INSERT OR REPLACE``.  Payloads are deterministic
  functions of the fingerprint (the sweep determinism contract), so
  execution is at-least-once but the published result set is
  exactly-once and byte-identical to a serial
  :class:`~repro.core.sweep.SweepRunner` run of the same grid.
* **Resuming** never recomputes a published point: a new run (or a new
  worker) skips every key that already has a successful envelope.
  Recorded *failures* are post-mortem data, not results — a resumed
  :class:`CampaignRunner` clears and re-runs them, as a re-run
  ``SweepRunner`` does with its cache.
"""

from __future__ import annotations

import json
import os
import pickle
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .explorer import ResourceCostModel
from .leases import DEFAULT_LEASE_TTL_S, Lease, LeaseQueue, atomic_write
from .store import ResultStore
from .sweep import (CODE_VERSION, PointOutcome, SweepCache, SweepPoint,
                    SweepRunner, drain, fingerprint)

#: Manifest schema version (bump on incompatible layout changes).
CAMPAIGN_FORMAT = 1


class CampaignError(RuntimeError):
    """A campaign directory is inconsistent with what the caller wants."""


# ----------------------------------------------------------------------
# Campaign directory


@dataclass
class CampaignStatus:
    """A point-in-time accounting of a campaign directory."""

    name: str
    total: int
    published: int
    failed: int
    leased: int
    pending: int
    leases: Dict[str, Lease] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name, "total": self.total,
            "published": self.published, "failed": self.failed,
            "leased": self.leased, "pending": self.pending,
            "leases": {key: lease.to_dict()
                       for key, lease in sorted(self.leases.items())},
        }

    def format(self) -> str:
        lines = [f"campaign : {self.name}",
                 f"points   : {self.total} total — {self.published} "
                 f"published, {self.failed} failed, {self.leased} leased, "
                 f"{self.pending} pending"]
        for lease in self.leases.values():
            remaining = lease.expires_unix - time.time()
            lines.append(f"lease    : {lease.owner} holds "
                         f"{lease.key[:12]}… (expires in "
                         f"{max(0.0, remaining):.0f}s)")
        return "\n".join(lines)


class Campaign:
    """One campaign directory: manifest + points + queue + results + DB."""

    def __init__(self, directory: str):
        self.directory = str(directory)
        self.manifest_path = os.path.join(self.directory, "manifest.json")
        self.points_path = os.path.join(self.directory, "points.pkl")
        self.db_path = os.path.join(self.directory, "campaign.sqlite")
        self.cache = SweepCache(os.path.join(self.directory, "results"))
        self.queue_dir = os.path.join(self.directory, "queue")

    # -- identity ------------------------------------------------------
    @property
    def exists(self) -> bool:
        return os.path.exists(self.manifest_path)

    @classmethod
    def open(cls, directory: str) -> "Campaign":
        """Open an existing campaign; raise if none lives there."""
        campaign = cls(directory)
        if not campaign.exists:
            raise CampaignError(
                f"{directory}: no campaign manifest — create one with "
                f"CampaignRunner or 'repro campaign run'")
        return campaign

    def load_manifest(self) -> Dict[str, Any]:
        try:
            with open(self.manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, ValueError) as error:
            raise CampaignError(
                f"{self.manifest_path}: unreadable campaign manifest "
                f"({error})") from error
        if manifest.get("format") != CAMPAIGN_FORMAT:
            raise CampaignError(
                f"{self.manifest_path}: manifest format "
                f"{manifest.get('format')!r} != {CAMPAIGN_FORMAT} — "
                f"created by an incompatible version")
        return manifest

    def load_points(self) -> List[SweepPoint]:
        with open(self.points_path, "rb") as handle:
            return pickle.load(handle)

    def store(self) -> ResultStore:
        return ResultStore(self.db_path)

    # -- creation / resume ---------------------------------------------
    @classmethod
    def ensure(cls, directory: str, points: Sequence[SweepPoint],
               salt: str = CODE_VERSION, name: str = "campaign"
               ) -> "Campaign":
        """Create the campaign, or verify+extend an existing one.

        Resuming with the same point set is the no-op fast path.  New
        names are appended (successive-halving promotions land in the
        same campaign); a name already registered under a *different*
        fingerprint raises — same name + same inputs is the resume
        guarantee, so a changed fingerprint means the caller changed the
        experiment and should use a fresh directory.
        """
        campaign = cls(directory)
        os.makedirs(campaign.queue_dir, exist_ok=True)
        os.makedirs(campaign.cache.directory, exist_ok=True)
        fresh = _points_document(points, salt)
        if not campaign.exists:
            manifest = {"format": CAMPAIGN_FORMAT, "name": name,
                        "salt": salt, "points": fresh}
            atomic_write(campaign.points_path, pickle.dumps(list(points)))
            atomic_write(campaign.manifest_path,
                          json.dumps(manifest, indent=2,
                                     sort_keys=True).encode("utf-8"))
        else:
            manifest = campaign.load_manifest()
            if manifest.get("salt") != salt:
                raise CampaignError(
                    f"{directory}: campaign salt "
                    f"{manifest.get('salt')!r} != {salt!r} — the code "
                    f"version changed; start a fresh campaign directory")
            known = {entry["name"]: entry["key"]
                     for entry in manifest["points"]}
            by_name: Dict[str, SweepPoint] = {}
            for point in points:
                by_name.setdefault(point.name, point)
            added = []
            for entry in fresh:
                if entry["name"] in known:
                    if known[entry["name"]] != entry["key"]:
                        raise CampaignError(
                            f"{directory}: point {entry['name']!r} is "
                            f"already registered with a different "
                            f"fingerprint — the experiment changed; use "
                            f"a fresh campaign directory")
                else:
                    added.append((by_name[entry["name"]], entry))
            if added:
                existing = campaign.load_points()
                atomic_write(campaign.points_path,
                              pickle.dumps(existing
                                           + [point for point, _ in added]))
                manifest["points"] = manifest["points"] \
                    + [entry for _, entry in added]
                atomic_write(campaign.manifest_path,
                              json.dumps(manifest, indent=2,
                                         sort_keys=True).encode("utf-8"))
        manifest = campaign.load_manifest()
        with campaign.store() as store:
            store.record_campaign(manifest["name"], salt,
                                  len(manifest["points"]),
                                  name=manifest["name"])
        return campaign

    # -- state ---------------------------------------------------------
    def clear_failure_envelopes(self) -> int:
        """Drop recorded failures so a resumed run re-executes them."""
        manifest = self.load_manifest()
        cleared = 0
        for entry in manifest["points"]:
            envelope = self.cache.load(entry["key"])
            if envelope is not None and envelope.get("failure") is not None:
                self.cache.discard(entry["key"])
                cleared += 1
        return cleared

    def publish(self, point: SweepPoint, key: str,
                envelope: Dict[str, Any],
                store: Optional[ResultStore] = None,
                cost_model: Optional[ResourceCostModel] = None) -> None:
        """Atomically publish one envelope + index it in the store."""
        self.cache.store(key, envelope)
        manifest = self.load_manifest()
        owns_store = store is None
        store = store or self.store()
        try:
            store.record_point(
                manifest["name"], point.name, envelope, key=key,
                cost=_point_cost(point,
                                 cost_model or ResourceCostModel()))
        finally:
            if owns_store:
                store.close()

    def status(self, ttl_s: float = DEFAULT_LEASE_TTL_S) -> CampaignStatus:
        manifest = self.load_manifest()
        queue = LeaseQueue(self.queue_dir, ttl_s=ttl_s)
        leases = queue.active()
        published = failed = leased = 0
        for entry in manifest["points"]:
            envelope = self.cache.load(entry["key"])
            if envelope is not None:
                if envelope.get("failure") is None:
                    published += 1
                else:
                    failed += 1
            elif entry["key"] in leases:
                leased += 1
        total = len(manifest["points"])
        return CampaignStatus(
            name=manifest["name"], total=total, published=published,
            failed=failed, leased=leased,
            pending=total - published - failed - leased, leases=leases)


def _points_document(points: Sequence[SweepPoint],
                     salt: str) -> List[Dict[str, str]]:
    """Manifest entries; campaigns require fingerprintable, unique names."""
    seen: Dict[str, str] = {}
    document = []
    for point in points:
        try:
            key = fingerprint(point, salt)
        except TypeError as error:
            raise CampaignError(
                f"point {point.name!r} is not fingerprintable ({error}); "
                f"campaigns need content-addressed keys") from error
        if point.name in seen:
            if seen[point.name] != key:
                raise CampaignError(
                    f"duplicate point name {point.name!r} with differing "
                    f"fingerprints in one campaign")
            continue
        seen[point.name] = key
        document.append({"name": point.name, "key": key})
    return document


def _point_cost(point: SweepPoint,
                model: ResourceCostModel) -> Optional[float]:
    """Resource cost when the point's arch supports the cost model."""
    arch = point.arch
    if all(hasattr(arch, attr) for attr in
           ("n_ddr_buffers", "n_channels", "n_ways", "total_dies")):
        return model.cost(arch)
    return None


# ----------------------------------------------------------------------
# Worker loop


def run_worker(directory: str, lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
               timeout_s: Optional[float] = None,
               points: Optional[Sequence[SweepPoint]] = None) -> int:
    """Drain a campaign: claim → evaluate → publish, until done.

    Runs :func:`~repro.core.sweep.drain` over the campaign's points (or
    ``points``) until every one has an envelope (success *or* failure —
    failed points are post-mortem data for this run; a new
    :class:`CampaignRunner` run clears and retries them), publishing each
    into the campaign's results and store.  Safe to run any number of
    workers concurrently against the same directory; this is also the
    entry point of ``repro campaign worker``.  Returns the number of
    points this worker executed.
    """
    campaign = Campaign.open(directory)
    salt = campaign.load_manifest()["salt"]
    points = list(points) if points is not None else campaign.load_points()
    work = [(point, fingerprint(point, salt)) for point in points]
    queue = LeaseQueue(campaign.queue_dir, ttl_s=lease_ttl_s)
    with campaign.store() as store:
        def publish(point: SweepPoint, key: str,
                    envelope: Dict[str, Any]) -> None:
            campaign.publish(point, key, envelope, store=store)
        return drain(work, campaign.cache, queue, salt, timeout_s,
                     publish=publish)


# ----------------------------------------------------------------------
# Runner


class CampaignRunner(SweepRunner):
    """A :class:`~repro.core.sweep.SweepRunner` pointed at a durable
    campaign directory.

    Same ``run(points) -> SweepResult`` interface and the same lease
    queue, so ``explore()``, ``fig3_sweep``/``fig4_sweep``/
    ``fig5_wearout_sweep`` and ``trace_sweep`` become campaign clients
    just by being handed this runner.  What the campaign adds:

    * the manifest: the point set is registered (or verified and
      extended) before anything runs;
    * the queue and results live in the directory, so any number of
      *additional* workers (other processes, other hosts) may drain it
      concurrently, and even ``workers=1`` claims through leases;
    * every run is resumable: published points are never recomputed and
      are reported as ``cached``; recorded failures are cleared and
      re-run;
    * results are indexed in the campaign's SQLite store for
      ``repro campaign status|query|report``;
    * the width is *not* capped at the CPU count: campaign workers are
      explicit user intent (and the crash/resume tier needs real forked
      workers even on 1-CPU boxes).
    """

    cap_at_cpus = False

    def __init__(self, directory: str, workers: Optional[int] = None,
                 salt: str = CODE_VERSION, name: str = "campaign",
                 progress: Optional[Callable[[PointOutcome, int, int],
                                             None]] = None,
                 timeout_s: Optional[float] = None,
                 lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
                 cost_model: Optional[ResourceCostModel] = None):
        campaign = Campaign(directory)
        super().__init__(workers=workers, cache_dir=campaign.cache.directory,
                         salt=salt, progress=progress, timeout_s=timeout_s)
        self.directory = campaign.directory
        self.queue_dir = campaign.queue_dir
        self.lease_ttl_s = lease_ttl_s
        self.name = name
        self.cost_model = cost_model or ResourceCostModel()

    def _fingerprints(self, points: Sequence[SweepPoint]) -> List[str]:
        campaign = Campaign.ensure(self.directory, points, salt=self.salt,
                                   name=self.name)
        campaign.clear_failure_envelopes()
        return [fingerprint(point, self.salt) for point in points]

    def _drain(self, work: Sequence[Tuple[SweepPoint, str]],
               results: SweepCache, queue: LeaseQueue) -> None:
        run_worker(self.directory, lease_ttl_s=self.lease_ttl_s,
                   timeout_s=self.timeout_s,
                   points=[point for point, _ in work])

    def _sync(self, points: Sequence[SweepPoint], keys: Sequence[str],
              envelopes: Sequence[Dict[str, Any]]) -> None:
        """Final idempotent store sync, so the store reflects this run
        even if a worker crashed between publishing and recording."""
        campaign = Campaign.open(self.directory)
        name = campaign.load_manifest()["name"]
        with campaign.store() as store:
            for point, key, envelope in zip(points, keys, envelopes):
                store.record_point(name, point.name, envelope, key=key,
                                   cost=_point_cost(point, self.cost_model))
