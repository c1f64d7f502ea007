"""Filesystem lease queue: the claim protocol every parallel sweep uses.

Worker processes drain a list of content-addressed points by claiming
each one through a lease file.  The queue lives in one directory — a
private temporary one for a plain :class:`~repro.core.sweep.SweepRunner`,
``<campaign>/queue`` for a campaign, which independent processes on
hosts sharing the directory may drain together.

Correctness model (locked by the crash/resume test tier):

* **Claiming** a point creates ``<key>.lease`` with
  ``O_CREAT | O_EXCL`` — exactly one worker wins.  Leases carry owner,
  pid, host and an expiry; a heartbeat thread extends the expiry while
  the point simulates.
* **Reaping** an orphaned lease (worker killed mid-point) renames the
  lease file to a tombstone — ``rename`` succeeds for exactly one
  reaper, so an expired point re-enters the queue exactly once per
  expiry.  Leases whose owner pid is dead on *this* host are reaped
  immediately; cross-host orphans wait out the TTL.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional

#: Default lease time-to-live.  Workers heartbeat at TTL/4, so a live
#: worker never expires; a killed one is reaped within one TTL (or
#: immediately by a same-host reaper that sees its pid is gone).
DEFAULT_LEASE_TTL_S = 60.0


def atomic_write(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` so readers never see a partial file."""
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as handle:
        handle.write(data)
    os.replace(tmp, path)


def _worker_name() -> str:
    return f"{socket.gethostname()}:{os.getpid()}"


@dataclass(frozen=True)
class Lease:
    """One worker's claim on one point."""

    key: str
    owner: str
    pid: int
    host: str
    expires_unix: float
    generation: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {"key": self.key, "owner": self.owner, "pid": self.pid,
                "host": self.host, "expires_unix": self.expires_unix,
                "generation": self.generation}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Lease":
        return cls(key=str(data["key"]), owner=str(data.get("owner", "")),
                   pid=int(data.get("pid", 0)),
                   host=str(data.get("host", "")),
                   expires_unix=float(data.get("expires_unix", 0.0)),
                   generation=int(data.get("generation", 0)))

    def expired(self, now: Optional[float] = None) -> bool:
        return (now if now is not None else time.time()) \
            >= self.expires_unix


class LeaseQueue:
    """Filesystem lease table: one ``<key>.lease`` file per claim.

    All mutations are single-syscall atomic (exclusive create, rename),
    so the queue needs no locks and works across processes and across
    hosts sharing the directory.
    """

    def __init__(self, directory: str, ttl_s: float = DEFAULT_LEASE_TTL_S):
        if ttl_s <= 0:
            raise ValueError("ttl_s must be positive")
        self.directory = str(directory)
        self.ttl_s = ttl_s
        self._reap_counter = 0

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.lease")

    def claim(self, key: str, owner: Optional[str] = None
              ) -> Optional[Lease]:
        """Claim a point; ``None`` if someone else holds it."""
        os.makedirs(self.directory, exist_ok=True)
        lease = Lease(key=key, owner=owner or _worker_name(),
                      pid=os.getpid(), host=socket.gethostname(),
                      expires_unix=time.time() + self.ttl_s)
        try:
            descriptor = os.open(self._path(key),
                                 os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return None
        with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
            json.dump(lease.to_dict(), handle)
        return lease

    def peek(self, key: str) -> Optional[Lease]:
        try:
            with open(self._path(key), "r", encoding="utf-8") as handle:
                return Lease.from_dict(json.load(handle))
        except (OSError, ValueError, KeyError):
            return None

    def heartbeat(self, lease: Lease) -> Optional[Lease]:
        """Extend a lease we still own; ``None`` if it was lost.

        Ownership is re-checked from disk first so a reaped-and-reclaimed
        point is not clobbered by a worker that lost its lease but kept
        running (its eventual publish is idempotent anyway).
        """
        current = self.peek(lease.key)
        if current is None or current.owner != lease.owner \
                or current.generation != lease.generation:
            return None
        renewed = Lease(key=lease.key, owner=lease.owner, pid=lease.pid,
                        host=lease.host,
                        expires_unix=time.time() + self.ttl_s,
                        generation=lease.generation)
        atomic_write(self._path(lease.key),
                      json.dumps(renewed.to_dict()).encode("utf-8"))
        return renewed

    def release(self, lease: Lease) -> None:
        try:
            os.unlink(self._path(lease.key))
        except OSError:
            pass

    def active(self) -> Dict[str, Lease]:
        """Live (unexpired) leases by key."""
        leases: Dict[str, Lease] = {}
        now = time.time()
        try:
            names = os.listdir(self.directory)
        except OSError:
            return leases
        for name in sorted(names):
            if not name.endswith(".lease"):
                continue
            lease = self.peek(name[:-len(".lease")])
            if lease is not None and not lease.expired(now):
                leases[lease.key] = lease
        return leases

    def _reap(self, key: str) -> bool:
        """Atomically remove one lease; True for the single winner."""
        self._reap_counter += 1
        tombstone = os.path.join(
            self.directory,
            f".reaped-{os.getpid()}-{self._reap_counter}-{key[:16]}")
        try:
            os.rename(self._path(key), tombstone)
        except OSError:
            return False  # someone else reaped (or released) it first
        try:
            os.unlink(tombstone)
        except OSError:
            pass
        return True

    def reap_expired(self, now: Optional[float] = None) -> List[str]:
        """Re-queue every expired lease, each exactly once.

        The rename-to-tombstone protocol guarantees that when several
        workers race to reap the same orphan, exactly one wins; the
        point then becomes claimable again through the normal exclusive
        create.
        """
        reaped: List[str] = []
        try:
            names = sorted(os.listdir(self.directory))
        except OSError:
            return reaped
        for name in names:
            if not name.endswith(".lease"):
                continue
            key = name[:-len(".lease")]
            lease = self.peek(key)
            if lease is not None and lease.expired(now) \
                    and self._reap(key):
                reaped.append(key)
        return reaped

    def reap_dead(self) -> List[str]:
        """Reap leases whose owner process is gone on *this* host.

        A ``kill -9``'d worker leaves its lease behind; same-host
        recovery need not wait out the TTL because the pid liveness
        check is authoritative here.  Cross-host leases are left for
        :meth:`reap_expired`.
        """
        reaped: List[str] = []
        host = socket.gethostname()
        try:
            names = sorted(os.listdir(self.directory))
        except OSError:
            return reaped
        for name in names:
            if not name.endswith(".lease"):
                continue
            key = name[:-len(".lease")]
            lease = self.peek(key)
            if lease is None or lease.host != host \
                    or lease.pid == os.getpid():
                continue
            try:
                os.kill(lease.pid, 0)
            except ProcessLookupError:
                if self._reap(key):
                    reaped.append(key)
            except OSError:
                continue  # pid exists but not ours to signal: leave it
        return reaped


class LeaseKeeper:
    """Daemon thread that heartbeats one lease while a point simulates."""

    def __init__(self, queue: LeaseQueue, lease: Lease):
        self.queue = queue
        self.lease = lease
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        lease = self.lease
        interval = max(0.05, self.queue.ttl_s / 4.0)
        while not self._stop.wait(interval):
            renewed = self.queue.heartbeat(lease)
            if renewed is None:
                return  # lease lost; publish stays idempotent
            lease = renewed

    def __enter__(self) -> "LeaseKeeper":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)
