"""The queue transport protocol.

A *transport* is the coordination backend of the distributed runner: it
stores the pinned sweep spec, the claimable tasks, the leases of running
tasks and the per-worker record shards, and exposes the eight operations
the ``enqueue``/``work``/``collect`` lifecycle is written against —
enqueue, claim, heartbeat, release, reclaim, shard append, shard
enumerate, status.  ``RunSpec`` tasks and ``RunRecord`` shard entries are
JSON round-trippable, so every backend speaks the same serialized forms
and the byte-identity contract (``collect`` == single-process ``run``)
holds per transport.

Two backends ship:

* :class:`~repro.experiments.transports.sqlite.SqliteTransport` — a
  single-file SQLite database in WAL mode with ``BEGIN IMMEDIATE``
  transactional claims over a pending/running/done status table, safe
  multi-process access on one host (WAL does not support network
  filesystems).
* :class:`~repro.experiments.transports.http.HttpTransport` — the
  client half of the HTTP coordinator (``python -m repro.experiments
  serve QUEUE.sqlite``): the same operations as JSON POSTs against a
  ``ThreadingHTTPServer`` wrapping a ``SqliteTransport``, so workers
  need only a URL, not a shared mount.

The corrupt-task contract is part of the protocol: a task whose payload
cannot be parsed back into a :class:`RunSpec` is *quarantined* by
``claim_next`` (moved out of the claimable set, never leased) and
surfaced as a :class:`CorruptTask` so the worker reports it once and
keeps draining — it must never die holding the lease, which would put
the task into an infinite stale-reclaim/crash ping-pong between workers.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.experiments.results import RunRecord
from repro.experiments.specs import RunSpec, SweepSpec

__all__ = [
    "Claim",
    "CorruptTask",
    "QueueBusy",
    "QueueCorrupt",
    "QueueIncomplete",
    "Transport",
    "QUEUE_VERSION",
]

#: Queue layout version; bumped if a transport's on-disk protocol ever
#: changes so a worker from an older build refuses the queue rather than
#: misreading it.  Shared by every transport.
QUEUE_VERSION = 1


class QueueIncomplete(RuntimeError):
    """``collect`` was asked to merge a queue that still has unfinished work."""

    def __init__(self, queue: str, missing: List[Tuple[int, int]], tasks: int, leases: int):
        self.queue = queue
        self.missing = missing
        shown = ", ".join(str(key) for key in missing[:5])
        suffix = ", ..." if len(missing) > 5 else ""
        super().__init__(
            f"queue {queue!r} is incomplete: {len(missing)} run(s) have no journaled "
            f"record ((index, seed) pairs {shown}{suffix}); {tasks} unclaimed task(s) "
            f"and {leases} outstanding lease(s) remain — run more workers (or wait "
            f"for stale leases to be reclaimed) before collecting"
        )


class QueueCorrupt(RuntimeError):
    """A queue artifact (header, task payload or quarantine) is unusable.

    A torn task payload means ``enqueue`` was interrupted mid-write on a
    filesystem without atomic rename semantics, or the task was edited;
    either way the unit of work is unknowable.  The transport quarantines
    it at claim time and ``collect`` raises this error naming the
    quarantined tasks — re-enqueue the sweep to reissue them.
    """


class QueueBusy(RuntimeError):
    """``collect`` found live leases outstanding on an otherwise covered queue.

    Reclaim-after-append duplicates can fully cover the expansion while a
    worker holding a re-claimed lease is still executing (and will append
    to its shard when it finishes).  Collecting mid-flight reads a
    moving ledger, so ``collect`` refuses unless forced.
    """

    def __init__(self, queue: str, leases: int):
        self.queue = queue
        self.leases = leases
        super().__init__(
            f"queue {queue!r} still has {leases} live lease(s) outstanding; the "
            f"expansion is covered but a worker is still executing — wait for it "
            f"to drain (or pass --force to collect the covered rows anyway)"
        )


@dataclass(frozen=True)
class Claim:
    """A successfully claimed task: the run to execute plus the lease handle.

    ``handle`` is transport-private (a lease file path, a task row key);
    callers only pass it back to :meth:`Transport.heartbeat` /
    :meth:`Transport.release`.
    """

    task_id: str
    run: RunSpec
    handle: object


@dataclass(frozen=True)
class CorruptTask:
    """A task quarantined at claim time because its payload would not parse."""

    task_id: str
    reason: str


class Transport(abc.ABC):
    """The eight-operation coordination protocol behind the distributed queue.

    Implementations must make :meth:`claim_next` exactly-once under
    contention (two workers can never both claim one task), must never
    let a worker die holding the lease of an unparseable task (quarantine
    instead), and must store records in append order per shard so the
    last record for an ``(index, seed)`` key within a shard wins — the
    same semantics :func:`~repro.experiments.results.load_journal` gives
    a journal file.
    """

    #: Short backend name (``"sqlite"`` / ``"http"``), used in log lines.
    kind: str = "?"

    #: Human-readable queue location (a database path or a coordinator URL).
    location: str = "?"

    # -- queue lifecycle ----------------------------------------------------

    @abc.abstractmethod
    def exists(self) -> bool:
        """True when the queue has been initialised (a spec is pinned)."""

    @abc.abstractmethod
    def initialise(self, spec: SweepSpec) -> None:
        """Create the queue layout and pin ``spec`` as its header."""

    @abc.abstractmethod
    def load_spec(self) -> SweepSpec:
        """The pinned sweep spec (validated header); :class:`QueueCorrupt` if unusable."""

    # -- tasks and leases ---------------------------------------------------

    @abc.abstractmethod
    def enqueue(self, runs: Sequence[RunSpec]) -> None:
        """Materialise ``runs`` as claimable (pending) tasks."""

    @abc.abstractmethod
    def claim_next(self, worker_id: str) -> Optional[Union[Claim, CorruptTask]]:
        """Atomically claim the lowest-indexed pending task, if any.

        Returns a :class:`Claim` on success, a :class:`CorruptTask` when
        the claimed payload would not parse (the task is quarantined, not
        leased — the caller reports it and keeps going), or ``None`` when
        nothing is claimable.
        """

    @abc.abstractmethod
    def heartbeat(self, claim: Claim) -> bool:
        """Refresh the lease's liveness stamp; False when the lease is gone."""

    @abc.abstractmethod
    def release(self, claim: Claim) -> None:
        """Complete the task: drop the lease (idempotent if already reclaimed)."""

    @abc.abstractmethod
    def reclaim_stale(self, stale_after: float) -> int:
        """Return leases idle for more than ``stale_after`` seconds to the
        pending set; returns the number reclaimed."""

    # -- shards -------------------------------------------------------------

    @abc.abstractmethod
    def prepare_shard(self, spec: SweepSpec, worker_id: str) -> None:
        """Make the worker's shard appendable (head a fresh one, recover a
        torn one); raises ``ValueError`` when an existing shard pins a
        different spec."""

    @abc.abstractmethod
    def append_record(self, spec: SweepSpec, worker_id: str, record: RunRecord) -> None:
        """Append one completed record to the worker's own shard."""

    @abc.abstractmethod
    def record_streams(self, spec: SweepSpec) -> List[Tuple[str, Mapping[Tuple[int, int], RunRecord]]]:
        """Enumerate every shard as ``(shard_id, records-by-(index, seed))``,
        each shard validated against ``spec`` and deduplicated last-wins in
        append order."""

    # -- status -------------------------------------------------------------

    @abc.abstractmethod
    def status(self) -> Dict[str, int]:
        """``{"tasks": pending, "leases": running, "shards": n, "corrupt": quarantined}``."""

    @abc.abstractmethod
    def lease_details(self) -> List[Dict[str, object]]:
        """One entry per live lease, sorted by task id:
        ``{"task_id": str, "worker": str, "age_seconds": float}`` where
        ``age_seconds`` is the time since the last heartbeat (>= 0).  A
        purely observational read — it must not touch lease liveness."""

    @abc.abstractmethod
    def corrupt_tasks(self) -> List[CorruptTask]:
        """The quarantined tasks, oldest first."""

    @abc.abstractmethod
    def clear_corrupt(self) -> int:
        """Drop the quarantine (a re-enqueue reissues the runs); returns the
        number cleared."""

    def close(self) -> None:
        """Release any backend resources (connections, file handles).

        A no-op by default.  Backends with persistent state override it:
        the SQLite transport closes its connection (letting SQLite remove
        the WAL ``-wal``/``-shm`` sidecar files), the HTTP transport drops
        its keep-alive session.  Idempotent; the transport may be used
        again afterwards (backends reconnect lazily).
        """

    def describe(self) -> str:
        """``kind:location``, for log lines and error messages."""
        return f"{self.kind}:{self.location}"
