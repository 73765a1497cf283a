"""The queue-backed distributed runner (``enqueue`` / ``work`` / ``collect``).

The PR 3 journal made run state externally visible; this module makes it the
*shared ledger* of a work queue, so any number of worker processes — on one
machine or on many — can execute one sweep cooperatively and the merged
result is testable to byte-identity against a single-process ``run``.

The coordination backend is pluggable (:mod:`repro.experiments.transports`):
tasks, leases and shard records are JSON round-trippable, so the lifecycle
here is written against the eight-operation
:class:`~repro.experiments.transports.base.Transport` protocol — enqueue,
claim, heartbeat, release, reclaim, shard append, shard enumerate, status —
and two backends ship, picked by the queue location alone:

* the **sqlite** transport (``QUEUE_<name>.sqlite``, WAL mode, ``BEGIN
  IMMEDIATE`` claim transactions over a pending/running/done status table,
  heartbeats as row-timestamp updates, shards as a records table keyed by
  worker id), the default, for queues on one host;
* the **http** transport (``http://coordinator:8765``), the client half of
  ``python -m repro.experiments serve QUEUE.sqlite`` — the same operations
  as JSON POSTs against a coordinator wrapping a SQLite queue, so workers
  on many hosts need only a URL, not a shared mount (no auth; trusted
  networks only).

The lease protocol, for either backend:

* **claim** — exactly one contender wins each task; the losers move on.  A
  task whose payload will not parse is *quarantined* at claim time (never
  leased, reported once) — a worker must never die holding the lease of an
  unknowable task, or the lease goes stale, the next worker reclaims it and
  dies too, forever.
* **heartbeat** — while executing, a daemon thread refreshes the lease's
  liveness stamp every few seconds (default ``min(stale_after / 10, 5)``
  seconds).  No wall-clock value ever enters the results; time is only
  compared *observer-now vs lease-stamp* to judge staleness.
* **reclaim** — a lease idle longer than ``stale_after`` belongs to a dead
  worker; any worker returns it to the pending set.  If the dead worker had
  already journaled the record (died between append and release), the
  re-execution produces a duplicate — harmless, because records are
  deterministic and ``collect`` deduplicates by ``(index, seed)``,
  ranked ``ok > no_convergence > error``.
* **complete** — the worker appends the record to *its own* shard (no two
  workers ever write the same shard) and releases the lease.

``collect`` merges every shard through the validated record streams
(:meth:`~repro.experiments.transports.base.Transport.record_streams`, then
:func:`~repro.experiments.results.merge_record_streams`), refuses an
incomplete queue loudly, refuses quarantined-corrupt tasks loudly, refuses
(without ``force``) a queue whose expansion is covered while a live lease is
still outstanding, and writes ``BENCH_<name>.json`` whose deterministic rows
are byte-identical to a single-process ``run`` of the same spec (the
``rows_bytes`` canonical serialization; wall-times are machine-dependent by
design and live outside the rows).
"""

from __future__ import annotations

import os
import re
import socket
import threading
import uuid
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro import obs
from repro.experiments.results import (
    RunRecord,
    bench_payload,
    merge_record_streams,
    write_bench,
)
from repro.experiments.runner import execute_run_safe
from repro.experiments.specs import RunSpec, SweepSpec
from repro.experiments.transports import (
    QUEUE_VERSION,
    TRANSPORT_KINDS,
    Claim,
    CorruptTask,
    HttpTransport,
    QueueBusy,
    QueueCorrupt,
    QueueIncomplete,
    Transport,
    make_server,
    queue_db_path,
    resolve_transport,
)
from repro.experiments.transports.http import DEFAULT_PORT as DEFAULT_HTTP_PORT

__all__ = [
    "DEFAULT_HTTP_PORT",
    "QUEUE_VERSION",
    "TRANSPORT_KINDS",
    "Claim",
    "CorruptTask",
    "HttpTransport",
    "QueueBusy",
    "QueueCorrupt",
    "QueueIncomplete",
    "claim_next",
    "collect_queue",
    "corrupt_report",
    "default_worker_id",
    "enqueue_sweep",
    "lease_report",
    "load_queue_spec",
    "make_server",
    "queue_db_path",
    "queue_progress",
    "queue_status",
    "reclaim_stale",
    "resolve_transport",
    "work_queue",
]

#: Heartbeats default to a tenth of the staleness threshold, capped at five
#: seconds — "every few seconds", an order of magnitude inside the reclaim
#: margin, however generously ``stale_after`` is chosen.
HEARTBEAT_CAP_SECONDS = 5.0

_WORKER_ID_BAD = re.compile(r"[^A-Za-z0-9_.-]")

QueueLike = Union[str, Transport]


def default_worker_id() -> str:
    """A filesystem-safe worker id unique across hosts and processes."""
    host = _WORKER_ID_BAD.sub("-", socket.gethostname()) or "host"
    return f"{host}-{os.getpid()}-{uuid.uuid4().hex[:6]}"


def _sanitize_worker_id(worker_id: str) -> str:
    cleaned = _WORKER_ID_BAD.sub("-", worker_id)
    if not cleaned:
        raise ValueError(f"worker id {worker_id!r} has no filesystem-safe characters")
    return cleaned


def default_heartbeat(stale_after: float) -> float:
    """The default heartbeat interval: ``min(stale_after / 10, 5.0)`` seconds."""
    return min(stale_after / 10.0, HEARTBEAT_CAP_SECONDS)


def validate_lease_timings(
    stale_after: float, poll: float, heartbeat: Optional[float]
) -> None:
    """Reject lease timings that break the protocol, before any work starts.

    ``stale_after <= 0`` makes every live lease instantly reclaimable (the
    queue thrashes, re-executing everything forever); ``poll <= 0`` spins;
    a heartbeat at or beyond ``stale_after`` guarantees live leases go
    stale between touches.
    """
    if stale_after <= 0:
        raise ValueError(f"--stale-after must be positive, got {stale_after}")
    if poll <= 0:
        raise ValueError(f"--poll must be positive, got {poll}")
    if heartbeat is not None and not 0 < heartbeat < stale_after:
        raise ValueError(
            f"--heartbeat must satisfy 0 < heartbeat < stale-after "
            f"(got heartbeat={heartbeat}, stale-after={stale_after})"
        )


@contextmanager
def _opened(queue: QueueLike, kind: str = "auto") -> Iterator[Transport]:
    """Resolve ``queue`` to a transport, closing it afterwards if owned.

    Every lifecycle helper routes through this so no path leaks backend
    resources — a SQLite connection left open keeps the WAL
    ``-wal``/``-shm`` sidecar files alive, an HTTP session keeps a socket.
    A caller-supplied :class:`Transport` instance is *not* closed: its
    owner manages that lifecycle.
    """
    transport = resolve_transport(queue, kind)
    try:
        yield transport
    finally:
        if not isinstance(queue, Transport):
            transport.close()


def load_queue_spec(queue: QueueLike) -> SweepSpec:
    """The pinned sweep spec of a queue (validated header)."""
    with _opened(queue) as transport:
        return transport.load_spec()


def queue_status(queue: QueueLike) -> Dict[str, int]:
    """Pending task, outstanding lease, shard and quarantined-corrupt counts."""
    with _opened(queue) as transport:
        return transport.status()


def corrupt_report(queue: QueueLike) -> List[CorruptTask]:
    """The quarantined-corrupt tasks of a queue (empty for a healthy queue)."""
    with _opened(queue) as transport:
        return transport.corrupt_tasks()


def lease_report(queue: QueueLike) -> List[Dict[str, object]]:
    """Live leases with holder and heartbeat age (seconds since last beat)."""
    with _opened(queue) as transport:
        return transport.lease_details()


def queue_progress(queue: QueueLike) -> Dict[str, object]:
    """Per-worker progress over the queue's record shards.

    Returns ``{"name", "expected", "covered", "errors", "workers": [{"worker",
    "records", "errors"}, ...]}`` where ``covered`` counts distinct
    ``(index, seed)`` keys of the pinned expansion with at least one record.
    """
    with _opened(queue) as transport:
        spec = transport.load_spec()
        streams = transport.record_streams(spec)
    expected = {(run.index, run.seed) for run in spec.expand()}
    merged = merge_record_streams(records for _, records in streams)
    workers = [
        {
            "worker": str(shard_id),
            "records": len(records),
            "errors": sum(1 for r in records.values() if r.status == "error"),
        }
        for shard_id, records in streams
    ]
    return {
        "name": spec.name,
        "expected": len(expected),
        "covered": sum(1 for key in merged if key in expected),
        "errors": sum(1 for record in merged.values() if record.status == "error"),
        "workers": workers,
    }


def claim_next(queue: QueueLike, worker_id: str):
    """Atomically claim the lowest-numbered pending task, if any.

    Returns a :class:`Claim` (``.run`` to execute, ``.handle`` for the
    transport), a :class:`CorruptTask` when the claimed payload was
    quarantined as unparseable, or ``None`` when nothing is claimable.
    """
    with _opened(queue) as transport:
        return transport.claim_next(worker_id)


def reclaim_stale(queue: QueueLike, stale_after: float) -> int:
    """Return leases idle for over ``stale_after`` seconds to the pending set.

    Staleness is judged by the lease's liveness stamp — refreshed by the
    holder's heartbeat thread while it is alive, frozen the moment it dies.
    Contending reclaimers race on the same ``BEGIN IMMEDIATE``
    transaction, so each stale lease is reclaimed
    exactly once.  Returns the number reclaimed.
    """
    with _opened(queue) as transport:
        return transport.reclaim_stale(stale_after)


def enqueue_sweep(spec: SweepSpec, queue: QueueLike, kind: str = "auto") -> Dict[str, int]:
    """Materialise the sweep's pending runs as claimable tasks.

    A fresh queue gets the full expansion.  Re-enqueueing an existing
    *drained* queue (no tasks, no leases — e.g. after a ``collect`` refused
    errored rows) materialises only the runs without an ok record in the
    shards: errored, quarantined-corrupt and never-executed runs become
    claimable again, exactly like ``run --resume`` retries journaled
    errors.  A queue with tasks or leases still outstanding is refused —
    two enqueues racing each other would double-issue work.  The spec is
    expanded (and so validated) before the queue is touched.
    """
    runs = spec.expand()
    with _opened(queue, kind) as transport:
        done: Dict[Tuple[int, int], RunRecord] = {}
        if transport.exists():
            existing = transport.load_spec()
            if existing != spec:
                raise ValueError(
                    f"queue {transport.location!r} already pins a different sweep "
                    f"configuration (name/seed/grid/sampler mismatch); use a fresh queue"
                )
            status = transport.status()
            if status["tasks"] or status["leases"]:
                raise ValueError(
                    f"queue {transport.location!r} still has {status['tasks']} task(s) and "
                    f"{status['leases']} lease(s) outstanding; drain it (or delete the "
                    f"queue) before enqueueing again"
                )
            transport.clear_corrupt()
            done = {
                key: record
                for key, record in merge_record_streams(
                    records for _, records in transport.record_streams(spec)
                ).items()
                if record.status != "error"
            }
        else:
            transport.initialise(spec)
        pending = [run for run in runs if (run.index, run.seed) not in done]
        transport.enqueue(pending)
        return {"enqueued": len(pending), "already_done": len(done)}


class _Heartbeat:
    """A daemon thread refreshing the lease's liveness stamp while its task
    executes; stops quietly when the lease was reclaimed from under us
    (collect dedups the re-execution)."""

    def __init__(self, transport: Transport, claim: Claim, interval: float):
        self._transport = transport
        self._claim = claim
        self._interval = max(float(interval), 0.01)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._beat, daemon=True)

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()

    def _beat(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                if not self._transport.heartbeat(self._claim):
                    return
            except Exception:
                return


def work_queue(
    queue: QueueLike,
    worker_id: Optional[str] = None,
    stale_after: float = 300.0,
    poll: float = 1.0,
    heartbeat: Optional[float] = None,
    max_tasks: Optional[int] = None,
    trace: Optional[str] = None,
    profile_dir: Optional[str] = None,
) -> Dict[str, int]:
    """Claim and execute tasks until the queue drains (or ``max_tasks``).

    The worker loop: claim a task, execute it through the shared
    :func:`~repro.experiments.runner.execute_run_safe` core (errors become
    ``status="error"`` records, exactly as in ``run``), append the record
    to this worker's own shard, release the lease.  A claim that surfaces
    a quarantined-corrupt task is counted and skipped — the queue keeps
    draining.  When nothing is claimable the worker reclaims stale leases;
    while *live* leases are outstanding it polls — the holder may die and
    its lease go stale — and exits only once the queue has neither tasks
    nor leases.

    Returns ``{"executed": ..., "errors": ..., "reclaimed": ..., "corrupt": ...}``.

    ``trace`` appends this worker's JSONL span/metrics events to the given
    sidecar path (workers sharing one path interleave whole lines, each
    tagged with its worker id); ``profile_dir`` dumps one cProfile
    ``.pstats`` file per executed task.  Neither changes shard records or
    the collected BENCH payload in any byte.
    """
    validate_lease_timings(stale_after, poll, heartbeat)
    with _opened(queue) as transport:
        return _work_loop(
            transport, stale_after, poll, heartbeat, max_tasks, trace, profile_dir, worker_id
        )


def _work_loop(
    transport: Transport,
    stale_after: float,
    poll: float,
    heartbeat: Optional[float],
    max_tasks: Optional[int],
    trace: Optional[str],
    profile_dir: Optional[str],
    worker_id: Optional[str],
) -> Dict[str, int]:
    spec = transport.load_spec()
    worker = _sanitize_worker_id(worker_id) if worker_id else default_worker_id()
    transport.prepare_shard(spec, worker)
    interval = heartbeat if heartbeat is not None else default_heartbeat(stale_after)
    executed = errors = reclaimed = corrupt = 0
    with obs.observed(trace_path=trace, profile_dir=profile_dir, worker=worker):
        # Delta-snapshot the registry so two worker loops in one process
        # (tests, sequential drains) never double-report shared metrics.
        metrics_before = obs.get_metrics().snapshot()
        with obs.span("worker", queue=transport.describe(), sweep=spec.name) as worker_span:
            while max_tasks is None or executed < max_tasks:
                claim = transport.claim_next(worker)
                if isinstance(claim, CorruptTask):
                    corrupt += 1
                    obs.count("worker.corrupt")
                    continue
                if claim is None:
                    got_back = transport.reclaim_stale(stale_after)
                    if got_back:
                        reclaimed += got_back
                        obs.count("worker.reclaimed", got_back)
                        continue
                    if transport.status()["leases"]:
                        time.sleep(poll)
                        continue
                    break  # no tasks, no leases: the queue is drained
                with obs.span("task", task=claim.task_id):
                    with _Heartbeat(transport, claim, interval):
                        record = execute_run_safe(claim.run)
                transport.append_record(spec, worker, record)
                transport.release(claim)
                executed += 1
                obs.count("worker.executed")
                if record.status == "error":
                    errors += 1
                    obs.count("worker.errors")
            worker_span.add("executed", executed)
            worker_span.add("errors", errors)
            worker_span.add("reclaimed", reclaimed)
            worker_span.add("corrupt", corrupt)
        obs.event(
            "worker_summary",
            queue=transport.describe(),
            sweep=spec.name,
            executed=executed,
            errors=errors,
            reclaimed=reclaimed,
            corrupt=corrupt,
            metrics=obs.get_metrics().diff(metrics_before),
        )
    return {"executed": executed, "errors": errors, "reclaimed": reclaimed, "corrupt": corrupt}


def collect_queue(
    queue: QueueLike, out_dir: str = ".", force: bool = False
) -> Tuple[str, Dict[str, object]]:
    """Merge the shards of a drained queue into ``BENCH_<name>.json``.

    Every shard is validated against the queue's pinned spec and merged by
    ``(index, seed)`` (ranked ``ok > no_convergence > error``, see
    :func:`~repro.experiments.results.merge_record_streams`).  The merge
    must cover the full expansion — an unclaimed task, an outstanding lease
    or a shard torn short of a record makes the queue *incomplete* and the
    collect refuses loudly (:class:`QueueIncomplete`) instead of writing a
    silently partial BENCH.  Quarantined-corrupt tasks refuse the collect
    too (:class:`QueueCorrupt` naming them — re-enqueue to reissue), and a
    fully covered queue with live leases still outstanding (a worker
    re-executing a reclaimed task) refuses with :class:`QueueBusy` unless
    ``force`` — the covered rows are deterministic either way.  The
    resulting rows are byte-identical to a single-process ``run``.
    """
    with _opened(queue) as transport:
        spec = transport.load_spec()
        quarantined = transport.corrupt_tasks()
        if quarantined:
            shown = "; ".join(f"{item.task_id}: {item.reason}" for item in quarantined[:3])
            suffix = "; ..." if len(quarantined) > 3 else ""
            raise QueueCorrupt(
                f"queue {transport.location!r} quarantined {len(quarantined)} corrupt "
                f"task(s) ({shown}{suffix}); re-enqueue the sweep to reissue them"
            )
        merged = merge_record_streams(
            records for _, records in transport.record_streams(spec)
        )
        expected = {(run.index, run.seed) for run in spec.expand()}
        unexpected = sorted(set(merged) - expected)
        if unexpected:
            raise QueueCorrupt(
                f"queue {transport.location!r} shards hold {len(unexpected)} record(s) "
                f"outside the pinned sweep expansion (e.g. (index, seed) "
                f"{unexpected[0]}); the shards were edited or mixed from another queue"
            )
        missing = sorted(expected - set(merged))
        status = transport.status()
        if missing:
            raise QueueIncomplete(transport.location, missing, status["tasks"], status["leases"])
        if status["leases"] and not force:
            raise QueueBusy(transport.location, status["leases"])
    records = list(merged.values())
    # workers=0 marks externally-executed sweeps (as journal payloads do);
    # the deterministic rows never depend on the worker topology.
    payload = bench_payload(spec, 0, records)
    path = write_bench(out_dir, spec.name, payload)
    return path, payload
