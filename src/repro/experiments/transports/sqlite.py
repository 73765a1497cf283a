"""The single-file SQLite queue transport.

One database file holds the whole queue: a ``meta`` table pins the sweep
spec, a ``tasks`` status table (pending/running/done/failed) holds the
claimable tasks and their leases, and a ``records`` table keyed by worker
id holds the per-worker record shards.  Each record row stores the exact
sorted-key JSON line a ``run`` journal would hold, so the byte-identity
contract (``collect`` == single-process ``run``) rests on the same record
parser.

Claiming is the ``BEGIN IMMEDIATE`` transactional idiom: the claim
transaction takes the database write lock up front, selects the
lowest-indexed pending task, flips it to ``running`` and commits — under
contention exactly one worker wins each task, the others are serialized
behind the lock (with ``busy_timeout`` retries, never an error).
Heartbeats are row-timestamp updates on the running row; a dead worker's
row stops updating and ``reclaim_stale`` flips it back to ``pending``
inside the same kind of transaction.  A task whose stored payload will
not parse back into a ``RunSpec`` is flipped to ``failed`` (quarantined)
at claim time with the parse error in its ``note`` column.

The database runs in WAL mode: readers never block the single writer, a
SIGKILLed worker's half-finished transaction rolls back on the next open,
and the file is safe for concurrent processes *on one host*.  WAL
explicitly does not work across network filesystems — for multi-machine
sweeps, serve the database over HTTP (``python -m repro.experiments serve
QUEUE.sqlite``) and point the workers at the coordinator URL.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.experiments.results import RunRecord, _safe_name
from repro.experiments.specs import RunSpec, SweepSpec
from repro.experiments.transports.base import (
    QUEUE_VERSION,
    Claim,
    CorruptTask,
    QueueCorrupt,
    Transport,
)

__all__ = ["SqliteTransport", "SQLITE_MAGIC", "queue_db_path"]

#: The 16-byte header every SQLite database file starts with; used by the
#: transport auto-detection to tell a queue database from any other file.
SQLITE_MAGIC = b"SQLite format 3\x00"


def _now() -> float:
    """Wall-clock source for lease timing; an indirection so tests can mock
    a clock step without patching the global ``time`` module."""
    return time.time()

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS tasks (
    idx          INTEGER PRIMARY KEY,
    -- TEXT: per-run seeds are unsigned 64-bit and can overflow SQLite's
    -- signed INTEGER; the JSON payload is the authoritative value anyway.
    seed         TEXT NOT NULL,
    run_json     TEXT NOT NULL,
    status       TEXT NOT NULL DEFAULT 'pending'
                 CHECK (status IN ('pending', 'running', 'done', 'failed')),
    worker       TEXT,
    heartbeat_at REAL,
    note         TEXT
);
CREATE INDEX IF NOT EXISTS tasks_by_status ON tasks(status, idx);
CREATE TABLE IF NOT EXISTS records (
    shard       TEXT NOT NULL,
    seq         INTEGER NOT NULL,
    idx         INTEGER NOT NULL,
    seed        TEXT NOT NULL,
    status      TEXT NOT NULL,
    record_json TEXT NOT NULL,
    PRIMARY KEY (shard, seq)
);
"""


def queue_db_path(out_dir: str, name: str) -> str:
    """The queue database of a sweep: ``<out_dir>/QUEUE_<name>.sqlite``."""
    return os.path.join(out_dir, f"QUEUE_{_safe_name(name)}.sqlite")


class SqliteTransport(Transport):
    """WAL-mode SQLite with ``BEGIN IMMEDIATE`` claim transactions."""

    kind = "sqlite"

    def __init__(self, path: str):
        self.location = path
        self._con: Optional[sqlite3.Connection] = None
        # One connection shared between the worker loop and its heartbeat
        # thread; the lock serialises statements (sqlite3 connections are
        # not thread-safe under concurrent use even with
        # check_same_thread=False).
        self._lock = threading.RLock()

    # -- connection ---------------------------------------------------------

    def _connect(self, create: bool = False) -> sqlite3.Connection:
        if self._con is not None:
            return self._con
        if not create and not os.path.exists(self.location):
            raise QueueCorrupt(
                f"{self.location!r} does not exist; not a sweep queue database"
            )
        if create:
            os.makedirs(os.path.dirname(self.location) or ".", exist_ok=True)
        try:
            con = sqlite3.connect(
                self.location,
                timeout=30.0,
                check_same_thread=False,
                isolation_level=None,  # autocommit; transactions are explicit
            )
            con.execute("PRAGMA journal_mode=WAL")
            con.execute("PRAGMA synchronous=NORMAL")
            con.execute("PRAGMA busy_timeout=30000")
        except sqlite3.Error as error:
            raise QueueCorrupt(
                f"queue database {self.location!r} is unreadable: {error}"
            ) from None
        self._con = con
        return con

    def close(self) -> None:
        """Close the connection (tests and long-lived callers)."""
        with self._lock:
            if self._con is not None:
                self._con.close()
                self._con = None

    def _query(self, sql: str, params: Tuple = ()) -> List[Tuple]:
        with self._lock:
            try:
                return self._connect().execute(sql, params).fetchall()
            except sqlite3.Error as error:
                raise QueueCorrupt(
                    f"queue database {self.location!r} is unusable: {error}"
                ) from None

    # -- queue lifecycle ----------------------------------------------------

    def exists(self) -> bool:
        if not os.path.exists(self.location):
            return False
        try:
            return bool(self._query("SELECT 1 FROM meta WHERE key = 'sweep'"))
        except QueueCorrupt:
            return False

    def initialise(self, spec: SweepSpec) -> None:
        with self._lock:
            con = self._connect(create=True)
            try:
                con.executescript(_SCHEMA)
                con.execute("BEGIN IMMEDIATE")
                have = con.execute("SELECT 1 FROM meta WHERE key = 'sweep'").fetchone()
                if have is None:
                    con.execute(
                        "INSERT INTO meta (key, value) VALUES ('queue_version', ?)",
                        (str(QUEUE_VERSION),),
                    )
                    con.execute(
                        "INSERT INTO meta (key, value) VALUES ('sweep', ?)",
                        (json.dumps(spec.to_json_dict(), sort_keys=True),),
                    )
                con.execute("COMMIT")
            except sqlite3.Error as error:
                con.execute("ROLLBACK")
                raise QueueCorrupt(
                    f"queue database {self.location!r} could not be initialised: {error}"
                ) from None

    def load_spec(self) -> SweepSpec:
        rows = dict(self._query("SELECT key, value FROM meta WHERE key IN ('queue_version', 'sweep')"))
        if "sweep" not in rows:
            raise QueueCorrupt(
                f"{self.location!r} has no pinned sweep spec; not a sweep queue database"
            )
        if rows.get("queue_version") != str(QUEUE_VERSION):
            raise QueueCorrupt(
                f"queue {self.location!r} has layout version {rows.get('queue_version')!r}, "
                f"expected {QUEUE_VERSION!r}; re-enqueue with this build"
            )
        try:
            return SweepSpec.from_json_dict(json.loads(rows["sweep"]))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as error:
            raise QueueCorrupt(
                f"queue {self.location!r} does not pin a sweep spec: {error}"
            ) from None

    # -- tasks and leases ---------------------------------------------------

    def enqueue(self, runs: Sequence[RunSpec]) -> None:
        with self._lock:
            con = self._connect()
            con.execute("BEGIN IMMEDIATE")
            try:
                for run in runs:
                    # Re-enqueue resets a done/failed row back to a fresh
                    # pending task with a clean payload.
                    con.execute(
                        "INSERT OR REPLACE INTO tasks (idx, seed, run_json, status) "
                        "VALUES (?, ?, ?, 'pending')",
                        (run.index, str(run.seed), json.dumps(run.to_json_dict(), sort_keys=True)),
                    )
                con.execute("COMMIT")
            except sqlite3.Error as error:
                con.execute("ROLLBACK")
                raise QueueCorrupt(
                    f"queue database {self.location!r} refused the enqueue: {error}"
                ) from None

    def claim_next(self, worker_id: str) -> Optional[Union[Claim, CorruptTask]]:
        with self._lock:
            con = self._connect()
            # BEGIN IMMEDIATE takes the write lock before the SELECT, so the
            # select-lowest-pending + flip-to-running pair is one atomic
            # claim: under contention exactly one worker wins each task, the
            # rest serialize behind the lock.
            con.execute("BEGIN IMMEDIATE")
            try:
                row = con.execute(
                    "SELECT idx, run_json FROM tasks WHERE status = 'pending' "
                    "ORDER BY idx LIMIT 1"
                ).fetchone()
                if row is None:
                    con.execute("COMMIT")
                    return None
                idx, run_json = row
                task_id = f"task #{idx}"
                try:
                    run = RunSpec.from_json_dict(json.loads(run_json))
                except (json.JSONDecodeError, KeyError, TypeError, ValueError) as error:
                    # Quarantine inside the claim transaction: the task goes
                    # to 'failed' without ever being leased, so no worker can
                    # die holding it and no reclaim ping-pong can start.
                    reason = str(error)
                    con.execute(
                        "UPDATE tasks SET status = 'failed', worker = ?, "
                        "heartbeat_at = NULL, note = ? WHERE idx = ?",
                        (worker_id, reason, idx),
                    )
                    con.execute("COMMIT")
                    return CorruptTask(task_id=task_id, reason=reason)
                con.execute(
                    "UPDATE tasks SET status = 'running', worker = ?, "
                    "heartbeat_at = ?, note = NULL WHERE idx = ?",
                    (worker_id, _now(), idx),
                )
                con.execute("COMMIT")
                return Claim(task_id=task_id, run=run, handle=(idx, worker_id))
            except sqlite3.Error as error:
                con.execute("ROLLBACK")
                raise QueueCorrupt(
                    f"queue database {self.location!r} refused the claim: {error}"
                ) from None

    def heartbeat(self, claim: Claim) -> bool:
        idx, worker = claim.handle
        with self._lock:
            # MAX(...) clamps the stamp monotonically non-decreasing per row:
            # if the wall clock steps backwards between beats, the row keeps
            # its newest stamp instead of rewinding into reclaim_stale's
            # stale window — a live lease must never look abandoned because
            # of NTP.  (A forward step is already safe: the lease just looks
            # fresher.)
            try:
                cursor = self._connect().execute(
                    "UPDATE tasks SET heartbeat_at = MAX(COALESCE(heartbeat_at, 0), ?) "
                    "WHERE idx = ? AND worker = ? AND status = 'running'",
                    (_now(), idx, worker),
                )
            except sqlite3.Error as error:
                raise QueueCorrupt(
                    f"queue database {self.location!r} refused the heartbeat: {error}"
                ) from None
            return cursor.rowcount == 1

    def release(self, claim: Claim) -> None:
        idx, worker = claim.handle
        with self._lock:
            # rowcount 0 means the lease was reclaimed from under us while we
            # executed; harmless — collect dedups the re-execution.
            try:
                self._connect().execute(
                    "UPDATE tasks SET status = 'done', heartbeat_at = NULL "
                    "WHERE idx = ? AND worker = ? AND status = 'running'",
                    (idx, worker),
                )
            except sqlite3.Error as error:
                raise QueueCorrupt(
                    f"queue database {self.location!r} refused the release: {error}"
                ) from None

    def reclaim_stale(self, stale_after: float) -> int:
        with self._lock:
            con = self._connect()
            con.execute("BEGIN IMMEDIATE")
            try:
                cursor = con.execute(
                    "UPDATE tasks SET status = 'pending', worker = NULL, "
                    "heartbeat_at = NULL WHERE status = 'running' AND heartbeat_at < ?",
                    (_now() - stale_after,),
                )
                con.execute("COMMIT")
                return cursor.rowcount
            except sqlite3.Error as error:
                con.execute("ROLLBACK")
                raise QueueCorrupt(
                    f"queue database {self.location!r} refused the reclaim: {error}"
                ) from None

    # -- shards -------------------------------------------------------------

    def prepare_shard(self, spec: SweepSpec, worker_id: str) -> None:
        # Record inserts are transactional — a SIGKILL mid-insert rolls back
        # on the next open — so there is never a torn tail to compact and no
        # per-shard header to write: the spec is pinned once in `meta` for
        # the whole database.
        self._connect()

    def append_record(self, spec: SweepSpec, worker_id: str, record: RunRecord) -> None:
        # The stored line is byte-identical to a ``run`` journal line, so
        # shards merge through the same record parser as journals.
        line = json.dumps(record.to_json_dict(), sort_keys=True)
        with self._lock:
            con = self._connect()
            con.execute("BEGIN IMMEDIATE")
            try:
                (seq,) = con.execute(
                    "SELECT COALESCE(MAX(seq), -1) + 1 FROM records WHERE shard = ?",
                    (worker_id,),
                ).fetchone()
                con.execute(
                    "INSERT INTO records (shard, seq, idx, seed, status, record_json) "
                    "VALUES (?, ?, ?, ?, ?, ?)",
                    (worker_id, seq, record.index, str(record.seed), record.status, line),
                )
                con.execute("COMMIT")
            except sqlite3.Error as error:
                con.execute("ROLLBACK")
                raise QueueCorrupt(
                    f"queue database {self.location!r} refused the record append: {error}"
                ) from None

    def record_streams(self, spec: SweepSpec) -> List[Tuple[str, Mapping[Tuple[int, int], RunRecord]]]:
        rows = self._query(
            "SELECT shard, record_json FROM records ORDER BY shard, seq"
        )
        streams: Dict[str, Dict[Tuple[int, int], RunRecord]] = {}
        dead: set = set()
        for shard, line in rows:
            if shard in dead:
                continue
            records = streams.setdefault(shard, {})
            try:
                record = RunRecord.from_json_dict(json.loads(line))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                # Mirror the journal-reader contract: a hand-edited or
                # unparseable entry stops that shard's stream at the last
                # good record instead of crashing the merge or guessing.
                dead.add(shard)
                continue
            records[(record.index, record.seed)] = record
        return sorted(streams.items())

    # -- status -------------------------------------------------------------

    def status(self) -> Dict[str, int]:
        counts = dict(self._query("SELECT status, COUNT(*) FROM tasks GROUP BY status"))
        (shards,) = self._query("SELECT COUNT(DISTINCT shard) FROM records")[0]
        return {
            "tasks": int(counts.get("pending", 0)),
            "leases": int(counts.get("running", 0)),
            "shards": int(shards),
            "corrupt": int(counts.get("failed", 0)),
        }

    def lease_details(self) -> List[Dict[str, object]]:
        now = _now()
        return [
            {
                "task_id": f"task #{idx}",
                "worker": str(worker or "?"),
                "age_seconds": max(0.0, now - float(heartbeat_at or 0.0)),
            }
            for idx, worker, heartbeat_at in self._query(
                "SELECT idx, worker, heartbeat_at FROM tasks "
                "WHERE status = 'running' ORDER BY idx"
            )
        ]

    def corrupt_tasks(self) -> List[CorruptTask]:
        return [
            CorruptTask(task_id=f"task #{idx}", reason=str(note or "unparseable task payload"))
            for idx, note in self._query(
                "SELECT idx, note FROM tasks WHERE status = 'failed' ORDER BY idx"
            )
        ]

    def clear_corrupt(self) -> int:
        with self._lock:
            cursor = self._connect().execute("DELETE FROM tasks WHERE status = 'failed'")
            return cursor.rowcount
