"""The queue-backed distributed runner (PR 5) and its transports (PR 6/10).

The contract under test, for BOTH queue transports (the single-file
SQLite WAL database, and the HTTP coordinator serving a SQLite queue to
workers that have only a URL):

* a ``RunSpec`` round-trips exactly through its JSON task form — the
  descriptor *is* the unit of work a remote worker executes;
* ``enqueue`` materialises the pending runs as claimable tasks; ``work``
  processes claim them exactly-once under contention, heartbeat their
  leases, reclaim stale leases of dead workers, and append to per-worker
  shards;
* ``collect`` merges the shards — dedup by ``(index, seed)``, ok preferred
  over error — and produces rows byte-identical to a single-process
  ``run`` of the same spec, refusing an incomplete queue loudly;
* a task whose payload will not parse is *quarantined* at claim time and
  reported once — never crash-looped through stale-reclaim ping-pong;
* a fully covered queue with a live lease still outstanding refuses
  ``collect`` (``--force`` overrides with deterministic rows);
* killing a worker mid-task (the integration drill) loses nothing: the
  lease is reclaimed, a survivor re-executes the run, and the collected
  BENCH matches the uninterrupted baseline;
* a BENCH file and a surviving journal that *disagree* fail every reader
  loudly, naming the divergent ``(index, seed)`` pairs.
"""

import http.client
import itertools
import json
import os
import re
import signal
import sqlite3
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

import repro
from repro.experiments import (
    LedgerDivergence,
    QueueBusy,
    QueueCorrupt,
    QueueIncomplete,
    RunRecord,
    SweepSpec,
    check_journal_agreement,
    collect_queue,
    enqueue_sweep,
    load_bench,
    merge_journal_records,
    run_sweep,
    work_queue,
    write_bench,
)
from repro.experiments.cli import main as cli_main
from repro.experiments.distributed import (
    claim_next,
    corrupt_report,
    default_heartbeat,
    lease_report,
    load_queue_spec,
    queue_db_path,
    queue_progress,
    queue_status,
    reclaim_stale,
    validate_lease_timings,
)
from repro.experiments.runner import execute_run_safe
from repro.obs import load_trace_events, summarise_trace
from repro.experiments.results import (
    append_journal,
    journal_path,
    load_journal,
    merge_record_streams,
    rows_bytes,
    write_journal_header,
)
from repro.experiments.specs import RunSpec, SamplerSpec
from repro.experiments.transports import (
    Claim,
    CorruptTask,
    HttpTransport,
    SqliteTransport,
    make_server,
    resolve_transport,
)
from repro.experiments.transports.http import (
    HTTP_PROTOCOL_VERSION,
    MAX_REQUEST_BYTES,
)

SEED = 20010202
SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

TRANSPORTS = ["sqlite", "http"]


def tiny_spec(name="queued", **kwargs):
    defaults = dict(repeats=2, seed=SEED)
    defaults.update(kwargs)
    return SweepSpec.from_grid(name, "dihedral_rotation", {"n": [8, 12]}, **defaults)


def faulty_spec(name="queued-faulty", **kwargs):
    defaults = dict(repeats=2, seed=SEED)
    defaults.update(kwargs)
    return SweepSpec.from_grid(
        name, "diagnostic_fault", {"n": [8], "fail": [False, True]}, **defaults
    )


# HTTP queues are a coordinator process in front of a SQLite database; in
# tests the coordinator runs on a daemon thread in this process.  The
# registries let `make_queue` hand back a plain URL (what workers see) while
# the fault-injection helpers reach through to the backing database, and the
# autouse fixture below guarantees every coordinator dies with its test.
_LIVE_SERVERS = []
_HTTP_BACKING = {}


def start_http_queue(db_path, port=0):
    """Serve ``db_path`` over HTTP on a daemon thread; return the queue URL."""
    server = make_server(db_path, "127.0.0.1", port)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    host, bound_port = server.server_address[:2]
    url = f"http://{host}:{bound_port}"
    _LIVE_SERVERS.append(server)
    _HTTP_BACKING[url] = db_path
    return url


def stop_http_server(server):
    server.shutdown()
    server.server_close()
    if server in _LIVE_SERVERS:
        _LIVE_SERVERS.remove(server)


@pytest.fixture(autouse=True)
def _reap_http_servers():
    yield
    while _LIVE_SERVERS:
        stop_http_server(_LIVE_SERVERS[-1])
    _HTTP_BACKING.clear()


def backing_db(queue):
    """The SQLite file behind ``queue`` — the queue itself unless it is a
    coordinator URL started by :func:`start_http_queue`."""
    return _HTTP_BACKING.get(queue, queue)


def make_queue(tmp_path, kind, spec):
    """The queue location of ``spec`` for a transport kind under ``tmp_path``."""
    db = queue_db_path(str(tmp_path), spec.name)
    if kind == "http":
        return start_http_queue(db)
    return db


def cli_queue_args(tmp_path, kind, name="queue-smoke"):
    """(queue location, enqueue argv) for a CLI lifecycle test of ``kind``:
    HTTP queues are addressed by coordinator URL (``--queue-url``), SQLite
    queues by their default ``QUEUE_<name>.sqlite`` path under ``--out``."""
    out = str(tmp_path)
    if kind == "http":
        url = start_http_queue(queue_db_path(out, name))
        return url, ["enqueue", name, "--queue-url", url]
    return queue_db_path(out, name), ["enqueue", name, "--out", out]


def force_stale(queue, kind, age=900.0):
    """Backdate every live lease's liveness stamp by ``age`` seconds — the
    holder 'died' that long ago and its heartbeat froze."""
    resolve_transport(backing_db(queue))._connect().execute(
        "UPDATE tasks SET heartbeat_at = heartbeat_at - ? WHERE status = 'running'",
        (age,),
    )


def plant_corrupt_task(queue, kind):
    """Corrupt the lowest-indexed pending task's payload (torn mid-write /
    hand-edited)."""
    resolve_transport(backing_db(queue))._connect().execute(
        "UPDATE tasks SET run_json = '{\"torn' "
        "WHERE idx = (SELECT MIN(idx) FROM tasks WHERE status = 'pending')"
    )


@pytest.fixture(params=TRANSPORTS)
def kind(request):
    return request.param


class TestSpecSerialization:
    def test_run_spec_round_trips_through_json(self):
        spec = SweepSpec.from_grid(
            "rt",
            "abelian_random",
            {"moduli": [(16, 9, 5)], "confidence": [4]},
            repeats=3,
            seed=7,
            sampler=SamplerSpec(backend="analytic", shards=2),
            solver_options={"noise": "oracle-flip(0.25)"},
        )
        for run in spec.expand():
            round_tripped = RunSpec.from_json_dict(json.loads(json.dumps(run.to_json_dict())))
            assert round_tripped == run

    def test_sweep_spec_round_trips_through_json(self):
        for spec in (tiny_spec(), faulty_spec(), SweepSpec.from_grid(
            "rt2", "abelian_random", {"moduli": [(8, 9), (16, 9, 5)]}, description="d"
        )):
            round_tripped = SweepSpec.from_json_dict(json.loads(json.dumps(spec.to_json_dict())))
            assert round_tripped == spec
            assert round_tripped.expand() == spec.expand()

    def test_sampler_spec_round_trips(self):
        for sampler in (SamplerSpec(), SamplerSpec(backend="statevector", shards=3)):
            assert SamplerSpec.from_json_dict(sampler.to_json_dict()) == sampler


class TestTransportResolution:
    def test_explicit_kinds(self, tmp_path):
        assert isinstance(resolve_transport(str(tmp_path / "q.sqlite"), "sqlite"), SqliteTransport)
        with pytest.raises(ValueError, match="unknown transport kind 'dir'"):
            resolve_transport(str(tmp_path / "q"), "dir")

    @pytest.mark.parametrize("requested", ["auto", "sqlite"])
    def test_leftover_directory_queue_is_refused_loudly(self, tmp_path, requested):
        queue = tmp_path / "QUEUE_queued"
        (queue / "tasks").mkdir(parents=True)
        with pytest.raises(QueueCorrupt, match="directory transport was removed") as info:
            resolve_transport(str(queue), requested)
        assert "QUEUE_<name>.sqlite" in str(info.value)
        assert "build that wrote it" in str(info.value)

    def test_auto_detects_an_existing_database_by_magic(self, tmp_path):
        spec = tiny_spec()
        # deliberately no .sqlite extension: detection must sniff the header
        queue = str(tmp_path / "queue-without-extension")
        enqueue_sweep(spec, queue, kind="sqlite")
        assert isinstance(resolve_transport(queue), SqliteTransport)
        assert load_queue_spec(queue) == spec

    def test_auto_routes_missing_paths_to_sqlite(self, tmp_path):
        assert isinstance(resolve_transport(str(tmp_path / "q.sqlite")), SqliteTransport)
        assert isinstance(resolve_transport(str(tmp_path / "q.db")), SqliteTransport)
        assert isinstance(resolve_transport(str(tmp_path / "QUEUE_q")), SqliteTransport)

    def test_auto_refuses_a_foreign_file(self, tmp_path):
        path = tmp_path / "not-a-queue.sqlite"
        path.write_text("just some text")
        with pytest.raises(QueueCorrupt, match="is not a SQLite queue database"):
            resolve_transport(str(path))

    def test_transport_instances_pass_through(self, tmp_path):
        transport = SqliteTransport(str(tmp_path / "q.sqlite"))
        assert resolve_transport(transport) is transport

    def test_auto_detects_a_coordinator_url(self):
        # construction is lazy: no coordinator needs to be listening just to
        # resolve the kind from the URL scheme
        assert isinstance(resolve_transport("http://127.0.0.1:1"), HttpTransport)
        assert isinstance(resolve_transport("https://example.org/queue"), HttpTransport)
        assert isinstance(resolve_transport("http://127.0.0.1:1", "http"), HttpTransport)

    def test_http_kind_rejects_a_non_url(self, tmp_path):
        with pytest.raises(ValueError, match="http"):
            resolve_transport(str(tmp_path / "q.sqlite"), "http")

    @pytest.mark.parametrize(
        "entry", ["enqueue", "work", "collect", "status", "progress", "reclaim"]
    )
    def test_leftover_directory_queue_fails_every_entry_point(self, tmp_path, entry):
        spec = tiny_spec()
        queue = tmp_path / "QUEUE_queued"
        (queue / "tasks").mkdir(parents=True)
        task = queue / "tasks" / "task-000000.json"
        task.write_text(json.dumps(spec.expand()[0].to_json_dict()))
        calls = {
            "enqueue": lambda q: enqueue_sweep(spec, q),
            "work": lambda q: work_queue(q, worker_id="w0"),
            "collect": lambda q: collect_queue(q, str(tmp_path)),
            "status": queue_status,
            "progress": queue_progress,
            "reclaim": lambda q: reclaim_stale(q, stale_after=1.0),
        }
        with pytest.raises(QueueCorrupt, match="directory transport was removed"):
            calls[entry](str(queue))
        # the leftover queue is left exactly as the old build wrote it
        assert sorted(os.listdir(str(tmp_path))) == ["QUEUE_queued"]
        assert os.listdir(str(queue / "tasks")) == ["task-000000.json"]
        assert json.loads(task.read_text()) == spec.expand()[0].to_json_dict()

    @pytest.mark.parametrize("forced", ["dir", "http"])
    def test_enqueue_refuses_an_unusable_kind_before_touching_the_queue(self, tmp_path, forced):
        with pytest.raises(ValueError):
            enqueue_sweep(tiny_spec(), str(tmp_path / "q.sqlite"), kind=forced)
        assert os.listdir(str(tmp_path)) == []


class TestEnqueue:
    def test_enqueue_materialises_every_run_as_a_task(self, tmp_path, kind):
        spec = tiny_spec()
        queue = make_queue(tmp_path, kind, spec)
        counts = enqueue_sweep(spec, queue, kind=kind)
        assert counts == {"enqueued": 4, "already_done": 0}
        status = queue_status(queue)
        assert status == {"tasks": 4, "leases": 0, "shards": 0, "corrupt": 0}
        assert load_queue_spec(queue) == spec
        # tasks parse back to the exact expansion
        runs = []
        while True:
            claim = claim_next(queue, "w0")
            if claim is None:
                break
            assert isinstance(claim, Claim)
            runs.append(claim.run)
        assert runs == spec.expand()

    def test_enqueue_refuses_unknown_solver_options_before_touching_the_queue(self, tmp_path):
        spec = tiny_spec(solver_options={"engine_cache_dir": str(tmp_path / "cache")})
        queue = queue_db_path(str(tmp_path), spec.name)
        with pytest.raises(ValueError, match="unsupported solver_options \\['engine_cache_dir'\\]"):
            enqueue_sweep(spec, queue)
        assert os.listdir(str(tmp_path)) == []

    def test_enqueue_refuses_a_busy_queue(self, tmp_path, kind):
        spec = tiny_spec()
        queue = make_queue(tmp_path, kind, spec)
        enqueue_sweep(spec, queue, kind=kind)
        with pytest.raises(ValueError, match="outstanding"):
            enqueue_sweep(spec, queue)

    def test_enqueue_refuses_a_different_spec(self, tmp_path, kind):
        spec = tiny_spec()
        queue = make_queue(tmp_path, kind, spec)
        enqueue_sweep(spec, queue, kind=kind)
        with pytest.raises(ValueError, match="different sweep configuration"):
            enqueue_sweep(spec.with_overrides(seed=7), queue)

    def test_reenqueue_of_a_drained_queue_retries_errors_only(self, tmp_path, kind):
        spec = faulty_spec()
        queue = make_queue(tmp_path, kind, spec)
        enqueue_sweep(spec, queue, kind=kind)
        work_queue(queue, worker_id="w0")
        counts = enqueue_sweep(spec, queue)  # 2 ok rows stay done, 2 errors retry
        assert counts == {"enqueued": 2, "already_done": 2}
        status = queue_status(queue)
        assert status["tasks"] == 2


class TestClaimAndLease:
    def test_claim_is_exactly_once(self, tmp_path, kind):
        spec = tiny_spec()
        queue = make_queue(tmp_path, kind, spec)
        enqueue_sweep(spec, queue, kind=kind)
        seen = set()
        for worker in ("a", "b", "a", "b", "a"):
            claim = claim_next(queue, worker)
            if claim is None:
                break
            assert claim.run.index not in seen
            seen.add(claim.run.index)
        assert seen == {0, 1, 2, 3}
        assert claim_next(queue, "c") is None

    def test_fresh_leases_are_not_reclaimed(self, tmp_path, kind):
        spec = tiny_spec()
        queue = make_queue(tmp_path, kind, spec)
        enqueue_sweep(spec, queue, kind=kind)
        claim_next(queue, "w0")
        assert reclaim_stale(queue, stale_after=60.0) == 0
        assert queue_status(queue)["leases"] == 1

    def test_stale_lease_is_reclaimed_and_reexecuted(self, tmp_path, kind):
        spec = tiny_spec()
        queue = make_queue(tmp_path, kind, spec)
        enqueue_sweep(spec, queue, kind=kind)
        claim_next(queue, "dead")
        force_stale(queue, kind)  # the holder died; its heartbeat froze
        assert reclaim_stale(queue, stale_after=10.0) == 1
        status = queue_status(queue)
        assert (status["tasks"], status["leases"]) == (4, 0)
        # a live worker drains everything, including the reclaimed run
        stats = work_queue(queue, worker_id="alive")
        assert stats["executed"] == 4
        _, payload = collect_queue(queue, str(tmp_path))
        _, baseline = run_sweep(spec, workers=1, out_dir=None)
        assert rows_bytes(payload) == rows_bytes(baseline)

    def test_lease_clock_starts_at_the_claim_not_at_enqueue(self, tmp_path, kind, monkeypatch):
        # a task that waited an hour in the queue is not stale the moment it
        # is claimed: liveness is stamped by the claim, not by the enqueue
        from repro.experiments.transports import sqlite as sqlite_mod

        clock = {"t": 1000.0}
        monkeypatch.setattr(sqlite_mod, "_now", lambda: clock["t"])
        spec = tiny_spec()
        queue = make_queue(tmp_path, kind, spec)
        enqueue_sweep(spec, queue, kind=kind)
        clock["t"] += 3600.0
        claim = claim_next(queue, "w0")
        assert isinstance(claim, Claim)
        (entry,) = lease_report(queue)
        assert entry["age_seconds"] == pytest.approx(0.0)
        assert reclaim_stale(queue, stale_after=60.0) == 0
        clock["t"] += 61.0
        assert reclaim_stale(queue, stale_after=60.0) == 1

    def test_restarted_worker_recovers_a_record_appended_before_it_died(self, tmp_path, kind):
        # the worker journaled its record but died before releasing the
        # lease; restarted under the same id it reclaims and re-executes the
        # run, and the duplicate record collapses into one row
        spec = tiny_spec()
        queue = make_queue(tmp_path, kind, spec)
        enqueue_sweep(spec, queue, kind=kind)
        transport = resolve_transport(queue)
        claim = transport.claim_next("w0")
        assert isinstance(claim, Claim)
        transport.prepare_shard(spec, "w0")
        transport.append_record(spec, "w0", execute_run_safe(claim.run))
        transport.close()
        force_stale(queue, kind)
        stats = work_queue(queue, worker_id="w0")
        assert stats["reclaimed"] == 1 and stats["executed"] == 4
        progress = queue_progress(queue)
        assert [(w["worker"], w["records"]) for w in progress["workers"]] == [("w0", 4)]
        _, payload = collect_queue(queue, str(tmp_path))
        _, baseline = run_sweep(spec, workers=1, out_dir=None)
        assert rows_bytes(payload) == rows_bytes(baseline)


class TestCorruptQuarantine:
    """The corrupt-task lease bugfix: quarantine instead of the old
    crash-holding-the-lease → stale-reclaim → crash-again ping-pong."""

    def test_corrupt_task_is_quarantined_and_queue_drains(self, tmp_path, kind):
        spec = tiny_spec()
        queue = make_queue(tmp_path, kind, spec)
        enqueue_sweep(spec, queue, kind=kind)
        plant_corrupt_task(queue, kind)
        stats = work_queue(queue, worker_id="w0")
        # the queue drained around the corrupt task instead of crashing
        assert stats["executed"] == 3
        assert stats["corrupt"] == 1
        status = queue_status(queue)
        assert status["tasks"] == 0
        assert status["leases"] == 0
        assert status["corrupt"] == 1
        reports = corrupt_report(queue)
        assert len(reports) == 1
        assert isinstance(reports[0], CorruptTask)
        assert reports[0].reason

    def test_claim_next_surfaces_the_quarantine(self, tmp_path, kind):
        spec = tiny_spec()
        queue = make_queue(tmp_path, kind, spec)
        enqueue_sweep(spec, queue, kind=kind)
        plant_corrupt_task(queue, kind)
        claim = claim_next(queue, "w0")
        assert isinstance(claim, CorruptTask)
        # the quarantined task is out of the claimable set: no lease exists,
        # so no reclaim ping-pong can ever start
        assert queue_status(queue)["leases"] == 0
        assert reclaim_stale(queue, stale_after=0.001) == 0
        nxt = claim_next(queue, "w0")
        assert isinstance(nxt, Claim)

    def test_collect_refuses_a_quarantined_queue_naming_tasks(self, tmp_path, kind):
        spec = tiny_spec()
        queue = make_queue(tmp_path, kind, spec)
        enqueue_sweep(spec, queue, kind=kind)
        plant_corrupt_task(queue, kind)
        work_queue(queue, worker_id="w0")
        with pytest.raises(QueueCorrupt, match="quarantined 1 corrupt task"):
            collect_queue(queue, str(tmp_path))

    def test_reenqueue_reissues_quarantined_tasks(self, tmp_path, kind):
        spec = tiny_spec()
        queue = make_queue(tmp_path, kind, spec)
        enqueue_sweep(spec, queue, kind=kind)
        plant_corrupt_task(queue, kind)
        work_queue(queue, worker_id="w0")
        counts = enqueue_sweep(spec, queue)
        assert counts == {"enqueued": 1, "already_done": 3}
        assert corrupt_report(queue) == []
        work_queue(queue, worker_id="w1")
        _, payload = collect_queue(queue, str(tmp_path))
        _, baseline = run_sweep(spec, workers=1, out_dir=None)
        assert rows_bytes(payload) == rows_bytes(baseline)

    def test_work_cli_reports_quarantine_once_and_exits_nonzero(self, tmp_path, kind, capsys):
        spec = tiny_spec()
        queue = make_queue(tmp_path, kind, spec)
        enqueue_sweep(spec, queue, kind=kind)
        plant_corrupt_task(queue, kind)
        assert cli_main(["work", queue, "--worker-id", "w0"]) == 1
        captured = capsys.readouterr()
        assert "executed 3 task(s)" in captured.out
        assert captured.err.count("CORRUPT:") == 1
        assert "re-enqueue" in captured.err


class TestCollectBusy:
    """The collect-with-live-lease bugfix: a covered expansion plus an
    outstanding lease (a reclaim-after-append duplicate still executing)
    refuses collect unless forced."""

    def _covered_queue_with_live_lease(self, tmp_path, kind):
        spec = tiny_spec()
        queue = make_queue(tmp_path, kind, spec)
        enqueue_sweep(spec, queue, kind=kind)
        work_queue(queue, worker_id="w0")
        # simulate the reclaim-after-append state: the run's record is in
        # w0's shard, but a re-issued task for it is claimed and live
        resolve_transport(queue).enqueue([spec.expand()[0]])
        claim = claim_next(queue, "w-live")
        assert isinstance(claim, Claim)
        return spec, queue

    def test_collect_refuses_while_a_lease_is_live(self, tmp_path, kind):
        _, queue = self._covered_queue_with_live_lease(tmp_path, kind)
        with pytest.raises(QueueBusy, match="live lease"):
            collect_queue(queue, str(tmp_path))

    def test_force_collects_the_covered_rows(self, tmp_path, kind):
        spec, queue = self._covered_queue_with_live_lease(tmp_path, kind)
        _, payload = collect_queue(queue, str(tmp_path), force=True)
        _, baseline = run_sweep(spec, workers=1, out_dir=None)
        assert rows_bytes(payload) == rows_bytes(baseline)

    def test_collect_cli_force_warns_but_succeeds(self, tmp_path, kind, capsys):
        _, queue = self._covered_queue_with_live_lease(tmp_path, kind)
        assert cli_main(["collect", queue, "--out", str(tmp_path)]) == 1
        assert "live lease" in capsys.readouterr().err
        assert cli_main(["collect", queue, "--out", str(tmp_path), "--force"]) == 0
        assert "warning: collected with 1 live lease(s)" in capsys.readouterr().err

    def test_incomplete_beats_busy_in_the_error_report(self, tmp_path, kind):
        # with records actually missing the error must say *incomplete*
        # (run more workers), not busy (wait) — the actionable message wins
        spec = tiny_spec()
        queue = make_queue(tmp_path, kind, spec)
        enqueue_sweep(spec, queue, kind=kind)
        claim = claim_next(queue, "w-live")
        assert isinstance(claim, Claim)
        with pytest.raises(QueueIncomplete, match="1 outstanding lease"):
            collect_queue(queue, str(tmp_path))


class TestLeaseTimings:
    """The heartbeat-default bugfix: 'every few seconds', never a quarter of
    the staleness threshold; degenerate timings rejected up front."""

    def test_default_heartbeat_is_a_tenth_capped_at_five_seconds(self):
        assert default_heartbeat(300.0) == 5.0  # was 75 s (stale/4)
        assert default_heartbeat(20.0) == 2.0
        assert default_heartbeat(1.2) == pytest.approx(0.12)

    def test_validate_rejects_degenerate_timings(self):
        with pytest.raises(ValueError, match="stale-after must be positive"):
            validate_lease_timings(0.0, 1.0, None)
        with pytest.raises(ValueError, match="stale-after must be positive"):
            validate_lease_timings(-5.0, 1.0, None)
        with pytest.raises(ValueError, match="poll must be positive"):
            validate_lease_timings(300.0, 0.0, None)
        with pytest.raises(ValueError, match="heartbeat"):
            validate_lease_timings(300.0, 1.0, 300.0)  # heartbeat == stale
        with pytest.raises(ValueError, match="heartbeat"):
            validate_lease_timings(300.0, 1.0, 0.0)
        validate_lease_timings(300.0, 1.0, 5.0)  # sane values pass

    def test_work_queue_rejects_zero_stale_after(self, tmp_path, kind):
        spec = tiny_spec()
        queue = make_queue(tmp_path, kind, spec)
        enqueue_sweep(spec, queue, kind=kind)
        with pytest.raises(ValueError, match="stale-after"):
            work_queue(queue, worker_id="w0", stale_after=0.0)

    def test_work_cli_rejects_nonpositive_timings_at_parse_time(self, tmp_path, capsys):
        for flags in (["--stale-after", "0"], ["--poll", "-1"], ["--heartbeat", "0"]):
            with pytest.raises(SystemExit):
                cli_main(["work", str(tmp_path)] + flags)
            assert "positive" in capsys.readouterr().err

    def test_work_cli_rejects_heartbeat_at_or_past_stale_after(self, tmp_path, kind, capsys):
        spec = tiny_spec()
        queue = make_queue(tmp_path, kind, spec)
        enqueue_sweep(spec, queue, kind=kind)
        assert cli_main(["work", queue, "--stale-after", "10", "--heartbeat", "10"]) == 1
        assert "heartbeat" in capsys.readouterr().err


class TestWorkAndCollect:
    def test_single_worker_queue_matches_run(self, tmp_path, kind):
        spec = tiny_spec()
        queue = make_queue(tmp_path, kind, spec)
        enqueue_sweep(spec, queue, kind=kind)
        stats = work_queue(queue, worker_id="solo")
        assert stats == {"executed": 4, "errors": 0, "reclaimed": 0, "corrupt": 0}
        path, payload = collect_queue(queue, str(tmp_path))
        _, baseline = run_sweep(spec, workers=1, out_dir=None)
        assert rows_bytes(payload) == rows_bytes(baseline)
        assert rows_bytes(load_bench(path)) == rows_bytes(baseline)

    def test_two_alternating_workers_match_run(self, tmp_path, kind):
        spec = tiny_spec()
        queue = make_queue(tmp_path, kind, spec)
        enqueue_sweep(spec, queue, kind=kind)
        # interleave two workers one task at a time: four shard-wise splits
        executed = 0
        while executed < 4:
            for worker in ("w1", "w2"):
                executed += work_queue(queue, worker_id=worker, max_tasks=1)["executed"]
        assert queue_status(queue)["shards"] == 2
        _, payload = collect_queue(queue, str(tmp_path))
        _, baseline = run_sweep(spec, workers=1, out_dir=None)
        assert rows_bytes(payload) == rows_bytes(baseline)

    def test_noisy_sweep_distributed_matches_run(self, tmp_path, kind):
        # The noise-channel determinism drill: corrupted answers derive from
        # the per-run seed, never from which worker executes the run, so a
        # noisy 2-worker work/collect is byte-identical to the
        # single-process `run` on both transports.
        spec = SweepSpec.from_grid(
            "queued-noisy",
            "dihedral_rotation",
            {
                "n": [8, 12],
                "noise": ["oracle-flip(0.3)"],
                "strategy": ["hidden_normal", "classical_adaptive"],
            },
            repeats=2,
            seed=SEED,
        )
        queue = make_queue(tmp_path, kind, spec)
        enqueue_sweep(spec, queue, kind=kind)
        executed = 0
        while executed < len(spec.expand()):
            for worker in ("w1", "w2"):
                executed += work_queue(queue, worker_id=worker, max_tasks=1)["executed"]
        _, payload = collect_queue(queue, str(tmp_path))
        _, baseline = run_sweep(spec, workers=1, out_dir=None)
        assert rows_bytes(payload) == rows_bytes(baseline)
        statuses = {row["status"] for row in payload["rows"]}
        assert "error" not in statuses

    def test_error_rows_flow_through_the_queue(self, tmp_path, kind):
        spec = faulty_spec()
        queue = make_queue(tmp_path, kind, spec)
        enqueue_sweep(spec, queue, kind=kind)
        stats = work_queue(queue, worker_id="w0")
        assert stats["executed"] == 4 and stats["errors"] == 2
        _, payload = collect_queue(queue, str(tmp_path))
        _, baseline = run_sweep(spec, workers=1, out_dir=None)
        assert rows_bytes(payload) == rows_bytes(baseline)
        assert payload["aggregate"]["errors"] == 2

    def test_task_with_an_unknown_solver_option_becomes_an_error_row(self, tmp_path, kind):
        # a task edited into the queue bypasses expansion; the runner still
        # refuses its options, naming the key, and the queue drains
        spec = tiny_spec()
        queue = make_queue(tmp_path, kind, spec)
        enqueue_sweep(spec, queue, kind=kind)
        con = resolve_transport(backing_db(queue))._connect()
        ((idx, run_json),) = con.execute(
            "SELECT idx, run_json FROM tasks WHERE idx = (SELECT MIN(idx) FROM tasks)"
        ).fetchall()
        task = json.loads(run_json)
        task["solver_options"] = {"engine_cache_dir": "cayley"}
        con.execute("UPDATE tasks SET run_json = ? WHERE idx = ?", (json.dumps(task), idx))
        stats = work_queue(queue, worker_id="w0")
        assert stats == {"executed": 4, "errors": 1, "reclaimed": 0, "corrupt": 0}
        _, payload = collect_queue(queue, str(tmp_path))
        (failed,) = [row for row in payload["rows"] if row["status"] == "error"]
        assert "unsupported solver_options ['engine_cache_dir']" in failed["error"]
        assert payload["aggregate"]["errors"] == 1

    def test_collect_refuses_an_incomplete_queue(self, tmp_path, kind):
        spec = tiny_spec()
        queue = make_queue(tmp_path, kind, spec)
        enqueue_sweep(spec, queue, kind=kind)
        work_queue(queue, worker_id="w0", max_tasks=2)
        with pytest.raises(QueueIncomplete, match=r"2 run\(s\) have no journaled record"):
            collect_queue(queue, str(tmp_path))

    def test_collect_refuses_foreign_shard_records(self, tmp_path, kind):
        spec = tiny_spec()
        queue = make_queue(tmp_path, kind, spec)
        enqueue_sweep(spec, queue, kind=kind)
        work_queue(queue, worker_id="w0")
        rogue = RunRecord(
            sweep=spec.name, index=99, family="dihedral_rotation", params={"n": 8},
            repeat=0, seed=1, strategy="auto", success=True, generators=[], query_report={},
        )
        resolve_transport(queue).append_record(spec, "w0", rogue)
        with pytest.raises(QueueCorrupt, match="outside the pinned sweep expansion"):
            collect_queue(queue, str(tmp_path))

    def test_duplicate_records_across_shards_dedup_preferring_ok(self, tmp_path, kind):
        spec = faulty_spec()
        queue = make_queue(tmp_path, kind, spec)
        enqueue_sweep(spec, queue, kind=kind)
        work_queue(queue, worker_id="w0")
        # a reclaimed-after-append duplicate: the same runs journaled again
        # by a second worker, with one legitimate error row flipped to ok —
        # the merge must prefer the ok record wherever one exists
        transport = resolve_transport(queue)
        streams = dict(transport.record_streams(spec))
        (records,) = streams.values()
        import dataclasses

        transport.prepare_shard(spec, "w1")
        for key, record in sorted(records.items()):
            if record.status == "error":
                record = dataclasses.replace(record, status="ok", error=None, success=True)
            transport.append_record(spec, "w1", record)
        streams = [recs for _, recs in transport.record_streams(spec)]
        merged = merge_record_streams(streams)
        assert len(merged) == 4
        assert all(record.status == "ok" for record in merged.values())
        # and the reverse shard order makes no difference
        reversed_merge = merge_record_streams(reversed(streams))
        assert {k: v.row() for k, v in merged.items()} == {
            k: v.row() for k, v in reversed_merge.items()
        }


class TestSqliteSpecifics:
    def test_database_runs_in_wal_mode(self, tmp_path):
        spec = tiny_spec()
        queue = queue_db_path(str(tmp_path), spec.name)
        enqueue_sweep(spec, queue, kind="sqlite")
        (mode,) = resolve_transport(queue)._connect().execute("PRAGMA journal_mode").fetchone()
        assert mode == "wal"

    def test_record_rows_store_journal_identical_lines(self, tmp_path):
        # the byte-identity contract rests on both transports serializing
        # records to the exact same sorted-key JSON form
        spec = tiny_spec()
        queue = queue_db_path(str(tmp_path), spec.name)
        enqueue_sweep(spec, queue, kind="sqlite")
        work_queue(queue, worker_id="w0", max_tasks=1)
        (line,) = resolve_transport(queue)._connect().execute(
            "SELECT record_json FROM records"
        ).fetchone()
        record = RunRecord.from_json_dict(json.loads(line))
        assert json.dumps(record.to_json_dict(), sort_keys=True) == line

    def test_wrong_layout_version_is_refused(self, tmp_path):
        spec = tiny_spec()
        queue = queue_db_path(str(tmp_path), spec.name)
        enqueue_sweep(spec, queue, kind="sqlite")
        resolve_transport(queue)._connect().execute(
            "UPDATE meta SET value = '999' WHERE key = 'queue_version'"
        )
        with pytest.raises(QueueCorrupt, match="layout version"):
            load_queue_spec(queue)

    def test_unparseable_record_row_stops_that_shard_stream(self, tmp_path):
        # mirror of the journal torn-line contract: a hand-edited record row
        # ends that shard at the last good record instead of crashing
        spec = tiny_spec()
        queue = queue_db_path(str(tmp_path), spec.name)
        enqueue_sweep(spec, queue, kind="sqlite")
        work_queue(queue, worker_id="w0")
        resolve_transport(queue)._connect().execute(
            "UPDATE records SET record_json = 'garbage' WHERE seq = 2"
        )
        with pytest.raises(QueueIncomplete, match=r"2 run\(s\)"):
            collect_queue(queue, str(tmp_path))

    def test_missing_database_is_a_corrupt_queue(self, tmp_path):
        with pytest.raises(QueueCorrupt, match="does not exist"):
            work_queue(str(tmp_path / "no-such.sqlite"), worker_id="w0")


class TestKillAWorker:
    def _spawn_worker(self, queue, worker_id):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.Popen(
            [
                sys.executable, "-m", "repro.experiments", "work", queue,
                "--worker-id", worker_id,
                "--stale-after", "1.2", "--poll", "0.1", "--heartbeat", "0.25",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )

    def _live_leases(self, queue, kind):
        rows = resolve_transport(backing_db(queue))._connect().execute(
            "SELECT worker FROM tasks WHERE status = 'running'"
        ).fetchall()
        return [worker for (worker,) in rows]

    def test_sigkilled_worker_loses_nothing(self, tmp_path, kind):
        # 3 workers on one queue; one is SIGKILLed mid-task.  Its lease must
        # go stale and be reclaimed, a survivor re-executes the run, and the
        # collected BENCH rows are byte-identical to an uninterrupted
        # single-process run.  The diagnostic family's `delay` parameter
        # guarantees a wide mid-task window to land the kill in.
        spec = SweepSpec.from_grid(
            "kill-drill",
            "diagnostic_fault",
            {"n": [8], "delay": [0.4]},
            repeats=6,
            seed=SEED,
        )
        queue = make_queue(tmp_path, kind, spec)
        enqueue_sweep(spec, queue, kind=kind)
        workers = {wid: self._spawn_worker(queue, wid) for wid in ("w0", "w1", "w2")}
        victim = None
        deadline = time.time() + 20.0
        while time.time() < deadline:
            held = self._live_leases(queue, kind)
            if held:
                victim = held[0]
                break
            time.sleep(0.005)
        assert victim is not None, "no worker ever claimed a task"
        workers[victim].send_signal(signal.SIGKILL)
        workers[victim].wait(timeout=30)
        survivor_output = []
        for wid, proc in workers.items():
            if wid == victim:
                continue
            out, _ = proc.communicate(timeout=90)
            survivor_output.append(out)
            assert proc.returncode == 0, out
        assert queue_status(queue)["tasks"] == 0
        assert queue_status(queue)["leases"] == 0, "the dead worker's lease must be reclaimed"
        path, payload = collect_queue(queue, str(tmp_path))
        _, baseline = run_sweep(spec, workers=1, out_dir=None)
        assert rows_bytes(payload) == rows_bytes(baseline)
        assert rows_bytes(load_bench(path)) == rows_bytes(baseline)
        assert payload["aggregate"]["runs"] == 6
        assert payload["aggregate"]["errors"] == 0


class TestLedgerDivergence:
    def _completed_bench_with_journal(self, tmp_path, mutate):
        spec = tiny_spec("diverge")
        path, payload = run_sweep(spec, workers=1, out_dir=str(tmp_path))
        # resurrect the journal as if the process crashed between write_bench
        # and remove_journal, then apply `mutate` to the payload rows to
        # fabricate the disagreement
        jpath = journal_path(str(tmp_path), "diverge")
        write_journal_header(jpath, spec)
        for row in payload["rows"]:
            entry = dict(row)
            entry["sweep"] = spec.name
            entry["wall_time_seconds"] = 0.0
            record = RunRecord.from_json_dict(entry)
            append_journal(jpath, record)
        mutated = json.loads(json.dumps(payload))
        mutate(mutated)
        write_bench(str(tmp_path), "diverge", mutated)
        return path

    def test_agreeing_journal_is_accepted(self, tmp_path):
        path = self._completed_bench_with_journal(tmp_path, lambda payload: None)
        assert cli_main(["report", "diverge", "--out", str(tmp_path)]) == 0

    def test_divergent_journal_fails_report_naming_pairs(self, tmp_path, capsys):
        def flip(payload):
            payload["rows"][1]["success"] = not payload["rows"][1]["success"]

        self._completed_bench_with_journal(tmp_path, flip)
        assert cli_main(["report", "diverge", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "disagree" in err
        assert "(1," in err  # the divergent (index, seed) pair is named

    def test_divergent_journal_fails_summarise(self, tmp_path, capsys):
        def flip(payload):
            payload["rows"][0]["query_report"]["quantum_queries"] = 10**6

        self._completed_bench_with_journal(tmp_path, flip)
        assert cli_main(["summarise", "diverge", "--out", str(tmp_path)]) == 1
        assert "disagree" in capsys.readouterr().err

    def test_journal_of_a_different_spec_is_divergence(self, tmp_path):
        spec = tiny_spec("diverge2")
        _, payload = run_sweep(spec, workers=1, out_dir=str(tmp_path))
        jpath = journal_path(str(tmp_path), "diverge2")
        write_journal_header(jpath, spec.with_overrides(seed=99))
        with pytest.raises(LedgerDivergence, match="different sweep configuration"):
            check_journal_agreement(payload, jpath, path="BENCH_diverge2.json")


class TestQueueCLI:
    def test_enqueue_work_collect_lifecycle(self, tmp_path, kind, capsys):
        out = str(tmp_path)
        queue, enqueue_argv = cli_queue_args(tmp_path, kind)
        assert cli_main(enqueue_argv) == 0
        assert "enqueued 6 task(s)" in capsys.readouterr().out
        assert cli_main(["work", queue, "--worker-id", "w1", "--max-tasks", "3"]) == 0
        assert cli_main(["work", queue, "--worker-id", "w2"]) == 0
        assert cli_main(["collect", queue, "--out", out]) == 0
        captured = capsys.readouterr().out
        assert "6 runs" in captured
        assert os.path.exists(os.path.join(out, "BENCH_queue-smoke.json"))

    def test_enqueue_queue_db_overrides_location(self, tmp_path):
        db = str(tmp_path / "nested" / "my-queue.db")
        assert cli_main(["enqueue", "queue-smoke", "--queue-db", db]) == 0
        assert os.path.exists(db)
        assert queue_status(db)["tasks"] == 6
        assert load_queue_spec(db).name == "queue-smoke"

    def test_collect_incomplete_queue_exits_nonzero(self, tmp_path, capsys):
        out = str(tmp_path)
        queue = os.path.join(out, "QUEUE_queue-smoke.sqlite")
        assert cli_main(["enqueue", "queue-smoke", "--out", out]) == 0
        assert cli_main(["collect", queue, "--out", out]) == 1
        assert "incomplete" in capsys.readouterr().err

    def test_enqueue_unknown_workload_exits_nonzero(self, tmp_path, capsys):
        assert cli_main(["enqueue", "no-such-sweep", "--out", str(tmp_path)]) == 1
        assert "unknown workload" in capsys.readouterr().err

    def test_work_on_a_non_queue_exits_nonzero(self, tmp_path, capsys):
        assert cli_main(["work", str(tmp_path / "no-such.sqlite")]) == 1
        assert "does not exist" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["work", "collect", "status"])
    def test_leftover_directory_queue_fails_before_any_run(self, tmp_path, command, capsys):
        queue = tmp_path / "QUEUE_queue-smoke"
        (queue / "tasks").mkdir(parents=True)
        assert cli_main([command, str(queue)]) == 1
        assert "directory transport was removed" in capsys.readouterr().err
        assert sorted(os.listdir(str(tmp_path))) == ["QUEUE_queue-smoke"]

    def test_enqueue_into_a_leftover_directory_exits_nonzero(self, tmp_path, capsys):
        queue = tmp_path / "QUEUE_queue-smoke"
        (queue / "tasks").mkdir(parents=True)
        assert cli_main(["enqueue", "queue-smoke", "--queue-db", str(queue)]) == 1
        assert "directory transport was removed" in capsys.readouterr().err
        assert os.listdir(str(queue)) == ["tasks"]
        assert os.listdir(str(queue / "tasks")) == []

    def test_enqueue_out_defaults_to_a_sqlite_queue_file(self, tmp_path, capsys):
        assert cli_main(["enqueue", "queue-smoke", "--out", str(tmp_path)]) == 0
        assert os.listdir(str(tmp_path)) == ["QUEUE_queue-smoke.sqlite"]
        queue = str(tmp_path / "QUEUE_queue-smoke.sqlite")
        assert isinstance(resolve_transport(queue), SqliteTransport)
        assert queue_status(queue)["tasks"] == 6

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--transport", "sqlite"], "unrecognized arguments: --transport"),
            (["--transport", "dir"], "unrecognized arguments: --transport"),
            (["--transport", "http"], "unrecognized arguments: --transport"),
            (["--queue", "QUEUE_dir"], "ambiguous option: --queue"),
        ],
        ids=["transport-sqlite", "transport-dir", "transport-http", "queue"],
    )
    def test_removed_enqueue_flags_are_rejected_at_parse_time(self, tmp_path, flags, message, capsys):
        with pytest.raises(SystemExit) as info:
            cli_main(["enqueue", "queue-smoke", "--out", str(tmp_path)] + flags)
        assert info.value.code == 2
        assert message in capsys.readouterr().err
        assert os.listdir(str(tmp_path)) == []

    def test_enqueue_with_overrides_round_trips(self, tmp_path, kind):
        queue, enqueue_argv = cli_queue_args(tmp_path, kind)
        assert cli_main(enqueue_argv + ["--repeats", "1", "--seed", "5"]) == 0
        spec = load_queue_spec(queue)
        assert spec.repeats == 1 and spec.seed == 5
        assert queue_status(queue)["tasks"] == 3


class TestStatusObservability:
    """The PR 7 observability surface: transport status parity, lease
    details with heartbeat ages, the heartbeat clock-step regression, and
    the traced-drain byte-identity acceptance check."""

    def test_status_parity_across_all_task_states(self, tmp_path):
        # every transport must report identical counts at every lifecycle
        # stage: pending, quarantined, running, and done-with-shard
        spec = tiny_spec()
        histories = {}
        for kind in TRANSPORTS:
            root = tmp_path / kind
            root.mkdir()
            queue = make_queue(root, kind, spec)
            enqueue_sweep(spec, queue, kind=kind)
            transport = resolve_transport(queue)
            history = [transport.status()]                    # all pending
            plant_corrupt_task(queue, kind)
            first = transport.claim_next("w0")
            assert isinstance(first, CorruptTask)
            history.append(transport.status())                # one quarantined
            claim = transport.claim_next("w0")
            assert isinstance(claim, Claim)
            history.append(transport.status())                # one running
            record = execute_run_safe(claim.run)
            transport.prepare_shard(spec, "w0")
            transport.append_record(spec, "w0", record)
            transport.release(claim)
            history.append(transport.status())                # done + shard
            histories[kind] = history
        assert histories["sqlite"] == histories["http"]
        assert histories["sqlite"] == [
            {"tasks": 4, "leases": 0, "shards": 0, "corrupt": 0},
            {"tasks": 3, "leases": 0, "shards": 0, "corrupt": 1},
            {"tasks": 2, "leases": 1, "shards": 0, "corrupt": 1},
            {"tasks": 2, "leases": 0, "shards": 1, "corrupt": 1},
        ]

    def test_lease_details_name_holder_and_age(self, tmp_path, kind):
        spec = tiny_spec()
        queue = make_queue(tmp_path, kind, spec)
        enqueue_sweep(spec, queue, kind=kind)
        assert lease_report(queue) == []
        claim = claim_next(queue, "w-obs")
        (entry,) = lease_report(queue)
        assert entry["task_id"] == claim.task_id
        assert entry["worker"] == "w-obs"
        assert 0.0 <= entry["age_seconds"] < 60.0
        force_stale(queue, kind, age=900.0)
        (aged,) = lease_report(queue)
        assert aged["age_seconds"] > 800.0
        # purely observational: reading details must not touch liveness
        assert reclaim_stale(queue, stale_after=600.0) == 1

    def test_sqlite_heartbeat_survives_a_backwards_clock_step(self, tmp_path, monkeypatch):
        # regression: an NTP step back between beats used to rewind
        # heartbeat_at into the stale window, so a *live* lease was
        # reclaimed out from under its holder
        from repro.experiments.transports import sqlite as sqlite_mod

        spec = tiny_spec()
        queue = make_queue(tmp_path, "sqlite", spec)
        enqueue_sweep(spec, queue, kind="sqlite")
        transport = resolve_transport(queue)
        clock = {"t": 1000.0}
        monkeypatch.setattr(sqlite_mod, "_now", lambda: clock["t"])
        claim = transport.claim_next("w0")
        assert isinstance(claim, Claim)
        assert transport.heartbeat(claim)
        clock["t"] = 400.0                      # wall clock steps back 10 min
        assert transport.heartbeat(claim)       # stamp must not rewind
        clock["t"] = 1005.0
        (entry,) = transport.lease_details()
        assert entry["age_seconds"] == pytest.approx(5.0)
        assert transport.reclaim_stale(300.0) == 0  # the live lease survives
        clock["t"] = 1400.0                     # now genuinely silent
        assert transport.reclaim_stale(300.0) == 1

    def test_queue_progress_reports_per_worker_records(self, tmp_path, kind):
        spec = tiny_spec()
        queue = make_queue(tmp_path, kind, spec)
        enqueue_sweep(spec, queue, kind=kind)
        work_queue(queue, worker_id="w1", max_tasks=3)
        work_queue(queue, worker_id="w2")
        progress = queue_progress(queue)
        assert progress["name"] == spec.name
        assert progress["expected"] == 4 and progress["covered"] == 4
        assert progress["errors"] == 0
        by_worker = {entry["worker"]: entry["records"] for entry in progress["workers"]}
        assert by_worker == {"w1": 3, "w2": 1}

    def test_progress_reports_worker_ids_verbatim(self, tmp_path, kind):
        # shard ids are the (sanitized) worker ids on both transports: a
        # worker named like an old shard file keeps its name
        spec = tiny_spec()
        queue = make_queue(tmp_path, kind, spec)
        enqueue_sweep(spec, queue, kind=kind)
        work_queue(queue, worker_id="shard-w1.jsonl", max_tasks=1)
        work_queue(queue, worker_id="host-2/pid 7")
        progress = queue_progress(queue)
        by_worker = {entry["worker"]: entry["records"] for entry in progress["workers"]}
        assert by_worker == {"shard-w1.jsonl": 1, "host-2-pid-7": 3}

    def test_traced_two_worker_drain_matches_untraced_run(self, tmp_path, kind):
        # the PR acceptance check: tracing through work_queue leaves the
        # collected BENCH byte-identical, and the trace covers the solver,
        # sampler, and engine layers plus the worker loop itself
        spec = tiny_spec()
        queue = make_queue(tmp_path, kind, spec)
        enqueue_sweep(spec, queue, kind=kind)
        trace = str(tmp_path / "trace.jsonl")
        executed = 0
        while executed < 4:
            for worker in ("w1", "w2"):
                executed += work_queue(
                    queue, worker_id=worker, max_tasks=1, trace=trace
                )["executed"]
        _, payload = collect_queue(queue, str(tmp_path))
        _, baseline = run_sweep(spec, workers=1, out_dir=None)
        assert rows_bytes(payload) == rows_bytes(baseline)
        summary = summarise_trace(load_trace_events([trace]))
        assert {"w1", "w2"} <= set(summary["workers"])
        names = set(summary["spans"])
        assert {"worker", "task", "run", "sampler.batch", "engine.build"} <= names
        assert any(name.startswith("solver.strategy.") for name in names)
        assert summary["spans"]["worker"]["counters"]["executed"] == 4


class TestStatusCLI:
    def test_status_shows_progress_workers_and_leases(self, tmp_path, kind, capsys):
        spec = tiny_spec()
        queue = make_queue(tmp_path, kind, spec)
        enqueue_sweep(spec, queue, kind=kind)
        work_queue(queue, worker_id="w1", max_tasks=2)
        claim = claim_next(queue, "w2")  # leave one live lease outstanding
        assert isinstance(claim, Claim)
        assert cli_main(["status", queue]) == 0
        out = capsys.readouterr().out
        assert "2/4 run(s) journaled" in out
        assert "w1: 2 record(s)" in out
        assert "held by w2" in out
        assert "STALE" not in out

    def test_status_flags_stale_leases(self, tmp_path, kind, capsys):
        spec = tiny_spec()
        queue = make_queue(tmp_path, kind, spec)
        enqueue_sweep(spec, queue, kind=kind)
        claim_next(queue, "w-dead")
        force_stale(queue, kind, age=900.0)
        assert cli_main(["status", queue]) == 0
        out = capsys.readouterr().out
        assert "held by w-dead" in out
        assert "STALE (reclaimable)" in out

    def test_status_on_a_non_queue_exits_nonzero(self, tmp_path, capsys):
        assert cli_main(["status", str(tmp_path / "nope")]) == 1
        assert capsys.readouterr().err

    def test_status_cli_rejects_nonpositive_stale_after_at_parse_time(self, tmp_path, capsys):
        # the staleness annotation uses the same lease-timing validation as
        # `work`: zero/negative thresholds are argparse errors, not silent
        # every-lease-is-stale reports
        for value in ("0", "-3"):
            with pytest.raises(SystemExit):
                cli_main(["status", str(tmp_path), "--stale-after", value])
            assert "positive" in capsys.readouterr().err

    def test_traced_work_cli_matches_untraced_collect(self, tmp_path, kind, capsys):
        # end-to-end through the CLI: --trace on work never perturbs collect
        out = str(tmp_path)
        queue, enqueue_argv = cli_queue_args(tmp_path, kind)
        trace = os.path.join(out, "trace.jsonl")
        assert cli_main(enqueue_argv) == 0
        assert cli_main(["work", queue, "--worker-id", "w1", "--trace", trace]) == 0
        assert cli_main(["collect", queue, "--out", out]) == 0
        capsys.readouterr()
        from repro.experiments.workloads import get_workload

        _, baseline = run_sweep(get_workload("queue-smoke"), out_dir=None)
        collected = load_bench(os.path.join(out, "BENCH_queue-smoke.json"))
        assert rows_bytes(collected) == rows_bytes(baseline)
        assert cli_main(["trace", "summarise", trace]) == 0
        assert "worker" in capsys.readouterr().out


class TestMergeStatusRanking:
    """The cross-shard merge ranks ``ok > no_convergence > error`` — a
    reclaimed-after-append duplicate can never demote a success to a
    diagnostic row, whatever order the shards enumerate in."""

    _RANK = {"error": 0, "no_convergence": 1, "ok": 2}

    @staticmethod
    def _record(status):
        return RunRecord(
            sweep="merge", index=0, family="dihedral_rotation", params={"n": 8},
            repeat=0, seed=1, strategy="auto", success=status == "ok",
            generators=[], query_report={}, status=status,
            error="boom" if status == "error" else None,
        )

    @pytest.mark.parametrize(
        "first,second",
        list(itertools.permutations(["ok", "no_convergence", "error"], 2)),
    )
    def test_higher_rank_wins_in_either_arrival_order(self, first, second):
        merged = merge_record_streams([
            {(0, 1): self._record(first)},
            {(0, 1): self._record(second)},
        ])
        winner = max(first, second, key=self._RANK.get)
        assert merged[(0, 1)].status == winner

    def test_equal_rank_keeps_the_first_shard_record(self):
        for status in ("ok", "no_convergence", "error"):
            first, duplicate = self._record(status), self._record(status)
            merged = merge_record_streams([{(0, 1): first}, {(0, 1): duplicate}])
            assert merged[(0, 1)] is first

    def test_unknown_statuses_rank_with_error_at_the_bottom(self):
        import dataclasses

        exotic = dataclasses.replace(self._record("error"), status="future-status")
        for other in ("ok", "no_convergence"):
            merged = merge_record_streams([{(0, 1): exotic}, {(0, 1): self._record(other)}])
            assert merged[(0, 1)].status == other
        # against error it is a rank tie, and ties keep the first arrival
        merged = merge_record_streams([{(0, 1): exotic}, {(0, 1): self._record("error")}])
        assert merged[(0, 1)] is exotic


class TestSqliteErrorTranslation:
    """heartbeat/release translate backend failures into QueueCorrupt like
    every other operation — a worker's beat loop sees the transport's
    exception vocabulary, never a raw sqlite3.Error."""

    class _FailingConnection:
        def execute(self, *args, **kwargs):
            raise sqlite3.OperationalError("disk I/O error")

        def close(self):
            pass

    def _claimed_transport(self, tmp_path):
        spec = tiny_spec()
        queue = queue_db_path(str(tmp_path), spec.name)
        enqueue_sweep(spec, queue, kind="sqlite")
        transport = SqliteTransport(queue)
        claim = transport.claim_next("w0")
        assert isinstance(claim, Claim)
        transport.close()
        transport._con = self._FailingConnection()
        return transport, claim

    def test_heartbeat_translates_sqlite_errors(self, tmp_path):
        transport, claim = self._claimed_transport(tmp_path)
        with pytest.raises(QueueCorrupt, match="refused the heartbeat"):
            transport.heartbeat(claim)

    def test_release_translates_sqlite_errors(self, tmp_path):
        transport, claim = self._claimed_transport(tmp_path)
        with pytest.raises(QueueCorrupt, match="refused the release"):
            transport.release(claim)


class TestTransportClose:
    """Transport.close() plumbing: helpers close what they open, so a
    drained SQLite queue leaves no WAL sidecar files behind, and transports
    owned by the caller are never closed out from under them."""

    @staticmethod
    def _sidecars(tmp_path):
        return sorted(
            name for name in os.listdir(str(tmp_path))
            if name.endswith(("-wal", "-shm"))
        )

    def test_drained_cycle_leaves_no_wal_sidecars(self, tmp_path):
        spec = tiny_spec()
        queue = queue_db_path(str(tmp_path), spec.name)
        enqueue_sweep(spec, queue, kind="sqlite")
        work_queue(queue, worker_id="w0")
        collect_queue(queue, str(tmp_path))
        queue_status(queue)
        lease_report(queue)
        queue_progress(queue)
        assert self._sidecars(tmp_path) == []
        assert os.path.exists(queue)

    def test_status_cli_leaves_no_wal_sidecars(self, tmp_path, capsys):
        spec = tiny_spec()
        queue = queue_db_path(str(tmp_path), spec.name)
        enqueue_sweep(spec, queue, kind="sqlite")
        assert cli_main(["status", queue]) == 0
        capsys.readouterr()
        assert self._sidecars(tmp_path) == []

    def test_caller_owned_transports_stay_open(self, tmp_path):
        spec = tiny_spec()
        transport = SqliteTransport(queue_db_path(str(tmp_path), spec.name))
        enqueue_sweep(spec, transport)
        assert transport._con is not None, "helpers must not close a caller's transport"
        assert queue_status(transport)["tasks"] == 4
        assert transport._con is not None
        transport.close()
        assert transport._con is None
        transport.close()  # idempotent


class TestHttpSpecifics:
    """The HTTP coordinator: restart resilience, request hygiene, and the
    version-checked handshake."""

    def _start(self, db, port=0):
        server = make_server(db, "127.0.0.1", port)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        _LIVE_SERVERS.append(server)
        return server

    @staticmethod
    def _url(server):
        host, port = server.server_address[:2]
        return f"http://{host}:{port}"

    def test_make_server_refuses_urls_and_directory_queues(self, tmp_path):
        with pytest.raises(ValueError, match="not a URL"):
            make_server("http://127.0.0.1:8765")
        with pytest.raises(QueueCorrupt, match="directory transport was removed"):
            make_server(str(tmp_path))

    def test_unparseable_record_row_stops_that_shard_stream_over_http(self, tmp_path):
        spec = tiny_spec()
        queue = make_queue(tmp_path, "http", spec)
        enqueue_sweep(spec, queue)
        work_queue(queue, worker_id="w0")
        resolve_transport(backing_db(queue))._connect().execute(
            "UPDATE records SET record_json = 'garbage' WHERE seq = 2"
        )
        with pytest.raises(QueueIncomplete, match=r"2 run\(s\)"):
            collect_queue(queue, str(tmp_path))

    def test_client_retries_through_a_coordinator_restart(self, tmp_path):
        spec = tiny_spec()
        db = queue_db_path(str(tmp_path), spec.name)
        server = self._start(db)
        port = server.server_address[1]
        url = self._url(server)
        enqueue_sweep(spec, url, kind="http")
        transport = HttpTransport(url, backoff=0.05)
        assert transport.status()["tasks"] == 4
        stop_http_server(server)

        def relaunch():
            time.sleep(0.4)
            self._start(db, port=port)

        threading.Thread(target=relaunch, daemon=True).start()
        # issued while the coordinator is down: the client must stall in its
        # backoff loop, reconnect to the relaunched process, and succeed
        assert transport.status()["tasks"] == 4
        transport.close()

    def test_exhausted_retries_surface_as_queue_corrupt(self, tmp_path):
        spec = tiny_spec()
        db = queue_db_path(str(tmp_path), spec.name)
        server = self._start(db)
        url = self._url(server)
        enqueue_sweep(spec, url, kind="http")
        transport = HttpTransport(url, retries=2, backoff=0.01)
        assert transport.status()["tasks"] == 4
        stop_http_server(server)
        with pytest.raises(QueueCorrupt, match="unreachable after 3 attempt"):
            transport.status()

    def test_coordinator_restart_mid_sweep_loses_nothing(self, tmp_path):
        # the acceptance drill: a worker mid-drain survives its coordinator
        # being killed and relaunched on the same port, and the collected
        # rows stay byte-identical to a single-process run
        spec = SweepSpec.from_grid(
            "restart-drill",
            "diagnostic_fault",
            {"n": [8], "delay": [0.3]},
            repeats=4,
            seed=SEED,
        )
        db = queue_db_path(str(tmp_path), spec.name)
        server = self._start(db)
        port = server.server_address[1]
        url = self._url(server)
        enqueue_sweep(spec, url, kind="http")
        outcome = {}

        def drain():
            outcome["stats"] = work_queue(
                url, worker_id="w0", stale_after=60.0, poll=0.1
            )

        worker = threading.Thread(target=drain)
        worker.start()
        time.sleep(0.45)  # inside a task's 0.3 s execution window
        stop_http_server(server)
        time.sleep(0.2)
        self._start(db, port=port)
        worker.join(timeout=120)
        assert not worker.is_alive(), "worker never finished after the restart"
        assert outcome["stats"]["executed"] == 4
        assert outcome["stats"]["errors"] == 0
        _, payload = collect_queue(url, str(tmp_path))
        _, baseline = run_sweep(spec, workers=1, out_dir=None)
        assert rows_bytes(payload) == rows_bytes(baseline)

    def test_malformed_requests_are_rejected_and_the_server_survives(self, tmp_path):
        spec = tiny_spec()
        url = start_http_queue(queue_db_path(str(tmp_path), spec.name))
        enqueue_sweep(spec, url, kind="http")

        def post(path, body, headers=None):
            request = urllib.request.Request(
                f"{url}{path}", data=body, method="POST", headers=headers or {}
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request)
            return excinfo.value.code, json.loads(excinfo.value.read())

        code, payload = post("/api/status", b"{not json")
        assert code == 400 and "malformed request body" in payload["error"]["message"]
        code, payload = post("/api/no-such-op", b"{}")
        assert code == 404
        code, payload = post("/api/heartbeat", b"{}")  # structurally wrong payload
        assert code == 400 and "malformed request payload" in payload["error"]["message"]
        code, payload = post("/elsewhere", b"{}")
        assert code == 404
        code, payload = post("/api/status", b"{}", {"X-Queue-Protocol": "999"})
        assert code == 400 and "protocol" in payload["error"]["message"]
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{url}/api/status")  # GET
        assert excinfo.value.code == 405
        # after all of that abuse the coordinator still serves real clients
        assert queue_status(url)["tasks"] == 4

    def test_oversized_request_is_rejected_unread(self, tmp_path):
        spec = tiny_spec()
        url = start_http_queue(queue_db_path(str(tmp_path), spec.name))
        enqueue_sweep(spec, url, kind="http")
        host, _, port = url[len("http://"):].partition(":")
        connection = http.client.HTTPConnection(host, int(port), timeout=30)
        try:
            # declare a body over the cap but never send it: the refusal must
            # arrive without the server waiting to drain the payload
            connection.putrequest("POST", "/api/status")
            connection.putheader("Content-Length", str(MAX_REQUEST_BYTES + 1))
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 413
            assert "cap" in json.loads(response.read())["error"]["message"]
        finally:
            connection.close()
        assert queue_status(url)["tasks"] == 4

    def test_protocol_version_mismatch_refuses_the_handshake(self, tmp_path, monkeypatch):
        import repro.experiments.transports.http as http_mod

        spec = tiny_spec()
        url = start_http_queue(queue_db_path(str(tmp_path), spec.name))
        enqueue_sweep(spec, url, kind="http")
        monkeypatch.setitem(
            http_mod._OPERATIONS,
            "handshake",
            lambda transport, payload: {
                "protocol": HTTP_PROTOCOL_VERSION + 1,
                "queue_version": 1,
                "backend": transport.kind,
            },
        )
        client = HttpTransport(url)
        with pytest.raises(QueueCorrupt, match="wire protocol"):
            client.status()

    def test_queue_layout_version_mismatch_refuses_the_handshake(self, tmp_path, monkeypatch):
        import repro.experiments.transports.http as http_mod

        spec = tiny_spec()
        url = start_http_queue(queue_db_path(str(tmp_path), spec.name))
        enqueue_sweep(spec, url, kind="http")
        monkeypatch.setitem(
            http_mod._OPERATIONS,
            "handshake",
            lambda transport, payload: {
                "protocol": HTTP_PROTOCOL_VERSION,
                "queue_version": 999,
                "backend": transport.kind,
            },
        )
        client = HttpTransport(url)
        with pytest.raises(QueueCorrupt, match="layout version"):
            client.status()

    def test_handshake_happens_once_per_session(self, tmp_path):
        spec = tiny_spec()
        url = start_http_queue(queue_db_path(str(tmp_path), spec.name))
        enqueue_sweep(spec, url, kind="http")
        client = HttpTransport(url)
        calls = []
        original = client._rpc

        def counting_rpc(operation, payload=None):
            calls.append(operation)
            return original(operation, payload)

        client._rpc = counting_rpc
        client.status()
        client.status()
        client.close()
        assert calls.count("handshake") == 1
        assert calls.count("status") == 2


class TestServeCLI:
    def test_serve_refuses_urls_and_directories(self, tmp_path, capsys):
        assert cli_main(["serve", "http://127.0.0.1:1"]) == 1
        assert "not a URL" in capsys.readouterr().err
        assert cli_main(["serve", str(tmp_path)]) == 1
        assert "directory transport was removed" in capsys.readouterr().err

    def test_serve_lifecycle_end_to_end(self, tmp_path):
        # the full deployment shape: a `serve` subprocess fronts the queue,
        # CLI enqueue/work/collect speak only its URL, and the collected
        # BENCH is byte-identical to a single-process run
        db = queue_db_path(str(tmp_path), "queue-smoke")
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        coordinator = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments", "serve", db, "--port", "0"],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            banner = coordinator.stdout.readline()
            match = re.search(r"http://[0-9.]+:[0-9]+", banner)
            assert match, f"no coordinator URL in banner: {banner!r}"
            url = match.group(0)
            assert "no auth" in banner
            assert cli_main(["enqueue", "queue-smoke", "--queue-url", url]) == 0
            assert cli_main(["work", url, "--worker-id", "w1", "--max-tasks", "3"]) == 0
            assert cli_main(["work", url, "--worker-id", "w2"]) == 0
            assert cli_main(["collect", url, "--out", str(tmp_path)]) == 0
        finally:
            coordinator.terminate()
            coordinator.wait(timeout=30)
        from repro.experiments.workloads import get_workload

        _, baseline = run_sweep(get_workload("queue-smoke"), workers=1, out_dir=None)
        collected = load_bench(os.path.join(str(tmp_path), "BENCH_queue-smoke.json"))
        assert rows_bytes(collected) == rows_bytes(baseline)
        # SIGTERM is a *clean* shutdown: the coordinator closed its SQLite
        # connection, so the WAL sidecars merged back into the database
        sidecars = [
            name for name in os.listdir(str(tmp_path))
            if name.endswith(("-wal", "-shm"))
        ]
        assert sidecars == [], f"coordinator left WAL sidecars: {sidecars}"
