"""The three workloads: set-up, one pass, and the correctness checks.

Every pass checks every run it makes through one :class:`Ledger`.  A run
fails when it raised (``status="error"``), when it ran without corruption
at the default stopping confidence and its answer does not verify against
concrete group arithmetic, or when its deterministic row (strategy,
generators, query report, status) differs from the reference row of the
same input: a committed ``BENCH_<name>.json`` golden, an inline
``run_sweep`` of the queued spec, or the first pass over that input.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import threading
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from perfbench import hostspeed, inputs
from perfbench.tracer import Tracer, rebind
from repro.blackbox.noise import NoiseSpec
from repro.blackbox.oracle import BlackBoxGroup
from repro.core.solver import solve_hsp
from repro.experiments import distributed, runner
from repro.experiments.registry import build_instance
from repro.experiments.results import load_bench, rows_bytes
from repro.experiments.transports.base import Claim
from repro.experiments.transports.http import HttpTransport, make_server
from repro.quantum.sampling import FourierSampler

__all__ = ["Ledger", "PassResult", "TRACE_HOOKS", "WORKLOADS", "harvest_engines"]

#: Heartbeat RPCs probed per queue-http pass (see :meth:`QueueHttp.run_pass`).
HEARTBEAT_PROBES = 8

QUERY_KEYS = (
    ("queries.quantum", "quantum_queries"),
    ("queries.classical", "classical_queries"),
    ("group.multiplications", "group_multiplications"),
)


class Ledger:
    """Attempted and failed runs, against the reference row of each input."""

    def __init__(self) -> None:
        self.reference: Dict[Tuple, bytes] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def expect(self, key: Tuple, row: bytes) -> None:
        """Pin the reference row of ``key``; every later run of it must match."""
        self.reference[key] = row

    def admit(self, key: Tuple, row: bytes, status: str, success: bool, must_succeed: bool) -> bool:
        self.attempted += 1
        if status == "error":
            problem = "raised"
        elif must_succeed and not success:
            problem = "returned a subgroup that does not verify"
        else:
            if key not in self.reference:
                self.expect(key, row)
            problem = None if self.reference[key] == row else "differs from its reference row"
        if problem is None:
            return True
        self.fail(f"{key}: {problem}")
        return False

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


@dataclass
class PassResult:
    """One pass: its checked runs, timed section and run latencies.

    Times are ``(start, end)`` readings of wall and process CPU time, to be
    rescaled by :class:`perfbench.hostspeed.Tracker`.
    """

    attempted: int = 0
    failed: int = 0
    timed: hostspeed.Interval = ((0.0, 0.0), (0.0, 0.0))
    latencies: List[hostspeed.Interval] = field(default_factory=list)
    queries: Dict[str, int] = field(default_factory=dict)
    rpc_per_task: float = 0.0

    def add_queries(self, report: Dict[str, int]) -> None:
        for name, key in QUERY_KEYS:
            self.queries[name] = self.queries.get(name, 0) + int(report.get(key, 0))


def _row_bytes(row: Dict[str, object]) -> bytes:
    """One row in the program's canonical ``rows_bytes`` serialization."""
    return rows_bytes({"rows": [row]})


def _must_succeed(params: Dict[str, object]) -> bool:
    """Noise-free runs at the default stopping confidence must verify."""
    if "confidence" in params:
        return False
    noise = NoiseSpec.parse(params.get("noise", "none"))
    return noise is None or noise.epsilon == 0


def _admit_rows(ledger: Ledger, result: PassResult, spec, rows: List[Dict[str, object]]) -> None:
    for row in rows:
        ok = ledger.admit(
            (spec.name, spec.seed, row["index"]),
            _row_bytes(row),
            str(row["status"]),
            bool(row["success"]),
            _must_succeed(dict(row["params"])),
        )
        result.attempted += 1
        result.failed += not ok
        result.add_queries(dict(row["query_report"]))


@contextmanager
def timed_runs(spans: List[hostspeed.Interval]) -> Iterator[None]:
    """``(start, end)`` readings of every ``execute_run_safe`` that ``run_sweep`` or ``work_queue`` makes."""
    original = runner.execute_run_safe

    def timed(run, shard_pool=None):
        hostspeed.tick()
        start = hostspeed.read()
        try:
            return original(run, shard_pool=shard_pool)
        finally:
            spans.append((start, hostspeed.read()))

    undo = rebind(original, timed)
    try:
        yield
    finally:
        for owner, attribute, value in reversed(undo):
            setattr(owner, attribute, value)


# -- traced-run hooks ---------------------------------------------------------


def _engine_built(tracer: Tracer, args, kwargs, result) -> None:
    tracer.engines.append(args[0])


def harvest_engines(tracer: Tracer) -> None:
    """Count the engines built since the last harvest by mode, size and fill.

    Called when a run ends, so each engine is read at its final fill and no
    engine outlives its run inside the tracer.
    """
    for engine in tracer.engines:
        stats = engine.stats()
        tracer.count(f"engine.builds.{engine.mode}")
        tracer.count("engine.interned", stats["interned"])
        if engine.mode == "table":
            cells = stats["interned"] ** 2
            tracer.count("engine.table_cells", cells)
            tracer.count("engine.table_filled", stats["cached_products"])
            tracer.maximum("engine.table_cells_max", cells)
    tracer.engines.clear()


def _run_finished(tracer: Tracer, args, kwargs, result) -> None:
    harvest_engines(tracer)


def _sampled(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("sampling.samples", len(result))


def _claimed(tracer: Tracer, args, kwargs, result) -> None:
    if isinstance(result, Claim):
        tracer.claims.append(result)


#: After-hooks of the traced run, by layer.
TRACE_HOOKS = {
    "engine.build": _engine_built,
    "runner.run": _run_finished,
    "sampling": _sampled,
    "rpc.claim_next": _claimed,
}


# -- workloads -----------------------------------------------------------------


class Workload:
    """A workload's life: ``setup``, ``prepare`` (references), passes, ``close``."""

    name = ""

    def __init__(self, seed: int, root: str, scratch: str, tiny: bool = False):
        self.seed = int(seed)
        self.root = root
        self.scratch = scratch
        self.tiny = tiny

    def setup(self) -> None:
        """Input generation (and, for the queue, enqueue plus coordinator start)."""

    def prepare(self, ledger: Ledger) -> None:
        """Pin reference rows and warm lazy imports, outside any timed phase."""

    def run_pass(self, ledger: Ledger, tracer: Optional[Tracer] = None) -> PassResult:
        raise NotImplementedError

    def close(self) -> None:
        """Stop whatever ``setup`` started."""


class SolveLarge(Workload):
    """Cold verified solves of the largest instances, one at a time."""

    name = "solve-large"

    def setup(self) -> None:
        runs = inputs.solve_large_runs(self.seed)
        self.runs = runs[:2] if self.tiny else runs

    def prepare(self, ledger: Ledger) -> None:
        self.run_pass(ledger)

    def run_pass(self, ledger: Ledger, tracer: Optional[Tracer] = None) -> PassResult:
        result = PassResult()
        start = hostspeed.read()
        for family, params, seed in self.runs:
            hostspeed.tick()
            began = hostspeed.read()
            row, status, success = self._solve(family, params, seed)
            result.latencies.append((began, hostspeed.read()))
            if tracer is not None:
                harvest_engines(tracer)
            key = (family, json.dumps(params, sort_keys=True), seed)
            ok = ledger.admit(key, _row_bytes(row), status, success, True)
            result.attempted += 1
            result.failed += not ok
            result.add_queries(dict(row.get("query_report", {})))
        result.timed = (start, hostspeed.read())
        return result

    @staticmethod
    def _solve(family: str, params: Dict[str, object], seed: int):
        """build_instance -> solve_hsp -> verify with a fresh group, engine and oracle."""
        try:
            rng = np.random.default_rng(seed)
            instance = build_instance(family, params, rng)
            solution = solve_hsp(instance, sampler=FourierSampler(rng=rng))
            base = instance.group.group if isinstance(instance.group, BlackBoxGroup) else instance.group
            success = instance.verify(solution.generators or [base.identity()])
        except Exception:
            traceback.print_exc()
            return {}, "error", False
        return solution.to_json_dict(include_timing=False), solution.status, bool(success)


class SweepSmall(Workload):
    """``run_sweep(spec, workers=1)`` over the pinned statistics and theorem sweeps."""

    name = "sweep-small"

    #: The specs of the self-test size: one with a committed golden, one without.
    TINY = ("hidden-normal-bounded-quotient", "wreath-theorem13")

    def setup(self) -> None:
        self.specs = self._specs(self.seed)
        for spec in self.specs:
            spec.expand()  # validates every grid point (noise specs included)
        self.out_dir = tempfile.mkdtemp(prefix="sweep-", dir=self.scratch)

    def _specs(self, seed: int):
        specs = inputs.sweep_small_specs(seed)
        return [spec for spec in specs if spec.name in self.TINY] if self.tiny else specs

    def prepare(self, ledger: Ledger) -> None:
        """One untimed pass at the goldens' seed, checked row by row against them."""
        golden_specs = self._specs(inputs.GOLDEN_SEED)
        for spec in golden_specs:
            path = os.path.join(self.root, f"BENCH_{spec.name}.json")
            if not os.path.exists(path):
                continue
            golden = load_bench(path)
            if golden["sweep"] != spec.to_json_dict():
                continue
            for row in golden["rows"]:
                ledger.expect((spec.name, spec.seed, row["index"]), _row_bytes(row))
        self.run_pass(ledger, specs=golden_specs)

    def run_pass(self, ledger: Ledger, tracer: Optional[Tracer] = None, specs=None, obs_trace=None) -> PassResult:
        result = PassResult()
        payloads = []
        with timed_runs(result.latencies):
            start = hostspeed.read()
            for spec in specs if specs is not None else self.specs:
                _, payload = runner.run_sweep(spec, workers=1, out_dir=self.out_dir, trace=obs_trace)
                payloads.append((spec, payload))
            result.timed = (start, hostspeed.read())
        for spec, payload in payloads:
            _admit_rows(ledger, result, spec, payload["rows"])
        return result


class QueueHttp(Workload):
    """Enqueue into SQLite, serve over HTTP, drain with one worker, collect."""

    name = "queue-http"

    def setup(self) -> None:
        self.spec = inputs.queue_spec(self.seed)
        if self.tiny:
            self.spec = self.spec.with_overrides(repeats=1)
        self._queue = self._start_queue()

    def _start_queue(self):
        """A fresh SQLite queue holding the whole sweep, and its coordinator."""
        directory = tempfile.mkdtemp(prefix="queue-", dir=self.scratch)
        database = os.path.join(directory, "queue.sqlite")
        distributed.enqueue_sweep(self.spec, database, kind="sqlite")
        server = make_server(database)
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        thread.start()
        return directory, server, thread

    @staticmethod
    def _stop_queue(queue) -> None:
        directory, server, thread = queue
        server.shutdown()
        server.server_close()
        thread.join()
        shutil.rmtree(directory, ignore_errors=True)

    def prepare(self, ledger: Ledger) -> None:
        """The reference: an inline ``run_sweep`` of the same spec."""
        _, payload = runner.run_sweep(self.spec, workers=1, out_dir=None)
        for row in payload["rows"]:
            ledger.expect((self.spec.name, self.spec.seed, row["index"]), _row_bytes(row))

    def run_pass(self, ledger: Ledger, tracer: Optional[Tracer] = None) -> PassResult:
        """One drain and collect of a fresh queue.

        A run's latency here is one task's turnaround through the queue:
        from the start of its execution to the start of the next task's,
        which adds the ``append_record``, ``release`` and ``claim_next``
        round trips to the run itself.
        """
        result = PassResult()
        queue = self._queue or self._start_queue()
        self._queue = None
        directory, server, _ = queue
        url = "http://%s:%d" % server.server_address[:2]
        spans: List[hostspeed.Interval] = []
        try:
            with timed_runs(spans):
                start = hostspeed.read()
                calls_before = _rpc_calls(tracer)
                summary = distributed.work_queue(url, worker_id="perfbench")
                calls = _rpc_calls(tracer) - calls_before
                _, payload = distributed.collect_queue(url, out_dir=directory)
                result.timed = (start, hostspeed.read())
            result.rpc_per_task = calls / max(summary["executed"], 1)
            result.latencies = [(before[0], after[0]) for before, after in zip(spans, spans[1:])]
            if tracer is not None:
                self._probe_heartbeats(url, tracer)
        finally:
            self._stop_queue(queue)
        _admit_rows(ledger, result, self.spec, payload["rows"])
        return result

    @staticmethod
    def _probe_heartbeats(url: str, tracer: Tracer) -> None:
        """Time heartbeat RPCs on the drained leases.

        The worker's default heartbeat interval (``min(stale_after / 10,
        5 s)``) never elapses during a tiny task, so the drain itself sends
        none; each probe is the same round trip and the same SQL update,
        matching no running lease.
        """
        probe = HttpTransport(url)
        try:
            for claim in tracer.claims[:HEARTBEAT_PROBES]:
                probe.heartbeat(claim)
        finally:
            probe.close()
        tracer.claims.clear()

    def close(self) -> None:
        if self._queue is not None:
            self._stop_queue(self._queue)
            self._queue = None


def _rpc_calls(tracer: Optional[Tracer]) -> int:
    if tracer is None:
        return 0
    return sum(stats.calls for layer, stats in tracer.stats().items() if layer.startswith("rpc."))


WORKLOADS = {workload.name: workload for workload in (SolveLarge, SweepSmall, QueueHttp)}
