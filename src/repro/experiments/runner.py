"""The fault-tolerant, resumable process-pool sweep runner.

``execute_run`` is the complete life of one experiment run — rebuild the
instance from its descriptor, solve, verify, record — and is a module-level
function of one picklable argument, so it runs unchanged inline or on a
``ProcessPoolExecutor`` worker.  Engines, oracles and counters are created
inside the run; workers share no mutable state, and the per-run query
reports merge afterwards through ``QueryCounter`` addition.

Fault tolerance: the pool executes :func:`execute_run_safe`, which converts
a raising run into a structured :class:`RunRecord` with ``status="error"``
and the formatted traceback — one bad instance never kills the sweep.
``max_failures`` caps the tolerance: once more than that many runs have
errored, :class:`SweepAborted` is raised (everything completed so far is
journaled, so ``--resume`` picks up the remainder after a fix).

Checkpointing: every completed record is appended to a
``BENCH_<name>.partial.jsonl`` journal as it arrives; ``resume=True`` loads
the journal, skips already-journaled ``(index, seed)`` rows and executes
only the remainder.  The final ``rows`` are byte-identical to an
uninterrupted run at the same seed, because each run's randomness derives
from its own per-index seed and the journal round-trips the deterministic
row content exactly.

Determinism: a run's randomness comes only from ``RunSpec.seed`` (one
generator drives instance construction and Fourier sampling, in that fixed
order), so results are independent of worker count and scheduling.  Pool
results are collected with ``Executor.map``, which preserves input order.
"""

from __future__ import annotations

import os
import re
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from contextlib import nullcontext
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.blackbox.noise import NoiseSpec, install_noise
from repro.blackbox.oracle import BlackBoxGroup
from repro.core.solver import solve_hsp
from repro.experiments.registry import build_instance
from repro.experiments.results import (
    RunRecord,
    append_journal,
    bench_payload,
    journal_path,
    load_journal,
    remove_journal,
    rewrite_journal,
    write_bench,
    write_journal_header,
)
from repro.experiments.specs import RunSpec, SweepSpec, check_solver_options
from repro.obs import metrics as obs_metrics
from repro import obs

__all__ = [
    "SweepAborted",
    "execute_batch",
    "execute_run",
    "execute_run_safe",
    "run_sweep",
]

class SweepAborted(RuntimeError):
    """Raised when a sweep exceeds its ``max_failures`` error budget.

    The journal keeps every record completed before the abort (error rows
    included), so a ``--resume`` after fixing the cause re-executes only the
    remainder — journaled *error* rows are retried on resume (see
    :func:`run_sweep`), which is what makes recovery from a transient cause
    possible at all.
    """

    def __init__(self, sweep: str, failures: int, max_failures: int, journal: Optional[str]):
        self.sweep = sweep
        self.failures = failures
        self.max_failures = max_failures
        self.journal = journal
        hint = f"; journal kept at {journal}" if journal else ""
        super().__init__(
            f"sweep {sweep!r} aborted: {failures} failed run(s) exceed "
            f"--max-failures {max_failures}{hint}"
        )


def execute_run(run: RunSpec, shard_pool=None) -> RunRecord:
    """Execute one run descriptor; raises on failure (see ``execute_run_safe``).

    Telemetry is sidecar-only: the ``run`` span, the per-run metrics delta
    event and the optional cProfile dump land in their own files and never
    touch the returned record, so rows are byte-identical with observability
    on or off.
    """
    with obs.span(
        "run", sweep=run.sweep, index=run.index, seed=run.seed, family=run.family
    ) as run_span, obs.profiled(f"run-{run.sweep}-{run.index:04d}-{run.seed}"):
        metrics_before = (
            obs.get_metrics().snapshot() if obs_metrics.collecting() else None
        )
        record = _execute_run_impl(run, shard_pool=shard_pool)
        run_span.set(strategy=record.strategy, success=record.success)
        if metrics_before is not None:
            obs.event(
                "run_metrics",
                sweep=run.sweep,
                index=run.index,
                seed=run.seed,
                metrics=obs.get_metrics().diff(metrics_before),
            )
    return record


def _execute_run_impl(run: RunSpec, shard_pool=None) -> RunRecord:
    rng = np.random.default_rng(run.seed)
    options = run.options_dict()
    check_solver_options(options)
    confidence = options.get("confidence")
    noise = NoiseSpec.parse(options.get("noise", "none"))
    instance = build_instance(run.family, run.instance_params(), rng)
    base = instance.group.group if isinstance(instance.group, BlackBoxGroup) else instance.group
    sampler = run.sampler.build(rng, pool=shard_pool)
    if noise is not None:
        # Channel randomness derives from the run seed through its own
        # domain-separated SeedSequence stream — the main ``rng`` above
        # is never consumed, so the ε=0 (uninstalled) rows are
        # byte-identical to a no-noise sweep by construction.
        install_noise(noise, instance, sampler, run.seed)
        obs.gauge("noise.epsilon", noise.epsilon)
    start = time.perf_counter()
    solution = solve_hsp(
        instance,
        strategy=run.strategy,
        sampler=sampler,
        confidence=confidence,
        noise=noise,
    )
    wall = time.perf_counter() - start
    if solution.status == "no_convergence":
        # The strategy failed gracefully under the corruption channel —
        # there is no candidate to verify.
        success = False
    else:
        # Verification runs against the ground truth (concrete group
        # arithmetic), never the corrupted oracle.
        success = instance.verify(solution.generators or [base.identity()])
    serialized = solution.to_json_dict(include_timing=False)
    return RunRecord(
        sweep=run.sweep,
        index=run.index,
        family=run.family,
        params=run.params_dict(),
        repeat=run.repeat,
        seed=run.seed,
        strategy=serialized["strategy"],
        success=bool(success),
        generators=serialized["generators"],
        query_report=serialized["query_report"],
        wall_time_seconds=wall,
        status=solution.status,
    )


#: ``File "<abs path>/module.py"`` -> ``File "module.py"`` in tracebacks: the
#: captured error text lands in the *deterministic* BENCH rows, which must
#: not vary with where the repo happens to be checked out.
_TRACEBACK_PATH = re.compile(r'(File ")([^"]*[/\\])([^"/\\]+")')


def _normalize_traceback(text: str) -> str:
    return _TRACEBACK_PATH.sub(r"\1\3", text)


def execute_run_safe(run: RunSpec, shard_pool=None) -> RunRecord:
    """The pool-side entry point: a raising run becomes an ``"error"`` record.

    Only ``Exception`` is converted — ``KeyboardInterrupt`` and other
    ``BaseException`` interruptions propagate, leaving the journal intact for
    a later ``--resume``.
    """
    try:
        return execute_run(run, shard_pool=shard_pool)
    except Exception:
        return RunRecord(
            sweep=run.sweep,
            index=run.index,
            family=run.family,
            params=run.params_dict(),
            repeat=run.repeat,
            seed=run.seed,
            strategy=run.strategy,
            success=False,
            generators=[],
            query_report={},
            wall_time_seconds=0.0,
            status="error",
            error=_normalize_traceback(traceback.format_exc()),
        )


def _obs_pool_init(trace_path: Optional[str], profile_dir: Optional[str]) -> None:
    """Pool-worker initializer: install the sweep's observability sinks.

    Runs once per worker process; the worker exits with the pool, so nothing
    is restored.  With both arguments ``None`` this is a no-op, which keeps a
    single code path for traced and untraced pools.
    """
    obs.configure(
        trace_path=trace_path,
        profile_dir=profile_dir,
        worker=f"pool-{os.getpid()}",
    )


def execute_batch(
    pending: Sequence[RunSpec],
    admit,
    workers: int = 1,
    sampler_shards: Optional[int] = None,
    over_budget=None,
    trace: Optional[str] = None,
    profile_dir: Optional[str] = None,
) -> bool:
    """The worker-agnostic task-execution core: run descriptors, sink records.

    Executes every descriptor in ``pending`` through
    :func:`execute_run_safe` — inline for ``workers <= 1``, on a bounded
    process-pool window otherwise — calling ``admit(record)`` as each record
    completes.  The caller owns everything else: journaling, BENCH
    persistence, failure accounting.  That split is what lets the same core
    drive both :func:`run_sweep` (admit = journal append + in-memory list)
    and other execution topologies that sink records elsewhere (the
    distributed queue runner journals to per-worker shards).

    ``over_budget`` is consulted after each admitted record; once it returns
    true, dispatching stops, already-executing pool runs are drained (and
    admitted — their work is real and must reach the ledger), and the batch
    reports incompletion by returning ``False``.  ``True`` means every
    pending descriptor was executed and admitted.

    ``sampler_shards`` is the inline path's sampler sharding: a single
    executor shared by every run of the batch (a pooled batch must not spawn
    nested pools, so it is ignored for ``workers > 1`` — see
    :meth:`~repro.experiments.specs.SamplerSpec.build`).

    ``trace``/``profile_dir`` configure observability inside pool worker
    processes (the caller configures its own process); both default to off.
    """
    over = over_budget if over_budget is not None else (lambda: False)
    if workers <= 1:
        # Inline execution is where a SamplerSpec with shards= gets a real
        # worker pool: one executor shared by every run of the batch.
        pool_context = (
            ProcessPoolExecutor(
                max_workers=int(sampler_shards),
                initializer=_obs_pool_init,
                initargs=(trace, profile_dir),
            )
            if sampler_shards is not None and sampler_shards > 1
            else nullcontext(None)
        )
        with pool_context as shard_pool:
            for run in pending:
                admit(execute_run_safe(run, shard_pool=shard_pool))
                if over():
                    return False
        return True
    # Bounded incremental submission: at most ~2x workers runs are ever
    # in flight, so an over-budget abort stops dispatching almost
    # immediately instead of waiting out an eagerly-submitted tail, and
    # every record that did complete is admitted before the abort
    # (records may arrive out of input order; rows are keyed and later
    # sorted by index, so the payload is unaffected).
    with ProcessPoolExecutor(
        max_workers=int(workers),
        initializer=_obs_pool_init,
        initargs=(trace, profile_dir),
    ) as pool:
        queue = list(reversed(list(pending)))
        in_flight = set()
        window = 2 * int(workers)
        while queue or in_flight:
            while queue and len(in_flight) < window:
                in_flight.add(pool.submit(execute_run_safe, queue.pop()))
            finished, in_flight = wait(in_flight, return_when=FIRST_COMPLETED)
            for future in finished:
                admit(future.result())
            if over():
                for future in in_flight:
                    future.cancel()
                # Runs already executing cannot be cancelled; wait them
                # out and admit their records so the ledger does not lose
                # work that in fact completed.
                drained, _ = wait(in_flight)
                for future in drained:
                    if not future.cancelled():
                        admit(future.result())
                return False
    return True


def run_sweep(
    spec: SweepSpec,
    workers: int = 1,
    out_dir: Optional[str] = ".",
    max_failures: Optional[int] = None,
    resume: bool = False,
    trace: Optional[str] = None,
    profile_dir: Optional[str] = None,
) -> Tuple[Optional[str], Dict[str, object]]:
    """Execute a sweep and persist its ``BENCH_<name>.json``.

    ``workers > 1`` fans the expanded run list out over a process pool; the
    rows of the resulting payload are byte-identical to a ``workers=1``
    execution of the same spec.  ``out_dir=None`` skips persistence (no
    BENCH file, no journal) and just returns the payload.

    ``max_failures=None`` (the default) captures every raising run as an
    ``status="error"`` row and finishes the sweep; an integer budget raises
    :class:`SweepAborted` once more than that many runs of *this attempt*
    have failed (a resumed attempt retries previously-errored runs, so the
    budget is fresh).

    ``resume=True`` replays the ``BENCH_<name>.partial.jsonl`` journal in
    ``out_dir``: journaled ``status="ok"`` rows are skipped; journaled
    *error* rows are **retried** together with the never-journaled
    remainder (a deterministic failure reproduces the identical error row,
    a transient one heals — which is the point of resuming after a fix).
    The journal is validated against ``spec`` and removed once the sweep
    completes and the BENCH file is written.

    ``trace`` appends JSONL span/metrics events (from this process and every
    pool worker) to the given sidecar path; ``profile_dir`` dumps one
    cProfile ``.pstats`` file per run.  Neither changes the journal or the
    BENCH payload in any byte.
    """
    runs = spec.expand()
    jpath: Optional[str] = None
    done: Dict[Tuple[int, int], RunRecord] = {}
    if out_dir is not None:
        jpath = journal_path(out_dir, spec.name)
        if resume and os.path.exists(jpath):
            journaled = load_journal(jpath, spec)
            done = {
                key: record for key, record in journaled.items() if record.status != "error"
            }
            # Compact the journal back to exactly the state being resumed
            # from: a torn trailing fragment from the crash is dropped (so
            # this attempt's appends start on a clean line), retried error
            # rows are removed, and a headerless file gets a valid header.
            rewrite_journal(jpath, spec, list(done.values()))
        else:
            # A fresh run starts a fresh journal; a stale one (different
            # earlier attempt, not being resumed) is overwritten by the
            # header write.
            write_journal_header(jpath, spec)

    pending = [run for run in runs if (run.index, run.seed) not in done]
    records: List[RunRecord] = list(done.values())
    failures = 0

    def admit(record: RunRecord) -> None:
        nonlocal failures
        if jpath is not None:
            append_journal(jpath, record)
        records.append(record)
        if record.status == "error":
            failures += 1

    def over_budget() -> bool:
        return max_failures is not None and failures > max_failures

    with obs.observed(trace_path=trace, profile_dir=profile_dir):
        with obs.span(
            "sweep", sweep=spec.name, runs=len(runs), pending=len(pending), workers=workers
        ):
            completed = execute_batch(
                pending,
                admit,
                workers=workers,
                sampler_shards=spec.sampler.shards,
                over_budget=over_budget,
                trace=trace,
                profile_dir=profile_dir,
            )
    if not completed:
        raise SweepAborted(spec.name, failures, max_failures, jpath)

    payload = bench_payload(spec, workers, records)
    if out_dir is None:
        return None, payload
    path = write_bench(out_dir, spec.name, payload)
    if jpath is not None:
        remove_journal(jpath)
    return path, payload
