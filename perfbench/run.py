"""The solver stack's benchmark: one command, three workloads, every metric.

Run from the repository root::

    python3 perfbench/run.py --workload solve-large --seed 1 --seconds 20 --trace 0

Workloads (inputs pinned in ``perfbench/inputs.py``, varied by ``--seed``):

``solve-large``
    cold, one-at-a-time ``build_instance -> solve_hsp -> HSPInstance.verify``
    of the largest instances, a fresh group, engine and oracle per run;
``sweep-small``
    ``run_sweep(spec, workers=1)`` over about 400 tiny runs per pass,
    mirroring the suite's statistics and theorem sweeps;
``queue-http``
    a SQLite queue served by ``make_server`` on a thread of this process,
    drained by one in-process ``work_queue(url)`` and merged by
    ``collect_queue``.

``--trace 0`` measures the end-to-end metrics with nothing wrapped:
``runs_per_s`` (verified runs per second of the timed passes),
``run_ms_p50``/``run_ms_p90`` (one run's build+solve+verify; on
queue-http, one task's turnaround through the queue; the sample count is
printed), ``peak_rss_mb`` of this process (one process per workload)
through set-up, the untimed reference pass and the first timed pass, and
``setup_s``, the median over fresh processes of imports, input
generation, enqueue and coordinator start.  Times are rescaled to a
reference host speed calibrated between runs (``perfbench/hostspeed.py``),
which cancels the slow stretches of a shared host; the host's measured
slowdown is printed.  Every pass starts after a full garbage collection,
so the peak memory does not depend on when the previous passes' garbage
happened to be collected.  The peak stops at the first timed pass: it is
then the same work on every run, however many passes the host's speed lets
in, while each later pass adds a chance that the heap, whose layout
differs a little from run to run though its garbage collections do not,
has to grow for a large array (about 18 MiB more on 1 run in 4 of
sweep-small).

``--trace 1`` first makes an untraced pass, then wraps each layer's entry
points (``perfbench/tracer.py``) and repeats traced passes, reporting
per-layer self time (mean per pass), exact per-pass counts — which must
agree between passes — and the cost of the wrapping itself.

Every run is checked (see ``perfbench/workloads.py``); the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit status 0 means the benchmark completed;
``correct`` says whether the program's outputs were right.
"""

import time

_STARTED = time.perf_counter(), time.process_time()

import argparse  # noqa: E402 - the set-up clock starts before any import
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
for _path in (SRC, ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench import hostspeed  # noqa: E402 - needs ROOT on sys.path
from perfbench.tracer import TRANSPORT_OPS, Tracer  # noqa: E402

#: Fresh processes whose set-up time ``setup_s`` takes the median of.
SETUP_SAMPLES = 5

STRATEGIES = (
    "abelian",
    "hidden_normal",
    "small_commutator",
    "elementary_abelian_two",
    "classical",
    "classical_adaptive",
)
PROBED_RPCS = ("claim_next", "append_record", "release", "heartbeat")

END_TO_END_UNITS = {
    "runs_per_s": "1/s",
    "run_ms_p50": "ms",
    "run_ms_p90": "ms",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

#: Per-pass counts: deterministic, so traced passes must agree exactly.
COUNT_UNITS = {
    "engine.builds.table": "count",
    "engine.builds.kernel": "count",
    "engine.builds.sparse": "count",
    "engine.interned": "count",
    "engine.table_mib": "MiB",
    "engine.table_fill_ratio": "ratio",
    "oracle.eval_calls": "count",
    "queries.quantum": "count",
    "queries.classical": "count",
    "group.multiplications": "count",
    "sampling.samples": "count",
    "linalg.calls": "count",
    **{f"strategy.{name}.runs": "count" for name in STRATEGIES},
    "rpc.per_task": "rpc/task",
}

#: Main-thread self times per pass; with ``unattributed_s`` they add up to
#: ``trace.wall_s``.
SELF_TIME_LAYERS = {
    "registry.build_s": ("registry",),
    "engine.build_s": ("engine.build",),
    "engine.ops_s": ("engine.ops",),
    "oracle.eval_s": ("oracle",),
    "sampling.sample_s": ("sampling",),
    "linalg.self_s": ("linalg",),
    **{f"strategy.{name}.self_s": (f"strategy.{name}",) for name in STRATEGIES},
    "solver.self_s": ("solver",),
    "verify_s": ("verify",),
    "runner.overhead_s": ("runner.sweep",),
    "runner.run_self_s": ("runner.run",),
    "distributed.enqueue_s": ("distributed.enqueue",),
    "distributed.work_s": ("distributed.work",),
    "distributed.collect_s": ("distributed.collect",),
    "rpc.client_s": tuple(f"rpc.{op}" for op in TRANSPORT_OPS),
    "sqlite.client_s": ("sqlite",),
}

PER_LAYER_UNITS = {
    **{name: "s" for name in SELF_TIME_LAYERS},
    "unattributed_s": "s",
    "trace.wall_s": "s",
    "sampling.sample_incl_s": "s",
    "coordinator.handle_s": "s",
    "coordinator.sqlite_s": "s",
    "rpc.wait_share": "ratio",
    **COUNT_UNITS,
    **{f"rpc.{op}.ms_{q}": "ms" for op in PROBED_RPCS for q in ("p50", "p90")},
    "failed_share": "ratio",
    "bench.wrap_overhead": "ratio",
    "obs.trace_overhead": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Benchmark of the HSP solver stack.")
    parser.add_argument("--workload", required=True, choices=("solve-large", "sweep-small", "queue-http"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test size: a few runs per pass")
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="measure set-up in this fresh process, print it and exit (setup_s samples)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def percentile(values, q: int) -> float:
    """The ``q``-th percentile, interpolated between samples (0 when empty)."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# -- end-to-end (untraced) --------------------------------------------------------


def measure_setup(args) -> float:
    """Median set-up time over ``SETUP_SAMPLES`` fresh processes.

    Each is rescaled to the reference host by calibrations made in this
    process right before and right after it.
    """
    command = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    if args.tiny:
        command.append("--tiny")
    samples = []
    for _ in range(SETUP_SAMPLES):
        before = hostspeed.calibrate()
        done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
        elapsed = json.loads(done.stdout.strip().splitlines()[-1])["setup"]
        samples.append(hostspeed.scaled(elapsed, hostspeed.slowdown(before + hostspeed.calibrate())))
    return statistics.median(samples)


def end_to_end(args, workload, ledger):
    results = []
    with hostspeed.tracking() as host:
        start = time.perf_counter()
        while not results or time.perf_counter() - start < args.seconds:
            gc.collect()
            results.append(workload.run_pass(ledger))
            host.calibrate()
            if len(results) == 1:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    verified = sum(result.attempted - result.failed for result in results)
    timed = sum(host.scaled(result.timed) for result in results)
    latencies = [host.scaled(latency) for result in results for latency in result.latencies]
    slowdowns = [factor for _, factor in host.points]
    print(
        f"{len(results)} timed pass(es), {len(latencies)} run latency samples; host slowdown "
        f"{min(slowdowns):.3f}-{max(slowdowns):.3f} (median {statistics.median(slowdowns):.3f} "
        f"over {len(slowdowns)} calibrations)"
    )
    return {
        "runs_per_s": verified / timed,
        "run_ms_p50": 1e3 * percentile(latencies, 50),
        "run_ms_p90": 1e3 * percentile(latencies, 90),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": measure_setup(args),
    }


# -- per layer (traced) ----------------------------------------------------------------


def pass_layers(tracer, wall, result):
    """``(times, counts, rpc durations)`` of one traced pass."""
    main = tracer.stats("main")
    other = tracer.stats("other")

    def self_time(layers):
        return sum(main[layer].self_s for layer in layers if layer in main)

    def calls(layer):
        return main[layer].calls if layer in main else 0

    times = {name: self_time(layers) for name, layers in SELF_TIME_LAYERS.items()}
    times["unattributed_s"] = wall - sum(stats.self_s for stats in main.values())
    times["trace.wall_s"] = wall
    times["sampling.sample_incl_s"] = main["sampling"].incl_s if "sampling" in main else 0.0
    times["coordinator.handle_s"] = other["coordinator.handle"].self_s if "coordinator.handle" in other else 0.0
    times["coordinator.sqlite_s"] = other["sqlite"].self_s if "sqlite" in other else 0.0
    client = sum(stats.incl_s for layer, stats in main.items() if layer.startswith("rpc."))
    handled = other["coordinator.handle"].incl_s if "coordinator.handle" in other else 0.0
    times["rpc.wait_share"] = 1.0 - handled / client if client else 0.0

    table_cells = tracer.counts.get("engine.table_cells", 0)
    counts = {name: tracer.counts.get(name, 0) for name in COUNT_UNITS}
    counts.update(
        {
            "engine.table_mib": tracer.maxima.get("engine.table_cells_max", 0) * 4 / 2**20,
            "engine.table_fill_ratio": (
                tracer.counts.get("engine.table_filled", 0) / table_cells if table_cells else 0.0
            ),
            "oracle.eval_calls": calls("oracle"),
            "linalg.calls": calls("linalg"),
            **{f"strategy.{name}.runs": calls(f"strategy.{name}") for name in STRATEGIES},
            **result.queries,
            "rpc.per_task": result.rpc_per_task,
        }
    )
    durations = {op: list(main[f"rpc.{op}"].durations) if f"rpc.{op}" in main else [] for op in PROBED_RPCS}
    return times, counts, durations


def per_layer(args, workload, ledger):
    from perfbench.workloads import TRACE_HOOKS, SweepSmall

    start = time.perf_counter()
    workload.run_pass(ledger)
    baseline = time.perf_counter() - start
    trace_overhead = 0.0
    if isinstance(workload, SweepSmall):
        start = time.perf_counter()
        workload.run_pass(ledger, obs_trace=os.path.join(workload.scratch, "obs-trace.jsonl"))
        trace_overhead = (time.perf_counter() - start - baseline) / baseline

    tracer = Tracer()
    tracer.install(TRACE_HOOKS)
    passes = []
    try:
        clock = time.perf_counter()
        while not passes or time.perf_counter() - clock < args.seconds:
            tracer.reset()
            gc.collect()
            began = time.perf_counter()
            result = workload.run_pass(ledger, tracer)
            passes.append(pass_layers(tracer, time.perf_counter() - began, result))
    finally:
        tracer.uninstall()

    counts = passes[0][1]
    for _, other_counts, _ in passes[1:]:
        if other_counts != counts:
            ledger.fail(f"deterministic counts differ between traced passes: {counts} != {other_counts}")
    metrics = {name: statistics.fmean(p[0][name] for p in passes) for name in passes[0][0]}
    metrics.update(counts)
    for op in PROBED_RPCS:
        pooled = [value for p in passes for value in p[2][op]]
        metrics[f"rpc.{op}.ms_p50"] = 1e3 * percentile(pooled, 50)
        metrics[f"rpc.{op}.ms_p90"] = 1e3 * percentile(pooled, 90)
    metrics["failed_share"] = ledger.failed / ledger.attempted
    metrics["bench.wrap_overhead"] = (metrics["trace.wall_s"] - baseline) / baseline
    metrics["obs.trace_overhead"] = trace_overhead
    print(f"{len(passes)} traced pass(es); untraced pass {baseline:.3f} s")
    return metrics


# -- entry point --------------------------------------------------------------------------


def result_line(ledger, metrics, units):
    return json.dumps(
        {
            "correct": ledger.failed == 0,
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        }
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program source at {SRC}/repro; run from a full checkout", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS, Ledger

    scratch = os.path.join(ROOT, ".perfbench_tmp", f"{args.workload}-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, ROOT, scratch, tiny=args.tiny)
    try:
        workload.setup()
        if args.setup_only:
            elapsed = (time.perf_counter() - _STARTED[0], time.process_time() - _STARTED[1])
            print(json.dumps({"setup": elapsed}))
            return 0
        ledger = Ledger()
        workload.prepare(ledger)
        if args.trace:
            metrics, units = per_layer(args, workload, ledger), PER_LAYER_UNITS
        else:
            metrics, units = end_to_end(args, workload, ledger), END_TO_END_UNITS
    finally:
        workload.close()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass  # another run still uses it
    for problem in ledger.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, unit in units.items():
        print(f"{name:<34} {metrics[name]:>16.6g} {unit}")
    print(result_line(ledger, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
