"""The sidecar observability layer (PR 7): tracing, metrics, profiling.

The contract under test:

* the :class:`Metrics` registry accumulates counters/gauges/timing
  histograms, snapshots to plain JSON, rehydrates, merges across worker
  processes (``sum()``-compatible like ``QueryCounter``), and produces
  delta snapshots for per-run reporting;
* the module-level helpers are no-ops until collection is switched on —
  instrumented hot paths must cost one boolean check when disabled;
* :func:`repro.obs.span` returns the shared null singleton when no tracer
  is installed (no allocation, nothing emitted) and a real nested span —
  with parent ids, durations, attrs and counters — when one is;
* **the sidecar invariant**: a traced/profiled sweep produces BENCH rows
  byte-identical to an untraced one, with the exact same row key sets —
  telemetry lands only in its own files;
* ``trace summarise`` aggregates multi-writer JSONL traces into the
  per-phase breakdown, covering solver phases, sampler batches, and
  engine build/fill events.
"""

import json
import os

import pytest

from repro import obs
from repro.experiments.cli import main as cli_main
from repro.experiments.results import rows_bytes
from repro.experiments.runner import run_sweep
from repro.experiments.specs import SweepSpec
from repro.obs import metrics as metrics_mod
from repro.obs import profile as profile_mod
from repro.obs import trace as trace_mod
from repro.obs.metrics import Metrics

SEED = 20010202


@pytest.fixture(autouse=True)
def clean_obs_state():
    """Every test leaves the process as it found it: no tracer, collection
    off, no profile dir, fresh registry — observability is process-global
    state, and leakage here would poison unrelated tests."""
    yield
    trace_mod.install_tracer(None)
    metrics_mod.set_collecting(False)
    profile_mod.set_profile_dir(None)
    metrics_mod.reset_metrics()


def tiny_spec(name="obs", **kwargs):
    defaults = dict(repeats=2, seed=SEED)
    defaults.update(kwargs)
    return SweepSpec.from_grid(name, "dihedral_rotation", {"n": [8]}, **defaults)


class TestMetricsRegistry:
    def test_counters_gauges_and_timings_accumulate(self):
        metrics = Metrics()
        metrics.count("hits")
        metrics.count("hits", 2)
        metrics.gauge("depth", 3.5)
        metrics.observe("fill", 0.25)
        metrics.observe("fill", 0.75)
        snapshot = metrics.snapshot()
        assert snapshot["counters"] == {"hits": 3}
        assert snapshot["gauges"] == {"depth": 3.5}
        assert snapshot["timings"]["fill"] == {
            "count": 2,
            "total": 1.0,
            "min": 0.25,
            "max": 0.75,
        }

    def test_snapshot_round_trips_and_is_json_safe(self):
        metrics = Metrics()
        metrics.count("a", 7)
        metrics.gauge("g", 1.0)
        metrics.observe("t", 0.5)
        snapshot = json.loads(json.dumps(metrics.snapshot()))
        rehydrated = Metrics.from_snapshot(snapshot)
        assert rehydrated.snapshot() == metrics.snapshot()

    def test_merge_adds_counters_and_combines_histograms(self):
        a, b = Metrics(), Metrics()
        a.count("calls", 2)
        b.count("calls", 3)
        a.observe("t", 0.1)
        b.observe("t", 0.4)
        merged = a + b
        assert merged.counters["calls"] == 5
        assert merged.timings["t"] == {"count": 2, "total": 0.5, "min": 0.1, "max": 0.4}
        # the operands are untouched (merge into a fresh registry)
        assert a.counters["calls"] == 2 and b.counters["calls"] == 3

    def test_sum_starts_from_zero_like_query_counter(self):
        parts = []
        for value in (1, 2, 3):
            m = Metrics()
            m.count("n", value)
            parts.append(m)
        assert sum(parts).counters["n"] == 6

    def test_diff_subtracts_counts_and_totals(self):
        metrics = Metrics()
        metrics.count("queries", 10)
        metrics.observe("t", 1.0)
        before = metrics.snapshot()
        metrics.count("queries", 5)
        metrics.observe("t", 0.5)
        delta = metrics.diff(before)
        assert delta["counters"] == {"queries": 5}
        assert delta["timings"]["t"]["count"] == 1
        assert delta["timings"]["t"]["total"] == pytest.approx(0.5)

    def test_diff_drops_unchanged_keys(self):
        metrics = Metrics()
        metrics.count("stable", 4)
        before = metrics.snapshot()
        delta = metrics.diff(before)
        assert delta["counters"] == {}
        assert delta["timings"] == {}

    def test_module_helpers_are_noops_when_collection_is_off(self):
        registry = metrics_mod.reset_metrics()
        assert not metrics_mod.collecting()
        metrics_mod.count("ignored")
        metrics_mod.gauge("ignored", 1.0)
        metrics_mod.observe("ignored", 1.0)
        with metrics_mod.timed("ignored"):
            pass
        assert registry.snapshot() == {"counters": {}, "gauges": {}, "timings": {}}

    def test_module_helpers_record_when_collection_is_on(self):
        registry = metrics_mod.reset_metrics()
        metrics_mod.set_collecting(True)
        metrics_mod.count("hits")
        with metrics_mod.timed("block"):
            pass
        assert registry.counters == {"hits": 1}
        assert registry.timings["block"]["count"] == 1

    def test_timed_call_decorator_gates_on_collection(self):
        @metrics_mod.timed_call("decorated")
        def work(x):
            return x * 2

        registry = metrics_mod.reset_metrics()
        assert work.__name__ == "work"  # functools.wraps preserved
        assert work(3) == 6
        assert "decorated" not in registry.timings
        metrics_mod.set_collecting(True)
        assert work(3) == 6
        assert registry.timings["decorated"]["count"] == 1


class TestTracer:
    def test_span_is_the_shared_null_singleton_when_disabled(self):
        assert trace_mod.current_tracer() is None
        first = obs.span("anything", attr=1)
        second = obs.span("else")
        assert first is obs.NULL_SPAN and second is obs.NULL_SPAN
        with first as active:
            active.add("counter")
            active.set(key="value")  # all no-ops, nothing raised

    def test_event_emits_nothing_when_disabled(self, tmp_path):
        obs.event("orphan", detail=1)  # no tracer installed: swallowed

    def test_nested_spans_record_parent_ids_and_durations(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with trace_mod.tracing(path, worker="w-test"):
            with obs.span("outer", stage="demo") as outer:
                outer.add("touched", 2)
                with obs.span("inner"):
                    pass
        events = [json.loads(line) for line in open(path)]
        by_name = {entry["name"]: entry for entry in events}
        inner, outer = by_name["inner"], by_name["outer"]
        # inner closes first (appended first) and points at outer
        assert events[0]["name"] == "inner"
        assert inner["parent"] == outer["span"]
        assert outer["parent"] is None
        assert outer["dur"] >= inner["dur"] >= 0.0
        assert outer["attrs"] == {"stage": "demo"}
        assert outer["counters"] == {"touched": 2}
        assert all(entry["worker"] == "w-test" for entry in events)
        assert all(entry["span"].startswith(f"{os.getpid()}-") for entry in events)

    def test_span_records_the_exception_type(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with trace_mod.tracing(path):
            with pytest.raises(RuntimeError):
                with obs.span("doomed"):
                    raise RuntimeError("boom")
        (entry,) = [json.loads(line) for line in open(path)]
        assert entry["error"] == "RuntimeError"

    def test_standalone_events_carry_fields(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with trace_mod.tracing(path, worker="w1"):
            obs.event("checkpoint", step=3)
        (entry,) = [json.loads(line) for line in open(path)]
        assert entry["event"] == "checkpoint"
        assert entry["step"] == 3 and entry["worker"] == "w1"

    def test_observed_installs_and_restores(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        assert trace_mod.current_tracer() is None
        with obs.observed(trace_path=path, worker="scoped") as tracer:
            assert trace_mod.current_tracer() is tracer
            assert metrics_mod.collecting()
        assert trace_mod.current_tracer() is None
        assert not metrics_mod.collecting()

    def test_observed_is_a_passthrough_when_nothing_requested(self):
        with obs.observed() as tracer:
            assert tracer is None
            assert not metrics_mod.collecting()


class TestProfiled:
    def test_noop_without_a_profile_dir(self, tmp_path):
        with obs.profiled("label"):
            pass
        assert list(tmp_path.iterdir()) == []

    def test_writes_a_pstats_file_per_label(self, tmp_path):
        profile_mod.set_profile_dir(str(tmp_path))
        with obs.profiled("run smoke/0001"):
            sum(range(100))
        names = os.listdir(tmp_path)
        assert names == ["run-smoke-0001.pstats"]  # label sanitised
        import pstats

        pstats.Stats(str(tmp_path / names[0]))  # parseable profile data


class TestSidecarInvariant:
    """Satellite 3b + the tentpole's hard invariant: telemetry never touches
    the BENCH ledger."""

    def test_traced_and_profiled_sweep_rows_are_byte_identical(self, tmp_path):
        spec = tiny_spec()
        _, baseline = run_sweep(spec, out_dir=None)
        trace = str(tmp_path / "trace.jsonl")
        _, traced = run_sweep(
            spec, out_dir=None, trace=trace, profile_dir=str(tmp_path / "prof")
        )
        assert rows_bytes(traced) == rows_bytes(baseline)
        assert [sorted(row) for row in traced["rows"]] == [
            sorted(row) for row in baseline["rows"]
        ]
        assert os.path.getsize(trace) > 0
        assert any(name.endswith(".pstats") for name in os.listdir(tmp_path / "prof"))

    def test_noop_tracer_adds_no_keys_to_bench_rows(self):
        # with observability completely off, rows carry exactly the
        # pre-observability schema — no stray telemetry keys
        _, payload = run_sweep(tiny_spec(), out_dir=None)
        expected = {
            "index",
            "family",
            "params",
            "repeat",
            "seed",
            "strategy",
            "status",
            "error",
            "success",
            "generators",
            "query_report",
        }
        for row in payload["rows"]:
            assert set(row) == expected

    def test_worker_pool_with_tracing_matches_untraced(self, tmp_path):
        spec = tiny_spec(name="obs-pool")
        _, baseline = run_sweep(spec, workers=1, out_dir=None)
        trace = str(tmp_path / "pool-trace.jsonl")
        _, traced = run_sweep(spec, workers=2, out_dir=None, trace=trace)
        assert rows_bytes(traced) == rows_bytes(baseline)
        events = obs.load_trace_events([trace])
        # the pool children traced too, under their own writer names
        writers = {e.get("worker") for e in events if e.get("worker")}
        assert any(str(w).startswith("pool-") for w in writers)


class TestTraceSummary:
    def test_loader_skips_torn_lines_and_raises_on_missing_files(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"event":"span","name":"a","dur":0.5,"pid":1}\n'
            '{"event":"span","name":"a","dur'  # torn concurrent tail
        )
        events = obs.load_trace_events([str(path)])
        assert len(events) == 1
        with pytest.raises(OSError):
            obs.load_trace_events([str(tmp_path / "missing.jsonl")])

    def test_summary_aggregates_spans_and_metrics(self):
        events = [
            {"event": "span", "name": "run", "dur": 1.0, "pid": 1, "worker": "w1"},
            {
                "event": "span",
                "name": "run",
                "dur": 3.0,
                "pid": 2,
                "worker": "w2",
                "counters": {"samples": 5},
            },
            {
                "event": "run_metrics",
                "pid": 1,
                "worker": "w1",
                "metrics": {"counters": {"engine.cache.hit": 2}, "timings": {}},
            },
        ]
        summary = obs.summarise_trace(events)
        run = summary["spans"]["run"]
        assert run["count"] == 2
        assert run["total_s"] == pytest.approx(4.0)
        assert run["mean_s"] == pytest.approx(2.0)
        assert run["max_s"] == pytest.approx(3.0)
        assert run["counters"] == {"samples": 5}
        assert summary["metrics"]["counters"] == {"engine.cache.hit": 2}
        assert summary["workers"] == ["w1", "w2"]
        # spans and metric timers bucket by name prefix into phases
        assert summary["phases"]["run"]["span_count"] == 2
        assert summary["phases"]["run"]["span_s"] == pytest.approx(4.0)
        rendered = obs.format_trace_summary(summary)
        assert "run" in rendered and "engine.cache.hit = 2" in rendered
        assert "share" in rendered and "100.0%" in rendered

    def test_solver_phases_sampler_batches_and_engine_events_covered(self, tmp_path):
        trace = str(tmp_path / "trace.jsonl")
        run_sweep(tiny_spec(name="obs-phases"), out_dir=None, trace=trace)
        summary = obs.summarise_trace(obs.load_trace_events([trace]))
        names = set(summary["spans"])
        assert "solver.choose_strategy" in names
        assert any(name.startswith("solver.strategy.") for name in names)
        assert "sampler.batch" in names
        assert "engine.build" in names
        assert summary["spans"]["sampler.batch"]["counters"]["samples"] > 0
        # per-run metric deltas rode along as run_metrics events
        assert summary["metrics"]["timings"]  # linalg/engine timers present
        # the phase buckets surface the engine's build and batch-kernel work
        # (spans plus engine.* metric timers) next to solver and sampler
        phases = summary["phases"]
        assert {"solver", "sampler", "engine"} <= set(phases)
        assert phases["engine"]["span_count"] > 0
        assert phases["engine"]["timer_count"] > 0


class TestTraceCLI:
    def test_cli_run_with_trace_then_summarise(self, tmp_path, capsys):
        out = str(tmp_path)
        trace = str(tmp_path / "trace.jsonl")
        assert cli_main(["run", "smoke", "--out", out, "--trace", trace]) == 0
        capsys.readouterr()
        assert cli_main(["trace", "summarise", trace]) == 0
        rendered = capsys.readouterr().out
        assert "solver.choose_strategy" in rendered
        assert "sampler.batch" in rendered
        assert "phase" in rendered and "calls" in rendered

    def test_summarize_alias_and_multiple_files(self, tmp_path, capsys):
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        first.write_text('{"event":"span","name":"x","dur":1.0,"pid":1}\n')
        second.write_text('{"event":"span","name":"x","dur":1.0,"pid":2}\n')
        assert cli_main(["trace", "summarize", str(first), str(second)]) == 0
        assert "2 trace event(s)" in capsys.readouterr().out

    def test_empty_trace_exits_nonzero(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert cli_main(["trace", "summarise", str(empty)]) == 1
        assert "no trace events" in capsys.readouterr().err

    def test_missing_trace_file_exits_nonzero(self, tmp_path, capsys):
        assert cli_main(["trace", "summarise", str(tmp_path / "nope.jsonl")]) == 1
        assert capsys.readouterr().err

    def test_report_shows_per_strategy_timings(self, tmp_path, capsys):
        out = str(tmp_path)
        assert cli_main(["run", "smoke", "--out", out]) == 0
        capsys.readouterr()
        assert cli_main(["report", "smoke", "--out", out]) == 0
        rendered = capsys.readouterr().out
        assert "per-strategy timings:" in rendered
        assert "hidden_normal" in rendered
        assert "mean=" in rendered and "max=" in rendered
