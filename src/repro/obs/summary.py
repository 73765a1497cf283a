"""Summarise JSONL trace files into a per-phase time/counter breakdown."""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Sequence

from repro.obs.metrics import Metrics

__all__ = ["format_trace_summary", "load_trace_events", "summarise_trace"]


def load_trace_events(paths: Sequence[str]) -> List[Dict[str, Any]]:
    """Parse trace events from one or more JSONL files.

    Unparseable lines are skipped (concurrent writers make a torn final line
    possible); missing files raise so typos surface loudly.
    """

    events: List[Dict[str, Any]] = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    parsed = json.loads(line)
                except ValueError:
                    continue
                if isinstance(parsed, dict) and "event" in parsed:
                    events.append(parsed)
    return events


def _phase_of(name: str) -> str:
    """The phase bucket of a span/timer name: the prefix before the first dot.

    ``engine.build`` and ``engine.bulk.mul`` both land in the ``engine``
    bucket; ``sampler.batch`` in ``sampler``;
    ``noise.oracle_flip`` and ``noise.depolarise`` in ``noise`` (so a noisy
    run's corruption cost shows up as its own phase); a name without a dot
    is its own bucket.
    """
    return name.split(".", 1)[0]


def summarise_trace(events: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate span durations/counters and merge embedded metrics snapshots.

    Returns ``{"spans": {name: {count, total_s, mean_s, max_s, counters}},
    "phases": {prefix: {span_count, span_s, timer_count, timer_s}},
    "metrics": snapshot, "events": n, "workers": [...]}``.  Phases bucket
    spans and metric timers by their name prefix (before the first dot), so
    the engine's build and batch-kernel work shows up as one ``engine``
    line next to ``solver`` and ``sampler``.  Nested spans each count their
    own wall time, so phase shares are of summed span time, not wall-clock.
    """

    spans: Dict[str, Dict[str, Any]] = {}
    merged = Metrics()
    workers = set()
    total = 0
    for entry in events:
        total += 1
        worker = entry.get("worker")
        if worker is None:
            worker = f"pid-{entry.get('pid', '?')}"
        workers.add(str(worker))
        if entry.get("event") == "span":
            name = str(entry.get("name", "?"))
            duration = float(entry.get("dur", 0.0))
            bucket = spans.setdefault(
                name,
                {"count": 0, "total_s": 0.0, "max_s": 0.0, "errors": 0, "counters": {}},
            )
            bucket["count"] += 1
            bucket["total_s"] += duration
            if duration > bucket["max_s"]:
                bucket["max_s"] = duration
            if "error" in entry:
                bucket["errors"] += 1
            for key, value in (entry.get("counters") or {}).items():
                bucket["counters"][key] = bucket["counters"].get(key, 0) + int(value)
        elif "metrics" in entry:
            merged.merge(Metrics.from_snapshot(entry["metrics"]))
    for bucket in spans.values():
        bucket["mean_s"] = bucket["total_s"] / bucket["count"]
    snapshot = merged.snapshot()
    phases: Dict[str, Dict[str, Any]] = {}

    def phase_bucket(name: str) -> Dict[str, Any]:
        return phases.setdefault(
            _phase_of(name),
            {"span_count": 0, "span_s": 0.0, "timer_count": 0, "timer_s": 0.0},
        )

    for name, bucket in spans.items():
        phase = phase_bucket(name)
        phase["span_count"] += bucket["count"]
        phase["span_s"] += bucket["total_s"]
    for name, timing in snapshot.get("timings", {}).items():
        phase = phase_bucket(name)
        phase["timer_count"] += int(timing["count"])
        phase["timer_s"] += float(timing["total"])
    return {
        "spans": {name: spans[name] for name in sorted(spans)},
        "phases": {name: phases[name] for name in sorted(phases)},
        "metrics": snapshot,
        "events": total,
        "workers": sorted(workers),
    }


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:8.3f}s"
    return f"{seconds * 1e3:7.2f}ms"


def format_trace_summary(summary: Dict[str, Any]) -> str:
    """Render a summary as an ASCII table (per-phase time, then counters)."""

    lines: List[str] = []
    workers = summary.get("workers", [])
    lines.append(
        f"{summary.get('events', 0)} trace event(s) from "
        f"{len(workers)} writer(s): {', '.join(workers) if workers else '-'}"
    )
    phases = summary.get("phases", {})
    if phases:
        span_total = sum(bucket["span_s"] for bucket in phases.values())
        ordered = sorted(
            phases.items(), key=lambda item: (-item[1]["span_s"], -item[1]["timer_s"])
        )
        name_width = max(len("phase"), max(len(name) for name, _ in ordered))
        lines.append("")
        lines.append(
            f"  {'phase'.ljust(name_width)}  {'spans':>6}  {'span total':>10}  "
            f"{'share':>6}  {'timers':>6}  {'timer total':>11}"
        )
        for name, bucket in ordered:
            share = bucket["span_s"] / span_total if span_total else 0.0
            lines.append(
                f"  {name.ljust(name_width)}  {bucket['span_count']:>6}  "
                f"{_fmt_seconds(bucket['span_s']):>10}  {share:>5.1%}  "
                f"{bucket['timer_count']:>6}  {_fmt_seconds(bucket['timer_s']):>11}"
            )
    spans = summary.get("spans", {})
    if spans:
        ordered = sorted(spans.items(), key=lambda item: -item[1]["total_s"])
        name_width = max(len("phase"), max(len(name) for name, _ in ordered))
        lines.append("")
        lines.append(
            f"  {'phase'.ljust(name_width)}  {'calls':>6}  {'total':>9}  "
            f"{'mean':>9}  {'max':>9}  counters"
        )
        for name, bucket in ordered:
            counters = bucket.get("counters", {})
            counter_text = " ".join(
                f"{key}={counters[key]}" for key in sorted(counters)
            )
            if bucket.get("errors"):
                counter_text = (f"errors={bucket['errors']} " + counter_text).strip()
            lines.append(
                f"  {name.ljust(name_width)}  {bucket['count']:>6}  "
                f"{_fmt_seconds(bucket['total_s'])}  {_fmt_seconds(bucket['mean_s'])}  "
                f"{_fmt_seconds(bucket['max_s'])}  {counter_text}"
            )
    metrics = summary.get("metrics", {})
    timings = metrics.get("timings", {})
    if timings:
        name_width = max(len("timer"), max(len(name) for name in timings))
        lines.append("")
        lines.append(f"  {'timer'.ljust(name_width)}  {'calls':>6}  {'total':>9}  {'mean':>9}")
        for name in sorted(timings, key=lambda key: -timings[key]["total"]):
            bucket = timings[name]
            calls = int(bucket["count"])
            mean = bucket["total"] / calls if calls else 0.0
            lines.append(
                f"  {name.ljust(name_width)}  {calls:>6}  "
                f"{_fmt_seconds(bucket['total'])}  {_fmt_seconds(mean)}"
            )
    counters = metrics.get("counters", {})
    if counters:
        lines.append("")
        lines.append("  metric counters:")
        for name in sorted(counters):
            lines.append(f"    {name} = {counters[name]}")
    return "\n".join(lines)
