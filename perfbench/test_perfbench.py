"""Self-test of the benchmark at its tiny size.

Every metric ``BENCHMARK.json`` names must print, with its declared unit, on
every workload; the traced self times must add up to the traced wall; an
injected wrong reference row must be counted as a failure; rescaling to the
reference host must touch only on-CPU time; and without the program's
source the benchmark must fail without printing a result.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import hostspeed, run, workloads

ROOT = run.ROOT
WORKLOADS = ("solve-large", "sweep-small", "queue-http")


def _definition():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _invoke(workload: str, trace: int, cwd: str = ROOT, script: str = run.__file__):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit(workload, trace):
    done = _invoke(workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0, done.stderr
    assert result["attempted"] >= 1
    declared = _definition()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in declared}
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert math.isfinite(printed["value"])
        assert any(line.split()[:1] == [metric["name"]] and line.endswith(metric["unit"]) for line in lines)
    if trace:
        values = {name: entry["value"] for name, entry in result["metrics"].items()}
        attributed = sum(values[name] for name in run.SELF_TIME_LAYERS) + values["unattributed_s"]
        assert attributed == pytest.approx(values["trace.wall_s"], rel=1e-9)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_reference_row_counts_as_failed(workload, monkeypatch, capsys):
    expect = workloads.Ledger.expect

    def corrupt_first(ledger, key, row):
        expect(ledger, key, row if ledger.reference else row + b" ")

    monkeypatch.setattr(workloads.Ledger, "expect", corrupt_first)
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1", "--tiny"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["metrics"]["failed_share"]["value"] > 0


def test_scaling_keeps_off_cpu_time():
    assert hostspeed.scaled((1.0, 1.0), 2.0) == pytest.approx(0.5)
    assert hostspeed.scaled((1.0, 0.25), 2.0) == pytest.approx(0.875)
    assert hostspeed.scaled((1.0, 1.5), 2.0) == pytest.approx(0.5)
    assert hostspeed.slowdown([hostspeed.REFERENCE_S] * 3) == 1.0


def test_tracker_takes_calibrations_out_and_uses_the_nearby_ones():
    host = hostspeed.Tracker()
    host.points = [(0.0, 4.0), (10.0, 2.0)]
    host.pauses = [((10.0, 5.0), (10.5, 5.5))]
    # 11 s wall, 6 s on the CPU; the 0.5 s calibration at 10 s comes out.
    assert host.scaled(((9.0, 2.0), (20.0, 8.0))) == pytest.approx(5.0 + 5.5 / 2.0)
    # No calibration near: the nearest one counts.
    assert host.scaled(((4.0, 0.0), (5.0, 1.0))) == pytest.approx(1.0 / 4.0)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _invoke("solve-large", 0, cwd=str(tmp_path), script=str(tmp_path / "perfbench" / "run.py"))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
