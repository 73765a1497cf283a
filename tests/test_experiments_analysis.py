"""Statistics post-processing tests (PR 4): ``summarise``/``plot``.

The contract under test:

* Wilson score intervals behave at the edges (0/N, N/N) and an empty cell
  has no estimate at all (``None``, never 1.0);
* cells group by grid axes only — seed/repeat/index never reach the key;
* the ``1-(1-p)^r`` saturation fit recovers a planted ``p`` from exact
  synthetic data, deterministically;
* crossover interpolation locates the intersection of two cost curves on a
  hand-built two-strategy BENCH fixture, with an interval from the
  per-cell standard errors;
* ``ANALYSIS_<name>.json`` is byte-identical across reruns on the same
  BENCH input (golden-file determinism);
* row loading rejects stale files whose rows disagree with the recorded
  spec header (:class:`SpecMismatch` naming the offending keys), and
  all-error files make ``report``/``summarise`` exit non-zero with the
  error count instead of dividing by zero.
"""

import json
import math
import os

import pytest

from repro.experiments import (
    SpecMismatch,
    SweepSpec,
    analyse,
    axis_roles,
    fit_saturation,
    get_analysis,
    load_validated_bench,
    locate_crossover,
    run_sweep,
    wilson_interval,
    write_bench,
)
from repro.experiments.analysis import (
    analysis_path,
    ascii_plot,
    directive_for,
    format_summary,
    format_table,
    group_cells,
    render_svg,
    write_analysis,
)
from repro.experiments import RunRecord
from repro.experiments.cli import main as cli_main
from repro.experiments.results import (
    append_journal,
    error_rows,
    journal_path,
    load_journal_payload,
    resolve_bench,
    validate_rows,
    write_journal_header,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 20010202


# ---------------------------------------------------------------------------
# Fixtures: hand-built BENCH payloads
# ---------------------------------------------------------------------------


def make_row(index, params, success=True, status="ok", queries=None, seed=0):
    return {
        "index": index,
        "family": "synthetic",
        "params": dict(params),
        "repeat": 0,
        "seed": seed,
        "strategy": params.get("strategy", "auto"),
        "status": status,
        "error": "Traceback ..." if status == "error" else None,
        "success": success if status == "ok" else False,
        "generators": [],
        "query_report": dict(queries or {}),
    }


def make_payload(name, grid, rows):
    spec = SweepSpec.from_grid(name, "synthetic", grid, repeats=1, seed=SEED)
    ok = [row for row in rows if row["status"] == "ok"]
    return {
        "sweep": spec.to_json_dict(),
        "workers": 1,
        "rows": rows,
        "timings": [{"index": row["index"], "wall_time_seconds": 0.0} for row in rows],
        "aggregate": {
            "runs": len(rows),
            "successes": sum(1 for row in ok if row["success"]),
            "errors": len(rows) - len(ok),
            "success_rate": None,
            "strategies": {},
            "query_totals": {},
            "wall_time_seconds": 0.0,
        },
    }


def crossover_payload():
    """Two strategies whose total-query curves cross between x=4 and x=8.

    ``slow`` costs 2x (8, 16, 32, 64 at x = 4..32); ``flat`` costs a
    constant 24 with a small spread across repeats.  The curves cross where
    2x = 24, i.e. x = 12 — between the measured x=8 and x=16 points.
    """
    rows = []
    index = 0
    for x in (4, 8, 16, 32):
        for strategy in ("flat", "slow"):
            for repeat, jitter in enumerate((-1, 0, 1)):
                cost = 24 + jitter if strategy == "flat" else 2 * x
                row = make_row(
                    index,
                    {"x": x, "strategy": strategy},
                    queries={"classical_queries": cost},
                    seed=index,
                )
                row["repeat"] = repeat
                rows.append(row)
                index += 1
    return make_payload("synthetic-crossover", {"x": [4, 8, 16, 32], "strategy": ["flat", "slow"]}, rows)


# ---------------------------------------------------------------------------
# Wilson intervals
# ---------------------------------------------------------------------------


class TestWilsonInterval:
    def test_empty_cell_has_no_estimate(self):
        assert wilson_interval(0, 0) is None

    def test_zero_of_n_lower_bound_is_zero_upper_positive(self):
        low, high = wilson_interval(0, 8)
        assert low == 0.0
        assert 0.0 < high < 0.5

    def test_n_of_n_upper_is_one_lower_below_one(self):
        low, high = wilson_interval(8, 8)
        assert high == 1.0
        assert 0.5 < low < 1.0

    def test_known_value(self):
        # 4/8 at z=1.96: the Wilson interval is symmetric around 0.5.
        low, high = wilson_interval(4, 8)
        assert low == pytest.approx(1.0 - high, abs=1e-12)
        assert low == pytest.approx(0.2152, abs=1e-3)

    def test_more_trials_tighten_the_interval(self):
        low8, high8 = wilson_interval(4, 8)
        low80, high80 = wilson_interval(40, 80)
        assert high80 - low80 < high8 - low8

    def test_out_of_range_successes_rejected(self):
        with pytest.raises(ValueError):
            wilson_interval(9, 8)
        with pytest.raises(ValueError):
            wilson_interval(-1, 8)


# ---------------------------------------------------------------------------
# Cell grouping
# ---------------------------------------------------------------------------


class TestGroupCells:
    def test_repeats_collapse_into_one_cell(self):
        rows = [
            make_row(0, {"n": 8}, success=True, seed=11),
            make_row(1, {"n": 8}, success=False, seed=22),
            make_row(2, {"n": 16}, success=True, seed=33),
        ]
        cells = group_cells(make_payload("g", {"n": [8, 16]}, rows))
        assert len(cells) == 2
        assert cells[0]["params"] == {"n": 8}
        assert cells[0]["runs"] == 2 and cells[0]["successes"] == 1
        assert cells[0]["success_rate"] == 0.5

    def test_seed_and_repeat_never_enter_the_key(self):
        rows = [make_row(i, {"n": 8}, seed=1000 + i) for i in range(4)]
        for i, row in enumerate(rows):
            row["repeat"] = i
        cells = group_cells(make_payload("g", {"n": [8]}, rows))
        assert len(cells) == 1
        assert cells[0]["runs"] == 4

    def test_error_rows_tallied_not_counted(self):
        rows = [
            make_row(0, {"n": 8}, success=True),
            make_row(1, {"n": 8}, status="error"),
        ]
        cells = group_cells(make_payload("g", {"n": [8]}, rows))
        assert cells[0]["runs"] == 1
        assert cells[0]["errors"] == 1
        assert cells[0]["success_rate"] == 1.0

    def test_all_error_cell_reports_none_not_one(self):
        rows = [make_row(0, {"n": 8}, status="error"), make_row(1, {"n": 8}, status="error")]
        cells = group_cells(make_payload("g", {"n": [8]}, rows))
        assert cells[0]["success_rate"] is None
        assert cells[0]["wilson_low"] is None and cells[0]["wilson_high"] is None
        assert cells[0]["mean_queries"] == {}

    def test_mean_queries_over_ok_rows(self):
        rows = [
            make_row(0, {"n": 8}, queries={"quantum_queries": 10}),
            make_row(1, {"n": 8}, queries={"quantum_queries": 20}),
        ]
        cells = group_cells(make_payload("g", {"n": [8]}, rows))
        assert cells[0]["mean_queries"] == {"quantum_queries": 15.0}


# ---------------------------------------------------------------------------
# Saturation fit
# ---------------------------------------------------------------------------


class TestSaturationFit:
    def planted(self, p, xs=(1, 2, 4, 8, 16), runs=1000):
        # Exact expected counts: successes = runs * (1-(1-p)^r), fractional
        # counts are fine for the fitter (it only forms rates).
        return [(x, runs * (1.0 - (1.0 - p) ** x), runs) for x in xs]

    @pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.72, 0.9])
    def test_recovers_planted_parameter(self, p):
        fit = fit_saturation(self.planted(p))
        assert fit is not None
        assert fit["p"] == pytest.approx(p, abs=2e-4)
        assert all(abs(point["residual"]) < 1e-3 for point in fit["points"])

    def test_deterministic(self):
        points = self.planted(0.37)
        assert fit_saturation(points) == fit_saturation(points)

    def test_needs_two_points(self):
        assert fit_saturation([(1, 5, 10)]) is None
        assert fit_saturation([]) is None
        assert fit_saturation([(1, 5, 10), (2, 0, 0)]) is None  # empty cell excluded

    def test_perfect_success_fits_p_near_one(self):
        fit = fit_saturation([(1, 8, 8), (2, 8, 8), (4, 8, 8)])
        assert fit["p"] > 0.99

    def test_residuals_consistent_with_model(self):
        fit = fit_saturation([(1, 3, 8), (2, 6, 8), (4, 8, 8), (8, 8, 8)])
        for point in fit["points"]:
            predicted = 1.0 - (1.0 - fit["p"]) ** point["x"]
            assert point["fitted"] == pytest.approx(predicted, abs=1e-9)
            assert point["residual"] == pytest.approx(point["rate"] - predicted, abs=1e-9)


# ---------------------------------------------------------------------------
# Crossover interpolation
# ---------------------------------------------------------------------------


class TestCrossover:
    def test_locates_planted_intersection(self):
        analysis = analyse(crossover_payload())
        crossover = analysis["crossover"]
        assert crossover is not None
        assert crossover["series"] == ["flat", "slow"]
        # diff(x) = flat - slow = 24 - 2x crosses zero at x = 12; log2
        # interpolation between the measured x=8 and x=16 lands close by.
        assert 10.0 < crossover["x"] < 14.0
        assert crossover["low"] <= crossover["x"] <= crossover["high"]
        assert crossover["scale"] == "log2"
        assert crossover["x_axis"] == "x"

    def test_interval_reflects_spread(self):
        crossover = analyse(crossover_payload())["crossover"]
        # The flat strategy has a ±1 spread over 3 repeats, so the interval
        # must have positive width but stay inside the measured range.
        assert crossover["high"] > crossover["low"]
        assert crossover["low"] >= 4 and crossover["high"] <= 32

    def test_no_intersection_reports_none(self):
        series = {
            "a": [(4.0, 10.0, 0.0, 3), (8.0, 10.0, 0.0, 3)],
            "b": [(4.0, 20.0, 0.0, 3), (8.0, 30.0, 0.0, 3)],
        }
        assert locate_crossover(series) is None

    def test_exact_zero_at_a_grid_point(self):
        series = {
            "a": [(4.0, 10.0, 0.0, 3), (8.0, 20.0, 0.0, 3)],
            "b": [(4.0, 10.0, 0.0, 3), (8.0, 10.0, 0.0, 3)],
        }
        located = locate_crossover(series)
        assert located is not None
        assert located["x"] == 4.0

    def test_requires_exactly_two_series(self):
        point = [(4.0, 10.0, 0.0, 3), (8.0, 20.0, 0.0, 3)]
        assert locate_crossover({"a": point}) is None
        assert locate_crossover({"a": point, "b": point, "c": point}) is None

    def test_error_rows_excluded_from_cost_curves(self):
        payload = crossover_payload()
        # Poison one x=8/slow repeat with an error: means must not change
        # location drastically because the error row is excluded.
        for row in payload["rows"]:
            if row["params"] == {"x": 8, "strategy": "slow"} and row["repeat"] == 0:
                row["status"], row["success"], row["query_report"] = "error", False, {}
        crossover = analyse(payload)["crossover"]
        assert crossover is not None
        assert 10.0 < crossover["x"] < 14.0


# ---------------------------------------------------------------------------
# Directives and axis roles
# ---------------------------------------------------------------------------


class TestDirectives:
    def test_axis_roles_split_reserved_keys(self):
        roles = axis_roles(["n", "strategy", "confidence", "p"])
        assert roles["statistical"] == ["confidence", "strategy"]
        assert roles["structural"] == ["n", "p"]

    def test_declared_workloads_have_directives(self):
        assert get_analysis("success-vs-rounds").kind == "saturation"
        assert get_analysis("success-vs-rounds-abelian").kind == "saturation"
        crossover = get_analysis("strategy-crossover")
        assert crossover.kind == "crossover"
        assert crossover.x_axis == "n" and crossover.series_axis == "strategy"

    def test_unknown_sweep_falls_back_to_grid_shape(self):
        payload = crossover_payload()  # not a declared workload name
        directive = directive_for(payload)
        assert directive.kind == "crossover"
        assert directive.x_axis == "x" and directive.series_axis == "strategy"

    def test_plain_grid_defaults_to_table(self):
        payload = make_payload("plain", {"n": [8]}, [make_row(0, {"n": 8})])
        assert directive_for(payload).kind == "table"


# ---------------------------------------------------------------------------
# Golden-file determinism of ANALYSIS_<name>.json
# ---------------------------------------------------------------------------


def checked_in_bench(name):
    return os.path.join(REPO_ROOT, f"BENCH_{name}.json")


class TestAnalysisDeterminism:
    @pytest.mark.parametrize(
        "name", ["strategy-crossover", "success-vs-rounds", "success-vs-rounds-abelian"]
    )
    def test_checked_in_bench_analyses_byte_identically(self, name, tmp_path):
        source = checked_in_bench(name)
        if not os.path.exists(source):
            pytest.skip(f"no checked-in BENCH_{name}.json")
        for out in ("first", "second"):
            code = cli_main(["summarise", source, "--out", str(tmp_path / out)])
            assert code == 0
        first = (tmp_path / "first" / f"ANALYSIS_{name}.json").read_bytes()
        second = (tmp_path / "second" / f"ANALYSIS_{name}.json").read_bytes()
        assert first == second

    def test_checked_in_analysis_files_are_current(self):
        # The repo-root ANALYSIS files are goldens: regenerating them from
        # their BENCH inputs must reproduce the committed bytes exactly.
        for name in ("strategy-crossover", "success-vs-rounds", "success-vs-rounds-abelian"):
            golden = os.path.join(REPO_ROOT, f"ANALYSIS_{name}.json")
            source = checked_in_bench(name)
            if not (os.path.exists(golden) and os.path.exists(source)):
                pytest.skip("goldens not checked in")
            payload = load_validated_bench(source)
            analysis = analyse(payload, source=source)
            regenerated = json.dumps(analysis, indent=2, sort_keys=True) + "\n"
            with open(golden, "r", encoding="utf-8") as handle:
                assert handle.read() == regenerated, f"{golden} is stale; re-run summarise"

    def test_fixture_analysis_deterministic_and_path_normalized(self, tmp_path):
        payload = crossover_payload()
        analysis = analyse(payload, source="/somewhere/deep/BENCH_x.json")
        assert analysis["source"] == "BENCH_x.json"  # no absolute paths
        path1 = write_analysis(str(tmp_path / "a"), "x", analysis)
        path2 = write_analysis(str(tmp_path / "b"), "x", analyse(payload, source="BENCH_x.json"))
        assert open(path1, "rb").read() == open(path2, "rb").read()

    def test_write_analysis_is_atomic_and_named(self, tmp_path):
        path = write_analysis(str(tmp_path), "some/name with space", {"analysis_version": 1})
        assert os.path.basename(path) == "ANALYSIS_some-name-with-space.json"
        assert [n for n in os.listdir(tmp_path) if n.startswith("ANALYSIS_")] == [
            os.path.basename(path)
        ]
        assert analysis_path(str(tmp_path), "some/name with space") == path

    def test_saturation_fit_on_checked_in_rows(self):
        source = checked_in_bench("success-vs-rounds")
        if not os.path.exists(source):
            pytest.skip("no checked-in BENCH")
        analysis = analyse(load_validated_bench(source), source=source)
        assert analysis["kind"] == "saturation"
        assert len(analysis["fits"]) == 2  # one slice per group size n
        for fit in analysis["fits"]:
            assert 0.0 < fit["p"] <= 1.0
            assert fit["model"] == "1-(1-p)^r"

    def test_crossover_on_checked_in_rows(self):
        source = checked_in_bench("strategy-crossover")
        if not os.path.exists(source):
            pytest.skip("no checked-in BENCH")
        analysis = analyse(load_validated_bench(source), source=source)
        crossover = analysis["crossover"]
        assert crossover is not None
        assert crossover["series"] == ["classical", "hidden_normal"]
        assert 8 <= crossover["low"] <= crossover["x"] <= crossover["high"] <= 16


# ---------------------------------------------------------------------------
# Spec-header validation (stale/edited files)
# ---------------------------------------------------------------------------


class TestSpecValidation:
    def test_valid_payload_passes(self):
        payload = crossover_payload()
        assert len(validate_rows(payload)) == len(payload["rows"])

    def test_row_with_wrong_keys_rejected_naming_them(self, tmp_path):
        payload = crossover_payload()
        payload["rows"][3]["params"] = {"m": 4, "strategy": "flat"}
        path = str(tmp_path / "BENCH_stale.json")
        with open(path, "w") as handle:
            json.dump(payload, handle)
        with pytest.raises(SpecMismatch) as excinfo:
            load_validated_bench(path)
        message = str(excinfo.value)
        assert "'m'" in message and "'x'" in message and "index 3" in str(excinfo.value)

    def test_row_with_value_outside_grid_rejected(self):
        payload = crossover_payload()
        payload["rows"][0]["params"]["x"] = 999
        with pytest.raises(SpecMismatch) as excinfo:
            validate_rows(payload)
        assert "['x']" in str(excinfo.value)

    def test_non_sweep_payload_rejected(self):
        with pytest.raises(ValueError, match="not a sweep BENCH file"):
            validate_rows({"benchmark": "engine"})

    def test_tuple_list_round_trip_tolerated(self, tmp_path):
        # A freshly-written sweep: grid values are tuples in memory, lists
        # after the JSON round-trip — both must validate.
        spec = SweepSpec.from_grid("t", "abelian_random", {"moduli": [(8, 9)]})
        row = make_row(0, {"moduli": [8, 9]})
        payload = {"sweep": spec.to_json_dict(), "rows": [row]}
        assert validate_rows(payload) == [row]

    def test_cli_report_rejects_stale_file(self, tmp_path, capsys):
        payload = crossover_payload()
        payload["rows"][0]["params"] = {"bogus": 1}
        path = str(tmp_path / "BENCH_stale.json")
        with open(path, "w") as handle:
            json.dump(payload, handle)
        assert cli_main(["report", path]) == 1
        assert "disagrees with the recorded sweep spec" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# All-error BENCH files
# ---------------------------------------------------------------------------


def all_error_bench(tmp_path, runs=3):
    rows = [make_row(i, {"n": 8}, status="error", seed=i) for i in range(runs)]
    payload = make_payload("allerr", {"n": [8]}, rows)
    return write_bench(str(tmp_path), "allerr", payload)


class TestAllErrorHandling:
    def test_error_rows_helper(self, tmp_path):
        payload = load_validated_bench(all_error_bench(tmp_path))
        assert len(error_rows(payload)) == 3

    @pytest.mark.parametrize("command", ["report", "summarise", "plot"])
    def test_cli_exits_nonzero_with_error_count(self, command, tmp_path, capsys):
        path = all_error_bench(tmp_path)
        assert cli_main([command, path, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "all 3 run(s) errored" in err
        assert "re-run the sweep" in err

    def test_summarise_writes_no_analysis_for_all_error_file(self, tmp_path):
        path = all_error_bench(tmp_path)
        cli_main(["summarise", path, "--out", str(tmp_path)])
        assert not os.path.exists(analysis_path(str(tmp_path), "allerr"))

    def test_mixed_file_still_reports(self, tmp_path, capsys):
        rows = [
            make_row(0, {"n": 8}, success=True, queries={"quantum_queries": 3}),
            make_row(1, {"n": 8}, status="error", seed=1),
        ]
        write_bench(str(tmp_path), "mixed", make_payload("mixed", {"n": [8]}, rows))
        assert cli_main(["report", "mixed", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "ERR" in out  # the errored row is marked, not hidden


# ---------------------------------------------------------------------------
# Analysing an interrupted sweep's journal
# ---------------------------------------------------------------------------


def write_partial_journal(tmp_path, name="jtest", rows=3):
    spec = SweepSpec.from_grid(name, "synthetic", {"n": [8, 16]}, repeats=2, seed=SEED)
    jpath = journal_path(str(tmp_path), name)
    write_journal_header(jpath, spec)
    for index in range(rows):
        append_journal(
            jpath,
            RunRecord(
                sweep=name,
                index=index,
                family="synthetic",
                params={"n": 8 if index < 2 else 16},
                repeat=index % 2,
                seed=100 + index,
                strategy="auto",
                success=index != 1,
                generators=[],
                query_report={"quantum_queries": 5},
            ),
        )
    return jpath


class TestJournalAnalysis:
    def test_load_journal_payload_reconstructs_rows(self, tmp_path):
        jpath = write_partial_journal(tmp_path)
        payload = load_journal_payload(jpath)
        assert payload["partial"] is True
        assert [row["index"] for row in payload["rows"]] == [0, 1, 2]
        assert payload["aggregate"]["runs"] == 3
        assert validate_rows(payload, path=jpath)

    def test_summarise_falls_back_to_journal_for_unfinished_sweep(self, tmp_path, capsys):
        write_partial_journal(tmp_path)
        assert cli_main(["summarise", "jtest", "--out", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert "in-progress journal" in captured.err
        assert "3 completed run(s)" in captured.out.replace("completed run(s)", "completed run(s)")
        assert os.path.exists(analysis_path(str(tmp_path), "jtest"))

    def test_explicit_journal_path_target(self, tmp_path, capsys):
        jpath = write_partial_journal(tmp_path)
        assert cli_main(["report", jpath, "--out", str(tmp_path)]) == 0
        assert "in-progress journal" in capsys.readouterr().err

    def test_bench_file_wins_over_an_agreeing_journal(self, tmp_path, capsys):
        # Once the sweep finished, the BENCH file is authoritative — but
        # only because the surviving journal (a crash landed between
        # write_bench and the journal removal) *agrees* with it.  The
        # journal's rows must be a subset of the BENCH rows; a journal that
        # disagrees fails loudly instead (PR 5, see
        # test_experiments_distributed.TestLedgerDivergence).
        jpath = write_partial_journal(tmp_path, name="done")
        jpayload = load_journal_payload(jpath)
        spec = SweepSpec.from_grid("done", "synthetic", {"n": [8, 16]}, repeats=2, seed=SEED)
        payload = {
            "sweep": spec.to_json_dict(),
            "workers": 1,
            "rows": jpayload["rows"],
            "timings": [],
            "aggregate": {
                "runs": len(jpayload["rows"]),
                "successes": 2,
                "errors": 0,
                "success_rate": None,
                "strategies": {},
                "query_totals": {},
                "wall_time_seconds": 0.0,
            },
        }
        write_bench(str(tmp_path), "done", payload)
        assert cli_main(["report", "done", "--out", str(tmp_path)]) == 0
        assert "in-progress journal" not in capsys.readouterr().err

    def test_headerless_journal_rejected(self, tmp_path, capsys):
        jpath = journal_path(str(tmp_path), "broken")
        with open(jpath, "w") as handle:
            handle.write("")
        assert cli_main(["summarise", "broken", "--out", str(tmp_path)]) == 1
        assert "no journal header" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# CLI drills: summarise / plot
# ---------------------------------------------------------------------------


class TestCli:
    def run_tiny_sweep(self, tmp_path):
        spec = SweepSpec.from_grid(
            "tiny-stats",
            "dihedral_rotation",
            {"n": [8, 12], "confidence": [1, 4]},
            repeats=2,
            seed=SEED,
        )
        path, payload = run_sweep(spec, workers=1, out_dir=str(tmp_path))
        return path

    def test_summarise_end_to_end(self, tmp_path, capsys):
        self.run_tiny_sweep(tmp_path)
        assert cli_main(["summarise", "tiny-stats", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Wilson CI" in out
        assert "saturation fit" in out
        assert os.path.exists(analysis_path(str(tmp_path), "tiny-stats"))

    def test_summarize_alias(self, tmp_path, capsys):
        self.run_tiny_sweep(tmp_path)
        assert cli_main(["summarize", "tiny-stats", "--out", str(tmp_path)]) == 0
        assert "wrote" in capsys.readouterr().out

    def test_plot_ascii_and_svg(self, tmp_path, capsys):
        self.run_tiny_sweep(tmp_path)
        svg_path = str(tmp_path / "tiny.svg")
        assert cli_main(["plot", "tiny-stats", "--out", str(tmp_path), "--svg", svg_path]) == 0
        out = capsys.readouterr().out
        assert "success rate vs confidence" in out
        content = open(svg_path).read()
        assert content.startswith("<svg ") and content.rstrip().endswith("</svg>")
        assert "polyline" in content

    def test_svg_deterministic(self, tmp_path):
        payload = crossover_payload()
        analysis = analyse(payload, source="BENCH_x.json")
        assert render_svg(analysis) == render_svg(analysis)
        assert "crossover" in render_svg(analysis)

    def test_plot_missing_target(self, tmp_path, capsys):
        assert cli_main(["plot", "nope", "--out", str(tmp_path)]) == 1
        assert "run the sweep first" in capsys.readouterr().err

    def test_ascii_plot_handles_empty_series(self):
        payload = make_payload("empty", {"n": [8]}, [])
        assert "nothing to plot" in ascii_plot(analyse(payload))

    def test_format_table_marks_empty_cells(self):
        rows = [make_row(0, {"n": 8}, status="error")]
        analysis = analyse(make_payload("g", {"n": [8]}, rows))
        table = format_table(analysis)
        assert "n/a" in table and "(no completed runs)" in table
        assert "(cell table only" in format_summary(analysis)

    def test_resolve_bench_prefers_existing_path(self, tmp_path):
        path = all_error_bench(tmp_path)
        assert resolve_bench(path, ".") == path
        assert resolve_bench("allerr", str(tmp_path)) == path

    @pytest.mark.parametrize(
        "argv", [["ls"], ["prune", "--max-bytes", "0"]], ids=["ls", "prune"]
    )
    def test_removed_cache_subcommand_is_rejected(self, tmp_path, argv, capsys):
        # engine arrays live in memory only; an old on-disk cache is left alone
        cache = tmp_path / "cayley"
        cache.mkdir()
        entry = cache / "cayley-aaa-table.npy"
        entry.write_bytes(b"x" * 64)
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["cache", argv[0], str(cache)] + argv[1:])
        assert excinfo.value.code == 2
        assert "invalid choice: 'cache'" in capsys.readouterr().err
        assert entry.read_bytes() == b"x" * 64
