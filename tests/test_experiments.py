"""Tests for the parallel experiment-orchestration subsystem.

Covers the determinism contract (sweep expansion, per-run seeding,
``workers=1`` vs ``workers=4`` byte-identity), the accounting contract (the
aggregate query totals of a BENCH file are the exact ``QueryCounter`` sum of
the per-run reports), the instance registry, and the
``python -m repro.experiments`` command line.
"""

import json
import os

import numpy as np
import pytest

from repro.blackbox.oracle import QueryCounter
from repro.core.solver import solve_hsp
from repro.experiments import (
    RunSpec,
    SamplerSpec,
    SweepSpec,
    WORKLOADS,
    build_instance,
    execute_run,
    families,
    get_workload,
    run_sweep,
)
from repro.experiments.cli import main as cli_main
from repro.experiments.results import load_bench, rows_bytes
from repro.experiments.specs import derive_seed

from reference import PerRoundSampler, scalar_route

SEED = 20010202
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: A task file as an earlier version wrote it for an enqueued scalar-route
#: sweep: the removed route toggles are spelled out.
SCALAR_ROUTE_TASK = """
{"sweep": "scalar-hidden-normal", "index": 0, "family": "dihedral_rotation",
 "params": {"n": 128}, "repeat": 0, "seed": 1234, "strategy": "auto",
 "sampler": {"backend": "auto", "batch": false, "shards": null, "statevector_limit": 16384},
 "solver_options": {}, "engine": false}
"""


def tiny_spec(name="tiny", **kwargs):
    defaults = dict(repeats=2, seed=SEED)
    defaults.update(kwargs)
    return SweepSpec.from_grid(name, "dihedral_rotation", {"n": [8, 12]}, **defaults)


class TestSpecs:
    def test_expansion_is_deterministic(self):
        first = tiny_spec().expand()
        second = tiny_spec().expand()
        assert first == second
        assert [run.index for run in first] == list(range(4))

    def test_per_run_seeds_are_distinct_and_index_derived(self):
        runs = tiny_spec().expand()
        seeds = [run.seed for run in runs]
        assert len(set(seeds)) == len(seeds)
        assert seeds == [derive_seed(SEED, index) for index in range(len(runs))]

    def test_grid_points_walk_sorted_keys_row_major(self):
        spec = SweepSpec.from_grid("grid", "extraspecial_random", {"p": [3, 5], "rank": [1, 2]})
        points = spec.points()
        assert points == [
            {"p": 3, "rank": 1},
            {"p": 3, "rank": 2},
            {"p": 5, "rank": 1},
            {"p": 5, "rank": 2},
        ]

    def test_run_specs_are_picklable_and_hashable(self):
        import pickle

        for run in tiny_spec().expand():
            assert pickle.loads(pickle.dumps(run)) == run
            hash(run)

    def test_overrides(self):
        spec = tiny_spec().with_overrides(seed=7, repeats=1)
        assert spec.seed == 7 and spec.repeats == 1
        assert len(spec.expand()) == 2

    def test_invalid_overrides_rejected(self):
        with pytest.raises(ValueError, match="repeats"):
            tiny_spec().with_overrides(repeats=0)
        with pytest.raises(ValueError, match="seed"):
            tiny_spec().with_overrides(seed=-1)

    def test_spec_json_round_trip_is_json_safe(self):
        payload = json.dumps(tiny_spec().to_json_dict())
        assert json.loads(payload)["family"] == "dihedral_rotation"

    def test_removed_routes_are_rejected_loudly(self):
        task = json.loads(SCALAR_ROUTE_TASK)
        with pytest.raises(ValueError, match="engine=False selects the engine-disabled scalar route"):
            RunSpec.from_json_dict(task)
        task["engine"] = True
        with pytest.raises(ValueError, match="batch=False selects the per-round scalar sampler"):
            RunSpec.from_json_dict(task)
        task["sampler"]["batch"] = True
        accepted = RunSpec.from_json_dict(task)
        del task["engine"], task["sampler"]["batch"]
        assert RunSpec.from_json_dict(task) == accepted
        header = tiny_spec().to_json_dict()
        with pytest.raises(ValueError, match="engine"):
            SweepSpec.from_json_dict({**header, "engine": False})
        assert SweepSpec.from_json_dict({**header, "engine": True}) == tiny_spec()

    @pytest.mark.parametrize(
        "sampler,message",
        [(SamplerSpec(shards=0), "shards must be a positive integer"), (SamplerSpec(backend="bogus"), "unknown backend")],
    )
    def test_sampler_config_is_validated_at_expansion(self, sampler, message):
        spec = tiny_spec(sampler=sampler)
        with pytest.raises(ValueError, match=message):
            spec.expand()
        with pytest.raises(ValueError, match=message):
            run_sweep(spec, workers=1, out_dir=None)

    def test_solver_options_are_validated_at_expansion(self, tmp_path):
        # engine_cache_dir was a supported key before the on-disk Cayley
        # cache was removed; a spec still carrying it must fail up front.
        spec = tiny_spec(solver_options={"engine_cache_dir": str(tmp_path / "cache")})
        message = r"unsupported solver_options \['engine_cache_dir'\]"
        with pytest.raises(ValueError, match=message):
            spec.expand()
        with pytest.raises(ValueError, match=message):
            run_sweep(spec, workers=1, out_dir=str(tmp_path))
        assert os.listdir(str(tmp_path)) == []

    def test_every_unknown_solver_option_is_named(self):
        spec = tiny_spec(solver_options={"zeta": 1, "confidence": 4, "alpha": 2})
        with pytest.raises(ValueError, match=r"unsupported solver_options \['alpha', 'zeta'\]"):
            spec.expand()

    @pytest.mark.parametrize(
        "options", [{"confidence": 4}, {"noise": "oracle-flip(0.25)"}], ids=["confidence", "noise"]
    )
    def test_supported_solver_options_expand_and_run(self, options):
        spec = tiny_spec(solver_options=options)
        runs = spec.expand()
        assert len(runs) == 4
        assert all(run.options_dict() == options for run in runs)
        _, payload = run_sweep(spec, workers=1, out_dir=None)
        assert [row["status"] for row in payload["rows"]].count("error") == 0


class TestRegistry:
    TINY_PARAMS = {
        "abelian_random": {"moduli": (8, 9)},
        "dihedral_rotation": {"n": 8},
        "dihedral_bounded_quotient": {"d": 3},
        "diagnostic_fault": {"n": 8},
        "metacyclic_core": {"pq": (7, 3)},
        "symmetric_alternating": {"n": 4},
        "extraspecial_center": {"p": 3},
        "extraspecial_random": {"p": 3},
        "wreath_random": {"k": 2},
    }

    def test_every_family_has_tiny_params(self):
        assert set(self.TINY_PARAMS) == set(families())

    @pytest.mark.parametrize("family", sorted(TINY_PARAMS))
    def test_family_builds_and_solves(self, family):
        spec = SweepSpec.from_grid(
            f"tiny-{family}", family, {key: [value] for key, value in self.TINY_PARAMS[family].items()}
        )
        (record,) = (execute_run(run) for run in spec.expand())
        assert record.success, (family, record)
        assert record.query_report["quantum_queries"] >= 0

    def test_builders_are_rng_deterministic(self):
        a = build_instance("extraspecial_random", {"p": 5}, np.random.default_rng(SEED))
        b = build_instance("extraspecial_random", {"p": 5}, np.random.default_rng(SEED))
        assert a.hidden_generators == b.hidden_generators

    def test_unknown_family_raises(self):
        with pytest.raises(KeyError, match="unknown instance family"):
            build_instance("no-such-family", {}, np.random.default_rng(0))

    def test_unknown_solver_options_fail_fast(self):
        spec = SweepSpec.from_grid(
            "bad-options", "dihedral_rotation", {"n": [8]}, solver_options={"quotient_bound": 64}
        )
        with pytest.raises(ValueError, match="unsupported solver_options"):
            execute_run(spec.expand()[0])


class TestRunnerDeterminism:
    def test_workers_1_and_4_byte_identical_rows(self, tmp_path):
        spec = tiny_spec("parity")
        path1, serial = run_sweep(spec, workers=1, out_dir=str(tmp_path / "serial"))
        path4, pooled = run_sweep(spec, workers=4, out_dir=str(tmp_path / "pooled"))
        assert rows_bytes(serial) == rows_bytes(pooled)
        # The acceptance rerun: workers=1 again at the same seed.
        _, again = run_sweep(spec, workers=1, out_dir=None)
        assert rows_bytes(serial) == rows_bytes(again)
        # And the files really were written.
        assert os.path.exists(path1) and os.path.exists(path4)

    def test_rows_cover_strategy_queries_and_generators(self):
        _, payload = run_sweep(tiny_spec(), workers=1, out_dir=None)
        for row in payload["rows"]:
            assert row["strategy"] == "hidden_normal"
            assert row["success"] is True
            assert row["generators"], "recovered subgroup generators must be recorded"
            assert row["query_report"]["quantum_queries"] > 0

    def test_aggregate_totals_equal_sum_of_per_run_reports(self):
        _, payload = run_sweep(tiny_spec(), workers=2, out_dir=None)
        merged = sum(
            (QueryCounter.from_snapshot(row["query_report"]) for row in payload["rows"]),
            QueryCounter(),
        )
        assert payload["aggregate"]["query_totals"] == {
            key: int(value) for key, value in sorted(merged.snapshot().items())
        }

    def test_sharded_sampler_spec_matches_unsharded(self):
        plain = tiny_spec("plain")
        sharded = tiny_spec("plain", sampler=SamplerSpec(shards=3))
        _, a = run_sweep(plain, workers=1, out_dir=None)
        _, b = run_sweep(sharded, workers=1, out_dir=None)
        assert rows_bytes(a) == rows_bytes(b)

    def test_engine_and_scalar_configs_report_identical_queries(self):
        # Same sampler, engine route vs the engine-less reference route: the
        # accounting contract — batch/scalar arithmetic report identical totals.
        _, engine_payload = run_sweep(tiny_spec("cfg"), workers=1, out_dir=None)
        with scalar_route():
            _, scalar_payload = run_sweep(tiny_spec("cfg"), workers=1, out_dir=None)
        for engine_row, scalar_row in zip(engine_payload["rows"], scalar_payload["rows"]):
            assert engine_row["generators"] == scalar_row["generators"]
            assert engine_row["query_report"] == scalar_row["query_report"]

    def test_pre_engine_baseline_configuration_solves(self):
        # The full scalar profile (engine-less route AND per-round sampling)
        # consumes the generator differently, so only success is checked.
        for run in tiny_spec("baseline").expand():
            rng = np.random.default_rng(run.seed)
            with scalar_route():
                instance = build_instance(run.family, run.instance_params(), rng)
                solution = solve_hsp(instance, sampler=PerRoundSampler(rng=rng))
            assert instance.verify(solution.generators or [instance.group.identity()])


class TestWorkloads:
    def test_smoke_workload_declared(self):
        spec = get_workload("smoke")
        assert spec.family == "dihedral_rotation"
        assert len(spec.expand()) == 4

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError, match="unknown workload"):
            get_workload("definitely-not-declared")

    def test_committed_sweep_goldens_match_their_workloads(self):
        # perfbench sweep-small only checks rows against a golden whose
        # header equals the spec, so a stale header would silently drop it.
        names = sorted(
            name[len("BENCH_") : -len(".json")]
            for name in os.listdir(ROOT)
            if name.startswith("BENCH_") and name.endswith(".json")
        )
        checked = 0
        for name in names:
            payload = load_bench(os.path.join(ROOT, f"BENCH_{name}.json"))
            if "sweep" in payload:
                assert payload["sweep"] == get_workload(name).to_json_dict(), name
                checked += 1
        assert checked == 13

    def test_workload_names_are_unique_specs(self):
        assert len(WORKLOADS) == len({spec.name for spec in WORKLOADS.values()})
        for name, spec in WORKLOADS.items():
            assert name == spec.name


class TestCLI:
    def test_run_writes_bench_file_with_two_workers(self, tmp_path, capsys):
        status = cli_main(["run", "smoke", "--workers", "2", "--out", str(tmp_path)])
        assert status == 0
        path = tmp_path / "BENCH_smoke.json"
        assert path.exists()
        payload = load_bench(str(path))
        assert payload["workers"] == 2
        assert payload["aggregate"]["successes"] == payload["aggregate"]["runs"] == 4
        assert "wrote" in capsys.readouterr().out

    def test_list_prints_workloads_and_families(self, capsys):
        assert cli_main(["list"]) == 0
        output = capsys.readouterr().out
        assert "smoke" in output and "dihedral_rotation" in output

    def test_report_reads_back_a_bench_file(self, tmp_path, capsys):
        cli_main(["run", "smoke", "--out", str(tmp_path)])
        capsys.readouterr()
        assert cli_main(["report", "smoke", "--out", str(tmp_path)]) == 0
        output = capsys.readouterr().out
        assert "aggregate" in output and "hidden_normal" in output

    def test_report_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert cli_main(["report", "nothing-here", "--out", str(tmp_path)]) == 1

    def test_report_rejects_foreign_bench_schema(self, tmp_path, capsys):
        foreign = tmp_path / "BENCH_engine.json"
        foreign.write_text(json.dumps({"benchmark": "engine-vs-scalar", "aggregate": {}}))
        assert cli_main(["report", str(foreign)]) == 1
        assert "not a sweep BENCH file" in capsys.readouterr().err

    def test_run_rejects_bad_overrides_cleanly(self, tmp_path, capsys):
        assert cli_main(["run", "smoke", "--repeats", "0", "--out", str(tmp_path)]) == 1
        assert "repeats" in capsys.readouterr().err
        assert not (tmp_path / "BENCH_smoke.json").exists()
        assert cli_main(["run", "no-such-sweep", "--out", str(tmp_path)]) == 1

    def test_run_exits_nonzero_when_a_solve_fails(self, tmp_path, capsys, monkeypatch):
        import repro.experiments.cli as cli_module

        def failing_run_sweep(spec, workers=1, out_dir=".", max_failures=None, resume=False, trace=None, profile_dir=None):
            payload = {
                "workers": workers,
                "rows": [],
                "timings": [],
                "aggregate": {
                    "runs": 2,
                    "successes": 1,
                    "errors": 0,
                    "success_rate": 0.5,
                    "strategies": {},
                    "query_totals": {},
                    "wall_time_seconds": 0.0,
                },
            }
            return str(tmp_path / "BENCH_broken.json"), payload

        monkeypatch.setattr(cli_module, "run_sweep", failing_run_sweep)
        assert cli_module.main(["run", "smoke", "--out", str(tmp_path)]) == 1
        assert "FAILED" in capsys.readouterr().err
