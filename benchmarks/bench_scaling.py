"""Scaling trajectory: query accounting versus ``|G|`` past the table limit.

Commits ``BENCH_scaling.json``: for three group families, the group order,
the strategy the dispatcher chose and the full query report of one cold
verified solve per point, with the dihedral family reaching ``|G| = 16384``
and the extraspecial family ``|G| = 24389`` — an order of magnitude beyond
the largest group in any other committed BENCH, on both sides of the
engine's table/kernel boundary.

Every run builds a fresh instance (fresh group, fresh engine, fresh oracle
caches) and solves it at the fixed seed, so the rows are deterministic and
machine independent; the CI ``scaling-smoke`` job re-runs every point and
diffs the query columns against the committed file.  Wall-clock time is
not recorded here: ``perfbench`` (``python3 perfbench/run.py --workload
solve-large``) times the same solves cold, as median and p90 over repeats.

Run directly::

    PYTHONPATH=src python benchmarks/bench_scaling.py [--out DIR]
"""

from __future__ import annotations

import argparse
from typing import Dict, List, Tuple

import numpy as np

from repro.core.solver import solve_hsp
from repro.experiments.registry import build_instance
from repro.experiments.results import write_bench
from repro.experiments.specs import DEFAULT_SEED, derive_seed
from repro.experiments.workloads import SCALING_AXES
from repro.quantum.sampling import FourierSampler

SEED = DEFAULT_SEED


def scaling_points() -> List[Tuple[str, str, Dict[str, object]]]:
    """``(label, family, params)`` rows from the declared scaling axes."""
    rows: List[Tuple[str, str, Dict[str, object]]] = []
    for axis in SCALING_AXES:
        grid: Dict[str, List[object]] = dict(axis["grid"])  # type: ignore[arg-type]
        ((key, values),) = grid.items()
        for value in values:
            rows.append((str(axis["label"]), str(axis["family"]), {key: value}))
    return rows


def bench_point(family: str, params: Dict[str, object]) -> Dict[str, object]:
    """One cold verified solve of a grid point and its query accounting."""
    instance = build_instance(family, params, np.random.default_rng(derive_seed(SEED, 0)))
    sampler = FourierSampler(backend="auto", rng=np.random.default_rng(SEED))
    solution = solve_hsp(instance, sampler=sampler)
    solved = instance.verify(solution.generators or [instance.group.identity()])
    assert solved, f"{family} {params} returned a wrong subgroup"
    return {
        "family": family,
        "params": {k: list(v) if isinstance(v, tuple) else v for k, v in params.items()},
        "group_order": int(instance.group.group.order()),
        "strategy": solution.strategy,
        "query_report": instance.query_report(),
    }


def run_all() -> List[Dict[str, object]]:
    return [bench_point(family, params) for _, family, params in scaling_points()]


def persist(rows: List[Dict[str, object]], out_dir: str = ".") -> str:
    """Write the trajectory as ``BENCH_scaling.json``."""
    payload = {"benchmark": "scaling-query-accounting", "seed": SEED, "rows": rows}
    return write_bench(out_dir, "scaling", payload)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=".", help="directory for BENCH_scaling.json")
    args = parser.parse_args()
    rows = run_all()
    print(f"{'family':<20} {'|G|':>7} {'strategy':<18} {'quantum':>8} {'classical':>10} {'mults':>9}")
    for row in rows:
        report = row["query_report"]
        print(
            f"{row['family']:<20} {row['group_order']:>7} {row['strategy']:<18} "
            f"{report.get('quantum_queries', 0):>8} {report.get('classical_queries', 0):>10} "
            f"{report.get('group_multiplications', 0):>9}"
        )
    print(f"wrote {persist(rows, args.out)}")


if __name__ == "__main__":
    main()
