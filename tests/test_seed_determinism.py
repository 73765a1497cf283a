"""Seed-determinism regression: identical seeds give identical solver runs.

Two full ``solve_hsp`` executions over freshly built but identically seeded
instances must return the same generators, the same strategy, and the same
query report — across every dispatch strategy, both sampling backends, and
both the amortised sampler and the per-round reference sampler.  This pins down the
reproducibility contract that the benchmark harness and the paper's query
counts rely on.
"""

import numpy as np
import pytest

from repro.blackbox.instances import HSPInstance, random_abelian_hsp_instance
from repro.core.solver import solve_hsp
from repro.groups.abelian import AbelianTupleGroup
from repro.groups.catalog import wreath_instance
from repro.groups.extraspecial import extraspecial_group
from repro.groups.products import dihedral_semidirect
from repro.quantum.sampling import FourierSampler

from reference import PerRoundSampler

SEED = 20010202


def build_instance(strategy):
    """A fresh instance (fresh groups, oracles and counters) per call."""
    rng = np.random.default_rng(SEED)
    if strategy == "abelian":
        group = AbelianTupleGroup([8, 9])
        return HSPInstance.from_subgroup(group, [group.module.random_element(rng)])
    if strategy == "small_commutator":
        group = extraspecial_group(3)
        return HSPInstance.from_subgroup(
            group,
            [group.uniform_random_element(rng)],
            promises={"commutator_elements": group.commutator_subgroup_elements()},
        )
    if strategy == "hidden_normal":
        group = dihedral_semidirect(12)
        return HSPInstance.from_subgroup(
            group, [group.embed_normal((1,))], promises={"hidden_is_normal": True}
        )
    if strategy == "elementary_abelian_two":
        group, normal_gens = wreath_instance(2)
        return HSPInstance.from_subgroup(
            group,
            [group.uniform_random_element(rng)],
            promises={"normal_generators": normal_gens, "cyclic_quotient": True},
        )
    if strategy == "classical":
        group = AbelianTupleGroup([6, 4])
        return HSPInstance.from_subgroup(group, [(3, 2)])
    raise ValueError(strategy)


STRATEGIES = ["abelian", "small_commutator", "hidden_normal", "elementary_abelian_two", "classical"]


def run_once(strategy, backend="auto", sampler_class=FourierSampler):
    instance = build_instance(strategy)
    rng = np.random.default_rng(SEED)
    sampler = sampler_class(backend=backend, rng=rng)
    explicit = strategy if strategy == "classical" else "auto"
    solution = solve_hsp(instance, strategy=explicit, sampler=sampler)
    assert instance.verify(solution.generators or [instance.group.identity()])
    return solution


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_identical_seeds_identical_runs(strategy):
    first = run_once(strategy)
    second = run_once(strategy)
    assert first.strategy == strategy
    assert second.strategy == strategy
    assert first.generators == second.generators
    assert first.query_report == second.query_report


@pytest.mark.parametrize("strategy", ["abelian", "small_commutator", "hidden_normal"])
@pytest.mark.parametrize("sampler_class", [PerRoundSampler, FourierSampler])
def test_determinism_holds_on_both_sampling_paths(strategy, sampler_class):
    first = run_once(strategy, sampler_class=sampler_class)
    second = run_once(strategy, sampler_class=sampler_class)
    assert first.generators == second.generators
    assert first.query_report == second.query_report


@pytest.mark.parametrize("strategy", ["abelian", "small_commutator"])
def test_determinism_on_statevector_backend(strategy):
    first = run_once(strategy, backend="statevector")
    second = run_once(strategy, backend="statevector")
    assert first.generators == second.generators
    assert first.query_report == second.query_report


def test_random_instance_generation_is_seeded():
    a = random_abelian_hsp_instance([16, 9], np.random.default_rng(SEED))
    b = random_abelian_hsp_instance([16, 9], np.random.default_rng(SEED))
    assert a.hidden_generators == b.hidden_generators
