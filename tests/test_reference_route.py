"""The test-only reference routes themselves (``tests/reference``).

The parity tests are only as strong as the reference route they compare
against: :func:`reference.scalar_route` must reach every place ``src/``
consults ``maybe_engine``, including import sites added later, and the
per-round :class:`reference.PerRoundSampler` must sample the same
distribution with the same accounting as :class:`FourierSampler`.
"""

import importlib
import pkgutil

import numpy as np
import pytest

import repro
from repro import groups
from repro.groups import engine as engine_module
from repro.groups.engine import get_engine, maybe_engine
from repro.groups.extraspecial import extraspecial_group
from repro.linalg.zmodule import annihilator, subgroup_contains
from repro.quantum.sampling import FourierSampler, SubgroupStructureOracle

from reference import MAYBE_ENGINE, PerRoundSampler, maybe_engine_bindings, scalar_route


def _import_every_repro_module():
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


class TestScalarRoute:
    def test_patches_every_maybe_engine_binding(self):
        _import_every_repro_module()
        bindings = maybe_engine_bindings()
        sites = {module.__name__ for module, _ in bindings}
        named = {(module.__name__, attribute) for module, attribute in bindings}
        # The known import sites; any new one is covered by the identity scan.
        assert {
            "repro.groups",
            "repro.groups.engine",
            "repro.blackbox.instances",
            "repro.core.hidden_normal",
            "repro.core.small_commutator",
        } <= sites
        with scalar_route():
            assert maybe_engine_bindings() == []
            for module, attribute in bindings:
                assert getattr(module, attribute)(extraspecial_group(3)) is None
        assert {(module.__name__, attribute) for module, attribute in maybe_engine_bindings()} == named

    def test_imports_inside_the_context_are_restored(self):
        with scalar_route():
            from repro.groups.engine import maybe_engine as inside

            assert inside(extraspecial_group(3)) is None
        assert maybe_engine(extraspecial_group(3)) is not None
        assert engine_module.maybe_engine is MAYBE_ENGINE

    def test_maybe_engine_returns_none_inside_context(self):
        group = extraspecial_group(3)
        with scalar_route():
            assert engine_module.maybe_engine(group) is None
            assert groups.maybe_engine(group) is None
        assert engine_module.maybe_engine(group) is not None

    def test_context_restores_previous_state_on_error(self):
        with pytest.raises(RuntimeError):
            with scalar_route():
                raise RuntimeError("boom")
        assert maybe_engine(extraspecial_group(5)) is not None

    def test_get_engine_still_explicit(self):
        # The route guards maybe_engine (the implicit install sites); an
        # explicit get_engine call remains the caller's decision.
        with scalar_route():
            assert get_engine(extraspecial_group(3)) is not None


class TestPerRoundSampler:
    MODULI = [8, 6]
    HIDDEN = [(2, 3)]

    @pytest.mark.parametrize("backend", ["analytic", "statevector"])
    def test_samples_lie_in_annihilator_with_per_round_accounting(self, backend):
        oracle = SubgroupStructureOracle(self.MODULI, self.HIDDEN)
        sampler = PerRoundSampler(backend=backend, rng=np.random.default_rng(1))
        dual = annihilator(self.HIDDEN, self.MODULI)
        samples = sampler.sample(oracle, 25)
        assert len(samples) == 25
        assert all(subgroup_contains(dual, sample, self.MODULI) for sample in samples)
        assert oracle.counter.quantum_queries == 25

    def test_statevector_rounds_match_the_exact_distribution(self):
        oracle = SubgroupStructureOracle([2, 2, 2], [(1, 1, 0)])
        exact = FourierSampler(rng=np.random.default_rng(0)).exact_distribution(oracle)
        counts = np.zeros(exact.shape)
        n = 160
        sampler = PerRoundSampler(backend="statevector", rng=np.random.default_rng(2))
        for sample in sampler.sample(oracle, n):
            counts[sample] += 1
        support = exact > 0
        assert np.all(counts[~support] == 0)
        assert np.max(np.abs(counts[support] / n - exact[support])) < 0.15

    def test_sharding_is_refused(self):
        oracle = SubgroupStructureOracle(self.MODULI, self.HIDDEN)
        with pytest.raises(ValueError, match="does not shard"):
            PerRoundSampler().sample(oracle, 4, shards=2)
