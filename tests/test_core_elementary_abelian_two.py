"""Tests for the elementary-Abelian-normal-2-subgroup solver (Theorem 13)."""

import numpy as np
import pytest

from repro.blackbox.instances import HSPInstance
from repro.core.elementary_abelian_two import solve_hsp_elementary_abelian_two
from repro.groups.base import GroupError
from repro.groups.catalog import (
    affine_gf2_instance,
    elementary_abelian_semidirect_instance,
    wreath_instance,
)
from repro.groups.abelian import elementary_abelian_group
from repro.groups.products import generalized_dihedral
from repro.quantum.sampling import FourierSampler

from reference import scalar_route


def solve_and_verify(group, normal_gens, hidden_generators, rng, **kwargs):
    instance = HSPInstance.from_subgroup(group, hidden_generators)
    result = solve_hsp_elementary_abelian_two(
        group, instance.oracle, normal_gens, sampler=FourierSampler(rng=rng), **kwargs
    )
    assert instance.verify(result.generators or [group.identity()]), result.generators
    return result


class TestWreathProducts:
    """The Rötteler--Beth family, now as a special case of Theorem 13."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_random_hidden_subgroups(self, k, rng):
        group, normal_gens = wreath_instance(k)
        for _ in range(3):
            hidden = [group.uniform_random_element(rng), group.uniform_random_element(rng)]
            result = solve_and_verify(group, normal_gens, hidden, rng, cyclic_quotient=True)
            assert result.cyclic_path

    def test_subgroup_inside_base(self, rng):
        group, normal_gens = wreath_instance(2)
        hidden = [group.embed_normal((1, 0, 1, 0)), group.embed_normal((0, 1, 0, 1))]
        result = solve_and_verify(group, normal_gens, hidden, rng, cyclic_quotient=True)
        assert result.coset_generators == []

    def test_subgroup_meeting_swap_coset(self, rng):
        group, normal_gens = wreath_instance(2)
        hidden = [((1, 1, 0, 0), (1,))]
        result = solve_and_verify(group, normal_gens, hidden, rng, cyclic_quotient=True)
        assert result.coset_generators

    def test_trivial_subgroup(self, rng):
        group, normal_gens = wreath_instance(2)
        result = solve_and_verify(group, normal_gens, [group.identity()], rng, cyclic_quotient=True)
        assert result.generators == []

    def test_cyclic_quotient_autodetected(self, rng):
        group, normal_gens = wreath_instance(2)
        hidden = [group.uniform_random_element(rng)]
        result = solve_and_verify(group, normal_gens, hidden, rng)
        assert result.cyclic_path


class TestAffineMatrixGroups:
    """The Section 6 matrix groups over GF(2) with cyclic factor group."""

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_cyclic_hidden_subgroups(self, k, rng):
        group, normal_gens = affine_gf2_instance(k)
        for _ in range(2):
            hidden = [group.random_element(rng)]
            result = solve_and_verify(group, normal_gens, hidden, rng, cyclic_quotient=True)
            assert result.cyclic_path

    def test_translation_subgroups(self, rng):
        group, normal_gens = affine_gf2_instance(3)
        hidden = normal_gens[:1]
        solve_and_verify(group, normal_gens, hidden, rng, cyclic_quotient=True)

    def test_whole_group(self, rng):
        group, normal_gens = affine_gf2_instance(2)
        solve_and_verify(group, normal_gens, group.generators(), rng, cyclic_quotient=True)


class TestGeneralCase:
    """Non-cyclic factor groups: running time polynomial in |G/N|."""

    @pytest.mark.parametrize("top", ["S3", "V4"])
    def test_semidirect_products(self, top, rng):
        group, normal_gens = elementary_abelian_semidirect_instance(4, top)
        for _ in range(2):
            hidden = [group.random_element(rng), group.random_element(rng)]
            result = solve_and_verify(
                group, normal_gens, hidden, rng, cyclic_quotient=False, quotient_bound=16
            )
            assert not result.cyclic_path
            assert result.representatives_used <= 16

    def test_generalized_dihedral_over_elementary_abelian(self, rng):
        # Dih(Z_2^3) = Z_2^3 : Z_2 with inversion action (trivial on an
        # elementary Abelian group, so this is just the direct product).
        group = generalized_dihedral([2, 2, 2])
        normal_gens = group.normal_part_generators()
        hidden = [group.random_element(rng)]
        solve_and_verify(group, normal_gens, hidden, rng, cyclic_quotient=True)

    def test_bound_violation_raises(self, rng):
        group, normal_gens = elementary_abelian_semidirect_instance(4, "S3")
        instance = HSPInstance.from_subgroup(group, [group.random_element(rng)])
        with pytest.raises(GroupError):
            solve_hsp_elementary_abelian_two(
                group,
                instance.oracle,
                normal_gens,
                sampler=FourierSampler(rng=rng),
                cyclic_quotient=False,
                quotient_bound=2,
            )


class TestValidation:
    def test_rejects_odd_order_normal_generators(self, rng):
        group = elementary_abelian_group(3, 2)
        instance = HSPInstance.from_subgroup(group, [(1, 0)])
        with pytest.raises(GroupError):
            solve_hsp_elementary_abelian_two(
                group, instance.oracle, [(1, 0)], sampler=FourierSampler(rng=rng)
            )

    def test_pure_elementary_abelian_group(self, rng):
        """Degenerate case G = N: a plain Simon instance."""
        group = elementary_abelian_group(2, 5)
        hidden = [(1, 1, 0, 0, 0), (0, 0, 1, 1, 0)]
        instance = HSPInstance.from_subgroup(group, hidden)
        result = solve_hsp_elementary_abelian_two(
            group, instance.oracle, group.generators(), sampler=FourierSampler(rng=rng)
        )
        assert instance.verify(result.generators)

    def test_query_report_included(self, rng):
        group, normal_gens = wreath_instance(2)
        instance = HSPInstance.from_subgroup(group, [group.uniform_random_element(rng)])
        result = solve_hsp_elementary_abelian_two(
            group, instance.oracle, normal_gens, sampler=FourierSampler(rng=rng), cyclic_quotient=True
        )
        assert result.query_report["quantum_queries"] > 0


class TestEngineRouting:
    """The batched transversal/validation scans preserve results and counts.

    Theorem 13 now routes its coset scans through ``multiply_many`` like
    Theorems 8/11; with the engine disabled those batch calls degrade to the
    scalar loops, so generators and the full query report must be identical
    in both configurations.
    """

    def _solve(self, rng_seed=20010202):
        rng = np.random.default_rng(rng_seed)
        group, normal_gens = elementary_abelian_semidirect_instance(4, "S3")
        hidden = [group.random_element(rng)]
        instance = HSPInstance.from_subgroup(group, hidden)
        result = solve_hsp_elementary_abelian_two(
            group,
            instance.oracle,
            normal_gens,
            sampler=FourierSampler(rng=rng),
            cyclic_quotient=False,
            quotient_bound=1 << 8,
        )
        assert instance.verify(result.generators or [group.identity()])
        return result

    def test_general_path_engine_vs_scalar_parity(self):
        engine_result = self._solve()
        with scalar_route():
            scalar_result = self._solve()
        assert engine_result.generators == scalar_result.generators
        assert engine_result.representatives_used == scalar_result.representatives_used
        assert engine_result.query_report == scalar_result.query_report

    def test_cyclic_path_engine_vs_scalar_parity(self):
        def run():
            rng = np.random.default_rng(20010202)
            group, normal_gens = wreath_instance(2)
            instance = HSPInstance.from_subgroup(group, [group.uniform_random_element(rng)])
            result = solve_hsp_elementary_abelian_two(
                group,
                instance.oracle,
                normal_gens,
                sampler=FourierSampler(rng=rng),
                cyclic_quotient=True,
            )
            assert instance.verify(result.generators or [group.identity()])
            return result

        engine_result = run()
        with scalar_route():
            scalar_result = run()
        assert engine_result.generators == scalar_result.generators
        assert engine_result.query_report == scalar_result.query_report

    def test_validation_still_rejects_bad_normal_subgroups(self):
        group = elementary_abelian_group(3, 2)
        instance = HSPInstance.from_subgroup(group, [(1, 0)])
        with pytest.raises(GroupError, match="order dividing 2"):
            solve_hsp_elementary_abelian_two(
                group, instance.oracle, [(1, 0)], sampler=FourierSampler(rng=np.random.default_rng(0))
            )

    def test_validation_rejects_non_abelian_normal_part(self):
        group, _ = elementary_abelian_semidirect_instance(3, "S3")
        # Two non-commuting involutions of G (coordinate swaps composed with
        # the S3 part) violate the Abelianity requirement on N.
        instance = HSPInstance.from_subgroup(group, [group.identity()])
        gens = [g for g in group.generators() if group.is_identity(group.multiply(g, g))]
        if len(gens) >= 2 and not group.equal(
            group.multiply(gens[0], gens[1]), group.multiply(gens[1], gens[0])
        ):
            with pytest.raises(GroupError, match="Abelian"):
                solve_hsp_elementary_abelian_two(
                    group, instance.oracle, gens, sampler=FourierSampler(rng=np.random.default_rng(0))
                )
