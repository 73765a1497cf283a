"""The kernel-mode Cayley engine: rank lookup, lazy elements, linear memory.

A :class:`~repro.groups.engine.CayleyBackend` over a group with a dense
kernel enumerates the group once in row space and resolves rows to ids by
the kernel's rank and one gather into a position array.  Its arrays are
in-memory NumPy arrays, linear in the group order, that live exactly as
long as the engine.  Ids follow the row-space enumeration, so two engines
over equal groups agree id for id.  These properties hold for the group of
every registry family; groups without a kernel run in sparse mode and
report the same statistics.
"""

import os

import numpy as np
import pytest

from repro.blackbox.oracle import BlackBoxGroup
from repro.experiments import build_instance, families
from repro.groups.abelian import AbelianTupleGroup, cyclic_group
from repro.groups.base import GroupError
from repro.groups.engine import CayleyBackend, get_engine, maybe_engine
from repro.groups.extraspecial import extraspecial_group
from repro.groups.perm import alternating_group, dihedral_group, symmetric_group
from repro.groups.products import (
    DirectProduct,
    dihedral_semidirect,
    generalized_dihedral,
    metacyclic_group,
    wreath_product_z2,
)

from reference import KernelLessHeisenberg

#: The smallest parameters of each registry family.
FAMILY_PARAMS = {
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

STATS_KEYS = {"interned", "cached_products", "cached_inverses", "kernel_mode", "has_kernel"}

#: Groups whose kernels rank every coordinate column (mixed radix).
MIXED_RADIX_GROUPS = {
    "abelian": lambda: AbelianTupleGroup([4, 6, 5]),
    "heisenberg": lambda: extraspecial_group(5),
    "heisenberg_rank2": lambda: extraspecial_group(3, n=2),
    "direct": lambda: DirectProduct([cyclic_group(6), extraspecial_group(3)]),
    "dihedral": lambda: dihedral_semidirect(12),
    "metacyclic": lambda: metacyclic_group(13, 3),
    "wreath": lambda: wreath_product_z2(3),
    "generalized_dihedral": lambda: generalized_dihedral([4, 6]),
}

#: Groups whose kernels rank the images of a stabiliser-chain base.
PERMUTATION_GROUPS = {
    "S5": lambda: symmetric_group(5),
    "A5": lambda: alternating_group(5),
    "D7(perm)": lambda: dihedral_group(7),
    "S3 x Z4": lambda: DirectProduct([symmetric_group(3), cyclic_group(4)]),
}


def family_group(family):
    """The concrete (uncounted) group of a freshly built ``family`` instance."""
    instance = build_instance(family, FAMILY_PARAMS[family], np.random.default_rng(7))
    group = instance.group
    return group.group if isinstance(group, BlackBoxGroup) else group


def full_block(engine):
    """Every product and inverse id of an engine, as two id arrays."""
    ids = np.arange(engine.interned_count, dtype=np.int64)
    products = engine.mul_many(np.repeat(ids, ids.size), np.tile(ids, ids.size))
    return products, engine.inv_many(ids)


def engine_arrays(engine):
    """Every NumPy array the engine holds as an attribute."""
    return {name: value for name, value in vars(engine).items() if isinstance(value, np.ndarray)}


class TestKernelEngine:
    def test_engine_writes_nothing_to_disk(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        engine = maybe_engine(extraspecial_group(3))
        assert engine.mode == "kernel"
        full_block(engine)
        assert os.listdir(str(tmp_path)) == []

    def test_fresh_engines_assign_identical_ids(self):
        first = CayleyBackend(extraspecial_group(3))
        second = CayleyBackend(extraspecial_group(3))
        assert first.identity_id == second.identity_id == 0
        assert first.elements_of(range(27)) == second.elements_of(range(27))
        products, inverses = full_block(first)
        again_products, again_inverses = full_block(second)
        assert np.array_equal(products, again_products)
        assert np.array_equal(inverses, again_inverses)

    @pytest.mark.parametrize("build", [lambda: dihedral_semidirect(1024), lambda: extraspecial_group(13)],
                             ids=["D_1024", "H_13"])
    def test_no_engine_array_scales_with_the_square_of_the_order(self, build):
        engine = CayleyBackend(build())
        n = engine.interned_count
        full_block_sizes = {name: array.size for name, array in engine_arrays(engine).items()}
        assert full_block_sizes, "kernel mode keeps its rows, inverses and positions in arrays"
        for name, size in full_block_sizes.items():
            assert size <= n * engine.kernel.width, f"{name} holds {size} entries for |G| = {n}"
        assert engine.kernel.rank_size == n

    def test_elements_are_decoded_on_demand(self):
        group = extraspecial_group(5)
        engine = CayleyBackend(group)
        assert engine.interned_count == 125
        assert sum(element is not None for element in engine._elements) == 0
        elements = engine.elements_of([3, 7, 3])
        assert elements[0] == elements[2] == engine.element_of(3)
        assert sum(element is not None for element in engine._elements) == 2
        assert engine.intern(elements[1]) == 7

    def test_engines_are_per_group_instance(self):
        first, second = extraspecial_group(3), extraspecial_group(3)
        engine = maybe_engine(first)
        other = maybe_engine(second)
        assert engine is not other
        assert maybe_engine(first) is engine and get_engine(first) is engine
        engine.mul(1, 2)
        assert engine.stats()["cached_products"] == 1
        assert other.stats()["cached_products"] == 0, "no cache is shared between instances"

    @pytest.mark.parametrize(
        "build, mode",
        [(lambda: extraspecial_group(3), "kernel"), (lambda: KernelLessHeisenberg(3), "sparse")],
        ids=["kernel", "sparse"],
    )
    def test_stats_keys_are_the_same_in_every_mode(self, build, mode):
        group = build()
        engine = CayleyBackend(group)
        assert engine.mode == mode
        a, b = engine.intern_many(group.element_list()[1:3])
        engine.mul(a, b)
        engine.inv(a)
        stats = engine.stats()
        assert set(stats) == STATS_KEYS
        assert stats["kernel_mode"] == int(mode == "kernel")
        assert stats["has_kernel"] == int(mode == "kernel")
        assert stats["cached_products"] == 1
        # Kernel mode holds all of G; sparse mode what it has seen: the
        # identity, a, b, a * b and a^-1.
        assert stats["interned"] == (27 if mode == "kernel" else 5)

    @pytest.mark.parametrize(
        "build", [CayleyBackend, get_engine, maybe_engine], ids=["CayleyBackend", "get_engine", "maybe_engine"]
    )
    @pytest.mark.parametrize("keyword", ["cache_dir", "table_limit", "kernel_limit"])
    def test_removed_keywords_are_rejected(self, tmp_path, build, keyword):
        group = extraspecial_group(3)
        with pytest.raises(TypeError, match=keyword):
            build(group, **{keyword: str(tmp_path)})
        assert os.listdir(str(tmp_path)) == []
        assert getattr(group, "_cayley_engine", None) is None


class TestEngineWalks:
    @pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
    def test_element_list_keeps_the_scalar_breadth_first_order(self, family):
        scalar = family_group(family).element_list()
        group = family_group(family)
        get_engine(group)
        assert group.element_list() == scalar

    def test_subgroup_ids_skips_generators_inside_earlier_chains(self):
        engine = CayleyBackend(dihedral_semidirect(64))
        rotations = engine.subgroup_ids(engine.intern_many([((1,), (0,))]))
        assert rotations.size == 64
        chains = []
        walk = engine._cyclic_power_ids

        def spy(gen_id):
            chain = walk(gen_id)
            chains.append((gen_id, set(chain.tolist())))
            return chain

        engine._cyclic_power_ids = spy
        # A whole member set as generators, as membership testers pass it.
        assert np.array_equal(engine.subgroup_ids(rotations, memoize=False), rotations)
        covered = set()
        for gen_id, chain in chains:
            assert gen_id not in covered
            covered |= chain
        assert len(chains) <= 7, "at most one chain per cyclic subgroup of Z_64"


class TestRank:
    @pytest.mark.parametrize("name", sorted(MIXED_RADIX_GROUPS))
    def test_mixed_radix_rank_is_a_bijection_onto_the_group(self, name):
        group = MIXED_RADIX_GROUPS[name]()
        kernel = group.dense_kernel()
        rows = kernel.encode_many(group.element_list())
        assert kernel.rank_size == group.order() == len(rows)
        assert np.array_equal(np.sort(kernel.rank_many(rows)), np.arange(group.order()))

    @pytest.mark.parametrize("name", sorted(PERMUTATION_GROUPS))
    def test_permutation_rank_is_injective_on_the_group(self, name):
        group = PERMUTATION_GROUPS[name]()
        kernel = group.dense_kernel()
        ranks = kernel.rank_many(kernel.encode_many(group.element_list()))
        assert np.unique(ranks).size == group.order()
        assert ranks.min() >= 0 and ranks.max() < kernel.rank_size

    def test_permutation_rank_space_is_the_base_images(self):
        s6 = symmetric_group(6)
        assert s6.dense_kernel().rank_size == 6 ** len(s6.chain.base) == 7776
        d9 = dihedral_group(9)
        assert d9.dense_kernel().rank_size == 9**2

    def test_rank_space_past_the_limit_falls_back_to_sparse_mode(self):
        group = dihedral_group(2000)  # |G| = 4000, rank space 2000^2
        engine = CayleyBackend(group)
        assert engine.mode == "sparse" and engine.kernel is not None
        r, s = group.generators()
        assert engine.element_of(engine.mul(engine.intern(r), engine.intern(s))) == group.multiply(r, s)


class TestForeignElements:
    """Kernel-mode ``intern`` rejects non-members with :class:`GroupError` only."""

    @pytest.mark.parametrize(
        "element",
        [
            ((5,), (0,), 0),  # coordinate outside Z_3
            ((-1,), (0,), 0),  # negative coordinate
            ((0, 0), (0,), 0),  # wrong width
            ((0,), (0,), (0,)),  # wrong shape
            "not an element",
        ],
        ids=["out-of-range", "negative", "wide", "nested", "junk"],
    )
    def test_heisenberg_rejects_foreign_elements(self, element):
        engine = CayleyBackend(extraspecial_group(3))
        with pytest.raises(GroupError):
            engine.intern(element)
        with pytest.raises(GroupError):
            engine.intern_many([engine.element_of(1), element])

    @pytest.mark.parametrize(
        "element",
        [
            (0, 1, 2, 4, 3, 5, 6),  # agrees with the identity on the base points
            (0, 2, 1, 3, 4, 5, 6),  # base images (0, 2): no member's rank
            (0, 0, 2, 3, 4, 5, 6),  # not a permutation
            (0, 1, 2, 3, 4, 5, 7),  # image outside the degree
            (0, 1, 2),  # wrong degree
        ],
        ids=["shared-rank", "unused-rank", "non-permutation", "out-of-range", "wrong-degree"],
    )
    def test_permutation_group_rejects_non_members(self, element):
        group = dihedral_group(7)
        engine = CayleyBackend(group)
        assert engine.mode == "kernel"
        with pytest.raises(GroupError):
            engine.intern(element)
        assert engine.intern(group.identity()) == engine.identity_id

    def test_members_still_intern_after_a_rejection(self):
        group = extraspecial_group(3)
        engine = CayleyBackend(group)
        with pytest.raises(GroupError):
            engine.intern_many([((1,), (0,), 0), ((9,), (0,), 0)])
        ids = engine.intern_many(group.element_list())
        assert sorted(ids.tolist()) == list(range(27))


class TestRegistryFamilyKernels:
    def test_every_family_is_covered(self):
        assert set(FAMILY_PARAMS) == set(families())

    @pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
    def test_every_family_runs_in_kernel_mode(self, family):
        group = family_group(family)
        engine = CayleyBackend(group)
        assert engine.mode == "kernel"
        assert engine.interned_count == group.order()
        assert engine.element_of(engine.identity_id) == group.identity()
        assert sorted(engine.intern_many(group.element_list()).tolist()) == list(range(group.order()))

    @pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
    def test_full_block_agrees_with_group_arithmetic(self, family):
        group = family_group(family)
        engine = CayleyBackend(group)
        elements = engine.elements_of(range(engine.interned_count))
        products, inverses = full_block(engine)
        n = len(elements)
        got = engine.elements_of(products)
        for flat, product in enumerate(got):
            assert product == group.multiply(elements[flat // n], elements[flat % n])
        assert engine.elements_of(inverses) == [group.inverse(a) for a in elements]
