"""In-memory Cayley tables.

A table-mode :class:`~repro.groups.engine.CayleyBackend` keeps its dense
product and inverse tables in plain NumPy arrays that live exactly as long
as the engine: nothing is written to disk and nothing is shared between
group instances.  Ids follow ``element_list()`` order, so two engines over
equal groups agree id for id, and a filled entry is never recomputed.
These properties hold for the group of every registry family.
"""

import os

import numpy as np
import pytest

from repro.blackbox.oracle import BlackBoxGroup
from repro.experiments import build_instance, families
from repro.groups.engine import CayleyBackend, get_engine, maybe_engine
from repro.groups.extraspecial import extraspecial_group

#: The smallest parameters of each registry family (all table mode).
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

STATS_KEYS = {"interned", "cached_products", "cached_inverses", "table_mode", "kernel_mode", "has_kernel"}


def family_group(family):
    """The concrete (uncounted) group of a freshly built ``family`` instance."""
    instance = build_instance(family, FAMILY_PARAMS[family], np.random.default_rng(7))
    group = instance.group
    return group.group if isinstance(group, BlackBoxGroup) else group


def full_table(engine):
    """Every product and inverse id of a table-mode engine, filling the tables."""
    ids = np.arange(engine.interned_count, dtype=np.int64)
    products = engine.mul_many(np.repeat(ids, ids.size), np.tile(ids, ids.size))
    return products, engine.inv_many(ids)


def count_fills(engine):
    """Wrap the engine's miss paths; return the tally of recomputed entries."""
    calls = {"products": 0, "inverses": 0}
    fill_product, fill_inverse = engine._fill_product, engine._fill_inverse

    def product(a, b):
        calls["products"] += 1
        return fill_product(a, b)

    def inverse(a):
        calls["inverses"] += 1
        return fill_inverse(a)

    engine._fill_product, engine._fill_inverse = product, inverse
    return calls


class TestInMemoryTables:
    def test_tables_are_plain_arrays_sized_to_the_group(self):
        engine = CayleyBackend(extraspecial_group(3))
        assert engine.mode == "table"
        n = engine.interned_count
        assert n == 27
        for table, shape in ((engine._table, (n, n)), (engine._inv_table, (n,))):
            assert type(table) is np.ndarray, "tables are in-memory arrays, not memory maps"
            assert table.shape == shape and table.dtype == np.int32
            assert (table == -1).all(), "tables start empty and fill lazily"

    def test_engine_writes_nothing_to_disk(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        engine = maybe_engine(extraspecial_group(3))
        full_table(engine)
        assert engine.stats()["cached_products"] == 27 * 27
        assert os.listdir(str(tmp_path)) == []

    def test_fresh_engines_assign_identical_ids(self):
        first = CayleyBackend(extraspecial_group(3))
        second = CayleyBackend(extraspecial_group(3))
        assert first.elements_of(range(27)) == second.elements_of(range(27))
        products, inverses = full_table(first)
        again_products, again_inverses = full_table(second)
        assert np.array_equal(products, again_products)
        assert np.array_equal(inverses, again_inverses)

    def test_filled_entries_are_never_recomputed(self):
        engine = CayleyBackend(extraspecial_group(3))
        expected_products, expected_inverses = full_table(engine)
        calls = count_fills(engine)
        products, inverses = full_table(engine)
        assert calls == {"products": 0, "inverses": 0}
        assert np.array_equal(products, expected_products)
        assert np.array_equal(inverses, expected_inverses)

    def test_each_new_product_fills_exactly_one_entry(self):
        engine = CayleyBackend(extraspecial_group(3))
        calls = count_fills(engine)
        engine.mul(0, 1)
        filled = engine.stats()["cached_products"]
        assert filled == 1
        engine.mul(0, 1)
        assert engine.stats()["cached_products"] == filled
        engine.mul(0, 2)
        assert engine.stats()["cached_products"] == filled + 1
        assert calls["products"] == 2

    def test_engines_are_per_group_instance(self):
        first, second = extraspecial_group(3), extraspecial_group(3)
        engine = maybe_engine(first)
        other = maybe_engine(second)
        assert engine is not other
        assert maybe_engine(first) is engine and get_engine(first) is engine
        full_table(engine)
        assert other.stats()["cached_products"] == 0, "no table is shared between instances"

    @pytest.mark.parametrize(
        "limits, mode",
        [({}, "table"), ({"table_limit": 4}, "sparse"), ({"table_limit": 4, "kernel_limit": 1000}, "kernel")],
        ids=["table", "sparse", "kernel"],
    )
    def test_stats_keys_are_the_same_in_every_mode(self, limits, mode):
        group = extraspecial_group(3)
        engine = CayleyBackend(group, **limits)
        assert engine.mode == mode
        a, b = engine.intern_many(group.element_list()[1:3])
        engine.mul(a, b)
        engine.inv(a)
        stats = engine.stats()
        assert set(stats) == STATS_KEYS
        assert stats["table_mode"] == int(mode == "table")
        assert stats["kernel_mode"] == int(mode == "kernel")
        assert stats["cached_products"] >= 1

    @pytest.mark.parametrize(
        "build", [CayleyBackend, get_engine, maybe_engine], ids=["CayleyBackend", "get_engine", "maybe_engine"]
    )
    def test_removed_cache_dir_keyword_is_rejected(self, tmp_path, build):
        group = extraspecial_group(3)
        with pytest.raises(TypeError, match="cache_dir"):
            build(group, cache_dir=str(tmp_path))
        assert os.listdir(str(tmp_path)) == []
        assert getattr(group, "_cayley_engine", None) is None


class TestRegistryFamilyTables:
    def test_every_family_is_covered(self):
        assert set(FAMILY_PARAMS) == set(families())

    @pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
    def test_ids_follow_element_list_order(self, family):
        group = family_group(family)
        engine = CayleyBackend(group)
        assert engine.mode == "table"
        elements = group.element_list()
        assert engine.interned_count == len(elements)
        assert engine.elements_of(range(len(elements))) == list(elements)
        assert engine.element_of(engine.identity_id) == group.identity()

    @pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
    def test_full_table_agrees_with_group_arithmetic(self, family):
        group = family_group(family)
        engine = CayleyBackend(group)
        elements = group.element_list()
        products, inverses = full_table(engine)
        n = len(elements)
        for flat, product_id in enumerate(products):
            a, b = elements[flat // n], elements[flat % n]
            assert engine.element_of(product_id) == group.multiply(a, b)
        assert engine.elements_of(inverses) == [group.inverse(a) for a in elements]
        assert engine.stats()["cached_products"] == n * n
        assert engine.stats()["cached_inverses"] == n
