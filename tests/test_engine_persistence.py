"""Cayley-table persistence.

The optional ``cache_dir`` of :class:`~repro.groups.engine.CayleyBackend`
memory-maps the dense table to disk, keyed by a digest of the group
description, so a second process (or sweep invocation) reopens the filled
table and performs *zero* group multiplications for cached products.  The
cache is off by default.
"""

import os

import numpy as np

from repro.groups.engine import (
    CayleyBackend,
    engine_cache,
    maybe_engine,
)
from repro.groups.extraspecial import extraspecial_group


def _count_oracle_calls(group):
    """Patch ``multiply``/``inverse`` on the instance and return the call tally.

    Installed *after* engine construction, so only post-construction oracle
    consultations (i.e. table fill-in) are counted.
    """
    calls = {"multiplications": 0, "inversions": 0}
    original_multiply, original_inverse = group.multiply, group.inverse

    def multiply(a, b):
        calls["multiplications"] += 1
        return original_multiply(a, b)

    def inverse(a):
        calls["inversions"] += 1
        return original_inverse(a)

    group.multiply, group.inverse = multiply, inverse
    return calls


class TestPersistence:
    def test_round_trip_skips_fill_in(self, tmp_path):
        cache_dir = str(tmp_path)
        group = extraspecial_group(3)
        writer = CayleyBackend(group, cache_dir=cache_dir)
        assert writer.mode == "table"
        n = writer.interned_count
        all_ids = np.arange(n, dtype=np.int64)
        expected = writer.mul_many(np.repeat(all_ids, n), np.tile(all_ids, n))
        expected_inverses = writer.inv_many(all_ids)
        assert writer.stats()["cached_products"] == n * n
        writer.flush_cache()

        fresh = extraspecial_group(3)
        reader = CayleyBackend(fresh, cache_dir=cache_dir)
        assert reader.cache_key == writer.cache_key
        assert reader.stats()["cached_products"] == n * n
        calls = _count_oracle_calls(fresh)
        products = reader.mul_many(np.repeat(all_ids, n), np.tile(all_ids, n))
        inverses = reader.inv_many(all_ids)
        assert calls == {"multiplications": 0, "inversions": 0}, (
            "a warm cache must not consult the group oracle"
        )
        # Identical id semantics: the element lists agree, so id arrays do too.
        assert np.array_equal(products, expected)
        assert np.array_equal(inverses, expected_inverses)
        assert reader.elements_of(products[:5]) == writer.elements_of(expected[:5])

    def test_cache_off_by_default(self, tmp_path):
        group = extraspecial_group(3)
        engine = CayleyBackend(group)
        assert engine.cache_dir is None and engine.cache_key is None
        assert not isinstance(engine._table, np.memmap)
        assert os.listdir(tmp_path) == []

    def test_partial_fill_resumes(self, tmp_path):
        cache_dir = str(tmp_path)
        writer = CayleyBackend(extraspecial_group(3), cache_dir=cache_dir)
        writer.mul(0, 1)
        filled = writer.stats()["cached_products"]
        writer.flush_cache()
        reader = CayleyBackend(extraspecial_group(3), cache_dir=cache_dir)
        assert reader.stats()["cached_products"] == filled
        reader.mul(0, 2)
        assert reader.stats()["cached_products"] == filled + 1

    def test_different_groups_use_different_keys(self, tmp_path):
        a = CayleyBackend(extraspecial_group(3), cache_dir=str(tmp_path))
        b = CayleyBackend(extraspecial_group(5), cache_dir=str(tmp_path))
        assert a.cache_key != b.cache_key
        assert len(os.listdir(tmp_path)) == 4  # one table + one inv file each

    def test_maybe_engine_forwards_cache_dir(self, tmp_path):
        group = extraspecial_group(3)
        engine = maybe_engine(group, cache_dir=str(tmp_path))
        assert engine is not None and engine.cache_key is not None
        assert os.listdir(tmp_path)

    def test_engine_cache_context_applies_to_implicit_installs(self, tmp_path):
        with engine_cache(str(tmp_path)):
            engine = maybe_engine(extraspecial_group(3))
        assert engine is not None and engine.cache_key is not None
        assert os.listdir(tmp_path)
        # Outside the context the default reverts to in-memory tables.
        fresh = maybe_engine(extraspecial_group(3))
        assert fresh.cache_dir is None

    def test_no_temp_files_left_behind(self, tmp_path):
        CayleyBackend(extraspecial_group(3), cache_dir=str(tmp_path))
        assert not [name for name in os.listdir(tmp_path) if ".tmp-" in name]

    def test_results_agree_with_group_arithmetic(self, tmp_path):
        group = extraspecial_group(3)
        engine = CayleyBackend(group, cache_dir=str(tmp_path))
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = group.uniform_random_element(rng)
            b = group.uniform_random_element(rng)
            assert engine.element_of(engine.mul(engine.intern(a), engine.intern(b))) == group.multiply(a, b)
