"""Property-based tests for the vectorized Cayley group engine.

Three families of invariants:

* **interning is a bijection** — ids round-trip through ``element_of`` and
  distinct elements receive distinct ids;
* **engine arithmetic agrees with scalar group arithmetic** — ``mul_many``,
  ``inv_many``, ``conj_many``, ``power``, ``element_order``, subgroup and
  commutator closures all reproduce the per-element ``FiniteGroup`` results,
  in both the kernel mode and the sparse fallback mode;
* **batch oracle accounting** — the bulk APIs on ``BlackBoxGroup`` and
  ``HidingOracle`` report exactly the totals of the equivalent scalar loops.
"""

from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.blackbox.instances import HSPInstance
from repro.blackbox.oracle import BlackBoxGroup, HidingOracle, QueryCounter
from repro.groups.abelian import AbelianTupleGroup
from repro.groups.base import FiniteGroup, GroupError
from repro.groups.engine import CayleyBackend, get_engine, maybe_engine
from repro.groups.extraspecial import extraspecial_group
from repro.groups.products import dihedral_semidirect
from repro.groups.subgroup import generate_subgroup_elements
from repro.groups.perm import symmetric_group

from reference import KernelLessHeisenberg, PerRoundSampler, scalar_route

settings.register_profile(
    "repro_engine", deadline=None, max_examples=30, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("repro_engine")


def heisenberg_elements(p=3, n=1):
    coord = st.integers(min_value=0, max_value=p - 1)
    vec = st.tuples(*([coord] * n))
    return st.tuples(vec, vec, coord)


def heisenberg(mode):
    """``H_3(1)`` whose engine runs in ``mode``: kernel, or sparse without a kernel."""
    return extraspecial_group(3) if mode == "kernel" else KernelLessHeisenberg(3)


@pytest.fixture(scope="module")
def kernel_engine():
    return CayleyBackend(extraspecial_group(3))


class TestInterning:
    @given(st.lists(heisenberg_elements(), min_size=1, max_size=24))
    def test_interning_round_trips(self, elements):
        engine = CayleyBackend(extraspecial_group(3))
        ids = engine.intern_many(elements)
        assert engine.elements_of(ids) == elements

    @given(st.lists(heisenberg_elements(), min_size=2, max_size=24))
    def test_interning_is_injective(self, elements):
        engine = CayleyBackend(extraspecial_group(3))
        ids = [engine.intern(e) for e in elements]
        for a, id_a in zip(elements, ids):
            for b, id_b in zip(elements, ids):
                assert (id_a == id_b) == (a == b)

    def test_kernel_mode_interns_whole_group(self, kernel_engine):
        assert kernel_engine.mode == "kernel"
        assert kernel_engine.interned_count == 27

    def test_kernel_mode_rejects_foreign_elements(self):
        engine = CayleyBackend(extraspecial_group(3))
        with pytest.raises(GroupError):
            engine.intern(((5,), (0,), 0))  # coordinates outside Z_3
        with pytest.raises(GroupError):
            engine.intern(((0, 0), (0,), 0))  # wrong width


class TestArithmeticAgreement:
    @pytest.mark.parametrize("mode", ["kernel", "sparse"])
    @given(data=st.data())
    def test_mul_many_agrees_with_scalar_op(self, mode, data):
        group = heisenberg(mode)
        engine = CayleyBackend(group)
        assert engine.mode == mode
        pairs = data.draw(
            st.lists(st.tuples(heisenberg_elements(), heisenberg_elements()), min_size=1, max_size=16)
        )
        elements_a = [a for a, _ in pairs]
        elements_b = [b for _, b in pairs]
        got = engine.multiply_elements(elements_a, elements_b)
        assert got == [group.multiply(a, b) for a, b in zip(elements_a, elements_b)]

    @pytest.mark.parametrize("mode", ["kernel", "sparse"])
    @given(elements=st.lists(heisenberg_elements(), min_size=1, max_size=16))
    def test_inv_many_agrees_with_scalar_inverse(self, mode, elements):
        group = heisenberg(mode)
        engine = CayleyBackend(group)
        assert engine.inverse_elements(elements) == [group.inverse(a) for a in elements]

    @given(data=st.data())
    def test_conj_many_agrees_with_scalar_conjugate(self, data):
        group = extraspecial_group(3)
        engine = CayleyBackend(group)
        pairs = data.draw(
            st.lists(st.tuples(heisenberg_elements(), heisenberg_elements()), min_size=1, max_size=16)
        )
        ids_g = engine.intern_many([g for g, _ in pairs])
        ids_h = engine.intern_many([h for _, h in pairs])
        got = engine.elements_of(engine.conj_many(ids_g, ids_h))
        assert got == [group.conjugate(g, h) for g, h in pairs]

    @given(element=heisenberg_elements(), exponent=st.integers(min_value=-12, max_value=12))
    def test_power_and_order_agree(self, element, exponent):
        group = extraspecial_group(3)
        engine = CayleyBackend(group)
        assert engine.element_of(engine.power(engine.intern(element), exponent)) == group.power(
            element, exponent
        )
        scalar_group = extraspecial_group(3)  # no engine installed: scalar path
        assert engine.element_order(engine.intern(element)) == FiniteGroup.element_order(
            scalar_group, element
        )

    @pytest.mark.parametrize("mode", ["kernel", "sparse"])
    @given(generators=st.lists(heisenberg_elements(), min_size=1, max_size=3))
    def test_subgroup_closure_agrees_with_bfs(self, mode, generators):
        group = heisenberg(mode)
        engine = CayleyBackend(group)
        got = set(engine.elements_of(engine.subgroup_ids(engine.intern_many(generators))))
        assert got == set(generate_subgroup_elements(group, generators))

    @pytest.mark.parametrize(
        "group_factory",
        [lambda: extraspecial_group(3), lambda: dihedral_semidirect(9), lambda: symmetric_group(4)],
    )
    def test_structure_queries_agree(self, group_factory):
        group = group_factory()
        engine = CayleyBackend(group)
        assert engine.is_abelian() == group.is_abelian()
        from repro.groups.subgroup import commutator_subgroup_generators

        want = set(generate_subgroup_elements(group, commutator_subgroup_generators(group)))
        assert set(engine.commutator_subgroup_elements()) == want

    def test_sparse_mode_agrees_with_kernel_mode(self):
        group = extraspecial_group(3)
        kernel = CayleyBackend(group)
        sparse = CayleyBackend(KernelLessHeisenberg(3))
        assert (kernel.mode, sparse.mode) == ("kernel", "sparse")
        elements = group.element_list()
        for a in elements[:9]:
            for b in elements[:9]:
                want = group.multiply(a, b)
                assert kernel.element_of(kernel.mul(kernel.intern(a), kernel.intern(b))) == want
                assert sparse.element_of(sparse.mul(sparse.intern(a), sparse.intern(b))) == want

    def test_coset_label_constant_exactly_on_left_cosets(self):
        group = extraspecial_group(3)
        engine = CayleyBackend(group)
        hidden = [((1,), (0,), 0)]
        subgroup_ids = engine.subgroup_ids(engine.intern_many(hidden))
        subgroup = set(engine.elements_of(subgroup_ids))
        labels = {}
        for x in group.element_list():
            labels.setdefault(engine.coset_label(engine.intern(x), subgroup_ids), []).append(x)
        assert len(labels) == group.order() // len(subgroup)
        for members in labels.values():
            base = members[0]
            coset = {group.multiply(base, h) for h in subgroup}
            assert set(members) == coset


class TestEngineInstallation:
    def test_maybe_engine_unwraps_black_box(self):
        group = extraspecial_group(3)
        wrapped = BlackBoxGroup(group)
        engine = maybe_engine(wrapped)
        assert engine is not None and engine.group is group
        assert getattr(group, "_cayley_engine", None) is engine

    def test_maybe_engine_declines_unknown_order(self):
        class OpaqueGroup(FiniteGroup):
            name = "opaque"

            def identity(self):
                return 0

            def multiply(self, a, b):
                return (a + b) % 97

            def inverse(self, a):
                return (-a) % 97

            def generators(self):
                return [1]

        assert maybe_engine(OpaqueGroup()) is None

    def test_get_engine_is_idempotent(self):
        group = extraspecial_group(3)
        assert get_engine(group) is get_engine(group)

    def test_installed_engine_accelerates_default_batch_ops(self):
        group = extraspecial_group(3)
        elements = group.element_list()[:6]
        scalar = [group.multiply(a, b) for a, b in zip(elements, reversed(elements))]
        get_engine(group)
        assert group.multiply_many(elements, list(reversed(elements))) == scalar
        assert group.inverse_many(elements) == [group.inverse(a) for a in elements]


class TestBatchCounterConsistency:
    def test_multiply_many_counts_like_scalar_loop(self):
        group = extraspecial_group(3)
        elements = group.element_list()[:8]
        scalar_box = BlackBoxGroup(extraspecial_group(3), QueryCounter())
        for a, b in zip(elements, reversed(elements)):
            scalar_box.multiply(a, b)
        batch_box = BlackBoxGroup(extraspecial_group(3), QueryCounter())
        batch_box.multiply_many(elements, list(reversed(elements)))
        assert batch_box.counter.snapshot() == scalar_box.counter.snapshot()

    def test_inverse_many_counts_like_scalar_loop(self):
        group = extraspecial_group(3)
        elements = group.element_list()[:8]
        scalar_box = BlackBoxGroup(extraspecial_group(3), QueryCounter())
        for a in elements:
            scalar_box.inverse(a)
        batch_box = BlackBoxGroup(extraspecial_group(3), QueryCounter())
        batch_box.inverse_many(elements)
        assert batch_box.counter.snapshot() == scalar_box.counter.snapshot()

    def test_multiply_many_rejects_length_mismatch(self):
        box = BlackBoxGroup(extraspecial_group(3))
        with pytest.raises(ValueError):
            box.multiply_many([box.identity()], [])

    @given(
        st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=30),
    )
    def test_evaluate_many_counts_like_scalar_loop(self, queries):
        group = AbelianTupleGroup([8])
        elements = [(q,) for q in queries]

        def label(x):
            return x[0] % 4

        scalar = HidingOracle(label, QueryCounter())
        scalar_values = [scalar(x) for x in elements]
        batch = HidingOracle(label, QueryCounter())
        batch_values = batch.evaluate_many(elements)
        assert batch_values == scalar_values
        assert batch.counter.snapshot() == scalar.counter.snapshot()
        # Distinct uncached elements are counted exactly once each.
        assert batch.counter.classical_queries == len(set(queries))

    def test_quantum_query_bulk_counting(self):
        oracle = HidingOracle(lambda x: 0, QueryCounter())
        oracle.quantum_query()
        oracle.quantum_query(5)
        assert oracle.counter.quantum_queries == 6

    def test_counted_group_totals_match_when_commutator_is_enumerated(self):
        """No promise: G' enumeration on a counted group must count identically."""
        from repro.blackbox.instances import hiding_oracle_from_subgroup
        from repro.core.small_commutator import solve_hsp_small_commutator
        from repro.quantum.sampling import FourierSampler

        reports = {}
        for dense in (False, True):
            with nullcontext() if dense else scalar_route():
                base = extraspecial_group(3)
                box = BlackBoxGroup(base, QueryCounter())
                oracle = hiding_oracle_from_subgroup(base, [((1,), (1,), 0)], counter=box.counter)
                result = solve_hsp_small_commutator(
                    box,
                    oracle,
                    sampler=FourierSampler(backend="statevector", rng=np.random.default_rng(20010202)),
                )
            reports[dense] = result.query_report
        assert reports[True] == reports[False]

    def test_analytic_batch_sampling_survives_int64_overflowing_moduli(self):
        """Moduli >= 2^63 must reach the exact big-integer fallback, not crash."""
        from repro.quantum.sampling import FourierSampler, SubgroupStructureOracle

        oracle = SubgroupStructureOracle([1 << 64], [(0,)])
        sampler = FourierSampler(backend="analytic", rng=np.random.default_rng(5))
        samples = sampler.sample(oracle, 4)
        assert len(samples) == 4
        assert all(0 <= s[0] < (1 << 64) for s in samples)
        assert oracle.counter.quantum_queries == 4

    def test_engine_and_scalar_solvers_report_identical_totals(self):
        """End-to-end: Theorem 11 with and without the engine, same queries."""
        from repro.core.small_commutator import solve_hsp_small_commutator
        from repro.quantum.sampling import FourierSampler

        reports = {}
        for dense in (False, True):
            with nullcontext() if dense else scalar_route():
                group = extraspecial_group(3)
                instance = HSPInstance.from_subgroup(group, [((1,), (1,), 0)])
                rng = np.random.default_rng(20010202)
                sampler_class = FourierSampler if dense else PerRoundSampler
                result = solve_hsp_small_commutator(
                    group,
                    instance.oracle.fresh_view(),
                    sampler=sampler_class(backend="statevector", rng=rng),
                    commutator_elements=group.commutator_subgroup_elements(),
                )
            assert instance.verify(result.generators or [group.identity()])
            reports[dense] = result.query_report
        assert reports[True] == reports[False]
