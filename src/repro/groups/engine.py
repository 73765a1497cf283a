"""Vectorized Cayley group engine.

The paper states its complexity bounds in oracle queries, but the wall-clock
cost of the *simulation* is dominated by per-element Python group arithmetic
in the Fourier-sampling and coset-enumeration hot paths.  This module provides
a :class:`CayleyBackend` that

* interns group elements to dense integer ids (a bijection between the
  elements touched so far and ``0..n-1``),
* has one dense route, ``mode == "kernel"``: a group with a
  :class:`~repro.groups.base.DenseKernel` is enumerated once in kernel row
  space, products and inverses are computed array-at-a-time by the kernel,
  and any block of rows resolves to ids by the kernel's rank and one gather
  into a position array.  Elements are decoded from their rows only when a
  caller asks for them,
* falls back to ``mode == "sparse"`` (on-demand interning, per-pair
  memoisation over the scalar group arithmetic) for groups without a kernel
  — matrix groups, quotients, subgroup views — or whose rank space is too
  large for a dense position array,
* exposes batch operations — :meth:`mul_many`, :meth:`inv_many`,
  :meth:`conj_many`, :meth:`orbit_closure` — that amortise Python dispatch
  over whole id arrays, and
* memoizes structure queries (:meth:`is_abelian`, the commutator subgroup,
  element orders) that the solvers ask for repeatedly.

Every engine array is linear in the group order (the position array in the
rank space, which is ``|G|`` itself for coordinate groups); nothing is
quadratic, and nothing is written to disk.

The engine is *mathematically transparent*: every operation agrees with the
scalar :class:`~repro.groups.base.FiniteGroup` interface of the wrapped group
(the test-suite checks this property-based).  Query accounting is **not**
done here — counted groups (:class:`~repro.blackbox.oracle.BlackBoxGroup`)
bump their counters in bulk *before* delegating to the engine, so batch and
scalar executions report identical totals.

Use :func:`get_engine` to build-and-install an engine on a group instance
(subsequent ``multiply_many`` calls on the group are then engine-accelerated
automatically) and :func:`maybe_engine` for the guarded variant that returns
``None`` for groups without a usable dense encoding (unknown or huge order),
which keeps the per-element code path as the fallback.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.groups.base import DenseKernel, FiniteGroup, GroupError
from repro.obs import metrics as obs_metrics
from repro.obs import span as obs_span

__all__ = [
    "CayleyBackend",
    "get_engine",
    "maybe_engine",
]

#: Largest group order the engine enumerates; :func:`maybe_engine` declines
#: larger groups, and direct construction keeps them in sparse mode.
DEFAULT_INTERN_LIMIT = 1 << 16

#: Largest kernel rank space backed by a dense (int64) position array.
_RANK_SPACE_LIMIT = 1 << 21

#: Largest pair block of one doubling level in :meth:`CayleyBackend.subgroup_ids`.
_PAIR_BUDGET = 1 << 17

#: Safety cap for element-order iteration in sparse mode.
_ORDER_ITERATION_LIMIT = 10**7


def _cheap_order(group: FiniteGroup) -> Optional[int]:
    """The group order if it is available without a fresh full enumeration.

    ``None`` means "unknown without enumeration": the base-class ``order``
    falls back to BFS over the whole group, which the engine must not trigger
    on a group that might be huge.  An already-populated element cache counts
    as cheap (the enumeration has been paid for).
    """
    cached = getattr(group, "_element_cache", None)
    if cached is not None:
        return len(cached)
    if type(group).order is not FiniteGroup.order:
        try:
            return int(group.order())
        except Exception:
            return None
    return None


def _row_chain(kernel: DenseKernel, identity_row: np.ndarray, gen_row: np.ndarray) -> np.ndarray:
    """Rows of the cyclic group ``<g>`` by shift doubling on kernel rows.

    Same invariant as :meth:`CayleyBackend._cyclic_power_ids` — ``powers =
    [g^0 .. g^{k-1}]`` with ``pivot = g^k`` — but over raw kernel rows, for
    use before any id assignment exists.  ``O(log ord g)`` kernel calls.
    """
    if np.array_equal(gen_row, identity_row):
        return identity_row[None, :]
    powers = np.stack([identity_row, gen_row])
    pivot = kernel.compose_many(gen_row[None, :], gen_row[None, :])[0]
    while True:
        # One call per level: powers * pivot, then pivot * pivot.
        k = powers.shape[0]
        block = np.asarray(
            kernel.compose_many(np.concatenate([powers, pivot[None, :]]), np.tile(pivot, (k + 1, 1)))
        )
        # The first power that repeats is g^ord, the identity.
        cut = np.flatnonzero((block[:k] == identity_row).all(axis=1))
        if cut.size:
            return np.concatenate([powers, block[: cut[0]]])
        powers = np.concatenate([powers, block[:k]])
        pivot = block[k]


def _enumerate_rows(kernel: DenseKernel, identity_row: np.ndarray, gen_rows: np.ndarray) -> np.ndarray:
    """Enumerate the group generated by ``gen_rows`` entirely in row space.

    Dimino-style closure: the first generator's cyclic chain is built by
    shift doubling, and every further generator extends the current
    subgroup ``K`` coset by coset — each new representative ``r``
    contributes the whole block ``K @ powers(r)`` in bulk kernel calls, and
    representatives are probed breadth-first with every generator processed
    so far.  Membership is one flag per rank.  No scalar ``multiply`` is
    ever called; the output order is deterministic (identity first), which
    fixes the dense id assignment.
    """
    seen = np.zeros(kernel.rank_size, dtype=bool)
    blocks: List[np.ndarray] = []

    def unseen(row: np.ndarray) -> bool:
        return not seen[kernel.rank_many(row[None, :])[0]]

    def absorb(rows: np.ndarray) -> None:
        # First occurrences, in row order, of ranks not seen before.
        ranks = kernel.rank_many(rows)
        _, first = np.unique(ranks, return_index=True)
        first.sort()
        fresh = first[~seen[ranks[first]]]
        if fresh.size:
            seen[ranks[fresh]] = True
            blocks.append(rows[fresh])

    absorb(identity_row[None, :])
    processed: List[np.ndarray] = []
    for gen_row in gen_rows:
        processed.append(gen_row)
        if not unseen(gen_row):
            continue
        base = np.concatenate(blocks)
        pending = deque([gen_row])
        while pending:
            rep = pending.popleft()
            if not unseen(rep):
                continue
            # powers = [e, r, r^2, ...]: the whole stack of cosets
            # K r^j lands in one bulk call, and every power is probed with
            # every processed generator so no coset of the closure is missed.
            shifts = _row_chain(kernel, identity_row, rep)[1:]
            absorb(
                np.asarray(
                    kernel.compose_many(
                        np.repeat(base, shifts.shape[0], axis=0),
                        np.tile(shifts, (base.shape[0], 1)),
                    )
                )
            )
            gen_stack = np.stack(processed)
            probes = np.asarray(
                kernel.compose_many(
                    np.repeat(shifts, gen_stack.shape[0], axis=0),
                    np.tile(gen_stack, (shifts.shape[0], 1)),
                )
            )
            pending.extend(probes[~seen[kernel.rank_many(probes)]])
    return np.concatenate(blocks)


class CayleyBackend:
    """Dense-id engine over a :class:`~repro.groups.base.FiniteGroup`.

    ``group`` is the wrapped group; its elements must be hashable (they are,
    for every concrete group in this reproduction).  A group with a
    :class:`~repro.groups.base.DenseKernel`, a cheaply known order up to
    ``DEFAULT_INTERN_LIMIT`` and a rank space up to ``_RANK_SPACE_LIMIT``
    runs in ``mode == "kernel"``: the whole group is enumerated in row space
    at construction (ids follow that enumeration, identity first), and the
    engine keeps three arrays — the ``(n, width)`` rows, the inverse ids and
    the rank -> id position array.  Every other group runs in ``mode ==
    "sparse"``: ids are allocated on first sight and products are memoized
    pair by pair over the scalar arithmetic.
    """

    def __init__(self, group: FiniteGroup):
        self.group = group
        self._elements: List = []
        self._ids: Dict = {}
        self._mul_cache: Dict[Tuple[int, int], int] = {}
        self._inv_cache: Dict[int, int] = {}
        self._order_cache: Dict[int, int] = {}
        self._is_abelian: Optional[bool] = None
        self._commutator_ids: Optional[np.ndarray] = None
        self._subgroup_cache: Dict[Tuple[int, ...], np.ndarray] = {}
        factory = getattr(group, "dense_kernel", None)
        self.kernel: Optional[DenseKernel] = factory() if factory is not None else None
        order = _cheap_order(group)
        self.group_order = order
        self.full_enumeration = (
            self.kernel is not None
            and order is not None
            and order <= DEFAULT_INTERN_LIMIT
            and self.kernel.rank_size <= _RANK_SPACE_LIMIT
        )
        self.mode = "kernel" if self.full_enumeration else "sparse"
        with obs_span("engine.build", group=group.name, mode=self.mode) as build_span:
            if self.full_enumeration:
                self._enumerate(order)
            self.identity_id = self.intern(group.identity())
            build_span.add("interned", len(self._elements))

    def _enumerate(self, order: int) -> None:
        """Kernel mode: rows, rank -> id positions and inverse ids of all of ``G``."""
        kernel = self.kernel
        rows = _enumerate_rows(
            kernel,
            np.asarray(kernel.encode_many([self.group.identity()]), dtype=np.int64)[0],
            np.asarray(kernel.encode_many(self.group.generators()), dtype=np.int64),
        )
        if rows.shape[0] != order:
            raise GroupError(
                f"kernel enumeration found {rows.shape[0]} elements "
                f"of {self.group.name}, expected {order}"
            )
        n = rows.shape[0]
        self._rows = rows
        self._radices = np.asarray(kernel.radices, dtype=np.int64)
        self._position = np.full(kernel.rank_size, -1, dtype=np.int64)
        self._position[kernel.rank_many(rows)] = np.arange(n, dtype=np.int64)
        # Elements are decoded from their rows on first request.
        self._elements = [None] * n
        self._inverses = self._resolve(kernel.inverse_many(rows))

    # -- rows -> ids ----------------------------------------------------------------
    def _resolve(self, rows: np.ndarray) -> np.ndarray:
        """Ids of kernel-computed member rows: one rank and one gather."""
        ids = self._position[self.kernel.rank_many(rows)]
        if ids.size and ids.min() < 0:
            raise GroupError("dense kernel produced a row outside the enumerated group")
        return ids

    def _lookup(self, elements: List) -> np.ndarray:
        """Kernel-mode ids of caller-supplied elements, rejecting non-members."""
        kernel = self.kernel
        try:
            rows = np.asarray(kernel.encode_many(elements), dtype=np.int64)
        except (TypeError, ValueError, IndexError, OverflowError) as exc:
            raise GroupError(f"cannot encode an element of {self.group.name}: {exc}") from None
        if rows.shape != (len(elements), kernel.width):
            raise GroupError(f"an element of {self.group.name} has the wrong width")
        if ((rows < 0) | (rows >= self._radices)).any():
            raise GroupError(f"an element has a coordinate outside {self.group.name}")
        ids = self._position[kernel.rank_many(rows)]
        # A rank names at most one member; the row comparison also rejects
        # rows that share a member's rank (a non-member permutation agreeing
        # with a member on the base points).
        if (ids < 0).any() or not np.array_equal(self._rows[ids], rows):
            bad = elements[int(np.argmax((ids < 0) | (self._rows[ids] != rows).any(axis=1)))]
            raise GroupError(f"element {bad!r} is not in the enumerated group {self.group.name}")
        return ids

    # -- interning ------------------------------------------------------------
    def intern(self, element) -> int:
        """The dense id of ``element`` (allocating one on first sight in sparse mode)."""
        found = self._ids.get(element)
        if found is not None:
            return found
        if self.full_enumeration:
            found = int(self._lookup([element])[0])
        else:
            found = len(self._elements)
            self._elements.append(element)
        self._ids[element] = found
        return found

    def intern_many(self, elements: Iterable) -> np.ndarray:
        if isinstance(elements, np.ndarray):
            # Already an id array: the id-native fast path is a no-op.
            if elements.dtype == np.int64:
                return elements
            if np.issubdtype(elements.dtype, np.integer):
                return elements.astype(np.int64)
        if not self.full_enumeration:
            return np.fromiter((self.intern(e) for e in elements), dtype=np.int64)
        elements = elements if isinstance(elements, list) else list(elements)
        memo = self._ids
        ids = np.fromiter((memo.get(e, -1) for e in elements), dtype=np.int64, count=len(elements))
        missing = np.flatnonzero(ids < 0)
        if missing.size:
            fresh = [elements[i] for i in missing.tolist()]
            found = self._lookup(fresh)
            ids[missing] = found
            memo.update(zip(fresh, found.tolist()))
        return ids

    def _decode(self, ids: List[int]) -> None:
        """Kernel mode: decode rows of not yet decoded ids, memoising both ways."""
        for i, element in zip(ids, self.kernel.decode_many(self._rows[ids])):
            self._elements[i] = element
            self._ids[element] = i

    def element_of(self, element_id: int):
        element_id = int(element_id)
        element = self._elements[element_id]
        if element is None:
            self._decode([element_id])
            element = self._elements[element_id]
        return element

    def elements_of(self, ids: Iterable) -> List:
        ids = ids.tolist() if isinstance(ids, np.ndarray) else [int(i) for i in ids]
        elements = self._elements
        if self.full_enumeration:
            missing = sorted({i for i in ids if elements[i] is None})
            if missing:
                self._decode(missing)
        return [elements[i] for i in ids]

    @property
    def interned_count(self) -> int:
        return len(self._elements)

    # -- products -------------------------------------------------------------
    def _products(self, ids_a: np.ndarray, ids_b: np.ndarray) -> np.ndarray:
        """Kernel mode: products of two id arrays in one kernel call."""
        start = time.perf_counter() if obs_metrics.collecting() else None
        ids = self._resolve(self.kernel.compose_many(self._rows[ids_a], self._rows[ids_b]))
        if start is not None:
            obs_metrics.observe("engine.bulk.mul", time.perf_counter() - start)
        return ids

    def mul(self, a: int, b: int) -> int:
        """Product of two interned elements, memoized."""
        key = (int(a), int(b))
        value = self._mul_cache.get(key)
        if value is None:
            if self.full_enumeration:
                value = int(self._products(np.asarray(key[:1]), np.asarray(key[1:]))[0])
            else:
                value = self.intern(
                    self.group.multiply(self._elements[key[0]], self._elements[key[1]])
                )
            self._mul_cache[key] = value
        return value

    def inv(self, a: int) -> int:
        a = int(a)
        if self.full_enumeration:
            return int(self._inverses[a])
        value = self._inv_cache.get(a)
        if value is None:
            value = self.intern(self.group.inverse(self._elements[a]))
            self._inv_cache[a] = value
        return value

    def power(self, a: int, k: int) -> int:
        """``a**k`` by binary exponentiation over ids."""
        if k < 0:
            return self.power(self.inv(a), -k)
        result = self.identity_id
        base = int(a)
        while k:
            if k & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            k >>= 1
        return result

    # -- batch operations ------------------------------------------------------
    def mul_many(self, ids_a: Sequence[int], ids_b: Sequence[int]) -> np.ndarray:
        """Componentwise products ``a_i * b_i`` of two id arrays."""
        ids_a = np.asarray(ids_a, dtype=np.int64)
        ids_b = np.asarray(ids_b, dtype=np.int64)
        if ids_a.shape != ids_b.shape:
            raise ValueError("mul_many requires id arrays of equal length")
        if self.full_enumeration:
            return self._products(ids_a, ids_b)
        return np.fromiter(
            (self.mul(a, b) for a, b in zip(ids_a, ids_b)), dtype=np.int64, count=len(ids_a)
        )

    def inv_many(self, ids: Sequence[int]) -> np.ndarray:
        """Componentwise inverses of an id array."""
        ids = np.asarray(ids, dtype=np.int64)
        if self.full_enumeration:
            return self._inverses[ids]
        return np.fromiter((self.inv(a) for a in ids), dtype=np.int64, count=len(ids))

    def conj_many(self, ids_g: Sequence[int], ids_h: Sequence[int]) -> np.ndarray:
        """Componentwise conjugates ``g_i h_i g_i^{-1}``."""
        ids_g = np.asarray(ids_g, dtype=np.int64)
        return self.mul_many(self.mul_many(ids_g, ids_h), self.inv_many(ids_g))

    def orbit_closure(
        self,
        seed_ids: Sequence[int],
        generator_ids: Optional[Sequence[int]] = None,
        include_inverses: bool = True,
        limit: Optional[int] = None,
    ) -> np.ndarray:
        """Closure of ``seed_ids`` under right multiplication by the generators.

        With ``seed_ids == [identity]`` this is the subgroup generated by the
        generator ids.  Returns the sorted id array of the closure.  ``limit``
        aborts (``GroupError``) once the closure exceeds that many elements —
        the same guard the scalar BFS helpers use.
        """
        if generator_ids is None:
            generator_ids = self.intern_many(self.group.generators())
        gen_ids = np.asarray(generator_ids, dtype=np.int64)
        if include_inverses and gen_ids.size:
            gen_ids = np.unique(np.concatenate([gen_ids, self.inv_many(gen_ids)]))
        seed = np.unique(np.asarray(seed_ids, dtype=np.int64))
        if self.full_enumeration:
            # Dense membership: one boolean flag per group element, one
            # vectorised product block per BFS level.
            member = np.zeros(len(self._elements), dtype=bool)
            member[seed] = True
            frontier = seed
            while frontier.size and gen_ids.size:
                products = np.unique(
                    self.mul_many(np.repeat(frontier, gen_ids.size), np.tile(gen_ids, frontier.size))
                )
                fresh = products[~member[products]]
                member[fresh] = True
                if limit is not None and int(member.sum()) > limit:
                    raise GroupError(f"orbit closure exceeded limit {limit}")
                frontier = fresh
            return np.flatnonzero(member).astype(np.int64)
        seen = set(int(i) for i in seed)
        frontier = seed
        while frontier.size and gen_ids.size:
            products = self.mul_many(np.repeat(frontier, gen_ids.size), np.tile(gen_ids, frontier.size))
            fresh = [int(p) for p in np.unique(products) if int(p) not in seen]
            seen.update(fresh)
            if limit is not None and len(seen) > limit:
                raise GroupError(f"orbit closure exceeded limit {limit}")
            frontier = np.asarray(fresh, dtype=np.int64)
        return np.asarray(sorted(seen), dtype=np.int64)

    def breadth_first_ids(self, generator_ids: Sequence[int]) -> List[int]:
        """Ids of ``<generator_ids>`` in scalar breadth-first order.

        The order of :meth:`~repro.groups.base.FiniteGroup.element_list`:
        each element in turn times each generator, keeping first
        sightings.  Kernel mode only: one products block gives every
        element's right neighbours, and the walk runs over that adjacency.
        """
        gen_ids = np.asarray(generator_ids, dtype=np.int64)
        n = len(self._elements)
        everything = np.arange(n, dtype=np.int64)
        neighbours = self.mul_many(np.repeat(everything, gen_ids.size), np.tile(gen_ids, n))
        neighbours = neighbours.reshape(n, gen_ids.size).tolist()
        order = [self.identity_id]
        seen = {self.identity_id}
        for element_id in order:  # the queue grows while it is walked
            for neighbour in neighbours[element_id]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    order.append(neighbour)
        return order

    def _cyclic_power_ids(self, gen_id: int) -> np.ndarray:
        """Ids of the cyclic subgroup ``<g>`` by shift doubling.

        Maintains the invariant ``powers = [g^0, ..., g^{k-1}]`` with
        ``pivot = g^k``; each level appends ``powers * pivot`` (the next
        ``k`` powers in one bulk product) and squares the pivot, so the
        whole chain costs ``O(log ord g)`` vectorised calls.  The first
        power that repeats is ``g^ord``, the identity, which truncates the
        final block exactly.
        """
        if gen_id == self.identity_id:
            return np.asarray([self.identity_id], dtype=np.int64)
        powers = np.asarray([self.identity_id, gen_id], dtype=np.int64)
        pivot = int(self.mul_many([gen_id], [gen_id])[0])
        while True:
            # One products block per level: powers * pivot, then pivot * pivot.
            k = powers.size
            block = self.mul_many(np.append(powers, pivot), np.full(k + 1, pivot, dtype=np.int64))
            cut = np.flatnonzero(block[:k] == self.identity_id)
            if cut.size:
                return np.concatenate([powers, block[: cut[0]]])
            powers = np.concatenate([powers, block[:k]])
            pivot = int(block[k])

    def subgroup_ids(
        self, generator_ids: Sequence[int], limit: Optional[int] = None, memoize: bool = True
    ) -> np.ndarray:
        """Ids of the subgroup generated by ``generator_ids``.

        Kernel mode seeds the closure with each generator's cyclic subgroup
        by shift doubling (``O(log ord)`` bulk products apiece), then
        finishes with budgeted doubling and a linear generator-step tail.
        Sparse mode falls back to the generator-step orbit closure.
        ``memoize=False`` skips the closure cache — use it for one-off
        generating sets (e.g. incremental re-closures seeded with a whole
        member set) whose keys would never be hit again.
        """
        gen_ids = np.unique(np.asarray(generator_ids, dtype=np.int64))
        if gen_ids.size == 0:
            return np.asarray([self.identity_id], dtype=np.int64)
        key = tuple(gen_ids.tolist()) if memoize else None
        if key is not None:
            cached = self._subgroup_cache.get(key)
            if cached is not None:
                if limit is not None and cached.size > limit:
                    raise GroupError(f"subgroup closure exceeded limit {limit}")
                return cached
        if not self.full_enumeration:
            closure = self.orbit_closure([self.identity_id], gen_ids, limit=limit)
            if key is not None:
                self._subgroup_cache[key] = closure
            return closure
        member = np.zeros(len(self._elements), dtype=bool)
        member[self.identity_id] = True
        count = 1
        # Seed with the cyclic subgroup of every generator: shift doubling
        # delivers each ``<g>`` in O(log ord g) bulk products, so near-cyclic
        # subgroups — hidden rotation subgroups are the common case — close
        # in a couple of further levels instead of a quadratic cascade.  A
        # generator inside an earlier chain adds nothing and is skipped;
        # callers that pass a whole member set as generators rely on that.
        for gen in gen_ids.tolist():
            if member[gen]:
                continue
            chain = self._cyclic_power_ids(gen)
            count += int(np.count_nonzero(~member[chain]))
            member[chain] = True
            if limit is not None and count > limit:
                raise GroupError(f"subgroup closure exceeded limit {limit}")
        # Every chain holds its generator's inverse, so ``gens_ext`` is
        # already inside ``member``.
        gens_ext = np.unique(np.concatenate([gen_ids, self.inv_many(gen_ids)]))
        current = np.flatnonzero(member).astype(np.int64)
        frontier = current
        # Doubling closes in O(log |H|) levels but its total pair count is
        # quadratic in |H|, so each level must fit a pair budget; past it
        # the closure switches to generator-step BFS, whose total pair
        # count is |H| * |gens_ext|.  The switch is complete: every member
        # outside the live frontier was already multiplied by all of
        # ``gens_ext`` (a subset of ``current`` since level 0).
        while frontier.size and frontier.size * current.size * 2 <= _PAIR_BUDGET:
            # Both orders: a pair (a, b) with b discovered after a is covered
            # at b's level, where a is in `current` — a*b by the second block
            # and b*a by the first.
            left = self.mul_many(np.repeat(frontier, current.size), np.tile(current, frontier.size))
            right = self.mul_many(np.repeat(current, frontier.size), np.tile(frontier, current.size))
            products = np.unique(np.concatenate([left, right]))
            fresh = products[~member[products]]
            member[fresh] = True
            current = np.flatnonzero(member).astype(np.int64)
            if limit is not None and current.size > limit:
                raise GroupError(f"subgroup closure exceeded limit {limit}")
            frontier = fresh
        count = int(np.count_nonzero(member))
        while frontier.size:
            products = np.unique(
                self.mul_many(np.repeat(frontier, gens_ext.size), np.tile(gens_ext, frontier.size))
            )
            fresh = products[~member[products]]
            member[fresh] = True
            count += fresh.size
            if limit is not None and count > limit:
                raise GroupError(f"subgroup closure exceeded limit {limit}")
            frontier = fresh
        current = np.flatnonzero(member).astype(np.int64)
        if key is not None:
            self._subgroup_cache[key] = current
        return current

    # -- element-level conveniences --------------------------------------------
    def multiply_elements(self, elements_a: Sequence, elements_b: Sequence) -> List:
        ids = self.mul_many(self.intern_many(elements_a), self.intern_many(elements_b))
        return self.elements_of(ids)

    def inverse_elements(self, elements: Sequence) -> List:
        return self.elements_of(self.inv_many(self.intern_many(elements)))

    # -- memoized structure queries ---------------------------------------------
    def is_abelian(self) -> bool:
        """Whether the group is Abelian (generator-pairwise, memoized)."""
        if self._is_abelian is None:
            gen_ids = self.intern_many(self.group.generators())
            pairs_a = np.repeat(gen_ids, gen_ids.size)
            pairs_b = np.tile(gen_ids, gen_ids.size)
            self._is_abelian = bool(
                np.array_equal(self.mul_many(pairs_a, pairs_b), self.mul_many(pairs_b, pairs_a))
            )
        return self._is_abelian

    def commutator_subgroup_ids(self, limit: Optional[int] = None) -> np.ndarray:
        """Ids of the full commutator subgroup ``G'`` (memoized).

        ``G'`` is the normal closure of the generator commutators: the
        computation alternates subgroup closure with conjugation by the group
        generators until stable, entirely over id arrays.
        """
        if self._commutator_ids is not None:
            return self._commutator_ids
        gen_ids = self.intern_many(self.group.generators())
        commutators = []
        for i in range(gen_ids.size):
            for j in range(i + 1, gen_ids.size):
                a, b = int(gen_ids[i]), int(gen_ids[j])
                c = self.mul(self.mul(a, b), self.mul(self.inv(a), self.inv(b)))
                if c != self.identity_id:
                    commutators.append(c)
        closure = self.subgroup_ids(np.asarray(commutators, dtype=np.int64), limit=limit)
        while True:
            members = set(int(i) for i in closure)
            pairs_g = np.repeat(gen_ids, closure.size)
            pairs_h = np.tile(closure, gen_ids.size)
            conjugates = self.conj_many(pairs_g, pairs_h)
            fresh = [int(c) for c in np.unique(conjugates) if int(c) not in members]
            if not fresh:
                break
            closure = self.subgroup_ids(
                np.concatenate([closure, np.asarray(fresh, dtype=np.int64)]), limit=limit
            )
        self._commutator_ids = closure
        return closure

    def commutator_subgroup_elements(self, limit: Optional[int] = None) -> List:
        return self.elements_of(self.commutator_subgroup_ids(limit=limit))

    def element_order(self, element_id: int) -> int:
        """Multiplicative order of an interned element (memoized)."""
        element_id = int(element_id)
        cached = self._order_cache.get(element_id)
        if cached is not None:
            return cached
        bound = self.group.exponent_bound() if self.full_enumeration else None
        if bound is not None:
            # Divide primes out of the exponent bound: O(log) products
            # instead of a linear walk.
            from repro.linalg.modular import element_order_from_exponent

            order = element_order_from_exponent(
                lambda k: self.power(element_id, k),
                lambda i: int(i) == self.identity_id,
                bound,
            )
            self._order_cache[element_id] = order
            return order
        order = 1
        current = element_id
        cap = self.group_order if self.group_order is not None else _ORDER_ITERATION_LIMIT
        while current != self.identity_id:
            current = self.mul(current, element_id)
            order += 1
            if order > cap:
                raise GroupError("element order exceeds enumeration limit")
        self._order_cache[element_id] = order
        return order

    def orders_many(self, ids: Sequence[int]) -> np.ndarray:
        return np.fromiter((self.element_order(i) for i in ids), dtype=np.int64)

    # -- coset helpers -----------------------------------------------------------
    def coset_label(self, element_id: int, subgroup_ids: np.ndarray) -> int:
        """A canonical label of the left coset ``g H``: the minimum id in it.

        Constant exactly on left cosets of the subgroup, so it is a valid
        hiding-function value; computing it is one batched row of products.
        """
        element_id = int(element_id)
        subgroup_ids = np.asarray(subgroup_ids, dtype=np.int64)
        if self.full_enumeration:
            return int(
                self._products(np.full(subgroup_ids.size, element_id, dtype=np.int64), subgroup_ids).min()
            )
        return min(self.mul(element_id, int(b)) for b in subgroup_ids)

    def coset_label_many(self, element_ids: Sequence[int], subgroup_ids: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`coset_label` over a whole block of elements.

        One products block of shape ``(len(element_ids), len(subgroup_ids))``
        followed by a row-wise minimum; callers chunk when the block would be
        large.  Labels are identical to the scalar :meth:`coset_label` calls.
        """
        element_ids = np.asarray(element_ids, dtype=np.int64)
        subgroup_ids = np.asarray(subgroup_ids, dtype=np.int64)
        if element_ids.size == 0:
            return np.empty(0, dtype=np.int64)
        products = self.mul_many(
            np.repeat(element_ids, subgroup_ids.size),
            np.tile(subgroup_ids, element_ids.size),
        )
        return products.reshape(element_ids.size, subgroup_ids.size).min(axis=1)

    # -- diagnostics ---------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Cache-occupancy statistics (used by tests and the benchmark report)."""
        return {
            "interned": len(self._elements),
            "cached_products": len(self._mul_cache),
            "cached_inverses": len(self._elements) if self.full_enumeration else len(self._inv_cache),
            "kernel_mode": int(self.full_enumeration),
            "has_kernel": int(self.kernel is not None),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<CayleyBackend {self.group.name} mode={self.mode} interned={len(self._elements)}>"


def get_engine(group: FiniteGroup) -> CayleyBackend:
    """The engine installed on ``group``, building (and installing) one if absent.

    Installation makes the group's default ``multiply_many``/``inverse_many``
    batch methods engine-accelerated (see :class:`~repro.groups.base.FiniteGroup`).
    """
    engine = getattr(group, "_cayley_engine", None)
    if engine is None:
        engine = CayleyBackend(group)
        group._cayley_engine = engine
    return engine


def maybe_engine(group: FiniteGroup) -> Optional[CayleyBackend]:
    """A guarded :func:`get_engine`: ``None`` when no usable encoding exists.

    The engine engages only when the group order is known without a fresh
    full enumeration (a concrete ``order()`` override or an already-cached
    element list) and fits under ``DEFAULT_INTERN_LIMIT``, and when elements
    are hashable.  Counted black-box wrappers are unwrapped so that the
    engine memoizes the *uncounted* arithmetic — the wrapper keeps doing the
    (bulk) accounting.
    """
    inner = getattr(group, "group", None)
    if isinstance(inner, FiniteGroup):
        group = inner
    existing = getattr(group, "_cayley_engine", None)
    if existing is not None:
        return existing
    order = _cheap_order(group)
    if order is None or order > DEFAULT_INTERN_LIMIT:
        return None
    try:
        hash(group.identity())
    except TypeError:
        return None
    return get_engine(group)
