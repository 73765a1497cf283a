"""Abstract finite groups.

Every concrete group in the reproduction (permutation groups, Abelian tuple
groups, matrix groups over GF(p), semidirect/wreath products, extraspecial
groups, quotients) implements the small :class:`FiniteGroup` interface below.
The black-box layer (:mod:`repro.blackbox`) then wraps any such group behind
the oracle interface of the paper, so the HSP solvers never see anything but
encoded strings and the multiplication oracle.

Elements are opaque *hashable, immutable* Python objects; the group object
owns all arithmetic.  Generic algorithms that only need the interface
(powers, element orders, subgroup closure, random elements via product
replacement) live here and in :mod:`repro.groups.subgroup`.
"""

from __future__ import annotations

import abc
import itertools
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.linalg.modular import element_order_from_exponent, factorint, lcm

__all__ = ["DenseKernel", "FiniteGroup", "GroupError", "product_replacement_sampler"]

Element = Any


class GroupError(Exception):
    """Raised for structurally invalid group operations."""


class DenseKernel:
    """Vectorized coordinate arithmetic over ``(n, width)`` int64 row arrays.

    A group that can represent its elements as fixed-width integer vectors
    (permutation images, Abelian coordinate tuples, Heisenberg triples,
    product concatenations) exposes one of these through
    :meth:`FiniteGroup.dense_kernel`.  The Cayley engine then computes whole
    blocks of products and inverses as single NumPy expressions instead of
    calling the scalar :meth:`FiniteGroup.multiply` per pair — this is the
    batch protocol behind the engine's ``"kernel"`` mode.

    Rows are named by a *rank*: the mixed-radix number formed by the
    ``rank_columns`` of the row, digit ``j`` in ``[0, radices[j])``.  The
    rank must be injective on the rows of group members, which lets the
    engine resolve a whole block of rows to dense ids with one gather.
    Coordinate groups rank every column, so their rank space is exactly
    ``|G|``; permutation groups rank the images of a stabiliser-chain base.

    Contract: ``decode_many(encode_many(xs)) == xs`` for group elements, and
    ``compose_many``/``inverse_many`` agree row-for-row with the group's
    scalar ``multiply``/``inverse`` (property-tested per group).  Kernels
    perform *no query accounting* — counted wrappers bump their counters in
    bulk before any kernel runs, exactly as for the scalar engine paths.
    """

    #: Number of int64 coordinates per element row.
    width: int = 0

    #: Exclusive upper bound of each coordinate column (``width`` entries):
    #: every member row lies in ``[0, radices)`` componentwise.
    radices: Sequence[int] = ()

    #: The columns that determine a member row (``None``: all of them).
    rank_columns: Optional[Sequence[int]] = None

    _strides: Optional[np.ndarray] = None

    @property
    def rank_size(self) -> int:
        """Size of the rank space: member rows rank into ``range(rank_size)``."""
        size = 1
        for column in self.ranked_columns():
            size *= int(self.radices[column])
        return size

    def rank_many(self, rows: np.ndarray) -> np.ndarray:
        """Mixed-radix ranks of an ``(n, width)`` block of in-bounds rows.

        Only meaningful when ``rank_size`` fits in int64; callers check the
        bounds (``0 <= rows < radices``) first.
        """
        if self._strides is None:
            values, stride = [], 1
            for column in reversed(self.ranked_columns()):
                values.append(stride)
                stride *= int(self.radices[column])
            self._strides = np.asarray(values[::-1], dtype=np.int64)
        if self.rank_columns is not None:
            rows = rows[:, self.rank_columns]
        return rows @ self._strides

    def ranked_columns(self) -> Sequence[int]:
        """The columns the rank reads, most significant first."""
        return range(self.width) if self.rank_columns is None else self.rank_columns

    def encode_many(self, elements: Sequence[Element]) -> np.ndarray:
        """Encode elements into an ``(n, width)`` int64 row array."""
        raise NotImplementedError

    def decode_many(self, rows: np.ndarray) -> List[Element]:
        """Decode an ``(n, width)`` row array back into element objects."""
        raise NotImplementedError

    def compose_many(self, rows_a: np.ndarray, rows_b: np.ndarray) -> np.ndarray:
        """Row-wise products ``a_i * b_i`` of two row arrays."""
        raise NotImplementedError

    def inverse_many(self, rows: np.ndarray) -> np.ndarray:
        """Row-wise inverses of a row array."""
        raise NotImplementedError


class FiniteGroup(abc.ABC):
    """Interface for a finite group given by generators.

    Subclasses must implement the primitive operations; the base class
    provides generic powers, orders, enumeration and random sampling.  The
    ``name`` attribute is cosmetic and used in benchmark reports.
    """

    name: str = "G"

    # -- primitive operations -------------------------------------------------
    @abc.abstractmethod
    def identity(self) -> Element:
        """The identity element."""

    @abc.abstractmethod
    def multiply(self, a: Element, b: Element) -> Element:
        """The product ``a * b``."""

    @abc.abstractmethod
    def inverse(self, a: Element) -> Element:
        """The inverse ``a**-1``."""

    @abc.abstractmethod
    def generators(self) -> List[Element]:
        """A generating set for the group."""

    # -- encoding (black-box plumbing) ----------------------------------------
    def encode(self, a: Element) -> bytes:
        """A canonical byte-string encoding of ``a`` (unique by default)."""
        return repr(a).encode()

    def decode(self, code: bytes) -> Element:
        """Inverse of :meth:`encode`; optional, used only by diagnostics."""
        raise NotImplementedError

    def equal(self, a: Element, b: Element) -> bool:
        """Equality of group elements (identity test of the black box)."""
        return a == b

    def is_identity(self, a: Element) -> bool:
        return self.equal(a, self.identity())

    # -- optional structural data ----------------------------------------------
    def order(self) -> int:
        """Group order.  Default: enumerate (exponential; small groups only)."""
        return len(self.element_list())

    def exponent_bound(self) -> Optional[int]:
        """A known multiple of every element order, or ``None``.

        Concrete groups override this when a cheap bound exists (e.g. the
        group order for permutation groups, ``p * |N|`` for extensions).  The
        bound lets :meth:`element_order` avoid brute-force iteration, in the
        same way the paper's algorithms use a superset of the primes dividing
        ``|G|`` (hypothesis (a) of Theorem 4).
        """
        return None

    def dense_kernel(self) -> Optional["DenseKernel"]:
        """A :class:`DenseKernel` for this group, or ``None``.

        Groups with a natural fixed-width integer coordinate representation
        override this; the default keeps the scalar path.  The returned
        kernel must agree with the scalar ``multiply``/``inverse`` on every
        pair of elements.
        """
        return None

    # -- derived operations -----------------------------------------------------
    def power(self, a: Element, k: int) -> Element:
        """``a**k`` by binary exponentiation (``k`` may be negative)."""
        engine = getattr(self, "_cayley_engine", None)
        if engine is not None and engine.full_enumeration:
            return engine.element_of(engine.power(engine.intern(a), k))
        if k < 0:
            return self.power(self.inverse(a), -k)
        result = self.identity()
        base = a
        while k:
            if k & 1:
                result = self.multiply(result, base)
            base = self.multiply(base, base)
            k >>= 1
        return result

    def conjugate(self, g: Element, h: Element) -> Element:
        """``g * h * g**-1``."""
        return self.multiply(self.multiply(g, h), self.inverse(g))

    # -- batch operations -------------------------------------------------------
    # The defaults are scalar loops; installing a Cayley engine on the group
    # (``repro.groups.engine.get_engine``) transparently accelerates them.
    # Counted wrappers (``BlackBoxGroup``) override these to bump their
    # counters in bulk before delegating, so batch and scalar executions
    # report identical query totals.
    def multiply_many(self, elements_a: Sequence[Element], elements_b: Sequence[Element]) -> List[Element]:
        """Componentwise products ``a_i * b_i`` of two equal-length sequences."""
        engine = getattr(self, "_cayley_engine", None)
        if engine is not None:
            return engine.multiply_elements(elements_a, elements_b)
        return [self.multiply(a, b) for a, b in zip(elements_a, elements_b)]

    def inverse_many(self, elements: Sequence[Element]) -> List[Element]:
        """Componentwise inverses of a sequence of elements."""
        engine = getattr(self, "_cayley_engine", None)
        if engine is not None:
            return engine.inverse_elements(elements)
        return [self.inverse(a) for a in elements]

    def commutator(self, a: Element, b: Element) -> Element:
        """``a * b * a**-1 * b**-1``."""
        return self.multiply(self.multiply(a, b), self.multiply(self.inverse(a), self.inverse(b)))

    def element_order(self, a: Element, exponent: Optional[int] = None) -> int:
        """Order of ``a``.

        If a multiple of the order is available (argument or
        :meth:`exponent_bound`), the order is computed by dividing out primes
        — the classical post-processing of Shor order finding.  Otherwise the
        element is iterated until the identity is reached.
        """
        if self.is_identity(a):
            return 1
        engine = getattr(self, "_cayley_engine", None)
        if engine is not None and engine.full_enumeration:
            return engine.element_order(engine.intern(a))
        bound = exponent if exponent is not None else self.exponent_bound()
        if bound is not None:
            return element_order_from_exponent(
                lambda k: self.power(a, k), self.is_identity, bound
            )
        current = a
        order = 1
        while not self.is_identity(current):
            current = self.multiply(current, a)
            order += 1
            if order > 10**7:
                raise GroupError("element order exceeds enumeration limit")
        return order

    def is_abelian(self) -> bool:
        """Whether all generators commute pairwise."""
        gens = self.generators()
        for i, a in enumerate(gens):
            for b in gens[i + 1 :]:
                if not self.equal(self.multiply(a, b), self.multiply(b, a)):
                    return False
        return True

    # -- enumeration --------------------------------------------------------------
    def element_list(self) -> List[Element]:
        """All group elements by breadth-first closure over the generators.

        Cached after the first call.  Only use on groups small enough to
        enumerate; the HSP solvers themselves never call this on the ambient
        group (it would defeat the point), but tests and instance builders do.
        """
        cached = getattr(self, "_element_cache", None)
        if cached is not None:
            return cached
        gens = list(self.generators())
        gens = gens + [self.inverse(g) for g in gens]
        engine = getattr(self, "_cayley_engine", None)
        if engine is not None and engine.full_enumeration:
            # Same order, walked over one block of engine products.
            elements = engine.elements_of(engine.breadth_first_ids(engine.intern_many(gens)))
            self._element_cache = elements
            return elements
        seen: Dict[Element, None] = {self.identity(): None}
        frontier = [self.identity()]
        while frontier:
            nxt: List[Element] = []
            for x in frontier:
                for g in gens:
                    y = self.multiply(x, g)
                    if y not in seen:
                        seen[y] = None
                        nxt.append(y)
            frontier = nxt
        elements = list(seen)
        self._element_cache = elements
        return elements

    def __contains__(self, element: Element) -> bool:
        return element in set(self.element_list())

    # -- random sampling --------------------------------------------------------------
    def random_element(self, rng: np.random.Generator, mixing_steps: int = 50) -> Element:
        """A (nearly uniform) random element via product replacement.

        The sampler keeps a per-group cache of the product-replacement state
        so repeated draws are cheap.  For groups that expose
        ``uniform_random_element`` (e.g. Abelian tuple groups) that exact
        sampler is used instead.
        """
        exact = getattr(self, "uniform_random_element", None)
        if exact is not None:
            return exact(rng)
        sampler = getattr(self, "_pr_sampler", None)
        if sampler is None:
            sampler = product_replacement_sampler(self, rng, burn_in=max(mixing_steps, 50))
            self._pr_sampler = sampler
        return sampler(rng)

    def random_word(self, rng: np.random.Generator, length: int = 20) -> Element:
        """Product of ``length`` random generators/inverses (mixing helper)."""
        gens = self.generators()
        gens = gens + [self.inverse(g) for g in gens]
        x = self.identity()
        for _ in range(length):
            x = self.multiply(x, gens[int(rng.integers(0, len(gens)))])
        return x

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name}>"


def product_replacement_sampler(group: FiniteGroup, rng: np.random.Generator, burn_in: int = 50, slots: int = 10):
    """Product replacement ("rattle") random element generator.

    Returns a closure drawing elements whose distribution rapidly approaches
    uniform; this is the standard black-box-group sampling technique used by
    the Beals--Babai algorithms (and by Babai's Monte Carlo normal closure
    algorithm, reference [1] of the paper).
    """
    gens = list(group.generators())
    if not gens:
        return lambda _rng: group.identity()
    state: List[Element] = [gens[i % len(gens)] for i in range(max(slots, len(gens)))]
    accumulator = group.identity()

    def step(local_rng: np.random.Generator) -> None:
        nonlocal accumulator
        i = int(local_rng.integers(0, len(state)))
        j = int(local_rng.integers(0, len(state)))
        while j == i and len(state) > 1:
            j = int(local_rng.integers(0, len(state)))
        factor = state[j] if local_rng.integers(0, 2) else group.inverse(state[j])
        if local_rng.integers(0, 2):
            state[i] = group.multiply(state[i], factor)
        else:
            state[i] = group.multiply(factor, state[i])
        accumulator = group.multiply(accumulator, state[i])

    for _ in range(burn_in):
        step(rng)

    def draw(local_rng: np.random.Generator) -> Element:
        for _ in range(3):
            step(local_rng)
        return accumulator

    return draw
