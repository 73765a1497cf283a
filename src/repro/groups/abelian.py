"""Finite Abelian groups as tuple groups ``Z_{n1} x ... x Z_{nk}``.

These are the ambient groups of the Abelian HSP engine (Theorem 3), the
building blocks of the semidirect products used in Theorems 11 and 13, and
the target groups of the Cheung--Mosca decomposition (Theorem 1).  Elements
are integer tuples; all structural computations are delegated to
:class:`repro.linalg.zmodule.ZModule`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.groups.base import DenseKernel, FiniteGroup, GroupError
from repro.linalg.zmodule import ZModule, member_coefficients, subgroup_order

__all__ = ["AbelianTupleGroup", "cyclic_group", "elementary_abelian_group"]

Vector = Tuple[int, ...]


class _AbelianKernel(DenseKernel):
    """Rows are coordinate vectors; products add componentwise mod the moduli."""

    def __init__(self, moduli: Tuple[int, ...]):
        self.width = len(moduli)
        self.radices = tuple(moduli)
        self._moduli = np.asarray(moduli, dtype=np.int64)

    def encode_many(self, elements: Sequence[Vector]) -> np.ndarray:
        if not elements:
            return np.empty((0, self.width), dtype=np.int64)
        return np.asarray(list(elements), dtype=np.int64)

    def decode_many(self, rows: np.ndarray) -> List[Vector]:
        return [tuple(row) for row in np.asarray(rows).tolist()]

    def compose_many(self, rows_a: np.ndarray, rows_b: np.ndarray) -> np.ndarray:
        return (rows_a + rows_b) % self._moduli

    def inverse_many(self, rows: np.ndarray) -> np.ndarray:
        return (-rows) % self._moduli


class AbelianTupleGroup(FiniteGroup):
    """The Abelian group ``Z_{n1} x ... x Z_{nk}`` with componentwise addition."""

    def __init__(self, moduli: Sequence[int], name: Optional[str] = None):
        moduli = [int(m) for m in moduli]
        if not moduli:
            raise GroupError("AbelianTupleGroup requires at least one cyclic factor")
        self.module = ZModule(moduli)
        self.moduli: Tuple[int, ...] = self.module.moduli
        self.name = name or "Z" + "x".join(f"{m}" for m in moduli)

    # -- FiniteGroup interface -------------------------------------------------
    def identity(self) -> Vector:
        return self.module.identity()

    def multiply(self, a: Vector, b: Vector) -> Vector:
        return self.module.add(a, b)

    def inverse(self, a: Vector) -> Vector:
        return self.module.neg(a)

    def generators(self) -> List[Vector]:
        gens = []
        for j, m in enumerate(self.moduli):
            if m > 1:
                gens.append(tuple(1 if i == j else 0 for i in range(len(self.moduli))))
        return gens or [self.identity()]

    def encode(self, a: Vector) -> bytes:
        return ",".join(str(int(x)) for x in a).encode()

    def decode(self, code: bytes) -> Vector:
        return tuple(int(x) for x in code.decode().split(","))

    # -- structure ---------------------------------------------------------------
    def order(self) -> int:
        return self.module.order

    def exponent_bound(self) -> int:
        return self.module.exponent

    def element_order(self, a: Vector, exponent: Optional[int] = None) -> int:
        return self.module.element_order(a)

    def is_abelian(self) -> bool:
        return True

    def power(self, a: Vector, k: int) -> Vector:
        return self.module.scalar(k, a)

    def uniform_random_element(self, rng: np.random.Generator) -> Vector:
        return self.module.random_element(rng)

    def dense_kernel(self) -> Optional[_AbelianKernel]:
        # Coordinate sums must stay inside int64: gate on the moduli.
        if any(m >= (1 << 31) for m in self.moduli):
            return None
        return _AbelianKernel(self.moduli)

    # -- subgroup helpers ------------------------------------------------------------
    def subgroup_order(self, generators: Sequence[Vector]) -> int:
        return subgroup_order(generators, self.moduli)

    def subgroup_contains(self, generators: Sequence[Vector], element: Vector) -> bool:
        return member_coefficients(generators, element, self.moduli) is not None

    def random_subgroup(self, rng: np.random.Generator, max_generators: int = 2) -> List[Vector]:
        """Generators of a random subgroup (for instance generation in tests)."""
        count = int(rng.integers(1, max_generators + 1))
        return [self.module.random_element(rng) for _ in range(count)]

    def __eq__(self, other) -> bool:
        return isinstance(other, AbelianTupleGroup) and self.moduli == other.moduli

    def __hash__(self) -> int:
        return hash(("AbelianTupleGroup", self.moduli))


def cyclic_group(n: int) -> AbelianTupleGroup:
    """The cyclic group ``Z_n`` as a one-coordinate tuple group."""
    return AbelianTupleGroup([n], name=f"Z_{n}")


def elementary_abelian_group(p: int, k: int) -> AbelianTupleGroup:
    """The elementary Abelian group ``Z_p^k``."""
    return AbelianTupleGroup([p] * k, name=f"Z_{p}^{k}")
