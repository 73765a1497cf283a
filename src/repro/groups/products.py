"""Direct, semidirect and wreath products.

The paper's "new" solvable instances are all extensions of an Abelian normal
subgroup by a small or cyclic group:

* Theorem 13's flagship family is the wreath product ``Z_2^k wr Z_2 =
  (Z_2^k x Z_2^k) : Z_2`` of Rötteler--Beth, and more generally any group
  with an elementary Abelian normal 2-subgroup and cyclic (or small) factor;
* the dihedral groups ``D_n = Z_n : Z_2`` and the metacyclic groups
  ``Z_p : Z_q`` are the standard solvable test beds for Theorem 8.

These constructions are provided here as generic :class:`DirectProduct` and
:class:`SemidirectProduct` groups over arbitrary component groups, plus named
factories for the families used in the experiments.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.groups.abelian import AbelianTupleGroup, cyclic_group, elementary_abelian_group
from repro.groups.base import DenseKernel, FiniteGroup, GroupError
from repro.linalg.modular import lcm, multiplicative_order

__all__ = [
    "DirectProduct",
    "SemidirectProduct",
    "wreath_product_z2",
    "dihedral_semidirect",
    "metacyclic_group",
    "generalized_dihedral",
]


class _ConcatKernel(DenseKernel):
    """Shared row layout for product kernels: factor rows concatenated."""

    def __init__(self, kernels: Sequence[DenseKernel]):
        self.kernels = list(kernels)
        self.offsets: List[Tuple[int, int]] = []
        radices: List[int] = []
        rank_columns: List[int] = []
        start = 0
        for kernel in self.kernels:
            self.offsets.append((start, start + kernel.width))
            radices.extend(kernel.radices)
            rank_columns.extend(start + column for column in kernel.ranked_columns())
            start += kernel.width
        self.width = start
        self.radices = tuple(radices)
        if rank_columns != list(range(start)):
            self.rank_columns = rank_columns

    def _slices(self, rows: np.ndarray) -> List[np.ndarray]:
        return [rows[:, lo:hi] for lo, hi in self.offsets]


class _DirectProductKernel(_ConcatKernel):
    def __init__(self, factors: Sequence[FiniteGroup], kernels: Sequence[DenseKernel]):
        super().__init__(kernels)
        self.factors = list(factors)

    def encode_many(self, elements: Sequence) -> np.ndarray:
        rows = np.empty((len(elements), self.width), dtype=np.int64)
        for kernel, (lo, hi), parts in zip(
            self.kernels, self.offsets, zip(*elements) if elements else [() for _ in self.kernels]
        ):
            rows[:, lo:hi] = kernel.encode_many(list(parts))
        return rows

    def decode_many(self, rows: np.ndarray) -> List:
        columns = [kernel.decode_many(part) for kernel, part in zip(self.kernels, self._slices(rows))]
        return [tuple(parts) for parts in zip(*columns)] if len(rows) else []

    def compose_many(self, rows_a: np.ndarray, rows_b: np.ndarray) -> np.ndarray:
        out = np.empty_like(rows_a)
        for kernel, (lo, hi) in zip(self.kernels, self.offsets):
            out[:, lo:hi] = kernel.compose_many(rows_a[:, lo:hi], rows_b[:, lo:hi])
        return out

    def inverse_many(self, rows: np.ndarray) -> np.ndarray:
        out = np.empty_like(rows)
        for kernel, (lo, hi) in zip(self.kernels, self.offsets):
            out[:, lo:hi] = kernel.inverse_many(rows[:, lo:hi])
        return out


class _SemidirectKernel(_ConcatKernel):
    """Rows are ``[n_row | k_row]``; the action runs as one array expression.

    ``array_action(k_rows, n_rows)`` must be the vectorized twin of the
    scalar ``action(k, n)`` — row ``i`` of the result is
    ``encode(action(decode(k_rows[i]), decode(n_rows[i])))``.
    """

    def __init__(
        self,
        normal_kernel: DenseKernel,
        quotient_kernel: DenseKernel,
        array_action: Callable[[np.ndarray, np.ndarray], np.ndarray],
    ):
        super().__init__([normal_kernel, quotient_kernel])
        self.normal_kernel = normal_kernel
        self.quotient_kernel = quotient_kernel
        self.array_action = array_action

    def encode_many(self, elements: Sequence) -> np.ndarray:
        rows = np.empty((len(elements), self.width), dtype=np.int64)
        (n_lo, n_hi), (k_lo, k_hi) = self.offsets
        rows[:, n_lo:n_hi] = self.normal_kernel.encode_many([n for n, _ in elements])
        rows[:, k_lo:k_hi] = self.quotient_kernel.encode_many([k for _, k in elements])
        return rows

    def decode_many(self, rows: np.ndarray) -> List:
        n_rows, k_rows = self._slices(rows)
        return list(
            zip(self.normal_kernel.decode_many(n_rows), self.quotient_kernel.decode_many(k_rows))
        )

    def compose_many(self, rows_a: np.ndarray, rows_b: np.ndarray) -> np.ndarray:
        (n_lo, n_hi), (k_lo, k_hi) = self.offsets
        n1, k1 = rows_a[:, n_lo:n_hi], rows_a[:, k_lo:k_hi]
        n2, k2 = rows_b[:, n_lo:n_hi], rows_b[:, k_lo:k_hi]
        out = np.empty_like(rows_a)
        out[:, n_lo:n_hi] = self.normal_kernel.compose_many(n1, self.array_action(k1, n2))
        out[:, k_lo:k_hi] = self.quotient_kernel.compose_many(k1, k2)
        return out

    def inverse_many(self, rows: np.ndarray) -> np.ndarray:
        (n_lo, n_hi), (k_lo, k_hi) = self.offsets
        k_inv = self.quotient_kernel.inverse_many(rows[:, k_lo:k_hi])
        out = np.empty_like(rows)
        out[:, n_lo:n_hi] = self.array_action(
            k_inv, self.normal_kernel.inverse_many(rows[:, n_lo:n_hi])
        )
        out[:, k_lo:k_hi] = k_inv
        return out


class DirectProduct(FiniteGroup):
    """The direct product of finitely many groups; elements are tuples."""

    def __init__(self, factors: Sequence[FiniteGroup], name: Optional[str] = None):
        if not factors:
            raise GroupError("DirectProduct requires at least one factor")
        self.factors = list(factors)
        self.name = name or " x ".join(f.name for f in self.factors)

    def identity(self):
        return tuple(f.identity() for f in self.factors)

    def multiply(self, a, b):
        return tuple(f.multiply(x, y) for f, x, y in zip(self.factors, a, b))

    def inverse(self, a):
        return tuple(f.inverse(x) for f, x in zip(self.factors, a))

    def generators(self) -> List:
        gens = []
        identities = [f.identity() for f in self.factors]
        for index, factor in enumerate(self.factors):
            for g in factor.generators():
                element = list(identities)
                element[index] = g
                gens.append(tuple(element))
        return gens

    def encode(self, a) -> bytes:
        return b"|".join(f.encode(x) for f, x in zip(self.factors, a))

    def order(self) -> int:
        total = 1
        for f in self.factors:
            total *= f.order()
        return total

    def exponent_bound(self) -> Optional[int]:
        bound = 1
        for f in self.factors:
            b = f.exponent_bound()
            if b is None:
                return None
            bound = lcm(bound, b)
        return bound

    def uniform_random_element(self, rng: np.random.Generator):
        return tuple(f.random_element(rng) for f in self.factors)

    def dense_kernel(self) -> Optional[_DirectProductKernel]:
        kernels = [f.dense_kernel() for f in self.factors]
        if any(kernel is None for kernel in kernels):
            return None
        return _DirectProductKernel(self.factors, kernels)


class SemidirectProduct(FiniteGroup):
    """The (outer) semidirect product ``N : K``.

    ``action(k, n)`` must implement the automorphism of ``N`` induced by the
    element ``k`` of ``K`` (i.e. ``phi_k(n)``), satisfying
    ``phi_{k1 k2} = phi_{k1} . phi_{k2}``.  Elements are pairs ``(n, k)`` with
    multiplication ``(n1, k1)(n2, k2) = (n1 * phi_{k1}(n2), k1 k2)``.
    """

    def __init__(
        self,
        normal: FiniteGroup,
        quotient: FiniteGroup,
        action: Callable[[object, object], object],
        name: Optional[str] = None,
        array_action: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None,
    ):
        self.normal = normal
        self.quotient = quotient
        self.action = action
        self.array_action = array_action
        self.name = name or f"({normal.name}) : ({quotient.name})"

    def identity(self):
        return (self.normal.identity(), self.quotient.identity())

    def multiply(self, a, b):
        n1, k1 = a
        n2, k2 = b
        return (self.normal.multiply(n1, self.action(k1, n2)), self.quotient.multiply(k1, k2))

    def inverse(self, a):
        n, k = a
        k_inv = self.quotient.inverse(k)
        return (self.action(k_inv, self.normal.inverse(n)), k_inv)

    def generators(self) -> List:
        gens = []
        for n in self.normal.generators():
            gens.append((n, self.quotient.identity()))
        for k in self.quotient.generators():
            gens.append((self.normal.identity(), k))
        return gens

    def encode(self, a) -> bytes:
        n, k = a
        return self.normal.encode(n) + b"#" + self.quotient.encode(k)

    def order(self) -> int:
        return self.normal.order() * self.quotient.order()

    def exponent_bound(self) -> Optional[int]:
        bn = self.normal.exponent_bound()
        bk = self.quotient.exponent_bound()
        if bn is None or bk is None:
            return self.order()
        # Element orders divide |N| * exponent(K) in a split extension; the
        # coarse bound lcm(bn, bk) * bn is always a safe multiple.
        return lcm(bn, bk) * bn

    def uniform_random_element(self, rng: np.random.Generator):
        return (self.normal.random_element(rng), self.quotient.random_element(rng))

    # -- convenience -----------------------------------------------------------
    def embed_normal(self, n) -> Tuple:
        """The element ``(n, 1)`` of the product."""
        return (n, self.quotient.identity())

    def embed_quotient(self, k) -> Tuple:
        """The element ``(1, k)`` of the product."""
        return (self.normal.identity(), k)

    def normal_part_generators(self) -> List:
        return [self.embed_normal(n) for n in self.normal.generators()]

    def dense_kernel(self) -> Optional[_SemidirectKernel]:
        if self.array_action is None:
            return None
        normal_kernel = self.normal.dense_kernel()
        quotient_kernel = self.quotient.dense_kernel()
        if normal_kernel is None or quotient_kernel is None:
            return None
        return _SemidirectKernel(normal_kernel, quotient_kernel, self.array_action)


# ---------------------------------------------------------------------------
# Named families
# ---------------------------------------------------------------------------


def wreath_product_z2(k: int) -> SemidirectProduct:
    """The wreath product ``Z_2^k wr Z_2`` of Rötteler--Beth.

    The base group is ``N = Z_2^k x Z_2^k`` (stored as a single tuple group of
    rank ``2k``) and the top ``Z_2`` swaps the two halves.  These are the
    groups for which Rötteler and Beth first exhibited an efficient quantum
    HSP algorithm; Theorem 13 subsumes them because ``N`` is an elementary
    Abelian normal 2-subgroup with cyclic factor group.
    """
    if k < 1:
        raise GroupError("wreath_product_z2 requires k >= 1")
    base = AbelianTupleGroup([2] * (2 * k), name=f"Z_2^{2 * k}")
    top = cyclic_group(2)

    def action(swap, vector):
        if swap[0] % 2 == 0:
            return vector
        return tuple(vector[k:]) + tuple(vector[:k])

    def array_action(k_rows, n_rows):
        swapped = np.concatenate([n_rows[:, k:], n_rows[:, :k]], axis=1)
        return np.where(k_rows[:, :1] % 2 == 1, swapped, n_rows)

    return SemidirectProduct(base, top, action, name=f"Z_2^{k} wr Z_2", array_action=array_action)


def dihedral_semidirect(n: int) -> SemidirectProduct:
    """The dihedral group ``D_n = Z_n : Z_2`` (inversion action)."""
    if n < 3:
        raise GroupError("dihedral_semidirect requires n >= 3")
    rotation = cyclic_group(n)
    flip = cyclic_group(2)

    def action(k, x):
        return x if k[0] % 2 == 0 else rotation.inverse(x)

    def array_action(k_rows, n_rows):
        return np.where(k_rows[:, :1] % 2 == 1, (-n_rows) % n, n_rows)

    return SemidirectProduct(
        rotation, flip, action, name=f"D_{n}(semidirect)", array_action=array_action
    )


def metacyclic_group(p: int, q: int, multiplier: Optional[int] = None) -> SemidirectProduct:
    """The non-Abelian metacyclic group ``Z_p : Z_q`` (``q`` dividing ``p - 1``).

    The generator of ``Z_q`` acts on ``Z_p`` as multiplication by an element
    ``multiplier`` of multiplicative order ``q`` modulo ``p``.  These solvable
    groups are classic Theorem 8 test instances (their proper normal
    subgroups are the subgroups of ``Z_p`` plus the whole group).
    """
    if (p - 1) % q != 0:
        raise GroupError("metacyclic_group requires q | p - 1")
    if multiplier is None:
        from repro.linalg.modular import primitive_root

        root = primitive_root(p)
        multiplier = pow(root, (p - 1) // q, p)
    if multiplicative_order(multiplier, p) != q:
        raise GroupError("multiplier must have multiplicative order q modulo p")
    base = cyclic_group(p)
    top = cyclic_group(q)

    def action(k, x):
        factor = pow(multiplier, k[0], p)
        return (x[0] * factor % p,)

    pow_table = np.asarray([pow(multiplier, j, p) for j in range(q)], dtype=np.int64)

    def array_action(k_rows, n_rows):
        # p < 2^31 is enforced by the Abelian kernel gate, so the products
        # below stay inside int64.
        return (n_rows * pow_table[k_rows[:, 0] % q][:, None]) % p

    return SemidirectProduct(base, top, action, name=f"Z_{p} : Z_{q}", array_action=array_action)


def generalized_dihedral(moduli: Sequence[int]) -> SemidirectProduct:
    """The generalised dihedral group ``A : Z_2`` with inversion action on ``A``."""
    base = AbelianTupleGroup(moduli)
    top = cyclic_group(2)

    moduli_row = np.asarray(base.moduli, dtype=np.int64)

    def action(k, x):
        return x if k[0] % 2 == 0 else base.inverse(x)

    def array_action(k_rows, n_rows):
        return np.where(k_rows[:, :1] % 2 == 1, (-n_rows) % moduli_row, n_rows)

    return SemidirectProduct(
        base, top, action, name=f"Dih({base.name})", array_action=array_action
    )
