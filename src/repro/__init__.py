"""repro — reproduction of Ivanyos, Magniez & Santha (2001).

*Efficient quantum algorithms for some instances of the non-Abelian hidden
subgroup problem* (SPAA 2001, arXiv:quant-ph/0102014).

Public API layout
-----------------
``repro.groups``
    Finite group substrate: permutation, Abelian, matrix, wreath,
    extraspecial and product groups, plus the classical structural
    algorithms (normal closures, derived series, transversals).
``repro.blackbox``
    The Babai--Szemerédi black-box group model: counted oracles, hiding
    functions and HSP instances.
``repro.quantum``
    Quantum simulation substrate: state vectors, QFTs, Fourier sampling,
    Shor order finding and the Watrous solvable-group primitives.
``repro.hsp``
    The Abelian HSP engine (Theorem 3), Cheung--Mosca decomposition
    (Theorem 1) and the baseline solvers (classical exhaustive,
    Ettinger--Høyer, Rötteler--Beth).
``repro.core``
    The paper's algorithms: constructive membership (Theorem 6), factor
    groups (Theorems 7 and 10), hidden normal subgroups (Theorem 8), small
    commutator subgroups (Theorem 11, Corollary 12), elementary Abelian
    normal 2-subgroups (Theorem 13), and the ``solve_hsp`` dispatcher.

Performance engine
------------------
The paper counts oracle queries; the simulation's wall-clock cost lives in
per-element Python group arithmetic.  ``repro.groups.engine`` provides a
vectorized Cayley engine (:class:`~repro.groups.engine.CayleyBackend`) that
interns elements to dense integer ids, computes products a whole id array
at a time through the group's dense kernel (resolving result rows to ids
by a rank and one gather; a sparse per-pair fallback serves groups without
a kernel), and exposes
batch operations (``mul_many``, ``inv_many``, ``conj_many``,
``orbit_closure``) plus memoized structure queries (commutator subgroups,
element orders, subgroup closures).  The hot paths — Fourier sampling,
coset enumeration, the Theorem 8/11 solvers — route through the engine and
the bulk oracle APIs (``BlackBoxGroup.multiply_many``,
``HidingOracle.evaluate_many``) when a usable dense encoding exists, and
fall back to the original per-element code otherwise.  Query accounting is
bulk-equivalent by construction: batch operations report exactly the totals
of the scalar loops they replace (``tests/test_groups_engine.py``; the
engine-less reference route lives in ``tests/reference``), and ``perfbench``
measures the solver stack end to end and per layer.

Quick start
-----------
>>> import numpy as np
>>> from repro.blackbox import HSPInstance
>>> from repro.core import solve_hsp
>>> from repro.groups import extraspecial_group
>>> group = extraspecial_group(3)
>>> hidden = [((1,), (0,), 0)]
>>> instance = HSPInstance.from_subgroup(group, hidden)
>>> solution = solve_hsp(instance, rng=np.random.default_rng(0))
>>> instance.verify(solution.generators)
True
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
