"""Test-only reference routes: the scalar semantics the solve route must match.

``src/`` has one solve route per kind of group.  The simulator's choice of
arithmetic must never show in a result — the paper charges an algorithm
only for its oracle queries — so the simpler routes it replaced are kept
here, as differential oracles for the parity tests:

* :func:`scalar_route` makes every ``maybe_engine`` binding of the
  ``repro.*`` modules return ``None``.  Instance construction and the
  solvers then take the engine-less per-element paths that ``src/`` keeps
  for groups past ``DEFAULT_INTERN_LIMIT`` or with unhashable elements.
* :class:`PerRoundSampler` simulates every Fourier-sampling round from
  scratch: one domain scan (statevector) or one dual decomposition
  (analytic) per round, with no cache across rounds.
* :class:`KernelLessHeisenberg` is ``H_p(1)`` without a dense kernel, so
  its Cayley engine runs in sparse mode over the scalar arithmetic.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from typing import Dict, List, Tuple

import numpy as np

from repro.groups import engine as _engine
from repro.groups.extraspecial import HeisenbergGroup
from repro.linalg.zmodule import annihilator, cyclic_decomposition
from repro.quantum.qft import qft_probabilities_of_coset
from repro.quantum.sampling import AbelianHSPOracle, FourierSampler, Vector

__all__ = ["KernelLessHeisenberg", "PerRoundSampler", "maybe_engine_bindings", "scalar_route"]

#: The real guarded engine factory, captured before any patching.
MAYBE_ENGINE = _engine.maybe_engine


def _no_engine(group, *args, **kwargs):
    """``maybe_engine`` on the scalar route: no group gets an engine."""
    return None


def maybe_engine_bindings(target=MAYBE_ENGINE) -> List[Tuple[object, str]]:
    """``(module, attribute)`` of every loaded ``repro.*`` binding of ``target``."""
    bindings = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attribute, value in list(vars(module).items()):
            if value is target:
                bindings.append((module, attribute))
    return bindings


def _rebind(old, new) -> None:
    for module, attribute in maybe_engine_bindings(old):
        setattr(module, attribute, new)


@contextmanager
def scalar_route():
    """Run the body with no Cayley engine built or returned anywhere.

    Rebinds by identity, so aliased imports are covered, and the engine
    module's own attribute too, so function-local imports made inside the
    body bind the stub as well (and are restored on exit).  Engines
    *already installed* on a group keep accelerating its batch methods:
    build fresh groups inside the context.  An explicit ``get_engine``
    call stays the caller's decision.  Not reentrant.
    """
    _rebind(MAYBE_ENGINE, _no_engine)
    try:
        yield
    finally:
        _rebind(_no_engine, MAYBE_ENGINE)


class KernelLessHeisenberg(HeisenbergGroup):
    """``H_p(1)`` with no dense kernel: its engine runs in sparse mode."""

    def __init__(self, p: int):
        super().__init__(p, 1)

    def dense_kernel(self):
        return None


class PerRoundSampler(FourierSampler):
    """:class:`FourierSampler` with each round simulated on its own.

    Statevector rounds evaluate the oracle over the whole domain, pick a
    coset uniformly and sample its Fourier distribution; analytic rounds
    recompute ``H^perp`` and its cyclic decomposition and draw one
    coefficient per factor.  Query accounting and the sampling
    distribution equal :class:`FourierSampler`'s; the generator is consumed
    differently, so compare recovered subgroups and reports, not samples.
    """

    def __init__(self, backend: str = "auto", rng=None, statevector_limit: int = 1 << 14):
        super().__init__(backend=backend, rng=rng, statevector_limit=statevector_limit)

    def _sample_statevector_batch(self, oracle, count, shards=None, pool=None):
        _refuse_shards(shards)
        return [self._statevector_round(oracle) for _ in range(count)]

    def _sample_analytic_batch(self, oracle, count, shards=None, pool=None):
        _refuse_shards(shards)
        return [self._analytic_round(oracle) for _ in range(count)]

    def _statevector_round(self, oracle: AbelianHSPOracle) -> Vector:
        module = oracle.module
        moduli = module.moduli
        # Evaluate the oracle over the whole domain (the superposition query).
        labels: Dict[object, List[Vector]] = {}
        for x in module.elements():
            labels.setdefault(oracle.evaluate(x), []).append(x)
        # Measuring the value register selects a coset uniformly (all cosets
        # have |H| elements).
        keys = sorted(labels.keys(), key=repr)
        chosen = keys[int(self.rng.integers(0, len(keys)))]
        indicator = np.zeros(moduli, dtype=np.float64)
        for x in labels[chosen]:
            indicator[x] = 1.0
        flat = qft_probabilities_of_coset(indicator).reshape(-1)
        outcome = int(self.rng.choice(len(flat), p=flat))
        return tuple(int(v) for v in np.unravel_index(outcome, tuple(moduli)))

    def _analytic_round(self, oracle: AbelianHSPOracle) -> Vector:
        module = oracle.module
        dual_generators = annihilator(oracle.kernel_generators(), module.moduli)
        if not dual_generators:
            return module.identity()
        sample = module.identity()
        for generator, order in cyclic_decomposition(dual_generators, module.moduli):
            coefficient = int(self.rng.integers(0, order))
            sample = module.add(sample, module.scalar(coefficient, generator))
        return sample


def _refuse_shards(shards) -> None:
    if shards is not None:
        raise ValueError("the per-round reference sampler draws every round itself; it does not shard")
