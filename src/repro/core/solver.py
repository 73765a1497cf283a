"""The top-level HSP solver: strategy selection over the paper's algorithms.

``solve_hsp`` inspects an :class:`~repro.blackbox.instances.HSPInstance` —
its group and the structural *promises* attached to it — and dispatches to
the appropriate algorithm:

=====================  ==========================================================
Strategy               When it is chosen
=====================  ==========================================================
``abelian``            the ambient group is Abelian (Theorem 3)
``elementary_abelian_two``  the instance promises generators of an elementary
                       Abelian normal 2-subgroup (Theorem 13)
``small_commutator``   the instance promises (or the solver finds) a small
                       commutator subgroup (Theorem 11 / Corollary 12)
``hidden_normal``      the instance promises the hidden subgroup is normal
                       (Theorem 8)
``classical``          explicit opt-in exhaustive baseline
``classical_adaptive`` explicit opt-in adaptive coset-sieve baseline
=====================  ==========================================================

Promise keys recognised in ``instance.promises``:

* ``"normal_generators"`` — generators of the elementary Abelian normal
  2-subgroup ``N`` (Theorem 13); optional ``"cyclic_quotient"`` (bool) and
  ``"quotient_bound"`` (int).
* ``"commutator_elements"`` / ``"commutator_bound"`` — the elements of ``G'``
  or a bound on ``|G'|`` (Theorem 11).
* ``"hidden_is_normal"`` — the hidden subgroup is normal (Theorem 8);
  optional ``"quotient_bound"``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.blackbox.instances import HSPInstance
from repro.blackbox.oracle import BlackBoxGroup
from repro.core.elementary_abelian_two import solve_hsp_elementary_abelian_two
from repro.core.hidden_normal import find_hidden_normal_subgroup
from repro.core.small_commutator import solve_hsp_small_commutator
from repro.groups.base import FiniteGroup, GroupError
from repro.hsp.abelian import solve_hsp_in_abelian_group
from repro.hsp.baseline_classical import classical_adaptive_hsp, classical_exhaustive_hsp
from repro.obs import span as obs_span
from repro.quantum.sampling import FourierSampler

__all__ = ["HSPSolution", "solve_hsp"]


@dataclass
class HSPSolution:
    """The outcome of a top-level HSP solve.

    ``status`` is ``"ok"`` for a solve that produced a candidate (right or
    wrong — the caller verifies against the ground truth) and
    ``"no_convergence"`` for a noisy solve whose strategy failed gracefully:
    the dual-span accumulation never stabilised or the corrupted coset
    structure broke a structural invariant.  ``no_convergence`` solutions
    carry no generators; they are never silently presented as a subgroup.
    """

    generators: List
    strategy: str
    elapsed_seconds: float
    query_report: Dict[str, int] = field(default_factory=dict)
    details: Optional[object] = None
    status: str = "ok"

    def __iter__(self):
        return iter(self.generators)

    def to_json_dict(self, include_timing: bool = True) -> Dict[str, object]:
        """A JSON-safe, deterministic serialization of the solution.

        Generators are rendered through their canonical ``repr`` and sorted,
        so two runs that recover the same subgroup generators produce the
        same serialization regardless of discovery order; timing is the one
        machine-dependent field and can be excluded for byte-identity
        comparisons (the experiment harness stores it separately).
        """
        data: Dict[str, object] = {
            "strategy": self.strategy,
            "generators": sorted(repr(g) for g in self.generators),
            "query_report": {key: int(value) for key, value in sorted(self.query_report.items())},
        }
        if include_timing:
            data["elapsed_seconds"] = self.elapsed_seconds
        return data


def _base_group(instance: HSPInstance) -> FiniteGroup:
    group = instance.group
    return group.group if isinstance(group, BlackBoxGroup) else group


def _choose_strategy(instance: HSPInstance) -> str:
    promises = instance.promises
    if "normal_generators" in promises:
        return "elementary_abelian_two"
    base = _base_group(instance)
    if base.is_abelian():
        return "abelian"
    if "commutator_elements" in promises or "commutator_bound" in promises:
        return "small_commutator"
    if promises.get("hidden_is_normal"):
        return "hidden_normal"
    # Default attempt: Theorem 11 with a moderate bound on |G'| — this is the
    # broadest of the paper's unconditional results for unique encodings.
    return "small_commutator"


#: Every strategy :func:`solve_hsp` can dispatch to.
KNOWN_STRATEGIES = frozenset(
    {
        "abelian",
        "elementary_abelian_two",
        "small_commutator",
        "hidden_normal",
        "classical",
        "classical_adaptive",
    }
)

#: Strategies that consume the ``confidence`` stopping override — directly
#: (``abelian``) or through their Abelian-presentation subroutine
#: (``hidden_normal``).  Passing ``confidence`` to any other strategy is a
#: caller error and raises ``ValueError`` instead of being silently ignored.
CONFIDENCE_STRATEGIES = frozenset({"abelian", "hidden_normal"})


def solve_hsp(
    instance: HSPInstance,
    strategy: str = "auto",
    sampler: Optional[FourierSampler] = None,
    rng: Optional[np.random.Generator] = None,
    confidence: Optional[int] = None,
    noise=None,
) -> HSPSolution:
    """Solve a hidden subgroup instance with the appropriate paper algorithm.

    ``strategy`` may be ``"auto"`` (promise-driven dispatch), or one of
    ``"abelian"``, ``"elementary_abelian_two"``, ``"small_commutator"``,
    ``"hidden_normal"``, ``"classical"``, ``"classical_adaptive"``.
    There is one route per kind of group: the supporting strategies install
    a Cayley engine whenever :func:`repro.groups.engine.maybe_engine` finds
    a usable dense encoding, and keep the per-element path otherwise (huge
    or unknown orders, unhashable elements).  The route never shows in the
    result: the engine-less reference route of ``tests/reference`` returns
    the same generators and query report at a fixed seed.

    ``confidence`` overrides the Fourier-sampling stopping rule of the
    Abelian HSP core (the number of consecutive non-enlarging samples
    required before stopping; failure probability ``<= 2^-confidence``).
    Only the ``abelian`` and ``hidden_normal`` strategies consume it (the
    latter through its Abelian-presentation subroutine); combining it with
    any other strategy raises ``ValueError`` rather than silently ignoring
    the request.  ``None`` keeps the defaults — small values deliberately
    trade success probability for rounds, which is what the
    success-vs-rounds statistics sweeps scan.

    ``noise`` declares that a corruption channel
    (:class:`repro.blackbox.noise.NoiseSpec`) is installed on the oracle or
    sampler.  A noisy solve is *termination-safe*: a strategy that raises on
    inconsistent oracle rows (spurious cosets, unsatisfiable presentations,
    a dual span that never stabilises) fails gracefully to
    ``status="no_convergence"`` with no generators, never crashing the run
    and never silently returning a wrong subgroup — callers verify any
    ``"ok"`` candidate against the uncorrupted ground truth
    (:meth:`~repro.blackbox.instances.HSPInstance.verify` uses concrete
    group arithmetic, not the oracle).  Without ``noise`` exceptions
    propagate unchanged.
    """
    sampler = sampler if sampler is not None else FourierSampler(rng=rng)
    with obs_span("solver.choose_strategy", requested=strategy) as choice_span:
        chosen = strategy if strategy != "auto" else _choose_strategy(instance)
        choice_span.set(strategy=chosen)
    if chosen not in KNOWN_STRATEGIES:
        raise GroupError(f"unknown strategy {chosen!r}")
    if confidence is not None and chosen not in CONFIDENCE_STRATEGIES:
        raise ValueError(
            f"confidence={confidence!r} is not supported by the {chosen!r} strategy; "
            f"only {sorted(CONFIDENCE_STRATEGIES)} consume the Fourier-sampling "
            "stopping confidence"
        )
    start = time.perf_counter()
    queries_before = instance.query_report()

    confidence_kwargs = {} if confidence is None else {"confidence": int(confidence)}
    status = "ok"

    with obs_span(f"solver.strategy.{chosen}", noisy=noise is not None) as strategy_span:
        try:
            generators, result = _dispatch(chosen, instance, sampler, confidence_kwargs)
            if noise is not None and not getattr(result, "converged", True):
                generators, result, status = [], result, "no_convergence"
        except Exception:
            if noise is None:
                raise
            # Corrupted oracle rows legitimately break structural invariants
            # (spurious cosets past the quotient bound, orders that do not
            # divide the exponent, unsatisfiable relators).  Under a declared
            # noise channel that is the expected failure mode: report it as
            # no_convergence instead of crashing the run.
            generators, result, status = [], None, "no_convergence"
            strategy_span.set(no_convergence=True)
        for key, value in instance.query_report().items():
            delta = int(value) - int(queries_before.get(key, 0))
            if delta:
                strategy_span.add(key, delta)

    elapsed = time.perf_counter() - start
    return HSPSolution(
        generators=generators,
        strategy=chosen,
        elapsed_seconds=elapsed,
        query_report=instance.query_report(),
        details=result,
        status=status,
    )


def _dispatch(chosen, instance, sampler, confidence_kwargs):
    """Run the chosen strategy; returns ``(generators, core_result)``."""
    group = instance.group
    base = _base_group(instance)
    oracle = instance.oracle
    promises = instance.promises

    if chosen == "abelian":
        result = solve_hsp_in_abelian_group(base, oracle, sampler=sampler, **confidence_kwargs)
        generators = result.generators
    elif chosen == "elementary_abelian_two":
        if "normal_generators" not in promises:
            raise GroupError("the elementary_abelian_two strategy requires a 'normal_generators' promise")
        result = solve_hsp_elementary_abelian_two(
            group,
            oracle,
            promises["normal_generators"],
            sampler=sampler,
            cyclic_quotient=promises.get("cyclic_quotient"),
            quotient_bound=promises.get("quotient_bound", 1 << 12),
        )
        generators = result.generators
    elif chosen == "small_commutator":
        result = solve_hsp_small_commutator(
            group,
            oracle,
            sampler=sampler,
            commutator_elements=promises.get("commutator_elements"),
            commutator_bound=promises.get("commutator_bound", 1 << 14),
        )
        generators = result.generators
    elif chosen == "hidden_normal":
        result = find_hidden_normal_subgroup(
            group,
            oracle,
            sampler=sampler,
            quotient_bound=promises.get("quotient_bound"),
            **confidence_kwargs,
        )
        generators = result.generators
    elif chosen == "classical":
        result = classical_exhaustive_hsp(instance)
        generators = result.generators
    elif chosen == "classical_adaptive":
        result = classical_adaptive_hsp(instance)
        generators = result.generators
    else:
        raise GroupError(f"unknown strategy {chosen!r}")

    return generators, result
