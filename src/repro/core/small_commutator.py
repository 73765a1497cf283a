"""The HSP in groups with small commutator subgroup (Theorem 11, Corollary 12).

Theorem 11: for a black-box group ``G`` with unique encoding, the hidden
subgroup problem can be solved in quantum time polynomial in
``input size + |G'|`` where ``G'`` is the commutator subgroup.  Corollary 12
specialises this to extraspecial ``p``-groups (``|G'| = p``).

The algorithm (proof of Theorem 11):

1. enumerate ``G'`` (it consists of products of conjugates of generator
   commutators; cost polynomial in ``input size + |G'|``) and read off
   ``H ∩ G' = {c in G' : f(c) = f(1)}``;
2. the bundled function ``F(x) = {f(x c) : c in G'}`` hides ``H G'``, which is
   a *normal* subgroup because ``G/G'`` is Abelian — find generators for it
   with the hidden-normal-subgroup algorithm (Theorem 8), which here runs
   entirely in the Abelian factor group ``G/HG'``;
3. every generator ``x`` of ``HG'`` has ``x G' ∩ H`` non-empty — scan the
   ``|G'|`` elements of the coset and keep one that ``f`` maps to ``f(1)``;
4. the selected elements together with ``H ∩ G'`` generate a subgroup ``H_1``
   with ``H_1 ∩ G' = H ∩ G'`` and ``H_1 G' = H G'``, hence ``H_1 = H`` by the
   isomorphism theorem.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.blackbox.oracle import BlackBoxGroup, HidingOracle, QueryCounter
from repro.core.hidden_normal import find_hidden_normal_subgroup
from repro.groups.base import FiniteGroup, GroupError
from repro.groups.engine import maybe_engine
from repro.groups.subgroup import commutator_subgroup_generators, generate_subgroup_elements
from repro.obs import span as obs_span
from repro.quantum.sampling import FourierSampler

__all__ = ["SmallCommutatorResult", "solve_hsp_small_commutator"]


@dataclass
class SmallCommutatorResult:
    """Outcome of the Theorem 11 solver."""

    generators: List
    commutator_order: int
    intersection_generators: List = field(default_factory=list)
    coset_generators: List = field(default_factory=list)
    query_report: Dict[str, int] = field(default_factory=dict)


def solve_hsp_small_commutator(
    group: FiniteGroup,
    oracle: HidingOracle,
    sampler: Optional[FourierSampler] = None,
    counter: Optional[QueryCounter] = None,
    commutator_elements: Optional[Sequence] = None,
    commutator_bound: int = 1 << 14,
    max_enumeration: int = 1 << 18,
    max_retries: int = 3,
) -> SmallCommutatorResult:
    """Solve the HSP hidden by ``oracle`` in a group with small ``G'`` (Theorem 11).

    Parameters
    ----------
    commutator_elements:
        The elements of ``G'`` if already known (e.g. the promise of an
        extraspecial group); otherwise ``G'`` is enumerated from the normal
        closure of the generator commutators, up to ``commutator_bound``
        elements — the enumeration cost is part of the theorem's running-time
        bound.
    max_retries:
        The inner hidden-normal-subgroup run is Las Vegas: with small
        probability its Fourier sampling undershoots and step 3's invariant
        check (every generator of ``HG'`` meets ``H`` in its ``G'``-coset)
        fails.  The failure is always *detected*, and the run is repeated up
        to ``max_retries`` times before giving up.

    A Cayley engine is installed on the (unwrapped) ambient group when it
    has a usable dense encoding, so batch products in the coset-bundle hot
    path are memoized and vectorised; other groups keep the per-element
    path.  Query accounting is identical either way.
    """
    sampler = sampler if sampler is not None else FourierSampler()
    counter = counter if counter is not None else oracle.counter
    engine = maybe_engine(group)

    # Step 1: enumerate G' and read off H ∩ G'.
    with obs_span("small_commutator.enumerate") as enumerate_span:
        if commutator_elements is None:
            # The engine shortcut is only taken on uncounted groups: a counted
            # black-box wrapper must keep the scalar enumeration so its query
            # report stays identical to the engine-less route.
            if engine is not None and not isinstance(group, BlackBoxGroup):
                commutator_elements = engine.commutator_subgroup_elements(limit=commutator_bound)
            else:
                commutator_gens = commutator_subgroup_generators(group)
                commutator_elements = (
                    generate_subgroup_elements(group, commutator_gens, limit=commutator_bound)
                    if commutator_gens
                    else [group.identity()]
                )
        commutator_elements = list(commutator_elements)
        identity_label = oracle(group.identity())
        commutator_labels = oracle.evaluate_many(commutator_elements)
        intersection = [
            c
            for c, label in zip(commutator_elements, commutator_labels)
            if not group.is_identity(c) and label == identity_label
        ]
        enumerate_span.add("commutator_order", len(commutator_elements))

    # Step 2: the coset-bundle function F hides HG' (normal, Abelian quotient).
    # When the hiding oracle is dense-attached to the same engine as the
    # group, the whole bundle stays in int64 ids: one counted id-products row
    # plus one id-batch evaluation per uncached x.  Counting is identical to
    # the element path (multiply_ids counts the row length, evaluate_ids the
    # uncached ids), so the query report does not depend on the route.
    dense = group.dense_view() if engine is not None and isinstance(group, BlackBoxGroup) else None
    if dense is not None and oracle.dense_engine is dense.engine:
        commutator_ids = dense.intern_many(commutator_elements)

        def bundled_label(x):
            x_ids = np.full(commutator_ids.size, dense.intern(x), dtype=np.int64)
            return frozenset(oracle.evaluate_ids(dense.multiply_ids(x_ids, commutator_ids)))

    else:

        def bundled_label(x):
            coset = group.multiply_many([x] * len(commutator_elements), commutator_elements)
            return frozenset(oracle.evaluate_many(coset))

    bundled_oracle = HidingOracle(
        bundled_label,
        counter=counter,
        description="coset bundle F(x) = {f(xc) : c in G'}",
    )
    if dense is not None:
        # Key the bundle cache by ids too (free conversions; same counting).
        bundled_oracle.attach_dense(dense.engine)

    coset_generators: List = []
    for attempt in range(max_retries + 1):
        with obs_span("small_commutator.hidden_normal", attempt=attempt):
            normal_result = find_hidden_normal_subgroup(
                group,
                bundled_oracle,
                sampler=sampler,
                counter=counter,
                max_enumeration=max_enumeration,
            )

        # Step 3: lift each generator of HG' into H by scanning its G'-coset.
        # If the Las Vegas inner run overshot HG', some generator has no
        # H-element in its coset; the failure is detected here and the whole
        # hidden-normal step is repeated.
        coset_generators = []
        invariant_ok = True
        with obs_span("small_commutator.lift") as lift_span:
            for x in normal_result.generators:
                if group.is_identity(x):
                    continue
                lifted = None
                for c in commutator_elements:
                    candidate = group.multiply(x, c)
                    if oracle(candidate) == identity_label:
                        lifted = candidate
                        break
                if lifted is None:
                    invariant_ok = False
                    break
                if not group.is_identity(lifted):
                    coset_generators.append(lifted)
            lift_span.add("lifted", len(coset_generators))
        if invariant_ok:
            break
        counter.bump("theorem11_retries")
    else:
        raise GroupError(
            "Theorem 11 invariant violated repeatedly: a generator of HG' has no H-element in its G'-coset"
        )

    generators = coset_generators + intersection
    return SmallCommutatorResult(
        generators=generators,
        commutator_order=len(commutator_elements),
        intersection_generators=intersection,
        coset_generators=coset_generators,
        query_report=counter.snapshot(),
    )
