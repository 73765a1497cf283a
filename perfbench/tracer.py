"""Per-layer self time and counts, recorded from outside the program.

The tracer wraps the public entry points of each layer of the solver stack
(``ENTRY_POINTS``) and keeps, per thread, a stack of open spans.  A span's
*self* time is its duration minus the durations of the spans opened inside
it, so on one thread the self times of all layers plus the time spent
outside every span add up to the wall time of the traced region.

Patching rules:

* ``"Class.method"`` targets are replaced on the class, so every instance
  and every caller sees the wrapper;
* plain function targets are rebound at *every* ``repro.*`` (and
  ``perfbench.*``) module attribute that holds the original function object,
  because names such as the ``linalg`` helpers are bound at their import
  sites with ``from ... import``.

Nothing under ``src/`` is modified on disk; :meth:`Tracer.uninstall`
restores every attribute it replaced.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["ENTRY_POINTS", "LINALG_MODULES", "Tracer", "rebind"]

#: Every ``Transport`` operation; on the HTTP client each one is one RPC.
TRANSPORT_OPS = (
    "exists",
    "initialise",
    "load_spec",
    "enqueue",
    "claim_next",
    "heartbeat",
    "release",
    "reclaim_stale",
    "prepare_shard",
    "append_record",
    "record_streams",
    "status",
    "lease_details",
    "corrupt_tasks",
    "clear_corrupt",
)

ENGINE_OPS = (
    "subgroup_ids",
    "mul_many",
    "inv_many",
    "coset_label_many",
    "orbit_closure",
    "commutator_subgroup_ids",
)

#: The solver strategies and the entry point(s) each one runs through.
STRATEGY_ENTRY_POINTS = {
    "abelian": [
        ("repro.hsp.abelian", "solve_abelian_hsp"),
        ("repro.hsp.abelian", "solve_hsp_in_abelian_group"),
    ],
    "hidden_normal": [("repro.core.hidden_normal", "find_hidden_normal_subgroup")],
    "small_commutator": [("repro.core.small_commutator", "solve_hsp_small_commutator")],
    "elementary_abelian_two": [
        ("repro.core.elementary_abelian_two", "solve_hsp_elementary_abelian_two")
    ],
    "classical": [("repro.hsp.baseline_classical", "classical_exhaustive_hsp")],
    "classical_adaptive": [("repro.hsp.baseline_classical", "classical_adaptive_hsp")],
}

#: ``layer -> [(module, "function" or "Class.method"), ...]``.  The linalg
#: layer is discovered from ``LINALG_MODULES`` at install time.
ENTRY_POINTS: Dict[str, List[Tuple[str, str]]] = {
    "registry": [("repro.experiments.registry", "build_instance")],
    "engine.build": [("repro.groups.engine", "CayleyBackend.__init__")],
    "engine.ops": [("repro.groups.engine", f"CayleyBackend.{op}") for op in ENGINE_OPS],
    "oracle": [
        ("repro.blackbox.oracle", "HidingOracle.__call__"),
        ("repro.blackbox.oracle", "HidingOracle.evaluate_many"),
        ("repro.blackbox.oracle", "HidingOracle.evaluate_ids"),
    ],
    "sampling": [("repro.quantum.sampling", "FourierSampler.sample")],
    **{f"strategy.{name}": targets for name, targets in STRATEGY_ENTRY_POINTS.items()},
    "solver": [("repro.core.solver", "solve_hsp")],
    "verify": [("repro.blackbox.instances", "HSPInstance.verify")],
    "runner.sweep": [("repro.experiments.runner", "run_sweep")],
    "runner.run": [("repro.experiments.runner", "execute_run_safe")],
    "distributed.enqueue": [("repro.experiments.distributed", "enqueue_sweep")],
    "distributed.work": [("repro.experiments.distributed", "work_queue")],
    "distributed.collect": [("repro.experiments.distributed", "collect_queue")],
    **{
        f"rpc.{op}": [("repro.experiments.transports.http", f"HttpTransport.{op}")]
        for op in TRANSPORT_OPS
    },
    "coordinator.handle": [("repro.experiments.transports.http", "QueueRequestHandler.do_POST")],
    "sqlite": [
        ("repro.experiments.transports.sqlite", f"SqliteTransport.{op}") for op in TRANSPORT_OPS
    ],
}

LINALG_MODULES = (
    "repro.linalg.modular",
    "repro.linalg.smith",
    "repro.linalg.hermite",
    "repro.linalg.zmodule",
    "repro.linalg.gf2",
)

#: Layers whose every call duration is kept (for RPC latency percentiles).
TIMED_LAYERS = frozenset(f"rpc.{op}" for op in TRANSPORT_OPS)

#: Module-name prefixes whose attributes are rebound to function wrappers.
REBIND_PREFIXES = ("repro", "perfbench")


def rebind(original, replacement) -> List[Tuple[object, str, object]]:
    """Point every ``repro.*``/``perfbench.*`` binding of ``original`` at ``replacement``.

    Returns the ``(module, attribute, original)`` triples to restore.
    """
    undo = []
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith(REBIND_PREFIXES):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)
                undo.append((module, attribute, original))
    return undo


def linalg_targets() -> List[Tuple[str, str]]:
    """The public module-level functions of ``LINALG_MODULES``.

    Methods of ``ZModule`` and ``GF2Matrix`` are left out: group elements
    use ``ZModule.add``/``neg`` as their arithmetic (about 10^5 calls per
    large solve), which is group work, and wrapping it would cost more than
    the work itself.  The methods' calls into module functions are traced.
    """
    targets: List[Tuple[str, str]] = []
    for module_name in LINALG_MODULES:
        module = importlib.import_module(module_name)
        targets.extend(
            (module_name, name)
            for name, value in vars(module).items()
            if not name.startswith("_")
            and inspect.isfunction(value)
            and value.__module__ == module_name
        )
    return targets


class _Stats:
    __slots__ = ("self_s", "incl_s", "calls", "durations")

    def __init__(self) -> None:
        self.self_s = 0.0
        self.incl_s = 0.0
        self.calls = 0
        self.durations: List[float] = []


#: ``after(tracer, args, kwargs, result)`` hooks, run once the span closed.
AfterHook = Callable[["Tracer", tuple, dict, object], None]


class Tracer:
    """Span stacks per thread, with per-layer self/inclusive time and calls.

    Stats are kept per *role*: ``"main"`` for the main thread and
    ``"other"`` for every other thread (the HTTP coordinator's handler
    threads), so the main thread's self times add up to the traced wall
    while the coordinator's work is reported beside it.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._generation = 0
        self._tables: List[Tuple[str, Dict[str, _Stats]]] = []
        self._undo: List[Tuple[object, str, object]] = []
        self.counts: Dict[str, int] = {}
        self.maxima: Dict[str, int] = {}
        #: Engines built since the last harvest and leases claimed since the
        #: last heartbeat probe, filled by the workloads' after-hooks.
        self.engines: List[object] = []
        self.claims: List[object] = []

    # -- recording -----------------------------------------------------------

    def _table(self) -> Dict[str, _Stats]:
        local = self._local
        if getattr(local, "generation", None) != self._generation:
            role = "main" if threading.current_thread() is threading.main_thread() else "other"
            local.table = {}
            local.generation = self._generation
            with self._lock:
                self._tables.append((role, local.table))
        return local.table

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.depth = {}
        return stack

    def wrap(self, layer: str, function, after: Optional[AfterHook] = None):
        """The traced twin of ``function``, attributing its time to ``layer``."""
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            depth = tracer._local.depth
            depth[layer] = depth.get(layer, 0) + 1
            frame = [0.0, time.perf_counter()]
            stack.append(frame)
            try:
                result = function(*args, **kwargs)
            finally:
                duration = time.perf_counter() - frame[1]
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                depth[layer] -= 1
                table = tracer._table()
                stats = table.get(layer)
                if stats is None:
                    stats = table[layer] = _Stats()
                stats.self_s += duration - frame[0]
                stats.calls += 1
                if not depth[layer]:
                    stats.incl_s += duration
                if layer in TIMED_LAYERS:
                    stats.durations.append(duration)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return traced

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + int(amount)

    def maximum(self, name: str, value: int) -> None:
        with self._lock:
            self.maxima[name] = max(self.maxima.get(name, 0), int(value))

    def reset(self) -> None:
        """Drop all recorded stats (call between passes, with no span open)."""
        with self._lock:
            self._generation += 1
            self._tables = []
            self.counts = {}
            self.maxima = {}

    def stats(self, role: str = "main") -> Dict[str, _Stats]:
        """The merged per-layer stats of every thread of ``role``."""
        merged: Dict[str, _Stats] = {}
        with self._lock:
            tables = [table for table_role, table in self._tables if table_role == role]
        for table in tables:
            for layer, stats in list(table.items()):
                into = merged.setdefault(layer, _Stats())
                into.self_s += stats.self_s
                into.incl_s += stats.incl_s
                into.calls += stats.calls
                into.durations.extend(stats.durations)
        return merged

    # -- patching ------------------------------------------------------------

    def install(self, hooks: Optional[Dict[str, AfterHook]] = None) -> None:
        """Wrap every entry point; ``hooks`` maps a layer to its after-hook."""
        hooks = hooks or {}
        entry_points = dict(ENTRY_POINTS, linalg=linalg_targets())
        for layer, targets in entry_points.items():
            for module_name, attribute in targets:
                self._patch(layer, importlib.import_module(module_name), attribute, hooks.get(layer))

    def _patch(self, layer: str, module, attribute: str, after: Optional[AfterHook]) -> None:
        if "." in attribute:
            class_name, method = attribute.split(".")
            owner = getattr(module, class_name)
            original = owner.__dict__[method]
            setattr(owner, method, self.wrap(layer, original, after))
            self._undo.append((owner, method, original))
            return
        original = getattr(module, attribute)
        self._undo.extend(rebind(original, self.wrap(layer, original, after)))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)
