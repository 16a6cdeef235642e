"""Span tracing of the simulator's layers, installed from outside.

:class:`LayerTracer` wraps public methods of the translation-path classes
with span recorders. Spans are only recorded inside an open
``GPUSystem.run`` span, and each layer's self time is its span minus the
intervals its child spans cover (:func:`benchlib.self_seconds`), so the
self times of all layers plus the run's own self time (``unattributed``)
add up to the traced ``GPUSystem.run`` total.

Spans are aggregated as they close (count, self seconds, total seconds,
hits): a job makes millions of calls, too many to keep every span.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Callable, Dict, List, Optional, Tuple

from benchlib import self_seconds

ROOT_SPAN = "system.run"

#: (module, class, method, span name). A dict for the span name picks it
#: by the instance's ``name`` attribute; other instances are not traced,
#: so their time stays in the calling span.
LAYERS: List[Tuple[str, str, str, object]] = [
    ("repro.pagetable.iommu", "IOMMU", "translate", "pagetable.iommu.translate"),
    ("repro.pagetable.walker", "PageWalker", "walk", "pagetable.walker.walk"),
    ("repro.pagetable.walk_cache", "SplitPageWalkCache", "lookup", "pagetable.walk_cache.lookup"),
    # The data path reaches the shared L2 through MemoryHierarchy.access_ex,
    # which probes the L2's cache directly; that probe is the L2 layer.
    ("repro.memory.cache", "SetAssociativeCache", "access", {"l2_cache": "memory.l2.access"}),
    ("repro.memory.dram", "DRAM", "access", "memory.dram.access"),
    ("repro.gpu.wavefront", "Wavefront", "step", "gpu.wavefront.step"),
    ("repro.sim.engine", "Port", "request", "sim.engine.port_request"),
    ("repro.sim.engine", "WaveScheduler", "run", "sim.engine.scheduler_run"),
    ("repro.sim.stats", "Stats", "add", "sim.stats.add"),
    ("repro.tlb.fully_assoc", "FullyAssociativeTLB", "lookup", {"l1_tlb": "tlb.l1.lookup"}),
    ("repro.tlb.fully_assoc", "FullyAssociativeTLB", "insert", {"l1_tlb": "tlb.l1.insert"}),
    ("repro.tlb.set_assoc", "SetAssociativeTLB", "lookup", {"l2_tlb": "tlb.l2.lookup"}),
    ("repro.tlb.set_assoc", "SetAssociativeTLB", "insert", {"l2_tlb": "tlb.l2.insert"}),
    ("repro.tlb.coalescer", "InFlightTable", "check", "tlb.mshr.check"),
    ("repro.core.translation", "TranslationService", "translate", "core.translate"),
    ("repro.sim.stats", "Stats", "snapshot", "sim.stats.snapshot"),
    ("repro.sim.stats", "Stats", "delta_since", "sim.stats.delta_since"),
    ("repro.gpu.dispatcher", "WorkGroupDispatcher", "start_kernel", "gpu.dispatcher.start_kernel"),
    ("repro.core.fill_flow", "VictimFillFlow", "fill", "core.fill_flow.fill"),
    ("repro.core.reconfig_lds", "LDSTxCache", "lookup", "core.lds_tx.lookup"),
    ("repro.core.reconfig_lds", "LDSTxCache", "fill", "core.lds_tx.fill"),
    ("repro.core.reconfig_icache", "ReconfigurableICache", "tx_lookup", "core.icache_tx.tx_lookup"),
    ("repro.core.reconfig_icache", "ReconfigurableICache", "tx_fill", "core.icache_tx.tx_fill"),
]

#: Lookups whose hit ratio is measured at the call: a TLB lookup returns
#: the entry or ``None``; a victim-cache lookup returns ``(entry, latency)``.
HIT_OF: Dict[str, Callable[[object], bool]] = {
    "tlb.l1.lookup": lambda result: result is not None,
    "tlb.l2.lookup": lambda result: result is not None,
    "core.lds_tx.lookup": lambda result: result[0] is not None,
    "core.icache_tx.tx_lookup": lambda result: result[0] is not None,
}

SPAN_NAMES = [ROOT_SPAN] + sorted(
    {name for *_, spec in LAYERS for name in (spec.values() if isinstance(spec, dict) else [spec])}
)


class SpanTotals:
    __slots__ = ("calls", "self_s", "total_s", "hits")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.hits = 0


class LayerTracer:
    """Install with :meth:`install`, run jobs, read :attr:`totals`,
    then :meth:`uninstall` to restore the original methods."""

    def __init__(self) -> None:
        self.totals: Dict[str, SpanTotals] = {name: SpanTotals() for name in SPAN_NAMES}
        # One frame per open span: [start, child intervals].
        self._stack: List[list] = []
        self._originals: List[Tuple[type, str, Callable]] = []

    def _close(self, name: str, frame: list, end: float, result=None) -> None:
        start, children = frame
        totals = self.totals[name]
        totals.calls += 1
        totals.total_s += end - start
        totals.self_s += (end - start) if not children else self_seconds(start, end, children)
        hit_of = HIT_OF.get(name)
        if hit_of is not None and hit_of(result):
            totals.hits += 1
        if self._stack:
            self._stack[-1][1].append((start, end))

    def _span(self, name: str, method: Callable, root: bool = False) -> Callable:
        stack = self._stack
        clock = time.perf_counter
        close = self._close

        @functools.wraps(method)
        def traced(*args, **kwargs):
            if not stack and not root:
                return method(*args, **kwargs)
            frame = [clock(), []]
            stack.append(frame)
            result = None
            try:
                result = method(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                close(name, frame, end, result)

        return traced

    def _by_instance(self, names: Dict[str, str], method: Callable) -> Callable:
        spans = {instance: self._span(span, method) for instance, span in names.items()}

        @functools.wraps(method)
        def dispatch(self_, *args, **kwargs):
            span = spans.get(self_.name)
            if span is None:
                return method(self_, *args, **kwargs)
            return span(self_, *args, **kwargs)

        return dispatch

    def _patch(self, cls: type, attribute: str, wrapper: Callable) -> None:
        self._originals.append((cls, attribute, cls.__dict__[attribute]))
        setattr(cls, attribute, wrapper)

    def install(self) -> "LayerTracer":
        from repro.system import GPUSystem

        self._patch(GPUSystem, "run", self._span(ROOT_SPAN, GPUSystem.run, root=True))
        for module, class_name, attribute, spec in LAYERS:
            cls = getattr(importlib.import_module(module), class_name)
            method = cls.__dict__[attribute]
            if isinstance(spec, dict):
                wrapper = self._by_instance(spec, method)
            else:
                wrapper = self._span(spec, method)
            self._patch(cls, attribute, wrapper)
        return self

    def uninstall(self) -> None:
        while self._originals:
            cls, attribute, original = self._originals.pop()
            setattr(cls, attribute, original)

    def unattributed_s(self) -> float:
        """The root span's own time: ``GPUSystem.run`` total minus every
        traced layer's self time."""

        return self.totals[ROOT_SPAN].self_s

    def layer_self_sum(self) -> float:
        return sum(
            totals.self_s for name, totals in self.totals.items() if name != ROOT_SPAN
        )

    def hit_ratio(self, name: str) -> Optional[float]:
        totals = self.totals[name]
        return totals.hits / totals.calls if totals.calls else None
