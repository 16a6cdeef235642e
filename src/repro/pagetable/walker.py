"""Page-table walk execution.

A :class:`PageWalker` performs the serial chain of PTE memory accesses for
one walk, consulting the split page-walk caches to skip already-cached upper
levels. PTE accesses go to DRAM directly: the IOMMU walkers sit outside the
GPU's L1/L2 data hierarchy, so apart from the page-walk caches walk traffic
is uncached, which is what makes a walk radically slower than a TLB hit.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.config import IOMMUConfig
from repro.memory.hierarchy import SharedL2
from repro.pagetable.page_table import PageTable
from repro.pagetable.walk_cache import SplitPageWalkCache
from repro.sim.stats import Distribution, Stats


class PageWalker:
    """Executes walks; shared by all walker slots in the IOMMU pool."""

    def __init__(
        self,
        config: IOMMUConfig,
        page_table: PageTable,
        shared_l2: SharedL2,
        stats: Optional[Stats] = None,
        name: str = "walker",
    ) -> None:
        self.config = config
        self.page_table = page_table
        self.shared_l2 = shared_l2
        self.stats = stats if stats is not None else Stats()
        self.name = name
        self.pwc = SplitPageWalkCache(config, levels=page_table.levels, stats=self.stats)
        self.walk_latency = Distribution(max_samples=50_000)
        self._pwc_latency = config.pwc_latency
        self._counts = self.stats.counts
        self._pte_accesses = f"{name}.pte_accesses"
        self._walks = f"{name}.walks"
        self._levels_skipped = f"{name}.levels_skipped"

    def walk(self, vmid: int, vpn: int, anchor: int) -> Tuple[int, int]:
        """Run one walk; returns ``(walk_latency, pfn)``.

        The walk serially accesses one PTE per non-skipped level (a pointer
        chase), so the latencies of the individual accesses add up. Port and
        DRAM-bank occupancy for the PTE accesses is charged at ``anchor``
        (the requesting wave's issue time) to keep the shared occupancy
        model monotone; see the timing-discipline note in
        :mod:`repro.core.translation`.
        """

        pwc = self.pwc
        prefixes = pwc.prefixes(vmid, vpn)
        skipped = pwc.lookup(prefixes)
        latency = self._pwc_latency
        addresses = self.page_table.walk_addresses(vmid, vpn, skipped)
        access = self.shared_l2.dram.access
        for address in addresses:
            # IOMMU walkers fetch PTEs from system memory directly (they sit
            # outside the GPU's L1/L2 data hierarchy); this is a large part
            # of why GPU page walks are an order of magnitude slower than
            # on-chip translation hits (Section 3.1).
            _, done = access(address, anchor)
            latency += done - anchor
        pwc.fill(prefixes)
        pfn = self.page_table.translate(vmid, vpn)
        counts = self._counts
        counts[self._pte_accesses] += len(addresses)
        counts[self._walks] += 1.0
        counts[self._levels_skipped] += skipped
        self.walk_latency.add(latency)
        return latency, pfn
