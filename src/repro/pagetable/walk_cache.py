"""Split page-walk caches (PGD/PUD/PMD), per Barr et al. "Skip, Don't Walk".

The IOMMU keeps three small translation-path caches, one per intermediate
page-table level (Table 1: 4/8/32 entries). A walk consults the deepest
cache first: a PMD-cache hit skips straight to the leaf PTE access, a
PUD-cache hit skips two levels, a PGD-cache hit skips one. This is the
"split page-walk caches for intermediate page table translations" the
paper's gem5 model implements (Section 5).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple

from repro.config import IOMMUConfig
from repro.sim.stats import Stats

_LEVEL_BITS = 9


class _PrefixCache:
    """Tiny fully-associative LRU cache keyed by a VPN prefix."""

    __slots__ = ("capacity", "_entries")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._entries: OrderedDict = OrderedDict()

    def lookup(self, key) -> bool:
        if key in self._entries:
            self._entries.move_to_end(key)
            return True
        return False

    def fill(self, key) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
            return
        if len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
        self._entries[key] = True

    def flush(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


class SplitPageWalkCache:
    """The PGD/PUD/PMD cache trio with skip-level lookup semantics."""

    def __init__(
        self,
        config: IOMMUConfig,
        levels: int = 4,
        stats: Optional[Stats] = None,
        name: str = "pwc",
    ) -> None:
        self.levels = levels
        self.stats = stats if stats is not None else Stats()
        self.name = name
        self._pgd = _PrefixCache(config.pgd_cache_entries)
        self._pud = _PrefixCache(config.pud_cache_entries)
        self._pmd = _PrefixCache(config.pmd_cache_entries)
        self._counts = self.stats.counts
        self._pmd_hits = f"{name}.pmd_hits"
        self._pud_hits = f"{name}.pud_hits"
        self._pgd_hits = f"{name}.pgd_hits"
        self._misses = f"{name}.misses"

    def prefixes(self, vmid: int, vpn: int) -> Tuple[tuple, tuple, tuple]:
        """(pgd, pud, pmd) prefix keys for a walk of ``self.levels`` levels.

        A cache at depth d holds the translation produced after d levels of
        the walk, i.e. it is keyed by the VPN bits those levels consumed.
        A walk computes them once and passes them to :meth:`lookup` and
        :meth:`fill`.
        """

        levels = self.levels
        pgd = (vmid, vpn >> (_LEVEL_BITS * (levels - 1)))
        pud = (vmid, vpn >> (_LEVEL_BITS * (levels - 2)))
        pmd = (vmid, vpn >> (_LEVEL_BITS * (levels - 3)))
        return pgd, pud, pmd

    def lookup(self, prefixes: Tuple[tuple, tuple, tuple]) -> int:
        """Number of walk levels that can be skipped (0..levels-1)."""

        pgd, pud, pmd = prefixes
        # A cache at intermediate depth d holds the translation produced by
        # the first d levels of the walk, so a hit skips d accesses. Check
        # the deepest cache first ("skip, don't walk").
        if self.levels >= 4 and self._pmd.lookup(pmd):
            self._counts[self._pmd_hits] += 1.0
            return 3
        if self.levels >= 3 and self._pud.lookup(pud):
            self._counts[self._pud_hits] += 1.0
            return 2
        if self._pgd.lookup(pgd):
            self._counts[self._pgd_hits] += 1.0
            return 1
        self._counts[self._misses] += 1.0
        return 0

    def fill(self, prefixes: Tuple[tuple, tuple, tuple]) -> None:
        """Install the intermediate translations produced by a full walk."""

        pgd, pud, pmd = prefixes
        self._pgd.fill(pgd)
        if self.levels >= 3:
            self._pud.fill(pud)
        if self.levels >= 4:
            self._pmd.fill(pmd)

    def flush(self) -> None:
        self._pgd.flush()
        self._pud.flush()
        self._pmd.flush()
