"""Set-associative LRU TLB (the shared L2 TLB and IOMMU device TLBs)."""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional

from repro.sim.stats import Stats
from repro.tlb.base import TranslationEntry


class SetAssociativeTLB:
    """A set-associative, LRU-replacement TLB.

    Supports the "perfect" mode of the motivation study (Section 3.1): a
    perfect TLB hits on every lookup and never walks.
    """

    def __init__(
        self,
        entries: int,
        ways: int,
        name: str = "l2_tlb",
        stats: Optional[Stats] = None,
        perfect: bool = False,
    ) -> None:
        if entries < 1 or ways < 1:
            raise ValueError("TLB needs positive entries and ways")
        if entries % ways:
            raise ValueError(f"{entries} entries not divisible by {ways} ways")
        self.capacity = entries
        self.ways = ways
        self.num_sets = entries // ways
        self.name = name
        self.perfect = perfect
        self.stats = stats if stats is not None else Stats()
        self._counts = self.stats.counts
        self._hits = f"{name}.hits"
        self._misses = f"{name}.misses"
        self._fills = f"{name}.fills"
        self._evictions = f"{name}.evictions"
        self._sets: List["OrderedDict[tuple, TranslationEntry]"] = [
            OrderedDict() for _ in range(self.num_sets)
        ]

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets)

    def lookup(self, key: tuple) -> Optional[TranslationEntry]:
        if self.perfect:
            self._counts[self._hits] += 1.0
            return TranslationEntry(vpn=key[2], pfn=key[2], vmid=key[0], vrf_id=key[1])
        tlb_set = self._sets[key[2] % self.num_sets]
        entry = tlb_set.get(key)
        if entry is None:
            self._counts[self._misses] += 1.0
            return None
        tlb_set.move_to_end(key)
        self._counts[self._hits] += 1.0
        return entry

    def probe(self, key: tuple) -> bool:
        return self.perfect or key in self._sets[key[2] % self.num_sets]

    def insert(self, entry: TranslationEntry) -> Optional[TranslationEntry]:
        if self.perfect:
            return None
        key = entry.key
        tlb_set = self._sets[key[2] % self.num_sets]
        if key in tlb_set:
            tlb_set[key] = entry
            tlb_set.move_to_end(key)
            return None
        victim = None
        if len(tlb_set) >= self.ways:
            _, victim = tlb_set.popitem(last=False)
            self._counts[self._evictions] += 1.0
        tlb_set[key] = entry
        self._counts[self._fills] += 1.0
        return victim

    def invalidate(self, key: tuple) -> bool:
        tlb_set = self._sets[key[2] % self.num_sets]
        if key in tlb_set:
            del tlb_set[key]
            self.stats.add(f"{self.name}.invalidations")
            return True
        return False

    def invalidate_vpn(self, vpn: int) -> int:
        count = 0
        for tlb_set in self._sets:
            doomed = [key for key in tlb_set if key[2] == vpn]
            for key in doomed:
                del tlb_set[key]
            count += len(doomed)
        if count:
            self.stats.add(f"{self.name}.invalidations", count)
        return count

    def flush(self) -> int:
        count = len(self)
        for tlb_set in self._sets:
            tlb_set.clear()
        if count:
            self.stats.add(f"{self.name}.flushes")
        return count
