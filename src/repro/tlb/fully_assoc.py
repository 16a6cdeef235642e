"""Fully-associative LRU TLB (the per-CU L1 TLB, Table 1)."""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.sim.stats import Stats
from repro.tlb.base import TranslationEntry


class FullyAssociativeTLB:
    """A fully-associative, LRU-replacement TLB.

    ``insert`` returns the evicted entry (if any) so the caller can route it
    into the Figure 12 victim fill flow. ``invalidate`` supports shootdowns
    (Section 7.1).
    """

    def __init__(self, entries: int, name: str = "l1_tlb", stats: Optional[Stats] = None):
        if entries < 1:
            raise ValueError("TLB needs at least one entry")
        self.capacity = entries
        self.name = name
        self.stats = stats if stats is not None else Stats()
        self._counts = self.stats.counts
        self._hits = f"{name}.hits"
        self._misses = f"{name}.misses"
        self._fills = f"{name}.fills"
        self._evictions = f"{name}.evictions"
        self._entries: "OrderedDict[tuple, TranslationEntry]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: tuple) -> Optional[TranslationEntry]:
        entry = self._entries.get(key)
        if entry is None:
            self._counts[self._misses] += 1.0
            return None
        self._entries.move_to_end(key)
        self._counts[self._hits] += 1.0
        return entry

    def probe(self, key: tuple) -> bool:
        """Presence check with no LRU update and no stats."""

        return key in self._entries

    def insert(self, entry: TranslationEntry) -> Optional[TranslationEntry]:
        key = entry.key
        if key in self._entries:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            return None
        victim = None
        if len(self._entries) >= self.capacity:
            _, victim = self._entries.popitem(last=False)
            self._counts[self._evictions] += 1.0
        self._entries[key] = entry
        self._counts[self._fills] += 1.0
        return victim

    def invalidate(self, key: tuple) -> bool:
        if key in self._entries:
            del self._entries[key]
            self.stats.add(f"{self.name}.invalidations")
            return True
        return False

    def invalidate_vpn(self, vpn: int) -> int:
        """Shootdown: drop every entry for ``vpn`` across address spaces."""

        doomed = [key for key in self._entries if key[2] == vpn]
        for key in doomed:
            del self._entries[key]
        if doomed:
            self.stats.add(f"{self.name}.invalidations", len(doomed))
        return len(doomed)

    def flush(self) -> int:
        count = len(self._entries)
        self._entries.clear()
        if count:
            self.stats.add(f"{self.name}.flushes")
        return count
