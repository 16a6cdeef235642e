"""A four-level x86-style page table with lazy frame allocation.

The simulated system shares one unified virtual memory between CPU and GPU
(Section 5): on a TLB miss the IOMMU walks a standard four-level x86 table.
This module provides:

- lazy, deterministic virtual→physical frame allocation (frames are assigned
  in first-touch order and scattered across DRAM rows);
- the *physical addresses of the page-table entries themselves* for every
  level a walk fetches, so walk memory traffic reaches the DRAM model (its
  banks and open rows) like any other access; the IOMMU walkers bypass the
  GPU data caches;
- multiple page sizes (Section 6.2): 4KB and 64KB pages walk four levels,
  2MB pages terminate at the PMD (three levels).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.tlb.base import TranslationEntry

#: Bits of VPN consumed by each radix level of the x86 table.
_LEVEL_BITS = 9

#: Physical region where page-table pages themselves live (above 64GB so
#: they never collide with data frames).
_PT_REGION_BASE = 1 << 36

#: Spread consecutively-allocated frames across DRAM rows/banks.
_FRAME_STRIDE = 7


class PageTable:
    """Unified CPU/GPU page table for one simulated machine."""

    def __init__(self, page_size: int = 4096, va_bits: int = 48) -> None:
        if page_size & (page_size - 1):
            raise ValueError("page size must be a power of two")
        if page_size not in (4096, 64 * 1024, 2 * 1024 * 1024):
            raise ValueError(f"unsupported page size {page_size}")
        self.page_size = page_size
        self.va_bits = va_bits
        # 2MB pages terminate the walk one level early (PMD leaf).
        self.levels = 3 if page_size == 2 * 1024 * 1024 else 4
        self._mappings: Dict[Tuple[int, int], int] = {}
        self._next_frame = 1

    def __len__(self) -> int:
        return len(self._mappings)

    @property
    def page_offset_bits(self) -> int:
        return self.page_size.bit_length() - 1

    def translate(self, vmid: int, vpn: int) -> int:
        """Resolve (and on first touch, establish) the mapping for ``vpn``."""

        if vpn < 0:
            raise ValueError("negative virtual page number")
        key = (vmid, vpn)
        pfn = self._mappings.get(key)
        if pfn is None:
            pfn = self._allocate_frame()
            self._mappings[key] = pfn
        return pfn

    def _allocate_frame(self) -> int:
        frame = self._next_frame
        self._next_frame += 1
        # Multiply by an odd stride so successive allocations land in
        # different DRAM rows/banks; wrap within a 16M-frame physical space.
        return (frame * _FRAME_STRIDE) % (1 << 24)

    def is_mapped(self, vmid: int, vpn: int) -> bool:
        return (vmid, vpn) in self._mappings

    def unmap(self, vmid: int, vpn: int) -> bool:
        """Remove a mapping (page swap/migration; drives shootdowns)."""

        return self._mappings.pop((vmid, vpn), None) is not None

    def entry_for(self, vmid: int, vpn: int, vrf_id: int = 0) -> TranslationEntry:
        return TranslationEntry(vpn=vpn, pfn=self.translate(vmid, vpn), vmid=vmid, vrf_id=vrf_id)

    def walk_addresses(self, vmid: int, vpn: int, first_level: int = 0) -> List[int]:
        """Physical addresses of the PTEs a walk touches, root first.

        ``first_level`` is the first level the walk fetches (the levels a
        page-walk-cache hit skipped are not built). Each level's table page
        is deterministically placed in the PT region based on the VPN
        prefix it serves, so walks to nearby pages share upper-level table
        lines (this is what makes page-walk caches effective and lets walks
        hit open DRAM rows, as in the paper's model).
        """

        levels = self.levels
        addresses = []
        for level in range(first_level, levels):
            # Prefix of the VPN resolved *before* this level's index.
            prefix_shift = _LEVEL_BITS * (levels - level)
            prefix = vpn >> prefix_shift
            index = (vpn >> (prefix_shift - _LEVEL_BITS)) & ((1 << _LEVEL_BITS) - 1)
            table_page = (hash((vmid, level, prefix)) & 0x3FFFFF)
            addresses.append(_PT_REGION_BASE + table_page * 4096 + index * 8)
        return addresses
