"""Unit tests for the reconfigurable I-cache (Section 4.3)."""

import pytest

from repro.config import ICacheConfig, ICacheReplacement, ICacheTxConfig
from repro.core.reconfig_icache import ReconfigurableICache
from repro.tlb.base import TranslationEntry
from repro.tlb.set_assoc import SetAssociativeTLB


def entry(vpn, vmid=0):
    return TranslationEntry(vpn=vpn, pfn=vpn + 1, vmid=vmid)


def make(replacement=ICacheReplacement.INSTRUCTION_AWARE, tx_per_line=8,
         flush=False):
    tx_config = ICacheTxConfig(
        tx_per_line=tx_per_line,
        replacement=replacement,
        flush_on_kernel_boundary=flush,
    )
    return ReconfigurableICache(ICacheConfig(), tx_config, name="ic")


class TestTxFillAndLookup:
    def test_fill_into_invalid_line(self):
        icache = make()
        accepted, victim = icache.tx_fill(entry(7), 0)
        assert accepted and victim is None
        assert icache.tx_entry_count() == 1

    def test_lookup_hit_removes(self):
        icache = make()
        e = entry(7)
        icache.tx_fill(e, 0)
        found, latency = icache.tx_lookup(e.key, 0)
        assert found == e
        assert icache.tx_entry_count() == 0
        assert latency >= ICacheTxConfig().tx_hit_latency

    def test_mode_bit_miss_is_cheap(self):
        icache = make()
        found, latency = icache.tx_lookup(entry(3).key, 0)
        assert found is None
        assert latency <= ICacheTxConfig().tx_probe_latency

    def test_tx_mode_tag_mismatch_costs_serial_compare(self):
        icache = make()
        icache.tx_fill(entry(3), 0)
        other = entry(3 + icache.num_lines)  # same line, different tag
        found, latency = icache.tx_lookup(other.key, 10)
        assert found is None
        assert latency >= ICacheTxConfig().tx_tag_latency

    def test_direct_mapped_packing_eight_per_line(self):
        icache = make()
        base = 11
        for index in range(8):
            accepted, victim = icache.tx_fill(entry(base + index * icache.num_lines), 0)
            assert accepted and victim is None
        accepted, victim = icache.tx_fill(entry(base + 8 * icache.num_lines), 0)
        assert accepted
        assert victim is not None
        assert victim.vpn == base  # LRU sub-entry

    def test_one_tx_per_line_variant(self):
        icache = make(tx_per_line=1)
        a = entry(5)
        b = entry(5 + icache.num_lines)
        icache.tx_fill(a, 0)
        accepted, victim = icache.tx_fill(b, 0)
        assert accepted
        assert victim == a


class TestReplacementPolicies:
    def test_instruction_aware_tx_never_evicts_instructions(self):
        icache = make(ICacheReplacement.INSTRUCTION_AWARE)
        # Fill every line of the cache with instructions.
        for line_addr in range(icache.num_lines):
            icache.fetch(line_addr, 0)
        accepted, victim = icache.tx_fill(entry(4), 0)
        assert not accepted
        assert icache.stats.get("ic.tx_bypass_ic_mode") == 1

    def test_naive_tx_claims_instruction_lines(self):
        icache = make(ICacheReplacement.NAIVE)
        for line_addr in range(icache.num_lines):
            icache.fetch(line_addr, 0)
        accepted, _ = icache.tx_fill(entry(4), 0)
        assert accepted
        assert icache.stats.get("ic.instructions_evicted_by_tx") == 1

    def test_instruction_fill_prefers_tx_victims(self):
        icache = make(ICacheReplacement.INSTRUCTION_AWARE)
        config = ICacheConfig()
        # Occupy one full set: ways-1 instruction lines + 1 tx line.
        set_index = 0
        for way in range(config.ways - 1):
            icache.fetch(set_index + way * config.num_sets, now=way)
        # Tx entry whose direct-mapped line falls in set 0's remaining way.
        tx_line_index = (config.ways - 1) * config.num_sets  # set 0, way 7
        icache.tx_fill(entry(tx_line_index), 0)
        assert icache.tx_entry_count() == 1
        # A new instruction line in set 0 must take the Tx line, not the
        # LRU instruction line.
        icache.fetch(set_index + config.ways * config.num_sets, now=10_000)
        assert icache.tx_entry_count() == 0
        assert icache.stats.get("ic.tx_dropped_by_ifill") == 1

    def test_ifill_spills_tx_entries_to_l2_tlb(self):
        icache = make(ICacheReplacement.INSTRUCTION_AWARE)
        l2 = SetAssociativeTLB(512, 16)
        icache.spill_target = l2
        config = ICacheConfig()
        for way in range(config.ways - 1):
            icache.fetch(way * config.num_sets, now=way)
        doomed = entry((config.ways - 1) * config.num_sets)
        icache.tx_fill(doomed, 0)
        icache.fetch(config.ways * config.num_sets, now=10_000)
        assert l2.lookup(doomed.key) is not None


class TestKernelBoundaryFlush:
    def test_flush_on_different_kernel(self):
        icache = make(flush=True)
        icache.fetch(0, 0)
        icache.on_kernel_boundary(next_kernel_same=False)
        assert icache.valid_instruction_lines() == 0

    def test_flush_suppressed_for_back_to_back(self):
        icache = make(flush=True)
        icache.fetch(0, 0)
        icache.on_kernel_boundary(next_kernel_same=True)
        assert icache.valid_instruction_lines() == 1
        assert icache.stats.get("ic.flush_suppressed") == 1

    def test_flush_preserves_tx_lines(self):
        icache = make(flush=True)
        icache.tx_fill(entry(9), 0)
        icache.fetch(0, 0)
        icache.on_kernel_boundary(next_kernel_same=False)
        assert icache.tx_entry_count() == 1

    def test_no_flush_when_disabled(self):
        icache = make(flush=False)
        icache.fetch(0, 0)
        icache.on_kernel_boundary(next_kernel_same=False)
        assert icache.valid_instruction_lines() == 1

    def test_flushed_lines_become_tx_capacity(self):
        icache = make(flush=True)
        icache.fetch(4, 0)  # line 4 now holds instructions
        denied, _ = icache.tx_fill(entry(4), 0)
        assert not denied
        icache.on_kernel_boundary(next_kernel_same=False)
        accepted, _ = icache.tx_fill(entry(4), 0)
        assert accepted


class TestCompressionInteraction:
    def test_far_tag_evicts_incompatible_resident(self):
        icache = make()
        near = entry(3)
        far = entry(3 + (1 << 25) * icache.num_lines)
        icache.tx_fill(near, 0)
        accepted, victim = icache.tx_fill(far, 0)
        assert accepted
        assert victim == near
        assert icache.stats.get("ic.tx_compression_evictions") == 1

    @pytest.mark.xfail(
        strict=True,
        reason="known defect: a fill evicts only one incompatible resident, "
        "so a far tag can leave an unpackable group (fixing it changes the "
        "goldens)",
    )
    def test_far_tag_leaves_a_packable_group(self):
        icache = make()
        for way in range(3):
            icache.tx_fill(entry(3 + way * icache.num_lines), 0)
        icache.tx_fill(entry(3 + (1 << 25) * icache.num_lines), 0)
        residents = icache._line_for(3).tx_entries.values()
        tags = [resident.tag_bits(icache._index_bits) for resident in residents]
        assert icache.codec.can_pack(tags)


class TestShootdown:
    def test_invalidate_vpn(self):
        icache = make()
        icache.tx_fill(entry(12), 0)
        assert icache.invalidate_vpn(12) == 1
        assert icache.tx_entry_count() == 0

    def test_invalidate_absent(self):
        assert make().invalidate_vpn(5) == 0


class TestAccounting:
    def test_peak_tx_entries(self):
        icache = make()
        for index in range(6):
            icache.tx_fill(entry(index), 0)
        icache.tx_lookup(entry(0).key, 0)
        assert icache.peak_tx_entries == 6
        assert icache.tx_entry_count() == 5
