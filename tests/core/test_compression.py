"""Unit tests for base-delta tag compression."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compression import BaseDeltaCodec


class TestCanPack:
    def test_empty_group_packs(self):
        assert BaseDeltaCodec(16, 16).can_pack([])

    def test_single_tag_packs(self):
        assert BaseDeltaCodec(16, 16).can_pack([12345])

    def test_close_tags_pack(self):
        codec = BaseDeltaCodec(16, 8)
        assert codec.can_pack([1000, 1200, 1255])

    def test_spread_beyond_delta_fails(self):
        codec = BaseDeltaCodec(16, 8)
        assert not codec.can_pack([1000, 1000 + 256])

    def test_boundary_delta(self):
        codec = BaseDeltaCodec(16, 8)
        assert codec.can_pack([0, 255])
        assert not codec.can_pack([0, 256])

    def test_lds_parameters_from_paper(self):
        # Figure 7b: 16-bit base, 16-bit deltas over three 32-bit tags.
        codec = BaseDeltaCodec(16, 16)
        assert codec.can_pack([70000, 70000 + 65535])
        assert not codec.can_pack([70000, 70000 + 65536])

    def test_icache_parameters_from_paper(self):
        # Figure 10c: 32-bit base, 8-bit deltas over eight 39-bit tags.
        codec = BaseDeltaCodec(32, 8)
        assert codec.can_pack(list(range(2000, 2008)))
        assert not codec.can_pack([0, 300])

    def test_negative_tags_rejected(self):
        with pytest.raises(ValueError):
            BaseDeltaCodec(16, 16).can_pack([-1, 5])

    def test_invalid_widths_rejected(self):
        with pytest.raises(ValueError):
            BaseDeltaCodec(0, 8)
        with pytest.raises(ValueError):
            BaseDeltaCodec(8, 0)


class TestPackableSubset:
    def test_keeps_compatible_residents(self):
        codec = BaseDeltaCodec(16, 8)
        assert codec.packable_subset([10, 20, 30], incoming=15) == [10, 20, 30]

    def test_drops_far_residents(self):
        codec = BaseDeltaCodec(16, 8)
        keep = codec.packable_subset([10, 5000], incoming=15)
        assert keep == [10]

    def test_result_always_packs_with_incoming(self):
        codec = BaseDeltaCodec(16, 8)
        residents = [0, 100, 200, 300, 400]
        keep = codec.packable_subset(residents, incoming=250)
        assert codec.can_pack(keep + [250])

    def test_empty_residents(self):
        assert BaseDeltaCodec(16, 8).packable_subset([], 7) == []


class TestFits:
    def test_empty_residents_fit(self):
        assert BaseDeltaCodec(16, 8).fits([], 7)

    def test_boundary_spread(self):
        codec = BaseDeltaCodec(16, 8)
        assert codec.fits([100, 300], incoming=355)
        assert not codec.fits([100, 300], incoming=356)
        assert not codec.fits([100, 300], incoming=44)

    @settings(max_examples=300, deadline=None)
    @given(
        delta_bits=st.integers(1, 10),
        resident=st.lists(st.integers(0, 2000), max_size=8),
        incoming=st.integers(0, 2000),
    )
    def test_fits_means_packable_subset_keeps_every_resident(
        self, delta_bits, resident, incoming
    ):
        codec = BaseDeltaCodec(16, delta_bits)
        fits = codec.fits(resident, incoming)
        # Exact, not just sufficient: the fill fast path keeps the model.
        assert fits == codec.can_pack(resident + [incoming])
        if fits:
            assert codec.packable_subset(resident, incoming) == list(resident)


class TestCompressedBits:
    def test_lds_group_fits_eight_bytes(self):
        # Three compressed tags must fit the 8-byte tag slot (Figure 7b).
        assert BaseDeltaCodec(16, 16).compressed_bits(3) == 64

    def test_icache_group_fits_twelve_bytes(self):
        # Eight compressed tags fit the widened 12-byte tag (Figure 10c).
        assert BaseDeltaCodec(32, 8).compressed_bits(8) == 96
