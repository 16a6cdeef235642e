"""Tests for experiment infrastructure: caching, serialization, report."""

import os

import pytest

from repro.config import table1_config
from repro.experiments import common
from repro.experiments.report import ALL_EXPERIMENTS
from repro.sim.store import RESULTS


class TestDiskCache:
    def test_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.setattr(common, "_CACHE_DIR", str(tmp_path))
        common.clear_cache()
        first = common.run_app("SRAD", table1_config(), scale=0.05)
        common.clear_cache()  # drop the in-process cache; hit the disk
        second = common.run_app("SRAD", table1_config(), scale=0.05)
        assert second.cycles == first.cycles
        assert second.counters == first.counters
        assert len(second.kernels) == len(first.kernels)
        assert second.kernels[0].counters == first.kernels[0].counters
        common.clear_cache()

    def test_distributions_survive_disk(self, tmp_path, monkeypatch):
        monkeypatch.setattr(common, "_CACHE_DIR", str(tmp_path))
        common.clear_cache()
        first = common.run_app("SRAD", table1_config(), scale=0.05)
        common.clear_cache()
        second = common.run_app("SRAD", table1_config(), scale=0.05)
        assert set(second.distributions) == set(first.distributions)
        walk = second.distributions["walk_latency"]
        assert walk is None or walk.count == first.distributions["walk_latency"].count
        common.clear_cache()

    def test_corrupt_cache_file_ignored(self, tmp_path, monkeypatch):
        monkeypatch.setattr(common, "_CACHE_DIR", str(tmp_path))
        common.clear_cache()
        common.run_app("SRAD", table1_config(), scale=0.05)
        for dirpath, _dirnames, filenames in os.walk(tmp_path):
            for name in filenames:
                (tmp_path / os.path.relpath(os.path.join(dirpath, name), tmp_path)
                 ).write_text("{broken json")
        common.clear_cache()
        result = common.run_app("SRAD", table1_config(), scale=0.05)
        assert result.cycles > 0
        common.clear_cache()

    def test_no_cache_mode(self):
        common.clear_cache()
        a = common.run_app("SRAD", table1_config(), scale=0.05, use_cache=False)
        b = common.run_app("SRAD", table1_config(), scale=0.05, use_cache=False)
        assert a is not b
        assert a.cycles == b.cycles  # but deterministic


class TestCacheKeyNormalization:
    def test_int_and_float_scale_share_one_identity(self):
        """Regression: ``cache_key(app, cfg, 1)`` and ``…, 1.0)`` used to
        interpolate different strings, so ``run_app(..., scale=1)`` missed
        every runner-warmed cache entry and re-simulated."""

        cfg = table1_config()
        assert common.cache_key("SRAD", cfg, 1) == common.cache_key("SRAD", cfg, 1.0)
        assert common.cache_key("SRAD", cfg, 2) == common.cache_key("SRAD", cfg, 2.0)
        # Distinct scales still get distinct identities.
        assert common.cache_key("SRAD", cfg, 1) != common.cache_key("SRAD", cfg, 2)

    def test_int_scale_run_app_hits_float_warmed_cache(self, monkeypatch):
        from repro.sim.results import SimResult

        common.clear_cache()
        cfg = table1_config()
        sentinel = SimResult(app_name="SRAD", scheme="baseline", cycles=7)
        RESULTS.put(common.cache_key("SRAD", cfg, 3.0), sentinel)

        def boom(self, app):
            raise AssertionError("cache miss: re-simulated a warmed scale")

        monkeypatch.setattr(common.GPUSystem, "run", boom)
        assert common.run_app("SRAD", cfg, scale=3) is sentinel
        common.clear_cache()


class TestConfigSignature:
    def test_signature_distinguishes_configs(self):
        a = common._config_signature(table1_config())
        b = common._config_signature(table1_config().with_l2_tlb_entries(1024))
        assert a != b

    def test_signature_stable(self):
        assert common._config_signature(table1_config()) == common._config_signature(
            table1_config()
        )


class TestReportRegistry:
    def test_all_experiments_registered(self):
        # Table 2 + 13 figure harnesses + 6.3.1 + two extra ablations +
        # the duplication-filter and subregion-coalescing extensions.
        assert len(ALL_EXPERIMENTS) == 19

    def test_paper_order(self):
        names = [name for name, _ in ALL_EXPERIMENTS]
        assert names[0] == "Table 2"
        assert names[-1] == "Extension: subregion coalescing"

    def test_runners_are_callable(self):
        for _, runner in ALL_EXPERIMENTS:
            assert callable(runner)
