"""Tests for the concurrent multi-application scenario (paper Section 7.2)."""

import pytest

from repro.config import TxScheme, table1_config
from repro.experiments.common import result_fingerprint, serialize_result
from repro.system import GPUSystem
from repro.workloads.registry import make_app
from tests.conftest import make_tiny_app


class TestValidation:
    def test_partition_count_must_match(self):
        system = GPUSystem(table1_config())
        with pytest.raises(ValueError):
            system.run_concurrent([make_tiny_app()], [[0, 1], [2, 3]])

    def test_partitions_must_be_disjoint(self):
        system = GPUSystem(table1_config())
        with pytest.raises(ValueError):
            system.run_concurrent(
                [make_tiny_app("a"), make_tiny_app("b")], [[0, 1], [1, 2]]
            )

    def test_unknown_cu_rejected(self):
        system = GPUSystem(table1_config())
        with pytest.raises(ValueError):
            system.run_concurrent([make_tiny_app()], [[99]])

    def test_empty_partition_rejected(self):
        system = GPUSystem(table1_config())
        with pytest.raises(ValueError):
            system.run_concurrent([make_tiny_app()], [[]])


class TestConcurrentExecution:
    def test_two_apps_complete(self):
        system = GPUSystem(table1_config())
        apps = [make_tiny_app("left"), make_tiny_app("right")]
        results = system.run_concurrent(apps, [[0, 1, 2, 3], [4, 5, 6, 7]])
        assert len(results) == 2
        for result, app in zip(results, apps):
            assert result.app_name == app.name
            assert result.cycles > 0
            assert len(result.kernels) == len(app.kernels)

    def test_kernel_sequencing_per_app(self):
        system = GPUSystem(table1_config())
        results = system.run_concurrent(
            [make_tiny_app("a", kernels=3)], [[0, 1, 2, 3, 4, 5, 6, 7]]
        )
        kernels = results[0].kernels
        for earlier, later in zip(kernels, kernels[1:]):
            assert later.start_cycle >= earlier.end_cycle

    def test_address_spaces_are_isolated(self):
        # Identical apps touching identical VPNs: with separate VM-IDs the
        # pages must NOT be shared (distinct physical mappings, no cross-app
        # TLB reuse).
        system = GPUSystem(table1_config())
        apps = [make_tiny_app("a", kernels=1), make_tiny_app("b", kernels=1)]
        system.run_concurrent(apps, [[0, 1, 2, 3], [4, 5, 6, 7]])
        # Both apps touched the same VPNs, so the page table holds two
        # mappings per page.
        vpn = 1 << 20
        assert system.page_table.translate(0, vpn) != system.page_table.translate(1, vpn)

    def test_vmids_assigned_per_partition(self):
        system = GPUSystem(table1_config())
        system.run_concurrent(
            [make_tiny_app("a", kernels=1), make_tiny_app("b", kernels=1)],
            [[0, 1], [6, 7]],
        )
        assert system.cus[0].translation.vmid == 0
        assert system.cus[7].translation.vmid == 1

    def test_concurrent_with_reconfigurable_scheme(self):
        system = GPUSystem(table1_config(TxScheme.ICACHE_LDS))
        apps = [
            make_tiny_app("a", kernels=1, pages=512, ops_per_wave=12),
            make_tiny_app("b", kernels=1, pages=512, ops_per_wave=12),
        ]
        results = system.run_concurrent(apps, [[0, 1, 2, 3], [4, 5, 6, 7]])
        assert all(result.cycles > 0 for result in results)
        # Each partition's LDS holds only its own app's translations: with
        # isolated VM-IDs, entries in CUs 0-3 carry vmid 0 only.
        for cu in system.cus[:4]:
            lds_tx = cu.translation.lds_tx
            for segment in lds_tx._segments.values():
                for key in segment:
                    assert key[0] == 0

    def test_result_counters_do_not_alias(self):
        # Regression: run_concurrent used to hand every SimResult the SAME
        # counters dict, so mutating one result's counters corrupted all
        # the others.
        system = GPUSystem(table1_config())
        results = system.run_concurrent(
            [make_tiny_app("a", kernels=1), make_tiny_app("b", kernels=1)],
            [[0, 1, 2, 3], [4, 5, 6, 7]],
        )
        assert results[0].counters is not results[1].counters
        before = dict(results[1].counters)
        results[0].counters["instructions"] = -1
        results[0].counters["injected_marker"] = 123
        assert results[1].counters == before

    def test_concurrent_results_carry_distributions(self):
        # Regression: concurrent mode used to omit distributions entirely.
        system = GPUSystem(table1_config())
        results = system.run_concurrent(
            [make_tiny_app("a", kernels=1), make_tiny_app("b", kernels=1)],
            [[0, 1, 2, 3], [4, 5, 6, 7]],
        )
        for result in results:
            assert result.distributions
        assert results[0].distributions is not results[1].distributions
        assert results[0].distributions.keys() == results[1].distributions.keys()

    def test_kernel_boundary_hook_fires_per_app(self):
        # Regression: concurrent mode never fired the Section 4.3.3
        # kernel-boundary I-cache hook between an app's kernels.
        system = GPUSystem(table1_config())
        calls = []
        for index, icache in enumerate(system.icaches):
            def spy(same, _index=index):
                calls.append((_index, same))

            icache.on_kernel_boundary = spy
        system.run_concurrent(
            [make_tiny_app("a", kernels=3)], [[0, 1, 2, 3, 4, 5, 6, 7]]
        )
        # 3 kernels => 2 boundaries, each hitting every I-cache in the
        # app's partition (all groups here).
        boundaries = len(calls) // len(system.icaches)
        assert boundaries == 2
        assert len(calls) == 2 * len(system.icaches)
        # make_tiny_app numbers kernels uniquely, so `same` is False.
        assert all(same is False for _, same in calls)

    def test_concurrent_vs_sequential_work_conservation(self):
        seq_system = GPUSystem(table1_config())
        seq_a = seq_system.run(make_tiny_app("a", kernels=1))
        seq_b = seq_system.run(make_tiny_app("b", kernels=1))
        conc_system = GPUSystem(table1_config())
        conc_system.run_concurrent(
            [make_tiny_app("a", kernels=1), make_tiny_app("b", kernels=1)],
            [[0, 1, 2, 3], [4, 5, 6, 7]],
        )
        assert conc_system.stats.get("instructions") == (
            seq_a.instructions + seq_b.instructions
        )


class TestConcurrentDeterminism:
    @pytest.mark.parametrize(
        "scheme", [TxScheme.BASELINE, TxScheme.ICACHE_LDS], ids=lambda s: s.value
    )
    def test_concurrent_results_byte_identical_across_runs(self, scheme):
        # Two real workloads sharing the GPU: a fresh system must reproduce
        # every per-app result byte for byte, the contract the result cache
        # relies on.
        def both_apps():
            config = table1_config(scheme)
            apps = [
                make_app(name, scale=0.02, page_size=config.page_size)
                for name in ("NW", "SSSP")
            ]
            half = config.gpu.num_cus // 2
            partitions = [list(range(half)), list(range(half, 2 * half))]
            return GPUSystem(config).run_concurrent(apps, partitions)

        first, second = both_apps(), both_apps()
        assert [r.app_name for r in first] == ["NW", "SSSP"]
        for one, two in zip(first, second):
            assert serialize_result(one) == serialize_result(two)
            assert result_fingerprint(one) == result_fingerprint(two)
