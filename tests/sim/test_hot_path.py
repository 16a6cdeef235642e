"""The per-translation path increments counters without calling ``Stats.add``.

Structures on the translation path precompute their dotted counter keys
and increment ``Stats.counts`` directly; ``Stats.add`` serves cold paths
(kernel boundaries, allocations, shootdowns). These tests run two
walk-heavy apps with the LDS and I-cache overlays on and pin both halves of
that contract: few ``Stats.add`` calls per translation, and every counter a
float whichever way it was written.
"""

from __future__ import annotations

import pytest

from repro.config import TxScheme, table1_config
from repro.sim.stats import Stats
from repro.system import GPUSystem
from repro.workloads.registry import make_app

SCALE = 0.05
APPS = ("ATAX", "GUPS")


@pytest.fixture(scope="module")
def runs():
    """``{app: (system, result, Stats.add calls)}`` for ``icache+lds`` runs."""

    calls = [0]
    original = Stats.add

    def counting_add(self, name, amount=1.0):
        calls[0] += 1
        original(self, name, amount)

    out = {}
    Stats.add = counting_add
    try:
        for app_name in APPS:
            config = table1_config(TxScheme.ICACHE_LDS)
            app = make_app(app_name, scale=SCALE, page_size=config.page_size)
            calls[0] = 0
            system = GPUSystem(config)
            result = system.run(app)
            out[app_name] = (system, result, calls[0])
    finally:
        Stats.add = original
    return out


@pytest.mark.parametrize("app_name", APPS)
def test_fewer_than_one_stats_add_per_translation(runs, app_name):
    _, result, calls = runs[app_name]
    translations = result.counters["translations"]
    assert translations > 1000  # a walk-heavy run, not an empty one
    assert calls < translations, (
        f"{calls} Stats.add calls for {translations:.0f} translations: a "
        "per-translation structure is building counter keys per event"
    )


@pytest.mark.parametrize("app_name", APPS)
def test_stats_counters_are_floats(runs, app_name):
    system, result, _ = runs[app_name]
    for name, value in system.stats.counts.items():
        assert type(value) is float, name
        if name in result.counters:
            assert type(result.counters[name]) is float, name
    for kernel in result.kernels:
        for name, value in kernel.counters.items():
            assert type(value) is float, (kernel.kernel_name, name)
