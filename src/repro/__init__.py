"""repro — reproduction of "Increasing GPU Translation Reach by Leveraging
Under-Utilized On-Chip Resources" (Kotra et al., MICRO 2021).

Public API quick tour::

    from repro import GPUSystem, TxScheme, make_app, table1_config

    app = make_app("ATAX")
    baseline = GPUSystem(table1_config()).run(app)
    reconfig = GPUSystem(table1_config(TxScheme.ICACHE_LDS)).run(make_app("ATAX"))
    print(baseline.cycles / reconfig.cycles)  # the Figure 13b speedup

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro.config import (
    ICacheReplacement,
    SystemConfig,
    TxScheme,
    table1_config,
)
from repro.sim.results import KernelResult, SimResult, geomean, speedup
from repro.system import GPUSystem, simulate
from repro.workloads.registry import all_apps, app_names, make_app

__version__ = "1.4.0"

__all__ = [
    "GPUSystem",
    "ICacheReplacement",
    "KernelResult",
    "SimResult",
    "SystemConfig",
    "TxScheme",
    "all_apps",
    "app_names",
    "geomean",
    "make_app",
    "simulate",
    "speedup",
    "table1_config",
]
