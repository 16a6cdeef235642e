"""Shared experiment infrastructure.

- ``run_app``: simulate an app under a configuration through the one
  result cache (:data:`repro.sim.store.RESULTS`: a bounded in-memory LRU
  in front of the optional disk store under ``REPRO_CACHE_DIR``) — many
  figures share the same baseline runs, and pytest-benchmark repeats
  harness calls.
- ``ExperimentResult``: rows + formatting shared by all figure harnesses.

Scale: experiments honour the ``REPRO_SCALE`` environment variable
(default 1.0). Scaling shrinks per-wave work, keeping every mechanism
exercised while making CI-sized runs fast; the paper itself scaled its gem5
configuration down for the same reason (Section 5).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.config import SystemConfig, TxScheme, table1_config
from repro.sim.results import SimResult, geomean
from repro.sim.store import RESULTS
from repro.system import GPUSystem
from repro.workloads.registry import make_app

DEFAULT_SCALE = float(os.environ.get("REPRO_SCALE", "1.0"))

_CACHE_DIR = os.environ.get("REPRO_CACHE_DIR", "")

#: Version tag written into every on-disk payload. Bump whenever the
#: serialized shape of :class:`SimResult` changes — or when the simulator's
#: measured semantics change (e.g. the v2 port-idle zero-gap fix), so stale
#: results never mix with fresh ones; files carrying a different tag are
#: treated as stale and re-simulated (then overwritten).
CACHE_SCHEMA = "repro-simresult-v2"

#: sha256 over the sorted names and bytes of ``tests/goldens/*.json``:
#: the model output this ``CACHE_SCHEMA`` was cut against.
#: ``tests/sim/test_goldens.py`` recomputes it, so regenerated goldens (a
#: model change) fail the suite until both tags are bumped together, and
#: no store keeps serving the old model's results.
GOLDENS_DIGEST = "80c32241e68473ce78ef955f837c631e375f7b3168947852742665d91122a35d"


def clear_cache() -> None:
    """Forget every in-memory result (the disk store is untouched)."""

    RESULTS.clear()


def _config_signature(config: SystemConfig) -> str:
    # Hash the explicit serialized form, not repr(): the signature then
    # only changes when a setting's *value* changes, not when unrelated
    # fields are added to the dataclasses.
    from repro.config_io import config_to_dict

    text = json.dumps(config_to_dict(config), indent=2, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _cache_key(app_name: str, config: SystemConfig, scale: float) -> str:
    # float(scale): ``scale=1`` and ``scale=1.0`` are the same simulation
    # and must share one cache identity (an int interpolates as "1", a
    # float as "1.0", which used to split the key and miss warm caches).
    return f"{app_name}|{float(scale)}|{_config_signature(config)}"


def cache_key(app_name: str, config: SystemConfig, scale: float) -> str:
    """Public cache identity of one (app, config, scale) simulation."""

    return _cache_key(app_name, config, scale)


def serialize_result(result: SimResult) -> Dict:
    """The versioned, JSON-ready form of a :class:`SimResult`."""

    return {
        "schema": CACHE_SCHEMA,
        "app_name": result.app_name,
        "scheme": result.scheme,
        "cycles": result.cycles,
        "counters": result.counters,
        "kernels": [
            {
                "kernel_name": kernel.kernel_name,
                "invocation": kernel.invocation,
                "start_cycle": kernel.start_cycle,
                "end_cycle": kernel.end_cycle,
                "counters": kernel.counters,
            }
            for kernel in result.kernels
        ],
        "distributions": {
            name: (stats.__dict__ if stats is not None else None)
            for name, stats in result.distributions.items()
        },
    }


def deserialize_result(payload: Dict) -> SimResult:
    """Inverse of :func:`serialize_result`. Raises on malformed payloads."""

    from repro.sim.results import KernelResult
    from repro.sim.stats import BoxStats

    kernels = [KernelResult(**kernel) for kernel in payload.get("kernels", [])]
    distributions = {
        name: (BoxStats(**stats) if stats else None)
        for name, stats in payload.get("distributions", {}).items()
    }
    return SimResult(
        app_name=payload["app_name"],
        scheme=payload["scheme"],
        cycles=payload["cycles"],
        counters=payload["counters"],
        kernels=kernels,
        distributions=distributions,
    )


def result_fingerprint(result: SimResult) -> str:
    """A stable byte-level digest of a result's serialized form.

    Two results are equivalent iff their fingerprints match; the
    determinism tests compare parallel and serial runs this way.
    """

    text = json.dumps(serialize_result(result), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def run_app(
    app_name: str,
    config: Optional[SystemConfig] = None,
    scale: Optional[float] = None,
    use_cache: bool = True,
) -> SimResult:
    """Simulate ``app_name`` under ``config`` (Table 1 baseline by default),
    served from and stored to the result cache unless ``use_cache`` is off."""

    if config is None:
        config = table1_config()
    if scale is None:
        scale = DEFAULT_SCALE
    scale = float(scale)
    if not use_cache:
        return simulate(app_name, config, scale)
    key = _cache_key(app_name, config, scale)
    cached = RESULTS.get(key, _CACHE_DIR)
    if cached is not None:
        return cached
    result = simulate(app_name, config, scale)
    RESULTS.put(key, result, _CACHE_DIR)
    return result


def simulate(app_name: str, config: SystemConfig, scale: float) -> SimResult:
    """One uncached simulation: a fresh system and app, run to completion."""

    app = make_app(app_name, scale=scale, page_size=config.page_size)
    return GPUSystem(config).run(app)


def scheme_config(scheme: TxScheme) -> SystemConfig:
    return table1_config(scheme)


def speedup_over_baseline(
    app_name: str, config: SystemConfig, scale: Optional[float] = None
) -> float:
    baseline = run_app(app_name, table1_config(), scale)
    candidate = run_app(app_name, config, scale)
    return baseline.cycles / candidate.cycles


@dataclass
class ExperimentResult:
    """Rows of one reproduced table/figure, plus paper reference points."""

    experiment_id: str
    title: str
    rows: List[Dict] = field(default_factory=list)
    paper_notes: str = ""

    @property
    def columns(self) -> List[str]:
        columns: List[str] = []
        for row in self.rows:
            for name in row:
                if name not in columns:
                    columns.append(name)
        return columns

    def column(self, name: str) -> List:
        return [row.get(name) for row in self.rows]

    def row_for(self, key_column: str, value) -> Dict:
        for row in self.rows:
            if row.get(key_column) == value:
                return row
        raise KeyError(f"no row with {key_column}={value!r}")

    def format_table(self) -> str:
        columns = self.columns
        header = " | ".join(columns)
        divider = " | ".join("---" for _ in columns)
        lines = [f"### {self.experiment_id}: {self.title}", ""]
        lines.append(f"| {header} |")
        lines.append(f"| {divider} |")
        for row in self.rows:
            cells = []
            for name in columns:
                value = row.get(name, "")
                if isinstance(value, float):
                    cells.append(f"{value:.3f}")
                else:
                    cells.append(str(value))
            lines.append("| " + " | ".join(cells) + " |")
        if self.paper_notes:
            lines.append("")
            lines.append(self.paper_notes)
        return "\n".join(lines)


def gmean_speedup(speedups: Sequence[float]) -> float:
    return geomean(speedups)
