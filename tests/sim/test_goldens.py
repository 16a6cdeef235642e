"""Golden-snapshot suite: full serialized results pinned as JSON files.

These goldens pin the simulator against *history*. Every counter,
kernel window and distribution of a small app/scheme matrix (4 apps x 4
schemes at scale 0.05) is stored under ``tests/goldens/`` — any
behavioral drift in the simulator shows up as a readable JSON diff
instead of a silently shifted figure. NW and SSSP are TLB-resident;
ATAX and GUPS are walk-heavy (most translations walk, and the LDS and
I-cache arms evict compressed groups), so the walker, walk cache and
packing paths are pinned too.

After an *intentional* model change, regenerate with::

    pytest tests/sim/test_goldens.py --update-goldens

review the golden diffs like any other code change, then bump
``CACHE_SCHEMA`` and ``GOLDENS_DIGEST`` (repro.experiments.common)
together, so stores holding the old model's results stop serving them.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.config import TxScheme, table1_config
from repro.experiments.common import GOLDENS_DIGEST, serialize_result
from repro.system import GPUSystem
from repro.workloads.registry import make_app

SCALE = 0.05
APPS = ("NW", "SSSP", "ATAX", "GUPS")
SCHEMES = (
    TxScheme.BASELINE,
    TxScheme.LDS_ONLY,
    TxScheme.ICACHE_ONLY,
    TxScheme.ICACHE_LDS,
)

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "goldens"


def _golden_path(app_name: str, scheme: TxScheme) -> Path:
    return GOLDEN_DIR / f"{app_name}-{scheme.value}.json"


def _current(app_name: str, scheme: TxScheme) -> dict:
    config = table1_config(scheme)
    app = make_app(app_name, scale=SCALE, page_size=config.page_size)
    return serialize_result(GPUSystem(config).run(app))


@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.value)
@pytest.mark.parametrize("app_name", APPS)
def test_golden_snapshot(app_name, scheme, update_goldens):
    path = _golden_path(app_name, scheme)
    current = _current(app_name, scheme)

    if update_goldens:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(current, indent=2, sort_keys=True) + "\n")
        return

    assert path.exists(), (
        f"missing golden {path.name}; generate with "
        "`pytest tests/sim/test_goldens.py --update-goldens`"
    )
    golden = json.loads(path.read_text())
    # Counters first: the usual drift site, and the most readable diff.
    assert current["counters"] == golden["counters"]
    assert current["cycles"] == golden["cycles"]
    assert current == golden


def test_goldens_have_no_strays():
    """Every file under tests/goldens/ must belong to the current matrix —
    a renamed scheme or app must not leave stale snapshots behind."""

    expected = {
        _golden_path(app, scheme).name for app in APPS for scheme in SCHEMES
    }
    actual = {p.name for p in GOLDEN_DIR.glob("*.json")}
    assert actual == expected


def test_goldens_digest_matches_cache_schema():
    """The goldens are the model output ``CACHE_SCHEMA`` names; if they
    change without a schema bump, existing stores serve stale results."""

    digest = hashlib.sha256()
    for path in sorted(GOLDEN_DIR.glob("*.json"), key=lambda p: p.name):
        digest.update(path.name.encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    assert digest.hexdigest() == GOLDENS_DIGEST, (
        "model output changed: bump CACHE_SCHEMA and GOLDENS_DIGEST together"
    )
