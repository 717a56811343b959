"""The sim differential suite: the production loop matches the heapq oracle.

Each campaign below was run once under the single-``heapq`` event loop
(now kept as the oracle in ``tests/sim_oracle.py``) with the
kernel-pricing memo off, and its fingerprint pinned in the
``differential`` key of ``tests/golden/sim_fingerprints.json``.  The tests
assert that today's calendar-queue loop with the always-on pricing memo
reproduces those fingerprints byte for byte.  The fingerprints hash the
full observable surface (per-command latencies, per-tenant stats, recovery
counters, integrity results), so any divergence in dispatch order, clock
values, or service outcomes fails loudly.

Horizons are short smoke versions of the four campaign families; the
benchmarks run the long ones.
"""

import json
from pathlib import Path

import pytest

from repro.config import FaultConfig, ServeConfig, assasin_sb_config
from repro.faults import FaultCampaign
from repro.fleet import FleetCampaign, FleetConfig
from repro.kernels.pricing import PRICING_CACHE
from repro.serve import default_tenants, simulate_serve
from repro.zns import ZnsCampaign, ZnsConfig

from tests.test_sim_goldens import _jsonable

SEED = 7
GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "sim_fingerprints.json").read_text()
)["differential"]


@pytest.fixture(autouse=True)
def _fresh_memo():
    """Each campaign starts from an empty pricing memo."""
    PRICING_CACHE.clear()
    yield
    PRICING_CACHE.clear()


def _serve_fingerprint():
    report = simulate_serve(
        assasin_sb_config(), default_tenants(), ServeConfig(),
        duration_ns=300_000.0, seed=SEED,
    )
    return report.fingerprint()


def _fleet_fingerprint():
    report = FleetCampaign(
        assasin_sb_config(), FleetConfig(num_devices=4),
        duration_ns=150_000.0, seed=SEED,
    ).run()
    return report.fingerprint_hex()


def _zns_fingerprint():
    return ZnsCampaign(ZnsConfig(duration_ns=500_000.0, seed=SEED)).run().fingerprint_hex()


def _faults_fingerprint():
    report = FaultCampaign(
        assasin_sb_config(), FaultConfig(), duration_ns=200_000.0, seed=SEED,
    ).run()
    return report.fingerprint()


CAMPAIGNS = {
    "serve": _serve_fingerprint,
    "fleet": _fleet_fingerprint,
    "zns": _zns_fingerprint,
    "faults": _faults_fingerprint,
}


@pytest.mark.parametrize("campaign", sorted(CAMPAIGNS))
def test_fast_engine_campaigns_are_byte_identical(campaign):
    assert _jsonable(CAMPAIGNS[campaign]()) == GOLDEN[campaign]


def test_memoized_pricing_is_byte_identical_and_actually_hits():
    first = _serve_fingerprint()
    hits_after_first = PRICING_CACHE.hits
    second = _serve_fingerprint()
    # The second campaign priced its kernels entirely from the memo.
    assert PRICING_CACHE.misses >= 1
    assert PRICING_CACHE.hits > hits_after_first
    assert _jsonable(first) == GOLDEN["serve"]
    assert second == first
