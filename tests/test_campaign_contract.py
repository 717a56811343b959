"""The campaign contract, checked once for all five families.

Every family's report derives from :class:`repro.report.Report`, so each
must: give equal identities for one seed twice and a different one for the
next seed, hash ``repr(fingerprint())`` as its hex identity, keep
``sim_events`` (an implementation count) out of that identity, and report
a clean run as healthy. Each family runs at a small size, once per seed.
"""

import hashlib

import pytest

from repro.config import FaultConfig, assasin_sb_config
from repro.faults import FaultCampaign
from repro.fleet import FleetCampaign, FleetConfig
from repro.serve import default_tenants, simulate_serve
from repro.sql import SqlSession
from repro.sql.tpch import TPCH_SQL
from repro.zns import ZnsCampaign, ZnsConfig

SEED = 7


def _serve(seed):
    return simulate_serve(
        assasin_sb_config(), default_tenants(), duration_ns=300_000.0, seed=seed
    )


def _faults(seed):
    faults = FaultConfig(seed=seed, page_error_rate=0.02, uncorrectable_rate=0.005)
    return FaultCampaign(
        assasin_sb_config(), faults, duration_ns=200_000.0, seed=seed
    ).run()


def _fleet(seed):
    fleet = FleetConfig(num_devices=4, slow_device=1, slow_read_rate=0.2)
    return FleetCampaign(
        assasin_sb_config(), fleet, duration_ns=150_000.0, seed=seed
    ).run()


def _zns(seed):
    return ZnsCampaign(ZnsConfig(seed=seed, duration_ns=500_000.0)).run()


def _sql(seed):
    session = SqlSession(gen_scale_factor=0.002, seed=seed, duration_ns=5e6)
    session.run_serial([TPCH_SQL[6], TPCH_SQL[14]])
    return session.finish()


FAMILIES = {
    "serve": _serve,
    "faults": _faults,
    "fleet": _fleet,
    "zns": _zns,
    "sql": _sql,
}


@pytest.fixture(scope="module", params=sorted(FAMILIES))
def runs(request):
    """(first, same seed again, next seed) for one family."""
    run = FAMILIES[request.param]
    return run(SEED), run(SEED), run(SEED + 1)


def test_same_seed_same_identity(runs):
    first, again, _ = runs
    assert again.fingerprint() == first.fingerprint()
    assert again.fingerprint_hex() == first.fingerprint_hex()
    assert again.sim_events == first.sim_events > 0
    if hasattr(first, "render"):
        assert again.render() == first.render()


def test_hex_identity_hashes_the_fingerprint(runs):
    for report in runs:
        expected = hashlib.sha256(repr(report.fingerprint()).encode()).hexdigest()
        assert report.fingerprint_hex() == expected


def test_next_seed_changes_the_identity(runs):
    first, _, other = runs
    assert other.fingerprint_hex() != first.fingerprint_hex()


def test_sim_events_stay_out_of_the_fingerprint(runs):
    _, report, _ = runs
    # Faults and sql reports read sim_events from their serve report.
    owner = getattr(report, "serve", report)
    before = report.fingerprint()
    events = report.sim_events
    owner.sim_events += 1000
    try:
        assert report.sim_events == events + 1000
        assert report.fingerprint() == before
    finally:
        owner.sim_events -= 1000


def test_clean_runs_are_healthy(runs):
    assert all(report.healthy for report in runs)
