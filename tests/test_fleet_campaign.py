"""End-to-end fleet campaign tests: determinism, device loss, routing."""

import pytest

from repro.config import named_config
from repro.errors import FleetError
from repro.fleet import (
    FleetCampaign,
    FleetConfig,
    ShardedWorkloadGenerator,
)
from repro.serve.workload import TenantSpec

CONFIG = named_config("AssasinSb")


def small_tenants():
    """Compact regions: preload (ECC-bound) dominates campaign wall-clock."""
    return [
        TenantSpec(
            name="hot", weight=4.0, kind="scomp", kernel="stat",
            pages_per_command=4, interarrival_ns=12_000.0, region_pages=256,
        ),
        TenantSpec(
            name="reader", weight=1.0, kind="read",
            pages_per_command=4, interarrival_ns=10_000.0, region_pages=256,
        ),
        TenantSpec(
            name="writer", weight=1.0, kind="write",
            pages_per_command=4, interarrival_ns=30_000.0, region_pages=128,
        ),
    ]


@pytest.fixture(scope="module")
def healthy_report():
    return FleetCampaign(
        CONFIG, FleetConfig(num_devices=4), tenants=small_tenants(),
        duration_ns=250_000.0, seed=5,
    ).run()


@pytest.fixture(scope="module")
def kill_report():
    return FleetCampaign(
        CONFIG,
        FleetConfig(num_devices=4, kill_device=1, kill_at_ns=100_000.0),
        tenants=small_tenants(),
        duration_ns=250_000.0,
        seed=5,
    ).run()


# -- healthy fleet -------------------------------------------------------------


def test_healthy_fleet_serves_commands(healthy_report):
    r = healthy_report
    assert r.completed > 20
    assert r.failed == 0 and r.corruption_events == 0
    assert r.success_rate == 1.0
    assert r.sim_events > 0 and r.commands_per_second > 0


def test_fleet_totals_match_device_stats(healthy_report):
    r = healthy_report
    assert sum(s.completed for s in r.devices.values()) == r.completed
    assert sum(s.hedges_issued for s in r.devices.values()) == r.hedges_issued
    assert len(r.latencies_ns) == r.completed
    assert r.hedges_won <= r.hedges_issued
    assert len(r.devices) == 4 and not any(s.dead for s in r.devices.values())


def test_same_seed_same_fingerprint(healthy_report):
    again = FleetCampaign(
        CONFIG, FleetConfig(num_devices=4), tenants=small_tenants(),
        duration_ns=250_000.0, seed=5,
    ).run()
    assert again.fingerprint() == healthy_report.fingerprint()
    assert again.fingerprint_hex() == healthy_report.fingerprint_hex()


def test_different_seed_different_fingerprint(healthy_report):
    other = FleetCampaign(
        CONFIG, FleetConfig(num_devices=4), tenants=small_tenants(),
        duration_ns=250_000.0, seed=6,
    ).run()
    assert other.fingerprint_hex() != healthy_report.fingerprint_hex()


def test_render_mentions_tail_and_fingerprint(healthy_report):
    text = healthy_report.render()
    assert "p99.9" in text and "skew" in text and "fingerprint" in text


# -- device loss ---------------------------------------------------------------


def test_killed_device_zero_corruption_high_success(kill_report):
    r = kill_report
    assert r.devices[1].dead
    assert r.success_rate >= 0.99
    assert r.corruption_events == 0
    assert r.integrity_pages_checked > 0 and r.integrity_pages_bad == 0
    assert r.reconstructions > 0 and r.pages_rebuilt > 0
    assert r.recovery_goodput_gbps > 0


def test_killed_device_stops_completing_after_kill(kill_report):
    # The dead device still appears in the report, but the fleet keeps
    # serving: live devices carry more completions than the casualty.
    r = kill_report
    live_done = [s.completed for d, s in r.devices.items() if d != 1]
    assert min(live_done) >= 0 and sum(live_done) > r.devices[1].completed


def test_kill_report_is_deterministic(kill_report):
    again = FleetCampaign(
        CONFIG,
        FleetConfig(num_devices=4, kill_device=1, kill_at_ns=100_000.0),
        tenants=small_tenants(),
        duration_ns=250_000.0,
        seed=5,
    ).run()
    assert again.fingerprint_hex() == kill_report.fingerprint_hex()


# -- router knobs --------------------------------------------------------------


def test_hedging_disabled_issues_no_hedges():
    r = FleetCampaign(
        CONFIG, FleetConfig(num_devices=4, hedging=False),
        tenants=small_tenants(), duration_ns=150_000.0, seed=5,
    ).run()
    assert r.hedges_issued == 0 and r.hedges_won == 0
    assert not r.hedging


def test_load_placement_policy_runs():
    r = FleetCampaign(
        CONFIG, FleetConfig(num_devices=4, placement="load"),
        tenants=small_tenants(), duration_ns=150_000.0, seed=5,
    ).run()
    assert r.placement == "load"
    assert r.completed > 0 and r.corruption_events == 0


def test_campaign_exposes_wiring():
    campaign = FleetCampaign(
        CONFIG, FleetConfig(num_devices=3), tenants=small_tenants(),
        duration_ns=100_000.0, seed=2,
    )
    report = campaign.run()
    assert len(campaign.devices) == 3
    # One shared event kernel drives the whole fleet.
    assert report.sim_events == campaign.router.sim.processed
    assert len(campaign.page_map) > 0
    assert len(campaign.raid_map) > 0
    # Every fleet page's home device matches the page map.
    for fleet_lpa, (device, _) in list(campaign.page_map.items())[:64]:
        assert 0 <= device < 3
    assert report.num_devices == 3


def test_burst_tenant_sends_nothing_in_its_off_phase(monkeypatch):
    """Fleet arrivals follow the burst process, as the serving layer's do:
    a draw that lands in an OFF window is carried to the next ON window."""
    on_ns, off_ns = 50_000.0, 150_000.0
    spec = TenantSpec(
        name="bursty", kind="read", pages_per_command=4, interarrival_ns=5_000.0,
        region_pages=64, arrival="burst", burst_on_ns=on_ns, burst_off_ns=off_ns,
    )
    arrivals = []
    make_command = ShardedWorkloadGenerator.make_command

    def recording(gen, host, now_ns):
        arrivals.append(now_ns)
        return make_command(gen, host, now_ns)

    monkeypatch.setattr(ShardedWorkloadGenerator, "make_command", recording)
    FleetCampaign(
        CONFIG, FleetConfig(num_devices=4, shard_pages=8, hedging=False),
        tenants=[spec], duration_ns=400_000.0, seed=3,
    ).run()
    assert len(arrivals) > 10
    assert [at for at in arrivals if at % (on_ns + off_ns) >= on_ns] == []
    assert any(at >= on_ns + off_ns for at in arrivals)  # the second ON window


@pytest.mark.parametrize(
    "tenant",
    [
        TenantSpec(name="rewriter", kind="write", pages_per_command=4, region_pages=64,
                   overwrite=True),
        TenantSpec(name="analyst", kind="sql", pages_per_command=4, region_pages=64),
    ],
    ids=["overwrite", "sql"],
)
def test_fleet_rejects_tenants_it_cannot_serve_at_construction(tenant):
    """Overwrite writes would remap other tenants' device-local pages, and
    no SQL session drives a sql tenant: both fail before any device is built."""
    tenants = [tenant] + small_tenants()
    with pytest.raises(FleetError, match=repr(tenant.name)):
        FleetCampaign(CONFIG, FleetConfig(num_devices=4), tenants=tenants)
    with pytest.raises(FleetError, match=repr(tenant.name)):
        ShardedWorkloadGenerator(tenant, index=0, seed=0, lpa_base=0, shard_pages=64)


# -- sharded workload ----------------------------------------------------------


def _spec(**kw):
    base = dict(
        name="t", weight=1.0, kind="read", pages_per_command=4,
        interarrival_ns=10_000.0, region_pages=256,
    )
    base.update(kw)
    return TenantSpec(**base)


class _Ids:
    def __init__(self):
        self.n = 0

    def next_id(self):
        self.n += 1
        return self.n


def test_sharded_generator_confines_commands_to_one_shard():
    gen = ShardedWorkloadGenerator(_spec(), index=0, seed=9, lpa_base=1000, shard_pages=64)
    ids = _Ids()
    for _ in range(200):
        cmd = gen.make_command(ids, 0.0)
        lpas = cmd.command.lpas if hasattr(cmd.command, "lpas") else cmd.command.lpa_lists[0]
        first_shard = (lpas[0] - 1000) // 64
        assert all((lpa - 1000) // 64 == first_shard for lpa in lpas)
        assert all(1000 <= lpa < 1000 + 256 for lpa in lpas)


def test_sharded_generator_rejects_oversized_commands():
    with pytest.raises(FleetError):
        ShardedWorkloadGenerator(
            _spec(pages_per_command=100, region_pages=256),
            index=0, seed=0, lpa_base=0, shard_pages=64,
        )
    with pytest.raises(FleetError):
        ShardedWorkloadGenerator(
            _spec(region_pages=32), index=0, seed=0, lpa_base=0, shard_pages=64
        )


def test_fleet_config_validation():
    from repro.errors import ConfigError

    with pytest.raises(ConfigError):
        FleetConfig(num_devices=1)
    with pytest.raises(ConfigError):
        FleetConfig(placement="nope")
    with pytest.raises(ConfigError):
        FleetConfig(kill_device=9, num_devices=4)
    assert FleetConfig(num_devices=3, raid_k=8).effective_raid_k == 2
