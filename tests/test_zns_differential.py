"""The merged arrival driver against one process per tenant.

:class:`repro.zns.ZnsCampaign` merges the tenants' arrival streams in one
driver that holds puts back and wakes only at gets and memtable-filling
puts; :class:`tests.zns_oracle.TenantZnsCampaign` runs each tenant as
its own process and applies every put at its instant. Both must give the
same fingerprint (which leaves out ``sim_events``), spawn the same gets,
flushes and compactions at the same instants in the same order, and,
when a campaign fails, raise the same exception with the same message.
"""

import math
import random

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.ftl.zoned import ZoneState
from repro.zns import ZnsCampaign, ZnsConfig, Segment

from tests.zns_oracle import TenantZnsCampaign


def _spawned(label):
    """A get, flush or compaction: what the arrivals and the manager start."""
    return label in ("flush", "compaction") or label.startswith("get-")


def _preload_l0(campaign):
    """Enough L0 runs that the manager's first tick spawns a compaction.

    Each run is half a page of keys, appended at t = 0 to a zone of its
    own, as a flush would leave it.
    """
    lsm = campaign.lsm
    records = campaign.records_per_page // 2
    for index in range(campaign.cfg.l0_runs_trigger):
        run = lsm.new_run(0, {key: key for key in range(index, index + 2 * records, 2)})
        zone_id = campaign._take_zone()
        lba, _ = campaign.fw.zone_append(zone_id, 1, 0, from_host=False)
        run.segments.append(Segment(zone_id, lba, 1))
        if campaign.ftl.state(zone_id) is ZoneState.OPEN:
            campaign.ftl.close_zone(zone_id)
        lsm.add_run(run, 0)


def _outcome(cls, config, preload=False):
    """(fingerprint or exception, [(instant, label) of each spawn], report)."""
    campaign = cls(config)
    if preload:
        _preload_l0(campaign)
    spawns = []
    spawn = campaign.sim.spawn

    def recording_spawn(gen, label="process"):
        if _spawned(label):
            spawns.append((campaign.sim.now, label))
        return spawn(gen, label)

    campaign.sim.spawn = recording_spawn
    try:
        report = campaign.run()
    except Exception as err:  # both sides must fail the same way
        return ("raised", type(err).__name__, str(err)), spawns, None
    return ("ran", report.fingerprint()), spawns, report


def _assert_same(config, preload=False):
    merged, merged_spawns, report = _outcome(ZnsCampaign, config, preload)
    oracle, oracle_spawns, oracle_report = _outcome(TenantZnsCampaign, config, preload)
    assert merged == oracle
    assert merged_spawns == oracle_spawns
    return report, oracle_report, merged_spawns


@pytest.mark.parametrize("policy", ["host", "device", "auto"])
@pytest.mark.parametrize("campaign_seed", [1, 5, 7])
def test_merged_stream_matches_the_tenant_processes(campaign_seed, policy):
    config = ZnsConfig(seed=campaign_seed, duration_ns=2.5e6, compaction=policy)
    report, oracle, spawns = _assert_same(config)
    assert report.compactions >= 1 and report.gets > 1000
    # The point of the driver: a put is no event of its own.
    assert report.sim_events <= 0.4 * oracle.sim_events


@pytest.mark.parametrize("interarrival", [333.3, 1000.0])
@pytest.mark.parametrize("key_space", [300, 1])
@pytest.mark.parametrize("probe", [0.0, 17.6])
def test_odd_configs_match(probe, key_space, interarrival):
    _assert_same(
        ZnsConfig(
            seed=3, duration_ns=1.2e6, probe_ns=probe, key_space=key_space,
            mean_interarrival_ns=interarrival,
        )
    )


def test_both_sides_run_out_of_zones_alike():
    # 8-record memtables under dense arrivals take a zone per flush faster
    # than anything frees one.
    config = ZnsConfig(
        seed=2, duration_ns=8_000.0, mean_interarrival_ns=2.0, memtable_records=8,
    )
    merged, spawns, _ = _outcome(ZnsCampaign, config)
    assert merged[:2] == ("raised", "SimProcessError")
    assert "out of free zones" in merged[2] and len(spawns) > 500
    _assert_same(config)


def _arrivals(config, index):
    """Tenant ``index``'s (instant, is_get) arrivals, by the methods."""
    rng = random.Random((config.seed + 1) * 1_000_003 + index * 7_919)
    now = 0
    while True:
        gap = round(rng.expovariate(1.0 / config.mean_interarrival_ns))
        now += gap if gap > 1 else 1
        rng.randrange(config.key_space)
        yield now, rng.random() >= config.put_fraction


def test_arrivals_after_a_compacting_tick_spawn_after_its_compaction():
    # The manager's first tick is pushed at t = 0, after the tenants' first
    # arrivals. A tenant's later arrival is pushed at its previous arrival,
    # so one that shares the tick's instant dispatches after the manager:
    # when that tick spawns a compaction, the arrival's get comes after it.
    base = ZnsConfig(seed=11, duration_ns=60_000.0, put_fraction=0.5)
    stream = _arrivals(base, 0)
    next(stream)  # the first arrival is pushed at t = 0, before the tick
    instant = next(at for at, is_get in stream if is_get)
    config = ZnsConfig(
        seed=11, duration_ns=60_000.0, put_fraction=0.5, compaction_check_ns=instant
    )
    _, _, spawns = _assert_same(config, preload=True)
    at_tick = [label for at, label in spawns if at == instant]
    assert at_tick.index("compaction") < at_tick.index("get-0")


def test_puts_alone_dispatch_only_the_manager_ticks():
    config = ZnsConfig(
        seed=5, duration_ns=2.5e6, put_fraction=1.0, memtable_records=10**6
    )
    report, oracle, spawns = _assert_same(config)
    ticks = math.floor(config.duration_ns / config.compaction_check_ns)
    assert spawns == [] and report.puts > 20_000
    assert oracle.sim_events > report.puts
    # The manager's spawn and its ticks, and nothing per put.
    assert report.sim_events <= ticks + 2


@st.composite
def _configs(draw):
    tenants = draw(st.sampled_from([1, 2, 4, 9]))
    interarrival = draw(st.floats(1.0, 20.0))
    arrivals = draw(st.integers(20, 1_500))
    return ZnsConfig(
        seed=draw(st.integers(0, 10_000)),
        duration_ns=min(20_000.0, arrivals * interarrival / tenants),
        num_tenants=tenants,
        mean_interarrival_ns=interarrival,
        put_fraction=draw(st.sampled_from([0.0, 0.5, 0.9, 1.0])),
        key_space=draw(st.sampled_from([1, 7, 300, 20_000])),
        probe_ns=draw(st.sampled_from([0.0, 3.0, 250.0])),
        memtable_records=draw(st.one_of(st.integers(8, 40), st.integers(8, 1_024))),
        compaction_check_ns=draw(st.floats(1.0, 13.0)),
        compaction=draw(st.sampled_from(["host", "device", "auto"])),
    )


@seed(22)
@settings(max_examples=40, deadline=None)
@given(config=_configs(), preload=st.booleans())
def test_dense_arrivals_and_ticks_match(config, preload):
    _assert_same(config, preload)
