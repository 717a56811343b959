"""Tier-1 tests for the ZNS stack: firmware commands, LSM model, campaign."""

import pytest

from repro.errors import ConfigError, ZnsError
from repro.ftl.zoned import ZoneState
from repro.sim import Simulator
from repro.ssd.device import ComputationalSSD
from repro.ssd.host_interface import (
    ScompCommand,
    ZoneAppendCommand,
    ZoneReportCommand,
    ZoneResetCommand,
)
from repro.zns import ZnsCampaign, ZnsConfig, ZnsFirmware
from repro.zns.lsm import LsmTree

DURATION_NS = 1_500_000.0


def _run(policy, **kwargs):
    return ZnsCampaign(ZnsConfig(duration_ns=DURATION_NS, compaction=policy, **kwargs)).run()


# -- firmware ----------------------------------------------------------------------


def _firmware():
    device = ComputationalSSD(ZnsConfig().ssd(), zoned=True, max_open_zones=4)
    return ZnsFirmware(device, Simulator()), device


def test_zone_commands_execute_and_complete():
    fw, device = _firmware()
    append = ZoneAppendCommand(device.host.next_id(), zone_id=0, npages=4)
    fw.submit(append)
    lba, done = fw.execute(append, 0.0)
    assert lba == device.ftl.zone_slba(0) == 0  # completion carries the LBA
    assert done > 0
    assert device.ftl.write_pointer(0) == 4

    report_cmd = ZoneReportCommand(device.host.next_id(), first_zone=0, count=2)
    fw.submit(report_cmd)
    descriptors, _ = fw.execute(report_cmd, done)
    assert [d.zone_id for d in descriptors] == [0, 1]
    assert descriptors[0].write_pointer == 4

    reset = ZoneResetCommand(device.host.next_id(), zone_id=0)
    fw.submit(reset)
    _, reset_done = fw.execute(reset, done)
    assert reset_done > done  # the erase is booked on the plane timelines
    assert device.ftl.state(0) is ZoneState.EMPTY
    assert len(device.host.completions) == 3


def test_firmware_rejects_non_zoned_device_and_foreign_commands():
    plain = ComputationalSSD(ZnsConfig().ssd())
    with pytest.raises(ZnsError):
        ZnsFirmware(plain, Simulator())
    fw, device = _firmware()
    with pytest.raises(ZnsError):
        fw.execute(ScompCommand(device.host.next_id(), kernel="merge"), 0.0)


# -- LSM model ---------------------------------------------------------------------


def test_lsm_flush_locate_and_newest_wins_merge():
    tree = LsmTree(
        memtable_records=4, l0_runs_trigger=2, fanout=2, max_levels=3,
        records_per_page=2,
    )
    for key, seq in [(3, 1), (1, 2), (7, 3)]:
        assert not tree.put(key, seq)
    assert tree.put(5, 4)  # memtable ripe
    full = tree.take_memtable()
    assert tree.memtable == {} and tree.flushing == [full]
    assert tree.locate(7) == ("memtable", None)  # still readable while flushing
    older = tree.new_run(0, full)
    assert older.seqs is full and older.keys == [1, 3, 5, 7]  # taken over, not copied
    tree.add_run(older, 0)
    assert tree.flushing == []
    assert tree.locate(7) == ("run", older)
    newer = tree.new_run(0, {9: 6, 1: 5})  # overwrites key 1
    tree.add_run(newer, 0)

    kind, found = tree.locate(1)
    assert (kind, found) == ("run", newer)  # newest run wins
    assert tree.locate(4) == ("miss", None)

    pick = tree.pick_compaction()
    assert pick is not None and pick.level == 0 and pick.target == 1
    assert pick.victims == (older, newer)  # oldest first
    merged = tree.merge_entries(pick.victims)
    assert sorted(merged.items()) == [(1, 5), (3, 1), (5, 4), (7, 3), (9, 6)]
    new_run = tree.new_run(1, merged)
    assert new_run.keys == [1, 3, 5, 7, 9]
    tree.apply_compaction(pick, new_run)
    assert tree.levels[0] == [] and tree.levels[1] == [new_run]
    assert tree.locate(1) == ("run", new_run)


# -- campaign ----------------------------------------------------------------------


def test_campaign_report_is_coherent():
    report = _run("auto")
    assert report.puts > 1000 and report.gets > 100
    assert report.get_run_hits > 0 and report.flushes > 0
    assert report.compactions == report.compactions_host + report.compactions_device
    assert report.compactions >= 1
    assert report.zone_appends > 0 and report.zone_resets > 0
    assert report.wear_total > 0  # resets feed the wear tracker
    assert report.get_p99_ns >= report.get_p50_ns > 0
    # Gets still in flight at the horizon never record a latency.
    assert 0 < len(report.get_latencies_ns) <= report.gets
    assert sum(report.levels_runs) >= 1
    assert report.sim_events > 0


def test_same_seed_campaigns_are_byte_identical():
    first, second = _run("auto"), _run("auto")
    assert first.fingerprint_hex() == second.fingerprint_hex()
    # The event count is not in the fingerprint; same-seed runs match it too.
    assert first.sim_events == second.sim_events


def test_device_side_compaction_spares_the_host_link():
    host = _run("host")
    device = _run("device")
    assert host.compactions >= 1 and device.compactions >= 1
    assert host.compaction_link_bytes >= 2 * max(device.compaction_link_bytes, 1)


def test_auto_placement_follows_the_cost_source():
    campaign = ZnsCampaign(ZnsConfig(duration_ns=DURATION_NS, compaction="auto"))
    pages, data_in, data_out = 40, 40 * 4096, 32 * 4096
    link = campaign.cost.link_bytes_per_ns
    host_ns = data_in / link + campaign.cost.ingest_binary_ns(data_in) + data_out / link
    device_ns = campaign.cost.device_scan_ns(pages, kernel="merge") + 64 / link
    expected = "device" if device_ns <= host_ns else "host"
    assert campaign._choose_site(pages, data_in, data_out) == expected
    # Forced policies ignore the estimate.
    forced = ZnsCampaign(ZnsConfig(duration_ns=DURATION_NS, compaction="host"))
    assert forced._choose_site(pages, data_in, data_out) == "host"


def test_config_validation():
    with pytest.raises(ConfigError):
        ZnsConfig(compaction="gpu")
    with pytest.raises(ConfigError):
        ZnsConfig(compaction_runs=9)
    with pytest.raises(ConfigError):
        ZnsConfig(l0_runs_trigger=1)
    # The smallest values each bound admits.
    ZnsConfig(
        compaction_check_ns=0.6, mean_interarrival_ns=1e-3, key_space=1,
        probe_ns=0.0, duration_ns=1.0, run_segment_pages=1, max_levels=2,
    )
    flash = ZnsConfig().ssd().flash
    assert flash.channels * flash.chips_per_channel * flash.blocks_per_plane == 512


@pytest.mark.parametrize(
    "field, value",
    [
        # Each hung or crashed a campaign: compaction_check_ns 0 (or one that
        # rounds to 0 ns) re-wakes the compaction manager at its own instant
        # forever; the others fail inside a tenant, flush or compaction, or
        # run nothing.
        ("compaction_check_ns", 0.0),
        ("compaction_check_ns", 0.4),
        ("compaction_check_ns", float("inf")),
        ("mean_interarrival_ns", 0),
        ("mean_interarrival_ns", -400.0),
        ("mean_interarrival_ns", float("nan")),
        ("mean_interarrival_ns", float("inf")),
        ("key_space", 0),
        ("key_space", 20_000.5),
        ("probe_ns", -5),
        ("probe_ns", float("nan")),
        ("duration_ns", -1),
        ("duration_ns", 0.0),
        ("duration_ns", float("inf")),
        ("run_segment_pages", 0),
        ("max_levels", 1),
        ("max_levels", 0),
    ],
)
def test_config_rejects_values_that_hang_or_crash_a_campaign(field, value):
    # Construction only: the campaign itself is never run.
    with pytest.raises(ConfigError, match=field):
        ZnsConfig(**{field: value})
