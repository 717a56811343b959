"""Tests for repro.faults: injection, the recovery ladder, and campaigns."""

import pytest

from repro.config import (
    FaultConfig,
    FlashConfig,
    HardFault,
    ServeConfig,
    assasin_sb_config,
)
from repro.errors import ConfigError, FlashError
from repro.faults import (
    PARITY_LPA_BASE,
    FaultCampaign,
    FaultInjector,
    RaidGroupMap,
)
from repro.faults.campaign import golden_page
from repro.flash.array import FlashArray, PhysicalPageAddress
from repro.flash.ecc import ECCStatus, inject_bit_errors
from repro.ftl.allocator import PageAllocator
from repro.serve.workload import TenantSpec
from repro.ssd.device import ComputationalSSD
from repro.ssd.firmware import RecoveryController

TINY = FlashConfig(
    channels=1,
    chips_per_channel=1,
    dies_per_chip=1,
    planes_per_die=1,
    blocks_per_plane=4,
    pages_per_block=4,
)

PPA0 = PhysicalPageAddress(0, 0, 0, 0, 0, 0)


def _array(payload=b"\xa5" * 64):
    """A default-geometry array with ``payload`` stored at :data:`PPA0`."""
    array = FlashArray(FlashConfig())
    array.preload(PPA0, payload)
    return array


# -- raw error injection through the array ------------------------------------


def test_inject_errors_unprogrammed_page_raises_flash_error():
    array = FlashArray(FlashConfig())
    noisy = inject_bit_errors(b"\xa5" * 64, 1)
    with pytest.raises(FlashError):
        array.overwrite_raw(PPA0, noisy)
    with pytest.raises(FlashError):  # outside geometry, still FlashError
        array.overwrite_raw(PPA0._replace(die=99), noisy)


# -- centralised ecc_failures accounting (satellite) --------------------------


def test_ecc_failures_bumped_exactly_once_per_uncorrectable_read():
    array = _array()
    array.overwrite_raw(PPA0, inject_bit_errors(array.read_data(PPA0), 40, seed=2))
    _, status = array.read_data_checked(PPA0)
    assert status is ECCStatus.UNCORRECTABLE
    assert array.ecc_failures == 1
    array.read_data_checked(PPA0)
    assert array.ecc_failures == 2  # once per read, not per codeword
    # A clean page elsewhere leaves the counter alone.
    other = PPA0._replace(block=1)
    array.preload(other, b"\x11" * 64)
    _, status = array.read_data_checked(other)
    assert status is ECCStatus.CLEAN and array.ecc_failures == 2


def test_overwrite_raw_requires_data_and_matching_length():
    array = _array()
    with pytest.raises(FlashError):
        array.overwrite_raw(PPA0._replace(block=1), b"\x00" * 64)  # never programmed
    with pytest.raises(FlashError):
        array.overwrite_raw(PPA0, b"\x00" * 8)  # wrong length
    array.overwrite_raw(PPA0, b"\x00" * 64)
    assert array.read_data(PPA0) == b"\x00" * 64
    # The spare area still holds the programmed page's ECC: restoring
    # the programmed bytes makes the page decode clean again.
    array.overwrite_raw(PPA0, b"\xa5" * 64)
    assert array.read_data_checked(PPA0) == (b"\xa5" * 64, ECCStatus.CLEAN)


# -- allocator block retirement -----------------------------------------------


def test_retire_block_removes_it_from_service():
    alloc = PageAllocator(TINY)
    first = alloc.allocate()
    assert alloc.retire_block(first) is True
    assert alloc.retire_block(first) is False  # already retired
    # A retired block cannot be resurrected through the GC path.
    alloc.free_block(first)
    seen = set()
    while True:
        try:
            ppa = alloc.allocate()
        except Exception:
            break
        seen.add((ppa.block, ppa.page))
        assert ppa.block != first.block
    # The other three blocks are still fully allocatable.
    assert len(seen) == 3 * TINY.pages_per_block


def test_retire_open_write_block_closes_write_point():
    alloc = PageAllocator(TINY)
    first = alloc.allocate()
    alloc.retire_block(first)
    nxt = alloc.allocate()
    assert nxt.block != first.block and nxt.page == 0


# -- RAID group map -----------------------------------------------------------


def test_raid_group_map_mates_and_remainder():
    rmap = RaidGroupMap.build(range(10), 4)
    assert len(rmap) == 3  # 4 + 4 + 2
    assert rmap.stripe_mates(1) == [0, 2, 3, PARITY_LPA_BASE]
    assert rmap.stripe_mates(PARITY_LPA_BASE) == [0, 1, 2, 3]
    assert rmap.stripe_mates(9) == [8, PARITY_LPA_BASE + 2]
    assert rmap.stripe_mates(12345) is None
    assert rmap.parity_lpas == [PARITY_LPA_BASE + i for i in range(3)]


# -- the injector -------------------------------------------------------------


def test_hard_fault_zone_scoping():
    failures = (
        HardFault(kind="channel", channel=1, onset_ns=100.0),
        HardFault(kind="chip", channel=0, chip=2),
        HardFault(kind="plane", channel=3, chip=0, die=1, plane=0),
    )
    inj = FaultInjector(FaultConfig(failures=failures), FlashConfig())
    ch1 = PhysicalPageAddress(1, 0, 0, 0, 0, 0)
    assert not inj.hard_failed(ch1, 99.0)  # before onset
    assert inj.hard_failed(ch1, 100.0)
    assert inj.hard_failed(PhysicalPageAddress(0, 2, 1, 1, 0, 0), 0.0)
    assert not inj.hard_failed(PhysicalPageAddress(0, 1, 0, 0, 0, 0), 0.0)
    assert inj.hard_failed(PhysicalPageAddress(3, 0, 1, 0, 0, 0), 0.0)
    assert not inj.hard_failed(PhysicalPageAddress(3, 0, 0, 0, 0, 0), 0.0)


def test_injected_noise_is_always_correctable():
    payload = bytes((i * 31) & 0xFF for i in range(4096))
    array = _array(payload)
    inj = FaultInjector(FaultConfig(page_error_rate=1.0, noisy_bits=3), FlashConfig())
    fault = inj.on_read(array, PPA0, 0.0)
    assert fault.kind == "noise" and fault.touched and fault.scrub == payload
    data, status = array.read_data_checked(PPA0)
    assert status is ECCStatus.CORRECTED and data == payload


def test_injected_burst_is_uncorrectable_not_miscorrected():
    payload = bytes((i * 13) & 0xFF for i in range(4096))
    array = _array(payload)
    inj = FaultInjector(
        FaultConfig(uncorrectable_rate=1.0, transient_fraction=0.0), FlashConfig()
    )
    fault = inj.on_read(array, PPA0, 0.0)
    assert fault.kind == "permanent"
    _, status = array.read_data_checked(PPA0)
    assert status is ECCStatus.UNCORRECTABLE  # never silently wrong data


def test_injector_same_seed_same_faults():
    payload = bytes(range(256)) * 16
    results = []
    for _ in range(2):
        array = _array(payload)
        inj = FaultInjector(
            FaultConfig(seed=9, page_error_rate=0.4, uncorrectable_rate=0.2),
            FlashConfig(),
        )
        kinds = [inj.on_read(array, PPA0, float(t)).kind for t in range(6)]
        results.append((kinds, array.read_data(PPA0), dict(inj.counters)))
    assert results[0] == results[1]


# -- the recovery ladder ------------------------------------------------------


def _loaded_device(n_pages=4, raid_k=4):
    device = ComputationalSSD(assasin_sb_config())
    page = device.config.flash.page_bytes
    golden = {}
    for lpa in range(n_pages):
        golden[lpa] = golden_page(1, lpa, page)
        device.array.service_write(device.ftl.write(lpa), 0.0, data=golden[lpa])
    rmap = RaidGroupMap.build(range(n_pages), raid_k)
    for group in range(len(rmap)):
        members = [golden[m] for m in rmap.members(group)]
        parity = bytes(len(members[0]))
        for member in members:
            parity = bytes(a ^ b for a, b in zip(parity, member))
        lpa = rmap.parity(group)
        golden[lpa] = parity if len(members) > 1 else members[0]
        device.array.service_write(device.ftl.write(lpa), 0.0, data=golden[lpa])
    return device, golden, rmap


def test_transient_burst_recovered_by_read_retry():
    device, golden, rmap = _loaded_device()
    cfg = FaultConfig(uncorrectable_rate=1.0, transient_fraction=1.0, max_read_retries=2)
    rec = RecoveryController(
        device, cfg, injector=FaultInjector(cfg, device.config.flash),
        raid_map=rmap, golden=golden,
    )
    outcome = rec.read_lpa(0, 0.0)
    assert outcome.status == "retried" and outcome.retries == 1
    assert outcome.data == golden[0]
    assert rec.counters["retry_recovered_pages"] == 1
    assert rec.corruption_events == 0
    # Backoff made the retry strictly later than a clean read would be
    # (fresh device: identical timelines, no faults).
    device2, _, _ = _loaded_device()
    clean = RecoveryController(device2, cfg).read_lpa(0, 0.0)
    assert outcome.done_ns > clean.done_ns


def test_hard_fault_escalates_to_raid_reconstruction():
    device, golden, rmap = _loaded_device()
    dead = device.ftl.lookup(2)
    cfg = FaultConfig(
        failures=(
            HardFault(
                kind="plane", channel=dead.channel, chip=dead.chip,
                die=dead.die, plane=dead.plane,
            ),
        ),
        max_read_retries=1,
    )
    inj = FaultInjector(cfg, device.config.flash)
    rec = RecoveryController(device, cfg, injector=inj, raid_map=rmap, golden=golden)
    outcome = rec.read_lpa(2, 0.0)
    assert outcome.status == "reconstructed"
    assert outcome.data == golden[2]  # bit-exact rebuild
    remapped = device.ftl.lookup(2)
    assert remapped != dead
    assert not inj.hard_failed(remapped, outcome.done_ns)
    assert rec.counters["reconstructed_pages"] == 1
    assert rec.counters["remapped_pages"] == 1
    assert rec.counters["retired_blocks"] >= 1
    assert (dead.channel, dead.chip, dead.die, dead.plane, dead.block) in (
        device.ftl.allocator.retired_blocks
    )
    assert rec.corruption_events == 0
    assert len(rec.reconstruction_ns) == 1 and rec.reconstruction_ns[0] > 0
    # The remapped copy now serves cleanly.
    again = rec.read_lpa(2, outcome.done_ns)
    assert again.status == "clean" and again.data == golden[2]


def test_parity_page_is_itself_reconstructable():
    device, golden, rmap = _loaded_device()
    parity_lpa = rmap.parity(0)
    dead = device.ftl.lookup(parity_lpa)
    cfg = FaultConfig(
        failures=(
            HardFault(
                kind="plane", channel=dead.channel, chip=dead.chip,
                die=dead.die, plane=dead.plane,
            ),
        ),
        max_read_retries=0,
    )
    rec = RecoveryController(
        device, cfg, injector=FaultInjector(cfg, device.config.flash),
        raid_map=rmap, golden=golden,
    )
    outcome = rec.read_lpa(parity_lpa, 0.0)
    assert outcome.status == "reconstructed" and outcome.data == golden[parity_lpa]


def test_unrecoverable_without_raid_group():
    device, golden, _ = _loaded_device()
    dead = device.ftl.lookup(1)
    cfg = FaultConfig(
        failures=(
            HardFault(
                kind="plane", channel=dead.channel, chip=dead.chip,
                die=dead.die, plane=dead.plane,
            ),
        ),
        max_read_retries=1,
    )
    rec = RecoveryController(
        device, cfg, injector=FaultInjector(cfg, device.config.flash),
        raid_map=None, golden=golden,
    )
    outcome = rec.read_lpa(1, 0.0)
    assert outcome.status == "failed" and outcome.data is None
    assert rec.counters["unrecoverable_pages"] == 1


# -- campaigns ----------------------------------------------------------------


def _campaign_tenants():
    return [
        TenantSpec(
            name="reader", weight=1.0, kind="read",
            pages_per_command=4, interarrival_ns=10_000.0, region_pages=64,
        ),
    ]


def _small_campaign(seed=3):
    return FaultCampaign(
        assasin_sb_config(),
        FaultConfig(
            seed=seed,
            page_error_rate=0.05,
            uncorrectable_rate=0.01,
            slow_read_rate=0.02,
        ),
        tenants=_campaign_tenants(),
        duration_ns=150_000.0,
        seed=seed,
    ).run()


def test_campaign_serves_correct_data_and_recovers():
    report = _small_campaign()
    assert report.serve.total_completed > 0
    assert report.serve.success_rate >= 0.99  # acceptance criterion
    assert report.corruption_events == 0  # zero served-corrupt pages
    assert report.integrity_errors == 0  # every page still materialises
    assert report.integrity_checked == report.data_pages + report.parity_pages
    assert report.healthy
    assert report.data_pages == 64 and report.parity_pages == 16
    rendered = report.render()
    assert "HEALTHY" in rendered and "recovery" in rendered


def test_campaign_same_seed_same_fingerprint():
    assert _small_campaign().fingerprint() == _small_campaign().fingerprint()


def test_campaign_different_seed_differs():
    assert _small_campaign(seed=3).fingerprint() != _small_campaign(seed=4).fingerprint()


# -- serve-level timeout/retry ------------------------------------------------


def test_command_timeout_counts_and_retries():
    from repro.serve import simulate_serve

    tenants = _campaign_tenants()
    strict = ServeConfig(command_timeout_ns=1_000.0, max_command_retries=1)
    report = simulate_serve(
        assasin_sb_config(), tenants, strict, duration_ns=100_000.0, seed=5
    )
    total_timeouts = sum(t.timeouts for t in report.tenants.values())
    total_retries = sum(t.cmd_retries for t in report.tenants.values())
    assert total_timeouts > 0  # 1 us is far below one page read
    assert total_retries > 0
    relaxed = simulate_serve(
        assasin_sb_config(), tenants, ServeConfig(), duration_ns=100_000.0, seed=5
    )
    assert sum(t.timeouts for t in relaxed.tenants.values()) == 0


# -- config validation --------------------------------------------------------


def test_fault_config_validation():
    with pytest.raises(ConfigError):
        FaultConfig(page_error_rate=1.5)
    with pytest.raises(ConfigError):
        FaultConfig(page_error_rate=0.7, uncorrectable_rate=0.6)
    with pytest.raises(ConfigError):
        FaultConfig(transient_fraction=-0.1)
    with pytest.raises(ConfigError):
        FaultConfig(noisy_bits=0)
    with pytest.raises(ConfigError):
        FaultConfig(raid_k=7)
    with pytest.raises(ConfigError):
        FaultConfig(max_read_retries=-1)


def test_hard_fault_validation():
    with pytest.raises(ConfigError):
        HardFault(kind="die", channel=0)
    with pytest.raises(ConfigError):
        HardFault(kind="chip", channel=0)  # chip index missing
    with pytest.raises(ConfigError):
        HardFault(kind="plane", channel=0, chip=0)  # die/plane missing
    with pytest.raises(ConfigError):
        HardFault(kind="channel", channel=0, onset_ns=-1.0)


def test_serve_config_timeout_validation():
    with pytest.raises(ConfigError):
        ServeConfig(command_timeout_ns=-1.0)
    with pytest.raises(ConfigError):
        ServeConfig(max_command_retries=-1)
