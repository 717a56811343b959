"""The firmware's retiming loop against its oracle, one process per engine.

``Firmware._run_tasks`` retimes every engine of a run in one loop over a
heap of page issues, result-page programs and background reads, with no
simulator unless the caller shares one. ``tests/firmware_oracle.py`` keeps
the retiming as it was: a generator process per engine, an event per
result page and a background process on a :class:`repro.sim.Simulator`.
Each case runs the same offload on two fresh devices, one per side, and
compares every :class:`~repro.ssd.firmware.OffloadResult` field, the
background latencies, the flash array's counters, lanes and bus intervals
after the run, and the FTL's maps.
"""

import dataclasses
import re

import pytest

from repro.config import FlashConfig, SSDConfig, all_configs, assasin_sb_config, assasin_sb_core
from repro.errors import FTLError
from repro.ftl.gc import GarbageCollector
from repro.kernels import get_kernel
from repro.sim import SimProcessError, Simulator, SimTimeError
from repro.ssd.device import ComputationalSSD
from repro.ssd.firmware import BackgroundIO

from tests.firmware_oracle import use_process_firmware

CONFIGS = {
    **all_configs(),
    "ChannelLocal": SSDConfig(
        name="ChannelLocal", core=assasin_sb_core(), num_cores=8, crossbar=False
    ),
}
KERNELS = ("stat", "raid4", "raid6", "aes", "psf", "scan")
SKEWS = (0.0, 0.3, 0.6)
#: 519 pages: 65 per engine on eight engines, so issues run past the
#: eager window, and an odd count leaves the engines uneven.
DATA_BYTES = (2 << 20) + 7 * 4096


def _devices(config, skew=0.0):
    """A device with the loop and one with the oracle's processes."""
    return (
        ComputationalSSD(config, layout_skew=skew),
        use_process_firmware(ComputationalSSD(config, layout_skew=skew)),
    )


def _result(result):
    return dataclasses.asdict(result)


def _state(device):
    """What a retiming leaves behind on the flash array and the FTL."""
    array, ftl = device.array, device.ftl
    allocator = ftl.allocator
    return {
        "served": (array.reads_served, array.writes_served),
        "channel_bytes": array.channel_bytes(),
        "horizon": array.horizon_ns,
        "bus": (array._bus_starts, array._bus_ends, array._transfers),
        "lanes": (array._read_free, array._read_busy, array._program_free, array._program_busy),
        "counters": device.telemetry.counters.snapshot(),
        "map": ftl._map,
        "p2l": ftl._p2l,
        "invalid": list(ftl.invalid_pages),
        "open_blocks": set(allocator.open_blocks()),
        "allocated": allocator.allocated,
    }


def assert_same(loop, processes, loop_results, process_results):
    assert [_result(r) for r in loop_results] == [_result(r) for r in process_results]
    assert _state(loop) == _state(processes)


@pytest.mark.parametrize("skew", SKEWS)
@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("config", list(CONFIGS))
def test_read_path_matches_the_processes(config, kernel, skew):
    loop, processes = _devices(CONFIGS[config], skew)
    results = [device.offload(get_kernel(kernel), DATA_BYTES) for device in (loop, processes)]
    assert_same(loop, processes, results[:1], results[1:])


@pytest.mark.parametrize("kernel", ["raid4", "raid6", "aes"])
@pytest.mark.parametrize("config", ["Baseline", "AssasinSb", "AssasinSb$"])
def test_write_path_matches_the_processes(config, kernel):
    loop, processes = _devices(CONFIGS[config])
    results = [
        device.offload_write_path(get_kernel(kernel), DATA_BYTES) for device in (loop, processes)
    ]
    assert_same(loop, processes, results[:1], results[1:])


@pytest.mark.parametrize(
    "requests",
    [
        [("stat", 4 << 20), ("scan", 2 << 20)],
        [("raid4", 3 << 20), ("psf", 1 << 20), ("aes", 2 << 20)],
    ],
)
def test_concurrent_requests_match_the_processes(requests):
    loop, processes = _devices(assasin_sb_config())
    kernel_sizes = [(get_kernel(name), size) for name, size in requests]
    assert_same(
        loop,
        processes,
        loop.offload_concurrent(kernel_sizes),
        processes.offload_concurrent(kernel_sizes),
    )


@pytest.mark.parametrize(
    "requests",
    [
        [("stat", 4 << 20), ("scan", 2 << 20)],
        [("raid4", 3 << 20), ("psf", 1 << 20), ("aes", 2 << 20)],
    ],
)
def test_concurrent_results_report_their_own_stall(requests):
    """Each request reports its own engines' stall: the stalls sum to the
    run's total, a request's stall is the sum of its engines' shifts, and
    its limiter follows from its own stall."""
    device = ComputationalSSD(assasin_sb_config())
    firmware = device.firmware
    tasks = []
    original = firmware._run_tasks

    def run_tasks(planned, *args, **kwargs):
        original(planned, *args, **kwargs)
        tasks.extend([task for task in request.tasks] for request in planned)

    firmware._run_tasks = run_tasks
    results = device.offload_concurrent([(get_kernel(name), size) for name, size in requests])
    assert len(tasks) == len(results)
    total = sum(task.shift_ns for engines in tasks for task in engines)
    assert total > 0
    assert sum(r.flash_stall_ns for r in results) == pytest.approx(total, rel=1e-12)
    for result, engines in zip(results, tasks):
        assert result.flash_stall_ns == pytest.approx(
            sum(task.shift_ns for task in engines), rel=1e-12
        )
        if result.limiter != "dram":
            stalled = result.flash_stall_ns > 0.02 * result.completion_ns
            assert result.limiter == ("flash" if stalled else "core")


@pytest.mark.parametrize("interval_ns", [8192.0, 700.0])
def test_background_reads_match_the_processes(interval_ns):
    loop, processes = _devices(assasin_sb_config())
    backgrounds = [
        BackgroundIO(lpas=list(range(0, 512, 5)), interval_ns=interval_ns) for _ in range(2)
    ]
    results = [
        device.offload(get_kernel("stat"), 4 << 20, background=background)
        for device, background in zip((loop, processes), backgrounds)
    ]
    assert_same(loop, processes, results[:1], results[1:])
    assert len(backgrounds[0].latencies_ns) > 10
    assert list(backgrounds[0].latencies_ns) == list(backgrounds[1].latencies_ns)


def test_functional_offload_matches_the_processes():
    data = bytes(range(256)) * 600
    loop, processes = _devices(assasin_sb_config())
    outcomes = [device.offload_functional(get_kernel("stat"), data) for device in (loop, processes)]
    assert outcomes[0][1:] == outcomes[1][1:]
    assert_same(loop, processes, [outcomes[0][0]], [outcomes[1][0]])


# -- a caller's simulator ------------------------------------------------------

GC_FLASH = FlashConfig(
    channels=8,
    chips_per_channel=1,
    dies_per_chip=1,
    planes_per_die=1,
    blocks_per_plane=8,
    pages_per_block=32,
)


def _gc_rig(oracle, kernel, gc_at_ns):
    """The GC-contention rig of ``tests/test_sim_kernel.py``: an offload
    and a GC pass on one simulator. Returns the result, the GC result, the
    device and the ``(op, page, issue)`` log of every flash operation."""
    config = SSDConfig(name="gc-rig", core=assasin_sb_core(), num_cores=8, flash=GC_FLASH)
    device = ComputationalSSD(config)
    if oracle:
        use_process_firmware(device)
    lpas = device.mount_dataset(2 << 20)
    for index, lpa in enumerate(lpas):
        if (index // GC_FLASH.channels) % 2 == 0:
            device.ftl.write(lpa)
    log = []
    array = device.array
    read, write = array.service_read, array.service_write

    def logged_read(ppa, issue_ns):
        log.append(("read", ppa, issue_ns))
        return read(ppa, issue_ns)

    def logged_write(ppa, issue_ns, data=None):
        log.append(("write", ppa, issue_ns))
        return write(ppa, issue_ns, data)

    array.service_read, array.service_write = logged_read, logged_write
    gc = GarbageCollector(device.ftl, array)
    sim = Simulator()
    sim.spawn(gc.collect_process(sim, at_ns=gc_at_ns), label="gc")
    offload = get_kernel(kernel)
    result = device.firmware.run_offload(offload, device.sample_kernel(offload), lpas, sim=sim)
    return result, gc.last_result, device, log


@pytest.mark.parametrize("gc_at_ns", [0, 20_000])
@pytest.mark.parametrize("kernel", ["scan", "raid4"])
def test_shared_simulator_gc_matches_the_processes(kernel, gc_at_ns):
    """On a caller's simulator the loop is one process that wakes at each
    new instant and runs all its entries due then; the GC pass runs
    between its instants. Every flash operation, of the offload and of the
    GC pass, is issued in the processes' order."""
    loop = _gc_rig(False, kernel, gc_at_ns)
    processes = _gc_rig(True, kernel, gc_at_ns)
    parted = next(
        (i for i, (a, b) in enumerate(zip(loop[3], processes[3])) if a != b), None
    )
    assert parted is None, f"the flash operations part at {loop[3][parted]}"
    assert loop[3] == processes[3]
    assert loop[1] == processes[1] and loop[1].relocated > 0
    assert_same(loop[2], processes[2], [loop[0]], [processes[0]])


def test_private_loop_builds_no_simulator(monkeypatch):
    """A request alone on the device builds no simulator, process or event."""
    import repro.sim.kernel as kernel_module

    def refuse(*args, **kwargs):
        raise AssertionError("the private loop built a simulator")

    monkeypatch.setattr(kernel_module.Simulator, "__init__", refuse)
    monkeypatch.setattr(kernel_module.Event, "__init__", refuse)
    device = ComputationalSSD(assasin_sb_config())
    device.offload(get_kernel("raid4"), 1 << 20)
    device.offload_write_path(get_kernel("raid4"), 1 << 20)
    device.offload_concurrent([(get_kernel("stat"), 1 << 20), (get_kernel("scan"), 1 << 20)])


def test_eager_window_is_read_at_call_time(monkeypatch):
    """The ablation benchmark patches the window on the module."""
    import repro.ssd.firmware as fw

    results = {}
    for window in (1, fw.EAGER_WINDOW_PAGES):
        monkeypatch.setattr(fw, "EAGER_WINDOW_PAGES", window)
        loop, processes = _devices(assasin_sb_config())
        results[window] = [
            device.offload(get_kernel("stat"), DATA_BYTES) for device in (loop, processes)
        ]
        assert_same(loop, processes, results[window][:1], results[window][1:])
    assert results[1][0].completion_ns > results[fw.EAGER_WINDOW_PAGES][0].completion_ns


def test_non_finite_background_instant_is_refused_like_the_processes():
    """A background read's instant goes through ``as_ns``, which refuses
    NaN with a :class:`~repro.sim.SimTimeError` on both sides."""
    for device in _devices(assasin_sb_config()):
        background = BackgroundIO(lpas=[0, 1, 2], interval_ns=float("nan"))
        with pytest.raises(SimTimeError, match="non-finite"):
            device.offload(get_kernel("stat"), 1 << 20, background=background)
        assert len(background.latencies_ns) == 1


def test_unmapped_input_page_raises_the_ftl_error():
    """An unmapped LPA in the input: the private loop raises the FTL's own
    error, and the loop on a caller's simulator raises it as the failure
    of its process, as each engine's process did."""
    offload = get_kernel("stat")
    unmapped = 1 << 30
    cause = re.escape(f"FTLError('LPA {unmapped} is unmapped')")
    for side, device in zip(("loop", "processes"), _devices(assasin_sb_config())):
        for shared in (False, True):
            lpas = device.mount_dataset(1 << 20) + [unmapped]
            sim = Simulator() if shared else None
            with pytest.raises(Exception) as info:
                device.firmware.run_offload(offload, device.sample_kernel(offload), lpas, sim=sim)
            error = info.value
            if side == "loop" and not shared:
                assert type(error) is FTLError and str(error) == f"LPA {unmapped} is unmapped"
                continue
            process = "retiming" if side == "loop" else r"engine\d+"
            assert type(error) is SimProcessError
            assert re.fullmatch(rf"process '{process}' raised at t=\d+ns: {cause}", str(error))
            assert type(error.__cause__) is FTLError
