"""Concurrent scomp requests: diverse functions share the device (§I, §V-D)."""

import pytest

from repro.config import SSDConfig, assasin_sb_config, assasin_sb_core
from repro.errors import DeviceError
from repro.kernels import get_kernel
from repro.ssd.device import ComputationalSSD
from repro.ssd.firmware import BackgroundIO

DATA = 16 << 20


def test_two_kernels_share_the_device():
    device = ComputationalSSD(assasin_sb_config())
    results = device.offload_concurrent(
        [(get_kernel("stat"), DATA), (get_kernel("raid6"), DATA)]
    )
    assert len(results) == 2
    stat, raid6 = results
    assert stat.kernel_name == "stat" and raid6.kernel_name == "raid6"
    # Cores were partitioned, not shared.
    assert stat.num_cores + raid6.num_cores == 8
    assert stat.num_cores >= 1 and raid6.num_cores >= 1
    # Both make real progress.
    assert stat.throughput_gbps > 1.0
    assert raid6.throughput_gbps > 0.5
    # Aggregate flash consumption stays within the array.
    assert stat.throughput_gbps + raid6.throughput_gbps <= 8.3


def test_concurrency_costs_throughput_vs_exclusive():
    device = ComputationalSSD(assasin_sb_config())
    exclusive = device.offload(get_kernel("stat"), DATA)
    shared_device = ComputationalSSD(assasin_sb_config())
    shared = shared_device.offload_concurrent(
        [(get_kernel("stat"), DATA), (get_kernel("scan"), DATA)]
    )[0]
    assert shared.num_cores < 8
    assert shared.throughput_gbps < exclusive.throughput_gbps


def test_core_partition_proportional_to_data():
    device = ComputationalSSD(assasin_sb_config())
    big, small = device.offload_concurrent(
        [(get_kernel("scan"), 24 << 20), (get_kernel("scan"), 8 << 20)]
    )
    assert big.num_cores > small.num_cores
    # Similar completion times: the partition balances the work.
    assert big.completion_ns == pytest.approx(small.completion_ns, rel=0.35)


def test_concurrent_rejects_channel_local():
    cfg = SSDConfig(name="local", core=assasin_sb_core(), num_cores=8, crossbar=False)
    device = ComputationalSSD(cfg)
    with pytest.raises(DeviceError):
        device.offload_concurrent([(get_kernel("scan"), DATA), (get_kernel("stat"), DATA)])


def test_concurrent_rejects_too_many_requests():
    device = ComputationalSSD(assasin_sb_config())
    with pytest.raises(DeviceError):
        device.offload_concurrent([(get_kernel("scan"), 4 << 20)] * 9)
    with pytest.raises(DeviceError):
        device.firmware.simulate_concurrent([])


def test_pre_kernel_shims_are_gone():
    """The deprecation window is closed: the pre-kernel names no longer exist.

    `Firmware.run_concurrent` (alias of `simulate_concurrent`) and the
    `repro.utils.events.EventQueue` alias of `repro.sim.Simulator` shipped
    one release as deprecated shims; both are now removed so stale callers
    fail loudly instead of drifting.
    """
    device = ComputationalSSD(assasin_sb_config())
    assert not hasattr(device.firmware, "run_concurrent")
    with pytest.raises(ImportError):
        from repro.utils.events import EventQueue  # noqa: F401
    import repro.utils

    assert not hasattr(repro.utils, "EventQueue")
    assert not hasattr(repro.utils, "Event")


def test_background_io_coexists_with_offload():
    device = ComputationalSSD(assasin_sb_config())
    kernel = get_kernel("scan")
    sample = device.sample_kernel(kernel)
    background = BackgroundIO(lpas=list(range(0, 512, 5)), interval_ns=8192.0)
    result = device.offload(kernel, DATA, sample=sample, background=background)
    assert background.latencies_ns, "background reads were serviced"
    assert background.mean_latency_ns < 1e6  # stays sub-millisecond
    assert result.throughput_gbps > 5.0  # offload barely perturbed at 0.5 GB/s


def test_concurrent_read_path_requests_report_their_output():
    """A read-path request returns its results over the link, so it reports
    ``int(bytes_in * out_ratio)`` bytes out beside another request just as
    it does alone; scan emits nothing."""
    psf = get_kernel("psf")
    alone = ComputationalSSD(assasin_sb_config()).offload(psf, 3 << 20)
    shared, scan = ComputationalSSD(assasin_sb_config()).offload_concurrent(
        [(psf, 3 << 20), (get_kernel("scan"), 1 << 20)]
    )
    assert alone.bytes_out > 0
    assert shared.bytes_out == alone.bytes_out
    assert shared.bytes_out == int(shared.bytes_in * shared.core_sample.out_ratio)
    assert scan.bytes_out == 0
