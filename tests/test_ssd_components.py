"""Tests for crossbar, DRAM buffer, and host interface components."""

import pytest

from repro.config import CoreConfig, DRAMConfig, HostInterfaceConfig, baseline_core, udp_core
from repro.config import assasin_sb_core
from repro.errors import DeviceError
from repro.ssd.crossbar import CROSSBAR_LATENCY_NS, Crossbar
from repro.ssd.dram_buffer import DRAMBuffer
from repro.ssd.host_interface import HostInterface, ReadCommand, ScompCommand


class TestCrossbar:
    def test_enabled_routes_anywhere(self):
        xbar = Crossbar(8, 4, enabled=True)
        assert xbar.route(3, 7) == CROSSBAR_LATENCY_NS

    def test_channel_local_restricts(self):
        xbar = Crossbar(8, 8, enabled=False)
        assert xbar.route(2, 2) == 0
        with pytest.raises(DeviceError):
            xbar.route(2, 3)

    def test_port_bounds(self):
        xbar = Crossbar(2, 2)
        with pytest.raises(DeviceError):
            xbar.route(2, 0)
        with pytest.raises(DeviceError):
            xbar.route(0, 2)


class TestDRAMBuffer:
    def test_traffic_baseline_doubles(self):
        # Figure 4's blue arrows: staged in, read back; results go both ways.
        t = DRAMBuffer.traffic_per_input_byte(baseline_core(), 1.0, 0.0)
        assert t.total == pytest.approx(2.0)
        t = DRAMBuffer.traffic_per_input_byte(baseline_core(), 1.0, 0.5)
        assert t.total == pytest.approx(3.0)

    def test_traffic_assasin_bypasses(self):
        t = DRAMBuffer.traffic_per_input_byte(assasin_sb_core(), 0.0, 0.5)
        assert t.total == pytest.approx(0.0)

    def test_traffic_udp_includes_copy(self):
        t = DRAMBuffer.traffic_per_input_byte(udp_core(), 1.0, 0.0)
        assert t.staging_in == 1.0 and t.core_reads >= 1.0

    def test_bandwidth_cap(self):
        buf = DRAMBuffer(DRAMConfig(bandwidth_bytes_per_ns=8.0))
        t = DRAMBuffer.traffic_per_input_byte(baseline_core(), 1.0, 0.0)
        assert buf.bandwidth_cap_bytes_per_ns(t) == pytest.approx(4.0)
        zero = DRAMBuffer.traffic_per_input_byte(assasin_sb_core(), 0.0, 0.0)
        assert buf.bandwidth_cap_bytes_per_ns(zero) == float("inf")


class TestHostInterface:
    def test_transfer_timing(self):
        host = HostInterface(HostInterfaceConfig(bandwidth_bytes_per_ns=8.0, latency_ns=1000.0))
        done = host.transfer(8000, ready_ns=0.0, to_host=True)
        assert done == pytest.approx(1000.0 + 1000.0)
        assert host.bytes_to_host == 8000

    def test_link_serialises(self):
        host = HostInterface(HostInterfaceConfig(bandwidth_bytes_per_ns=8.0, latency_ns=0.0))
        first = host.transfer(8000, 0.0, to_host=True)
        second = host.transfer(8000, 0.0, to_host=False)
        assert second == pytest.approx(first + 1000.0)

    def test_scomp_command_shape(self):
        cmd = ScompCommand(command_id=1, kernel="filter", lpa_lists=[[0, 1, 2], [3]])
        assert cmd.num_streams() == 2
        assert cmd.total_pages() == 4

    def test_duplicate_command_rejected(self):
        host = HostInterface(HostInterfaceConfig())
        host.submit(ReadCommand(command_id=5))
        with pytest.raises(DeviceError):
            host.submit(ReadCommand(command_id=5))

    def test_completion_latency(self):
        host = HostInterface(HostInterfaceConfig())
        cmd = ReadCommand(command_id=host.next_id())
        completion = host.complete(cmd, submitted_ns=100.0, completed_ns=600.0, bytes_transferred=42)
        assert completion.latency_ns == pytest.approx(500.0)
        assert host.completions == [completion]
