"""Tests for tenant specs and deterministic workload generation."""

import pytest

from repro.config import HostInterfaceConfig
from repro.errors import ServeError
from repro.serve.workload import TenantSpec, WorkloadGenerator, default_tenants
from repro.ssd.host_interface import HostInterface, ReadCommand, ScompCommand, WriteCommand


def _host():
    return HostInterface(HostInterfaceConfig())


def test_spec_validation():
    with pytest.raises(ServeError):
        TenantSpec(name="")
    with pytest.raises(ServeError):
        TenantSpec(name="t", weight=0.0)
    with pytest.raises(ServeError):
        TenantSpec(name="t", kind="erase")
    with pytest.raises(ServeError):
        TenantSpec(name="t", arrival="bursty")
    with pytest.raises(ServeError):
        TenantSpec(name="t", pages_per_command=0)
    with pytest.raises(ServeError):
        TenantSpec(name="t", interarrival_ns=0.0)
    with pytest.raises(ServeError):
        TenantSpec(name="t", closed_loop=True, outstanding=0)
    with pytest.raises(ServeError):
        TenantSpec(name="t", think_ns=-1.0)
    with pytest.raises(ServeError):
        TenantSpec(name="t", pages_per_command=8, region_pages=4)


def test_same_seed_same_arrivals_and_lpas():
    spec = TenantSpec(name="t", pages_per_command=4, region_pages=64)
    a = WorkloadGenerator(spec, index=0, seed=11, lpa_base=0)
    b = WorkloadGenerator(spec, index=0, seed=11, lpa_base=0)
    assert [a.next_arrival_ns(0.0) for _ in range(20)] == [
        b.next_arrival_ns(0.0) for _ in range(20)
    ]
    lpas_a = [a.make_command(_host(), 0.0).command.lpa_lists for _ in range(5)]
    lpas_b = [b.make_command(_host(), 0.0).command.lpa_lists for _ in range(5)]
    assert lpas_a == lpas_b


def test_different_seed_or_index_decorrelates():
    spec = TenantSpec(name="t")
    a = WorkloadGenerator(spec, index=0, seed=1, lpa_base=0)
    b = WorkloadGenerator(spec, index=0, seed=2, lpa_base=0)
    c = WorkloadGenerator(spec, index=1, seed=1, lpa_base=0)
    draws = lambda g: [g.next_arrival_ns(0.0) for _ in range(8)]
    da, db, dc = draws(a), draws(b), draws(c)
    assert da != db and da != dc


def test_fixed_arrival_process_is_constant():
    spec = TenantSpec(name="t", arrival="fixed", interarrival_ns=500.0)
    gen = WorkloadGenerator(spec, index=0, seed=0, lpa_base=0)
    assert {gen.next_arrival_ns(0.0) for _ in range(10)} == {500.0}
    assert gen.next_arrival_ns(1_000.0) == 1_500.0


def test_commands_stay_inside_tenant_region():
    spec = TenantSpec(name="t", kind="read", pages_per_command=8, region_pages=32)
    gen = WorkloadGenerator(spec, index=0, seed=3, lpa_base=1000)
    host = _host()
    for _ in range(50):
        cmd = gen.make_command(host, 0.0)
        assert min(cmd.command.lpas) >= 1000
        assert max(cmd.command.lpas) < 1032
        # Contiguous run of the right length.
        assert cmd.command.lpas == list(
            range(cmd.command.lpas[0], cmd.command.lpas[0] + 8)
        )


def test_command_kinds_map_to_nvme_types():
    host = _host()
    scomp = WorkloadGenerator(
        TenantSpec(name="s", kind="scomp", kernel="scan"), 0, 0, 0
    ).make_command(host, 5.0)
    read = WorkloadGenerator(TenantSpec(name="r", kind="read"), 1, 0, 0).make_command(host, 5.0)
    write = WorkloadGenerator(TenantSpec(name="w", kind="write"), 2, 0, 0).make_command(host, 5.0)
    assert isinstance(scomp.command, ScompCommand) and scomp.command.kernel == "scan"
    assert isinstance(read.command, ReadCommand)
    assert isinstance(write.command, WriteCommand)
    assert scomp.submitted_ns == 5.0
    # Ids minted from one host interface never collide.
    ids = {scomp.command.command_id, read.command.command_id, write.command.command_id}
    assert len(ids) == 3


def test_default_tenants_are_a_mixed_trio():
    specs = default_tenants()
    assert len(specs) == 3
    kinds = {s.kind for s in specs}
    assert "scomp" in kinds and "read" in kinds
    assert max(s.weight for s in specs) > min(s.weight for s in specs)
