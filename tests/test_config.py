"""Tests for the Table IV configuration definitions."""

import pytest

from repro.config import (
    CONFIG_NAMES,
    CacheConfig,
    CoreConfig,
    DataSource,
    EngineKind,
    FaultConfig,
    FlashConfig,
    PrefetcherKind,
    ScratchpadConfig,
    ServeConfig,
    StreamBufferConfig,
    all_configs,
    assasin_sb_config,
    assasin_sp_config,
    baseline_config,
    named_config,
    udp_config,
)
from repro.errors import ConfigError, ServeError
from repro.fleet import FleetConfig
from repro.serve import TenantSpec
from repro.utils.units import KIB
from repro.zns import ZnsConfig


def test_all_six_table4_configs_exist():
    assert CONFIG_NAMES == ("Baseline", "UDP", "Prefetch", "AssasinSp", "AssasinSb", "AssasinSb$")
    configs = all_configs()
    assert set(configs) == set(CONFIG_NAMES)


def test_named_config_rejects_unknown():
    with pytest.raises(ConfigError):
        named_config("NotAConfig")


def test_baseline_matches_table4():
    cfg = baseline_config()
    assert cfg.num_cores == 8
    assert cfg.core.frequency_ghz == 1.0
    assert cfg.core.data_source is DataSource.DRAM
    assert cfg.core.l1d.size_bytes == 32 * KIB and cfg.core.l1d.ways == 8
    assert cfg.core.l2.size_bytes == 256 * KIB and cfg.core.l2.ways == 16
    assert cfg.core.l1d.line_bytes == 64
    assert not cfg.core.stream_isa


def test_udp_is_accelerator_with_256k_scratchpad():
    cfg = udp_config()
    assert cfg.core.engine is EngineKind.UDP
    assert cfg.core.scratchpad.size_bytes == 256 * KIB
    assert cfg.core.data_source is DataSource.DRAM


def test_prefetch_uses_dcpt():
    cfg = named_config("Prefetch")
    assert cfg.core.prefetcher is PrefetcherKind.DCPT
    assert cfg.core.l1d is not None and cfg.core.l2 is not None


def test_assasin_sp_has_pingpong_and_bypasses_dram():
    cfg = assasin_sp_config()
    assert cfg.core.data_source is DataSource.FLASH_STREAM
    assert cfg.core.bypasses_dram
    assert cfg.core.pingpong.size_bytes == 32 * KIB  # one half; 2x32 = "64KB I"
    assert cfg.core.scratchpad.size_bytes == 64 * KIB
    assert cfg.core.streambuffer is None


def test_assasin_sb_streambuffer_s8_p2():
    cfg = assasin_sb_config()
    sb = cfg.core.streambuffer
    assert sb.num_streams == 8 and sb.pages_per_stream == 2
    assert sb.capacity_bytes == 64 * KIB
    assert cfg.core.stream_isa


def test_assasin_sb_cache_adds_l1d():
    cfg = named_config("AssasinSb$")
    assert cfg.core.l1d is not None
    assert cfg.core.streambuffer is not None and cfg.core.stream_isa


def test_flash_array_is_8gbps():
    flash = FlashConfig()
    assert flash.channels == 8
    assert flash.array_bandwidth_bytes_per_ns == pytest.approx(8.0)
    assert flash.page_transfer_ns == pytest.approx(4096.0)


def test_flash_capacity_consistent():
    flash = FlashConfig()
    assert flash.capacity_bytes == (
        flash.channels
        * flash.chips_per_channel
        * flash.dies_per_chip
        * flash.planes_per_die
        * flash.blocks_per_plane
        * flash.pages_per_block
        * flash.page_bytes
    )


def test_cache_config_validates_geometry():
    with pytest.raises(ConfigError):
        CacheConfig(size_bytes=1000, ways=3, line_bytes=64)
    with pytest.raises(ConfigError):
        CacheConfig(size_bytes=0, ways=1)


def test_stream_isa_requires_streambuffer():
    with pytest.raises(ConfigError):
        CoreConfig(name="bad", stream_isa=True)


def test_flash_stream_source_needs_buffering():
    with pytest.raises(ConfigError):
        CoreConfig(name="bad", data_source=DataSource.FLASH_STREAM)


def test_prefetcher_requires_l1():
    with pytest.raises(ConfigError):
        CoreConfig(name="bad", prefetcher=PrefetcherKind.DCPT)


def test_channel_local_requires_core_per_channel():
    from repro.config import SSDConfig, assasin_sb_core

    with pytest.raises(ConfigError):
        SSDConfig(name="x", core=assasin_sb_core(), num_cores=4, crossbar=False)
    # One core per channel is legal (the Figure 7 alternative architecture).
    cfg = SSDConfig(name="x", core=assasin_sb_core(), num_cores=8, crossbar=False)
    assert cfg.num_cores == cfg.flash.channels


def test_with_cores_copies():
    cfg = assasin_sb_config()
    scaled = cfg.with_cores(4)
    assert scaled.num_cores == 4 and cfg.num_cores == 8
    assert scaled.core == cfg.core


def test_pipeline_model_validated_and_defaults_static():
    from repro.config import PIPELINE_MODELS, CoreConfig

    assert PIPELINE_MODELS == ("static", "predictive")
    assert assasin_sb_config().core.pipeline_model == "static"
    with pytest.raises(ConfigError, match="pipeline model"):
        CoreConfig(name="x", pipeline_model="oracle")


def test_with_pipeline_model_copies():
    import dataclasses

    cfg = assasin_sb_config()
    predictive = cfg.with_pipeline_model("predictive")
    assert predictive.core.pipeline_model == "predictive"
    assert cfg.core.pipeline_model == "static"  # original untouched
    assert predictive.core == dataclasses.replace(
        cfg.core, pipeline_model="predictive"
    )
    with pytest.raises(ConfigError, match="pipeline model"):
        cfg.with_pipeline_model("oracle")


def test_scratchpad_validation():
    with pytest.raises(ConfigError):
        ScratchpadConfig(size_bytes=-1)
    with pytest.raises(ConfigError):
        ScratchpadConfig(size_bytes=1024, access_latency_cycles=0)


def test_streambuffer_validation():
    with pytest.raises(ConfigError):
        StreamBufferConfig(num_streams=0)
    with pytest.raises(ConfigError):
        StreamBufferConfig(page_bytes=100)


# Every count field of the five campaign configs, each set to a fraction
# inside the field's range (so only the integer check can reject it):
# each case was accepted, or failed mid-run with a bare TypeError.
COUNT_FIELDS = [
    (FaultConfig, "raid_k", 2.5),
    (FaultConfig, "max_read_retries", 2.5),
    (FaultConfig, "noisy_bits", 2.5),
    (ServeConfig, "queue_depth", 2.5),
    (ServeConfig, "max_inflight", 2.5),
    (ServeConfig, "quantum_pages", 2.5),
    (ServeConfig, "max_command_retries", 2.5),
    (TenantSpec, "pages_per_command", 2.5),
    (TenantSpec, "outstanding", 2.5),
    (TenantSpec, "region_pages", 4096.5),
    (ZnsConfig, "num_tenants", 2.5),
    (ZnsConfig, "max_levels", 2.5),
    (ZnsConfig, "memtable_records", 2.5),
    (ZnsConfig, "l0_runs_trigger", 2.5),
    (ZnsConfig, "fanout", 2.5),
    (ZnsConfig, "compaction_runs", 2.5),
    (ZnsConfig, "max_open_zones", 2.5),
    (FleetConfig, "num_devices", 2.5),
    (FleetConfig, "virtual_nodes", 2.5),
    (FleetConfig, "hedge_window", 128.5),
    (FleetConfig, "max_inflight_per_device", 2.5),
    (FleetConfig, "shard_pages", 2.5),
    (FleetConfig, "placement_fanout", 2.5),
    (FleetConfig, "raid_k", 2.5),
    (FleetConfig, "slow_device", 2.5),
    (FleetConfig, "kill_device", 2.5),
]


@pytest.mark.parametrize(
    "cls, field, value",
    COUNT_FIELDS,
    ids=[f"{cls.__name__}.{field}" for cls, field, _ in COUNT_FIELDS],
)
def test_count_fields_reject_fractions_with_a_typed_error(cls, field, value):
    kwargs = {"name": "t"} if cls is TenantSpec else {}
    error = ServeError if cls is TenantSpec else ConfigError
    # Construction only: no campaign runs.
    with pytest.raises(error, match=field):
        cls(**kwargs, **{field: value})
