"""The benchmark's five workloads: one per campaign family of the simulator.

Each workload is a closed loop of *ops* run by one thread. Op ``i`` draws
its inputs from ``seed + i``; an op is a set-up phase (device, fleet or
session construction, preload, datagen, calibration and the core-phase
sampling done at construction) followed by a run phase. The SQL workload
runs several ops (queries) per set-up and tears the session down with
``finish()``. Correctness checks run after the timed loop, so they warm
nothing the ops use.

``SCALES`` holds the sizes: ``full`` is what the benchmark measures,
``smoke`` the seconds-long variant its tests use.
"""

from __future__ import annotations

import math
import random
from statistics import mean, median
from typing import Dict, List, Sequence

from repro.analytics.datagen import generate_database
from repro.analytics.queries import run_query
from repro.config import ServeConfig, assasin_sb_config, named_config
from repro.fleet import FleetConfig
from repro.fleet.campaign import FleetCampaign
from repro.kernels import get_kernel
from repro.kernels.validation import validate_kernel
from repro.serve import TenantSpec
from repro.serve.scheduler import ServingLayer
from repro.sql.session import SqlSession, table_fingerprint
from repro.sql.tpch import TPCH_SQL
from repro.ssd.device import ComputationalSSD
from repro.utils.stats import geomean, percentile
from repro.zns import ZnsCampaign, ZnsConfig

MS = 1_000_000.0

SCALES = {
    "full": {
        "min_ops": 40,
        "offload_mib": 16,
        "serve_ns": 4 * MS,
        "fleet_ns": 4 * MS,
        "zns_ns": 2.5 * MS,
        "sql_sf": 0.002,
        "sql_ns": 200 * MS,
        "sql_queries": (6, 14, 19, 12, 1, 3, 5, 10) * 2,
    },
    "smoke": {
        "min_ops": 3,
        "offload_mib": 1,
        "serve_ns": 0.4 * MS,
        "fleet_ns": 1.5 * MS,
        "zns_ns": 1.2 * MS,
        "sql_sf": 0.001,
        "sql_ns": 20 * MS,
        "sql_queries": (6, 14),
    },
}


class Workload:
    """Protocol of one workload; subclasses fill in the phases."""

    name = ""
    #: Ops sharing one set-up (and one teardown).
    ops_per_setup = 1
    #: A run with a time budget stops only after a whole round, so every
    #: run holds the same mix of op kinds whatever its op count; a multiple
    #: of ``ops_per_setup``.
    ops_per_round = 1

    def __init__(self, seed: int, scale: Dict) -> None:
        self.seed = seed
        self.scale = scale

    def setup(self, i: int):
        """Set-up phase of op ``i`` (timed as ``setup_s``); returns a context."""
        raise NotImplementedError

    def run(self, ctx, i: int):
        """Run phase of op ``i`` (timed as ``op_s``); returns its result."""
        raise NotImplementedError

    def teardown(self, ctx) -> None:
        """Closes a set-up (timed, counted in the per-op wall time only)."""

    def check(self, result) -> List[str]:
        """Correctness problems of one op's result (untimed)."""
        return []

    def digest(self, result) -> str:
        """The op's simulated outcome as a canonical string."""
        raise NotImplementedError

    def model(self, results: Sequence) -> Dict[str, float]:
        """Simulated aggregates over ``results`` (the ``model.*`` values)."""
        return {}


class OffloadFig13(Workload):
    """The paper's Figure 13: standalone offloads across configurations."""

    name = "offload_fig13"
    KERNELS = ("stat", "raid4", "raid6", "aes", "psf")
    CONFIGS = ("AssasinSb", "AssasinSp", "Baseline")
    SKEWS = (0.0, 0.3, 0.6)
    #: A round is the whole grid, so every run prices the same points; a
    #: run's p75 shifted by up to 10% when it held a part-grid.
    ops_per_round = len(KERNELS) * len(CONFIGS) * len(SKEWS)

    def __init__(self, seed, scale):
        super().__init__(seed, scale)
        self._validation: Dict[str, List[str]] = {}

    def point(self, i: int):
        n_k, n_c = len(self.KERNELS), len(self.CONFIGS)
        kernel = self.KERNELS[i % n_k]
        config = self.CONFIGS[(i // n_k) % n_c]
        # Each block of 15 ops gives every configuration a different skew;
        # three blocks cover the whole grid.
        skew = self.SKEWS[(i // n_k + i // (n_k * n_c)) % len(self.SKEWS)]
        # Up to 63 extra pages: a seed-dependent size, same cost to ~1%.
        data_bytes = (self.scale["offload_mib"] << 20) + random.Random(
            self.seed + i
        ).randrange(64) * 4096
        return kernel, config, skew, data_bytes

    def setup(self, i):
        _, config, skew, _ = self.point(i)
        return ComputationalSSD(named_config(config), layout_skew=skew)

    def run(self, device, i):
        point = self.point(i)
        return point, device.offload(get_kernel(point[0]), point[3])

    def check(self, result):
        (kernel, _, _, data_bytes), offload = result
        if kernel not in self._validation:
            # Stream and memory programs against the Python reference, once.
            self._validation[kernel] = validate_kernel(get_kernel(kernel)).problems
        problems = list(self._validation[kernel])
        expected = math.ceil(data_bytes / 4096) * 4096
        if offload.bytes_in != expected:
            problems.append(f"{kernel}: {offload.bytes_in} bytes in, expected {expected}")
        if not (offload.completion_ns > 0 and math.isfinite(offload.completion_ns)):
            problems.append(f"{kernel}: completion time {offload.completion_ns}")
        return problems

    def digest(self, result):
        point, r = result
        return repr((
            point, r.bytes_in, r.bytes_out, round(r.completion_ns, 3), r.limiter,
            r.core_sample.cycles, r.core_sample.instructions,
        ))

    def model(self, results):
        return {"model.gbps_geomean": geomean(r.throughput_gbps for _, r in results)}


class ServeMixed(Workload):
    """One AssasinSb serving three open-loop tenants under wrr arbitration."""

    name = "serve_mixed"
    TENANTS = (
        TenantSpec(name="hot", weight=4.0, kind="scomp", kernel="stat",
                   pages_per_command=8, interarrival_ns=6_000.0),
        TenantSpec(name="reader", weight=1.0, kind="read",
                   pages_per_command=4, interarrival_ns=9_000.0),
        TenantSpec(name="writer", weight=1.0, kind="write", overwrite=True,
                   pages_per_command=16, interarrival_ns=400_000.0, region_pages=2048),
    )

    def setup(self, i):
        device = ComputationalSSD(assasin_sb_config())
        return ServingLayer(
            device, self.TENANTS, config=ServeConfig(arbitration="wrr", max_inflight=32),
            seed=self.seed + i,
        )

    def run(self, layer, i):
        return layer.run(self.scale["serve_ns"])

    def check(self, report):
        return [
            f"tenant {t.tenant}: {t.submitted} submitted != "
            f"{t.completed} completed + {t.dropped} dropped"
            for t in report.tenants.values()
            if t.submitted != t.completed + t.dropped
        ]

    def digest(self, report):
        return repr(report.fingerprint())

    def model(self, reports):
        return {
            "model.p99_us": median(r.tenants["hot"].p99_latency_ns / 1e3 for r in reports),
            "model.core_util": mean(
                sum(r.core_utilisation) / len(r.core_utilisation) for r in reports
            ),
        }


class FleetHedged(Workload):
    """Eight devices, hash placement, a straggler, hedged reads."""

    name = "fleet_hedged"
    TENANTS = (
        TenantSpec(name="hot", weight=4.0, kind="scomp", kernel="stat",
                   pages_per_command=4, interarrival_ns=20_000.0, region_pages=64),
        TenantSpec(name="reader", weight=1.0, kind="read",
                   pages_per_command=4, interarrival_ns=15_000.0, region_pages=64),
        TenantSpec(name="writer", weight=1.0, kind="write",
                   pages_per_command=4, interarrival_ns=40_000.0, region_pages=32),
    )
    FLEET = FleetConfig(
        num_devices=8, shard_pages=8, placement="hash", hedging=True,
        slow_device=1, slow_read_rate=0.2, slow_read_extra_ns=300_000.0,
    )

    def setup(self, i):
        campaign = FleetCampaign(
            assasin_sb_config(), self.FLEET, tenants=self.TENANTS,
            duration_ns=self.scale["fleet_ns"], seed=self.seed + i, verify_integrity=False,
        )
        # The preload is set-up: run it now, and have run() reuse its result.
        recoveries = campaign.prepare()
        campaign.prepare = lambda: recoveries
        return campaign

    def run(self, campaign, i):
        return campaign.run()

    def check(self, report):
        problems = []
        if report.success_rate != 1.0:
            problems.append(f"success rate {report.success_rate}")
        if report.corruption_events:
            problems.append(f"{report.corruption_events} corruption events")
        if report.hedges_issued <= 0:
            problems.append("no hedges issued")
        return problems

    def digest(self, report):
        return report.fingerprint_hex()

    def model(self, reports):
        issued = sum(r.hedges_issued for r in reports)
        return {
            "model.p99_us": median(r.p99_latency_ns / 1e3 for r in reports),
            "model.hedge_win_rate": sum(r.hedges_won for r in reports) / issued if issued else 0.0,
        }


class ZnsLsm(Workload):
    """The ZNS LSM campaign with cost-based compaction placement."""

    name = "zns_lsm"

    def setup(self, i):
        return ZnsCampaign(
            ZnsConfig(seed=self.seed + i, duration_ns=self.scale["zns_ns"], compaction="auto")
        )

    def run(self, campaign, i):
        return campaign.run()

    def check(self, report):
        problems = []
        found = report.get_memtable_hits + report.get_run_hits + report.get_misses
        if found != report.gets:
            problems.append(f"{found} get outcomes for {report.gets} gets")
        if report.compactions < 1:
            problems.append("no compaction ran")
        return problems

    def digest(self, report):
        return report.fingerprint_hex()

    def model(self, reports):
        return {
            "model.p99_us": median(r.get_p99_ns / 1e3 for r in reports),
            "model.compaction_link_kib": sum(r.compaction_link_bytes for r in reports) / 1024,
        }


class SqlTpch(Workload):
    """TPC-H queries through live SQL sessions beside OLTP traffic."""

    name = "sql_tpch"
    TENANTS = (
        TenantSpec(name="oltp", weight=2.0, kind="scomp", kernel="psf",
                   pages_per_command=48, interarrival_ns=60_000.0,
                   arrival="burst", burst_on_ns=4e6, burst_off_ns=18e6),
        TenantSpec(name="writer", weight=1.0, kind="write", overwrite=True,
                   pages_per_command=16, interarrival_ns=400_000.0, region_pages=2048),
    )

    def __init__(self, seed, scale):
        super().__init__(seed, scale)
        self.queries = scale["sql_queries"]
        self.ops_per_setup = self.ops_per_round = len(self.queries)
        self._reference: Dict[int, Dict[int, str]] = {}

    def session_seed(self, i: int) -> int:
        # Session j (database and background traffic) is seeded seed + j:
        # query costs depend on the data, so a run averages several.
        return self.seed + i // self.ops_per_setup

    def setup(self, i):
        return SqlSession(
            policy="auto", gen_scale_factor=self.scale["sql_sf"], seed=self.session_seed(i),
            tenants=self.TENANTS, serve_config=ServeConfig(max_inflight=32),
            duration_ns=self.scale["sql_ns"],
        )

    def run(self, session, i):
        number = self.queries[i % len(self.queries)]
        return session.seed, number, session.drain(session.submit(TPCH_SQL[number]))

    def teardown(self, session):
        session.finish()

    def check(self, result):
        seed, number, record = result
        if seed not in self._reference:
            db = generate_database(self.scale["sql_sf"], seed=seed)
            self._reference[seed] = {
                n: table_fingerprint(run_query(db, n)) for n in set(self.queries)
            }
        if record.fingerprint() != self._reference[seed][number]:
            return [f"q{number} (seed {seed}): result differs from the hand-written plan"]
        return []

    def digest(self, result):
        seed, number, record = result
        return repr((seed, number, record.fingerprint(), record.latency_ns,
                     [p.site for p in record.placements]))

    def model(self, results):
        return {"model.p99_us": percentile([r.latency_ns / 1e3 for *_, r in results], 99.0)}


WORKLOADS = {w.name: w for w in (OffloadFig13, ServeMixed, FleetHedged, ZnsLsm, SqlTpch)}

