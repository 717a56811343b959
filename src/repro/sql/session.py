"""SQL sessions on the live device: queries as first-class serve tenants.

A :class:`SqlSession` wires the whole stack together. It owns one
:class:`~repro.ssd.device.ComputationalSSD`, a TPC-H database generated at
``gen_scale_factor`` (small, for exact row-level execution) whose tables
are mapped to per-table LPA extents sized at ``target_scale_factor`` (the
scale whose *timing* we model), and a
:class:`~repro.serve.scheduler.ServingLayer` where the session appears as
a driven ``sql`` tenant next to whatever OLTP tenants share the device.

Submitting a query:

1. parse → plan (cached per statement text);
2. a :class:`SiteChooser` prices each base-table scan host-vs-device with
   the session's :class:`~repro.analytics.cost.CostSource` *at the current
   simulated instant* — so an auto session with a
   :class:`~repro.sql.cost.LiveCostSource` reacts to bursts and GC storms;
3. the executor computes the exact result rows (site-independent — the
   differential suite pins this), emitting one trace per scan;
4. each scan becomes a train of morsel-sized NVMe commands —
   :class:`ScompCommand` (psf/parse kernels) for device scans,
   :class:`ReadCommand` for host scans — injected through
   :meth:`ServingLayer.submit_driven`, arbitrating against every other
   tenant on the shared event kernel;
5. when the last morsel completes, the host-CPU tail (text parse for
   host scans, binary ingest of the device's reduced output, measured
   relational-operator work scaled to the target SF) is scheduled, and
   the query completes at its end.

GC runs as a horizon-bounded background process on the same kernel, so an
overwriting tenant degrades scans exactly the way the paper's Figure-9
interference experiments describe.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analytics.cost import StaticCostSource
from repro.analytics.datagen import generate_database
from repro.analytics.engine import BINARY_DENSITY
from repro.analytics.relalg import Table
from repro.analytics.schema import SCHEMA, TABLE_NAMES
from repro.config import SSDConfig, ServeConfig, assasin_sb_config
from repro.errors import FTLError, SqlError
from repro.ftl.gc import GarbageCollector
from repro.report import Report
from repro.serve.metrics import ServeReport
from repro.serve.scheduler import ServingLayer
from repro.serve.workload import TenantSpec
from repro.sql.cost import LiveCostSource
from repro.sql.executor import ScanExecution, SqlExecutor, SqlResult
from repro.sql.exprs import compile_expr
from repro.sql.parser import parse_sql
from repro.sql.planner import PlannedStatement, ScanNode, and_fold, plan_statement
from repro.ssd.device import ComputationalSSD
from repro.ssd.host_interface import ReadCommand, ScompCommand

POLICIES = ("host", "device", "auto")
#: Pages per injected scan command — one flash-page train small enough to
#: interleave with tenant traffic, large enough to amortise dispatch.
MORSEL_PAGES = 64
SQL_TENANT = "sql"


def table_fingerprint(table: Table) -> str:
    """Order- and value-exact digest of a result table.

    ``repr`` round-trips floats exactly, so two tables fingerprint equal
    iff they hold identical columns, row order, and bit-exact values —
    which is precisely the differential suite's notion of "same result".
    """
    digest = hashlib.sha256()
    digest.update("|".join(table.columns).encode())
    for row in table.iter_rows():
        digest.update(
            ";".join(repr(row[name]) for name in table.columns).encode()
        )
    return digest.hexdigest()


@dataclass(frozen=True)
class TableExtent:
    """One table's carved LPA range inside the sql tenant's region."""

    table: str
    base_lpa: int
    pages: int
    text_bytes: int


@dataclass
class ScanPlacement:
    """One placement decision as the chooser made it."""

    table: str
    site: str
    kernel: str
    pages: int
    pushdown: bool
    est_host_ns: float
    est_device_ns: float
    decided_at_ns: float
    #: Sampled-predicate selectivity folded into the device estimate
    #: (1.0 for unfiltered scans or sources without row data).
    est_selectivity: float = 1.0


@dataclass
class QueryRecord:
    """One submitted query's lifecycle on the simulated device."""

    sql: str
    policy: str
    submitted_ns: float
    result: Optional[SqlResult] = None
    placements: List[ScanPlacement] = field(default_factory=list)
    commands: int = 0
    io_done_ns: Optional[float] = None
    host_tail_ns: float = 0.0
    completed_ns: Optional[float] = None
    _outstanding: int = 0
    _on_done: Optional[Callable[["QueryRecord"], None]] = None

    @property
    def done(self) -> bool:
        return self.completed_ns is not None

    @property
    def latency_ns(self) -> float:
        if self.completed_ns is None:
            raise SqlError("query has not completed yet")
        return self.completed_ns - self.submitted_ns

    @property
    def device_scans(self) -> int:
        return sum(1 for p in self.placements if p.site == "device")

    @property
    def host_scans(self) -> int:
        return sum(1 for p in self.placements if p.site == "host")

    def fingerprint(self) -> str:
        if self.result is None:
            raise SqlError("query has no result")
        return table_fingerprint(self.result.table)


@dataclass
class SqlReport(Report):
    """Everything one session produced: query records + the serve report."""

    policy: str
    records: List[QueryRecord]
    serve: ServeReport

    @property
    def sim_events(self) -> int:
        return self.serve.sim_events

    def fingerprint(self) -> Tuple:
        """Each query's text, answer, instants and scan sites, then the
        serve side's fingerprint."""
        return (
            self.policy,
            tuple(
                (
                    r.sql,
                    r.fingerprint(),
                    r.submitted_ns,
                    r.completed_ns,
                    tuple(p.site for p in r.placements),
                )
                for r in self.records
            ),
            self.serve.fingerprint(),
        )

    @property
    def total_latency_ns(self) -> float:
        return sum(r.latency_ns for r in self.records)

    @property
    def mean_latency_ns(self) -> float:
        return self.total_latency_ns / len(self.records) if self.records else 0.0


class SqlSession:
    """A SQL client sharing one computational SSD with serve tenants."""

    def __init__(
        self,
        config: Optional[SSDConfig] = None,
        *,
        gen_scale_factor: float = 0.004,
        target_scale_factor: Optional[float] = None,
        seed: int = 7,
        policy: str = "auto",
        tenants: Sequence[TenantSpec] = (),
        serve_config: Optional[ServeConfig] = None,
        duration_ns: float = 50_000_000.0,
        telemetry=None,
        gc_threshold_pages: int = 128,
        gc_interval_ns: float = 500_000.0,
    ) -> None:
        if policy not in POLICIES:
            raise SqlError(f"unknown policy {policy!r}; known: {POLICIES}")
        self.policy = policy
        self.gen_scale_factor = gen_scale_factor
        self.target_scale_factor = (
            target_scale_factor if target_scale_factor is not None else gen_scale_factor
        )
        self.seed = seed
        self.device = ComputationalSSD(config or assasin_sb_config(), telemetry=telemetry)
        self.db = generate_database(gen_scale_factor, seed=seed)

        # Carve per-table LPA extents (TABLE_NAMES order) sized at the
        # *target* scale factor inside the sql tenant's private region.
        page = self.device.config.flash.page_bytes
        self.extents: Dict[str, TableExtent] = {}
        offset = 0
        for name in TABLE_NAMES:
            text_bytes = SCHEMA[name].bytes_at(self.target_scale_factor)
            pages = max(1, math.ceil(text_bytes / page))
            self.extents[name] = TableExtent(name, offset, pages, text_bytes)
            offset += pages
        # High QoS weight: the analytic tenant's morsels are latency-bound
        # and must not queue behind bulk scomp traffic for *dispatch slots*
        # — device-side congestion should show up on the cores (where the
        # optimiser can see it), not in the submission queue.
        sql_spec = TenantSpec(
            name=SQL_TENANT, weight=8.0, kind="sql",
            pages_per_command=1, region_pages=offset,
        )
        self.layer = ServingLayer(
            self.device,
            list(tenants) + [sql_spec],
            config=serve_config,
            seed=seed,
        )
        # Rebase extents onto the region the layer actually carved.
        base = self.layer.region_base[SQL_TENANT]
        self.extents = {
            n: TableExtent(e.table, e.base_lpa + base, e.pages, e.text_bytes)
            for n, e in self.extents.items()
        }
        for kernel in ("psf", "parse"):
            self.layer.service.ensure_sample(kernel)

        self.cost = (
            LiveCostSource(self.layer)
            if policy == "auto"
            else StaticCostSource.calibrate(self.device)
        )
        self.records: List[QueryRecord] = []
        self._plan_cache: Dict[str, PlannedStatement] = {}
        self._gc = GarbageCollector(self.device.ftl, self.device.array)
        self.gc_threshold_pages = gc_threshold_pages
        self.gc_interval_ns = gc_interval_ns
        registry = self.layer.telemetry.counters
        self._g_invalid = registry.gauge("gc.invalid_pages")
        self._c_collections = registry.counter("gc.collections")
        self._c_relocated = registry.counter("gc.pages_relocated")
        self.layer.begin(duration_ns)
        self.layer.events.spawn(self._gc_driver(duration_ns), label="gc-driver")

    # -- background GC ---------------------------------------------------------

    def _gc_driver(self, horizon_ns: float):
        """Collect whenever invalid pages cross the threshold, until the
        traffic horizon; bounded so :meth:`finish` always drains."""
        sim = self.layer.events
        while sim.now < horizon_ns:
            yield sim.wait_until(min(sim.now + self.gc_interval_ns, horizon_ns))
            invalid = len(self.device.ftl.invalid_pages)
            self._g_invalid.set(float(invalid))
            if invalid < self.gc_threshold_pages:
                continue
            before = self._gc.pages_relocated
            try:
                yield from self._gc.collect_process(sim, sim.now)
            except FTLError:
                continue  # every invalid page sits in an open block
            self._c_collections.inc()
            self._c_relocated.inc(self._gc.pages_relocated - before)
            self._g_invalid.set(float(len(self.device.ftl.invalid_pages)))

    # -- placement -------------------------------------------------------------

    def _choose(self, node: ScanNode, record: QueryRecord) -> str:
        extent = self.extents[node.table]
        kernel = "psf" if node.predicates else "parse"
        now = self.layer.events.now
        est_host = self.cost.host_scan_ns(extent.text_bytes, at_ns=now)
        # Device scans ship back filtered/projected binary tuples: the
        # column fraction bounds the width, the sampled-predicate
        # selectivity (live sources; 1.0 from static ones) the row count.
        fraction = len(node.columns) / len(SCHEMA[node.table].columns)
        selectivity = 1.0
        if node.predicates:
            try:
                predicate = compile_expr(and_fold(node.predicates), {})
            except Exception:
                predicate = None  # IN over a scalar subquery etc.: no estimate
            selectivity = self.cost.scan_selectivity(
                self.db[node.table], predicate, at_ns=now
            )
        out_bytes = extent.text_bytes * fraction * BINARY_DENSITY * selectivity
        est_device = (
            self.cost.device_scan_ns(extent.pages, kernel, at_ns=now)
            + out_bytes / self.cost.link_bytes_per_ns
            + self.cost.ingest_binary_ns(out_bytes)
        )
        if self.policy == "auto":
            site = "device" if est_device <= est_host else "host"
        else:
            site = self.policy
        record.placements.append(
            ScanPlacement(
                table=node.table, site=site, kernel=kernel, pages=extent.pages,
                pushdown=bool(node.predicates), est_host_ns=est_host,
                est_device_ns=est_device, decided_at_ns=now,
                est_selectivity=selectivity,
            )
        )
        return site

    # -- query lifecycle -------------------------------------------------------

    def submit(
        self, sql: str, on_done: Optional[Callable[[QueryRecord], None]] = None
    ) -> QueryRecord:
        """Parse, place, execute, and put the query's I/O on the device."""
        planned = self._plan_cache.get(sql)
        if planned is None:
            planned = plan_statement(parse_sql(sql))
            self._plan_cache[sql] = planned
        record = QueryRecord(
            sql=sql, policy=self.policy, submitted_ns=self.layer.events.now
        )
        record._on_done = on_done
        executor = SqlExecutor(
            self.db, chooser=lambda node: self._choose(node, record)
        )
        record.result = executor.execute(planned)
        self.records.append(record)
        commands = [
            (scan, lpas)
            for scan in record.result.scans
            for lpas in self._morsels(scan)
        ]
        record._outstanding = record.commands = len(commands)
        if not commands:  # no base-table scans (not reachable via planner)
            self._finish_query(record)
            return record
        host = self.device.host
        for scan, lpas in commands:
            if scan.site == "device":
                command = ScompCommand(
                    command_id=host.next_id(), kernel=scan.kernel, lpa_lists=[lpas]
                )
            else:
                command = ReadCommand(command_id=host.next_id(), lpas=lpas)
            self.layer.submit_driven(
                SQL_TENANT, command, len(lpas),
                on_complete=lambda cmd, r=record: self._scan_complete(r),
            )
        return record

    def _morsels(self, scan: ScanExecution) -> List[List[int]]:
        extent = self.extents[scan.table]
        return [
            list(
                range(
                    extent.base_lpa + start,
                    extent.base_lpa + min(start + MORSEL_PAGES, extent.pages),
                )
            )
            for start in range(0, extent.pages, MORSEL_PAGES)
        ]

    def _scan_complete(self, record: QueryRecord) -> None:
        record._outstanding -= 1
        if record._outstanding > 0:
            return
        record.io_done_ns = self.layer.events.now
        record.host_tail_ns = self._host_tail(record)
        self.layer.events.schedule(
            record.host_tail_ns,
            lambda: self._finish_query(record),
            label="sql:host-tail",
        )

    def _host_tail(self, record: QueryRecord) -> float:
        """Host CPU after the last morsel: parse raw text for host scans,
        ingest the device's reduced binary output, then the measured
        relational-operator work scaled to the target SF."""
        assert record.result is not None
        tail = 0.0
        for scan in record.result.scans:
            extent = self.extents[scan.table]
            if scan.site == "host":
                tail += self.cost.parse_text_ns(extent.text_bytes)
            else:
                fraction = len(scan.columns) / len(SCHEMA[scan.table].columns)
                reduced = extent.text_bytes * fraction * BINARY_DENSITY
                if scan.pushdown:
                    reduced *= scan.selectivity
                tail += self.cost.ingest_binary_ns(reduced)
        ratio = self.target_scale_factor / self.gen_scale_factor
        tail += self.cost.relational_ns(record.result.table.stats, ratio)
        return tail

    def _finish_query(self, record: QueryRecord) -> None:
        record.completed_ns = self.layer.events.now
        if record._on_done is not None:
            record._on_done(record)

    # -- driving ---------------------------------------------------------------

    def drain(self, record: QueryRecord) -> QueryRecord:
        """Advance the shared event kernel until ``record`` completes."""
        while not record.done and self.layer.events.step():
            pass
        if not record.done:
            raise SqlError("event queue drained before the query completed")
        return record

    def run_serial(self, statements: Sequence[str]) -> List[QueryRecord]:
        """Run statements back-to-back, each submitted as its predecessor
        completes (in simulated time), against live background traffic."""
        return [self.drain(self.submit(sql)) for sql in statements]

    def finish(self) -> SqlReport:
        """Drain every pending event and assemble the session report."""
        serve = self.layer.finish()
        pending = [r for r in self.records if not r.done]
        if pending:
            raise SqlError(f"{len(pending)} queries never completed")
        return SqlReport(policy=self.policy, records=self.records, serve=serve)
