"""Cost models for host-vs-device placement of analytic scans.

The paper's host stack is SparkSQL reading TPC-H text through the
datasource API; its scan path (row materialisation, type coercion, JVM
overheads) is far slower than a hand-tuned C parser, which is precisely why
pushing Parse/Select/Filter into the SSD pays off. The constants in
:class:`HostCostModel` are calibrated to that regime:

* text scan+parse ~0.30 GB/s aggregate on the 4-core/8-thread host,
* binary columnar ingest an order of magnitude faster,
* per-row costs for joins/aggregation/sort on materialised rows.

Relational-operator work is *measured* (the mini engine counts rows per
operator while actually executing the query) and scaled linearly to the
target scale factor.

Costing is exposed behind one :class:`CostSource` interface so callers
never care whether an estimate came from calibrated constants or from live
telemetry. :class:`StaticCostSource` is the calibrated fallback: its device
rates are *sampled from the simulator itself* (``device.sample_kernel``)
rather than hand-maintained constants, which removes the silent drift
between this module and the sim-kernel timings. The live-telemetry source
(:class:`repro.sql.cost.LiveCostSource`) subclasses it and adds queue/core/
GC pressure terms observed on the shared simulation kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from repro.analytics.relalg import ExecutionStats
from repro.errors import AnalyticsError

#: PCIe Gen4 x4, one direction (shared with the engine's link model).
LINK_BYTES_PER_NS = 8.0


@dataclass(frozen=True)
class HostCostModel:
    """Per-unit costs of the host analytics stack (nanoseconds)."""

    text_parse_ns_per_byte: float = 1.0 / 0.30  # SparkSQL-style text scan
    binary_ingest_ns_per_byte: float = 1.0 / 4.0  # columnar binary ingest
    filter_ns_per_row: float = 12.0
    join_probe_ns_per_row: float = 28.0
    join_build_ns_per_row: float = 45.0
    aggregate_ns_per_row: float = 32.0
    sort_ns_per_row: float = 130.0

    def parse_text_ns(self, nbytes: float) -> float:
        return nbytes * self.text_parse_ns_per_byte

    def ingest_binary_ns(self, nbytes: float) -> float:
        return nbytes * self.binary_ingest_ns_per_byte

    def relational_ns(self, stats: ExecutionStats, scale_ratio: float = 1.0) -> float:
        """Cost of the measured operator work, scaled to the target SF."""
        raw = (
            stats.rows_filtered_in * self.filter_ns_per_row
            + stats.rows_joined * self.join_probe_ns_per_row
            + stats.build_rows * self.join_build_ns_per_row
            + stats.rows_aggregated * self.aggregate_ns_per_row
            + stats.rows_sorted * self.sort_ns_per_row
        )
        return raw * scale_ratio


class CostSource:
    """One API for pricing a scan on the host or on the device.

    Implementations answer two placement questions — ``host_scan_ns`` and
    ``device_scan_ns`` — plus the host-side primitives the engine composes
    (text parse, binary ingest, measured relational-operator work). ``at_ns``
    is the simulated instant of the decision; static sources ignore it,
    telemetry-backed sources price the queueing state at that moment.
    """

    name = "abstract"

    def host_scan_ns(self, text_bytes: float, at_ns: float = 0.0) -> float:
        raise NotImplementedError

    def device_scan_ns(
        self, pages: int, kernel: str = "psf", at_ns: float = 0.0
    ) -> float:
        raise NotImplementedError

    def scan_selectivity(self, table, predicate, at_ns: float = 0.0) -> float:
        """Expected fraction of rows surviving a pushed predicate, given as
        a compiled ``(columns, fn)`` pair (:func:`repro.sql.exprs.compile_expr`).

        Sources without row data answer 1.0 — the conservative bound where
        the column fraction alone caps a device scan's output. The
        telemetry-backed source (:class:`repro.sql.cost.LiveCostSource`)
        overrides this with a sampled-predicate estimate.
        """
        return 1.0

    def parse_text_ns(self, nbytes: float) -> float:
        raise NotImplementedError

    def ingest_binary_ns(self, nbytes: float) -> float:
        raise NotImplementedError

    def relational_ns(self, stats: ExecutionStats, scale_ratio: float = 1.0) -> float:
        raise NotImplementedError


class StaticCostSource(CostSource):
    """Calibrated-constants fallback: host model + sampled device rates.

    ``device_ns_per_page`` maps kernel name -> sampled core-nanoseconds to
    stream one flash page; :meth:`calibrate` fills it from a live device so
    the numbers are always the simulator's own, never a stale copy.
    """

    name = "static"

    def __init__(
        self,
        host: Optional[HostCostModel] = None,
        device_ns_per_page: Optional[Dict[str, float]] = None,
        num_cores: int = 8,
        page_bytes: int = 4096,
        link_bytes_per_ns: float = LINK_BYTES_PER_NS,
    ) -> None:
        if num_cores <= 0:
            raise AnalyticsError("cost source needs a positive core count")
        self.host = host or HostCostModel()
        self.device_ns_per_page = dict(device_ns_per_page or {})
        self.num_cores = num_cores
        self.page_bytes = page_bytes
        self.link_bytes_per_ns = link_bytes_per_ns

    @classmethod
    def calibrate(
        cls,
        device,
        kernels: Iterable[str] = ("psf", "parse"),
        host: Optional[HostCostModel] = None,
    ) -> "StaticCostSource":
        """Sample each kernel's core phase on ``device`` and build a source.

        The sampling goes through ``device.sample_kernel`` and so through
        the process-wide pricing memo
        (:data:`repro.kernels.pricing.PRICING_CACHE`): repeated
        calibrations of same-config devices — every device of a fleet,
        every policy arm of a comparison, the serving layer behind a SQL
        session — price from one sampled run per kernel.  A changed device
        config re-samples because the memo key embeds the config digest.
        """
        from repro.kernels import get_kernel

        page = device.config.flash.page_bytes
        period_ns = device.config.core.clock_period_ns
        rates = {}
        for name in kernels:
            sample = device.sample_kernel(get_kernel(name))
            rates[name] = sample.cycles_per_byte * page * period_ns
        return cls(
            host=host,
            device_ns_per_page=rates,
            num_cores=device.config.num_cores,
            page_bytes=page,
        )

    # -- placement estimates ---------------------------------------------------

    def host_scan_ns(self, text_bytes: float, at_ns: float = 0.0) -> float:
        """Ship the text over the link and parse it on the host (overlapped)."""
        transfer = text_bytes / self.link_bytes_per_ns
        return max(transfer, self.host.parse_text_ns(text_bytes))

    def device_scan_ns(
        self, pages: int, kernel: str = "psf", at_ns: float = 0.0
    ) -> float:
        """Stream ``pages`` through the kernel across an idle core pool."""
        try:
            per_page = self.device_ns_per_page[kernel]
        except KeyError:
            raise AnalyticsError(
                f"no calibrated device rate for kernel {kernel!r}; "
                f"known: {sorted(self.device_ns_per_page)}"
            ) from None
        return pages * per_page / self.num_cores

    # -- host primitives (delegate to the calibrated host model) ---------------

    def parse_text_ns(self, nbytes: float) -> float:
        return self.host.parse_text_ns(nbytes)

    def ingest_binary_ns(self, nbytes: float) -> float:
        return self.host.ingest_binary_ns(nbytes)

    def relational_ns(self, stats: ExecutionStats, scale_ratio: float = 1.0) -> float:
        return self.host.relational_ns(stats, scale_ratio)
