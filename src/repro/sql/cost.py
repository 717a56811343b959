"""Live-telemetry cost source for host-vs-device scan placement.

:class:`LiveCostSource` starts from the calibrated
:class:`~repro.analytics.cost.StaticCostSource` rates (sampled off the very
device it prices) and then *listens* to the shared simulation kernel: it
registers as a completion observer on the :class:`ServingLayer`, keeps an
EWMA of observed scomp service time per page, and folds three pressure
terms into every device estimate at decision time:

* **core backlog** — how far in the future the stream-core pool frees up
  (:meth:`PooledResource.free_at` against the current instant), i.e. work
  already committed to the cores;
* **queue pressure** — submission-queue depth + in-flight + spilled
  backlog, scaled by the observed per-command service EWMA, i.e. work
  committed to the device but not yet on a core;
* **GC backlog** — the FTL's *collectible* invalid pages (what the greedy
  collector is about to churn through; invalid pages parked in open write
  points are excluded because no victim can be picked there), priced as
  relocation work stealing channel/plane slots from scans.

The host estimate stays the calibrated one: the host CPU is dedicated to
the query in this model, so its rate does not drift with device load. The
result is the paper's placement story — under tenant bursts or GC storms
the optimiser routes scans to the host, in quiet windows it pushes them
down — driven by the same counters and timelines everything else uses.
"""

from __future__ import annotations

from typing import Optional

from repro.analytics.cost import HostCostModel, StaticCostSource
from repro.ssd.host_interface import ScompCommand

#: Rows sampled (evenly strided) for the pushed-predicate selectivity
#: estimate; enough for the placement decision, cheap enough per query.
SELECTIVITY_SAMPLE_ROWS = 256


class LiveCostSource(StaticCostSource):
    """Telemetry-backed placement costs over one :class:`ServingLayer`."""

    name = "live"

    def __init__(
        self,
        layer,
        host: Optional[HostCostModel] = None,
        ewma_alpha: float = 0.2,
    ) -> None:
        static = StaticCostSource.calibrate(layer.device, host=host)
        super().__init__(
            host=static.host,
            device_ns_per_page=static.device_ns_per_page,
            num_cores=static.num_cores,
            page_bytes=static.page_bytes,
        )
        self.layer = layer
        self.ewma_alpha = ewma_alpha
        self.observations = 0
        #: Observed scomp service per page / per command (None until the
        #: first completion is seen; estimates fall back to static rates).
        self.ewma_ns_per_page: Optional[float] = None
        self.ewma_cmd_ns: Optional[float] = None
        registry = layer.telemetry.counters
        self._g_page = registry.gauge("sql.cost.scomp_ns_per_page")
        self._g_device = registry.gauge("sql.cost.device_scan_ns")
        self._g_host = registry.gauge("sql.cost.host_scan_ns")
        self._g_selectivity = registry.gauge("sql.cost.scan_selectivity")
        self._c_seen = registry.counter("sql.cost.observations")
        layer.add_completion_observer(self._observe)

    # -- telemetry ingestion ---------------------------------------------------

    def _observe(self, cmd) -> None:
        """Fold one completed scomp command into the service-time EWMA."""
        if not isinstance(cmd.command, ScompCommand):
            return
        service_ns = cmd.completed_ns - cmd.dispatched_ns
        if service_ns <= 0 or cmd.pages <= 0:
            return
        alpha = self.ewma_alpha
        per_page = service_ns / cmd.pages
        if self.ewma_ns_per_page is None:
            self.ewma_ns_per_page = per_page
            self.ewma_cmd_ns = service_ns
        else:
            self.ewma_ns_per_page += alpha * (per_page - self.ewma_ns_per_page)
            self.ewma_cmd_ns += alpha * (service_ns - self.ewma_cmd_ns)
        self.observations += 1
        self._c_seen.inc()
        self._g_page.set(self.ewma_ns_per_page)

    # -- pressure terms --------------------------------------------------------

    def core_backlog_ns(self, at_ns: float) -> float:
        """Mean committed-but-unfinished time across the stream cores."""
        cores = self.layer.service.cores
        waits = [max(0.0, cores.free_at(u) - at_ns) for u in range(cores.units)]
        return sum(waits) / len(waits) if waits else 0.0

    def queue_pressure_ns(self) -> float:
        """Queued work not yet on a core, priced at the observed EWMA."""
        depth = sum(len(pair.sq) for pair in self.layer.pairs)
        depth += self.layer.inflight + self.layer.backlog_depth()
        slots = max(1, self.layer.config.max_inflight)
        per_cmd = self.ewma_cmd_ns if self.ewma_cmd_ns is not None else 0.0
        return depth / slots * per_cmd

    def collectible_invalid_pages(self) -> int:
        """Invalid pages in *closed* blocks — what the collector can reclaim.

        Invalid pages still inside open write points are invisible to the
        greedy victim picker and cost the device nothing until their block
        fills, so the raw invalid count wildly over-states GC pressure on a
        lightly-written device.
        """
        return self.layer.device.ftl.collectible_invalid_pages()

    def gc_backlog_ns(self) -> float:
        """Committed background relocation work, as time stolen from scans.

        Each collectible invalid page implies roughly one relocation pass
        the collector will run. Only the parts a scan *shares* are priced:
        the two channel crossings (read out, program in) and the array-read
        lane time — programs land on the chips' separate write lanes and
        barely delay fetches. A ranking heuristic: it places "GC has real
        work queued" above "invalid pages parked in open blocks", not the
        exact interference.
        """
        flash = self.layer.device.config.flash
        planes = (
            flash.channels
            * flash.chips_per_channel
            * flash.dies_per_chip
            * flash.planes_per_die
        )
        per_page = (
            2.0 * flash.page_transfer_ns / max(1, flash.channels)
            + flash.read_latency_ns / max(1, planes)
        )
        return self.collectible_invalid_pages() * per_page

    # -- placement estimates ---------------------------------------------------

    def scan_selectivity(self, table, predicate, at_ns: float = 0.0) -> float:
        """Sampled-predicate selectivity: evaluate the pushed predicate, a
        compiled ``(columns, fn)`` pair, on an evenly-strided row sample of
        the actual table.

        The static bound prices a device scan's output by column fraction
        alone, which wildly over-states what a highly selective filter
        ships back up the link — enough to flip the placement the wrong
        way. Sampling the real rows (the session holds the table the
        device would scan) fixes the estimate for the price of a few
        hundred predicate evaluations. Un-evaluable predicates (e.g.
        scalar-subquery references, columns the table lacks) fall back to
        the conservative 1.0; the estimate is floored at one surviving
        sample row so a zero-match sample never prices the output at
        exactly nothing.
        """
        nrows = getattr(table, "nrows", 0)
        if predicate is None or nrows <= 0:
            return 1.0
        stride = max(1, nrows // SELECTIVITY_SAMPLE_ROWS)
        columns, fn = predicate
        try:
            # A predicate that reads no column still needs a column to
            # carry the sample's rows.
            sample = table.take(range(0, nrows, stride), columns or list(table.columns)[:1])
            survived = sample.filter_by(columns, fn).nrows
        except Exception:
            return 1.0  # no estimate beats a wrong one
        estimate = max(survived, 1) / sample.nrows
        self._g_selectivity.set(estimate)
        return estimate

    def device_scan_ns(
        self, pages: int, kernel: str = "psf", at_ns: float = 0.0
    ) -> float:
        # The observed EWMA is NOT folded into the base rate: it absorbs
        # queueing from whatever ran recently (including a query's own
        # morsel trains), so it prices *queued* work well but would keep
        # the device looking loaded long after it drained. The base stays
        # the calibrated rate; pressure is measured at this instant.
        base = super().device_scan_ns(pages, kernel, at_ns)
        estimate = (
            base
            + self.core_backlog_ns(at_ns)
            + self.queue_pressure_ns()
            + self.gc_backlog_ns()
        )
        self._g_device.set(estimate)
        return estimate

    def host_scan_ns(self, text_bytes: float, at_ns: float = 0.0) -> float:
        estimate = super().host_scan_ns(text_bytes, at_ns)
        self._g_host.set(estimate)
        return estimate
