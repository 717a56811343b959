"""Device-side serving scheduler: queue pairs → arbiter → engines/channels.

The :class:`ServingLayer` is the firmware's admission-and-dispatch loop for
multi-tenant traffic. It runs on the unified discrete-event kernel
(:class:`~repro.sim.Simulator`) and keeps at most
``ServeConfig.max_inflight`` commands on the device at once; whenever a
slot frees, the arbiter picks the next tenant queue. The stream-core pool
is a :class:`~repro.sim.PooledResource` — scomp commands take the
least-loaded core's lane, exactly the greedy discipline the firmware's
offload path applies.

Service timing reuses the device's existing greedy timelines — the flash
array (per-plane/per-bus FIFOs), the crossbar hop, the host link — so the
serving layer sees exactly the contention the offload path models, and
issue order is always nondecreasing in time because all issues happen at
event-dispatch instants:

* **read**: every page is fetched through the FTL + flash array, then the
  data crosses the host link.
* **write**: data crosses the link from the host, then each page takes a
  channel-bus slot (program latency hides behind plane parallelism and the
  write cache, as in the firmware write path).
* **scomp**: pages are fetched through the FTL + array + crossbar to the
  least-loaded stream core, which consumes them in order at the kernel's
  sampled cycles/byte; only the (usually small) result crosses the link.

Closed-loop tenants resubmit on completion; open-loop tenants arrive on
their seeded process until ``duration_ns`` and the device then drains.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence

from repro.config import ServeConfig
from repro.errors import ServeError
from repro.serve.arbiter import make_arbiter
from repro.serve.metrics import ServeReport, TenantMetrics, build_tenant_metrics
from repro.serve.queues import QueuePair, ServeCommand, TenantLabels, make_queue_pairs
from repro.serve.service import DeviceService
from repro.serve.workload import TenantSpec, WorkloadGenerator
from repro.sim import Simulator
from repro.ssd.host_interface import ReadCommand, ScompCommand


class ServingLayer:
    """Multi-tenant NVMe serving on top of one :class:`ComputationalSSD`."""

    def __init__(
        self,
        device,
        tenants: Sequence[TenantSpec],
        config: Optional[ServeConfig] = None,
        seed: int = 0,
    ) -> None:
        if not tenants:
            raise ServeError("serving layer needs at least one tenant")
        self.device = device
        self.specs = list(tenants)
        self.config = config or ServeConfig()
        self.seed = seed
        #: Shared device telemetry: the event queue stamps one instant per
        #: dispatched callback, the serving layer adds queue-wait, firmware
        #: service, and stream-core spans, and the per-tenant histograms
        #: live in the device's counter registry (``serve.<tenant>.*``).
        self.telemetry = device.telemetry
        self._tracer = self.telemetry.tracer
        self._tracing = self._tracer.enabled
        self.events = Simulator(tracer=self._tracer)
        self.pairs: List[QueuePair] = make_queue_pairs(
            self.specs, self.config.queue_depth, self.config.weights or None
        )
        self._pair_by_name = {p.tenant: p for p in self.pairs}
        self._labels = {spec.name: TenantLabels.of(spec.name) for spec in self.specs}
        self._gen_by_name: Dict[str, WorkloadGenerator] = {}
        self.arbiter = make_arbiter(self.config.arbitration, self.config.quantum_pages)
        self.metrics: Dict[str, TenantMetrics] = build_tenant_metrics(
            self.specs, [p.weight for p in self.pairs], registry=self.telemetry.counters
        )

        # Carve a private, pre-populated LPA region per tenant.
        self.generators: List[WorkloadGenerator] = []
        #: First LPA of each tenant's region; driven tenants (the SQL
        #: session) address their scans inside their own carved region.
        self.region_base: Dict[str, int] = {}
        base = 0
        for index, spec in enumerate(self.specs):
            gen = WorkloadGenerator(spec, index, seed, base)
            self.generators.append(gen)
            self._gen_by_name[spec.name] = gen
            self.region_base[spec.name] = base
            self.device.ftl.populate(range(base, base + spec.region_pages))
            base += spec.region_pages

        #: The per-device service paths (core-phase samples, stream-core
        #: pool, out-LPA allocator, the fault campaign's recovery ladder)
        #: live in a :class:`DeviceService` so the fleet router can reuse
        #: them against N peer devices.
        self.service = DeviceService(
            device, kernels=[s.kernel for s in self.specs if s.kind == "scomp"]
        )
        self._inflight = 0
        self._duration_ns = 0.0
        self._horizon_ns = 0.0
        self._began = False
        # Driven-command plumbing (SQL sessions): per-tenant overflow
        # backlogs (driven commands spill instead of dropping), completion
        # hooks keyed by command id, and completion observers (the live
        # cost source taps these for its service-time EWMA).
        self._backlog: Dict[str, Deque[ServeCommand]] = {}
        self._hooks: Dict[int, Callable[[ServeCommand], None]] = {}
        self._observers: List[Callable[[ServeCommand], None]] = []

    # -- run loop --------------------------------------------------------------

    def run(self, duration_ns: float = 2_000_000.0) -> ServeReport:
        """Admit traffic for ``duration_ns``, drain, and report."""
        self.begin(duration_ns)
        return self.finish()

    def begin(self, duration_ns: float = 2_000_000.0) -> None:
        """Start admitting tenant traffic without running the event loop.

        Driven sessions (the SQL REPL) call ``begin`` once, then inject
        their own commands via :meth:`submit_driven` and advance the shared
        simulator themselves; :meth:`finish` drains and reports. ``sql``
        tenants generate no traffic of their own, so they are skipped here.
        """
        if duration_ns <= 0:
            raise ServeError("serve duration must be positive")
        if self._began:
            raise ServeError("serving layer already began admitting traffic")
        self._began = True
        self._duration_ns = duration_ns
        for gen in self.generators:
            if gen.spec.kind == "sql":
                continue
            labels = self._labels[gen.spec.name]
            if gen.spec.closed_loop:
                for _ in range(gen.spec.outstanding):
                    self.events.schedule_at(
                        0.0, lambda g=gen: self._submit(g), label=labels.submit
                    )
            else:
                first = gen.next_arrival_ns(0.0)
                if first < duration_ns:
                    self.events.schedule_at(
                        first, lambda g=gen: self._arrive(g), label=labels.arrive
                    )

    def finish(self) -> ServeReport:
        """Drain every pending event and build the report."""
        if not self._began:
            raise ServeError("serving layer never began admitting traffic")
        self.events.run()
        return self._report()

    # -- traffic ---------------------------------------------------------------

    def _arrive(self, gen: WorkloadGenerator) -> None:
        now = self.events.now
        self._submit(gen)
        next_ns = gen.next_arrival_ns(now)
        if next_ns < self._duration_ns:
            self.events.schedule_at(
                next_ns, lambda: self._arrive(gen), label=self._labels[gen.spec.name].arrive
            )

    def _submit(self, gen: WorkloadGenerator) -> None:
        now = self.events.now
        if gen.spec.closed_loop and now >= self._duration_ns:
            return  # closed loops stop resubmitting past the horizon
        pair = self._pair_by_name[gen.spec.name]
        metrics = self.metrics[gen.spec.name]
        metrics.submitted += 1
        cmd = gen.make_command(self.device.host, now)
        if not pair.sq.push(cmd):
            metrics.dropped += 1
            if self._tracing:
                self._tracer.instant(self._labels[gen.spec.name].queue, "drop", now)
        else:
            self.device.host.submit(cmd.command)
            if self._tracing:
                self._tracer.instant(self._labels[gen.spec.name].queue, "submit", now)
        metrics.queue_depth.observe(len(pair.sq))
        self._pump()

    # -- driven commands (SQL sessions) ----------------------------------------

    def submit_driven(
        self,
        tenant: str,
        command,
        pages: int,
        on_complete: Optional[Callable[[ServeCommand], None]] = None,
    ) -> ServeCommand:
        """Inject one externally built command into ``tenant``'s queue pair.

        Driven commands arbitrate against every other tenant exactly like
        generated traffic, but they never drop: when the submission queue is
        full they spill to a per-tenant backlog that refills as completions
        free slots. ``on_complete`` fires (with the finished
        :class:`ServeCommand`) when the command completes.
        """
        if tenant not in self._pair_by_name:
            raise ServeError(f"unknown tenant {tenant!r}")
        now = self.events.now
        cmd = ServeCommand(
            tenant=tenant, command=command, submitted_ns=now, pages=pages
        )
        if on_complete is not None:
            self._hooks[command.command_id] = on_complete
        metrics = self.metrics[tenant]
        metrics.submitted += 1
        self.device.host.submit(command)
        pair = self._pair_by_name[tenant]
        if not pair.sq.push(cmd):
            self._backlog.setdefault(tenant, deque()).append(cmd)
            if self._tracing:
                self._tracer.instant(self._labels[tenant].queue, "backlog", now)
        elif self._tracing:
            self._tracer.instant(self._labels[tenant].queue, "submit", now)
        metrics.queue_depth.observe(len(pair.sq))
        self._pump()
        return cmd

    def add_completion_observer(self, observer: Callable[[ServeCommand], None]) -> None:
        """Call ``observer(cmd)`` on every command completion (any tenant)."""
        self._observers.append(observer)

    @property
    def inflight(self) -> int:
        """Commands currently being serviced on the device."""
        return self._inflight

    def backlog_depth(self, tenant: Optional[str] = None) -> int:
        """Spilled driven commands awaiting a queue slot."""
        if tenant is not None:
            return len(self._backlog.get(tenant, ()))
        return sum(len(q) for q in self._backlog.values())

    # -- dispatch --------------------------------------------------------------

    def _pump(self) -> None:
        while self._inflight < self.config.max_inflight:
            pair = self.arbiter.select(self.pairs)
            if pair is None:
                return
            cmd = pair.sq.pop()
            self._dispatch(cmd)

    def _dispatch(self, cmd: ServeCommand) -> None:
        now = self.events.now
        cmd.dispatched_ns = now
        labels = self._labels[cmd.tenant]
        if self._tracing:
            # Time spent sitting in the tenant submission queue.
            self._tracer.complete(labels.queue, "wait", cmd.submitted_ns, now)
        timeout = self.config.command_timeout_ns
        issue = now
        while True:
            cmd.attempts += 1
            done_ns = self._service(cmd, issue)
            if timeout <= 0 or done_ns - issue <= timeout:
                break
            if cmd.attempts > self.config.max_command_retries:
                # Out of retries: let the final attempt run to completion
                # but flag the SLO breach.
                cmd.timed_out = True
                break
            # The host aborts at the deadline and re-issues; the work the
            # aborted attempt queued on the timelines stays (wasted slots),
            # exactly like a real abort racing in-flight flash operations.
            self.metrics[cmd.tenant].cmd_retries += 1
            issue += timeout
        cmd.completed_ns = done_ns
        if self._tracing:
            if isinstance(cmd.command, ScompCommand):
                kind = "scomp"
            elif isinstance(cmd.command, ReadCommand):
                kind = "read"
            else:
                kind = "write"
            self._tracer.complete("scheduler", labels.dispatch, now, now)
            # One firmware track per command kind: spans of in-flight commands
            # overlap freely, and same-named spans keep the B/E pairing valid.
            self._tracer.complete(f"firmware/{kind}", f"service:{kind}", now, done_ns)
        self._inflight += 1
        self.events.schedule_at(done_ns, lambda: self._complete(cmd), label=labels.complete)

    def _complete(self, cmd: ServeCommand) -> None:
        self._inflight -= 1
        self._horizon_ns = max(self._horizon_ns, cmd.completed_ns)
        metrics = self.metrics[cmd.tenant]
        metrics.record_completion(
            cmd.latency_ns,
            cmd.wait_ns,
            cmd.bytes_in,
            cmd.bytes_out,
            status=cmd.status,
            timed_out=cmd.timed_out,
        )
        pair = self._pair_by_name[cmd.tenant]
        pair.cq.post(
            self.device.host.complete(
                cmd.command, cmd.submitted_ns, cmd.completed_ns, cmd.bytes_out or cmd.bytes_in
            )
        )
        gen = self._gen_by_name[cmd.tenant]
        if gen.spec.closed_loop:
            self.events.schedule(
                gen.spec.think_ns, lambda: self._submit(gen), label=self._labels[cmd.tenant].think
            )
        backlog = self._backlog.get(cmd.tenant)
        if backlog:
            while backlog and pair.sq.push(backlog[0]):
                backlog.popleft()
        for observer in self._observers:
            observer(cmd)
        hook = self._hooks.pop(cmd.command.command_id, None)
        if hook is not None:
            hook(cmd)
        self._pump()

    # -- service models --------------------------------------------------------

    def _service(self, cmd: ServeCommand, now: float) -> float:
        """Service one command on the device (delegates to :class:`DeviceService`)."""
        return self.service.service(cmd, now)

    # -- reporting -------------------------------------------------------------

    def _report(self) -> ServeReport:
        horizon = max(self._horizon_ns, self.events.now)
        cores = self.service.cores
        recovery = self.service.recovery
        return ServeReport(
            config_name=self.device.config.name,
            policy=self.config.arbitration,
            seed=self.seed,
            duration_ns=self._duration_ns,
            horizon_ns=horizon,
            tenants=self.metrics,
            core_utilisation=[
                cores.busy_ns(core) / horizon if horizon > 0 else 0.0
                for core in range(cores.units)
            ],
            channel_utilisation=self.device.array.channel_utilisations(horizon)
            if horizon > 0
            else [0.0] * self.device.config.flash.channels,
            faults=dict(recovery.fault_counters()) if recovery else {},
            reconstruction_ns=list(recovery.reconstruction_ns) if recovery else [],
            sim_events=self.events.processed,
        )
