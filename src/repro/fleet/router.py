"""The fleet router: dispatch, hedging, and cross-device degraded service.

One :class:`FleetRouter` drives N :class:`~repro.ssd.device.ComputationalSSD`
peers on a **single shared** :class:`~repro.sim.Simulator`, so every
arrival, dispatch, hedge, and completion across the whole rack lands on one
deterministic event order. Each device keeps its own resource timelines
(flash planes, channel buses, crossbar, host link, stream cores) exactly as
in single-device serving — the router only decides *where* commands go and
*when* a second attempt is worth issuing.

Routing: every command is confined to one shard (the sharded workload
generator guarantees this), and the shard's key resolves through the
consistent-hash :class:`~repro.fleet.placement.Placement`. Reads and scomps
have data gravity — they run on the shard's home device; writes may spread
to the least-loaded ring candidate under the ``"load"`` policy.

Hedging (Dean & Barroso): at dispatch the analytic service model already
yields the primary's completion instant. If that projection exceeds the
rolling ``hedge_quantile`` of recent same-kind service times, the router
issues a *degraded duplicate* at ``dispatch + delay``: stripe-mates on peer
devices are read and XORed back into the missing pages (the
:class:`~repro.fleet.replication.CrossDeviceRaidMap` path) and a healthy
peer coordinates compute/transfer. The command completes at the earlier of
the two attempts; the loser's timeline reservations stay occupied —
best-effort cancel, exactly like an NVMe abort racing in-flight flash
operations.

The same degraded path serves commands whose home device has hard-failed
(``kill_device``): in-flight work on the dead device is lost at the kill
instant and re-served from peers, queued work is re-routed, and later
arrivals reconstruct on the fly.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import replace
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.errors import FleetError
from repro.fleet.config import FleetConfig
from repro.fleet.metrics import DeviceStats, FleetReport
from repro.fleet.placement import HashRing, Placement
from repro.fleet.replication import CrossDeviceRaidMap, PageAddr, xor_pages
from repro.serve.queues import ServeCommand, TenantLabels
from repro.serve.service import DeviceService
from repro.serve.workload import WorkloadGenerator
from repro.sim import Simulator
from repro.ssd.host_interface import ScompCommand
from repro.utils.stats import percentiles

#: Minimum completed same-kind commands before hedge projections engage;
#: below this the rolling quantile is too noisy to act on.
HEDGE_WARMUP_SAMPLES = 8
#: Ceiling on hedges as a fraction of submitted commands ("The Tail at
#: Scale" budgets duplicates at a few percent of total load): a hedge storm
#: during a congestion burst would amplify exactly the queueing it cannot fix.
HEDGE_BUDGET_FRACTION = 0.10


class _IdSource:
    """Fleet-wide NVMe command ids (each device's host has its own counter,
    but fleet commands need unique ids before their target is known)."""

    def __init__(self) -> None:
        self._ids = itertools.count(1)

    def next_id(self) -> int:
        return next(self._ids)


class _Degraded:
    """Outcome of one cross-device reconstruction attempt."""

    __slots__ = ("done_ns", "start_ns", "pages", "bad_pages", "coordinator")

    def __init__(self, done_ns: float, start_ns: float, pages: int,
                 bad_pages: int, coordinator: int) -> None:
        self.done_ns = done_ns
        self.start_ns = start_ns
        self.pages = pages
        self.bad_pages = bad_pages
        self.coordinator = coordinator


class FleetRouter:
    """Admission, placement, hedging, and recovery for one device fleet."""

    def __init__(
        self,
        config: FleetConfig,
        devices: Sequence,
        services: Sequence[DeviceService],
        ring: HashRing,
        page_map: Dict[int, PageAddr],
        raid_map: CrossDeviceRaidMap,
        golden: Dict[PageAddr, bytes],
        generators: Sequence[WorkloadGenerator],
        recoveries: Optional[Dict[int, object]] = None,
        seed: int = 0,
        config_name: str = "",
    ) -> None:
        if len(devices) != config.num_devices:
            raise FleetError(
                f"{len(devices)} devices for a {config.num_devices}-device config"
            )
        self.cfg = config
        self.devices = list(devices)
        self.services = list(services)
        self.ring = ring
        self.page_map = page_map
        self.raid = raid_map
        self.golden = golden
        self.generators = list(generators)
        self._gen_by_name: Dict[str, WorkloadGenerator] = {}
        for gen in self.generators:
            self._gen_by_name.setdefault(gen.spec.name, gen)
        self._labels = {name: TenantLabels.of(name) for name in self._gen_by_name}
        #: Per-device :class:`~repro.ssd.firmware.RecoveryController`
        #: (within-device ladder); absent devices read the raw array.
        self.recoveries = dict(recoveries or {})
        self.seed = seed
        self.config_name = config_name
        self.page_bytes = self.devices[0].config.flash.page_bytes

        self.sim = Simulator()
        self.ids = _IdSource()
        self.health: Dict[int, bool] = {d: True for d in range(config.num_devices)}
        self.placement = Placement(
            ring,
            policy=config.placement,
            fanout=config.placement_fanout,
            load_of=self._load_of,
            healthy=lambda device: self.health[device],
        )
        self.pending: Dict[int, Deque[ServeCommand]] = {
            d: deque() for d in range(config.num_devices)
        }
        self.inflight: Dict[int, int] = {d: 0 for d in range(config.num_devices)}
        self.stats: Dict[int, DeviceStats] = {
            d: DeviceStats(device=d) for d in range(config.num_devices)
        }
        # Rolling service-time windows per command kind drive hedge delays.
        self._windows: Dict[str, Deque[float]] = {
            kind: deque(maxlen=config.hedge_window)
            for kind in ("read", "write", "scomp")
        }
        self.latencies_ns: List[float] = []
        self.submitted = 0
        self.completed = 0
        self.dropped = 0
        self.failed = 0
        self.recovered = 0
        self.hedges_issued = 0
        self.hedges_won = 0
        self.reconstructions = 0
        self.pages_rebuilt = 0
        self.recovery_bytes = 0
        self.corruption_events = 0
        self._recovery_start: Optional[float] = None
        self._recovery_end: float = 0.0
        self._duration_ns = 0.0
        self._horizon_ns = 0.0

    # -- run loop --------------------------------------------------------------

    def run(self, duration_ns: float) -> FleetReport:
        """Admit traffic for ``duration_ns``, drain the fleet, and report."""
        if duration_ns <= 0:
            raise FleetError("fleet run duration must be positive")
        self._duration_ns = duration_ns
        for gen in self.generators:
            labels = self._labels[gen.spec.name]
            if gen.spec.closed_loop:
                for _ in range(gen.spec.outstanding):
                    self.sim.schedule_at(0.0, lambda g=gen: self._submit(g), label=labels.submit)
            else:
                first = gen.next_arrival_ns(0.0)
                if first < duration_ns:
                    self.sim.schedule_at(first, lambda g=gen: self._arrive(g), label=labels.arrive)
        if self.cfg.kill_device >= 0:
            self.sim.schedule_at(self.cfg.kill_at_ns, self._kill, label="kill-device")
        self.sim.run()
        return self._report()

    # -- traffic ---------------------------------------------------------------

    def _arrive(self, gen: WorkloadGenerator) -> None:
        now = self.sim.now
        self._submit(gen)
        next_ns = gen.next_arrival_ns(now)
        if next_ns < self._duration_ns:
            self.sim.schedule_at(
                next_ns, lambda: self._arrive(gen), label=self._labels[gen.spec.name].arrive
            )

    def _submit(self, gen: WorkloadGenerator) -> None:
        now = self.sim.now
        if gen.spec.closed_loop and now >= self._duration_ns:
            return
        cmd = gen.make_command(self.ids, now)
        lpas = self._command_lpas(cmd)
        shard = (lpas[0] - gen.lpa_base) // self.cfg.shard_pages
        # The routing key: one shard, one home — every page of the command
        # lives on the same device because the generator confined it.
        cmd.fleet_key = f"{gen.spec.name}/{shard}"
        cmd.fleet_lpas = lpas
        self.submitted += 1
        self._enqueue(cmd)

    def _command_lpas(self, cmd: ServeCommand) -> List[int]:
        command = cmd.command
        if isinstance(command, ScompCommand):
            return [lpa for lst in command.lpa_lists for lpa in lst]
        return list(command.lpas)

    def _enqueue(self, cmd: ServeCommand) -> None:
        target = self._route(cmd)
        if target is None:
            # Dead quorum: nothing can serve this command.
            self.dropped += 1
            return
        self.stats[target].submitted += 1
        self.pending[target].append(cmd)
        self._pump(target)

    def _route(self, cmd: ServeCommand) -> Optional[int]:
        """Pick the service device: data gravity for reads/scomp, policy
        spread for writes. Dead homes fall through to a healthy peer, who
        will coordinate cross-device reconstruction at dispatch."""
        if cmd.kind == "write":
            return self.placement.route(cmd.fleet_key, spread=True)
        home = self.page_map[cmd.fleet_lpas[0]][0]
        if self.health[home]:
            return home
        target = self.placement.route(cmd.fleet_key)
        if target is not None:
            return target
        peers = self.placement.peers(cmd.fleet_key, exclude=home)
        return peers[0] if peers else None

    # -- dispatch --------------------------------------------------------------

    def _pump(self, device: int) -> None:
        while (
            self.pending[device]
            and self.inflight[device] < self.cfg.max_inflight_per_device
        ):
            self._dispatch(device, self.pending[device].popleft())

    def _dispatch(self, device: int, cmd: ServeCommand) -> None:
        now = self.sim.now
        cmd.dispatched_ns = now
        kind = cmd.kind
        home = self.page_map[cmd.fleet_lpas[0]][0] if kind != "write" else device

        if kind != "write" and (device != home or not self.health[home]):
            # The data's home is unreachable: serve by reconstruction.
            done = self._serve_degraded(cmd, exclude=home, issue_ns=now)
        else:
            done = self._serve_primary(device, cmd, now)
        cmd.completed_ns = done
        self.inflight[device] += 1
        self.stats[device].max_inflight = max(
            self.stats[device].max_inflight, self.inflight[device]
        )
        self.sim.schedule_at(
            done, lambda: self._complete(device, cmd), label=self._labels[cmd.tenant].complete
        )

    def _serve_primary(self, device: int, cmd: ServeCommand, now: float) -> float:
        """Normal-path service, plus kill-loss and hedging adjustments."""
        self._localise(device, cmd)
        done = self.services[device].service(cmd, now)

        if cmd.status == "failed":
            # The within-device ladder ran dry (no local RAID group):
            # escalate to cross-device reconstruction — the fleet-level
            # generalisation of the raidmap stripe-mates.
            return self._serve_degraded(cmd, exclude=device, issue_ns=done)

        kill = self.cfg.kill_device
        if device == kill and kill >= 0 and now < self.cfg.kill_at_ns < done:
            # The device dies mid-service: the attempt is lost at the kill
            # instant and the command re-serves from surviving peers.
            if cmd.kind == "write":
                return self._reissue_write(cmd, self.cfg.kill_at_ns)
            return self._serve_degraded(
                cmd, exclude=device, issue_ns=self.cfg.kill_at_ns
            )

        if self.cfg.hedging and cmd.kind in ("read", "scomp"):
            done = self._maybe_hedge(device, cmd, now, done)
        return done

    def _reissue_write(self, cmd: ServeCommand, issue_ns: float) -> float:
        """Replay a write lost to the kill on a surviving device."""
        target = self.placement.route(cmd.fleet_key, spread=True)
        if target is None:
            cmd.status = "failed"
            return issue_ns
        done = self.services[target].service(cmd, issue_ns)
        cmd.status = "recovered"
        return done

    def _localise(self, device: int, cmd: ServeCommand) -> None:
        """Rewrite the command's fleet LPAs as device-local LPAs.

        Write commands allocate fresh local pages on whatever device serves
        them, so only reads/scomps (which dereference the FTL) translate.
        """
        if cmd.kind == "write":
            return
        locals_: List[int] = []
        for lpa in cmd.fleet_lpas:
            dev, local = self.page_map[lpa]
            if dev != device:
                raise FleetError(
                    f"fleet LPA {lpa} lives on device {dev}, dispatched to {device}"
                )
            locals_.append(local)
        if isinstance(cmd.command, ScompCommand):
            cmd.command = replace(cmd.command, lpa_lists=[locals_])
        else:
            cmd.command = replace(cmd.command, lpas=locals_)

    # -- hedging ---------------------------------------------------------------

    def _hedge_delay_ns(self, kind: str) -> Optional[float]:
        window = self._windows[kind]
        if len(window) < HEDGE_WARMUP_SAMPLES:
            return None
        # Clamp the trigger at 1.5x the rolling median: a straggler device
        # pollutes the upper quantiles of its own window, and an unclamped
        # p95 would rise until the straggler's commands no longer qualify
        # for hedging. The median stays anchored to healthy service, and
        # 1.5x is a typical healthy p95/p50 ratio for this service mix.
        tail, median = percentiles(window, (self.cfg.hedge_quantile, 50.0))
        quantile = min(tail, 1.5 * median)
        return max(self.cfg.hedge_min_delay_ns, quantile)

    def _rebuild_estimate_ns(self, cmd: ServeCommand) -> float:
        """Optimistic floor for a degraded rebuild (uncontended peers).

        Stripe-mate reads run in parallel across devices, so the floor is
        one array read, the mate + rebuilt-page channel transfers, any
        stream-core compute, and the host link occupancy for the result.
        """
        flash = self.devices[0].config.flash
        est = flash.read_latency_ns + 2.0 * flash.page_transfer_ns
        nbytes = cmd.pages * self.page_bytes
        if isinstance(cmd.command, ScompCommand):
            svc = self.services[0]
            kernel = cmd.command.kernel
            est += cmd.pages * svc.compute_ns_per_page(kernel)
            nbytes = max(int(nbytes * svc.out_ratio(kernel)), 1)
        return est + self.devices[0].host.transfer_time_ns(nbytes)

    def _maybe_hedge(self, device: int, cmd: ServeCommand, now: float, done: float) -> float:
        delay = self._hedge_delay_ns(cmd.kind)
        if delay is None or done - now <= delay:
            return done
        # Only pay for a duplicate when the projected overrun leaves the
        # rebuild a 2x margin to win: a losing hedge is not free (its
        # timeline reservations stay), and a marginal win burns budget that
        # a genuinely stuck command will want later.
        if done - (now + delay) <= 2.0 * self._rebuild_estimate_ns(cmd):
            return done
        budget = HEDGE_BUDGET_FRACTION * max(self.submitted, 2 * HEDGE_WARMUP_SAMPLES)
        if self.hedges_issued >= budget:
            return done
        self.hedges_issued += 1
        self.stats[device].hedges_issued += 1
        result = self._reconstruct_command(cmd, exclude=device, issue_ns=now + delay)
        if result is None or result.done_ns >= done:
            # Hedge lost (or could not run): its timeline reservations stay
            # occupied — the best-effort cancel.
            return done
        self.hedges_won += 1
        self.stats[device].hedges_won += 1
        self._apply_degraded(cmd, result)
        if cmd.status == "ok":
            cmd.status = "recovered"
        return result.done_ns

    # -- degraded (cross-device) service ---------------------------------------

    def _serve_degraded(self, cmd: ServeCommand, exclude: int, issue_ns: float) -> float:
        result = self._reconstruct_command(cmd, exclude=exclude, issue_ns=issue_ns)
        if result is None:
            cmd.status = "failed"
            cmd.bytes_in = cmd.bytes_in or cmd.pages * self.page_bytes
            return issue_ns
        self._apply_degraded(cmd, result)
        cmd.status = "recovered"
        cmd.bytes_in = cmd.pages * self.page_bytes
        if cmd.kind == "read":
            cmd.bytes_out = cmd.bytes_in
        elif cmd.kind == "scomp":
            svc = self.services[result.coordinator]
            cmd.bytes_out = int(cmd.bytes_in * svc.out_ratio(cmd.command.kernel))
        return result.done_ns

    def _reconstruct_command(
        self, cmd: ServeCommand, exclude: int, issue_ns: float
    ) -> Optional[_Degraded]:
        """Serve ``cmd`` by rebuilding every page from its stripe-mates.

        Returns None when reconstruction is impossible (a page has no
        stripe, a required mate lives on a dead device, or no healthy peer
        can coordinate). Timeline reservations made before such a failure —
        and by hedges that lose the race — intentionally stay.
        """
        peers = self.placement.peers(cmd.fleet_key, exclude=exclude)
        if not peers:
            return None
        if self.placement.policy == "load":
            coordinator = min(peers, key=lambda d: (self._load_of(d),))
        else:
            coordinator = peers[0]

        pages = 0
        bad = 0
        flash_done = issue_ns
        first_page: Optional[float] = None
        for lpa in cmd.fleet_lpas:
            addr = self.page_map[lpa]
            mates = self.raid.stripe_mates(addr)
            if not mates:
                return None
            mate_done = issue_ns
            mate_data: List[bytes] = []
            for mate in mates:
                if not self.health[mate[0]]:
                    return None  # two losses in one stripe: unrecoverable
                done, data = self._read_peer_page(mate, issue_ns)
                mate_done = max(mate_done, done)
                if data is None:
                    return None
                mate_data.append(data)
            # One pass through the parity engine at channel speed.
            page_done = mate_done + self.devices[0].config.flash.page_transfer_ns
            rebuilt = xor_pages(mate_data)
            expected = self.golden.get(addr)
            if expected is not None and rebuilt != expected:
                bad += 1
            pages += 1
            flash_done = max(flash_done, page_done)
            if first_page is None or page_done < first_page:
                first_page = page_done

        done = self._finish_on_coordinator(cmd, coordinator, issue_ns, flash_done, first_page)
        return _Degraded(
            done_ns=done,
            start_ns=issue_ns,
            pages=pages,
            bad_pages=bad,
            coordinator=coordinator,
        )

    def _read_peer_page(self, addr: PageAddr, issue_ns: float) -> Tuple[float, Optional[bytes]]:
        """Timed read of one stripe-mate on its own device's timelines."""
        dev, lpa = addr
        recovery = self.recoveries.get(dev)
        if recovery is not None:
            outcome = recovery.read_lpa(lpa, issue_ns)
            return outcome.done_ns, outcome.data
        device = self.devices[dev]
        ppa = device.ftl.lookup(lpa)
        return device.array.service_read(ppa, issue_ns).done_ns, device.array.read_data(ppa)

    def _finish_on_coordinator(
        self,
        cmd: ServeCommand,
        coordinator: int,
        issue_ns: float,
        flash_done: float,
        first_page: Optional[float],
    ) -> float:
        """Compute (scomp) and host transfer on the coordinating peer."""
        device = self.devices[coordinator]
        nbytes = cmd.pages * self.page_bytes
        if isinstance(cmd.command, ScompCommand):
            svc = self.services[coordinator]
            kernel = cmd.command.kernel
            compute_ns = cmd.pages * svc.compute_ns_per_page(kernel)
            core = svc.cores.least_loaded()
            start = max(issue_ns, svc.cores.free_at(core), first_page or issue_ns)
            done = max(start + compute_ns, flash_done)
            svc.cores.occupy(core, start, done, busy_ns=compute_ns)
            out = max(int(nbytes * svc.out_ratio(kernel)), 1)
            return device.host.transfer(out, done, to_host=True)
        return device.host.transfer(nbytes, flash_done, to_host=True)

    def _apply_degraded(self, cmd: ServeCommand, result: _Degraded) -> None:
        """Book a *used* reconstruction (winning hedge or dead-home serve)."""
        cmd.reconstructions += result.pages
        self.reconstructions += 1
        self.pages_rebuilt += result.pages
        self.recovery_bytes += result.pages * self.page_bytes
        self.corruption_events += result.bad_pages
        self.stats[result.coordinator].reconstructions += 1
        self.stats[result.coordinator].pages_rebuilt += result.pages
        if self._recovery_start is None or result.start_ns < self._recovery_start:
            self._recovery_start = result.start_ns
        self._recovery_end = max(self._recovery_end, result.done_ns)

    # -- completion ------------------------------------------------------------

    def _complete(self, device: int, cmd: ServeCommand) -> None:
        self.inflight[device] -= 1
        self._horizon_ns = max(self._horizon_ns, cmd.completed_ns)
        latency = cmd.latency_ns
        service_ns = cmd.completed_ns - cmd.dispatched_ns
        stats = self.stats[device]
        stats.completed += 1
        stats.latencies_ns.append(latency)
        stats.bytes_in += cmd.bytes_in
        stats.bytes_out += cmd.bytes_out
        self.latencies_ns.append(latency)
        self.completed += 1
        if cmd.status == "failed":
            self.failed += 1
            stats.failed += 1
        elif cmd.status == "recovered":
            self.recovered += 1
            stats.recovered += 1
        self._windows[cmd.kind].append(service_ns)
        gen = self._gen_by_name[cmd.tenant]
        if gen.spec.closed_loop:
            self.sim.schedule(
                gen.spec.think_ns, lambda: self._submit(gen), label=self._labels[cmd.tenant].think
            )
        self._pump(device)

    # -- failure ---------------------------------------------------------------

    def _kill(self) -> None:
        """Hard-fail ``kill_device``: mark it dead and re-route its queue."""
        dead = self.cfg.kill_device
        self.health[dead] = False
        self.stats[dead].dead = True
        backlog = list(self.pending[dead])
        self.pending[dead].clear()
        self.stats[dead].submitted -= len(backlog)
        for cmd in backlog:
            self._enqueue(cmd)

    # -- load probe ------------------------------------------------------------

    def _load_of(self, device: int) -> float:
        """Live load: in-flight + queued commands + stream-core backlog.

        The core backlog (how far the least-loaded lane's free-at instant
        sits past now) is normalised to ~command granularity so a device
        grinding through a deep compute queue reads as loaded even when its
        dispatch slots are free.
        """
        cores = self.services[device].cores
        backlog_ns = max(0, cores.free_at(cores.least_loaded()) - self.sim.now)
        return (
            self.inflight[device]
            + len(self.pending[device])
            + backlog_ns / 100_000.0
        )

    # -- reporting -------------------------------------------------------------

    def _report(self) -> FleetReport:
        horizon = max(self._horizon_ns, float(self.sim.now))
        span = 0.0
        if self._recovery_start is not None:
            span = self._recovery_end - self._recovery_start
        return FleetReport(
            config_name=self.config_name,
            num_devices=self.cfg.num_devices,
            placement=self.cfg.placement,
            hedging=self.cfg.hedging,
            seed=self.seed,
            duration_ns=self._duration_ns,
            horizon_ns=horizon,
            devices=self.stats,
            latencies_ns=self.latencies_ns,
            submitted=self.submitted,
            completed=self.completed,
            dropped=self.dropped,
            failed=self.failed,
            recovered=self.recovered,
            hedges_issued=self.hedges_issued,
            hedges_won=self.hedges_won,
            reconstructions=self.reconstructions,
            pages_rebuilt=self.pages_rebuilt,
            recovery_bytes=self.recovery_bytes,
            recovery_span_ns=span,
            corruption_events=self.corruption_events
            + sum(r.corruption_events for r in self.recoveries.values()),
            sim_events=self.sim.processed,
        )
