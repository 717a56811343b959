"""Host-time attribution of a benchmark run to the simulator's layers.

:class:`LayerTracer` patches each boundary listed in :data:`BOUNDARIES` —
the attribute its callers look up (a class attribute, or a module global
read at call time) — with a wrapper that pushes a frame on one explicit
stack. A frame's *self* time is its duration minus the time covered by
the frames nested inside it, so every layer's self time is exact and the
self times of all frames add up to the traced wall time.

* Hot boundaries (per-page, per-event, per-access calls) keep aggregates
  only: call count, inclusive time and self time.
* Coarse boundaries (ops, their set-up and run phases, ``CoreModel.run``,
  ``Simulator.run``, ``Firmware.run_offload``, campaign and query entry
  points) also keep one span each, with the op id and the boundary that
  caused it, written out as Chrome ``trace_event`` JSON for Perfetto.
* A boundary that is a generator function (a simulator process, such as
  ``GarbageCollector.collect_process``) does its work when the simulator
  resumes the generator, not when it is called; it gets a frame around
  every resumption, and counts one call per generator.

Calls made while no op is open (correctness checks, reference results)
pass straight through and are not recorded.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, NamedTuple, Optional

perf = time.perf_counter


class Boundary(NamedTuple):
    """One patched call site: ``module.owner.attr`` (or ``module.attr``)."""

    name: str
    layer: str
    module: str
    owner: Optional[str]
    attr: str
    coarse: bool = False


def _b(layer, target, coarse=False):
    module, _, path = target.partition(":")
    owner, _, attr = path.rpartition(".")
    return Boundary(path, layer, module, owner or None, attr, coarse)


#: Every instrumented boundary, grouped by layer.
BOUNDARIES = (
    _b("core", "repro.core.core:CoreModel.run", coarse=True),
    _b("isa", "repro.isa.fastpath:FastEngine.run"),
    _b("mem", "repro.mem.hierarchy:MemoryHierarchy.access"),
    _b("pricing", "repro.ssd.device:ComputationalSSD.sample_kernel"),
    _b("sim", "repro.sim.kernel:Simulator.run", coarse=True),
    _b("sim", "repro.sim.kernel:Simulator.step"),
    _b("resources", "repro.sim.resources:FifoResource.acquire"),
    _b("resources", "repro.sim.resources:PooledResource.acquire"),
    _b("resources", "repro.sim.resources:PooledResource.occupy"),
    _b("flash", "repro.flash.array:FlashArray.service_read"),
    _b("flash", "repro.flash.array:FlashArray.service_write"),
    _b("flash", "repro.flash.ecc:encode_page"),
    _b("flash", "repro.flash.ecc:decode_page"),
    _b("ftl", "repro.ftl.mapping:PageMapFTL.write"),
    _b("ftl", "repro.ftl.mapping:PageMapFTL.lookup"),
    _b("ftl", "repro.ftl.mapping:PageMapFTL.populate"),
    _b("ftl", "repro.ftl.zoned:ZonedFTL.append"),
    _b("ftl", "repro.ftl.zoned:ZonedFTL.lookup"),
    _b("ftl", "repro.ftl.zoned:ZonedFTL.reset_zone"),
    _b("ftl", "repro.ftl.gc:GarbageCollector.collect"),
    _b("ftl", "repro.ftl.gc:GarbageCollector.collect_process"),
    _b("ssd", "repro.ssd.firmware:Firmware.run_offload", coarse=True),
    _b("serve", "repro.serve.service:DeviceService.service"),
    _b("serve", "repro.serve.scheduler:ServingLayer.run", coarse=True),
    _b("fleet", "repro.fleet.campaign:FleetCampaign.prepare", coarse=True),
    _b("fleet", "repro.fleet.router:FleetRouter.run", coarse=True),
    _b("zns", "repro.zns.firmware:ZnsFirmware.execute"),
    _b("sql", "repro.sql.session:parse_sql"),
    _b("sql", "repro.sql.session:plan_statement"),
    _b("sql", "repro.sql.executor:SqlExecutor.execute", coarse=True),
    _b("analytics", "repro.sql.session:generate_database", coarse=True),
    _b("analytics", "repro.analytics.cost:StaticCostSource.calibrate", coarse=True),
)

#: Layers whose code is the workload's own control plane; their self
#: times also sum into ``campaign.self_s``, the one control-plane time
#: every workload reports.
CAMPAIGN_LAYERS = ("ssd", "serve", "fleet", "zns", "sql", "analytics")

#: The benchmark's own frames (``op`` and its set-up, run and teardown).
BENCH_LAYER = "bench"


class _Agg:
    __slots__ = ("count", "total", "self")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.self = 0.0


class LayerTracer:
    """Explicit-stack tracer; :meth:`install` patches, :meth:`uninstall` restores."""

    def __init__(self) -> None:
        # A frame is [name, layer, coarse, start, child_time, args, calls].
        self.stack: List[list] = []
        self.aggs: Dict[str, _Agg] = defaultdict(_Agg)
        self.layer_self: Dict[str, float] = defaultdict(float)
        #: Inclusive time of the outermost frames of each layer (nested
        #: same-layer frames are not counted twice).
        self.layer_total: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.spans: List[tuple] = []
        self.op_id = -1
        self._origin = perf()
        self._patches: List[tuple] = []
        self._priced = set()
        self._hooks: Dict[str, Callable] = {
            "CoreModel.run": self._on_core_run,
            "Simulator.run": self._on_sim,
            "Simulator.step": self._on_sim,
            "PageMapFTL.populate": self._on_populate,
            "SqlExecutor.execute": self._on_sql_execute,
        }

    # -- patching ----------------------------------------------------------------

    def install(self) -> None:
        for boundary in BOUNDARIES:
            module = importlib.import_module(boundary.module)
            owner = getattr(module, boundary.owner) if boundary.owner else module
            raw = owner.__dict__[boundary.attr] if boundary.owner else getattr(owner, boundary.attr)
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap(raw.__func__, boundary))
            else:
                patched = self._wrap(raw, boundary)
            setattr(owner, boundary.attr, patched)
            self._patches.append((owner, boundary.attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def _wrap(self, fn, boundary: Boundary):
        stack = self.stack
        exit_frame = self._exit
        hook = self._hooks.get(boundary.name)
        name, layer, coarse = boundary.name, boundary.layer, boundary.coarse
        if inspect.isgeneratorfunction(fn):
            resumed = self._resumed

            def traced_generator(*args, **kwargs):
                generator = fn(*args, **kwargs)
                return resumed(generator, name, layer) if stack else generator

            traced_generator.__wrapped__ = fn
            return traced_generator

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            frame = [name, layer, coarse, 0.0, 0.0, args, 1]
            before = args[0].processed if layer == "sim" else 0
            stack.append(frame)
            frame[3] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_frame(perf())
            if hook is not None:
                hook(frame, result, before)
            return result

        traced.__wrapped__ = fn
        return traced

    def _resumed(self, generator, name: str, layer: str):
        """``generator``, with a frame of ``name`` around each resumption
        made while an op is open; the first one counts the call."""
        stack = self.stack
        calls = 1
        value = None
        while True:
            framed = bool(stack)
            if framed:
                stack.append([name, layer, False, perf(), 0.0, (), calls])
                calls = 0
            try:
                item = generator.send(value)
            except StopIteration as stop:
                return stop.value
            finally:
                if framed:
                    self._exit(perf())
            try:
                value = yield item
            except GeneratorExit:
                generator.close()
                raise

    # -- frames ------------------------------------------------------------------

    def _exit(self, now: float) -> None:
        stack = self.stack
        frame = stack.pop()
        name, layer, coarse, start, child = frame[:5]
        elapsed = now - start
        own = elapsed - child
        agg = self.aggs[name]
        agg.count += frame[6]
        agg.total += elapsed
        agg.self += own
        self.layer_self[layer] += own
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[4] += elapsed
        if parent is None or parent[1] != layer:
            self.layer_total[layer] += elapsed
        if coarse:
            cause = parent[0] if parent is not None else ""
            self.spans.append((name, start - self._origin, elapsed, self.op_id, cause))

    @contextlib.contextmanager
    def frame(self, name: str):
        """A benchmark-level frame (``op``, ``setup``, ``run``, ``teardown``);
        its self time is the part of an op no layer boundary covers
        (``trace.unattributed_s``)."""
        self.stack.append([name, BENCH_LAYER, True, perf(), 0.0, (), 1])
        try:
            yield
        finally:
            self._exit(perf())

    # -- counting hooks ------------------------------------------------------------

    def _on_core_run(self, frame, result, _before) -> None:
        self.counts["core.instructions"] += result.instructions
        parent = self.stack[-1] if self.stack else None
        if parent is not None and parent[0] == "ComputationalSSD.sample_kernel":
            device, kernel, *rest = parent[5]
            key = (device.config, kernel.name, rest[0] if rest else None)
            self.counts["pricing.runs"] += 1
            if key in self._priced:
                self.counts["pricing.repeat_runs"] += 1
            self._priced.add(key)

    def _on_sim(self, frame, _result, before) -> None:
        # Only the outermost sim frame counts, so events dispatched by a
        # ``step`` inside ``run`` are not counted twice.
        parent = self.stack[-1] if self.stack else None
        if parent is None or parent[1] != "sim":
            self.counts["sim.events"] += frame[5][0].processed - before

    def _on_populate(self, _frame, result, _before) -> None:
        self.counts["ftl.populated_pages"] += len(result)

    def _on_sql_execute(self, _frame, result, _before) -> None:
        for scan in result.scans:
            self.counts[f"sql.{scan.site}_scans"] += 1

    # -- results -------------------------------------------------------------------

    def count(self, *names: str) -> int:
        return sum(self.aggs[n].count for n in names if n in self.aggs)

    def layer_metrics(self, ops: int) -> Dict[str, float]:
        """Every per-layer value, keyed by metric name.

        Counts and times are means per op over the ``ops`` traced ops, so
        runs that fit a different number of ops in their time budget
        compare directly; rates and ratios are over the whole run.
        """
        aggs, own, counts = self.aggs, self.layer_self, self.counts

        def total(*names):
            return sum(aggs[n].total for n in names if n in aggs)

        def self_of(*names):
            return sum(aggs[n].self for n in names if n in aggs)

        core_time = self.layer_total["core"]
        sim_time = self.layer_total["sim"]
        runs = counts["pricing.runs"]
        per_op = {
            "core.calls": self.count("CoreModel.run"),
            "core.instructions": counts["core.instructions"],
            "core.self_s": own["core"],
            "isa.self_s": own["isa"],
            "mem.accesses": self.count("MemoryHierarchy.access"),
            "mem.self_s": own["mem"],
            "pricing.lookups": self.count("ComputationalSSD.sample_kernel"),
            "pricing.runs": runs,
            "pricing.repeat_runs": counts["pricing.repeat_runs"],
            "sim.events": counts["sim.events"],
            "sim.self_s": own["sim"],
            "resources.grants": self.count(
                "FifoResource.acquire", "PooledResource.acquire", "PooledResource.occupy"
            ),
            "resources.self_s": own["resources"],
            "flash.reads": self.count("FlashArray.service_read"),
            "flash.programs": self.count("FlashArray.service_write"),
            "flash.self_s": own["flash"],
            "flash.ecc_pages": self.count("encode_page", "decode_page"),
            "ftl.writes": self.count("PageMapFTL.write", "ZonedFTL.append"),
            "ftl.lookups": self.count("PageMapFTL.lookup", "ZonedFTL.lookup"),
            "ftl.populated_pages": counts["ftl.populated_pages"],
            "ftl.gc_collections": self.count(
                "GarbageCollector.collect", "GarbageCollector.collect_process"
            ),
            "ftl.self_s": own["ftl"],
            "ssd.offloads": self.count("Firmware.run_offload"),
            "serve.commands": self.count("DeviceService.service"),
            "zns.commands": self.count("ZnsFirmware.execute"),
            "sql.device_scans": counts["sql.device_scans"],
            "sql.host_scans": counts["sql.host_scans"],
            "campaign.self_s": sum(own[layer] for layer in CAMPAIGN_LAYERS),
            "trace.unattributed_s": own[BENCH_LAYER],
        }
        # Layer times that only some workloads reach; reported where hit.
        optional = {
            "flash.ecc_s": self_of("encode_page", "decode_page"),
            "ftl.gc_s": self_of("GarbageCollector.collect", "GarbageCollector.collect_process"),
            "ssd.self_s": own["ssd"],
            "serve.self_s": own["serve"],
            "fleet.prepare_s": total("FleetCampaign.prepare"),
            "fleet.router_self_s": self_of("FleetRouter.run"),
            "zns.self_s": own["zns"],
            "sql.frontend_s": total("parse_sql", "plan_statement"),
            "sql.exec_self_s": self_of("SqlExecutor.execute"),
            "analytics.datagen_s": total("generate_database"),
            "analytics.calibrate_s": total("StaticCostSource.calibrate"),
        }
        per_op.update({k: v for k, v in optional.items() if v > 0})
        metrics = {name: value / ops for name, value in per_op.items()}
        metrics["core.instr_per_s"] = (
            counts["core.instructions"] / core_time if core_time else 0.0
        )
        metrics["sim.events_per_s"] = counts["sim.events"] / sim_time if sim_time else 0.0
        metrics["pricing.useful_ratio"] = len(self._priced) / runs if runs else 1.0
        return metrics

    def write_chrome_trace(self, path, process_name: str) -> dict:
        """Write the recorded spans as Chrome ``trace_event`` JSON (µs, host
        time) and return the written object."""
        events = [
            {"name": "process_name", "ph": "M", "ts": 0, "pid": 1, "tid": 0,
             "args": {"name": process_name}},
            {"name": "thread_name", "ph": "M", "ts": 0, "pid": 1, "tid": 0,
             "args": {"name": "host"}},
        ]
        for name, start, elapsed, op_id, cause in sorted(self.spans, key=lambda s: (s[1], -s[2])):
            events.append({
                "name": name, "ph": "X", "ts": start * 1e6, "dur": elapsed * 1e6,
                "pid": 1, "tid": 0, "args": {"op": op_id, "cause": cause},
            })
        trace = {"traceEvents": events, "displayTimeUnit": "ms"}
        with open(path, "w") as handle:
            json.dump(trace, handle, separators=(",", ":"))
        return trace
