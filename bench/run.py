#!/usr/bin/env python3
"""One-command benchmark of the ASSASIN reproduction (see bench/README.md).

    python3 bench/run.py [--workload W] [--seed N] [--seconds S]
                         [--trace [0|1]] [--scale full|smoke] [--out FILE]

With ``--workload`` the workload runs in this process: a closed loop, one
thread, op ``i`` seeded ``seed + i``, until ``run_seconds`` of
``BENCHMARK.json`` (0 at smoke scale) of ops have been measured, at least
``min_ops`` ops have run and the workload's last round of ops is
complete. Without it every workload of ``BENCHMARK.json`` runs in turn,
each in a fresh subprocess. ``--seconds`` does not set the run length:
the benchmark's standard command line passes ``run_seconds`` there, and
any other value is refused, so two runs being compared always measure
equally long.

Every metric is printed as ``workload metric value unit``; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics of ``BENCHMARK.json``,
or with ``--trace 1`` its per-layer metrics. The full result (every
metric, the simulated ``model.*`` values, the host) goes to ``--out``,
by default under ``bench/out/``; a traced run also writes a Chrome trace
there.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
#: A traced run times this many ops (rounded up to whole set-ups) untraced
#: before and after the traced loop; they must reproduce its digests, and
#: the second batch (as warm as the traced ops) is the base of
#: ``trace.overhead_ratio``.
OVERHEAD_OPS = 8

#: Time of the calibration loop (``bench/calibrate.py``) on the reference
#: host (2-vCPU x86-64 VM, CPython 3.11). Reported times are scaled to
#: that speed with samples taken in a helper process around every op, so
#: a host that slows down for a while (shared machines do) moves the
#: numbers less; raw host times stay in the result file (``raw_metrics``,
#: ``per_op``).
CALIBRATION_REF_S = 0.0062
#: glibc's ``mallopt`` parameter number for the mmap threshold.
M_MMAP_THRESHOLD = -3

perf = time.perf_counter


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="must equal run_seconds of BENCHMARK.json, which sets the run length")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", type=Path)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    args = parse_args(argv, workloads)
    if args.seconds is not None and args.seconds != spec["run_seconds"]:
        print(f"error: --seconds {args.seconds:g} differs from run_seconds "
              f"{spec['run_seconds']} of BENCHMARK.json", file=sys.stderr)
        return 2
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args, workloads)
    sys.path[:0] = [str(SRC), str(BENCH)]
    out = args.out or OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    seconds = 0.0 if args.scale == "smoke" else float(spec["run_seconds"])
    with HostSpeed() as host_speed:
        record = run_workload(args, seconds, host_speed, trace_path=out.with_suffix(".trace.json"))
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    metric_specs = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    everything = {**record["metrics"], **record["layers"], **record["model"]}
    for name, value in sorted(everything.items()):
        print(f"{args.workload} {name} {_fmt(value)} {units.get(name) or _unit(name)}")
    print(f"{args.workload} model.digest {record['digest']} sha256")
    for problem in record["problems"]:
        print(f"{args.workload} problem: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            m["name"]: {"value": everything[m["name"]], "unit": m["unit"]}
            for m in metric_specs
        },
    }))
    return 0 if record["correct"] else 1


# -- one workload ------------------------------------------------------------------


def run_workload(args, seconds: float, host_speed: HostSpeed, trace_path: Path) -> dict:
    """Run the closed loop(s) of one workload and check their results."""
    from workloads import SCALES, WORKLOADS

    fix_mmap_threshold()
    scale = SCALES[args.scale]
    workload = WORKLOADS[args.workload](args.seed, scale)
    speed_sample = host_speed.sample
    min_ops = scale["min_ops"]
    phases = []
    tracer = None
    if args.trace:
        from trace import LayerTracer

        reference_ops = min(OVERHEAD_OPS, min_ops)
        phases.append(closed_loop(workload, reference_ops, 0.0, speed_sample))
        tracer = LayerTracer()
        tracer.install()
        try:
            phases.append(closed_loop(workload, min_ops, seconds, speed_sample, tracer))
        finally:
            tracer.uninstall()
        phases.append(closed_loop(workload, reference_ops, 0.0, speed_sample))
    else:
        phases.append(closed_loop(workload, min_ops, seconds, speed_sample))
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    main_loop = phases[1] if tracer else phases[0]

    problems = []
    for phase in phases:
        problems += check(workload, phase)
    failed = sum(phase.failed for phase in phases)
    digests = main_loop.digests[:min_ops]
    model = workload.model([r for r in main_loop.results[:min_ops] if r is not None])
    digest = hashlib.sha256("\n".join(digests).encode()).hexdigest()

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": seconds,
        "scale": args.scale, "trace": args.trace, "ops": len(main_loop.results),
        "digest": digest, "model": model, "metrics": {}, "layers": {},
        "host": host_info(main_loop, len(host_speed.cpus)),
        "per_op": {
            "setup_s": main_loop.setup, "run_s": main_loop.run,
            "wall_s": main_loop.wall, "calibration_s": main_loop.calibration,
        },
    }
    if tracer is None:
        record["metrics"] = end_to_end(main_loop, peak_rss_mib, main_loop.scaled)
        record["raw_metrics"] = end_to_end(main_loop, peak_rss_mib, main_loop.raw)
    else:
        reference = phases[2]
        shared = len(reference.wall)
        if not main_loop.digests[:shared] == phases[0].digests == reference.digests:
            problems.append("traced ops produced other results than untraced ops")
        # Layer times at the reference host speed, by the run's median
        # calibration sample (rates scale the other way).
        speed = CALIBRATION_REF_S / statistics.median(main_loop.calibration)
        layers = {
            name: value / speed if name.endswith("_per_s")
            else value * speed if name.endswith("_s") else value
            for name, value in tracer.layer_metrics(len(main_loop.results)).items()
        }
        layers["trace.overhead_ratio"] = (
            sum(main_loop.scaled(main_loop.wall)[:shared]) / sum(reference.scaled(reference.wall))
        )
        record["layers"] = layers
        chrome = tracer.write_chrome_trace(trace_path, f"bench {args.workload}")
        from repro.telemetry import validate_chrome_trace

        problems += [f"trace file: {p}" for p in validate_chrome_trace(chrome)]
        record["trace_file"] = str(trace_path)
    record.update(
        attempted=sum(len(phase.results) for phase in phases),
        failed=failed,
        correct=not problems,
        problems=problems[:20],
    )
    return record


class Loop:
    """Per-op timings (raw host seconds) and results of one closed loop."""

    def __init__(self) -> None:
        self.setup = []  # set-up phase, None for ops that share an earlier set-up
        self.run = []  # run phase, None for ops that raised
        self.wall = []  # set-up + run + teardown
        # The calibration loop, timed before each op and once after the last.
        self.calibration = []
        self.results = []  # None where the op raised
        self.errors = {}  # op index -> problem
        self.digests = []
        self.failed = 0

    @property
    def measured(self) -> float:
        return sum(self.wall)

    def scaled(self, times):
        """``times`` at the reference host speed (``CALIBRATION_REF_S``), by
        the mean of the calibration samples taken just before and just
        after each op."""
        c = self.calibration
        return [
            t * CALIBRATION_REF_S * 2 / (c[i] + c[i + 1])
            for i, t in enumerate(times)
            if t is not None
        ]

    @staticmethod
    def raw(times):
        """``times`` as measured, in host seconds."""
        return [t for t in times if t is not None]


class HostSpeed:
    """The calibration loop in a helper process (``bench/calibrate.py``), so
    the state the measured code leaves in this process cannot change it.

    This process and the helper are pinned to one CPU, so the helper times
    the CPU the ops run on (scaling by an unpinned helper's samples added
    more per-op noise than it removed); it runs only while this process
    waits for its answer.
    """

    def __enter__(self):
        self.cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {max(self.cpus)})
        self._helper = subprocess.Popen(  # inherits the pinning
            [sys.executable, str(BENCH / "calibrate.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        return self

    def sample(self) -> float:
        """Seconds one run of the calibration loop takes now."""
        self._helper.stdin.write("\n")
        self._helper.stdin.flush()
        answer = self._helper.stdout.readline()
        if not answer:
            raise RuntimeError(f"calibration helper exited with {self._helper.wait()}")
        return float(answer)

    def __exit__(self, *exc_info) -> None:
        self._helper.stdin.close()
        self._helper.wait()
        self._helper.stdout.close()
        os.sched_setaffinity(0, self.cpus)


def fix_mmap_threshold() -> None:
    """Have glibc map every block of 1 MiB or more afresh and unmap it on
    free (the default raises that threshold as blocks are freed, after
    which freed buffers linger in the heap), so peak RSS does not depend
    on heap layout. A no-op on other C libraries."""
    libc = ctypes.CDLL(None)
    if not hasattr(libc, "mallopt"):
        return
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.mallopt.restype = ctypes.c_int
    libc.mallopt(M_MMAP_THRESHOLD, 1 << 20)


def closed_loop(workload, min_ops: int, seconds: float, speed_sample, tracer=None) -> Loop:
    """Run op after op until ``seconds`` are measured, ``min_ops`` ran and
    the last round of the workload's op mix is complete.

    Only a time budget makes the op count vary from run to run, so a loop
    without one (``seconds`` 0) ends as soon as its last set-up is closed.
    """
    loop = Loop()
    stride = workload.ops_per_round if seconds else workload.ops_per_setup

    def span(name):
        return tracer.frame(name) if tracer is not None else contextlib.nullcontext()

    ctx = None
    need_setup = True
    i = 0
    while i < min_ops or loop.measured < seconds or i % stride:
        # Untimed, between ops: collect the last op's garbage, so its cycles
        # neither pause a later op nor inflate the peak RSS, then sample
        # the host's current speed.
        gc.collect()
        loop.calibration.append(speed_sample())
        if tracer is not None:
            tracer.op_id = i
        setup = run = result = None
        start = perf()
        try:
            with span("op"):
                if need_setup:
                    with span("setup"):
                        ctx = workload.setup(i)
                    setup = perf() - start
                run_start = perf()
                with span("run"):
                    result = workload.run(ctx, i)
                run = perf() - run_start
                need_setup = (i + 1) % workload.ops_per_setup == 0
                if need_setup:
                    with span("teardown"):
                        workload.teardown(ctx)
        except Exception:  # an op that raises is a failed op; the loop goes on
            loop.errors[i] = f"op {i} raised: {traceback.format_exc(limit=-1).strip()}"
            need_setup = True
        loop.wall.append(perf() - start)
        loop.setup.append(setup)
        loop.run.append(run)
        loop.results.append(result)
        if need_setup:
            ctx = None  # garbage for the collection before the next op
        i += 1
    gc.collect()
    loop.calibration.append(speed_sample())
    return loop


def check(workload, loop: Loop):
    """Untimed correctness checks and digests of every op of ``loop``."""
    problems = []
    for i, result in enumerate(loop.results):
        if result is None:
            found = [loop.errors[i]]
            loop.digests.append(f"failed op {i}")
        else:
            try:
                found = workload.check(result)
                loop.digests.append(workload.digest(result))
            except Exception:
                found = [f"op {i} check raised: {traceback.format_exc(limit=-1).strip()}"]
                loop.digests.append(f"failed op {i}")
        if found:
            loop.failed += 1
            problems += found
    return problems


def end_to_end(loop: Loop, peak_rss_mib: float, times) -> dict:
    """The end-to-end metrics, with per-op times taken through ``times``
    (``loop.scaled`` or ``loop.raw``)."""
    runs = sorted(times(loop.run)) or [0.0]
    return {
        "wall_per_op_s": statistics.mean(times(loop.wall)),
        "setup_s": statistics.median(times(loop.setup) or [0.0]),
        "op_s_p50": statistics.median(runs),
        # Nearest rank: at least a quarter of the ops lie above it.
        "op_s_p75": runs[math.ceil(0.75 * len(runs)) - 1],
        "peak_rss_mib": peak_rss_mib,
    }


def host_info(loop: Loop, nproc: int) -> dict:
    """The host a result came from, and its speed on the calibration loop."""
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "calibration_s": statistics.median(loop.calibration),
    }


# -- every workload ----------------------------------------------------------------


def run_all(args, workloads) -> int:
    """Run each workload in its own fresh subprocess, one at a time."""
    runs = []
    for name in workloads:
        out = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--trace", str(args.trace),
            "--scale", args.scale, "--out", str(out),
        ]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if not out.is_file() or done.returncode not in (0, 1):
            print(f"error: workload {name} exited with {done.returncode}", file=sys.stderr)
            return 2
        runs.append(json.loads(out.read_text()))
        runs[-1]["final_line"] = json.loads(lines[-1])
    summary = {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "workloads": {r["workload"]: r["final_line"]["metrics"] for r in runs},
    }
    out = args.out or OUT / f"all-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"runs": runs}, indent=2, sort_keys=True) + "\n")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def _unit(name: str) -> str:
    """Units of the values that only some workloads report."""
    if name.endswith("_s"):
        return "s"
    return {
        "model.gbps_geomean": "GB/s", "model.p99_us": "us", "model.core_util": "ratio",
        "model.hedge_win_rate": "ratio", "model.compaction_link_kib": "KiB",
    }[name]


def _fmt(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


if __name__ == "__main__":
    sys.exit(main())
