"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list``                      — kernels and configurations available
* ``offload``                   — simulate one kernel offload on one config
* ``serve``                     — multi-tenant QoS serving simulation
* ``faults``                    — seeded fault campaign with RAID recovery
* ``fleet``                     — rack-scale multi-device fleet simulation
* ``zns``                       — zoned-namespace LSM campaign (compaction offload)
* ``dse``                       — design-space sweep with Pareto-frontier report
* ``trace``                     — serve run with tracing on; Chrome/Perfetto JSON out
* ``profile``                   — ISA-level cycle-attribution profile of one kernel
* ``figure {5,13,14,15,16,19,20,21,22}`` — regenerate a paper figure
* ``table {1,2,4,5}``           — regenerate a paper table
* ``tpch``                      — run TPC-H queries end-to-end on the live device
* ``sql``                       — interactive SQL shell (or ``-e``/``-f`` batch)
"""

from __future__ import annotations

import argparse
import sys


def _cmd_list(args) -> int:
    from repro.config import CONFIG_NAMES
    from repro.kernels import KERNEL_NAMES

    print("kernels :", ", ".join(KERNEL_NAMES))
    print("configs :", ", ".join(CONFIG_NAMES))
    return 0


def _cmd_offload(args) -> int:
    from repro.config import named_config
    from repro.kernels import get_kernel
    from repro.ssd import simulate_offload

    config = named_config(args.config)
    kernel = get_kernel(args.kernel)
    result = simulate_offload(
        config, kernel, data_bytes=args.data_mib << 20, layout_skew=args.skew
    )
    print(f"kernel        : {result.kernel_name}")
    print(f"config        : {result.config_name} ({result.num_cores} cores)")
    print(f"data          : {result.bytes_in >> 20} MiB in, {result.bytes_out >> 20} MiB out")
    print(f"throughput    : {result.throughput_gbps:.2f} GB/s")
    print(f"limited by    : {result.limiter}")
    print(f"utilisation   : {result.mean_utilisation:.1%}")
    print(f"DRAM traffic  : {result.dram_traffic.total:.2f} B per input byte")
    return 0


def _parse_tenants(text: str):
    """Parse ``name:weight:kind[:kernel[:pages[:interarrival_us[:region]]]],...``."""
    from repro.serve import TenantSpec

    specs = []
    for chunk in text.split(","):
        parts = chunk.strip().split(":")
        if len(parts) < 3:
            raise SystemExit(
                f"bad tenant spec {chunk!r}; "
                "want name:weight:kind[:kernel[:pages[:us[:region]]]]"
            )
        kwargs = dict(name=parts[0], weight=float(parts[1]), kind=parts[2])
        if len(parts) > 3 and parts[3] not in ("", "-"):
            kwargs["kernel"] = parts[3]
        if len(parts) > 4:
            kwargs["pages_per_command"] = int(parts[4])
        if len(parts) > 5:
            kwargs["interarrival_ns"] = float(parts[5]) * 1e3
        if len(parts) > 6:
            kwargs["region_pages"] = int(parts[6])
        specs.append(TenantSpec(**kwargs))
    return specs


def _add_workload_args(
    parser,
    *,
    duration_us=None,
    seed=None,
    policy=None,
    policy_choices=("rr", "wrr", "drr"),
    tenants_help=None,
) -> None:
    """Register the flags shared by the workload-driving subcommands.

    Every simulation subcommand takes ``--config``; pass ``policy`` /
    ``tenants_help`` / ``duration_us`` / ``seed`` to opt into the other
    shared flags with per-command defaults (``None`` omits the flag).
    ``--policy`` means arbitration for the serving commands and scan
    placement for the SQL commands; ``policy_choices`` selects which.
    """
    parser.add_argument("--config", default="AssasinSb")
    if policy is not None:
        parser.add_argument("--policy", default=policy, choices=list(policy_choices))
    if tenants_help is not None:
        parser.add_argument("--tenants", default="", help=tenants_help)
    if duration_us is not None:
        parser.add_argument("--duration-us", type=float, default=duration_us)
    if seed is not None:
        parser.add_argument("--seed", type=int, default=seed)


def _cmd_serve(args) -> int:
    from repro.config import ServeConfig, named_config
    from repro.serve import default_tenants, simulate_serve

    tenants = _parse_tenants(args.tenants) if args.tenants else default_tenants()
    serve_config = ServeConfig(
        queue_depth=args.queue_depth,
        arbitration=args.policy,
        max_inflight=args.max_inflight,
        quantum_pages=args.quantum_pages,
    )
    report = simulate_serve(
        named_config(args.config),
        tenants,
        serve_config,
        duration_ns=args.duration_us * 1e3,
        seed=args.seed,
    )
    print(report.render())
    return 0


def _cmd_faults(args) -> int:
    from repro.config import FaultConfig, ServeConfig, named_config
    from repro.faults import clean_baseline, run_campaign

    config = named_config(args.config)
    tenants = _parse_tenants(args.tenants) if args.tenants else None
    fault_config = FaultConfig(
        seed=args.seed,
        page_error_rate=args.page_error_rate,
        uncorrectable_rate=args.uncorrectable_rate,
        transient_fraction=args.transient_fraction,
        slow_read_rate=args.slow_read_rate,
        max_read_retries=args.read_retries,
        raid_k=args.raid_k,
    )
    serve_config = ServeConfig(
        arbitration=args.policy,
        command_timeout_ns=args.timeout_us * 1e3,
        max_command_retries=args.cmd_retries,
    )
    report = run_campaign(
        config,
        fault_config,
        tenants=tenants,
        serve_config=serve_config,
        duration_ns=args.duration_us * 1e3,
        seed=args.seed,
    )
    print(report.render())
    if args.baseline:
        clean = clean_baseline(
            config,
            tenants=tenants,
            serve_config=serve_config,
            duration_ns=args.duration_us * 1e3,
            seed=args.seed,
        )
        print()
        print("vs clean baseline:")
        for name, t in clean.tenants.items():
            faulty = report.serve.tenants[name]
            print(
                f"  {name:<10} p99 {t.p99_latency_ns / 1e3:8.1f} -> "
                f"{faulty.p99_latency_ns / 1e3:8.1f} us"
            )
        print(
            f"  goodput    {clean.goodput_gbps:.2f} -> "
            f"{report.serve.goodput_gbps:.2f} GB/s"
        )
    return 0 if report.healthy else 1


def _cmd_fleet(args) -> int:
    from repro.config import named_config
    from repro.fleet import FleetConfig, simulate_fleet

    tenants = _parse_tenants(args.tenants) if args.tenants else None
    fleet_config = FleetConfig(
        num_devices=args.devices,
        virtual_nodes=args.virtual_nodes,
        shard_pages=args.shard_pages,
        placement=args.placement,
        raid_k=args.raid_k,
        max_inflight_per_device=args.max_inflight,
        hedging=not args.no_hedge,
        slow_device=args.slow_device,
        slow_read_rate=args.slow_read_rate,
        kill_device=args.kill_device,
        kill_at_ns=args.kill_at_us * 1e3,
    )
    report = simulate_fleet(
        named_config(args.config),
        fleet_config,
        tenants=tenants,
        duration_ns=args.duration_us * 1e3,
        seed=args.seed,
    )
    print(report.render())
    healthy = report.integrity_pages_bad == 0 and report.corruption_events == 0
    return 0 if healthy else 1


def _cmd_zns(args) -> int:
    from repro.zns import ZnsConfig, run_zns

    config = ZnsConfig(
        seed=args.seed,
        duration_ns=args.duration_us * 1e3,
        num_tenants=args.tenants,
        put_fraction=args.put_fraction,
        memtable_records=args.memtable_records,
        max_open_zones=args.max_open_zones,
        compaction=args.policy,
    )
    report = run_zns(config)
    print(report.render())
    return 0


def _cmd_dse(args) -> int:
    from repro.dse import FULL_KERNELS, SweepSpec, render_table, report_json, run_sweep

    kernels = tuple(args.kernels) if args.kernels else None
    if kernels is None and args.full_suite:
        kernels = FULL_KERNELS
    kwargs = dict(
        cores=tuple(args.cores),
        geometries=tuple(args.geometries),
        pipeline_models=tuple(args.pipeline_models),
        arbitrations=tuple(args.arbitrations),
        data_bytes=args.data_mib << 20,
        sample_bytes=args.sample_kib << 10,
        seed=args.seed,
        serve_probe_ns=args.serve_probe_us * 1e3,
    )
    if kernels is not None:
        kwargs["kernels"] = kernels
    spec = SweepSpec(**kwargs)
    result = run_sweep(spec)
    print(render_table(result))
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(report_json(result))
        print(f"report written to {args.json}")
    return 0


def _cmd_trace(args) -> int:
    from repro.config import ServeConfig, named_config
    from repro.serve import default_tenants, simulate_serve
    from repro.telemetry import Telemetry, span_tracks, validate_chrome_trace

    tenants = _parse_tenants(args.tenants) if args.tenants else default_tenants()
    serve_config = ServeConfig(
        queue_depth=args.queue_depth,
        arbitration=args.policy,
        max_inflight=args.max_inflight,
    )
    telemetry = Telemetry.tracing("repro-serve")
    report = simulate_serve(
        named_config(args.config),
        tenants,
        serve_config,
        duration_ns=args.duration_us * 1e3,
        seed=args.seed,
        telemetry=telemetry,
    )
    trace = telemetry.tracer.to_chrome_trace()
    problems = validate_chrome_trace(trace)
    if problems:
        for problem in problems:
            print(f"invalid trace: {problem}", file=sys.stderr)
        return 1
    telemetry.tracer.write(args.out)
    tracks = span_tracks(trace)
    print(f"trace written : {args.out} ({len(trace['traceEvents'])} events)")
    print(f"span tracks   : {len(tracks)} ({', '.join(tracks[:8])}{', ...' if len(tracks) > 8 else ''})")
    print(f"open it at    : https://ui.perfetto.dev or chrome://tracing")
    print()
    print(report.render())
    if args.counters:
        print()
        print(telemetry.counters.render())
    return 0


def _cmd_profile(args) -> int:
    from repro.config import named_config
    from repro.kernels import get_kernel
    from repro.telemetry import profile_kernel

    kernel = get_kernel(args.kernel)
    core = named_config(args.config).core
    profile = profile_kernel(kernel, core_config=core, sample_bytes=args.sample_kib << 10)
    print(profile.report(top=args.top))
    return 0


_FIGURES = {
    "5": ("repro.experiments.fig05", {}),
    "13": ("repro.experiments.fig13", {"data_bytes": 32 << 20}),
    "14": ("repro.experiments.fig14", {}),
    "15": ("repro.experiments.fig15", {}),
    "16": ("repro.experiments.fig16", {}),
    "17": ("repro.experiments.fig16", {}),
    "18": ("repro.experiments.fig16", {}),
    "19": ("repro.experiments.fig19", {}),
    "20": ("repro.experiments.fig20", {}),
    "21": ("repro.experiments.fig21", {}),
    "22": ("repro.experiments.fig22", {}),
    "flash-scaling": ("repro.experiments.ext_flash", {}),
    "mixed-io": ("repro.experiments.ext_mixed", {}),
    "write-path": ("repro.experiments.ext_writepath", {}),
}


def _cmd_figure(args) -> int:
    import importlib

    try:
        module_name, kwargs = _FIGURES[args.number]
    except KeyError:
        print(f"unknown figure {args.number}; known: {', '.join(sorted(_FIGURES))}")
        return 2
    module = importlib.import_module(module_name)
    result = module.run(**kwargs)
    print(module.render(result))
    return 0


def _cmd_table(args) -> int:
    from repro.experiments import fig22, tables

    if args.number == "1":
        print(tables.render_table1())
    elif args.number == "2":
        print(tables.render_table2())
    elif args.number == "3":
        print(tables.render_table3())
    elif args.number == "4":
        print(tables.render_table4())
    elif args.number == "5":
        print(fig22.render(fig22.run()))
    else:
        print("unknown table; known: 1, 2, 3, 4, 5")
        return 2
    return 0


def _sql_session_from_args(args):
    from repro.config import named_config
    from repro.sql import SqlSession

    tenants = _parse_tenants(args.tenants) if args.tenants else []
    return SqlSession(
        named_config(args.config),
        gen_scale_factor=args.scale_factor,
        target_scale_factor=args.target_scale_factor,
        seed=args.seed,
        policy=args.policy,
        tenants=tenants,
        duration_ns=args.duration_us * 1e3,
    )


def _cmd_tpch(args) -> int:
    from repro.analytics.queries import query_numbers
    from repro.sql.tpch import TPCH_SQL

    session = _sql_session_from_args(args)
    numbers = args.queries or query_numbers()
    for n in numbers:
        record = session.drain(session.submit(TPCH_SQL[n]))
        result = record.result.table
        sites = "".join(p.site[0].upper() for p in record.placements)
        print(
            f"Q{n:2d}: {result.nrows:6d} rows  {record.latency_ns / 1e6:8.3f} ms "
            f"[{sites}]  columns={tuple(result.columns)}"
        )
    return 0


def _cmd_sql(args) -> int:
    from repro.sql import SqlRepl

    repl = SqlRepl(_sql_session_from_args(args))
    if args.execute:
        return repl.run_batch(args.execute)
    if args.file:
        with open(args.file) as handle:
            text = handle.read()
        return repl.run_batch(text)
    return repl.run_interactive()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="ASSASIN (MICRO 2022) reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list kernels and configurations").set_defaults(
        fn=_cmd_list
    )

    offload = sub.add_parser("offload", help="simulate one offload")
    offload.add_argument("--kernel", default="stat")
    offload.add_argument("--config", default="AssasinSb")
    offload.add_argument("--data-mib", type=int, default=32)
    offload.add_argument("--skew", type=float, default=0.0)
    offload.set_defaults(fn=_cmd_offload)

    serve = sub.add_parser("serve", help="multi-tenant QoS serving simulation")
    _add_workload_args(
        serve,
        duration_us=2_000.0,
        seed=42,
        policy="wrr",
        tenants_help="comma-separated name:weight:kind[:kernel[:pages[:interarrival_us]]] "
        "(default: 3-tenant mixed scomp+read mix)",
    )
    serve.add_argument("--queue-depth", type=int, default=64)
    serve.add_argument("--max-inflight", type=int, default=8)
    serve.add_argument("--quantum-pages", type=int, default=8)
    serve.set_defaults(fn=_cmd_serve)

    faults = sub.add_parser("faults", help="seeded fault campaign with RAID recovery")
    _add_workload_args(
        faults,
        duration_us=500.0,
        seed=1,
        policy="wrr",
        tenants_help="same syntax as `serve`; default: small reader+scanner mix",
    )
    faults.add_argument("--page-error-rate", type=float, default=0.02)
    faults.add_argument("--uncorrectable-rate", type=float, default=0.005)
    faults.add_argument("--transient-fraction", type=float, default=0.5)
    faults.add_argument("--slow-read-rate", type=float, default=0.01)
    faults.add_argument("--read-retries", type=int, default=3)
    faults.add_argument("--raid-k", type=int, default=4)
    faults.add_argument("--timeout-us", type=float, default=0.0)
    faults.add_argument("--cmd-retries", type=int, default=1)
    faults.add_argument(
        "--baseline", action="store_true", help="also run and compare a clean run"
    )
    faults.set_defaults(fn=_cmd_faults)

    fleet = sub.add_parser(
        "fleet", help="rack-scale multi-device fleet simulation"
    )
    _add_workload_args(
        fleet,
        duration_us=400.0,
        seed=7,
        tenants_help="same syntax as `serve`; default: hot scomp + reader + writer mix",
    )
    fleet.add_argument("--devices", type=int, default=4, help="peer SSD count")
    fleet.add_argument(
        "--virtual-nodes", type=int, default=64, help="ring positions per device"
    )
    fleet.add_argument(
        "--shard-pages", type=int, default=64, help="fleet-LPA pages per shard"
    )
    fleet.add_argument(
        "--raid-k", type=int, default=3, help="data pages per cross-device stripe"
    )
    fleet.add_argument(
        "--placement",
        default="hash",
        choices=["hash", "load"],
        help="'hash': ring home; 'load': least-loaded ring candidate for writes",
    )
    fleet.add_argument("--max-inflight", type=int, default=8)
    fleet.add_argument(
        "--no-hedge", action="store_true", help="disable hedged (duplicate) requests"
    )
    fleet.add_argument(
        "--slow-device", type=int, default=-1, help="index of a straggler device"
    )
    fleet.add_argument(
        "--slow-read-rate",
        type=float,
        default=0.2,
        help="slow-read probability on the straggler (with --slow-device)",
    )
    fleet.add_argument(
        "--kill-device", type=int, default=-1, help="hard-fail this device mid-run"
    )
    fleet.add_argument(
        "--kill-at-us",
        type=float,
        default=150.0,
        help="when the killed device dies (with --kill-device)",
    )
    fleet.set_defaults(fn=_cmd_fleet)

    zns = sub.add_parser(
        "zns", help="zoned-namespace LSM campaign with compaction offload"
    )
    zns.add_argument("--duration-us", type=float, default=4_000.0)
    zns.add_argument("--seed", type=int, default=7)
    zns.add_argument(
        "--policy",
        default="auto",
        choices=["host", "device", "auto"],
        help="compaction placement: on the host, in the SSD, or cost-driven",
    )
    zns.add_argument("--tenants", type=int, default=4, help="put/get tenant count")
    zns.add_argument("--put-fraction", type=float, default=0.9)
    zns.add_argument("--memtable-records", type=int, default=1024)
    zns.add_argument("--max-open-zones", type=int, default=8)
    zns.set_defaults(fn=_cmd_zns)

    dse = sub.add_parser(
        "dse", help="design-space sweep with Pareto-frontier report"
    )
    dse.add_argument(
        "--cores", type=int, nargs="+", default=[4, 8], help="engine counts to sweep"
    )
    dse.add_argument(
        "--geometries",
        nargs="+",
        default=["sb-S8P2", "sb-S8P4", "sp"],
        help="data-path geometries: 'sp' or 'sb-S<streams>P<pages>'",
    )
    dse.add_argument(
        "--pipeline-models",
        nargs="+",
        default=["static", "predictive"],
        choices=["static", "predictive"],
        help="core timing models to sweep",
    )
    dse.add_argument(
        "--arbitrations",
        nargs="+",
        default=["wrr"],
        choices=["rr", "wrr", "drr"],
        help="arbitration policies (>1 turns on the serving probe)",
    )
    dse.add_argument(
        "--kernels", nargs="+", default=[], help="kernel suite (default: stat raid4 psf)"
    )
    dse.add_argument(
        "--full-suite", action="store_true", help="use the full fig13/fig14 suite"
    )
    dse.add_argument("--data-mib", type=int, default=8, help="offload size per kernel")
    dse.add_argument("--sample-kib", type=int, default=16, help="pricing-sample window")
    dse.add_argument("--seed", type=int, default=7)
    dse.add_argument(
        "--serve-probe-us",
        type=float,
        default=0.0,
        help="serving-probe duration per point (0: only when >1 arbitration)",
    )
    dse.add_argument("--json", default="", help="also write the JSON report here")
    dse.set_defaults(fn=_cmd_dse)

    trace = sub.add_parser(
        "trace", help="serve run with tracing on; writes Chrome/Perfetto JSON"
    )
    _add_workload_args(
        trace,
        duration_us=300.0,
        seed=42,
        policy="wrr",
        tenants_help="same syntax as `serve`; default: 3-tenant mixed scomp+read mix",
    )
    trace.add_argument("--queue-depth", type=int, default=64)
    trace.add_argument("--max-inflight", type=int, default=8)
    trace.add_argument("--out", default="trace.json", help="output trace path")
    trace.add_argument(
        "--counters", action="store_true", help="also dump the counter registry"
    )
    trace.set_defaults(fn=_cmd_trace)

    profile = sub.add_parser(
        "profile", help="ISA-level cycle attribution for one kernel"
    )
    _add_workload_args(profile)
    profile.add_argument("--kernel", default="scan")
    profile.add_argument(
        "--sample-kib", type=int, default=0, help="input window KiB (0: kernel default)"
    )
    profile.add_argument("--top", type=int, default=10, help="rows in the hot-spot tables")
    profile.set_defaults(fn=_cmd_profile)

    figure = sub.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument("number", choices=sorted(_FIGURES))
    figure.set_defaults(fn=_cmd_figure)

    table = sub.add_parser("table", help="regenerate a paper table")
    table.add_argument("number", choices=["1", "2", "3", "4", "5"])
    table.set_defaults(fn=_cmd_table)

    tpch = sub.add_parser("tpch", help="run TPC-H queries on the live device")
    tpch.add_argument("queries", nargs="*", type=int)
    _add_workload_args(
        tpch,
        duration_us=50_000.0,
        seed=7,
        policy="auto",
        policy_choices=("host", "device", "auto"),
        tenants_help="background tenants, same syntax as `serve`",
    )
    tpch.add_argument("--scale-factor", type=float, default=0.004)
    tpch.add_argument(
        "--target-scale-factor",
        type=float,
        default=None,
        help="scale whose timing is modelled (default: --scale-factor)",
    )
    tpch.set_defaults(fn=_cmd_tpch)

    sql = sub.add_parser("sql", help="SQL shell on the simulated device")
    _add_workload_args(
        sql,
        duration_us=50_000.0,
        seed=7,
        policy="auto",
        policy_choices=("host", "device", "auto"),
        tenants_help="background tenants, same syntax as `serve`",
    )
    sql.add_argument("-e", "--execute", default="", help="run this statement batch and exit")
    sql.add_argument("-f", "--file", default="", help="run statements from a file and exit")
    sql.add_argument("--scale-factor", type=float, default=0.004)
    sql.add_argument(
        "--target-scale-factor",
        type=float,
        default=None,
        help="scale whose timing is modelled (default: --scale-factor)",
    )
    sql.set_defaults(fn=_cmd_sql)

    reproduce = sub.add_parser(
        "reproduce", help="run every table and figure; write one report"
    )
    reproduce.add_argument("--out", default="reproduction_report.txt")
    reproduce.add_argument("--fast", action="store_true", help="smaller datasets")
    reproduce.set_defaults(fn=_cmd_reproduce)
    return parser


def _cmd_reproduce(args) -> int:
    from repro.experiments.runner import reproduce_all

    report = reproduce_all(fast=args.fast)
    with open(args.out, "w") as handle:
        handle.write(report)
    print(f"report written to {args.out} ({len(report.splitlines())} lines)")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
