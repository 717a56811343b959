"""Fast-path engine throughput: instructions/s vs the per-step oracle.

The fast engine exists so the reproduction "runs as fast as the hardware
allows": every figure funnels through the ISA execution loop. This harness
records timed instructions/s for the per-step timing oracle
(``tests/core_oracle.py``: the reference interpreter stepped one
instruction at a time) and for the core model's predecoded fast engine:

* the fig13/fig14 kernels on the three data paths — stream buffers
  (AssasinSb), ping-pong scratchpads (AssasinSp) and DRAM-space caches
  (Baseline) — gated at >=3x the oracle, with the fast engine's
  instructions/s under the predictive timing model recorded beside them,
  not gated;
* the rest of the kernel registry on AssasinSb, recorded, not gated.

Both must produce identical architectural results while doing so, and a
predictive run must retire the static run's instructions to the same
outputs and state. Emits ``BENCH_fastpath.json`` (fast, predictive and
oracle instructions/s per row) before the gate is asserted, so a failing
gate still leaves its evidence.
"""

import json
import time

from conftest import run_once

from repro.config import named_config
from repro.core.core import CoreModel
from repro.kernels.registry import KERNEL_NAMES, get_kernel

from tests.core_oracle import OracleCoreModel

FIG13_KERNELS = ("stat", "raid4", "raid6", "aes")
FIG14_KERNEL = "psf"  # the fig14 pipeline is built from PSF stages
TARGET_KERNELS = FIG13_KERNELS + (FIG14_KERNEL,)
TARGET_CONFIGS = ("AssasinSb", "AssasinSp", "Baseline")
SWEEP_CONFIG = "AssasinSb"
TARGET_SPEEDUP = 3.0

TARGET_BYTES = 64 * 1024  # long runs: stable wall-clock for the 3x gate
SWEEP_BYTES = 32 * 1024  # the rest of the registry is recorded, not gated


def _measure(config_name: str, kernel_name: str, model, data_bytes: int,
             timing: str = "static"):
    cfg = named_config(config_name).with_pipeline_model(timing)
    kernel = get_kernel(kernel_name)
    inputs = kernel.make_inputs(data_bytes, seed=3)
    core = model(cfg.core)
    start = time.perf_counter()
    result = core.run(kernel, inputs)
    elapsed = time.perf_counter() - start
    return result.instructions / elapsed, result


def _cases():
    """(config, kernel, bytes, gated) for every measured row."""
    cases = [(c, k, TARGET_BYTES, True) for c in TARGET_CONFIGS for k in TARGET_KERNELS]
    cases += [
        (SWEEP_CONFIG, k, SWEEP_BYTES, False)
        for k in KERNEL_NAMES
        if k not in TARGET_KERNELS
    ]
    return cases


def _sweep():
    rows = []
    for config_name, kernel_name, data_bytes, gated in _cases():
        fast_ips, fast = _measure(config_name, kernel_name, CoreModel, data_bytes)
        ref_ips, ref = _measure(config_name, kernel_name, OracleCoreModel, data_bytes)
        # Speed means nothing unless the architectural results are unchanged.
        label = f"{config_name}/{kernel_name}"
        assert fast.cycles == ref.cycles, label
        assert fast.instructions == ref.instructions, label
        assert fast.outputs == ref.outputs, label
        assert fast.final_state == ref.final_state, label
        row = {
            "config": config_name,
            "kernel": kernel_name,
            "bytes": data_bytes,
            "instructions": fast.instructions,
            "fast_instr_per_s": round(fast_ips),
            "oracle_instr_per_s": round(ref_ips),
            "speedup": round(fast_ips / ref_ips, 2),
            "gated": gated,
        }
        if gated:
            # The predictive model reprices cycles only: same architecture.
            pred_ips, pred = _measure(
                config_name, kernel_name, CoreModel, data_bytes, "predictive"
            )
            assert pred.outputs == fast.outputs, label
            assert pred.final_state == fast.final_state, label
            assert pred.final_regs == fast.final_regs, label
            assert pred.instructions == fast.instructions, label
            row["predictive_instr_per_s"] = round(pred_ips)
        rows.append(row)
    return rows


def test_fastpath_speed(benchmark):
    rows = run_once(benchmark, _sweep)

    header = (
        f"{'config':<11}{'kernel':<14}{'oracle instr/s':>16}"
        f"{'fast instr/s':>14}{'speedup':>9}{'predictive instr/s':>20}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        predictive = row.get("predictive_instr_per_s")
        lines.append(
            f"{row['config']:<11}{row['kernel']:<14}{row['oracle_instr_per_s']:>16,}"
            f"{row['fast_instr_per_s']:>14,}{row['speedup']:>8.2f}x"
            + (f"{predictive:>20,}" if predictive is not None else "")
        )
    print("\n" + "\n".join(lines))

    with open("BENCH_fastpath.json", "w") as handle:
        json.dump(
            {
                "benchmark": "fastpath_speed",
                "target_bytes": TARGET_BYTES,
                "sweep_bytes": SWEEP_BYTES,
                "min_speedup": TARGET_SPEEDUP,
                "rows": rows,
            },
            handle,
            indent=2,
            sort_keys=True,
        )
    for row in rows:
        if row["gated"]:
            assert row["speedup"] >= TARGET_SPEEDUP, (
                f"{row['config']}/{row['kernel']}: fast path only "
                f"{row['speedup']:.2f}x over the oracle"
            )
