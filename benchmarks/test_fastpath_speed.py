"""Fast-path engine throughput: steps/sec vs the per-step oracle, whole registry.

The fast engine exists so the reproduction "runs as fast as the hardware
allows": every figure funnels through the ISA execution loop. This harness
records timed steps/sec for the per-step timing oracle
(``tests/core_oracle.py``: the reference interpreter stepped one
instruction at a time) and for the core model's predecoded fast engine on
every registered kernel, asserts the fast engine is >=3x on the fig13/fig14
kernels, and — the part that actually matters — that both produce
identical architectural results while doing so.
"""

import time

from conftest import run_once

from repro.config import named_config
from repro.core.core import CoreModel
from repro.kernels.registry import KERNEL_NAMES, get_kernel

from tests.core_oracle import OracleCoreModel

FIG13_KERNELS = ("stat", "raid4", "raid6", "aes")
FIG14_KERNEL = "psf"  # the fig14 pipeline is built from PSF stages
TARGET_KERNELS = FIG13_KERNELS + (FIG14_KERNEL,)
TARGET_SPEEDUP = 3.0

TARGET_BYTES = 128 * 1024  # long runs: stable wall-clock for the 3x gate
SWEEP_BYTES = 32 * 1024  # the rest of the registry is recorded, not gated


def _measure(kernel_name: str, model, data_bytes: int):
    cfg = named_config("AssasinSb")
    kernel = get_kernel(kernel_name)
    inputs = kernel.make_inputs(data_bytes, seed=3)
    core = model(cfg.core)
    start = time.perf_counter()
    result = core.run(kernel, inputs)
    elapsed = time.perf_counter() - start
    return result.instructions / elapsed, result


def _sweep():
    rows = []
    for name in KERNEL_NAMES:
        data_bytes = TARGET_BYTES if name in TARGET_KERNELS else SWEEP_BYTES
        fast_sps, fast_result = _measure(name, CoreModel, data_bytes)
        ref_sps, ref_result = _measure(name, OracleCoreModel, data_bytes)
        # Speed means nothing unless the architectural results are unchanged.
        assert fast_result.cycles == ref_result.cycles, name
        assert fast_result.instructions == ref_result.instructions, name
        assert fast_result.outputs == ref_result.outputs, name
        assert fast_result.final_state == ref_result.final_state, name
        rows.append((name, ref_sps, fast_sps, fast_sps / ref_sps))
    return rows


def test_fastpath_speed(benchmark):
    rows = run_once(benchmark, _sweep)

    header = f"{'kernel':<14}{'ref steps/s':>14}{'fast steps/s':>14}{'speedup':>9}"
    lines = [header, "-" * len(header)]
    for name, ref_sps, fast_sps, speedup in rows:
        lines.append(f"{name:<14}{ref_sps:>14,.0f}{fast_sps:>14,.0f}{speedup:>8.2f}x")
    print("\n" + "\n".join(lines))

    speedups = {name: speedup for name, _, _, speedup in rows}
    for name in TARGET_KERNELS:
        assert speedups[name] >= TARGET_SPEEDUP, (
            f"{name}: fast path only {speedups[name]:.2f}x over the oracle"
        )
