"""Golden architectural fingerprints for every registered kernel.

``tests/golden/isa_fingerprints.json`` pins, per (config, kernel): the
cycle count, retired-instruction count (instret), and SHA-256 hashes of the
final register file, kernel outputs, and kernel state. The pins were
generated by stepping the reference interpreter under the per-step timing
oracle (``tests/core_oracle.py``), so this test simultaneously detects
drift in the seed semantics and any divergence of the fast engine, the
core model's only engine, from them.

Regenerate after an intentional architectural change with::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_isa_fingerprints.py

(the regeneration pass always runs the oracle, keeping it the ground truth
the fast engine is measured against).
"""

import hashlib
import json
import os
import struct
from pathlib import Path

import pytest

from repro.config import named_config
from repro.core.core import CoreModel
from repro.kernels.registry import KERNEL_NAMES, get_kernel

from tests.core_oracle import OracleCoreModel

GOLDEN_PATH = Path(__file__).parent / "golden" / "isa_fingerprints.json"

CONFIGS = ("AssasinSb", "Baseline")  # stream form and memory form
INPUT_BYTES = 4 * 1024
SEED = 11


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _fingerprint(config_name: str, kernel_name: str, model=CoreModel) -> dict:
    cfg = named_config(config_name)
    kernel = get_kernel(kernel_name)
    inputs = kernel.make_inputs(INPUT_BYTES, seed=SEED)
    result = model(cfg.core).run(kernel, inputs)
    return {
        "cycles": result.cycles,
        "instret": result.instructions,
        "regfile_sha256": _sha(struct.pack("<32I", *result.final_regs)),
        "outputs_sha256": _sha(b"\x00".join(result.outputs)),
        "state_sha256": _sha(result.final_state),
    }


def _regen() -> dict:
    data = {
        f"{config}/{kernel}": _fingerprint(config, kernel, OracleCoreModel)
        for config in CONFIGS
        for kernel in KERNEL_NAMES
    }
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return data


_GOLDEN_CACHE = None


def _golden() -> dict:
    global _GOLDEN_CACHE
    if _GOLDEN_CACHE is None:
        if os.environ.get("REGEN_GOLDEN"):
            _GOLDEN_CACHE = _regen()
        else:
            _GOLDEN_CACHE = json.loads(GOLDEN_PATH.read_text())
    return _GOLDEN_CACHE


@pytest.mark.parametrize("config_name", CONFIGS)
@pytest.mark.parametrize("kernel_name", KERNEL_NAMES)
def test_kernel_fingerprint_pinned(config_name, kernel_name):
    """The fast engine reproduces the oracle-generated pins exactly."""
    actual = _fingerprint(config_name, kernel_name)
    assert actual == _golden()[f"{config_name}/{kernel_name}"]


def test_golden_file_covers_every_kernel():
    missing = [
        f"{c}/{k}" for c in CONFIGS for k in KERNEL_NAMES
        if f"{c}/{k}" not in _golden()
    ]
    assert not missing
