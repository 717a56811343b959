"""Offloaded computational-storage kernels (paper Table II / Section VI).

Every kernel provides three synchronised implementations:

* a **Python reference** (used as ground truth in tests),
* a **stream program** written against the stream ISA (``StreamLoad`` /
  ``StreamStore``) for the ``AssasinSb``/``AssasinSb$`` engines,
* a **memory program** written with explicit pointers and bounds checks for
  the DRAM/scratchpad engines (``Baseline``/``Prefetch``/``UDP``/
  ``AssasinSp``) — the pointer-management overhead the stream ISA removes
  is therefore structural, not a fudge factor.
"""

from repro.kernels.api import Kernel, STATE_SIZE_LIMIT
from repro.kernels.pricing import KernelPricingCache, PRICING_CACHE
from repro.kernels.registry import KERNEL_NAMES, get_kernel

__all__ = [
    "Kernel",
    "KernelPricingCache",
    "PRICING_CACHE",
    "STATE_SIZE_LIMIT",
    "KERNEL_NAMES",
    "get_kernel",
]
