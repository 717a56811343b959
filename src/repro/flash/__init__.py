"""NAND flash array simulator (the MQSim stand-in of the paper's Figure 11).

Deterministic greedy-timeline model: each plane's read and program/erase
lanes track when they become free, each channel bus tracks its busy
intervals, and requests are served in issue order — capturing plane-level
parallelism, channel serialisation, and the read/program/erase latency
asymmetry of NAND. As in MQSim, that timing state is flat: int lists on
the :class:`FlashArray`, which serves a page read or program in one call.
"""

from repro.flash.onfi import ONFI_PROFILES, OnfiTiming
from repro.flash.array import FlashArray, PhysicalPageAddress, PlaneLanes, ServiceRecord
from repro.flash.ecc import ECCStatus, decode_page, encode_page, inject_bit_errors

__all__ = [
    "ONFI_PROFILES",
    "OnfiTiming",
    "FlashArray",
    "PhysicalPageAddress",
    "PlaneLanes",
    "ServiceRecord",
    "ECCStatus",
    "encode_page",
    "decode_page",
    "inject_bit_errors",
]
