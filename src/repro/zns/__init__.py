"""``repro.zns`` — zoned-namespace mode with LSM compaction offload.

The ZNS counterpart of the block-device stack: the device runs the
:class:`~repro.ftl.zoned.ZonedFTL` (zone append / reset / report instead of
random writes + page GC), an LSM engine writes sorted runs into zones, and
leveled compaction runs either on the host or inside the SSD via the
``merge`` stream kernel — the placement question this package exists to
answer with numbers.
"""

from repro.zns.config import COMPACTION_POLICIES, ZnsConfig, zns_flash_config
from repro.zns.firmware import ZnsFirmware
from repro.zns.lsm import CompactionPick, LsmTree, Segment, SortedRun
from repro.zns.metrics import ZnsReport
from repro.zns.workload import ZnsCampaign

__all__ = [
    "COMPACTION_POLICIES",
    "CompactionPick",
    "LsmTree",
    "Segment",
    "SortedRun",
    "ZnsCampaign",
    "ZnsConfig",
    "ZnsFirmware",
    "ZnsReport",
    "zns_flash_config",
]
