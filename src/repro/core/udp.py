"""UDP accelerator-lane model (the paper's application-specific comparator).

UDP (Fang et al.) is an accelerator for unstructured data processing: lanes
compute out of private scratchpads that the firmware fills by copying from
SSD DRAM, and its ISA uses multiway dispatch and fused operations to cut
instruction counts on branchy, byte-oriented code.

We model a lane by running the kernel's memory-form program on a
scratchpad-only engine (the :class:`~repro.core.core.CoreModel` handles the
staging layout) and scaling the cycle count by the kernel's *UDP ISA
factor* — the fraction of instructions that survive multiway dispatch and
operation fusion. The factor is near 0.5 for parser-style state machines
(UDP's sweet spot), mild for predicate evaluation, and 1.0 for arithmetic
kernels that gain nothing from the dispatch tricks. The staging copies are
charged to SSD DRAM traffic, which is how the paper explains accelerators
*increasing* DRAM pressure (Section VI-B).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional, Sequence

from repro.config import CoreConfig, udp_core
from repro.core.core import CoreModel, CoreRunResult
from repro.mem.dram import DRAMModel

#: Default cycle-scaling factors by kernel name (fraction of baseline
#: instruction work remaining after UDP's multiway dispatch + fusion).
UDP_ISA_FACTORS: Dict[str, float] = {
    "parse": 0.45,
    "filter": 0.70,
    "select": 0.70,
    "psf": 0.55,
    "stat": 0.90,
    "scan": 0.95,
}
_DEFAULT_FACTOR = 1.0


class UDPLaneModel:
    """One UDP lane: scratchpad-staged compute with an ISA-efficiency scale."""

    def __init__(self, core: Optional[CoreConfig] = None, dram: Optional[DRAMModel] = None) -> None:
        self.core = core or udp_core()
        self.dram = dram
        self._model = CoreModel(self.core, dram=dram)

    def isa_factor(self, kernel) -> float:
        explicit = getattr(kernel, "udp_isa_factor", None)
        if explicit is not None:
            return explicit
        return UDP_ISA_FACTORS.get(kernel.name, _DEFAULT_FACTOR)

    def run(self, kernel, inputs: Sequence[bytes]) -> CoreRunResult:
        """Run ``kernel`` on the lane; cycles reflect the UDP ISA."""
        result = self._model.run(kernel, inputs)
        factor = self.isa_factor(kernel)
        # Firmware copies staged data DRAM -> scratchpad and results back.
        self._model.dram.add_traffic("core_fill", result.bytes_in)
        self._model.dram.add_traffic("core_writeback", result.bytes_out)
        return replace(
            result,
            config_name=self.core.name,
            cycles=result.cycles * factor,
            dram_traffic=self._model.dram.traffic,
        )
