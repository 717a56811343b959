"""Deterministic, seeded fault injection for the flash substrate.

The :class:`FaultInjector` sits on the device's read path (called by
:class:`repro.ssd.firmware.RecoveryController` once per read *attempt*)
and decides — purely as a function of ``(campaign seed, physical page,
per-page read count)`` — whether that attempt observes:

* **sparse noise** — ``noisy_bits`` single-bit flips spread over distinct
  ECC codewords, always correctable by the chip's SECDED decode; the
  pristine bytes travel back on the :class:`ReadFault` so the firmware can
  scrub the cells after correction,
* **an uncorrectable burst** — exactly two flips inside one 64-bit
  codeword, which SECDED *detects* but cannot correct (two flips keep the
  overall parity even while the syndrome is nonzero; three flips would be
  silently miscorrected, so bursts are always injected as pairs),
* **a latency outlier** — a "slow die" sense adding ``slow_read_extra_ns``,
* **a hard fault** — the page sits inside a failed channel/chip/plane
  whose :class:`repro.config.HardFault` onset has passed.

Bursts are **transient** with probability ``transient_fraction`` (the
shifted sense threshold recovers on the next read attempt, modelling
read-retry recalibration: the injector restores the pristine bytes and the
retry succeeds) and **permanent** otherwise (the corruption persists until
the firmware rebuilds the page from its RAID group and remaps it, at which
point :meth:`FaultInjector.forget` clears the dead physical page).

Every random draw comes from ``random.Random`` seeded by arithmetic
mixing — never the process-randomised ``hash()`` — so two runs with the
same seed and call sequence corrupt identical bits in identical order.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.config import FaultConfig, FlashConfig, HardFault
from repro.errors import FaultError
from repro.flash.array import FlashArray, PhysicalPageAddress


@dataclass
class ReadFault:
    """What the injector did to one read attempt.

    ``kind`` is ``None`` (clean), ``'noise'`` (correctable flips),
    ``'transient'``/``'permanent'`` (uncorrectable burst), or ``'hard'``
    (the page is inside a dead unit — no data comes back at all).
    ``touched`` tells the firmware whether the page's raw bytes may differ
    from what was programmed, i.e. whether the full ECC decode is needed;
    ``scrub`` carries the pristine bytes to restore after a successful
    correction.
    """

    kind: Optional[str] = None
    slow_extra_ns: float = 0.0
    touched: bool = False
    scrub: Optional[bytes] = None


@dataclass
class _ActiveFault:
    """An injected burst whose corruption is still in the cells."""

    kind: str  # 'transient' | 'permanent'
    pristine: bytes


class FaultInjector:
    """Seeded per-read fault source over one flash array geometry."""

    def __init__(self, config: FaultConfig, flash: FlashConfig, registry=None) -> None:
        self.cfg = config
        self.flash = flash
        #: With a :class:`~repro.telemetry.counters.CounterRegistry` the
        #: injection tallies publish as ``faults.*`` in the device snapshot;
        #: standalone injectors keep a private Counter (same interface).
        if registry is None:
            self.counters = Counter()
        else:
            self.counters = registry.group("faults")
        self._reads: Dict[int, int] = {}  # flat ppa -> read attempts seen
        self._active: Dict[int, _ActiveFault] = {}

    # -- deterministic RNG ----------------------------------------------------

    def _rng(self, flat: int, attempt: int) -> random.Random:
        # Distinct primes decorrelate the three inputs without relying on
        # hash().
        return random.Random(
            (self.cfg.seed * 1_000_003 + flat) * 7_919 + attempt * 104_729
        )

    # -- hard-fault zones -----------------------------------------------------

    @staticmethod
    def _in_zone(fault: HardFault, ppa: PhysicalPageAddress) -> bool:
        if fault.channel != ppa.channel:
            return False
        if fault.kind == "channel":
            return True
        if fault.chip != ppa.chip:
            return False
        if fault.kind == "chip":
            return True
        return fault.die == ppa.die and fault.plane == ppa.plane

    def hard_failed(self, ppa: PhysicalPageAddress, now_ns: float) -> bool:
        """Is ``ppa`` inside a hard-fault zone whose onset has passed?"""
        return any(
            f.onset_ns <= now_ns and self._in_zone(f, ppa)
            for f in self.cfg.failures
        )

    # -- the read-path hook ---------------------------------------------------

    def on_read(self, array: FlashArray, ppa: PhysicalPageAddress, now_ns: float) -> ReadFault:
        """Apply this attempt's sampled fault to the cells; report what hit."""
        if self.hard_failed(ppa, now_ns):
            return ReadFault(kind="hard")
        flat = ppa.flat_index(self.flash)
        attempt = self._reads.get(flat, 0)
        self._reads[flat] = attempt + 1
        rng = self._rng(flat, attempt)
        draw = rng.random()  # fault-class draw, always consumed first
        slow = (
            self.cfg.slow_read_extra_ns
            if self.cfg.slow_read_rate and rng.random() < self.cfg.slow_read_rate
            else 0.0
        )
        if slow:
            self.counters["injected_slow_reads"] += 1

        active = self._active.get(flat)
        if active is not None:
            if active.kind == "transient":
                # Read-retry recalibration: the shifted sense threshold
                # recovers, so this attempt sees the pristine bytes again.
                array.overwrite_raw(ppa, active.pristine)
                del self._active[flat]
                self.counters["transient_heals"] += 1
                return ReadFault(kind=None, slow_extra_ns=slow, touched=False)
            return ReadFault(kind="permanent", slow_extra_ns=slow, touched=True)

        pristine = array.read_data(ppa)
        if pristine is None:
            # Mapped-but-never-programmed page (metadata-only workloads):
            # there are no cells to corrupt.
            return ReadFault(kind=None, slow_extra_ns=slow, touched=False)

        if draw < self.cfg.uncorrectable_rate:
            kind = (
                "transient"
                if rng.random() < self.cfg.transient_fraction
                else "permanent"
            )
            array.overwrite_raw(ppa, self._burst(pristine, rng))
            self._active[flat] = _ActiveFault(kind, pristine)
            self.counters[f"injected_{kind}_bursts"] += 1
            return ReadFault(kind=kind, slow_extra_ns=slow, touched=True)

        if draw < self.cfg.uncorrectable_rate + self.cfg.page_error_rate:
            array.overwrite_raw(ppa, self._noise(pristine, rng))
            self.counters["injected_noise_pages"] += 1
            return ReadFault(kind="noise", slow_extra_ns=slow, touched=True, scrub=pristine)

        return ReadFault(kind=None, slow_extra_ns=slow, touched=False)

    def forget(self, ppa: PhysicalPageAddress) -> None:
        """Drop injector state for a physical page leaving service (remap)."""
        flat = ppa.flat_index(self.flash)
        self._active.pop(flat, None)
        self._reads.pop(flat, None)

    # -- corruption shapes ----------------------------------------------------

    @staticmethod
    def _burst(data: bytes, rng: random.Random) -> bytes:
        """Two flips inside one codeword: detected-uncorrectable by SECDED."""
        if len(data) < 1:
            raise FaultError("cannot inject a burst into an empty page")
        out = bytearray(data)
        words = len(data) // 8
        if words:
            word = rng.randrange(words)
            base, span = word * 64, 64
        else:
            base, span = 0, len(data) * 8
        if span < 2:
            raise FaultError("page too small for a two-bit burst")
        a, b = rng.sample(range(span), 2)
        for bit in (base + a, base + b):
            out[bit // 8] ^= 1 << (bit % 8)
        return bytes(out)

    def _noise(self, data: bytes, rng: random.Random) -> bytes:
        """Single-bit flips in distinct codewords: always correctable."""
        out = bytearray(data)
        words = max(1, len(data) // 8)
        nbits = min(self.cfg.noisy_bits, words)
        for word in rng.sample(range(words), nbits):
            span = min(64, len(data) * 8 - word * 64)
            bit = word * 64 + rng.randrange(span)
            out[bit // 8] ^= 1 << (bit % 8)
        return bytes(out)
