"""Tenant workload specifications and deterministic traffic generators.

Two classic load models from queueing-system evaluation:

* **open loop** — commands arrive on a seeded stochastic process (Poisson
  or fixed-period) regardless of how the device keeps up; overload shows
  up as queue growth and drops. This is the model for "heavy traffic from
  many users".
* **closed loop** — each tenant keeps a fixed number of commands
  outstanding and submits the next one ``think_ns`` after a completion;
  load self-regulates, which is the model for batch/analytics clients.

Every random draw comes from one ``random.Random`` seeded from
``(global seed, tenant index)``, so a serve run is a pure function of its
inputs: same seed → identical arrival times, offsets, and metrics.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from repro.config import check_count
from repro.errors import ServeError
from repro.serve.queues import ServeCommand
from repro.ssd.host_interface import HostInterface, NVMeCommand, ReadCommand, ScompCommand, WriteCommand

COMMAND_KINDS = ("scomp", "read", "write")
#: Tenant kinds: the three self-generating command kinds plus ``sql``, a
#: driven analytic tenant — the SQL session injects its own scan commands
#: through :meth:`ServingLayer.submit_driven`, so the traffic loop skips it.
TENANT_KINDS = COMMAND_KINDS + ("sql",)
ARRIVAL_PROCESSES = ("poisson", "fixed", "burst")


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's identity, QoS weight, and traffic shape."""

    name: str
    weight: float = 1.0
    kind: str = "scomp"  # 'scomp' | 'read' | 'write' | 'sql' (driven)
    kernel: str = "stat"  # scomp only: registry name of the offloaded kernel
    pages_per_command: int = 8
    interarrival_ns: float = 20_000.0  # open loop: mean gap between arrivals
    arrival: str = "poisson"  # 'poisson' | 'fixed' | 'burst'
    closed_loop: bool = False
    outstanding: int = 4  # closed loop: commands kept in flight
    think_ns: float = 0.0  # closed loop: completion-to-resubmit gap
    region_pages: int = 4096  # size of the tenant's private LPA region
    #: write only: rewrite LPAs inside the tenant's own region instead of
    #: appending to the serve-output namespace. In-place rewrites invalidate
    #: the old flash pages, which is what builds real GC pressure.
    overwrite: bool = False
    #: burst arrival: Poisson arrivals at ``interarrival_ns`` during the ON
    #: phase, silence during the OFF phase, phases alternating forever.
    burst_on_ns: float = 200_000.0
    burst_off_ns: float = 200_000.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ServeError("tenant needs a name")
        if self.weight <= 0:
            raise ServeError(f"tenant {self.name!r}: weight must be positive")
        if self.kind not in TENANT_KINDS:
            raise ServeError(
                f"tenant {self.name!r}: unknown kind {self.kind!r}; known: {TENANT_KINDS}"
            )
        if self.arrival not in ARRIVAL_PROCESSES:
            raise ServeError(
                f"tenant {self.name!r}: unknown arrival process {self.arrival!r}; "
                f"known: {ARRIVAL_PROCESSES}"
            )
        check_count(
            self.pages_per_command, f"tenant {self.name!r}: pages_per_command",
            error=ServeError,
        )
        if self.interarrival_ns <= 0:
            raise ServeError(f"tenant {self.name!r}: interarrival_ns must be positive")
        check_count(self.outstanding, f"tenant {self.name!r}: outstanding", error=ServeError)
        if self.think_ns < 0:
            raise ServeError(f"tenant {self.name!r}: think_ns cannot be negative")
        # The region must cover at least one command.
        check_count(
            self.region_pages, f"tenant {self.name!r}: region_pages",
            self.pages_per_command, error=ServeError,
        )
        if self.arrival == "burst" and (self.burst_on_ns <= 0 or self.burst_off_ns <= 0):
            raise ServeError(
                f"tenant {self.name!r}: burst phases must be positive"
            )
        if self.overwrite and self.kind != "write":
            raise ServeError(
                f"tenant {self.name!r}: overwrite only applies to write tenants"
            )


class WorkloadGenerator:
    """Deterministic per-tenant command source over a private LPA region."""

    def __init__(self, spec: TenantSpec, index: int, seed: int, lpa_base: int) -> None:
        self.spec = spec
        self.index = index
        self.lpa_base = lpa_base
        # One independent stream per (seed, tenant index); the constants
        # just decorrelate nearby seeds, any fixed primes would do.
        self.rng = random.Random((seed + 1) * 1_000_003 + index * 7_919)
        self.generated = 0

    def next_arrival_ns(self, now_ns: float) -> float:
        """Absolute time of the next open-loop arrival after ``now_ns``.

        Fixed tenants arrive ``interarrival_ns`` later, Poisson tenants an
        exponential gap of that mean later. Burst tenants draw Poisson gaps
        during the ON phase; a draw that lands in an OFF phase is carried
        into the next ON window (an on/off Markov-modulated process, the
        classic bursty-tenant model).
        """
        spec = self.spec
        if spec.arrival == "fixed":
            return now_ns + spec.interarrival_ns
        at = now_ns + self.rng.expovariate(1.0 / spec.interarrival_ns)
        if spec.arrival == "poisson":
            return at
        period = spec.burst_on_ns + spec.burst_off_ns
        phase = at % period
        if phase >= spec.burst_on_ns:  # landed in the OFF window
            at += period - phase  # carry to the start of the next ON window
        return at

    def _pick_lpas(self) -> List[int]:
        span = self.spec.region_pages - self.spec.pages_per_command
        start = self.lpa_base + (self.rng.randrange(span + 1) if span else 0)
        return list(range(start, start + self.spec.pages_per_command))

    def make_command(self, host: HostInterface, now_ns: float) -> ServeCommand:
        """Mint the tenant's next command with a device-unique command id."""
        if self.spec.kind == "sql":
            raise ServeError(
                f"tenant {self.spec.name!r} is driven: commands come from the "
                "SQL session via ServingLayer.submit_driven"
            )
        lpas = self._pick_lpas()
        command: NVMeCommand
        if self.spec.kind == "scomp":
            command = ScompCommand(
                command_id=host.next_id(), kernel=self.spec.kernel, lpa_lists=[lpas]
            )
        elif self.spec.kind == "read":
            command = ReadCommand(command_id=host.next_id(), lpas=lpas)
        else:
            command = WriteCommand(command_id=host.next_id(), lpas=lpas)
        self.generated += 1
        return ServeCommand(
            tenant=self.spec.name,
            command=command,
            submitted_ns=now_ns,
            pages=len(lpas),
            overwrite=self.spec.overwrite and self.spec.kind == "write",
        )


def default_tenants() -> List[TenantSpec]:
    """The CLI's stock mix: a weighted hot scomp tenant, a batch scomp
    tenant, and a plain-read tenant sharing the same device."""
    return [
        TenantSpec(
            name="hot", weight=4.0, kind="scomp", kernel="stat",
            pages_per_command=8, interarrival_ns=18_000.0,
        ),
        TenantSpec(
            name="batch", weight=1.0, kind="scomp", kernel="scan",
            pages_per_command=16, interarrival_ns=30_000.0,
        ),
        TenantSpec(
            name="reader", weight=1.0, kind="read",
            pages_per_command=4, interarrival_ns=20_000.0,
        ),
    ]
