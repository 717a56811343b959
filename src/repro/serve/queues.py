"""Per-tenant NVMe submission/completion queue pairs.

NVMe's multi-queue design gives every tenant (VM, container, application
stream) its own submission queue (SQ) and completion queue (CQ); the
device-side arbiter decides which SQ supplies the next command. Modelling
the pairs explicitly is what makes QoS *mechanical* rather than assumed:
queueing delay, head-of-line blocking, and drop behaviour all fall out of
bounded FIFOs plus the arbitration policy in :mod:`repro.serve.arbiter`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, NamedTuple, Optional

from repro.errors import ServeError
from repro.ssd.host_interface import Completion, NVMeCommand, ReadCommand, ScompCommand, WriteCommand


class TenantLabels(NamedTuple):
    """One tenant's event labels and trace names, built once per run."""

    submit: str
    arrive: str
    complete: str
    think: str
    queue: str  # the tenant's queue track
    dispatch: str

    @classmethod
    def of(cls, tenant: str) -> "TenantLabels":
        return cls(
            f"submit:{tenant}", f"arrive:{tenant}", f"complete:{tenant}",
            f"think:{tenant}", f"queue/{tenant}", f"dispatch:{tenant}",
        )


@dataclass
class ServeCommand:
    """One tenant command in flight through the serving layer."""

    tenant: str
    command: NVMeCommand
    submitted_ns: float
    pages: int
    dispatched_ns: float = -1.0
    completed_ns: float = -1.0
    bytes_in: int = 0
    bytes_out: int = 0
    #: 'ok' | 'recovered' (retry or RAID rebuild was needed) | 'failed'
    status: str = "ok"
    attempts: int = 0  # service attempts (1 + command-level retries)
    page_retries: int = 0
    reconstructions: int = 0
    timed_out: bool = False
    #: writes only: rewrite the command's own LPAs in place (invalidating
    #: the previously mapped flash pages) instead of appending fresh ones.
    overwrite: bool = False

    @property
    def kind(self) -> str:
        if isinstance(self.command, ScompCommand):
            return "scomp"
        if isinstance(self.command, ReadCommand):
            return "read"
        if isinstance(self.command, WriteCommand):
            return "write"
        return "unknown"

    @property
    def wait_ns(self) -> float:
        """Time spent queued before dispatch."""
        if self.dispatched_ns < 0:
            raise ServeError("command not yet dispatched")
        return self.dispatched_ns - self.submitted_ns

    @property
    def latency_ns(self) -> float:
        """Submission-to-completion latency."""
        if self.completed_ns < 0:
            raise ServeError("command not yet completed")
        return self.completed_ns - self.submitted_ns


class SubmissionQueue:
    """A bounded FIFO of commands awaiting dispatch."""

    def __init__(self, tenant: str, depth: int) -> None:
        if depth <= 0:
            raise ServeError("submission queue depth must be positive")
        self.tenant = tenant
        self.depth = depth
        self._fifo: Deque[ServeCommand] = deque()
        self.peak_depth = 0
        self.total_enqueued = 0
        self.total_rejected = 0

    def push(self, cmd: ServeCommand) -> bool:
        """Enqueue; returns False (command dropped) when the queue is full."""
        if len(self._fifo) >= self.depth:
            self.total_rejected += 1
            return False
        self._fifo.append(cmd)
        self.total_enqueued += 1
        self.peak_depth = max(self.peak_depth, len(self._fifo))
        return True

    def head(self) -> ServeCommand:
        if not self._fifo:
            raise ServeError(f"submission queue {self.tenant!r} is empty")
        return self._fifo[0]

    def pop(self) -> ServeCommand:
        if not self._fifo:
            raise ServeError(f"submission queue {self.tenant!r} is empty")
        return self._fifo.popleft()

    def __len__(self) -> int:
        return len(self._fifo)

    def __bool__(self) -> bool:
        return bool(self._fifo)


class CompletionQueue:
    """Completion entries posted back to one tenant."""

    def __init__(self, tenant: str) -> None:
        self.tenant = tenant
        self.entries: List[Completion] = []

    def post(self, completion: Completion) -> None:
        self.entries.append(completion)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass
class QueuePair:
    """One tenant's SQ/CQ pair plus its arbitration weight."""

    tenant: str
    weight: float
    sq: SubmissionQueue
    cq: CompletionQueue = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ServeError(f"tenant {self.tenant!r} weight must be positive")
        if self.cq is None:
            self.cq = CompletionQueue(self.tenant)

    @classmethod
    def create(cls, tenant: str, weight: float, depth: int) -> "QueuePair":
        return cls(tenant=tenant, weight=weight, sq=SubmissionQueue(tenant, depth))


def make_queue_pairs(
    tenants, queue_depth: int, weight_overrides: Optional[tuple] = None
) -> List[QueuePair]:
    """Build one queue pair per tenant spec, with optional weight overrides."""
    names = [t.name for t in tenants]
    if len(set(names)) != len(names):
        raise ServeError(f"tenant names must be unique, got {names}")
    if weight_overrides:
        if len(weight_overrides) != len(names):
            raise ServeError(
                f"{len(weight_overrides)} weight overrides for {len(names)} tenants"
            )
        weights = list(weight_overrides)
    else:
        weights = [t.weight for t in tenants]
    return [QueuePair.create(n, w, queue_depth) for n, w in zip(names, weights)]
