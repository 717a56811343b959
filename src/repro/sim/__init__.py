"""The unified discrete-event simulation kernel (`repro.sim`).

Every timed component of the reproduction — flash channel buses, plane
timelines, the host PCIe link, the crossbar hop, stream cores, firmware
command flows, the serving layer, garbage collection, and the recovery
ladder — advances on one :class:`Simulator` clock measured in **integer
nanoseconds** with deterministic ``(time, priority, seq)`` tie-breaking.

Three primitives cover the device:

* :class:`Simulator` — the event loop: ``schedule``/``schedule_at`` for
  callbacks, :meth:`Simulator.spawn` for generator *processes* that
  ``yield`` waits (firmware command flows, background IO, GC passes).
* :class:`FifoResource` — a single greedy FIFO reservation timeline
  (the host link): requests are granted in call order,
  each occupying ``[start, done)``; busy intervals are tracked so
  utilisation within any window is exact.
* :class:`PooledResource` — N unit timelines with least-loaded or
  explicit-unit selection (the stream-core pool).

The flash planes and channel buses follow the same greedy discipline as
flat int state on :class:`repro.flash.FlashArray`, which books a page in
one call.

Resources grant *reservations* synchronously — acquiring returns the
grant's start/done instants immediately, in issue order — while processes
advance the shared clock by waiting on those instants.  This split is what
lets the greedy MQSim-style timelines and the event-driven control plane
coexist on one coherent timeline (the Gem5+MQSim composition of the
paper's evaluation).
"""

from repro.sim.kernel import (
    Event,
    Process,
    SimProcessError,
    SimTimeError,
    Simulator,
    as_ns,
)
from repro.sim.resources import FifoResource, Grant, PooledResource

__all__ = [
    "Event",
    "FifoResource",
    "Grant",
    "PooledResource",
    "Process",
    "SimProcessError",
    "SimTimeError",
    "Simulator",
    "as_ns",
]
