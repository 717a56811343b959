"""Metric primitives and the device-wide registry.

Three metric kinds cover everything the simulators tally:

* :class:`Counter` — a monotonically growing total (pages served, bytes
  moved, retries). Fractional increments are allowed so time totals
  (busy nanoseconds) fit the same primitive. A :class:`CounterView` is a
  counter whose total a component keeps as plain ints on its hot path;
  the registry reads them when a value is asked for.
* :class:`Gauge` — a point-in-time level (inflight commands, queue depth
  high-water mark via :meth:`Gauge.set_max`).
* :class:`Histogram` — raw-sample distribution with nearest-rank
  percentiles through the shared :func:`repro.utils.stats.percentile`,
  the same convention every latency SLO in the repo already uses.

A :class:`CounterRegistry` is the per-device namespace: components create
their metrics through it (``registry.counter("flash.ch0.bytes")``) instead
of keeping private tally dicts, so one snapshot shows the whole stack.
:class:`CounterGroup` adapts dict-style tallying code (``group["x"] += 1``)
onto registry counters without changing its call sites.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Mapping
from typing import Callable, Dict, Iterator, List, Optional, Union

from repro.utils.stats import percentile

MetricValue = Union[int, float]


class Counter:
    """A named, monotonically increasing total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {amount})")
        self.value += amount


class CounterView(Counter):
    """A counter read from its sources: ``value`` is the sum of their
    current totals, so the components keep plain ints and pay nothing per
    increment. Every source registered under the name counts, as every
    component incrementing one shared :class:`Counter` would."""

    __slots__ = ("sources",)

    def __init__(self, name: str) -> None:
        self.name = name
        self.sources: List[Callable[[], MetricValue]] = []

    @property
    def value(self) -> float:
        return float(sum(read() for read in self.sources))

    def inc(self, amount: float = 1.0) -> None:
        raise TypeError(f"counter {self.name!r} is read from its sources")


class Gauge:
    """A named instantaneous level."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def set_max(self, value: float) -> None:
        """High-water-mark update."""
        if value > self.value:
            self.value = value


class Histogram:
    """Raw-sample distribution with nearest-rank percentiles.

    Samples are kept verbatim (the serve runs observe at most a few
    thousand latencies), so p50/p95/p99 are bit-identical to what the
    previous per-module tallies computed from their private lists.

    While every sample is an int that fits 64 bits (the serve layer's
    latencies, waits and queue depths), ``values`` is an ``array('q')``:
    8 bytes a sample instead of a list slot and a boxed int, which
    matters because a run's report keeps every sample. The first other
    sample turns ``values`` into a list of the same samples, in order.
    """

    __slots__ = ("name", "values")

    def __init__(self, name: str) -> None:
        self.name = name
        self.values: Union["array[int]", List[float]] = array("q")

    def observe(self, value: float) -> None:
        if value.__class__ is int:
            try:
                self.values.append(value)
                return
            except OverflowError:
                pass
        values = self.values
        if values.__class__ is array:
            values = self.values = values.tolist()
        values.append(value)

    def extend(self, values) -> None:
        for value in values:
            self.observe(value)

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def total(self) -> float:
        return sum(self.values)

    @property
    def mean(self) -> float:
        return self.total / len(self.values) if self.values else 0.0

    @property
    def minimum(self) -> float:
        return min(self.values) if self.values else math.inf

    @property
    def maximum(self) -> float:
        return max(self.values) if self.values else -math.inf

    def percentile(self, pct: float) -> float:
        """Nearest-rank percentile; 0.0 on an empty histogram."""
        return percentile(self.values, pct) if self.values else 0.0


class CounterGroup:
    """Dict-style facade over registry counters under one prefix.

    Lets tallying code keep its ``group["read_retries"] += 1`` shape while
    the values live in the shared registry. Iteration yields only names
    that were actually touched, in sorted order, so snapshots stay stable.
    """

    __slots__ = ("_registry", "_prefix", "_names")

    def __init__(self, registry: "CounterRegistry", prefix: str) -> None:
        self._registry = registry
        self._prefix = prefix
        self._names: List[str] = []

    def _qualify(self, name: str) -> str:
        return f"{self._prefix}.{name}" if self._prefix else name

    def __getitem__(self, name: str) -> float:
        counter = self._registry.counter(self._qualify(name))
        value = counter.value
        return int(value) if value == int(value) else value

    def __setitem__(self, name: str, value: float) -> None:
        counter = self._registry.counter(self._qualify(name))
        if value < counter.value:
            raise ValueError(f"counter {counter.name!r} cannot decrease")
        if name not in self._names:
            self._names.append(name)
        counter.value = float(value)

    def __contains__(self, name: str) -> bool:
        return name in self._names

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._names))

    def keys(self):
        return sorted(self._names)

    def items(self):
        return [(name, self[name]) for name in sorted(self._names)]

    def as_dict(self) -> Dict[str, float]:
        return dict(self.items())

    def __len__(self) -> int:
        return len(self._names)


# Dict-shaped consumers (``dict(group)``, ``collections.Counter(group)``)
# must see the key/value pairs, not the keys counted as elements.
Mapping.register(CounterGroup)


class CounterRegistry:
    """Per-device namespace of counters, gauges, and histograms.

    ``counter``/``gauge``/``histogram`` are get-or-create: the first call
    fixes the metric's kind, and re-requesting the same name with a
    different kind is an error (it always indicates two components
    colliding on a name).
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}

    def _get_or_create(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise ValueError(
                f"metric {name!r} already registered as {type(metric).__name__}, "
                f"requested {cls.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def counter_view(self, name: str, read: Callable[[], MetricValue]) -> CounterView:
        """Add ``read`` to the sources of the :class:`CounterView` ``name``."""
        view = self._get_or_create(name, CounterView)
        view.sources.append(read)
        return view

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get_or_create(name, Histogram)

    def group(self, prefix: str) -> CounterGroup:
        """A dict-style counter facade under ``prefix``."""
        return CounterGroup(self, prefix)

    def get(self, name: str) -> Optional[object]:
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def snapshot(self) -> Dict[str, MetricValue]:
        """Flat name → value map (histograms contribute summary stats)."""
        out: Dict[str, MetricValue] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Histogram):
                out[f"{name}.count"] = metric.count
                out[f"{name}.sum"] = metric.total
                if metric.count:
                    out[f"{name}.p50"] = metric.percentile(50.0)
                    out[f"{name}.p99"] = metric.percentile(99.0)
            else:
                out[name] = metric.value
        return out

    def render(self) -> str:
        """Human-readable dump of every registered metric."""
        lines = []
        for name, value in self.snapshot().items():
            if isinstance(value, float) and value != int(value):
                lines.append(f"{name:<44s} {value:.3f}")
            else:
                lines.append(f"{name:<44s} {int(value)}")
        return "\n".join(lines)
