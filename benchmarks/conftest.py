"""Shared fixtures for the per-figure benchmark harness.

Heavy simulations run once per session and are shared by the figures that
the paper derives from the same experiment (16/17/18 share the scaling run;
21 feeds 22). Every benchmark uses ``benchmark.pedantic(..., rounds=1)``:
these are reproduction drivers, not micro-benchmarks.

``REPRO_SMOKE=1`` shrinks the campaign benchmarks (faults, fleet, zns,
sql, dse) to seconds-long CI smoke runs with the same assertions; they
read it as ``SMOKE`` from here.
"""

import json
import os

import pytest

from repro.experiments import fig13, fig14, fig15, fig16, fig19, fig21

SMOKE = bool(os.environ.get("REPRO_SMOKE"))


@pytest.fixture(scope="session")
def fig13_result():
    return fig13.run(data_bytes=32 << 20)


@pytest.fixture(scope="session")
def fig14_result():
    return fig14.run()


@pytest.fixture(scope="session")
def scaling_result():
    return fig16.run()


@pytest.fixture(scope="session")
def fig19_result():
    return fig19.run()


@pytest.fixture(scope="session")
def fig21_result():
    return fig21.run()


@pytest.fixture(scope="session")
def psf_rates():
    return fig15.measure_psf_rates()


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark's timer."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def emit_bench(
    filename,
    payload,
    *,
    sim_events,
    wall_seconds,
    min_events_per_sec_wall,
    rate_floors=(),
):
    """Write one ``BENCH_*.json`` artefact and gate its throughput floors.

    Every benchmark file used to hand-roll the same tail: total sim events
    over the measured wall window, ``sim_events_per_sec_wall``, a
    sorted/indented ``json.dump``, and conservative regression floors. This
    is that tail, once. ``rate_floors`` is an iterable of
    ``(label, value, floor)`` extra gates (e.g. simulated commands/sec)
    asserted after the artefact is written, so a failing floor still leaves
    the JSON on disk for CI to upload.
    """
    events_wall = sim_events / max(wall_seconds, 1e-9)
    payload = dict(payload)
    payload["sim_events"] = sim_events
    payload["sim_events_per_sec_wall"] = round(events_wall, 2)
    payload["wall_seconds"] = round(wall_seconds, 3)
    with open(filename, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    assert events_wall >= min_events_per_sec_wall, (
        f"{filename}: {events_wall:.1f} sim events/s of wall time "
        f"under the {min_events_per_sec_wall:.1f} floor"
    )
    for label, value, floor in rate_floors:
        assert value >= floor, f"{filename}: {label} {value:.2f} under floor {floor:.2f}"
    return events_wall
