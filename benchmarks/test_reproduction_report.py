"""The committed reproduction report, pinned.

``python -m repro reproduce`` must write ``reproduction_report.txt`` as
committed, apart from the wall time in each ``### <title>  (<t>s)`` step
heading. This pins every figure and table of the report, Figures 16-22
and the extensions included, not only the ones with golden fingerprints.
After a change that is meant to move a figure, regenerate the file with
``PYTHONPATH=src python -m repro reproduce``.
"""

import re
from pathlib import Path

from repro.experiments.runner import reproduce_all

REPORT = Path(__file__).resolve().parent.parent / "reproduction_report.txt"
_STEP_TIME = re.compile(r"^(### .+)  \(\d+\.\ds\)$", re.MULTILINE)


def _masked(report: str) -> str:
    return _STEP_TIME.sub(r"\1  (<t>s)", report)


def test_reproduce_writes_the_committed_report():
    committed = _masked(REPORT.read_text(encoding="utf-8"))
    assert committed.count("(<t>s)") == 16
    assert _masked(reproduce_all(progress=False)) == committed
