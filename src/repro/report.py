"""The campaign report contract: one identity rule for every family.

Each campaign family runs one way and returns a report deriving from
:class:`Report`:

* serve — :func:`repro.serve.simulate_serve`, or
  ``ServingLayer(device, ...).run(ns)`` on a device you built;
* faults — ``FaultCampaign(...).run()``;
* fleet — ``FleetCampaign(...).run()``;
* zns — ``ZnsCampaign(cfg).run()``;
* sql — ``SqlSession(...)``, its queries, then ``finish()``.

``tests/test_campaign_contract.py`` checks the rule below for all five.
"""

from __future__ import annotations

import hashlib
from typing import Tuple


class Report:
    """A campaign's outcome, identified by its modelled values alone.

    * :meth:`fingerprint` is the family's value tuple: same config and
      seed, equal tuple, run after run.
    * :meth:`fingerprint_hex` hashes that tuple, the same way for every
      family.
    * ``sim_events``, the events the simulation kernel dispatched, is on
      every report but in no fingerprint. It counts the simulator's own
      work, not a modelled output, so same-seed checks compare it beside
      the fingerprint. Faults and sql reports read it from their
      ``serve`` report.
    * :attr:`healthy` is the run's verdict and the CLI's exit status.
    """

    def fingerprint(self) -> Tuple:
        raise NotImplementedError

    def fingerprint_hex(self) -> str:
        """SHA-256 of ``repr(fingerprint())``, for byte-identical checks."""
        return hashlib.sha256(repr(self.fingerprint()).encode()).hexdigest()

    @property
    def healthy(self) -> bool:
        """True unless the family has a verdict and the run failed it."""
        return True
