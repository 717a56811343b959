"""The ZNS campaign with one process per tenant: the arrival-stream oracle.

:class:`TenantZnsCampaign` is :class:`repro.zns.ZnsCampaign` with the
foreground as it was before the merged arrival driver. Each tenant is
its own :mod:`repro.sim` process that yields once per arrival: it draws
a gap (``expovariate_draws``), a key (``below_draws``) and the put/get
coin (``rng.random()``) from its own generator, puts straight into the
memtable, spawns the flush of a memtable it fills, and spawns each get.
Same-instant arrivals therefore dispatch in the simulator's own bucket
order, and every put is applied at its instant.

Flushes, gets, compactions, the compaction manager and the report are
the production ones, so the differential suite compares only how the
arrivals reach them. Only tests use it.
"""

import random

from repro.utils.draws import below_draws, expovariate_draws
from repro.zns import ZnsCampaign, ZnsReport


class TenantZnsCampaign(ZnsCampaign):
    """One seeded campaign, one process per tenant."""

    def _tenant(self, index: int):
        cfg = self.cfg
        rng = random.Random((cfg.seed + 1) * 1_000_003 + index * 7_919)
        next_gap = expovariate_draws(rng, 1.0 / cfg.mean_interarrival_ns).__next__
        next_key = below_draws(rng, cfg.key_space).__next__
        coin = rng.random
        put_fraction = cfg.put_fraction
        label = f"get-{index}"
        lsm = self.lsm
        report = self.report
        spawn = self.sim.spawn
        get = self._get
        while True:
            gap = round(next_gap())
            yield gap if gap > 1 else 1
            key = next_key()
            if coin() < put_fraction:
                self._seq += 1
                report.puts += 1
                if lsm.put(key, self._seq):
                    spawn(self._flush(lsm.take_memtable()), "flush")
            else:
                spawn(get(key), label)

    def run(self) -> ZnsReport:
        for index in range(self.cfg.num_tenants):
            self.sim.spawn(self._tenant(index), label=f"tenant-{index}")
        self.sim.spawn(self._compaction_manager(), label="compaction-manager")
        self.sim.run(until_ns=self.cfg.duration_ns)
        return self._report()
