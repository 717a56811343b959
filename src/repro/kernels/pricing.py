"""Memoized cycles-per-byte pricing for stream kernels.

ASSASIN's streaming kernels are size-linear by construction (DESIGN.md
§2): the core phase prices a kernel by running it once over a
representative window and extrapolating ``cycles_per_byte``.  That sampled
run is a full functional ISA simulation — by far the most expensive single
step of every campaign — and it is **deterministic** per
``(device config, kernel, sample size)``: same config, same kernel
parameters, same generated inputs, same cycle count.  So one sampled run
prices every same-shape scomp in the process.

:class:`KernelPricingCache` memoizes exactly that triple, and
:data:`PRICING_CACHE` is consulted by every
``ComputationalSSD.sample_kernel`` call.  Every part of the key is
value-derived: a digest of the *full device config repr* (which carries
the core's timing model), and a digest of the kernel's class and public
constructor state, so ``psf`` with a different filter range or
``raid4`` with a different stripe count is a different entry.  Any change
misses the cache by construction — there is no stale-entry hazard to
invalidate around, and :meth:`KernelPricingCache.clear` exists mainly for
tests and long-lived sessions.
"""

from __future__ import annotations

import hashlib
import weakref
from typing import Dict, Tuple


class KernelPricingCache:
    """Process-wide memo of sampled kernel runs.

    Entries map ``(config_digest, kernel_key, sample_bytes)`` to the
    :class:`~repro.core.core.CoreRunResult` of the sampled run.  Cached
    samples are shared objects and must be treated as immutable.
    """

    def __init__(self) -> None:
        self._entries: Dict[Tuple[str, str, int], object] = {}
        self._digests: Dict[object, str] = {}
        self._kernel_keys: "weakref.WeakKeyDictionary[object, str]" = (
            weakref.WeakKeyDictionary()
        )
        self.hits = 0
        self.misses = 0

    def clear(self) -> None:
        """Drop all entries and counters."""
        self._entries.clear()
        self._digests.clear()
        self._kernel_keys.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    # -- keys -----------------------------------------------------------------

    def config_digest(self, config) -> str:
        """Digest of the device config's full repr.

        Frozen dataclass reprs are value-deterministic, so two configs
        with equal fields share a digest and any changed field produces a
        new one — config changes invalidate by construction.  The core's
        ``pipeline_model`` is a config field, so a timing-model change
        reprices too.  A value-keyed memo (configs are frozen, hashable
        dataclasses) avoids re-hashing on every lookup; the former
        ``id()``-keyed memo could alias a recycled id of a dead config to
        a stale digest.
        """
        digest = self._digests.get(config)
        if digest is None:
            digest = hashlib.sha256(repr(config).encode()).hexdigest()
            self._digests[config] = digest
        return digest

    def kernel_key(self, kernel) -> str:
        """Digest of the kernel's class and public constructor state.

        The registry name alone aliases parameterised kernels (``psf``
        with another filter range, ``raid4`` with another ``k``) to one
        sample.  The public attributes a constructor sets are exactly the
        parameters that shape the program and its generated inputs, so
        their repr — like :meth:`config_digest` — keys by value.  It is
        computed once per kernel object (weakly held, so a dead kernel's
        recycled ``id`` can never alias a new one).
        """
        key = self._kernel_keys.get(kernel)
        if key is None:
            cls = type(kernel)
            state = sorted(
                (name, value) for name, value in vars(kernel).items()
                if not name.startswith("_")
            )
            key = hashlib.sha256(
                f"{cls.__module__}.{cls.__qualname__}|{state!r}".encode()
            ).hexdigest()
            self._kernel_keys[kernel] = key
        return key

    # -- the memo -------------------------------------------------------------

    def _key(self, config, kernel, sample_bytes: int):
        return (self.config_digest(config), self.kernel_key(kernel), sample_bytes)

    def get(self, config, kernel, sample_bytes: int):
        """The cached sample, or None on a miss."""
        sample = self._entries.get(self._key(config, kernel, sample_bytes))
        if sample is None:
            self.misses += 1
            return None
        self.hits += 1
        return sample

    def put(self, config, kernel, sample_bytes: int, sample) -> None:
        self._entries[self._key(config, kernel, sample_bytes)] = sample


#: The process-wide cache consulted by ``ComputationalSSD.sample_kernel``.
PRICING_CACHE = KernelPricingCache()
