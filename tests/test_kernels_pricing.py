"""Unit tests for the memoized kernel-pricing cache (`repro.kernels.pricing`).

The campaign-level proof that memoized pricing changes nothing observable
lives in test_sim_differential.py; these tests pin the cache mechanics —
hit/miss accounting, config-digest invalidation, and the kernel key that
keeps parameterised kernels apart.
"""

import dataclasses

import pytest

from repro.config import assasin_sb_config
from repro.kernels import get_kernel
from repro.kernels.pricing import PRICING_CACHE, KernelPricingCache
from repro.ssd.device import ComputationalSSD


@pytest.fixture(autouse=True)
def _pristine_cache():
    """Each test starts from (and leaves) an empty process-wide memo."""
    PRICING_CACHE.clear()
    yield
    PRICING_CACHE.clear()


def test_sample_kernel_hits_after_one_miss():
    config = assasin_sb_config()
    first = ComputationalSSD(config).sample_kernel(get_kernel("stat"))
    assert PRICING_CACHE.misses == 1 and PRICING_CACHE.hits == 0 and len(PRICING_CACHE) == 1
    second = ComputationalSSD(config).sample_kernel(get_kernel("stat"))
    assert PRICING_CACHE.misses == 1 and PRICING_CACHE.hits == 1
    # The memo shares the sampled run object itself.
    assert second is first


def test_distinct_kernels_and_sizes_are_distinct_entries():
    device = ComputationalSSD(assasin_sb_config())
    device.sample_kernel(get_kernel("stat"))
    device.sample_kernel(get_kernel("scan"))
    device.sample_kernel(get_kernel("stat"), sample_bytes=8192)
    assert PRICING_CACHE.misses == 3 and PRICING_CACHE.hits == 0 and len(PRICING_CACHE) == 3


@pytest.mark.parametrize(
    "name, params",
    [("psf", {"filter_hi": 3_000_000}), ("raid4", {"k": 6})],
)
def test_kernel_parameters_are_part_of_the_key(name, params):
    """Regression: the key was once the registry name, so a parameterised
    kernel got the default kernel's sample (psf with a wider filter came
    back with the default's 696 output bytes instead of 1104; raid4 with
    k=6 came back with the k=4 sample)."""
    device = ComputationalSSD(assasin_sb_config())
    default = device.sample_kernel(get_kernel(name))
    custom = device.sample_kernel(get_kernel(name, **params))
    assert PRICING_CACHE.misses == 2 and len(PRICING_CACHE) == 2
    PRICING_CACHE.clear()
    unmemoized = ComputationalSSD(assasin_sb_config()).sample_kernel(get_kernel(name, **params))
    assert custom is not default
    assert (custom.bytes_out, custom.cycles) == (unmemoized.bytes_out, unmemoized.cycles)
    assert (custom.bytes_out, custom.cycles) != (default.bytes_out, default.cycles)


def test_kernel_key_is_value_keyed():
    cache = KernelPricingCache()
    assert cache.kernel_key(get_kernel("psf")) == cache.kernel_key(get_kernel("psf"))
    assert cache.kernel_key(get_kernel("raid4", k=4)) == cache.kernel_key(get_kernel("raid4"))
    assert cache.kernel_key(get_kernel("raid4", k=6)) != cache.kernel_key(get_kernel("raid4"))
    assert cache.kernel_key(get_kernel("raid4")) != cache.kernel_key(get_kernel("raid6"))


def test_config_change_invalidates_by_construction():
    base = assasin_sb_config()
    changed = dataclasses.replace(base, name=base.name + "-variant")
    stat = get_kernel("stat")
    cache = KernelPricingCache()
    assert cache.config_digest(base) != cache.config_digest(changed)
    # Equal-valued configs share a digest even as distinct objects.
    assert cache.config_digest(base) == cache.config_digest(assasin_sb_config())
    cache.put(base, stat, 4096, "sample-a")
    assert cache.get(changed, stat, 4096) is None
    assert cache.get(base, stat, 4096) == "sample-a"


def test_pipeline_model_and_params_change_the_digest():
    """The timing model lives outside the kernel's architectural inputs but
    changes its cycle price, so it must be part of the cache key."""
    base = assasin_sb_config()
    predictive = base.with_pipeline_model("predictive")
    stat = get_kernel("stat")
    cache = KernelPricingCache()
    assert cache.config_digest(base) != cache.config_digest(predictive)
    cache.put(base, stat, 4096, "static-sample")
    assert cache.get(predictive, stat, 4096) is None
    assert cache.get(base, stat, 4096) == "static-sample"


def test_digest_memo_is_value_keyed_not_id_keyed():
    """Regression: the digest memo was once keyed by ``id(config)``.  A dead
    config's recycled id could then alias a *different* config to a stale
    digest.  Value-keying makes equal configs share and unequal configs
    miss, regardless of object identity or lifetime."""
    cache = KernelPricingCache()
    digests = set()
    for i in range(50):
        # Fresh throwaway objects each round: with id-keying these recycle
        # CPython ids almost immediately.
        variant = dataclasses.replace(assasin_sb_config(), name=f"v{i}")
        digests.add(cache.config_digest(variant))
        del variant
    assert len(digests) == 50
    # Equal-valued but distinct objects share one memo entry and digest.
    a, b = assasin_sb_config(), assasin_sb_config()
    assert a is not b
    assert cache.config_digest(a) == cache.config_digest(b)
