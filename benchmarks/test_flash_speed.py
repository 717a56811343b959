"""Flash speed: the ECC codec, the block and GC picks, the page path and the mount vs their oracles.

Every page programmed with data is ECC-encoded (``repro.flash.ecc``),
every write point that opens a block runs the wear-levelling pick
(``repro.ftl.allocator``), and every GC pass picks a victim from the
FTL's per-block state (``repro.ftl.gc``); the fleet set-up programs
hundreds of golden pages through the first two, and SQL sessions run GC
passes every few hundred microseconds of simulated time. This harness
times each against its oracle in ``tests/flash_oracle.py`` (per-word
``encode_word``/``decode_word`` loops, a full scan of the free list, a
regrouping of the invalid set and a walk over every write point) on the
default geometry:

* ``encode_page`` of a 4 KiB page;
* ``decode_page`` of a clean 4 KiB page, and of one with 4 flipped bits
  in 4 codewords (recorded, not gated);
* opening all 256 blocks of a never-erased unit, and of a unit where
  every block has been erased (recorded, not gated);
* one GC victim pick after a seeded overwrite mix that leaves thousands
  of invalid pages in both open and closed blocks.

It also times, against the objects they replaced (in the same oracle
file), the two halves of an offload's flash phase:

* the timed page path: ``FlashArray.service_read`` plus ``Crossbar.route``
  for ``PATH_READS`` pages striped over every plane, then
  ``service_write`` for ``PATH_WRITES`` fresh pages, on a fresh array
  (the oracle: ``LaneFlashArray``, pooled plane lanes and a FIFO bus
  object per channel);
* mounting ``MOUNT_PAGES`` pages (serve_mixed's data set) through
  ``PageMapFTL.populate`` on a fresh FTL (the oracle: one
  ``PageMapFTL.write`` per page on ``ChainAllocator`` with the production
  picks). Every round builds a new allocator, which works its channel
  picks out from zero deficits: nothing carries over between mounts. At
  the default even layout over 8 channels the deficits come back to zero
  after 8 picks, so the allocator keeps that cycle; the ``mount_skewed``
  case (skew ``MOUNT_SKEW``, recorded, not gated) has no cycle and works
  out every pick, as the oracle does.

Outputs must match before any time counts. Emits ``BENCH_flash.json``
and, after writing it, gates the four write-path ratios at
``MIN_SPEEDUP``x and the page path and mount at ``PATH_MIN_SPEEDUP``x;
the gates are relative to the oracle on the same machine, so they hold on
slow CI boxes too.
"""

import json
import random
import time

from conftest import run_once

from repro.config import FlashConfig
from repro.flash import FlashArray, PhysicalPageAddress, ecc
from repro.ftl import GarbageCollector, PageMapFTL
from repro.ftl.allocator import PageAllocator
from repro.ftl.wear import WearTracker
from repro.ssd.crossbar import Crossbar

from tests import flash_oracle as oracle

PAGE_BYTES = 4096
#: Calls per timed codec sample; every case keeps its best of ROUNDS samples.
CODEC_CALLS = 20
ROUNDS = 5
MIN_SPEEDUP = 10.0
GATED = ("encode_page", "decode_page_clean", "pick_fresh_unit", "gc_pick_victim")
PATH_MIN_SPEEDUP = 1.5
PATH_GATED = ("page_path", "mount")
#: Victim picks per timed GC sample.
GC_PICKS = 5
MOUNT_PAGES = 10_240
#: A layout skew whose channel picks never repeat (see ``mount_skewed``).
MOUNT_SKEW = 0.3
#: Pages through the timed page path per sample.
PATH_READS = 20_000
PATH_WRITES = 5_000
#: Issue spacing of the page path: the 8 buses move a page per 512 ns in
#: all, so reads queue on the buses as an offload's do.
PATH_ISSUE_NS = 400

CFG = FlashConfig()
#: One write unit of the default geometry: the block-pick cases.
UNIT_CFG = FlashConfig(channels=1, chips_per_channel=1, dies_per_chip=1, planes_per_die=1)


def _codec_cases():
    """name -> ((fast fn, args), (oracle fn, args), calls per sample)."""
    rng = random.Random(11)
    page = rng.randbytes(PAGE_BYTES)
    spare = oracle.encode_page(page)
    damaged = bytearray(page)
    for offset in (5, 900, 2000, 4000):
        damaged[offset] ^= 1 << (offset % 8)
    damaged = bytes(damaged)
    assert ecc.encode_page(page) == spare
    assert ecc.decode_page(page, spare) == oracle.decode_page(page, spare)
    assert ecc.decode_page(damaged, spare) == oracle.decode_page(damaged, spare)
    return {
        name: ((fast, args), (slow, args), CODEC_CALLS)
        for name, fast, slow, args in (
            ("encode_page", ecc.encode_page, oracle.encode_page, (page,)),
            ("decode_page_clean", ecc.decode_page, oracle.decode_page, (page, spare)),
            ("decode_page_4_flips", ecc.decode_page, oracle.decode_page, (damaged, spare)),
        )
    }


def _allocator_picks(wear):
    allocator = PageAllocator(UNIT_CFG, wear=wear)
    return [allocator._pick_block(0) for _ in range(UNIT_CFG.blocks_per_plane)]


def _scan_picks(wear):
    unit = oracle.UnitCursor(UNIT_CFG, 0, 0, 0, 0, wear)
    return [oracle.scan_pick_block(unit) for _ in range(UNIT_CFG.blocks_per_plane)]


def _open_every_block(tracker, picks, worn):
    """Open all blocks of one unit in turn; returns the blocks in pick order."""
    wear = tracker()
    if worn:
        for block in range(CFG.blocks_per_plane):
            for _ in range(1 + block % 3):
                wear.record_erase((0, 0, 0, 0, block))
    return picks(wear)


def _pick_cases():
    """Like :func:`_codec_cases`; one call opens every block of a unit."""
    cases = {}
    for name, worn in (("pick_fresh_unit", False), ("pick_worn_unit", True)):
        fast = (WearTracker, _allocator_picks, worn)
        scan = (oracle.FlatWearTracker, _scan_picks, worn)
        assert _open_every_block(*fast) == _open_every_block(*scan)
        cases[name] = ((_open_every_block, fast), (_open_every_block, scan), 1)
    return cases


def _gc_case():
    """A production and a scan FTL after the same seeded overwrite mix.

    Filling one block per unit closes every unit's first block, and four
    more pages per unit open its second; the overwrites then leave about
    3,000 invalid pages in the closed blocks and 3,000 in the open ones.
    """
    rng = random.Random(16)
    units = CFG.channels * CFG.chips_per_channel * CFG.dies_per_chip * CFG.planes_per_die
    first_open = units * CFG.pages_per_block  # LPAs from here on sit in open blocks
    written = first_open + 4 * units
    lpas = list(range(written))
    lpas += rng.choices(range(first_open), k=3000)
    lpas += rng.choices(range(first_open, written), k=3000)
    fast, scan = PageMapFTL(CFG), oracle.ScanFTL(CFG)
    for lpa in lpas:
        fast.write(lpa)
        scan.write(lpa)
    fast_gc = GarbageCollector(fast, None)
    scan_gc = oracle.ScanGarbageCollector(scan, None)
    assert fast_gc.pick_victim() == scan_gc.pick_victim() is not None
    assert fast.collectible_invalid_pages() == oracle.scan_collectible(scan) >= 1000
    assert len(fast.invalid_pages) - fast.collectible_invalid_pages() >= 1000
    return {
        "gc_pick_victim": ((fast_gc.pick_victim, ()), (scan_gc.pick_victim, ()), GC_PICKS)
    }


def _mount(side, skew=0.0):
    """Wall and pages of mounting ``MOUNT_PAGES`` pages on a fresh FTL."""
    ftl = PageMapFTL(CFG, skew=skew)
    if side == "fast":
        mount = ftl.populate
    else:
        ftl.allocator = oracle.ChainAllocator(
            CFG,
            skew=skew,
            wear=ftl.wear,
            pick_channel=oracle.deficit_pick_channel,
            pick_block=oracle.unit_pick_block,
        )
        write = ftl.write

        def mount(lpas):
            return [write(lpa) for lpa in lpas]

    start = time.perf_counter()
    ppas = mount(range(MOUNT_PAGES))
    return time.perf_counter() - start, ppas


def _striped_ppas(count):
    """Page ``i`` goes to plane unit ``i % units`` (channel varying
    fastest), at depth ``i // units`` in that unit's first blocks."""
    c = CFG
    units = c.channels * c.chips_per_channel * c.dies_per_chip * c.planes_per_die
    ppas = []
    for i in range(count):
        unit, depth = i % units, i // units
        unit, channel = divmod(unit, c.channels)
        unit, chip = divmod(unit, c.chips_per_channel)
        die, plane = divmod(unit, c.planes_per_die)
        block, page = divmod(depth, c.pages_per_block)
        ppas.append(PhysicalPageAddress(channel, chip, die, plane, block, page))
    return ppas


def _page_path(ppas, side):
    """Wall of ``PATH_READS`` routed reads, then ``PATH_WRITES`` writes,
    and what they returned: the summed read arrivals, the last write's
    record and the array's bus state."""
    array = FlashArray(CFG) if side == "fast" else oracle.LaneFlashArray(CFG)
    crossbar = Crossbar(CFG.channels, CFG.channels)
    read, write, route = array.service_read, array.service_write, crossbar.route
    cores, page_bytes = CFG.channels, CFG.page_bytes
    arrivals = 0
    start = time.perf_counter()
    for i in range(PATH_READS):
        ppa = ppas[i]
        arrivals += read(ppa, i * PATH_ISSUE_NS).done_ns + route(i % cores, ppa.channel, page_bytes)
    issue = PATH_READS * PATH_ISSUE_NS
    for i in range(PATH_WRITES):
        record = write(ppas[i], issue + i * PATH_ISSUE_NS)
    wall = time.perf_counter() - start
    assert (array.reads_served, array.writes_served) == (PATH_READS, PATH_WRITES)
    assert arrivals > issue
    state = (arrivals, record, array.horizon_ns, array.channel_bytes())
    return wall, (state, array.channel_utilisations(array.horizon_ns))


def _per_call(fn, args, calls):
    start = time.perf_counter()
    for _ in range(calls):
        fn(*args)
    return (time.perf_counter() - start) / calls


def _measure():
    """Best-of-ROUNDS walls per call (a codec page, a unit's 256 picks,
    one GC victim pick, one page path run or one mount).

    The oracle and the fast path alternate inside every round, so a slow
    window on a shared machine does not land on one side of a ratio.
    """
    cases = {**_codec_cases(), **_pick_cases(), **_gc_case()}
    ppas = _striped_ppas(PATH_READS)
    walls = {}
    for _ in range(ROUNDS):
        for name, (fast, slow, calls) in cases.items():
            for side, (fn, args) in (("oracle", slow), ("fast", fast)):
                wall = _per_call(fn, args, calls)
                walls[name, side] = min(walls.get((name, side), float("inf")), wall)
        for name, run in (
            ("page_path", lambda side: _page_path(ppas, side)),
            ("mount", _mount),
            ("mount_skewed", lambda side: _mount(side, MOUNT_SKEW)),
        ):
            outputs = []
            for side in ("oracle", "fast"):
                wall, output = run(side)
                outputs.append(output)
                walls[name, side] = min(walls.get((name, side), float("inf")), wall)
            assert outputs[0] == outputs[1], name
    return walls


def test_flash_write_path_speed(benchmark):
    walls = run_once(benchmark, _measure)
    mount, skewed = walls["mount", "fast"], walls["mount_skewed", "fast"]
    print(f"\nmount of {MOUNT_PAGES} pages: {mount * 1e3:.1f} ms "
          f"({skewed * 1e3:.1f} ms at skew {MOUNT_SKEW})")
    page_path = walls["page_path", "fast"]
    pages_per_s = (PATH_READS + PATH_WRITES) / page_path
    print(f"\ntimed page path: {pages_per_s:,.0f} pages/s")
    rows = {}
    for name in sorted({name for name, _ in walls}):
        slow, fast = walls[(name, "oracle")], walls[(name, "fast")]
        rows[name] = {
            "oracle_us": round(slow * 1e6, 2),
            "fast_us": round(fast * 1e6, 2),
            "speedup": round(slow / fast, 2),
        }
        print(f"\n{name:<22}{slow * 1e6:>11.1f} us{fast * 1e6:>11.2f} us{slow / fast:>9.1f}x")

    payload = {
        "benchmark": "flash_speed",
        "page_bytes": PAGE_BYTES,
        "blocks_per_plane": CFG.blocks_per_plane,
        "rounds": ROUNDS,
        "min_speedup": MIN_SPEEDUP,
        "gated": list(GATED),
        "path_min_speedup": PATH_MIN_SPEEDUP,
        "path_gated": list(PATH_GATED),
        "cases": rows,
        "mount": {
            "pages": MOUNT_PAGES,
            "ms": round(mount * 1e3, 2),
            "speedup": rows["mount"]["speedup"],
            "skew": MOUNT_SKEW,
            "skewed_ms": round(skewed * 1e3, 2),
            "skewed_speedup": rows["mount_skewed"]["speedup"],
        },
        "page_path": {
            "reads": PATH_READS,
            "writes": PATH_WRITES,
            "ms": round(page_path * 1e3, 2),
            "pages_per_s": round(pages_per_s),
            "oracle_pages_per_s": round(
                (PATH_READS + PATH_WRITES) / walls["page_path", "oracle"]
            ),
            "speedup": rows["page_path"]["speedup"],
        },
    }
    with open("BENCH_flash.json", "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    for names, floor in ((GATED, MIN_SPEEDUP), (PATH_GATED, PATH_MIN_SPEEDUP)):
        for name in names:
            assert rows[name]["speedup"] >= floor, (
                f"{name}: only {rows[name]['speedup']:.1f}x over the oracle"
            )
