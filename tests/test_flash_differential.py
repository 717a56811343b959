"""Differential suite: the flash page path, write path and FTL against ``tests/flash_oracle.py``.

* **Codec.** :func:`repro.flash.ecc.encode_page` / ``decode_page`` (eight
  byte-lane passes, a clean-page shortcut) must equal the per-word loops
  over ``encode_word`` / ``decode_word`` on random pages of any length and
  input type, with flips scattered over the page or packed into one
  codeword, in the data and in the spare bytes: same spare bytes, decoded
  bytes, worst status and correction count.
* **Page path.** :class:`~repro.flash.FlashArray` (flat plane lanes and
  bus intervals, one page map keyed by address, counters read at
  snapshot) must behave like :class:`LaneFlashArray` (a chip object per
  chip with its own page dicts, pooled plane lanes, a backfilling FIFO
  bus, a counter increment per transfer) under random reads, programs
  with and without data (some refused), preloads, erases, raw overwrites
  and ECC-checked reads, issued at int, float, non-finite and
  out-of-order instants to addresses in and out of the geometry: the same
  service records, stored and decoded bytes or errors, lane and bus
  state, bytes, utilisations, horizon, stored pages and spare areas, ECC
  tallies, counter snapshot and trace.
* **Block pick and GC.** A :class:`~repro.ftl.PageMapFTL` on the per-unit
  :class:`~repro.ftl.WearTracker`, collected by
  :class:`~repro.ftl.GarbageCollector` from its per-block state, must
  behave like the :class:`ScanFTL` on the flat wear map with the scanning
  block and channel picks, collected by the scanning
  :class:`ScanGarbageCollector`. The ops are random writes, overwrites,
  trims, synchronous GC passes, GC processes with host writes interleaved,
  block retirements and writes into a full array, at skew 0 and skew > 0.
  Both sides must give the same PPA streams, victims, GC results,
  collectible counts, invalid-set order and erase counts. After every op
  the per-block state must also equal a fresh rebuild: the P2L map is the
  inverse of the L2P map, the per-block groups are a regrouping of the
  invalid set, and the open-block set is the walk over the write points.

Examples are bounded so each property stays a few seconds inside tier-1.
"""

import random
from collections import Counter

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, seed, settings, strategies as st  # noqa: E402

from repro.config import FlashConfig  # noqa: E402
from repro.errors import FlashError, FTLError  # noqa: E402
from repro.flash import ecc  # noqa: E402
from repro.flash.array import FlashArray, PhysicalPageAddress  # noqa: E402
from repro.ftl import GarbageCollector, PageMapFTL, WearTracker  # noqa: E402
from repro.ftl.allocator import PICK_CHUNK, PageAllocator  # noqa: E402
from repro.sim import Simulator  # noqa: E402
from repro.telemetry import Telemetry  # noqa: E402

from tests import flash_oracle as oracle  # noqa: E402

# -- codec ---------------------------------------------------------------------

_pages = st.binary(max_size=1024).map(lambda raw: raw + b"\x00" * (-len(raw) % 8))


def _flip(raw: bytes, bits) -> bytes:
    out = bytearray(raw)
    for bit in bits:
        out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


@st.composite
def _damaged_pages(draw):
    """(data, spare): a page and its programmed spare, after raw flips.

    Scattered flips land anywhere in the data or the spare; packed flips
    hit the 72 bits (64 data + 8 spare) of one codeword, so double flips
    in one word, which SECDED must flag, come up often.
    """
    page = draw(_pages.filter(len))
    spare = oracle.encode_page(page)
    data_bits = draw(st.lists(st.integers(0, len(page) * 8 - 1), max_size=5))
    spare_bits = draw(st.lists(st.integers(0, len(spare) * 8 - 1), max_size=3))
    word = draw(st.integers(0, len(spare) - 1))
    for bit in draw(st.lists(st.integers(0, 71), max_size=3)):
        if bit < 64:
            data_bits.append(word * 64 + bit)
        else:
            spare_bits.append(word * 8 + bit - 64)
    return _flip(page, data_bits), _flip(spare, spare_bits)


@settings(max_examples=150, deadline=None)
@given(_pages, st.sampled_from((bytes, bytearray, memoryview)))
def test_encode_page_matches_oracle(page, kind):
    assert ecc.encode_page(kind(page)) == oracle.encode_page(page)


@settings(max_examples=300, deadline=None)
@given(_damaged_pages(), st.sampled_from((bytes, bytearray, memoryview)))
def test_decode_page_matches_oracle(damaged, kind):
    data, spare = damaged
    got = ecc.decode_page(kind(data), spare)
    assert got == oracle.decode_page(data, spare)
    assert type(got[0]) is bytes


def test_full_size_pages_match_oracle():
    """4 KiB and 16 KiB pages, clean and with scattered flips."""
    rng = random.Random(15)
    for size in (4096, 16384):
        page = rng.randbytes(size)
        spare = ecc.encode_page(page)
        assert spare == oracle.encode_page(page)
        for flips in (0, 1, 4, 40):
            data = _flip(page, rng.sample(range(size * 8), flips))
            assert ecc.decode_page(data, spare) == oracle.decode_page(data, spare)


@pytest.mark.parametrize("length", [1, 4, 12, 4095])
def test_misaligned_pages_rejected_like_oracle(length):
    data = bytes(length)
    for encode in (ecc.encode_page, oracle.encode_page):
        with pytest.raises(FlashError):
            encode(data)
    with pytest.raises(FlashError):
        ecc.decode_page(data, bytes(length // 8))


# -- timed page path ---------------------------------------------------------------

PATH_CFG = FlashConfig(
    channels=2,
    chips_per_channel=2,
    dies_per_chip=1,
    planes_per_die=2,
    blocks_per_plane=2,
    pages_per_block=4,
    page_bytes=512,
    read_latency_ns=3_000.0,
    program_latency_ns=9_000.0,
    erase_latency_ns=40_000.0,
)
PLANES = [
    PhysicalPageAddress(channel, chip, 0, plane, 0, 0)
    for channel in range(PATH_CFG.channels)
    for chip in range(PATH_CFG.chips_per_channel)
    for plane in range(PATH_CFG.planes_per_die)
]
PAGES = [PhysicalPageAddress.from_flat(index, PATH_CFG) for index in range(PATH_CFG.total_pages)]

#: Mostly valid addresses: each field is one past either end about one
#: time in eight, so about a third of the addresses lie inside the array.
_addresses = st.builds(
    PhysicalPageAddress,
    *(
        st.sampled_from(tuple(range(limit)) * 6 + (-1, limit))
        for limit in (
            PATH_CFG.channels,
            PATH_CFG.chips_per_channel,
            PATH_CFG.dies_per_chip,
            PATH_CFG.planes_per_die,
            PATH_CFG.blocks_per_plane,
            PATH_CFG.pages_per_block,
        )
    ),
)
_instants = st.one_of(
    st.integers(-50, 60_000),
    st.integers(-50, 60_000),
    st.floats(-50.0, 60_000.0),
    st.sampled_from((float("nan"), float("inf"))),
)
_payloads = st.one_of(
    st.none(),
    st.binary(min_size=1, max_size=40),
    st.just(b"\xee" * (PATH_CFG.page_bytes + 8)),  # refused: larger than a page
)
_path_ops = st.lists(
    st.one_of(
        st.tuples(st.just("read"), _addresses, _instants),
        st.tuples(st.just("read"), _addresses, _instants),
        st.tuples(st.just("write"), _addresses, _instants, _payloads),
        st.tuples(st.just("preload"), _addresses, _payloads),
        st.tuples(st.just("erase"), _addresses, _instants),
        # Raw overwrite of the stored bytes with these bit flips, one byte
        # longer when the flag is set (refused: lengths differ).
        st.tuples(st.just("raw"), _addresses, st.lists(st.integers(0, 319), max_size=3),
                  st.booleans()),
        st.tuples(st.just("checked"), _addresses),
    ),
    max_size=60,
)


def _path_apply(array, op):
    try:
        if op[0] == "read":
            return array.service_read(op[1], op[2])
        if op[0] == "write":
            return array.service_write(op[1], op[2], data=op[3])
        if op[0] == "preload":
            return array.preload(op[1], op[2])
        if op[0] == "erase":
            return array.erase(op[1], op[2])
        if op[0] == "raw":
            raw = array.read_data(op[1]) or b""
            flips = [bit for bit in op[2] if bit < len(raw) * 8]
            return array.overwrite_raw(op[1], _flip(raw, flips) + b"\x00" * op[3])
        return array.read_data_checked(op[1])
    except Exception as exc:  # noqa: BLE001 - the error is the outcome compared
        return type(exc), str(exc)


def _path_state(array, telemetry):
    horizon = array.horizon_ns
    return (
        [array.plane_lanes(ppa) for ppa in PLANES],
        [(array.bus_free_at_ns(ch), array.bus_busy_ns(ch)) for ch in range(PATH_CFG.channels)],
        array.channel_bytes(),
        [array.channel_utilisations(until) for until in (horizon, horizon // 3 + 0.4, 0)],
        horizon,
        (array.reads_served, array.writes_served),
        [array.stored(ppa) for ppa in PAGES],
        (array.ecc_corrections, array.ecc_failures),
        telemetry.counters.snapshot(),
    )


def run_page_paths(ops, traced):
    """Both arrays through ``ops``; returns each op's outcome."""
    make = Telemetry.tracing if traced else Telemetry
    fast_telemetry, lane_telemetry = make(), make()
    fast = FlashArray(PATH_CFG, telemetry=fast_telemetry)
    lanes = oracle.LaneFlashArray(PATH_CFG, telemetry=lane_telemetry)
    outcomes = []
    for step, op in enumerate(ops):
        outcomes.append(_path_apply(fast, op))
        assert outcomes[-1] == _path_apply(lanes, op), (step, op)
        assert _path_state(fast, fast_telemetry) == _path_state(lanes, lane_telemetry), (step, op)
    assert fast_telemetry.tracer.to_json() == lane_telemetry.tracer.to_json()
    return outcomes


@seed(21)
@settings(max_examples=300, deadline=None)
@given(_path_ops, st.booleans())
def test_page_path_matches_lane_oracle(ops, traced):
    run_page_paths(ops, traced)


def test_long_page_path_backfills_like_the_oracle():
    """Reads and programs issued out of order over a long run: transfers
    land in idle gaps before the bus's tail, as the oracle's do."""
    rng = random.Random(21)
    ops = []
    for _ in range(3000):
        ppa = PhysicalPageAddress.from_flat(rng.randrange(PATH_CFG.total_pages), PATH_CFG)
        issue = rng.choice((rng.randrange(400_000), rng.uniform(0, 400_000)))
        roll = rng.random()
        if roll < 0.6:
            ops.append(("read", ppa, issue))
        elif roll < 0.9:
            ops.append(("write", ppa, issue, rng.choice((None, b"\x5a" * 64))))
        elif roll < 0.99:
            ops.append(("erase", ppa, issue))
        else:
            ops.append(("checked", ppa))
    outcomes = run_page_paths(ops, traced=False)
    records = [out for out in outcomes if isinstance(out, tuple) and len(out) == 4]
    assert len(records) > 1500
    refused = [out for out in outcomes if isinstance(out, tuple) and out[0] is FlashError]
    assert len(refused) > 100  # programs into programmed pages
    # A transfer that ends before the previous one was issued backfilled.
    backfilled = sum(
        1
        for prev, rec in zip(records, records[1:])
        if rec.done_ns < prev.array_done_ns and rec.ppa.channel == prev.ppa.channel
    )
    assert backfilled > 50


def test_page_rules_match_the_oracle():
    """Programs, preloads, raw overwrites, ECC-checked reads and erases
    over a few blocks: refusals, stored pages and spare areas, decoded
    bytes and the ECC tallies are the oracle's."""
    rng = random.Random(25)
    pages = PAGES[: 3 * PATH_CFG.pages_per_block]
    ops = []
    for step in range(4000):
        ppa = rng.choice(pages)
        roll = rng.random()
        if roll < 0.25:
            ops.append(("write", ppa, step * 1_000, rng.choice((None, rng.randbytes(40)))))
        elif roll < 0.35:
            ops.append(("preload", ppa, rng.choice((rng.randbytes(64), b"\xee" * 520))))
        elif roll < 0.6:
            flips = rng.sample(range(64), rng.choice((1, 1, 2)))
            ops.append(("raw", ppa, flips, rng.random() < 0.1))
        elif roll < 0.95:
            ops.append(("checked", ppa))
        else:
            ops.append(("erase", ppa, step * 1_000))
    outcomes = run_page_paths(ops, traced=False)
    pairs = [out for out in outcomes if isinstance(out, tuple) and len(out) == 2]
    statuses = Counter(status for _, status in pairs)
    assert min(statuses[status] for status in ecc.ECCStatus) > 50
    refusals = {message.split(" ")[0] for error, message in pairs if error is FlashError}
    assert refusals == {"program", "page", "cannot", "overwrite"}


# -- wear map and block pick ---------------------------------------------------

CFG = FlashConfig(
    channels=2,
    chips_per_channel=1,
    dies_per_chip=1,
    planes_per_die=2,
    blocks_per_plane=6,
    pages_per_block=4,
)
BLOCKS = CFG.total_pages // CFG.pages_per_block
BLOCK_KEYS = [
    (channel, 0, 0, plane, block)
    for channel in range(CFG.channels)
    for plane in range(CFG.planes_per_die)
    for block in range(CFG.blocks_per_plane)
]
LPAS = 20  # ~20% of the array: overwrites fill it with garbage quickly
#: ``fill`` writes fresh LPAs from here on, until the array is full of live data.
FILL_BASE = 1000

_lpas = st.integers(0, LPAS - 1)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("write"), _lpas),
        st.tuples(st.just("trim"), _lpas),
        st.tuples(st.just("gc")),
        st.tuples(
            st.just("gc_process"),
            st.lists(_lpas, max_size=4),
            st.sampled_from((0, 5_000, 40_000, 200_000)),
        ),
        st.tuples(st.just("retire"), st.integers(0, BLOCKS - 1)),
        st.tuples(st.just("fill"), st.integers(1, 60)),
    ),
    max_size=150,
)


def _stack(ftl, collector):
    array = FlashArray(CFG)
    return ftl, array, collector(ftl, array), [FILL_BASE]


def _fast_stack(skew):
    return _stack(PageMapFTL(CFG, skew=skew), GarbageCollector)


def _scan_stack(skew):
    return _stack(oracle.ScanFTL(CFG, skew=skew), oracle.ScanGarbageCollector)


def _write(ftl, array, lpa, at_ns=0):
    try:
        ppa = ftl.write(lpa)
    except FTLError as exc:
        return f"FTLError: {exc}"
    array.service_write(ppa, at_ns)  # a page handed out twice fails here
    return ppa


def _gc_process(gc, sim, out):
    try:
        yield from gc.collect_process(sim, 0)
    except FTLError as exc:
        out.append(f"FTLError: {exc}")


def _host_writes(ftl, array, sim, victim, picks, gap_ns, out):
    """Overwrites issued while the GC process relocates pages: pick *i*
    rewrites a still-mapped LPA of the victim block, if one is left."""
    for pick in picks:
        live = []
        for page in range(CFG.pages_per_block if victim else 0):
            lpa = ftl.reverse_lookup(PhysicalPageAddress(*victim, page))
            if lpa is not None:
                live.append(lpa)
        lpa = live[pick % len(live)] if live else pick % LPAS
        out.append(_write(ftl, array, lpa, sim.now))
        yield sim.wait_until(sim.now + gap_ns)


def _apply(stack, op):
    """Run one op; returns what it handed out (or the error it raised)."""
    ftl, array, gc, fill_next = stack
    kind = op[0]
    if kind == "write":
        return _write(ftl, array, op[1])
    if kind == "fill":
        out = []
        for _ in range(op[1]):
            out.append(_write(ftl, array, fill_next[0]))
            fill_next[0] += 1
        return out
    if kind == "gc_process":
        sim, out = Simulator(), []
        gc.last_result = None
        victim = gc.pick_victim()
        sim.spawn(_gc_process(gc, sim, out), label="gc")
        sim.spawn(_host_writes(ftl, array, sim, victim, op[1], op[2], out), label="host")
        sim.run()
        return out, gc.last_result, gc.collections, gc.pages_relocated
    try:
        if kind == "trim":
            return ftl.trim(op[1])
        if kind == "gc":
            result = gc.collect()
            return result, gc.collections, gc.pages_relocated
        block = PhysicalPageAddress.from_flat(op[1] * CFG.pages_per_block, CFG)
        return ftl.allocator.retire_block(block)
    except FTLError as exc:
        return f"FTLError: {exc}"


def assert_block_state(ftl):
    """The per-block state equals one rebuilt from the L2P map and the scans."""
    assert ftl._p2l == {ppa: lpa for lpa, ppa in ftl._map.items()}
    assert len(ftl._p2l) == len(ftl._map)  # the L2P map is injective
    assert ftl.invalid_by_block == {
        block: {ppa.page for ppa in pages}
        for block, pages in oracle.regroup(ftl.invalid_pages).items()
    }
    assert ftl.allocator.open_blocks() == oracle.walk_open_blocks(ftl.allocator)
    assert ftl.collectible_invalid_pages() == oracle.scan_collectible(ftl)


def _flat_counts(wear: WearTracker):
    return {
        (*unit, block): erases
        for unit, counts in wear.units.items()
        for block, erases in counts.items()
    }


def _run_both(ops, skew):
    """Both stacks through ``ops``; returns the outcomes and the erase count."""
    fast, scan = _fast_stack(skew), _scan_stack(skew)
    outcomes = []
    for step, op in enumerate(ops):
        outcomes.append(_apply(fast, op))
        assert outcomes[-1] == _apply(scan, op), (step, op)
        assert_block_state(fast[0])
        assert fast[0]._map == scan[0].map, (step, op)
        assert list(fast[0].invalid_pages) == list(scan[0].invalid_pages), (step, op)
        assert fast[0].collectible_invalid_pages() == oracle.scan_collectible(scan[0])
        assert fast[2].pick_victim() == scan[2].pick_victim(), (step, op)
    fast_wear, scan_wear = fast[0].wear, scan[0].wear
    assert _flat_counts(fast_wear) == scan_wear.erases
    for key in scan_wear.erases:
        assert fast_wear.erase_count(key) == scan_wear.erase_count(key)
    assert fast_wear.total_erases == scan_wear.total_erases
    assert fast_wear.max_erases == scan_wear.max_erases
    assert fast_wear.imbalance() == scan_wear.imbalance()
    return outcomes, scan_wear.total_erases


@settings(max_examples=200, deadline=None)
@given(_ops, st.sampled_from((0.0, 0.3, 1.0)))
def test_allocator_matches_scan_oracle(ops, skew):
    _run_both(ops, skew)


def _random_ops(seed, count):
    rng = random.Random(seed)
    ops = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.7:
            ops.append(("write", rng.randrange(LPAS)))
        elif roll < 0.75:
            ops.append(("trim", rng.randrange(LPAS)))
        elif roll < 0.88:
            ops.append(("gc",))
        elif roll < 0.96:
            lpas = [rng.randrange(LPAS) for _ in range(rng.randrange(5))]
            ops.append(("gc_process", lpas, rng.choice((0, 5_000, 40_000))))
        elif roll < 0.98:
            ops.append(("retire", rng.randrange(BLOCKS)))
    return ops


@pytest.mark.parametrize(
    "channels, skew, cycle",
    [(8, 0.0, True), (4, 0.25, True), (5, 1.0, True), (8, 0.3, False), (3, 0.0, False)],
)
def test_allocator_picks_match_the_chain_over_many_batches(channels, skew, cycle):
    """Shares whose deficits come back to zero keep one cycle of picks;
    the others work the picks out a batch at a time. Either way the pages
    are the chain allocator's over several batches."""
    config = FlashConfig(
        channels=channels, chips_per_channel=2, dies_per_chip=1, planes_per_die=2,
        blocks_per_plane=8, pages_per_block=64,
    )
    fast = PageAllocator(config, skew=skew)
    chain = oracle.ChainAllocator(
        config, skew=skew, pick_channel=oracle.deficit_pick_channel,
        pick_block=oracle.unit_pick_block,
    )
    count = 3 * PICK_CHUNK + 7
    assert [fast.allocate() for _ in range(count)] == [chain.allocate() for _ in range(count)]
    assert fast._table.cycle is cycle


def _chain(config, skew):
    return oracle.ChainAllocator(
        config, skew=skew, pick_channel=oracle.deficit_pick_channel,
        pick_block=oracle.unit_pick_block,
    )


def test_allocators_at_one_skew_share_one_pick_table():
    """Allocators at one skew read one table of picks, each at its own
    index: interleaved in bursts, one extending the table while the other
    is behind, each hands out its own chain allocator's pages."""
    config = FlashConfig(
        channels=8, chips_per_channel=2, dies_per_chip=1, planes_per_die=2,
        blocks_per_plane=8, pages_per_block=64,
    )
    skew = 0.37  # no cycle: the table grows a batch at a time
    pairs = [(PageAllocator(config, skew=skew), _chain(config, skew)) for _ in range(2)]
    assert pairs[0][0]._table is pairs[1][0]._table
    assert not pairs[0][0]._table.cycle
    rng = random.Random(5)
    handed = [0, 0]
    for _ in range(24):
        side = rng.randrange(2)
        burst = rng.randrange(1, 2 * PICK_CHUNK)
        fast, chain = pairs[side]
        assert [fast.allocate() for _ in range(burst)] == [chain.allocate() for _ in range(burst)]
        handed[side] += burst
    assert min(handed) > 3 * PICK_CHUNK
    assert len(pairs[0][0]._table.picks) >= max(handed)


@pytest.mark.parametrize("skew", [0.0, 0.3])
def test_long_write_gc_sequence_matches_scan_oracle(skew):
    """Hundreds of overwrites between GC passes: blocks wear unevenly."""
    _, erases = _run_both(_random_ops(7, 600), skew)
    assert erases > 20  # enough erases for wear to decide picks


@pytest.mark.parametrize("fill", [24, 32])
def test_full_array_sequence_matches_scan_oracle(fill):
    """With ``fill`` more live pages, garbage fills the array between GC
    passes: writes and relocations fail until GC frees a block."""
    ops = [("fill", fill)] + _random_ops(3, 400)
    outcomes, erases = _run_both(ops, 0.0)
    failed = [
        out for op, out in zip(ops, outcomes) if op[0] == "write" and "no free pages" in str(out)
    ]
    assert len(failed) > 20, "the array never filled up"
    assert erases > 20


def test_gc_process_skips_a_page_overwritten_mid_pass():
    """The host rewrites the victim's last live page between relocations."""
    ops = [("write", lpa) for lpa in range(16)] + [("write", 0), ("gc_process", [0, 0, 0], 0)]
    outcomes, _ = _run_both(ops, 0.0)
    result = outcomes[-1][1]
    assert (result.victim, result.relocated, result.reclaimed) == ((0, 0, 0, 0, 0), 1, 2)


def test_tied_victims_go_to_the_first_block_in_invalid_set_order():
    """Equal counts and wear: the block of the earliest invalid page wins."""
    rng = random.Random(5)
    ties = 0
    for _ in range(30):
        ftl = PageMapFTL(CFG)
        scan = oracle.ScanFTL(CFG)
        lpas = rng.sample(range(48), 48)
        for lpa in lpas + rng.sample(lpas, 24):
            ftl.write(lpa)
            scan.write(lpa)
        groups = [
            (len(pages), key)
            for key, pages in oracle.regroup(scan.invalid_pages).items()
            if key not in oracle.walk_open_blocks(scan.allocator)
        ]
        best = max(count for count, _ in groups)
        ties += sum(count == best for count, _ in groups) > 1
        victim = GarbageCollector(ftl, FlashArray(CFG)).pick_victim()
        assert victim == oracle.ScanGarbageCollector(scan, FlashArray(CFG)).pick_victim()
    assert ties > 10  # the tie walk decided most of the picks


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, CFG.blocks_per_plane - 1), min_size=1, unique=True),
    st.dictionaries(st.integers(0, CFG.blocks_per_plane - 1), st.integers(1, 3)),
)
def test_pick_block_matches_scan(free, erases):
    """Any free list and wear map: same block, same remaining free list."""
    wear, flat = WearTracker(), oracle.FlatWearTracker()
    for block, count in erases.items():
        for _ in range(count):
            wear.record_erase((1, 0, 0, 1, block))
            flat.record_erase((1, 0, 0, 1, block))
    allocator = PageAllocator(CFG, wear=wear)
    unit = allocator._units.index((1, 0, 0, 1))
    allocator._free[unit] = list(free)
    scan = oracle.UnitCursor(CFG, 1, 0, 0, 1, flat)
    scan._free_blocks = list(free)
    picked = allocator._pick_block(unit), allocator._free[unit]
    assert picked == (oracle.scan_pick_block(scan), scan._free_blocks)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(BLOCK_KEYS), max_size=40))
def test_wear_tracker_matches_flat_map(erases):
    wear, flat = WearTracker(), oracle.FlatWearTracker()
    for key in erases:
        wear.record_erase(key)
        flat.record_erase(key)
    assert _flat_counts(wear) == flat.erases
    for key in BLOCK_KEYS:
        assert wear.erase_count(key) == flat.erase_count(key)
    assert (wear.total_erases, wear.max_erases) == (flat.total_erases, flat.max_erases)
    assert wear.imbalance() == flat.imbalance()
