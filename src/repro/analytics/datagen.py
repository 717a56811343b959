"""dbgen-lite: deterministic TPC-H data with referentially intact keys.

Generates all eight tables at a given scale factor with the value domains
the queries rely on (market segments, order priorities, ship modes, brand
and type vocabularies, the 7-year date window). Values are drawn from a
seeded RNG, so runs are reproducible; monetary values are integer cents.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List

from repro.analytics.relalg import Table
from repro.analytics.schema import DATE_DAYS, SCHEMA, date_to_day
from repro.errors import AnalyticsError
from repro.utils.draws import below_draws

REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
NATIONS = [
    ("ALGERIA", 0), ("ARGENTINA", 1), ("BRAZIL", 1), ("CANADA", 1), ("EGYPT", 4),
    ("ETHIOPIA", 0), ("FRANCE", 3), ("GERMANY", 3), ("INDIA", 2), ("INDONESIA", 2),
    ("IRAN", 4), ("IRAQ", 4), ("JAPAN", 2), ("JORDAN", 4), ("KENYA", 0),
    ("MOROCCO", 0), ("MOZAMBIQUE", 0), ("PERU", 1), ("CHINA", 2), ("ROMANIA", 3),
    ("SAUDI ARABIA", 4), ("VIETNAM", 2), ("RUSSIA", 3), ("UNITED KINGDOM", 3),
    ("UNITED STATES", 1),
]
MKT_SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]
ORDER_PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
SHIP_MODES = ["AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"]
SHIP_INSTRUCTS = ["COLLECT COD", "DELIVER IN PERSON", "NONE", "TAKE BACK RETURN"]
BRANDS = [f"Brand#{i}{j}" for i in range(1, 6) for j in range(1, 6)]
TYPE_SYLL1 = ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"]
TYPE_SYLL2 = ["ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"]
TYPE_SYLL3 = ["TIN", "NICKEL", "BRASS", "STEEL", "COPPER"]
CONTAINERS = [f"{a} {b}" for a in ("SM", "MED", "LG", "JUMBO", "WRAP")
              for b in ("CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM")]
_WORDS = ("special", "pending", "unusual", "express", "furious", "sly", "careful",
          "blithe", "quick", "deposits", "packages", "foxes", "accounts", "requests")


def generate_database(scale_factor: float = 0.01, seed: int = 7) -> Dict[str, Table]:
    """Generate all eight tables; keys are referentially consistent.

    Every bounded draw comes from a stream bound once per value domain
    (:mod:`repro.utils.draws`) over the one seeded generator, in the order
    the ``randrange``/``randint``/``choice`` calls it stands for made them,
    so the tables are those of the method calls. ``rng.random()`` and
    ``rng.sample`` are called as they are.
    """
    if scale_factor <= 0:
        raise AnalyticsError("scale factor must be positive")
    rng = random.Random(seed)
    draw = rng.random

    # With s = below(high - low + 1), low + s() is rng.randint(low, high);
    # with s = below(len(seq)), seq[s()] is rng.choice(seq).
    def below(n: int) -> Callable[[], int]:
        return below_draws(rng, n).__next__

    word = below(len(_WORDS))
    nation = below(len(NATIONS))
    phone_part, phone_tail = below(999 - 100 + 1), below(9999 - 1000 + 1)
    acctbal = below(999_999 + 99_999 + 1)

    def comment() -> str:
        return f"{_WORDS[word()]} {_WORDS[word()]} {_WORDS[word()]} {_WORDS[word()]}"

    def short_comment() -> str:
        return f"{_WORDS[word()]} {_WORDS[word()]}"

    def phone() -> str:
        # The nation key is drawn first, then the three number groups.
        return f"{nation() + 10}-{100 + phone_part()}-{100 + phone_part()}-{1000 + phone_tail()}"

    db: Dict[str, Table] = {}

    db["region"] = Table(
        "region",
        {
            "r_regionkey": list(range(5)),
            "r_name": list(REGIONS),
            "r_comment": [comment() for _ in range(5)],
        },
    )
    db["nation"] = Table(
        "nation",
        {
            "n_nationkey": list(range(25)),
            "n_name": [n for n, _ in NATIONS],
            "n_regionkey": [r for _, r in NATIONS],
            "n_comment": [comment() for _ in range(25)],
        },
    )

    n_supp = SCHEMA["supplier"].rows_at(scale_factor)
    db["supplier"] = Table(
        "supplier",
        {
            "s_suppkey": list(range(1, n_supp + 1)),
            "s_name": [f"Supplier#{i:09d}" for i in range(1, n_supp + 1)],
            "s_address": [short_comment() for _ in range(n_supp)],
            "s_nationkey": [nation() for _ in range(n_supp)],
            "s_phone": [phone() for _ in range(n_supp)],
            "s_acctbal": [-99_999 + acctbal() for _ in range(n_supp)],
            "s_comment": [
                (comment() + (" Customer Complaints" if draw() < 0.01 else ""))
                for _ in range(n_supp)
            ],
        },
    )

    n_cust = SCHEMA["customer"].rows_at(scale_factor)
    segment = below(len(MKT_SEGMENTS))
    db["customer"] = Table(
        "customer",
        {
            "c_custkey": list(range(1, n_cust + 1)),
            "c_name": [f"Customer#{i:09d}" for i in range(1, n_cust + 1)],
            "c_address": [short_comment() for _ in range(n_cust)],
            "c_nationkey": [nation() for _ in range(n_cust)],
            "c_phone": [phone() for _ in range(n_cust)],
            "c_acctbal": [-99_999 + acctbal() for _ in range(n_cust)],
            "c_mktsegment": [MKT_SEGMENTS[segment()] for _ in range(n_cust)],
            "c_comment": [comment() for _ in range(n_cust)],
        },
    )

    n_part = SCHEMA["part"].rows_at(scale_factor)
    syll1, syll2, syll3 = (below(len(s)) for s in (TYPE_SYLL1, TYPE_SYLL2, TYPE_SYLL3))
    mfgr, brand, size = below(5), below(len(BRANDS)), below(50)
    container, retail = below(len(CONTAINERS)), below(210_000 - 90_000 + 1)
    part_types = [
        f"{TYPE_SYLL1[syll1()]} {TYPE_SYLL2[syll2()]} {TYPE_SYLL3[syll3()]}"
        for _ in range(n_part)
    ]
    db["part"] = Table(
        "part",
        {
            "p_partkey": list(range(1, n_part + 1)),
            "p_name": [
                " ".join(rng.sample(("lace", "green", "ivory", "navy", "forest",
                                     "chocolate", "metallic", "almond"), 3))
                for _ in range(n_part)
            ],
            "p_mfgr": [f"Manufacturer#{1 + mfgr()}" for _ in range(n_part)],
            "p_brand": [BRANDS[brand()] for _ in range(n_part)],
            "p_type": part_types,
            "p_size": [1 + size() for _ in range(n_part)],
            "p_container": [CONTAINERS[container()] for _ in range(n_part)],
            "p_retailprice": [90_000 + retail() for _ in range(n_part)],
            "p_comment": [short_comment() for _ in range(n_part)],
        },
    )

    # partsupp: 4 suppliers per part.
    ps_part: List[int] = []
    ps_supp: List[int] = []
    for pk in range(1, n_part + 1):
        for j in range(4):
            ps_part.append(pk)
            ps_supp.append((pk + j * (n_supp // 4 + 1)) % n_supp + 1)
    n_ps = len(ps_part)
    availqty, supplycost = below(9999), below(100_000 - 100 + 1)
    db["partsupp"] = Table(
        "partsupp",
        {
            "ps_partkey": ps_part,
            "ps_suppkey": ps_supp,
            "ps_availqty": [1 + availqty() for _ in range(n_ps)],
            "ps_supplycost": [100 + supplycost() for _ in range(n_ps)],
            "ps_comment": [comment() for _ in range(n_ps)],
        },
    )

    n_orders = SCHEMA["orders"].rows_at(scale_factor)
    order_day, custkey, status = below(DATE_DAYS - 151), below(n_cust), below(3)
    totalprice = below(50_000_000 - 100_000 + 1)
    priority, clerk = below(len(ORDER_PRIORITIES)), below(1000)
    order_dates = [order_day() for _ in range(n_orders)]
    db["orders"] = Table(
        "orders",
        {
            "o_orderkey": list(range(1, n_orders + 1)),
            "o_custkey": [1 + custkey() for _ in range(n_orders)],
            "o_orderstatus": ["OFP"[status()] for _ in range(n_orders)],
            "o_totalprice": [100_000 + totalprice() for _ in range(n_orders)],
            "o_orderdate": order_dates,
            "o_orderpriority": [ORDER_PRIORITIES[priority()] for _ in range(n_orders)],
            "o_clerk": [f"Clerk#{1 + clerk():09d}" for _ in range(n_orders)],
            "o_shippriority": [0] * n_orders,
            "o_comment": [comment() for _ in range(n_orders)],
        },
    )

    # lineitem: 1..7 lines per order (avg 4).
    lines, ship_lag, commit_lag, receipt_lag = below(7), below(121), below(90 - 30 + 1), below(30)
    quantity_of, partkey, suppkey = below(50), below(n_part), below(n_supp)
    discount, tax, flag = below(11), below(9), below(2)
    instruct, mode = below(len(SHIP_INSTRUCTS)), below(len(SHIP_MODES))
    cutoff = date_to_day(1995, 6, 17)
    cols: Dict[str, List] = {name: [] for name in SCHEMA["lineitem"].columns}
    for okey, odate in zip(db["orders"].column("o_orderkey"), order_dates):
        for line in range(1, 2 + lines()):
            shipdate = min(odate + 1 + ship_lag(), DATE_DAYS - 31)
            commitdate = min(odate + 30 + commit_lag(), DATE_DAYS - 1)
            receiptdate = min(shipdate + 1 + receipt_lag(), DATE_DAYS - 1)
            quantity = 1 + quantity_of()
            cols["l_orderkey"].append(okey)
            cols["l_partkey"].append(1 + partkey())
            cols["l_suppkey"].append(1 + suppkey())
            cols["l_linenumber"].append(line)
            cols["l_quantity"].append(quantity)
            cols["l_extendedprice"].append(quantity * (90_000 + retail()) // 100)
            cols["l_discount"].append(discount())
            cols["l_tax"].append(tax())
            cols["l_returnflag"].append(
                "R" if receiptdate <= cutoff and draw() < 0.5 else "AN"[flag()]
            )
            cols["l_linestatus"].append("F" if shipdate <= cutoff else "O")
            cols["l_shipdate"].append(shipdate)
            cols["l_commitdate"].append(commitdate)
            cols["l_receiptdate"].append(receiptdate)
            cols["l_shipinstruct"].append(SHIP_INSTRUCTS[instruct()])
            cols["l_shipmode"].append(SHIP_MODES[mode()])
            cols["l_comment"].append(short_comment())
    db["lineitem"] = Table("lineitem", cols)
    return db
