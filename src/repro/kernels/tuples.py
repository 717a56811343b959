"""Binary tuple layout shared by the database kernels (Filter/Select).

The layout mirrors the hot columns of TPC-H ``lineitem`` serialized "in
binary flatly" (paper Section VI-B): four u32 fields followed by a 16-byte
payload standing in for the remaining columns.

======  ========  =======================================
offset  field     contents
======  ========  =======================================
0       quantity  ``l_quantity`` (1..50)
4       price     ``l_extendedprice`` in cents
8       discount  ``l_discount`` in percent (0..10)
12      shipdate  ``l_shipdate`` as days since 1992-01-01
16      payload   16 bytes standing in for other columns
======  ========  =======================================
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from typing import Iterator

TUPLE_BYTES = 32
F_QUANTITY = 0
F_PRICE = 4
F_DISCOUNT = 8
F_SHIPDATE = 12
PAYLOAD_OFF = 16
PAYLOAD_BYTES = 16

SHIPDATE_DAYS = 2556  # seven years of dates, like TPC-H


@dataclass(frozen=True)
class Tuple:
    quantity: int
    price: int
    discount: int
    shipdate: int
    payload: bytes = b"\x00" * PAYLOAD_BYTES

    def pack(self) -> bytes:
        return (
            struct.pack("<IIII", self.quantity, self.price, self.discount, self.shipdate)
            + self.payload
        )

    @classmethod
    def unpack(cls, raw: bytes) -> "Tuple":
        q, p, d, s = struct.unpack_from("<IIII", raw)
        return cls(q, p, d, s, raw[PAYLOAD_OFF:TUPLE_BYTES])


def iter_tuples(data: bytes) -> Iterator[Tuple]:
    for off in range(0, len(data), TUPLE_BYTES):
        yield Tuple.unpack(data[off : off + TUPLE_BYTES])


def random_tuples(n: int, seed: int = 1) -> bytes:
    """Generate ``n`` tuples with TPC-H-like field distributions."""
    rng = random.Random(seed)
    out = bytearray()
    for _ in range(n):
        out += Tuple(
            quantity=rng.randint(1, 50),
            price=rng.randint(90_000, 10_500_000),
            discount=rng.randint(0, 10),
            shipdate=rng.randint(0, SHIPDATE_DAYS - 1),
            payload=rng.randbytes(PAYLOAD_BYTES),
        ).pack()
    return bytes(out)
