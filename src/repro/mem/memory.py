"""Flat byte-addressable memory backing functional execution."""

from __future__ import annotations

import mmap

from repro.errors import MemoryError_


class FlatMemory:
    """A bounds-checked flat memory with little-endian word access.

    This is the functional store for the ISA interpreter and kernel
    references. Timing is handled separately by the hierarchy models.

    The bytes live in ``buf``, an anonymous ``mmap`` that the OS
    zero-fills one page at a time on first touch: the core model maps a
    19 MiB address space per run and a kernel sample touches a small part
    of it, so the untouched pages cost neither a zero-fill nor resident
    memory. The fast engine reads and writes ``buf`` with ``struct`` after
    the same bounds test as :meth:`check`.
    """

    def __init__(self, size_bytes: int) -> None:
        if size_bytes <= 0:
            raise MemoryError_("memory size must be positive")
        self.size_bytes = size_bytes
        self.buf = mmap.mmap(-1, size_bytes)

    def check(self, addr: int, size: int) -> None:
        """Raise :class:`MemoryError_` unless ``[addr, addr + size)`` is in bounds."""
        if addr < 0 or size < 0 or addr + size > self.size_bytes:
            raise MemoryError_(
                f"access [{addr}, {addr + size}) outside memory of {self.size_bytes} bytes"
            )

    def load_bytes(self, addr: int, size: int) -> bytes:
        self.check(addr, size)
        return self.buf[addr : addr + size]

    def store_bytes(self, addr: int, data: bytes) -> None:
        self.check(addr, len(data))
        self.buf[addr : addr + len(data)] = data

    def load_u8(self, addr: int) -> int:
        self.check(addr, 1)
        return self.buf[addr]

    def load_u16(self, addr: int) -> int:
        self.check(addr, 2)
        return int.from_bytes(self.buf[addr : addr + 2], "little")

    def load_u32(self, addr: int) -> int:
        self.check(addr, 4)
        return int.from_bytes(self.buf[addr : addr + 4], "little")

    def store_u8(self, addr: int, value: int) -> None:
        self.check(addr, 1)
        self.buf[addr] = value & 0xFF

    def store_u16(self, addr: int, value: int) -> None:
        self.check(addr, 2)
        self.buf[addr : addr + 2] = (value & 0xFFFF).to_bytes(2, "little")

    def store_u32(self, addr: int, value: int) -> None:
        self.check(addr, 4)
        self.buf[addr : addr + 4] = (value & 0xFFFFFFFF).to_bytes(4, "little")

    def fill(self, addr: int, size: int, value: int = 0) -> None:
        """Set ``size`` bytes starting at ``addr`` to ``value``."""
        self.check(addr, size)
        self.buf[addr : addr + size] = bytes([value & 0xFF]) * size

    def __len__(self) -> int:
        return self.size_bytes
