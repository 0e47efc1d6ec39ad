"""Address arithmetic helpers shared by the VM and cache layers.

All addresses in the simulator are plain Python ints (byte addresses in a
48-bit space, as in the paper's Table 1 IOT fields).  These helpers keep
line/page rounding logic in one place.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "align_down",
    "align_up",
    "alignment_shift",
    "is_power_of_two",
    "lines_spanned",
    "AddressRange",
]


def is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def alignment_shift(addr: int) -> int:
    """Trailing-zero count of ``addr``: the largest ``k`` with ``addr``
    a multiple of ``2**k``.  Zero is aligned to everything; it returns
    64, past any 48-bit address."""
    return (addr & -addr).bit_length() - 1 if addr else 64


def align_down(addr: int, granule: int) -> int:
    if granule <= 0:
        raise ValueError("granule must be positive")
    return addr - (addr % granule)


def align_up(addr: int, granule: int) -> int:
    if granule <= 0:
        raise ValueError("granule must be positive")
    return -(-addr // granule) * granule


def lines_spanned(addr: int, size: int, line_bytes: int = 64) -> int:
    """Number of cache lines touched by ``[addr, addr + size)``."""
    if size <= 0:
        return 0
    first = addr // line_bytes
    last = (addr + size - 1) // line_bytes
    return int(last - first + 1)


@dataclass(frozen=True)
class AddressRange:
    """Half-open byte range ``[start, end)``."""

    start: int
    end: int

    def __post_init__(self):
        if self.end < self.start:
            raise ValueError(f"invalid range [{self.start:#x}, {self.end:#x})")

    @property
    def size(self) -> int:
        return self.end - self.start

    def contains(self, addr: int) -> bool:
        return self.start <= addr < self.end

    def overlaps(self, other: "AddressRange") -> bool:
        return self.start < other.end and other.start < self.end
