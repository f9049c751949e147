"""Exact distance values: hop counts and half-integers.

Hop distances are plain non-negative ints, and ``UNREACHABLE``, float
infinity, stands for vertices in other components (and for the girth of a
forest).  It saturates under addition and compares greater than every int,
so ``min``/``max`` and dynamic-programming update rules work unchanged, and
it prints as ``inf``.
"""

from __future__ import annotations

from functools import total_ordering

UNREACHABLE = float("inf")

#: A hop count: a non-negative int, or UNREACHABLE.
Distance = int | float


@total_ordering
class Half:
    """Exact half-integer, stored as twice its value.

    Used for four-point hyperbolicity, whose exact values are multiples
    of 1/2; floats are never involved.
    """

    __slots__ = ("twice",)

    def __init__(self, twice: int):
        self.twice = twice

    @classmethod
    def of_int(cls, k: int) -> "Half":
        return cls(2 * k)

    def __eq__(self, other):
        if isinstance(other, Half):
            return self.twice == other.twice
        if isinstance(other, int):
            return self.twice == 2 * other
        return NotImplemented

    def __lt__(self, other):
        if isinstance(other, Half):
            return self.twice < other.twice
        if isinstance(other, int):
            return self.twice < 2 * other
        return NotImplemented

    def __hash__(self):
        return hash(("graphdecomp.Half", self.twice))

    def __repr__(self):
        return f"Half({self.twice})"

    def __str__(self):
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"


def parse_half(text: str) -> Half:
    text = text.strip()
    if "/" in text:
        num, den = text.split("/")
        num, den = int(num), int(den)
        if den != 2 or num % 2 == 0:
            raise ValueError(f"not a reduced half-integer: {text!r}")
        return Half(num)
    return Half(2 * int(text))
