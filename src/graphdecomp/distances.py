"""Exact distance values: saturating integer hop counts and half-integers.

Hop distances are plain non-negative ints, with a single ``UNREACHABLE``
sentinel for vertices in other components (and for the girth of a forest).
The sentinel saturates under addition and compares greater than every int,
so ``min``/``max`` and dynamic-programming update rules work unchanged.
"""

from __future__ import annotations

from functools import total_ordering


class _Unreachable:
    """Saturating top element for hop distances."""

    __slots__ = ()

    def __add__(self, other):
        if isinstance(other, (int, _Unreachable)):
            return self
        return NotImplemented

    __radd__ = __add__

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __eq__(self, other):
        return other is self

    def __ne__(self, other):
        return other is not self

    def __hash__(self):
        return hash("graphdecomp.UNREACHABLE")

    def __repr__(self):
        return "UNREACHABLE"

    def __str__(self):
        return "inf"

    def __reduce__(self):
        return (_unreachable_instance, ())


def _unreachable_instance():
    return UNREACHABLE


UNREACHABLE = _Unreachable()

#: A hop count: a non-negative int, or UNREACHABLE.
Distance = int | _Unreachable


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
