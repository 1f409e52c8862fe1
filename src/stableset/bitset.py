"""Small helpers for subsets of {0..n-1} stored as int bitmasks."""

from __future__ import annotations

from typing import Iterable, Iterator

Mask = int


def from_members(members: Iterable[int]) -> Mask:
    m = 0
    for x in members:
        m |= 1 << x
    return m


def members(mask: Mask) -> tuple[int, ...]:
    return tuple(iter_bits(mask))


def iter_bits(mask: Mask) -> Iterator[int]:
    """Set bits in ascending order, one step per set bit (``m & -m``)."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def reach(start: Mask, rel: tuple[Mask, ...], v: Mask) -> Mask:
    """start plus everything it reaches along the rows `rel` inside v."""
    seen = frontier = start
    while frontier:
        step = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            step |= rel[low.bit_length() - 1]
        frontier = step & v & ~seen
        seen |= frontier
    return seen


def full_mask(n: int) -> Mask:
    return (1 << n) - 1


def subsets(universe: Mask) -> Iterator[Mask]:
    """All submasks of `universe` in ascending numeric order, including 0."""
    # Ascending order matters: callers rely on it for reproducible output.
    sub = 0
    while True:
        yield sub
        if sub == universe:
            return
        sub = (sub - universe) & universe
