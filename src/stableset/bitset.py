"""Small helpers for subsets of {0..n-1} stored as int bitmasks."""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

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


# Maps the bytes of the digits "0" and "1" to their values.
_DIGIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


def flags(mask: Mask, n: int) -> bytes:
    """n bytes, byte x 1 if x is a member of mask and 0 if not (mask below
    ``2 ** n``), made in one step: `itertools.compress` reads a mask's
    members out of any n-item sequence with no Python step per member."""
    return format(mask, f"0{n}b")[::-1].encode().translate(_DIGIT_VALUES)


def transpose(rows: Sequence[Mask], width: int) -> tuple[Mask, ...]:
    """The `width` columns of a bit matrix whose rows lie below
    ``2 ** width``: column y has bit x set iff rows[x] has bit y set.

    The rows are joined most significant bit first in reverse row order,
    through one binary string, so bit y of row x sits at index
    (h-1-x)*width + width-1-y, h being the row count; every width-th
    character from index width-1-y reads column y with row x at bit x.
    """
    if not rows:
        return (0,) * width
    fmt = f"0{width}b"
    text = "".join([format(row, fmt) for row in reversed(rows)])
    return tuple(int(text[width - 1 - y::width], 2) for y in range(width))


def image(mask: Mask, rows: Sequence[Mask]) -> Mask:
    """The union of rows[x] over the members x of mask."""
    out = 0
    while mask:
        low = mask & -mask
        mask ^= low
        out |= rows[low.bit_length() - 1]
    return out


def image_table(rows: Sequence[Mask]) -> list[Mask]:
    """``table[m] == image(m, rows)`` for every m below ``2 ** len(rows)``,
    built by doubling: the entries with bit k set are those without it,
    each joined with rows[k]."""
    table = [0]
    for row in rows:
        table += [img | row for img in table]
    return table


def reach(start: Mask, rel: tuple[Mask, ...], v: Mask) -> Mask:
    """start plus everything it reaches along the rows `rel` inside v."""
    seen = frontier = start
    while frontier:
        frontier = image(frontier, rel) & v & ~seen
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
