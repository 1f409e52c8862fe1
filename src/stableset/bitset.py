"""Small helpers for subsets of {0..n-1} stored as int bitmasks."""

from __future__ import annotations

import functools
from itertools import compress
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
    return bin(mask)[:1:-1].ljust(n, "0").encode().translate(_DIGIT_VALUES)


def positions(mask: Mask, n: int) -> list[int]:
    """The set bits of mask, below ``2 ** n``, in ascending order, read by
    `itertools.compress` from `flags`: a few C-level passes over n bytes
    and no Python step per bit, for masks with very many set bits."""
    return list(compress(range(n), flags(mask, n)))


def transpose(rows: Sequence[Mask], width: int) -> tuple[Mask, ...]:
    """The `width` columns of a bit matrix whose rows lie below
    ``2 ** width``: column y has bit x set iff rows[x] has bit y set.

    The rows are packed little-endian into one int, nb = ceil(width / 8)
    bytes a row, so that each 8-row group and each byte offset hold one
    8x8 bit block.  Three delta swaps (Warren, *Hacker's Delight*, 7-3)
    transpose every block in place: for j = 4, 2, 1 they exchange bit
    k + j of row i with bit k of row i + j, wherever i & j == 0 and
    k & j == 0.  Then byte offset y >> 3 of row y & 7 in each group holds
    column y's bits for that group's rows, and every 8 nb-th byte from it
    reads column y with row x at bit x.
    """
    if not width:
        return ()
    nb = (width + 7) >> 3
    groups = (len(rows) + 7) >> 3
    if not groups:
        return (0,) * width
    m = int.from_bytes(bytes(rows) if nb == 1 else b"".join(
        [row.to_bytes(nb, "little") for row in rows]), "little")
    for s, mask in _swap_masks(nb, groups):
        t = (m ^ (m >> s)) & mask
        m ^= t ^ (t << s)
    step = 8 * nb
    data = m.to_bytes(step * groups, "little")
    if step * groups == 8:  # one block: column y is byte y
        return tuple(data[:width])
    return tuple([int.from_bytes(data[(y & 7) * nb + (y >> 3)::step], "little")
                  for y in range(width)])


@functools.lru_cache(maxsize=16)
def _swap_masks(nb: int, groups: int) -> tuple[tuple[int, Mask], ...]:
    """`transpose`'s (shift, mask) for j = 4, 2, 1 on `groups` 8-row groups
    of nb-byte rows: the mask holds the bits k with k & j set on the rows
    i with i & j clear, and the shift carries bit k + 8 nb (i + j) - j
    down to bit k + 8 nb i."""
    swaps = []
    for j, byte in ((4, b"\xf0"), (2, b"\xcc"), (1, b"\xaa")):
        group = b"".join(bytes(nb) if i & j else byte * nb for i in range(8))
        swaps.append((j * (8 * nb - 1),
                      int.from_bytes(group * groups, "little")))
    return tuple(swaps)


def image(mask: Mask, rows: Sequence[Mask]) -> Mask:
    """The union of rows[x] over the members x of mask."""
    out = 0
    while mask:
        low = mask & -mask
        mask ^= low
        out |= rows[low.bit_length() - 1]
    return out


@functools.lru_cache(maxsize=16)
def diagonal(n: int) -> tuple[Mask, ...]:
    """The rows of the identity on {0..n-1}: row x is ``1 << x``."""
    return tuple(1 << x for x in range(n))


@functools.lru_cache(maxsize=16)
def planes(n: int) -> tuple[Mask, ...]:
    """The subsets of {0..n-1} sliced by member: plane x is the ``2 ** n``
    bit mask whose bit v is set iff subset v holds x.  Its bits repeat
    ``2 ** x`` clear then ``2 ** x`` set, so each is one parse of a digit
    string."""
    size = 1 << n
    return tuple(int(("1" * half + "0" * half) * (size // (2 * half)), 2)
                 for half in (1 << x for x in range(n)))


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
