"""GF(2) linear algebra on word-packed rows, plus the mod-2 coefficient ring.

Rows and ring elements are Python ints used as bitsets, so a row of any
width fits in one object and elimination is shift/xor work.  The mod-2
coefficient ring is Z[alpha]/2: since alpha^m = -1 = 1 there, exponents
simply wrap at m.
"""

from __future__ import annotations

__all__ = [
    "gf2_rank",
    "pack_bits",
    "unpack_bits",
    "cyc_mul_f2",
    "cyc_pow_f2",
]


def pack_bits(bits) -> int:
    """Pack the parities of an iterable of ints into an int, bit i = bits[i] & 1."""
    value = 0
    for i, b in enumerate(bits):
        if b & 1:
            value |= 1 << i
    return value


def unpack_bits(value: int, width: int) -> tuple[int, ...]:
    """The low `width` bits of value, lowest first."""
    # the slice reverses the digits and drops the "0" that format gives for
    # width 0; iterating the translated bytes yields the ints 0 and 1
    digits = format(value & ((1 << width) - 1), f"0{width}b")[: -width - 1 : -1]
    return tuple(digits.encode().translate(bytes.maketrans(b"01", b"\0\1")))


def gf2_rank(rows: list[int]) -> int:
    """Rank by forward elimination: each row is reduced by the stored row
    with the same top bit until it vanishes or has a new top bit."""
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            top = row.bit_length()
            if top not in pivots:
                pivots[top] = row
                break
            row ^= pivots[top]
    return len(pivots)


# ---------------------------------------------------------------------- #
# the ring Z[alpha]/2 as m-bit masks


def cyc_mul_f2(a: int, b: int, m: int) -> int:
    """Product of two mod-2 classes packed as m-bit masks; the loop runs
    over the set bits of a, so pass the sparser operand first.  With m
    past the raw product's degree nothing wraps (congruence._subset_products)."""
    acc = 0
    while a:
        low = a & -a
        acc ^= b << (low.bit_length() - 1)
        a ^= low
    # one fold suffices: the raw product has fewer than 2m bits
    return (acc ^ (acc >> m)) & ((1 << m) - 1)


def cyc_pow_f2(a: int, exponent: int, m: int) -> int:
    """Binary powering from the lowest set bit, with no square past the top
    one; squaring never adds terms, so the base stays as sparse as a."""
    if exponent < 0:
        raise ValueError("negative exponents are not defined in the parity ring")
    result = None
    while exponent:
        if exponent & 1:
            result = a if result is None else cyc_mul_f2(a, result, m)
        exponent >>= 1
        if exponent:
            a = cyc_mul_f2(a, a, m)
    return 1 if result is None else result
