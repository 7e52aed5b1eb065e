"""The maximal real subring Z[alpha + 1/alpha] and its two integral bases.

The s-basis is (1, s_1, ..., s_{2^(n-2)-1}) with s_j = alpha^j + alpha^(-j).
The special basis B replaces the upper half of the s-range by the elements
r_j = s_j + s_{2^(n-2)-j}, giving (1, s_1, ..., s_{2^(n-3)}, r_1, ...,
r_{2^(n-3)-1}).  Mod 2 the r-block spans the image of R~ = (Z-span of the
r_j) + 2 * (real subring).  Unit congruences are linear in these coordinates
because the real part of the ideal (pi^(m/2)) of Z[alpha]/2, pi = 1 + alpha,
whose square is 0, is V = span(s_q, r_1, ..., r_(q-1)), q = 2^(n-3): the top
s-coordinate and the r-block.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress

from .cyclotomic import CycInt, Level, _Frozen
from .errors import InternalInconsistency, NotReal
from .gf2 import _DIGIT_BITS, _reverse_bits, pack_bits

__all__ = [
    "SpecialCoordsMod2",
    "seq_s",
    "seq_d",
    "seq_r",
    "special_mod2",
    "rtilde_member",
    "s_table_tokens",
    "r_table_tokens",
]


# ---------------------------------------------------------------------- #
# sequence elements


def seq_s(level: Level, j: int) -> CycInt:
    """s_j = alpha^j + alpha^(-j); accepts any integer j."""
    return CycInt.from_terms(level, [(j, 1), (-j, 1)])


def seq_d(level: Level, j: int) -> CycInt:
    """d_j = 1 + s_j; a unit for odd j."""
    return CycInt.from_terms(level, [(0, 1), (j, 1), (-j, 1)])


def seq_r(level: Level, j: int) -> CycInt:
    """r_j = s_j + s_{2^(n-2)-j}."""
    q = 1 << (level.n - 2)
    return CycInt.from_terms(level, [(j, 1), (-j, 1), (q - j, 1), (j - q, 1)])


def _times_d(x: int, j: int, m: int) -> int:
    """x * d_j mod 2 for an m-bit parity mask x and any integer j; the mask
    of d_j is _times_d(1, j, m), and that of s_j = d_j - 1 is it xor 1.

    d_j = 1 + alpha^j + alpha^(-j) and alpha^m = 1 mod 2, so the product is
    x plus its two rotations by +-j: two shifts under 2m bits, one fold.
    For j = 0 or m/2 mod m the rotations cancel, as d_j = 1 mod 2 there.
    """
    j %= m
    y = x << j ^ x << m - j
    return x ^ (y ^ y >> m) & ((1 << m) - 1)


def _r_mask(t: int, m: int) -> int:
    """Parity mask of r_t = s_t + s_(m/2-t) = d_t + d_(m/2-t) mod 2."""
    return _times_d(1, t, m) ^ _times_d(1, m // 2 - t, m)


# ---------------------------------------------------------------------- #
# special basis B

# Layout of a B-coordinate vector of length 2^(n-2):
#   position 0                      <-> 1
#   positions 1 .. 2^(n-3)          <-> s_1 .. s_{2^(n-3)}
#   positions 2^(n-3)+t, 0 < t < 2^(n-3)  <-> r_t


@lru_cache(maxsize=None)
def _position_labels(n: int) -> tuple[str, ...]:
    """Labels of the B-positions at level n: 1, s_1 .. s_{2^(n-3)},
    r_1 .. r_{2^(n-3)-1}."""
    quarter = 1 << (n - 3)
    return (
        "1",
        *(f"s_{p}" for p in range(1, quarter + 1)),
        *(f"r_{t}" for t in range(1, quarter)),
    )


class SpecialCoordsMod2(_Frozen):
    """B-coordinates reduced mod 2, packed into an int: bit p is the
    coordinate at position p, for the 2^(n-2) positions of B."""

    __slots__ = ("level", "mask")

    def __init__(self, level: Level, mask: int) -> None:
        width = 1 << (level.n - 2)
        if not 0 <= mask < 1 << width:
            raise ValueError(
                f"need a mask of {width} bits at n={level.n}, got {mask:#x}"
            )
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "mask", mask)

    def is_one(self) -> bool:
        """True iff the class is the class of 1."""
        return self.mask == 1

    def render(self) -> str:
        """Canonical text form, the labels of the set positions lowest
        first, e.g. '1+r_2+r_3'; '0' for the zero class."""
        labels = _position_labels(self.level.n)
        digits = format(self.mask, f"0{len(labels)}b")[::-1]
        return "+".join(compress(labels, digits.encode().translate(_DIGIT_BITS))) or "0"

    def coords_hex(self) -> str:
        width = ((1 << (self.level.n - 2)) + 3) // 4
        return format(self.mask, f"0{width}x")


def special_mod2(a: CycInt) -> SpecialCoordsMod2:
    """B-coordinates of a real element, reduced mod 2."""
    if not a.is_real():
        raise NotReal("element is not fixed by conjugation")
    return special_mod2_from_parities(a.level, pack_bits(a.coeffs))


def special_mod2_from_parities(level: Level, parities: int) -> SpecialCoordsMod2:
    """B-class of an element of Z[alpha] given by its coefficient parities,
    packed as an m-bit mask (bit j for alpha^j).

    Products computed in the parity ring land here without lifting back to
    exact integers.  The parity mask must be conjugation-symmetric: bit m/2
    clear, and bits 1..m-1 read the same reversed.  A real element is then
    c_0 + sum c_j s_j over 0 < j < 2^(n-2) with c_j the coefficient of
    alpha^j, and B rewrites the upper half by s_{2^(n-2)-t} = r_t - s_t,
    which mod 2 moves bit 2^(n-2)-t to r_t and adds it to s_t.
    """
    m = level.degree
    half = m // 2
    if not 0 <= parities < 1 << m:
        raise ValueError(f"need a parity mask of {m} bits, got {parities:#x}")
    rev = _reverse_bits(parities, m)  # bit j - 1 is the parity at alpha^(m-j)
    if parities >> half & 1 or parities & 1 | (rev << 1) & ((1 << m) - 1) != parities:
        raise InternalInconsistency("parity vector is not real mod 2")
    quarter = half // 2
    # bit t of moved is bit 2^(n-2)-t of parities, for 0 < t < 2^(n-3)
    moved = (rev >> (half - 1)) & ((1 << quarter) - 1)
    out = parities & ((2 << quarter) - 1)
    return SpecialCoordsMod2(level, out ^ moved ^ (moved << quarter))


def rtilde_member(a: CycInt) -> bool:
    """True iff a lies in R~ = (Z-span of the r_j) + 2 * (real subring).

    Mod 2 that means the B-support sits entirely in the r-block.
    """
    quarter = 1 << (a.level.n - 3)
    return not special_mod2(a).mask & ((2 << quarter) - 1)


# ---------------------------------------------------------------------- #
# canonical mod-2 index tokens and tables


def _token(name: str, mask: int) -> str:
    """Mod-2 canonical name of s_j or r_j from its parity mask: '0', or
    name_k with k the lowest set bit of the mask."""
    return f"{name}_{(mask & -mask).bit_length() - 1}" if mask else "0"


def s_table_tokens(level: Level) -> list[str]:
    """Canonical tokens of s_j mod 2 for j = 0 .. 2^(n-1)-1, one period:
    '0' or 's_k' with 0 < k < 2^(n-2), from the bits +-j mod 2^(n-1)."""
    m = level.degree
    return [_token("s", _times_d(1, j, m) ^ 1) for j in range(m)]


def r_table_tokens(level: Level) -> list[str]:
    """Canonical tokens of r_j mod 2 for j = 0 .. 2^(n-2)-1, one period:
    '0' or 'r_k' with 0 < k < 2^(n-3)."""
    m = level.degree
    return [_token("r", _r_mask(j, m)) for j in range(m // 2)]
