"""Bitset GF(2) helpers and the parity ring Z[alpha]/2.

Oracles: brute-force span enumeration for GF(2) rank and parity of exact
ring products for the F2 cyclic helpers.
"""

import random

import pytest

from circunits import CycInt, Level
from circunits.gf2 import (
    cyc_mul_f2,
    cyc_pow_f2,
    cyc_square_f2,
    gf2_rank,
    gf2_rref,
    pack_bits,
    unpack_bits,
)


def span_size(rows) -> int:
    """Oracle: materialize the GF(2) span by closure."""
    span = {0}
    for r in rows:
        span |= {x ^ r for x in span}
    return len(span)


def random_rows(rng, count, width):
    return [rng.randrange(1 << width) for _ in range(count)]


# ---------------------------------------------------------------------- #
# GF(2)


def test_pack_unpack():
    assert pack_bits((1, 0, 1, 1)) == 0b1101
    assert unpack_bits(0b1101, 4) == (1, 0, 1, 1)
    assert unpack_bits(0, 3) == (0, 0, 0)
    assert pack_bits(()) == 0
    # signed coefficients pack by parity, as special_mod2 relies on
    assert pack_bits((3, -2, -1, 0)) == 0b0101


@pytest.mark.parametrize("seed", range(5))
def test_rank_against_span_oracle(seed):
    rng = random.Random(seed)
    for _ in range(10):
        rows = random_rows(rng, rng.randint(0, 6), rng.randint(1, 8))
        rank = gf2_rank(rows)
        assert 1 << rank == span_size(rows)


def test_rref_is_canonical():
    rows = [0b110, 0b011, 0b101]
    reduced = gf2_rref(rows)
    assert gf2_rank(reduced) == gf2_rank(rows)
    assert span_size(reduced) == span_size(rows)
    # reduced rows are sorted and have distinct pivots
    pivots = [r.bit_length() for r in reduced]
    assert pivots == sorted(pivots, reverse=True)
    assert len(set(pivots)) == len(pivots)


@pytest.mark.parametrize("seed", range(5))
def test_cyc_mul_f2_matches_exact_parities(seed):
    rng = random.Random(seed)
    for n in (3, 4, 5):
        lv = Level(n)
        m = lv.degree
        a = CycInt(lv, tuple(rng.randint(-6, 6) for _ in range(m)))
        b = CycInt(lv, tuple(rng.randint(-6, 6) for _ in range(m)))
        mask = cyc_mul_f2(
            pack_bits(a.mod2_coords()), pack_bits(b.mod2_coords()), m
        )
        assert unpack_bits(mask, m) == (a * b).mod2_coords()


@pytest.mark.parametrize("seed", range(5))
def test_cyc_square_and_pow_f2(seed):
    rng = random.Random(10 + seed)
    lv = Level(5)
    m = lv.degree
    a = CycInt(lv, tuple(rng.randint(0, 1) for _ in range(m)))
    mask = pack_bits(a.mod2_coords())
    assert cyc_square_f2(mask, m) == cyc_mul_f2(mask, mask, m)
    for e in (0, 1, 2, 3, 7, 16):
        assert unpack_bits(cyc_pow_f2(mask, e, m), m) == (a**e).mod2_coords()
    with pytest.raises(ValueError):
        cyc_pow_f2(mask, -1, m)

