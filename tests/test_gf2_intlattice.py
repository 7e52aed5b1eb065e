"""Bitset GF(2) helpers and the parity ring Z[alpha]/2.

Oracles: brute-force span enumeration for GF(2) rank, a bit-list
convolution and the parities of exact ring products for the F2 cyclic
helpers.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circunits import CycInt, Level, gf2
from circunits.gf2 import (
    _reverse_bits,
    cyc_mul_f2,
    cyc_pow_f2,
    gf2_rank,
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


def test_unpack_bits_against_bit_loop():
    rng = random.Random(7)
    widths = list(range(130))
    widths += [w + d for w in (256, 512, 1024, 2048) for d in (-1, 0, 1)]
    for width in widths:
        for value in (
            0,
            (1 << width) - 1,
            rng.getrandbits(width + 1),
            rng.getrandbits(width + 70),  # wider than width
            -rng.getrandbits(width + 3),
        ):
            expected = tuple((value >> i) & 1 for i in range(width))
            assert unpack_bits(value, width) == expected


@pytest.mark.parametrize(
    "width", sorted({*range(1, 18), *(1 << (n - 1) for n in range(3, 13))})
)
def test_reverse_bits_against_bit_loop(width):
    rng = random.Random(width)
    values = [0, (1 << width) - 1, *(1 << i for i in range(width))]
    values += [rng.getrandbits(width) for _ in range(10)]
    for value in values:
        expected = sum(((value >> i) & 1) << (width - 1 - i) for i in range(width))
        assert _reverse_bits(value, width) == expected


def test_pack_unpack():
    assert pack_bits((1, 0, 1, 1)) == 0b1101
    assert unpack_bits(0b1101, 4) == (1, 0, 1, 1)
    assert unpack_bits(0, 3) == (0, 0, 0)
    assert pack_bits(()) == 0
    # signed coefficients pack by parity, as special_mod2 relies on
    assert pack_bits((3, -2, -1, 0)) == 0b0101


def planted_rows(rng, rank, count, width):
    """`rank` independent rows with distinct top bits, then random XOR
    combinations of them up to `count` rows, shuffled: the span has rank
    exactly `rank`."""
    tops = rng.sample(range(width), rank)
    basis = [1 << t | rng.getrandbits(t) for t in tops]
    rows = list(basis)
    while len(rows) < count:
        row = 0
        for b in rng.sample(basis, rng.randint(0, rank)):
            row ^= b
        rows.append(row)
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("seed", range(5))
def test_rank_against_span_oracle(seed):
    rng = random.Random(seed)
    for _ in range(10):
        rows = random_rows(rng, rng.randint(0, 6), rng.randint(1, 8))
        rank = gf2_rank(rows)
        assert 1 << rank == span_size(rows)
    # wide rows, where the planted rank stands in for the span oracle
    for width in (64, 256, 2048):
        for rank in (0, 1, rng.randint(2, 63), 64):
            count = rng.randint(rank, 512)
            assert gf2_rank(planted_rows(rng, rank, count, width)) == rank
    rank = rng.randint(448, 512)
    assert gf2_rank(planted_rows(rng, rank, 512, 2048)) == rank


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
    assert unpack_bits(cyc_mul_f2(mask, mask, m), m) == (a * a).mod2_coords()
    for e in (0, 1, 2, 3, 7, 16):
        assert unpack_bits(cyc_pow_f2(mask, e, m), m) == (a**e).mod2_coords()
    with pytest.raises(ValueError):
        cyc_pow_f2(mask, -1, m)



# ---------------------------------------------------------------------- #
# the parity ring against a bit-list reference, m = 4..2048


def ref_mul_f2(a: int, b: int, m: int) -> int:
    """Oracle: negacyclic convolution on bit lists; mod 2 the sign of the
    wrapped terms vanishes."""
    a_bits = [i for i in range(m) if (a >> i) & 1]
    b_bits = [j for j in range(m) if (b >> j) & 1]
    out = [0] * m
    for i in a_bits:
        for j in b_bits:
            out[(i + j) % m] ^= 1
    return pack_bits(out)


def operands(m: int):
    """Zero, one bit, the top bit m-1, or a dense mask."""
    return st.one_of(
        st.just(0),
        st.integers(0, m - 1).map(lambda i: 1 << i),
        st.just(1 << (m - 1)),
        st.integers(0, (1 << m) - 1),
    )


RING_DEGREES = [1 << k for k in range(2, 12)]


@pytest.mark.parametrize("m", RING_DEGREES)
@settings(derandomize=True, max_examples=12, deadline=None)
@given(data=st.data())
def test_cyc_mul_and_square_f2_against_reference(m, data):
    a, b = data.draw(operands(m)), data.draw(operands(m))
    expected = ref_mul_f2(a, b, m)
    assert cyc_mul_f2(a, b, m) == expected
    assert cyc_mul_f2(b, a, m) == expected
    assert cyc_mul_f2(a, a, m) == ref_mul_f2(a, a, m)


@pytest.mark.parametrize("m", RING_DEGREES)
@settings(derandomize=True, max_examples=8, deadline=None)
@given(data=st.data())
def test_cyc_pow_f2_against_reference(m, data):
    a = data.draw(operands(m))
    e = data.draw(st.integers(0, 4))
    expected = 1
    for _ in range(e):
        expected = ref_mul_f2(a, expected, m)
    assert cyc_pow_f2(a, e, m) == expected


class Fresh(int):
    """An int that is a new object each time, so that `is` tells operands
    apart even where CPython caches small ints."""


@pytest.mark.parametrize("m", [4, 64, 1024])
def test_cyc_pow_f2_squares_up_to_the_top_bit(monkeypatch, m):
    """cyc_pow_f2(a, e) makes bit_length(e) - 1 squarings, products of an
    operand with itself, and popcount(e) - 1 other products for e = 0..70,
    and agrees with repeated products."""
    real_mul = gf2.cyc_mul_f2
    calls = []

    def spy_mul(a, b, m):
        calls.append("square" if a is b else "mul")
        return Fresh(real_mul(a, b, m))

    monkeypatch.setattr(gf2, "cyc_mul_f2", spy_mul)
    rng = random.Random(m)
    for a in (1 ^ (1 << 3) ^ (1 << (m - 1)), rng.getrandbits(m)):
        expected = 1
        for e in range(71):
            calls.clear()
            assert cyc_pow_f2(Fresh(a), e, m) == expected
            assert calls.count("square") == max(e.bit_length() - 1, 0)
            assert calls.count("mul") == max(bin(e).count("1") - 1, 0)
            expected = real_mul(a, expected, m)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@settings(derandomize=True, max_examples=20, deadline=None)
@given(data=st.data())
def test_parity_ring_against_exact_products(n, data):
    lv = Level(n)
    m = lv.degree
    coeffs = st.lists(st.integers(-9, 9), min_size=m, max_size=m).map(tuple)
    a, b = CycInt(lv, data.draw(coeffs)), CycInt(lv, data.draw(coeffs))
    e = data.draw(st.integers(0, 9))
    a_mask, b_mask = pack_bits(a.coeffs), pack_bits(b.coeffs)
    assert cyc_mul_f2(a_mask, b_mask, m) == pack_bits((a * b).coeffs)
    assert cyc_mul_f2(a_mask, a_mask, m) == pack_bits((a * a).coeffs)
    assert cyc_pow_f2(a_mask, e, m) == pack_bits((a**e).coeffs)
