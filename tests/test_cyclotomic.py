"""Core ring arithmetic: axioms, Galois action, trace and norm.

The norm is computed by descending through the quadratic subfield tower,
so the flat product over all Galois conjugates serves as the independent
oracle here.
"""

import builtins
import operator
import random
import sys
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circunits import (
    CycInt,
    EvenGaloisIndex,
    GroupRingElt,
    Level,
    LevelMismatch,
    NotAUnit,
    UnitWord,
    beta,
    eval_word,
    gr_mul,
    seq_d,
    seq_s,
)
from circunits import cyclotomic
from circunits.gf2 import pack_bits


def random_elem(level: Level, rng: random.Random, bound: int = 9) -> CycInt:
    return CycInt(
        level,
        tuple(rng.randint(-bound, bound) for _ in range(level.degree)),
    )


def flat_norm(a: CycInt) -> int:
    """Oracle: multiply all Galois conjugates directly, no tower tricks."""
    prod = CycInt.one(a.level)
    for k in range(1, a.level.order, 2):
        prod = prod * a.galois(k)
    assert not any(prod.coeffs[1:])
    return prod.coeffs[0]


def flat_trace(a: CycInt) -> int:
    """Oracle: sum all Galois conjugates directly."""
    total = CycInt.from_int(a.level, 0)
    for k in range(1, a.level.order, 2):
        total = total + a.galois(k)
    assert not any(total.coeffs[1:])
    return total.coeffs[0]


# ---------------------------------------------------------------------- #
# construction and reduction


def test_level_bounds():
    Level(3)
    Level(16)
    with pytest.raises(ValueError):
        Level(2)
    with pytest.raises(ValueError):
        Level(17)
    with pytest.raises(TypeError):
        Level(4.0)


def test_coeff_length_checked():
    with pytest.raises(ValueError):
        CycInt(Level(4), (1, 2, 3))


def test_monomial_reduction():
    lv = Level(4)
    m = lv.degree
    alpha = CycInt.monomial(lv, 1)
    assert alpha**m == CycInt.from_int(lv, -1)
    assert alpha ** (2 * m) == CycInt.one(lv)
    assert CycInt.monomial(lv, m + 2) == CycInt.monomial(lv, 2, -1)
    assert CycInt.monomial(lv, -1) == CycInt.monomial(lv, 2 * m - 1)
    # negative exponents reduce into range before the sign rule applies
    assert CycInt.monomial(lv, -m) == CycInt.from_int(lv, -1)


def test_monomial_reduction_at_max_level():
    lv = Level(12)
    alpha = CycInt.monomial(lv, 1)
    assert alpha ** lv.order == CycInt.one(lv)


@pytest.mark.parametrize("n", range(3, 10))
@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data())
def test_from_terms_against_products(n, data):
    """from_terms against sum c * alpha**(e mod 2^n), the power computed by
    products; a small exponent pool forces repeated exponents."""
    lv = Level(n)
    bound = 3 * lv.order
    pool = data.draw(st.lists(st.integers(-bound, bound), min_size=1, max_size=4))
    exponent = st.one_of(st.sampled_from(pool), st.integers(-bound, bound))
    terms = data.draw(
        st.lists(st.tuples(exponent, st.integers(-5, 5)), max_size=12)
    )
    alpha = CycInt.monomial(lv, 1)
    expected = CycInt.from_int(lv, 0)
    for e, c in terms:
        expected = expected + c * alpha ** (e % lv.order)
    assert CycInt.from_terms(lv, terms) == expected
    assert CycInt.from_terms(lv, iter(terms)) == expected


@pytest.mark.parametrize("seed", range(5))
def test_ring_axioms(seed):
    rng = random.Random(seed)
    for n in (3, 4, 5):
        lv = Level(n)
        for _ in range(8):
            a = random_elem(lv, rng)
            b = random_elem(lv, rng)
            c = random_elem(lv, rng)
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a - a == CycInt.from_int(lv, 0)
            assert a + (-a) == CycInt.from_int(lv, 0)
            assert a * CycInt.one(lv) == a
            assert 3 * a == a + a + a


@pytest.mark.parametrize("seed", range(5))
def test_pow_matches_repeated_multiplication(seed):
    rng = random.Random(seed)
    lv = Level(4)
    a = random_elem(lv, rng, bound=3)
    acc = CycInt.one(lv)
    for e in range(6):
        assert a**e == acc
        acc = acc * a


def ref_negacyclic(a: CycInt, b: CycInt) -> CycInt:
    """Oracle: a double loop with modular indices; alpha^k = -alpha^(k - m)
    for m <= k < 2m."""
    m = a.level.degree
    out = [0] * m
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            k = (i + j) % (2 * m)
            out[k % m] += x * y if k < m else -x * y
    return CycInt(a.level, tuple(out))


def product_operands(lv: Level):
    """Zero, +-monomials, a 3-term d_j, or dense signed values up to 2^200."""
    return st.one_of(
        st.just(CycInt.from_int(lv, 0)),
        st.builds(
            lambda e, c: CycInt.monomial(lv, e, c),
            st.integers(0, lv.order - 1),
            st.sampled_from([1, -1]),
        ),
        st.integers(1, lv.order - 1).map(lambda j: seq_d(lv, j)),
        st.integers(0, 2**32).map(
            lambda seed: random_elem(lv, random.Random(seed), bound=1 << 200)
        ),
    )


def divmod_from_terms(level: Level, terms) -> tuple:
    """Reference exponent reducer: e = q*m + i with 0 <= i < m by divmod,
    and alpha^(q*m) = (-1)^q because alpha^m = -1."""
    m = level.degree
    coeffs = [0] * m
    for e, c in terms:
        q, i = divmod(e, m)
        coeffs[i] += -c if q & 1 else c
    return tuple(coeffs)


@pytest.mark.parametrize("n", range(3, 13))
def test_from_terms_mask_against_divmod(n):
    """The masked reducer against divmod on every exponent in [-6m, 6m]:
    each exponent alone, and all of them at once with seeded 64-bit
    coefficients, plus exponents next to +-2^100 and multiples of m."""
    lv = Level(n)
    m = lv.degree
    rng = random.Random(n)
    exponents = list(range(-6 * m, 6 * m + 1))
    huge = [s * (1 << 100) + d for s in (1, -1) for d in (-m - 1, -m, -1, 0, 1, m)]
    for e in exponents + huge:
        assert CycInt.monomial(lv, e, 7).coeffs == divmod_from_terms(lv, [(e, 7)])
    for pool in (exponents, huge):
        terms = [(e, rng.getrandbits(64) - (1 << 63)) for e in pool]
        assert CycInt.from_terms(lv, terms).coeffs == divmod_from_terms(lv, terms)


@pytest.mark.parametrize("n", range(3, 10))
@settings(derandomize=True, max_examples=12, deadline=None)
@given(data=st.data())
def test_mul_against_double_loop(n, data):
    lv = Level(n)
    a, b = data.draw(product_operands(lv)), data.draw(product_operands(lv))
    assert a * b == ref_negacyclic(a, b)
    assert b * a == ref_negacyclic(b, a)


# ---------------------------------------------------------------------- #
# the wrapped product _wrapped and its dense (Kronecker) path

DENSE_RULE = 8  # _wrapped takes the dense path iff nx * ny >= 8 * m


def ref_linear(x, y) -> list:
    """Oracle: the double loop over the nonzero entries of x and y."""
    full = [0] * (2 * len(x))
    ys = [(j, b) for j, b in enumerate(y) if b]
    for i, a in enumerate(x):
        if a:
            for j, b in ys:
                full[i + j] += a * b
    return full


def ref_wrapped(x, y, sign: int) -> list:
    """Oracle: ref_linear folded by t^m = sign."""
    m = len(x)
    full = ref_linear(x, y)
    return [full[k] + sign * full[k + m] for k in range(m)]


def kernel_counts(m: int) -> list:
    """(nx, ny) nonzero counts on both sides of the dense rule and exactly
    at it, plus zero, single-nonzero and 3-term operands.  Dense pairs with
    min(nx, ny) = 2^L - 1 (15, 63, m - 1) fill a slot to its bound."""
    counts = {(0, m), (1, 1), (1, m), (3, m)}
    if m <= 256:  # the oracle's cost grows as nx * ny
        counts |= {(m, m), (m, m - 1), (m // 2, m // 2)}
    if m >= DENSE_RULE:
        counts |= {(m, DENSE_RULE - 1), (m, DENSE_RULE)}  # below, at
        if m > DENSE_RULE:
            counts |= {(m, DENSE_RULE + 1), (m, 2 * DENSE_RULE - 1)}  # above
        if m > 63:
            counts.add((m, 63))
        s = 1
        while s * s < DENSE_RULE * m:
            s += 1
        counts |= {(s, s), (s - 1, s - 1)}  # at or just above, then below
    return sorted(counts)


def kernel_vector(m: int, count: int, kind: str, bits: int, rng) -> list:
    """count nonzero entries of bit-length bits at seeded positions: "low"
    makes each -(2^(bits-1)), "high" each 2^bits - 1, "neg" each
    -(2^bits - 1), "mixed" draws signed values."""
    v = [0] * m
    for i in rng.sample(range(m), count):
        if kind == "low":
            v[i] = -(1 << (bits - 1))
        elif kind == "high":
            v[i] = (1 << bits) - 1
        elif kind == "neg":
            v[i] = 1 - (1 << bits)
        else:
            v[i] = rng.choice((-1, 1)) * rng.randint(1, (1 << bits) - 1)
    return v


# (kind of x, kind of y, bits of x, residue r): y gets the fewest bits, at
# least those of x, with bits(x) + bits(y) + bitlen(min(nx, ny)) = r mod 8.
# At r = 7 a slot has no spare bit: 2^L - 1 overlapping products of
# all-(2^k - 1) operands come within a few per cent of 2^(8B-1).  At r = 0
# a slot one byte narrower would overflow.
KERNEL_KINDS = [
    ("high", "high", 9, 7),
    ("high", "neg", 30, 0),
    ("mixed", "mixed", 100, 7),
    ("low", "high", 7, 0),
    ("neg", "low", 64, 3),
]


def kernel_kinds(m: int) -> list:
    """Every kind up to m = 256, the first three above (the oracle's cost)."""
    return KERNEL_KINDS if m <= 256 else KERNEL_KINDS[:3]


def kernel_operands(m: int, nx: int, ny: int, kinds: tuple, rng) -> tuple:
    kx, ky, bits, r = kinds
    y_bits = bits + (r - 2 * bits - min(nx, ny).bit_length()) % 8
    return kernel_vector(m, nx, kx, bits, rng), kernel_vector(m, ny, ky, y_bits, rng)


@pytest.mark.parametrize("m", [1 << k for k in range(2, 12)])
def test_convolve_against_double_loop(monkeypatch, m):
    """_wrapped, the convolution wrapped by t^m = +-1, against the double
    loop folded with each sign; the dense path sees overlap min(nx, ny)
    exactly when the pair is dense."""
    calls = []

    def spy(x, y, overlap, sign):
        calls.append(overlap)
        return dense(x, y, overlap, sign)

    dense = cyclotomic._kronecker
    monkeypatch.setattr(cyclotomic, "_kronecker", spy)
    rng = random.Random(m)
    for nx, ny in kernel_counts(m):
        for kinds in kernel_kinds(m):
            x, y = kernel_operands(m, nx, ny, kinds, rng)
            for a, b in ((x, y), (y, x)):
                for sign in (1, -1):
                    calls.clear()
                    expected = ref_wrapped(a, b, sign)
                    assert cyclotomic._wrapped(a, b, sign) == expected
                    assert cyclotomic._wrapped(tuple(a), tuple(b), sign) == expected
                    dense_pair = nx * ny >= DENSE_RULE * m
                    assert calls == [min(nx, ny)] * 2 * dense_pair


def test_kronecker_square_packs_once(monkeypatch):
    """_kronecker(x, x, ...) squares: same result as _kronecker(x, list(x),
    ...), with one call of its packing helper _pack instead of two."""
    packs = []

    def spy(v, width, biases):
        packs.append(v)
        return pack(v, width, biases)

    pack = cyclotomic._pack
    monkeypatch.setattr(cyclotomic, "_pack", spy)
    rng = random.Random(5)
    for m in (4, 64, 512):
        x = kernel_vector(m, m, "mixed", 300, rng)
        for sign in (1, -1):
            for y in (x, list(x)):
                packs.clear()
                got = cyclotomic._kronecker(x, y, m, sign)
                assert got == ref_wrapped(x, x, sign)
                assert [id(v) for v in packs] == ([id(x)] if y is x else [id(x), id(y)])


def per_slot_unpack(parts: list, width: int, biases: int, sign: int) -> list:
    """Reference read-back: _unpack's wrap, then one slice and one
    int.from_bytes per slot."""
    bias = 1 << (8 * width - 1)
    split = biases.bit_length()
    low = (1 << split) - 1
    chunks = []
    for part in parts:
        part += biases
        wrapped = (part & low) + sign * (part >> split)
        chunks.append(wrapped.to_bytes(split // 8, "little"))
    raw = b"".join(chunks)
    values = [
        int.from_bytes(raw[k : k + width], "little") - bias
        for k in range(0, len(raw), width)
    ]
    if len(parts) == 2:
        k = len(values) // 2
        values[0::2], values[1::2] = values[:k], values[k:]
    return values


def in_place_biases(width: int, slots: int) -> int:
    """The bias integer as _slots built it for every product."""
    bias = 1 << (8 * width - 1)
    return int.from_bytes(bias.to_bytes(width, "little") * slots, "little")


def unpack_part(width: int, slots: int, sign: int, rng) -> tuple:
    """A part of 2 * slots coefficients in (-h, h), h = 2^(8 * width - 1),
    whose wraps by s^slots = sign are also in (-h, h), and those wraps.
    Every fourth wrap is h - 1, every fourth -(h - 1)."""
    top = (1 << (8 * width - 1)) - 1
    wraps, lo, hi = [], [], []
    for j in range(slots):
        w = (top, -top, 0, rng.randint(-top, top))[j % 4]
        # s = sign * t for the high coefficient t; lo = w - s stays in range
        s = rng.choice((max(w - top, -top), min(w + top, top), 0))
        wraps.append(w)
        hi.append(sign * s)
        lo.append(w - s)
    part = sum(v << (8 * width * j) for j, v in enumerate(lo + hi))
    return part, wraps


@pytest.mark.parametrize("width", range(1, 41))
def test_one_pass_unpack_against_per_slot_read(width):
    """_unpack reads every slot in one pass: the same values as the
    per-slot read and as the wraps the parts were built from, for one and
    two parts, both wrap signs, and slot values at +-(h - 1)."""
    rng = random.Random(width)
    for slots in (1, 2, 3, 4, 8):
        biases = cyclotomic._biases(width, slots)
        for sign in (1, -1):
            for count in (1, 2):
                parts, wraps = zip(
                    *(unpack_part(width, slots, sign, rng) for _ in range(count))
                )
                expected = [v for column in zip(*wraps) for v in column]
                got = cyclotomic._unpack(list(parts), width, biases, sign)
                assert got == per_slot_unpack(list(parts), width, biases, sign)
                assert got == expected


def test_cached_biases_against_the_in_place_build():
    """_biases(width, slots) against the integer _slots built in place, and
    against h placed in each slot by shifts; _slots hands it on."""
    for width in range(1, 41):
        for slots in (1, 2, 3, 4, 16, 256, 2048):
            in_place = in_place_biases(width, slots)
            assert cyclotomic._biases(width, slots) == in_place
            assert cyclotomic._biases(width, slots) == in_place  # cached
            if slots <= 16:
                h = 1 << (8 * width - 1)
                assert in_place == sum(h << (8 * width * j) for j in range(slots))
    for m in (2, 8, 512):
        x = [(1 << 40) - 1] * m
        width, biases = cyclotomic._slots(x, x, m)
        assert biases == in_place_biases(width, m // 2)


def two_point_vectors(m: int, bits: int) -> dict:
    """Vectors of length m with entries of bits bits: all 2^bits - 1, all
    -(2^bits - 1), alternating signs (either phase), nonzero only at even
    or only at odd positions, and a seeded mixed one."""
    top = (1 << bits) - 1
    rng = random.Random(m * 1000 + bits)
    return {
        "high": [top] * m,
        "neg": [-top] * m,
        "alt": [-top if i & 1 else top for i in range(m)],
        "alt_odd": [top if i & 1 else -top for i in range(m)],
        "even": [0 if i & 1 else top for i in range(m)],
        "odd": [-top if i & 1 else 0 for i in range(m)],
        "mixed": [rng.choice((-1, 1)) * rng.randint(0, top) for _ in range(m)],
    }


# (kind of x, kind of y): pairs where a coefficient sums m products of the
# largest magnitude, (2^bx - 1) * (2^by - 1) (the constant and the
# alternating pairs, for one wrap sign or the other), mixed pairs, and
# pairs of even- or odd-only vectors, whose products are even- or odd-only.
TWO_POINT_PAIRS = [
    ("high", "high"),
    ("high", "neg"),
    ("alt", "alt"),
    ("alt", "alt_odd"),
    ("alt", "high"),
    ("even", "odd"),
    ("even", "even"),
    ("odd", "odd"),
    ("odd", "mixed"),
    ("mixed", "mixed"),
]


def bound_bits(m: int, bits: int) -> int:
    """The least b >= bits with 2b + bitlen(m) = 7 or 6 mod 8 (7 when
    bitlen(m) is odd): the slot _kronecker's width formula gives a square
    of b-bit entries at overlap m is as narrow as that formula allows."""
    while (2 * bits + m.bit_length()) % 8 not in (7, 6):
        bits += 1
    return bits


@pytest.mark.parametrize("m", [1 << k for k in range(3, 12)])
def test_two_point_kernel_at_the_width_bound(m):
    """_kronecker at overlap m against the double loop, for both wrap signs,
    products and squares.  At bits(x) + bits(y) + bitlen(m) = 7 mod 8 the
    width formula leaves no spare byte: m products of (2^bx - 1) *
    (2^by - 1) overflow a slot one byte narrower.  At 0 mod 8 it leaves the
    most.  Beyond m = 256 one width and two pairs run (the oracle's cost
    grows as m^2): one where a coefficient sums m products of the largest
    magnitude, and the even-only times the odd-only."""
    pairs = TWO_POINT_PAIRS if m <= 256 else [("high", "neg"), ("even", "odd")]
    for bits, r in ((9, 7), (30, 0), (64, 7)) if m <= 256 else ((30, 7),):
        y_bits = bits + (r - 2 * bits - m.bit_length()) % 8
        xs, ys = two_point_vectors(m, bits), two_point_vectors(m, y_bits)
        for kx, ky in pairs:
            for x, y in ((xs[kx], ys[ky]), (xs[kx], xs[kx])):
                full = ref_linear(x, y)
                for sign in (1, -1):
                    expected = [full[k] + sign * full[k + m] for k in range(m)]
                    assert cyclotomic._kronecker(x, y, m, sign) == expected


@pytest.mark.parametrize("n", range(3, 13))
def test_mul_dense_path_against_double_loop(n):
    lv = Level(n)
    m = lv.degree
    rng = random.Random(n)
    for nx, ny in kernel_counts(m):
        for kinds in KERNEL_KINDS[:2]:
            x, y = kernel_operands(m, nx, ny, kinds, rng)
            a, b = CycInt(lv, tuple(x)), CycInt(lv, tuple(y))
            for u, v in ((a, b), (b, a)):
                full = ref_linear(u.coeffs, v.coeffs)
                expected = tuple(full[i] - full[i + m] for i in range(m))
                assert (u * v).coeffs == expected


def test_sparse_products_never_take_the_dense_path(monkeypatch):
    def refuse(x, y, overlap, sign):
        raise AssertionError("dense path taken for a sparse operand")

    monkeypatch.setattr(cyclotomic, "_kronecker", refuse)
    for n in range(3, 13):
        lv = Level(n)
        dense = random_elem(lv, random.Random(n), bound=1 << 300)
        for j in (1, 3, lv.degree - 3):
            d = seq_d(lv, j)
            assert d * dense == dense * d
        alpha = CycInt.monomial(lv, 5)
        assert (dense * alpha) * CycInt.monomial(lv, -5) == dense
        coeffs = dense.coeffs + tuple(-c for c in dense.coeffs)
        wide = GroupRingElt(lv, coeffs)
        x3 = GroupRingElt(lv, (1, 1) + (0,) * (lv.order - 3) + (1,))
        assert gr_mul(x3, wide) == gr_mul(wide, x3)
        x = GroupRingElt.x_power(lv, 1)
        assert gr_mul(gr_mul(wide, x), GroupRingElt.x_power(lv, -1)) == wide


def test_level_mismatch_rejected():
    a = CycInt.one(Level(4))
    b = CycInt.one(Level(5))
    with pytest.raises(LevelMismatch):
        a + b
    with pytest.raises(LevelMismatch):
        a * b
    with pytest.raises(LevelMismatch):
        a - b


@pytest.mark.parametrize("other", [2, 1.5, None, UnitWord.identity(Level(4))])
def test_foreign_operands_raise_type_error(other):
    x = CycInt.one(Level(4))
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError, match="unsupported operand"):
            op(x, other)
    assert 2 * x == x + x


@pytest.mark.parametrize("scalar", [0.5, 2.0, Fraction(1, 2), 1j])
def test_non_integer_scalars_never_enter_the_ring(scalar):
    """Nothing here ever rounds: a scalar that is not an int is refused,
    not spread over the coefficients."""
    d = seq_d(Level(4), 1)
    with pytest.raises(TypeError, match="unsupported operand"):
        scalar * d
    assert (-3 * d).coeffs == tuple(-3 * c for c in d.coeffs)


@pytest.mark.parametrize("scalar", [0.5, 2.0, Fraction(1, 2), 1j])
def test_scalar_constructors_take_only_ints(scalar):
    lv = Level(4)
    shown = type(scalar).__name__
    with pytest.raises(TypeError, match=f"scalar must be an int, got {shown}"):
        CycInt.from_int(lv, scalar)
    with pytest.raises(TypeError, match=f"scalar must be an int, got {shown}"):
        CycInt.monomial(lv, 1, scalar)
    assert CycInt.from_int(lv, 2).coeffs == (2,) + (0,) * 7
    assert CycInt.monomial(lv, 9, 3).coeffs == (0, -3) + (0,) * 6


# ---------------------------------------------------------------------- #
# Galois action


@pytest.mark.parametrize("seed", range(5))
def test_galois_is_ring_homomorphism(seed):
    rng = random.Random(seed)
    lv = Level(5)
    for k in (3, 7, 15, 31):
        a = random_elem(lv, rng)
        b = random_elem(lv, rng)
        assert (a + b).galois(k) == a.galois(k) + b.galois(k)
        assert (a * b).galois(k) == a.galois(k) * b.galois(k)


def test_galois_composition_and_identity():
    rng = random.Random(1)
    lv = Level(5)
    a = random_elem(lv, rng)
    assert a.galois(1) == a
    assert a.galois(3).galois(5) == a.galois(15)
    assert a.galois(3).galois(11) == a.galois(33 % lv.order)


@pytest.mark.parametrize("n", range(3, 8))
def test_galois_against_substitution(n):
    """galois(k) against sum c_j (alpha^k)^j, for odd k of either sign."""
    rng = random.Random(n)
    lv = Level(n)
    elems = [random_elem(lv, rng) for _ in range(3)] + [seq_d(lv, 1)]
    for k in (1, 3, lv.order - 1, lv.order + 5, -3, -lv.order - 1):
        root = CycInt.monomial(lv, k)
        powers = [root**j for j in range(lv.degree)]
        for a in elems:
            expected = CycInt.from_int(lv, 0)
            for c, power in zip(a.coeffs, powers):
                expected = expected + c * power
            assert a.galois(k) == expected


def test_galois_even_index_rejected():
    a = CycInt.one(Level(4))
    with pytest.raises(EvenGaloisIndex):
        a.galois(2)
    with pytest.raises(EvenGaloisIndex):
        a.galois(0)


def test_galois_inverse_conjugation():
    lv = Level(4)
    s1 = seq_s(lv, 1)
    assert s1.galois(lv.order - 1) == s1
    alpha = CycInt.monomial(lv, 1)
    assert alpha.galois(lv.order - 1) == CycInt.monomial(lv, -1)


# ---------------------------------------------------------------------- #
# trace and norm


@pytest.mark.parametrize("n", [3, 4, 5])
def test_trace_against_conjugate_sum(n):
    rng = random.Random(n)
    lv = Level(n)
    for _ in range(6):
        a = random_elem(lv, rng)
        assert a.trace() == flat_trace(a)


def test_trace_of_monomials():
    lv = Level(4)
    m = lv.degree
    assert CycInt.one(lv).trace() == m
    for j in range(1, m):
        assert CycInt.monomial(lv, j).trace() == 0
    assert CycInt.monomial(lv, m).trace() == -m


@pytest.mark.parametrize("n", [3, 4, 5])
def test_norm_against_flat_conjugate_product(n):
    rng = random.Random(10 + n)
    lv = Level(n)
    for _ in range(5):
        a = random_elem(lv, rng, bound=3)
        assert a.norm() == flat_norm(a)


@pytest.mark.parametrize("seed", range(5))
def test_norm_multiplicative(seed):
    rng = random.Random(seed)
    for n in (4, 5):
        lv = Level(n)
        a = random_elem(lv, rng, bound=3)
        b = random_elem(lv, rng, bound=3)
        assert (a * b).norm() == a.norm() * b.norm()


def test_norm_of_rationals():
    lv = Level(4)
    assert CycInt.from_int(lv, 2).norm() == 2**lv.degree
    assert CycInt.from_int(lv, -1).norm() == 1
    assert CycInt.from_int(lv, 0).norm() == 0


def test_norm_of_one_minus_alpha():
    # ramified prime: the norm of 1 - alpha is 2 at every level
    for n in (3, 4, 5, 6):
        lv = Level(n)
        a = CycInt.one(lv) - CycInt.monomial(lv, 1)
        assert a.norm() == 2


# ---------------------------------------------------------------------- #
# unit inversion


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_invert_unit_exact(n):
    lv = Level(n)
    one = CycInt.one(lv)
    for j in range(1, lv.degree - 2, 2):
        d = seq_d(lv, j)
        assert d * d.invert_unit() == one
    alpha = CycInt.monomial(lv, 5)
    assert alpha * alpha.invert_unit() == one


def test_invert_unit_negative_norm():
    lv = Level(4)
    u = -seq_d(lv, 1)
    assert u.norm() == 1
    v = CycInt.monomial(lv, 1) * seq_d(lv, 1)
    assert v * v.invert_unit() == CycInt.one(lv)


def test_invert_nonunit_rejected():
    lv = Level(4)
    with pytest.raises(NotAUnit):
        CycInt.from_int(lv, 2).invert_unit()
    with pytest.raises(NotAUnit):
        (CycInt.one(lv) - CycInt.monomial(lv, 1)).invert_unit()


def galois_halving(c: list) -> list:
    """Oracle for one step of the halving: the product with the conjugate
    under alpha -> -alpha, its odd-exponent coefficients checked to be zero
    and the rest compressed one level down.  From length 4 on that is a
    CycInt product with x.galois(len(c) + 1); at length 2, Z[i], it is
    a^2 + b^2."""
    if len(c) == 2:
        a, b = c
        return [a * a + b * b]
    x = CycInt(Level(len(c).bit_length()), tuple(c))
    prod = x * x.galois(len(c) + 1)
    assert not any(prod.coeffs[1::2])
    return list(prod.coeffs[::2])


def halving_against_galois_route(x: CycInt) -> int:
    """Every step of the halving down to one coefficient against the
    Galois route; returns that coefficient."""
    c = list(x.coeffs)
    while len(c) > 1:
        c_next = cyclotomic._halve(c)
        assert c_next == galois_halving(c)
        c = c_next
    return c[0]


def two_squares_halving(c: list) -> list:
    """Reference for one step of the halving: with c = E(beta) + alpha *
    O(beta), the half-length squares E^2 - beta * O^2 by the double loop,
    beta * O^2 moved up one power and its top coefficient wrapped to -1."""
    even, odd = c[0::2], c[1::2]
    e2 = ref_wrapped(even, even, -1)
    o2 = ref_wrapped(odd, odd, -1)
    return [e2[0] + o2[-1]] + [a - b for a, b in zip(e2[1:], o2)]


@pytest.mark.parametrize("m", [1 << k for k in range(1, 12)])
def test_one_product_halving_against_galois_route(monkeypatch, m):
    """_halve against the two half-length squares of the double loop and,
    up to m = 256, against galois_halving, on the two_point_vectors kinds
    at bound_bits widths.  _halve packs every kind at overlap nx, its
    nonzero count: m, the width bound, for every kind but the even- and
    odd-only ones, which have m/2 nonzeros.  Beyond m = 256 one width and
    three kinds run (the oracle's cost)."""
    overlaps = []

    def spy(x, y, overlap):
        overlaps.append(overlap)
        return slots(x, y, overlap)

    slots = cyclotomic._slots
    monkeypatch.setattr(cyclotomic, "_slots", spy)
    small = m <= 256
    for bits in (9, 64) if small else (30,):
        vectors = two_point_vectors(m, bound_bits(m, bits))
        for kind in vectors if small else ("high", "alt", "odd"):
            c = vectors[kind]
            nx = m - c.count(0)
            assert nx == (m // 2 if kind in ("even", "odd") else m)
            expected = two_squares_halving(c)
            overlaps.clear()
            assert cyclotomic._halve(c) == expected
            assert overlaps == [nx]
            if small:
                assert galois_halving(c) == expected


def halving_cases(m: int) -> list:
    """Vectors of length m for one tower step.  Seeded ones whose nonzero
    count nx sits on each side of the dense rule, the largest nx with
    nx^2 < 8m (8m - 1 or just under) and the next (8m or just over; up to
    m = 4 both are m, and sparse), in kernel_vector's high, neg and mixed
    kinds at 1, 2, 64 and 200 bits.  From m = 4 (n = 3) on, also d_j,
    1 - alpha^k and beta(l) as they are and times 2^200 - 1."""
    rng = random.Random(m + 24)
    below = isqrt(DENSE_RULE * m - 1)
    cases = [
        kernel_vector(m, nx, kind, bits, rng)
        for nx in sorted({min(below, m), min(below + 1, m)})
        for bits in (1, 2, 64, 200)
        for kind in ("high", "neg", "mixed")
    ]
    if m >= 4:
        lv = Level(m.bit_length())
        q = m // 2
        elements = [seq_d(lv, j) for j in (1, 3, m - 1)]
        elements += [CycInt.one(lv) - CycInt.monomial(lv, k) for k in (1, q, m - 1)]
        elements += [beta(lv, l) for l in (0, 1, q - 1)]
        for x in elements:
            cases += [list(x.coeffs), list((((1 << 200) - 1) * x).coeffs)]
    return cases


@pytest.mark.parametrize("m", [1 << k for k in range(1, 12)])
def test_one_product_per_tower_step(monkeypatch, m):
    """_halve on halving_cases against the two-squares reference and
    galois_halving.  Every x, on either side of _wrapped's dense rule
    (nx^2 >= 8m), packs once, for its one big-integer product, and calls
    neither _wrapped nor _kronecker."""
    calls = []

    def spy(name, f):
        def wrapper(*args):
            calls.append(name)
            return f(*args)

        return wrapper

    for name in ("_pack", "_wrapped", "_kronecker"):
        monkeypatch.setattr(cyclotomic, name, spy(name, getattr(cyclotomic, name)))
    sides = set()
    for c in halving_cases(m):
        nx = m - c.count(0)
        expected = two_squares_halving(c)
        assert galois_halving(c) == expected
        calls.clear()
        assert cyclotomic._halve(c) == expected
        assert calls == ["_pack"]
        sides.add(nx * nx >= DENSE_RULE * m)
    assert sides == ({False, True} if m >= 8 else {False})


def test_square_scans_its_operand_once(monkeypatch):
    """_slots(x, x, k) equals _slots(x, list(x), k), and a spy on the
    module's max sees one width scan for the square and two for the
    product: on a single nonzero, all entries +-(2^k - 1), mixed signs and
    a 200-bit entry among zeros.  A dense tower step scans once too."""
    scans = []

    def spy(*args):
        scans.append(args)
        return builtins.max(*args)

    monkeypatch.setattr(cyclotomic, "max", spy, raising=False)
    rng = random.Random(33)
    for m in (2, 8, 64, 512):
        single = [0] * m
        single[rng.randrange(m)] = rng.choice((-1, 1)) * rng.randint(1, (1 << 40) - 1)
        wide = [0] * m
        wide[rng.randrange(m)] = -((1 << 200) - 1)
        vectors = [single, wide]
        for k in (1, 17, 64):
            top = (1 << k) - 1
            mixed = [rng.choice((-1, 1)) * rng.randint(0, top) for _ in range(m)]
            vectors += [[top] * m, [-top] * m, mixed]
        for x in vectors:
            for overlap in (1, m):
                scans.clear()
                square = cyclotomic._slots(x, x, overlap)
                assert len(scans) == 1
                assert square == cyclotomic._slots(x, list(x), overlap)
                assert len(scans) == 3
        if m >= 8:
            scans.clear()
            dense = [(1 << 64) - 1] * m
            assert cyclotomic._halve(dense) == two_squares_halving(dense)
            assert len(scans) == 1


def conjugate_route(x: CycInt) -> CycInt:
    """x * sigma_3(x) * sigma_5(x) * sigma_7(x) / x at n = 3: the product of
    the nontrivial conjugates, so that x times it is the norm."""
    assert x.level.n == 3
    return x.galois(3) * x.galois(5) * x.galois(7)


def dense_unit(lv: Level, rng: random.Random, bits: int) -> CycInt:
    """+-alpha^k times d_j powers, until a coefficient has bits bits."""
    u = CycInt.monomial(lv, rng.randrange(lv.order), rng.choice((1, -1)))
    while max(map(abs, u.coeffs)).bit_length() < bits:
        u = u * seq_d(lv, rng.randrange(1, lv.degree, 2)) ** rng.randint(8, 40)
    return u


@pytest.mark.parametrize("n", range(3, 13))
def test_norm_descent_on_dense_elements(n):
    """Dense elements with coefficients up to 400 bits: every step of the
    halving against the Galois route, the norm against the flat product of
    conjugates up to n = 6 (at n = 3, x * sigma_3(x) * sigma_5(x) *
    sigma_7(x))."""
    lv = Level(n)
    rng = random.Random(100 + n)
    for bits in (1, 400):
        x = random_elem(lv, rng, bound=1 << bits)
        assert halving_against_galois_route(x) == x.norm()
        if n <= 6:
            assert x.norm() == flat_norm(x)
        if n == 3:
            assert (x * conjugate_route(x)).coeffs == (x.norm(), 0, 0, 0)


@pytest.mark.parametrize("n", range(3, 13))
def test_invert_unit_on_dense_units(n):
    lv = Level(n)
    rng = random.Random(200 + n)
    one = CycInt.one(lv)
    for bits in (40, 400):
        u = dense_unit(lv, rng, bits)
        assert halving_against_galois_route(u) == u.norm() in (1, -1)
        assert u * u.invert_unit() == one
        if n == 3:
            assert u.invert_unit() == u.norm() * conjugate_route(u)


@pytest.mark.parametrize("n", range(3, 13))
def test_non_units_keep_their_messages(n):
    lv = Level(n)
    two = CycInt.from_int(lv, 2)
    with pytest.raises(NotAUnit, match=rf"^norm is {2**lv.degree}, not \+-1$"):
        two.invert_unit()
    with pytest.raises(NotAUnit, match=r"^norm is 2, not \+-1$"):
        (CycInt.one(lv) - CycInt.monomial(lv, 1)).invert_unit()


@pytest.mark.parametrize("n", range(3, 11))
def test_divide_against_the_product_with_the_inverse(n):
    """1/x through the descent for dense units x and -x: the inverse that
    invert_unit returns, and x times it is 1.  A nonzero element of Z[alpha]
    has a positive norm (it is a product of |sigma(x)|^2 over pairs of
    complex conjugate embeddings), so the sign -1 can only reach the
    length-1 step directly, which is checked on its own.  A non-unit keeps
    the messages of invert_unit."""
    lv = Level(n)
    rng = random.Random(500 + n)
    for bits in (40, 400):
        u = dense_unit(lv, rng, bits)
        for x in (u, -u):
            inverse = cyclotomic._divide(x.coeffs)
            assert inverse == list(x.invert_unit().coeffs)
            assert CycInt(lv, tuple(inverse)) * x == CycInt.one(lv)
    for sign in (1, -1):
        assert cyclotomic._divide([sign]) == [sign]
    with pytest.raises(NotAUnit, match=rf"^norm is {2**lv.degree}, not \+-1$"):
        cyclotomic._divide(CycInt.from_int(lv, 2).coeffs)
    with pytest.raises(NotAUnit, match=r"^norm is 2, not \+-1$"):
        cyclotomic._divide((CycInt.one(lv) - CycInt.monomial(lv, 1)).coeffs)


@pytest.mark.parametrize("n", [11, 12])
def test_non_unit_with_a_long_norm_names_its_bit_length(n):
    # the norm of 2^10 is 2^(10m), over 8192 bits at m = 1024 and 2048; at
    # m = 2048 it also has more than the 4300 decimal digits that Python
    # prints, where the message used to raise ValueError
    lv = Level(n)
    bits = 10 * lv.degree + 1
    with pytest.raises(NotAUnit, match=rf"^norm is a {bits}-bit integer, not \+-1$"):
        CycInt.from_int(lv, 2**10).invert_unit()


def test_negative_pow_through_inversion():
    lv = Level(5)
    d = seq_d(lv, 3)
    assert d**-2 * d**2 == CycInt.one(lv)
    assert d**-1 == d.invert_unit()


def sample_units(lv: Level) -> tuple[list[CycInt], list[CycInt]]:
    """Sparse units d_j and beta_l, and two dense units: a word in two d's
    and the same word times alpha^3, which is not real."""
    word = UnitWord.make(lv, 0, {1: 3, 3: -2} if lv.n > 3 else {1: 5})
    dense = eval_word(word)
    sparse = [seq_d(lv, 1), seq_d(lv, max(1, lv.degree - 3)), beta(lv, 1)]
    return sparse, [dense, CycInt.monomial(lv, 3) * dense]


@pytest.mark.parametrize("n", range(3, 10))
def test_negative_pow_inverts_once(n):
    """x ** -e, which inverts x ** e, against x.invert_unit() ** e for
    e = 1..40; from n = 8 the dense units stop at e = 8, since each of
    their powers there costs 0.05 to 0.2 s."""
    lv = Level(n)
    sparse, dense = sample_units(lv)
    for x in sparse + dense:
        inverse = x.invert_unit()
        expected = CycInt.one(lv)
        for e in range(1, 9 if n >= 8 and x in dense else 41):
            expected = expected * inverse
            assert x**-e == expected


@pytest.mark.parametrize("n", [3, 5, 8])
def test_pow_squares_up_to_the_top_bit(monkeypatch, n):
    """x ** e makes bit_length(e) - 1 squarings and popcount(e) - 1 other
    products for e = 1..70, none for e = 0, the same plus one inversion
    for -e, and agrees with repeated multiplication."""
    lv = Level(n)
    real_mul, real_invert = CycInt.__mul__, CycInt.invert_unit
    products, inversions = [], []

    def spy_mul(a, b):
        products.append(a is b)
        return real_mul(a, b)

    def spy_invert(a):
        inversions.append(a)
        return real_invert(a)

    monkeypatch.setattr(CycInt, "__mul__", spy_mul)
    monkeypatch.setattr(CycInt, "invert_unit", spy_invert)
    for x in (seq_d(lv, 1), real_mul(seq_d(lv, 3), seq_d(lv, lv.degree - 3))):
        inverse = real_invert(x)
        expected, expected_inv = CycInt.one(lv), CycInt.one(lv)
        for e in range(71):
            for sign, want in ((1, expected), (-1, expected_inv)):
                products.clear()
                inversions.clear()
                assert x ** (sign * e) == want
                assert products.count(True) == max(e.bit_length() - 1, 0)
                assert products.count(False) == max(bin(e).count("1") - 1, 0)
                assert len(inversions) == (sign * e < 0)
            expected = real_mul(expected, x)
            expected_inv = real_mul(expected_inv, inverse)


# ---------------------------------------------------------------------- #
# predicates


def test_mod2_and_congruence():
    lv = Level(4)
    a = CycInt(lv, (3, 2, -4, 0, 0, 8, 2, 1))
    assert a.mod2_coords() == (1, 0, 0, 0, 0, 0, 0, 1)
    # 1 mod 2 is the parity mask 1, the test is_admissible and u_chi1 make
    assert pack_bits(a.coeffs) != 1
    assert pack_bits(CycInt.from_int(lv, 3).coeffs) == 1
    assert CycInt.one(lv) != CycInt.from_int(lv, 0)
    assert CycInt.one(lv) - CycInt.one(lv) == CycInt.from_int(lv, 0)


def test_is_real():
    lv = Level(4)
    assert seq_s(lv, 1).is_real()
    assert seq_s(lv, 3).is_real()
    assert CycInt.from_int(lv, 7).is_real()
    assert not CycInt.monomial(lv, 1).is_real()
    assert not (seq_s(lv, 1) + CycInt.monomial(lv, 4)).is_real()
