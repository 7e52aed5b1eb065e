"""Real subring bases, the mod-2 sequence calculus, and the r-block ideal.

The library computes B-classes mod 2 only, from coefficient parities.  The
exact change of basis lives here as the oracle it is compared against:
s-coordinates (RealElem, to_s_basis) and the triangular substitution into
B (to_special_basis), itself checked by a dense Fraction-valued Gaussian
solve against the matrix whose columns are the s-coordinates of the B
elements.
"""

import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

from circunits import (
    CycInt,
    Level,
    NotReal,
    r_table_tokens,
    rtilde_member,
    s_table_tokens,
    seq_d,
    seq_r,
    seq_s,
    special_mod2,
)
from circunits.errors import InternalInconsistency
from circunits.gf2 import cyc_mul_f2, pack_bits
from circunits.real_basis import (
    SpecialCoordsMod2,
    _position_labels,
    _r_mask,
    _times_d,
    _token,
    special_mod2_from_parities,
)


@dataclass(frozen=True, slots=True)
class RealElem:
    """Element of the real subring in s-coordinates.

    s_coords[0] is the coefficient of 1; s_coords[j] the coefficient of s_j
    for 1 <= j < 2^(n-2).
    """

    level: Level
    s_coords: tuple[int, ...]

    def __post_init__(self) -> None:
        expected = 1 << (self.level.n - 2)
        if len(self.s_coords) != expected:
            raise ValueError(
                f"need {expected} s-coordinates at n={self.level.n}, "
                f"got {len(self.s_coords)}"
            )

    def to_cyc(self) -> CycInt:
        c = self.s_coords
        return CycInt.from_terms(
            self.level,
            [(0, c[0])] + [(e, c[j]) for j in range(1, len(c)) for e in (j, -j)],
        )


def to_s_basis(a: CycInt) -> RealElem:
    """Exact s-coordinates of a real element.

    A real element embeds with coeffs[j] at alpha^j and -coeffs[j] at
    alpha^(m-j), so the coordinates can be read off the lower half directly
    once the symmetry is confirmed.
    """
    if not a.is_real():
        raise NotReal("element is not fixed by conjugation")
    return RealElem(a.level, a.coeffs[: a.level.degree // 2])


def to_special_basis(a: RealElem) -> tuple[int, ...]:
    """Rewrite s-coordinates over B via s_{2^(n-2)-t} = r_t - s_t.

    The substitution is triangular, so no matrix inversion is needed.
    """
    quarter = 1 << (a.level.n - 3)
    b = a.s_coords
    out = list(b[: quarter + 1])
    out.extend([0] * (quarter - 1))
    for t in range(1, quarter):
        e = b[2 * quarter - t]
        out[quarter + t] = e
        out[t] -= e
    return tuple(out)


def from_special_basis(level: Level, coords: tuple[int, ...]) -> RealElem:
    """Inverse of to_special_basis."""
    quarter = 1 << (level.n - 3)
    if len(coords) != 2 * quarter:
        raise ValueError(f"need {2 * quarter} B-coordinates, got {len(coords)}")
    out = list(coords[: quarter + 1]) + [0] * (quarter - 1)
    for t in range(1, quarter):
        e = coords[quarter + t]
        out[t] += e
        out[2 * quarter - t] += e
    return RealElem(level, tuple(out))


def special_basis_elements(lv: Level) -> list[CycInt]:
    """The B elements in coordinate order: 1, s_1..s_q, r_1..r_{q-1}."""
    q = 1 << (lv.n - 3)
    elems = [CycInt.one(lv)]
    elems += [seq_s(lv, j) for j in range(1, q + 1)]
    elems += [seq_r(lv, t) for t in range(1, q)]
    return elems


def solve_fraction(matrix, rhs):
    """Plain Gaussian elimination over Fraction; matrix is square, columns
    index the unknowns."""
    size = len(rhs)
    aug = [
        [Fraction(matrix[r][c]) for c in range(size)] + [Fraction(rhs[r])]
        for r in range(size)
    ]
    for col in range(size):
        pivot = next(r for r in range(col, size) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(size):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [aug[r][size] for r in range(size)]


def parities(a: CycInt) -> tuple:
    return a.mod2_coords()


def coords_from_terms(lv: Level, terms) -> SpecialCoordsMod2:
    """Build a mod-2 B-class from tokens like '1', 's_3', 'r_2'."""
    q = 1 << (lv.n - 3)
    mask = 0
    for term in terms:
        if term == "1":
            mask ^= 1
        elif term.startswith("s_"):
            mask ^= 1 << int(term[2:])
        else:
            mask ^= 1 << (q + int(term[2:]))
    return SpecialCoordsMod2(lv, mask)


# ---------------------------------------------------------------------- #
# the sequence elements themselves


@pytest.mark.parametrize("n", [4, 5, 6])
def test_sequence_special_values(n):
    lv = Level(n)
    half = lv.degree
    quarter = half // 2
    assert seq_s(lv, 0) == CycInt.from_int(lv, 2)
    assert seq_s(lv, half) == CycInt.from_int(lv, -2)
    assert seq_s(lv, quarter) == CycInt.from_int(lv, 0)
    # s at the eighth roots squares to 2
    eighth = quarter // 2
    assert seq_s(lv, eighth) ** 2 == CycInt.from_int(lv, 2)
    assert seq_d(lv, 0) == CycInt.from_int(lv, 3)
    assert seq_d(lv, half) == CycInt.from_int(lv, -1)
    assert seq_d(lv, quarter) == CycInt.one(lv)
    assert seq_r(lv, 0) == CycInt.from_int(lv, 2)
    assert seq_r(lv, eighth) == 2 * seq_s(lv, eighth)


@pytest.mark.parametrize("n", [4, 5])
def test_sequence_exact_identities(n):
    lv = Level(n)
    three = CycInt.from_int(lv, 3)
    two = CycInt.from_int(lv, 2)
    for j in range(0, lv.degree + 1):
        assert seq_s(lv, lv.order - j) == seq_s(lv, j)
        assert seq_s(lv, lv.degree - j) == -seq_s(lv, j)
        assert seq_s(lv, j) ** 2 == seq_s(lv, 2 * j) + two
        assert seq_d(lv, j) ** 2 == seq_d(lv, 2 * j) + 2 * seq_d(lv, j)
    for j in range(0, 9):
        for k in range(0, 9):
            assert seq_s(lv, j) * seq_s(lv, k) == seq_s(lv, k + j) + seq_s(lv, k - j)
            assert seq_d(lv, j) * seq_d(lv, k) == (
                -three
                + seq_d(lv, j)
                + seq_d(lv, k)
                + seq_d(lv, k + j)
                + seq_d(lv, k - j)
            )


# ---------------------------------------------------------------------- #
# s-basis


@pytest.mark.parametrize("seed", range(5))
def test_s_basis_round_trip(seed):
    rng = random.Random(seed)
    for n in (4, 5, 6):
        lv = Level(n)
        coords = tuple(rng.randint(-9, 9) for _ in range(1 << (n - 2)))
        elem = RealElem(lv, coords)
        assert to_s_basis(elem.to_cyc()).s_coords == coords


def test_s_basis_rejects_non_real():
    lv = Level(4)
    with pytest.raises(NotReal):
        to_s_basis(CycInt.monomial(lv, 1))
    with pytest.raises(NotReal):
        to_s_basis(CycInt.monomial(lv, lv.degree // 2))
    # 2*alpha is real mod 2, so only the exact check can reject it
    with pytest.raises(NotReal):
        special_mod2(CycInt.monomial(lv, 1, 2))


def test_real_elem_length_checked():
    with pytest.raises(ValueError):
        RealElem(Level(4), (1, 2, 3))


# ---------------------------------------------------------------------- #
# change of basis into B


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("n", [4, 5, 6])
def test_special_basis_against_fraction_solve(n, seed):
    rng = random.Random(1000 * n + seed)
    lv = Level(n)
    size = 1 << (n - 2)
    columns = [to_s_basis(e).s_coords for e in special_basis_elements(lv)]
    matrix = [[columns[c][r] for c in range(size)] for r in range(size)]
    v = tuple(rng.randint(-20, 20) for _ in range(size))
    expected = solve_fraction(matrix, v)
    assert all(x.denominator == 1 for x in expected)
    computed = to_special_basis(RealElem(lv, v))
    assert list(computed) == [int(x) for x in expected]


@pytest.mark.parametrize("seed", range(5))
def test_special_basis_round_trip(seed):
    rng = random.Random(seed)
    for n in (4, 5, 6):
        lv = Level(n)
        size = 1 << (n - 2)
        coords = tuple(rng.randint(-9, 9) for _ in range(size))
        elem = from_special_basis(lv, coords)
        assert to_special_basis(elem) == coords
        s_coords = tuple(rng.randint(-9, 9) for _ in range(size))
        real = RealElem(lv, s_coords)
        assert from_special_basis(lv, to_special_basis(real)) == real


def test_special_basis_reconstructs_element():
    lv = Level(5)
    a = seq_s(lv, 7) + 3 * seq_r(lv, 2) - seq_s(lv, 1)
    coords = to_special_basis(to_s_basis(a))
    elems = special_basis_elements(lv)
    acc = CycInt.from_int(lv, 0)
    for c, e in zip(coords, elems):
        acc = acc + c * e
    assert acc == a


# ---------------------------------------------------------------------- #
# mod-2 classes


def test_special_mod2_rendering():
    lv = Level(5)
    one = special_mod2(CycInt.one(lv))
    assert one.is_one()
    assert one.render() == "1"
    assert special_mod2(CycInt.from_int(lv, 2)).render() == "0"
    cls = special_mod2(CycInt.one(lv) + seq_r(lv, 2) + seq_r(lv, 3))
    assert cls.render() == "1+r_2+r_3"
    assert special_mod2(seq_s(lv, 4)).render() == "s_4"


def test_special_mod2_packing():
    lv = Level(4)
    cls = special_mod2(CycInt.one(lv) + seq_r(lv, 1))
    assert cls.mask == 0b1001
    assert cls.coords_hex() == "9"
    with pytest.raises(ValueError):
        SpecialCoordsMod2(lv, 1 << 4)  # n = 4 has only 4 B-positions


def _terms_by_bits(cls):
    # the per-position loop and position labels that render() replaces
    quarter = 1 << (cls.level.n - 3)

    def label(p):
        if p == 0:
            return "1"
        if p <= quarter:
            return f"s_{p}"
        return f"r_{p - quarter}"

    return tuple(
        label(p) for p in range(cls.mask.bit_length()) if (cls.mask >> p) & 1
    )


@pytest.mark.parametrize("n", range(3, 13))
def test_terms_against_bit_loop(n):
    rng = random.Random(n)
    lv = Level(n)
    width = 1 << (n - 2)
    masks = [0, 1, (1 << width) - 1, 1 << (width - 1), 1 | 1 << (width - 1)]
    masks += [rng.getrandbits(width) for _ in range(20)]
    masks += [rng.getrandbits(width) & rng.getrandbits(width) for _ in range(20)]
    for mask in masks:
        cls = SpecialCoordsMod2(lv, mask)
        assert cls.render() == ("+".join(_terms_by_bits(cls)) or "0")
    everything = SpecialCoordsMod2(lv, (1 << width) - 1)
    assert _position_labels(n) == _terms_by_bits(everything)


@pytest.mark.parametrize("seed", range(5))
def test_special_mod2_from_parities_agrees(seed):
    rng = random.Random(seed)
    for n in (4, 5, 6):
        lv = Level(n)
        size = 1 << (n - 2)
        a = RealElem(lv, tuple(rng.randint(-9, 9) for _ in range(size))).to_cyc()
        exact = pack_bits(to_special_basis(to_s_basis(a)))
        assert special_mod2_from_parities(lv, pack_bits(a.coeffs)).mask == exact
        assert special_mod2(a).mask == exact


def test_special_mod2_from_parities_rejects_non_real():
    lv = Level(4)
    bad = pack_bits(CycInt.monomial(lv, 1).coeffs)
    with pytest.raises(InternalInconsistency):
        special_mod2_from_parities(lv, bad)
    with pytest.raises(ValueError):
        special_mod2_from_parities(lv, 1 << lv.degree)


def _special_mod2_by_bits(level, parities):
    # the per-bit realness test and substitution loop that
    # special_mod2_from_parities replaces; None for a non-real mask
    m = level.degree
    half = m // 2
    if (parities >> half) & 1 or any(
        ((parities >> (m - j)) ^ (parities >> j)) & 1 for j in range(1, half)
    ):
        return None
    quarter = half // 2
    out = parities & ((2 << quarter) - 1)
    for t in range(1, quarter):
        if (parities >> (2 * quarter - t)) & 1:
            out ^= (1 << t) | (1 << (quarter + t))
    return out


def _random_real_parities(rng, level):
    m = level.degree
    mask = rng.getrandbits(1)
    for j in range(1, m // 2):
        if rng.getrandbits(1):
            mask |= (1 << j) | (1 << (m - j))
    return mask


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 9, 10, 11, 12])
def test_special_mod2_from_parities_against_bit_loop(n):
    rng = random.Random(n)
    lv = Level(n)
    m = lv.degree
    samples = [0, 1] + [_random_real_parities(rng, lv) for _ in range(20)]
    for mask in samples:
        expected = _special_mod2_by_bits(lv, mask)
        assert expected is not None
        assert special_mod2_from_parities(lv, mask).mask == expected
    # flipping any bit but the constant one breaks realness
    real = samples[-1]
    for p in range(1, m):
        assert _special_mod2_by_bits(lv, real ^ (1 << p)) is None
        with pytest.raises(InternalInconsistency):
            special_mod2_from_parities(lv, real ^ (1 << p))
    assert special_mod2_from_parities(lv, real ^ 1).mask == _special_mod2_by_bits(
        lv, real ^ 1
    )


# ---------------------------------------------------------------------- #
# general product rules mod 2 (valid for every index pair)


@pytest.mark.parametrize("n", [4, 5])
def test_product_rules_mod2_full_sweep(n):
    lv = Level(n)
    sweep = range(0, lv.degree + 2)
    for j in sweep:
        for k in sweep:
            s_j, s_k = seq_s(lv, j), seq_s(lv, k)
            d_j, d_k = seq_d(lv, j), seq_d(lv, k)
            r_k = seq_r(lv, k)
            assert parities(s_j * s_k) == parities(seq_s(lv, k + j) + seq_s(lv, k - j))
            assert parities(s_j * d_k) == parities(
                s_j + seq_s(lv, k - j) + seq_s(lv, k + j)
            )
            assert parities(s_j * r_k) == parities(seq_r(lv, k - j) + seq_r(lv, k + j))
            assert parities(d_j * d_k) == parities(
                CycInt.one(lv) + d_j + d_k + seq_d(lv, k + j) + seq_d(lv, k - j)
            )
            assert parities(d_j * r_k) == parities(
                r_k + seq_r(lv, k + j) + seq_r(lv, k - j)
            )
            assert all(c == 0 for c in parities(seq_r(lv, j) * r_k))


# ---------------------------------------------------------------------- #
# product rules with canonical B right-hand sides


@pytest.mark.parametrize("n", [4, 5, 6])
def test_b_basis_product_rules(n):
    """Products of B elements land back in canonical B terms.

    Exhausts every admissible index pair: s-indices run to 2^(n-3), the
    r-indices below it, with the boundary index handled by its own rules.
    """
    lv = Level(n)
    q = 1 << (n - 3)
    w = 2 * q

    def cls(elem):
        return special_mod2(elem)

    def expect(*terms):
        kept = [t for t in terms if t != "0"]
        return coords_from_terms(lv, kept)

    def s_tok(i):
        return s_token(lv, i)

    def r_tok(i):
        return r_token(lv, i)

    # s_j * s_k below, at, and across the boundary
    for j in range(1, q):
        for k in range(j, q):
            lhs = cls(seq_s(lv, j) * seq_s(lv, k))
            if k + j <= q:
                assert lhs == expect(s_tok(k - j), s_tok(k + j))
            else:
                assert lhs == expect(s_tok(k - j), r_tok(w - (k + j)), s_tok(w - (k + j)))
    for j in range(1, q):
        assert cls(seq_s(lv, j) * seq_s(lv, q)) == expect(r_tok(q - j))
    assert cls(seq_s(lv, q) ** 2).mask == 0

    # s_j * r_k split by the position of k + j
    for j in range(1, q + 1):
        for k in range(1, q):
            lhs = cls(seq_s(lv, j) * seq_r(lv, k))
            if j == q:
                assert lhs.mask == 0
            elif k + j < q:
                assert lhs == expect(r_tok(k - j), r_tok(k + j))
            elif k + j == q:
                assert lhs == expect(r_tok(k - j))
            else:
                assert lhs == expect(r_tok(k - j), r_tok(w - (k + j)))

    # the r block annihilates itself
    for j in range(1, q):
        for k in range(1, q):
            assert cls(seq_r(lv, j) * seq_r(lv, k)).mask == 0


# ---------------------------------------------------------------------- #
# the ideal R~


@pytest.mark.parametrize("seed", range(5))
def test_rtilde_ideal(seed):
    rng = random.Random(seed)
    for n in (4, 5):
        lv = Level(n)
        size = 1 << (n - 2)
        assert all(rtilde_member(seq_r(lv, j)) for j in range(0, size))
        member = seq_r(lv, 1) + 3 * seq_r(lv, rng.randrange(1, size // 2))
        assert rtilde_member(member)
        doubled = 2 * RealElem(
            lv, tuple(rng.randint(-5, 5) for _ in range(size))
        ).to_cyc()
        assert rtilde_member(doubled)
        # multiplication by any real element stays inside
        other = RealElem(
            lv, tuple(rng.randint(-5, 5) for _ in range(size))
        ).to_cyc()
        assert rtilde_member(member * other)
        assert not rtilde_member(CycInt.one(lv))
        assert not rtilde_member(seq_s(lv, 1))


def test_rtilde_square_zero():
    for n in (4, 5, 6):
        lv = Level(n)
        size = 1 << (n - 3)
        for j in range(1, size):
            for k in range(1, size):
                prod = seq_r(lv, j) * seq_r(lv, k)
                assert all(c % 2 == 0 for c in prod.coeffs)


# ---------------------------------------------------------------------- #
# canonical tokens are faithful


def s_token(lv, j):
    """The table's token of s_j for any j: s_j mod 2 has period 2^(n-1)."""
    return s_table_tokens(lv)[j % (1 << (lv.n - 1))]


def r_token(lv, j):
    """The table's token of r_j for any j: r_j mod 2 has period 2^(n-2)."""
    return r_table_tokens(lv)[j % (1 << (lv.n - 2))]


@pytest.mark.parametrize("n", [4, 5, 6])
def test_s_tokens_match_parities(n):
    lv = Level(n)
    for j in range(0, lv.order + 3):
        token = s_token(lv, j)
        actual = parities(seq_s(lv, j))
        if token == "0":
            assert all(c == 0 for c in actual)
        else:
            assert actual == parities(seq_s(lv, int(token[2:])))


@pytest.mark.parametrize("n", [4, 5, 6])
def test_r_tokens_match_parities(n):
    lv = Level(n)
    period = 1 << (n - 2)
    for j in range(-period, 2 * period + 3):
        token = r_token(lv, j)
        actual = parities(seq_r(lv, j))
        if token == "0":
            assert all(c == 0 for c in actual)
        else:
            k = int(token[2:])
            assert 0 < k < (1 << (n - 3))
            assert actual == parities(seq_r(lv, k))


def _fold_rule(name, period, j):
    # the closed form the tokens were once computed by: k = j mod period,
    # folded by k -> period - k into 0..period/2, where 0 and period/2 are even
    k = j % period
    k = min(k, period - k)
    return "0" if k in (0, period // 2) else f"{name}_{k}"


@pytest.mark.parametrize("n", range(3, 13))
def test_tokens_name_the_lowest_mask_bit_as_the_fold_rule_did(n):
    lv = Level(n)
    m = lv.degree
    s_table, r_table = s_table_tokens(lv), r_table_tokens(lv)
    for j in range(-3 << n, 3 << n):
        s_tok = _fold_rule("s", 1 << (n - 1), j)
        r_tok = _fold_rule("r", 1 << (n - 2), j)
        assert s_table[j % len(s_table)] == _token("s", _times_d(1, j, m) ^ 1) == s_tok
        assert r_table[j % len(r_table)] == _token("r", _r_mask(j, m)) == r_tok


@pytest.mark.parametrize("n", range(3, 13))
def test_times_d_against_the_general_product(n):
    # x * d_j by two rotations and one fold, against the general product by
    # the mask of d_j, _times_d(1, j, m), which test_congruence.py checks
    # against the exact d_j; j runs over -m..2m, so j = 0 and m/2 mod m,
    # where the rotations cancel, come up three times each
    m = 1 << (n - 1)
    rng = random.Random(n)
    masks = [0, 1, (1 << m) - 1] + [rng.getrandbits(m) for _ in range(4)]
    for j in range(-m, 2 * m + 1):
        d_mask = _times_d(1, j, m)
        for x in masks:
            assert _times_d(x, j, m) == cyc_mul_f2(d_mask, x, m), (x, j)
