"""The funnel is the norm tower, so the square-zero lemma holds at every n.

N is the relative norm from level n to level n - 1: N(x) = x(alpha) *
x(-alpha), an element of Z[beta] with beta = alpha^2, which
cyclotomic._halve computes.  Each test here checks one step of the proof
in the README section "The square-zero lemma at every level":

- N(d_j) = -d_j one level down;
- N(q(k, j)) = q(k - 1, j) one level down for k >= 1 and (k, j) != (1, 1),
  and N(q(1, 1)) = d_1^(-1) * (1 - s_1), which is 1 mod 2;
- F lies in E at every level, so N sends each coset generator to 1 mod 2;
- mod 2, N(x) is x(alpha)^2 read in beta, the fold of x's parity mask,
  and the fold of a real class is 1 exactly when the verifier's ideal
  test holds for it.
"""

import random

import pytest

from circunits import (
    CycInt,
    Level,
    UnitWord,
    d_index_set,
    e_membership,
    eval_word,
    generator_system,
    q_word,
    seq_d,
    seq_s,
)
from circunits.congruence import _in_square_zero_ideal
from circunits.cyclotomic import _halve
from circunits.gf2 import pack_bits


def norm_down(x):
    """N(x) = x(alpha) * x(-alpha) as an element of Z[beta], one level down."""
    return CycInt(Level(x.level.n - 1), tuple(_halve(x.coeffs)))


@pytest.mark.parametrize("n", range(4, 13))
def test_norm_of_d_j_is_minus_d_j_one_level_down(n):
    # d_j(alpha) * d_j(-alpha) = 1 - (alpha^j + alpha^-j)^2 = -d_j(beta)
    lv, down = Level(n), Level(n - 1)
    indices = [j for j in (1, 3, 5, 7, 9) if j in d_index_set(lv)]
    assert indices[:3] == [1, 3, 5]
    for j in indices:
        assert norm_down(seq_d(lv, j)) == -seq_d(down, j)


def funnel_steps(lv):
    """(k, j) of every funnel word q(k, j) with k >= 1 and (k, j) != (1, 1),
    read off the coset generators q(k, j)^(2^(k-1))."""
    gens = generator_system(lv).sqrt_gens
    return [(g.k, g.j) for g in gens if g.k is not None and (g.k, g.j) != (1, 1)]


def test_funnel_steps_count():
    assert sum(len(funnel_steps(Level(n))) for n in range(5, 11)) == 240


@pytest.mark.parametrize("n", range(5, 11))
def test_norm_of_q_k_j_is_q_k_minus_1_j_one_level_down(n):
    # q(k, j) = d_j^(-1) d_(2^(n-1-k) - j), and one level down the same
    # indices make q(k - 1, j); the two signs of N(d_j) = -d_j cancel
    lv, down = Level(n), Level(n - 1)
    for k, j in funnel_steps(lv):
        lhs = norm_down(eval_word(q_word(lv, k, j)))
        assert lhs == eval_word(q_word(down, k - 1, j)), (k, j)


@pytest.mark.parametrize("n", range(4, 13))
def test_norm_of_q_1_1_is_one_mod_2(n):
    # one level down d_(2^(n-2) - 1) is 1 - s_1, and 1 - s_1 = d_1 mod 2
    lv, down = Level(n), Level(n - 1)
    image = norm_down(eval_word(q_word(lv, 1, 1)))
    one_minus_s_1 = CycInt.one(down) - seq_s(down, 1)
    assert image == seq_d(down, 1).invert_unit() * one_minus_s_1
    assert pack_bits(image.coeffs) == 1


def test_f_lies_in_e_one_level_down():
    # the images of the coset generators at n = 4..12 are 1 mod 2 at n - 1:
    # the head d_1^(2^(n-3)) is F's first generator there, or at n - 1 = 3
    # the one word d_1^2, and the other images are generators of F
    assert e_membership(UnitWord.make(Level(3), 0, {1: 2}))
    for n in range(4, 12):
        for lw in generator_system(Level(n)).f_gens:
            assert e_membership(lw.word), (n, lw.label)


def fold(x, m):
    """x(alpha)^2 mod 2 read in beta, where beta^(m/2) = 1 mod 2: bit i is
    c_i + c_(i + m/2)."""
    half = m // 2
    return (x ^ x >> half) & ((1 << half) - 1)


def random_real_mask(rng, m):
    """A conjugation-symmetric parity mask: bit m/2 clear, bit j = bit m - j."""
    x = rng.getrandbits(1)
    for j in range(1, m // 2):
        if rng.getrandbits(1):
            x |= 1 << j | 1 << (m - j)
    return x


def random_ideal_mask(rng, m):
    """A real parity mask in the ideal (1 + alpha)^(m/2) of Z[alpha]/2: its
    bits are constant on the orbits {+-t, m/2 +- t} of 0 < t <= m/4."""
    x = 0
    for t in range(1, m // 4 + 1):
        if rng.getrandbits(1):
            for i in (t, m - t, m // 2 - t, m // 2 + t):
                x |= 1 << i
    return x


@pytest.mark.parametrize("n", range(4, 11))
def test_fold_is_one_exactly_when_the_ideal_test_holds(n):
    rng = random.Random(n)
    lv = Level(n)
    m = lv.degree
    outcomes = set()
    for i in range(500):
        # every other class is 1 plus an element of the ideal
        x = 1 ^ random_ideal_mask(rng, m) if i % 2 else random_real_mask(rng, m)
        # N of any lift of x reduces to the fold of x
        lift = [(x >> e & 1) + 2 * rng.randint(-3, 3) for e in range(m)]
        assert pack_bits(_halve(lift)) == fold(x, m)
        holds = _in_square_zero_ideal(lv, x ^ 1)
        assert (fold(x, m) == 1) == holds
        outcomes.add(holds)
    assert outcomes == {True, False}
