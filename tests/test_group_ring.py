"""Group-ring units from the trace construction.

Two oracles back this file.  The defining property pins the construction
completely: evaluating the result at the character x -> zeta^k must give
the Galois conjugate sigma_k(beta) for odd k and 1 for even k.  That is
checked numerically at high precision.  The coefficient vector of d_1^4
is additionally recomputed symbolically with sympy.
"""

import random

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Poly, symbols

from circunits import (
    CycInt,
    GroupRingElt,
    InternalInconsistency,
    Level,
    LevelMismatch,
    LevelTooSmall,
    NotAUnit,
    NotIntegral,
    UnitWord,
    d_index_set,
    eval_word,
    generator_system,
    gr_mul,
    seq_d,
    is_admissible,
    u_chi1,
    v1_generators,
    word_mod2,
)
from circunits import circular_units, cyclotomic, group_ring
from test_cyclotomic import KERNEL_KINDS, kernel_counts, kernel_operands, ref_linear
from test_golden_exact import V1_DIGEST_N7, v1_digest

D1_POW4_COEFFS = (19, 16, 10, 4, 0, -4, -10, -16)
D1_POW4_GAMMAS = (10, 8, 5, 2, 0, -2, -5, -8, -9, -8, -5, -2, 0, 2, 5, 8)


def character_oracle(u: GroupRingElt, beta: CycInt) -> None:
    """Check sum gamma_j zeta^{jk} == sigma_k(beta) (k odd) or 1 (k even)."""
    n = u.level.n
    order = u.level.order
    with mpmath.workdps(60):
        zeta = mpmath.e ** (2j * mpmath.pi / order)
        for k in range(order):
            value = mpmath.mpc(0)
            for j, c in enumerate(u.coeffs):
                if c:
                    value += c * zeta ** ((j * k) % order)
            if k % 2:
                conj = beta.galois(k)
                expected = mpmath.mpc(0)
                for j, c in enumerate(conj.coeffs):
                    if c:
                        expected += c * zeta ** (j % order)
            else:
                expected = mpmath.mpc(1)
            assert abs(value - expected) < mpmath.mpf("1e-40"), (n, k)


def admissible_beta(lv: Level, rng: random.Random) -> CycInt:
    exps = {j: 2 * rng.randint(-2, 2) for j in rng.sample(d_index_set(lv), 2)}
    w = UnitWord.make(lv, 0, exps)
    # force membership in E by squaring up to the full power when needed
    if not word_mod2(w).is_one():
        w = w ** (1 << (lv.n - 3))
    return eval_word(w)


# ---------------------------------------------------------------------- #
# the element type


def test_group_ring_elt_basics():
    lv = Level(4)
    one = GroupRingElt.identity(lv)
    x8 = GroupRingElt.x_power(lv, 8)
    assert one.augmentation() == 1
    assert gr_mul(x8, x8) == one
    assert gr_mul(one, x8) == x8
    assert GroupRingElt.x_power(lv, 16) == one
    assert GroupRingElt.x_power(lv, -1) == GroupRingElt.x_power(lv, 15)
    with pytest.raises(ValueError):
        GroupRingElt(lv, (1, 0))
    with pytest.raises(LevelMismatch):
        gr_mul(one, GroupRingElt.identity(Level(5)))


def test_group_ring_json():
    lv = Level(4)
    data = GroupRingElt.x_power(lv, 3).to_json_dict()
    assert data["coeffs"][3] == "1"
    assert all(isinstance(c, str) for c in data["coeffs"])


@pytest.mark.parametrize("seed", range(5))
def test_gr_mul_is_cyclic_convolution(seed):
    rng = random.Random(seed)
    lv = Level(4)
    size = lv.order
    a = GroupRingElt(lv, tuple(rng.randint(-4, 4) for _ in range(size)))
    b = GroupRingElt(lv, tuple(rng.randint(-4, 4) for _ in range(size)))
    expected = [0] * size
    for i in range(size):
        for j in range(size):
            expected[(i + j) % size] += a.coeffs[i] * b.coeffs[j]
    assert gr_mul(a, b) == GroupRingElt(lv, tuple(expected))
    assert gr_mul(a, b) == gr_mul(b, a)
    assert gr_mul(a, b).augmentation() == a.augmentation() * b.augmentation()


def ref_cyclic(a: GroupRingElt, b: GroupRingElt) -> GroupRingElt:
    """Oracle: a double loop with modular indices; x^(2^n) = 1."""
    size = a.level.order
    out = [0] * size
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[(i + j) % size] += x * y
    return GroupRingElt(a.level, tuple(out))


def group_ring_operands(lv: Level):
    """Zero, +-monomials, a 3-term 1 + x^j + x^(-j), or dense signed values
    up to 2^200."""
    size = lv.order

    def terms(pairs):
        coeffs = [0] * size
        for e, c in pairs:
            coeffs[e % size] += c
        return GroupRingElt(lv, tuple(coeffs))

    def dense(seed):
        rng = random.Random(seed)
        bound = 1 << 200
        return GroupRingElt(lv, tuple(rng.randint(-bound, bound) for _ in range(size)))

    return st.one_of(
        st.just(terms([])),
        st.builds(
            lambda e, c: terms([(e, c)]),
            st.integers(0, size - 1),
            st.sampled_from([1, -1]),
        ),
        st.integers(1, size - 1).map(lambda j: terms([(0, 1), (j, 1), (-j, 1)])),
        st.integers(0, 2**32).map(dense),
    )


@pytest.mark.parametrize("n", range(3, 9))
@settings(derandomize=True, max_examples=12, deadline=None)
@given(data=st.data())
def test_gr_mul_against_double_loop(n, data):
    lv = Level(n)
    a, b = data.draw(group_ring_operands(lv)), data.draw(group_ring_operands(lv))
    assert gr_mul(a, b) == ref_cyclic(a, b)
    assert gr_mul(b, a) == ref_cyclic(b, a)


@pytest.mark.parametrize("n", range(3, 12))
def test_gr_mul_split_against_double_loop(n):
    """gr_mul works on a_lo +- a_hi; operands whose sums and differences
    have odd entries, dense, sparse and of mixed sizes, against ref_cyclic."""
    lv = Level(n)
    m = lv.degree
    rng = random.Random(300 + n)
    dense = [rng.randint(-(1 << 90), 1 << 90) for _ in range(lv.order)]
    small = [rng.randint(-3, 3) for _ in range(lv.order)]
    sparse = [0] * lv.order
    for i in rng.sample(range(lv.order), 5):
        sparse[i] = rng.choice((1, -1)) * rng.randint(1, 1 << 40)
    operands = [GroupRingElt(lv, tuple(v)) for v in (dense, small, sparse)]
    for a in operands:  # a_lo - a_hi has the parities of a_lo + a_hi
        assert any((x + y) & 1 for x, y in zip(a.coeffs[:m], a.coeffs[m:]))
    for a, b in zip(operands, operands[1:] + operands[:1]):
        assert gr_mul(a, b) == ref_cyclic(a, b)


@pytest.mark.parametrize("which", [0, 1])
def test_gr_mul_parity_guard(monkeypatch, which):
    """A half-product off by one in one coefficient makes p - q odd there;
    gr_mul must raise rather than floor the halving.  p and q both come
    from group_ring's binding of the wrapped product, so that binding is
    patched and its calls counted."""
    calls = []

    def perturbed(x, y, sign):
        wrapped = real(x, y, sign)
        if len(calls) == which:
            wrapped[3] += 1
        calls.append(sign)
        return wrapped

    real = group_ring._wrapped
    monkeypatch.setattr(group_ring, "_wrapped", perturbed)
    lv = Level(5)
    rng = random.Random(which)
    a, b = (
        GroupRingElt(lv, tuple(rng.randint(-9, 9) for _ in range(lv.order)))
        for _ in range(2)
    )
    with pytest.raises(InternalInconsistency, match="odd"):
        gr_mul(a, b)
    assert calls == [1, -1]


@pytest.mark.parametrize("n", range(3, 12))
def test_gr_mul_dense_path_against_double_loop(n):
    """Both sides of _wrapped's dense rule and exactly at it, group sizes
    8..2048."""
    lv = Level(n)
    size = lv.order
    rng = random.Random(n)
    for nx, ny in kernel_counts(size):
        for kinds in KERNEL_KINDS[:2]:
            x, y = kernel_operands(size, nx, ny, kinds, rng)
            a, b = GroupRingElt(lv, tuple(x)), GroupRingElt(lv, tuple(y))
            for u, v in ((a, b), (b, a)):
                full = ref_linear(u.coeffs, v.coeffs)
                expected = tuple(full[i] + full[i + size] for i in range(size))
                assert gr_mul(u, v).coeffs == expected


# ---------------------------------------------------------------------- #
# the character map


def character_values(lv: Level) -> list[CycInt]:
    """Every alpha^k, k = 0..2^n-1 (so every -alpha^j too) for n <= 5;
    above, 1, -1, alpha, alpha^3 and alpha^(2^n - 1)."""
    if lv.n <= 5:
        return [CycInt.monomial(lv, k) for k in range(lv.order)]
    return [
        CycInt.one(lv),
        CycInt.from_int(lv, -1),
        CycInt.monomial(lv, 1),
        CycInt.monomial(lv, 3),
        CycInt.monomial(lv, lv.order - 1),
    ]


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_apply_character_against_power_sum(n):
    lv = Level(n)
    rng = random.Random(n)
    f_gens = generator_system(lv).f_gens
    # at most 8 generators per level keep n = 8 fast
    elements = [
        u_chi1(eval_word(lw.word))
        for lw in f_gens[:: max(1, len(f_gens) // 8)]
    ]
    small = [0, 0, 0, -3, -1, 1, 2]
    elements += [
        GroupRingElt(lv, tuple(rng.choice(small) for _ in range(lv.order)))
        for _ in range(3)
    ]
    for value in character_values(lv):
        # the old formula sum c_j * value**j, with each power taken once
        powers = [value**j for j in range(lv.order)]
        for u in elements:
            expected = CycInt.from_int(lv, 0)
            for c, power in zip(u.coeffs, powers):
                expected = expected + c * power
            assert u.apply_character(value) == expected


def test_apply_character_rejects_non_roots():
    lv = Level(4)
    alpha = CycInt.monomial(lv, 1)
    u = GroupRingElt.x_power(lv, 3)
    for value in (
        CycInt.from_int(lv, 0),
        CycInt.from_int(lv, 2),
        CycInt.from_int(lv, -2),
        CycInt.monomial(lv, 1, 2),
        CycInt.one(lv) + alpha,
        seq_d(lv, 1),
    ):
        with pytest.raises(ValueError):
            u.apply_character(value)


def test_apply_character_rejects_other_levels():
    """x -> alpha_32 at n = 4 sends x^16 = 1 to alpha_32^16 = -1."""
    u = GroupRingElt.x_power(Level(4), 16)
    assert u == GroupRingElt.identity(Level(4))
    with pytest.raises(LevelMismatch):
        u.apply_character(CycInt.monomial(Level(5), 1))
    with pytest.raises(LevelMismatch):
        GroupRingElt.x_power(Level(5), 3).apply_character(CycInt.monomial(Level(4), 1))


# ---------------------------------------------------------------------- #
# the construction on pinned inputs


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_u_chi1_of_minus_one(n):
    lv = Level(n)
    u = u_chi1(CycInt.from_int(lv, -1))
    assert u == GroupRingElt.x_power(lv, lv.degree)
    # and the same through the word alpha^{2^(n-1)}
    w = UnitWord.make(lv, lv.degree)
    assert u_chi1(eval_word(w)) == u


def test_u_chi1_of_one():
    lv = Level(5)
    assert u_chi1(CycInt.one(lv)) == GroupRingElt.identity(lv)


def test_u_chi1_frozen_d1_pow4():
    lv = Level(4)
    beta = eval_word(UnitWord.make(lv, 0, {1: 4}))
    assert beta.coeffs == D1_POW4_COEFFS

    # independent symbolic route for the same coefficients
    y = symbols("y")
    modulus = Poly(y**8 + 1, y)
    d1 = Poly(1 + y - y**7, y)
    sym = (d1**4).rem(modulus)
    sym_coeffs = tuple(int(sym.coeff_monomial(y**j)) for j in range(8))
    assert sym_coeffs == D1_POW4_COEFFS

    u = u_chi1(beta)
    assert u.coeffs == D1_POW4_GAMMAS
    character_oracle(u, beta)


@pytest.mark.parametrize("n", [4, 5])
def test_u_chi1_character_property(n):
    rng = random.Random(n)
    lv = Level(n)
    for _ in range(3):
        beta = admissible_beta(lv, rng)
        character_oracle(u_chi1(beta), beta)


def test_u_chi1_exact_character_evaluation():
    lv = Level(4)
    beta = eval_word(UnitWord.make(lv, 0, {1: 4}))
    u = u_chi1(beta)
    alpha = CycInt.monomial(lv, 1)
    assert u.apply_character(alpha) == beta
    assert u.apply_character(CycInt.one(lv)) == CycInt.one(lv)
    # other odd characters pick up the Galois conjugate
    assert u.apply_character(alpha**3) == beta.galois(3)


# ---------------------------------------------------------------------- #
# admissibility


def test_u_chi1_rejects_non_units():
    lv = Level(4)
    with pytest.raises(NotAUnit, match=r"^norm is 256, not \+-1$"):
        u_chi1(CycInt.from_int(lv, 2))
    with pytest.raises(NotAUnit, match=r"^norm is 6561, not \+-1$"):
        is_admissible(CycInt.from_int(lv, 3))


def norm_spy(monkeypatch) -> list[CycInt]:
    """Record every CycInt.norm call from here on; the norm still runs."""
    real_norm = CycInt.norm
    calls = []

    def spy(x):
        calls.append(x)
        return real_norm(x)

    monkeypatch.setattr(CycInt, "norm", spy)
    return calls


@pytest.mark.parametrize("n", [4, 7, 9])
def test_norm_is_skipped_exactly_for_word_values(monkeypatch, n):
    lv = Level(n)
    marked = admissible_beta(lv, random.Random(n))
    unmarked = CycInt(lv, marked.coeffs)
    calls = norm_spy(monkeypatch)
    for check in (u_chi1, is_admissible):
        calls.clear()
        first = check(marked)
        assert calls == []
        assert check(unmarked) == first
        assert calls == [unmarked]


def test_v1_generators_compute_no_norm(monkeypatch):
    calls = norm_spy(monkeypatch)
    report = v1_generators(Level(7))
    assert calls == []
    assert v1_digest(report) == V1_DIGEST_N7


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_v1_images_equal_the_eval_word_route(n):
    lv = Level(n)
    report = v1_generators(lv)
    words = [lw.word for lw in generator_system(lv).f_gens]
    assert report.images == tuple(u_chi1(eval_word(w)) for w in words)


def test_v1_generators_descend_no_tower(monkeypatch):
    # from a cold cache, d_1^(-e) for each negative exponent -e of F's
    # generator words is a power of the seed _d_power(7, -1), built once by
    # one inverse chain: no invert_unit, no _divide, and no word through
    # eval_word
    circular_units._d_power.cache_clear()
    circular_units._d_seed.cache_clear()
    real_chain = circular_units._times_d_inverse
    chains = []

    def chain(*args):
        chains.append(args[1:])
        return real_chain(*args)

    def descended(*args):
        raise AssertionError("a tower descent on the V_1 path")

    def refused(w):
        raise AssertionError(f"eval_word({w.render()}) on the V_1 path")

    monkeypatch.setattr(CycInt, "invert_unit", descended)
    monkeypatch.setattr(cyclotomic, "_divide", descended)
    monkeypatch.setattr(circular_units, "eval_word", refused)
    monkeypatch.setattr(circular_units, "_times_d_inverse", chain)
    lv = Level(7)
    report = v1_generators(lv)
    assert chains == [(1, 7)]
    monkeypatch.undo()
    gens = generator_system(lv).f_gens
    negative = dict.fromkeys(-e for lw in gens for _, e in lw.word.d_exps if e < 0)
    assert list(negative) == [16, 8, 4, 2, 1]
    exponents = {e for lw in gens for _, e in lw.word.d_exps}
    assert circular_units._d_power.cache_info().currsize == len(exponents)
    misses = circular_units._d_power.cache_info().misses
    for e in negative:
        assert circular_units._d_power(7, -e) == seq_d(lv, 1) ** -e
    assert circular_units._d_power.cache_info().misses == misses
    assert v1_digest(report) == V1_DIGEST_N7


def test_alpha_is_not_admissible():
    lv = Level(4)
    alpha = CycInt.monomial(lv, 1)
    assert not is_admissible(alpha)
    with pytest.raises(NotIntegral):
        u_chi1(alpha)


def test_bare_d_is_not_admissible():
    lv = Level(5)
    beta = eval_word(UnitWord.make(lv, 0, {1: 1}))
    assert not is_admissible(beta)
    with pytest.raises(NotIntegral):
        u_chi1(beta)


@pytest.mark.parametrize("seed", range(5))
def test_integrality_iff_admissibility(seed):
    rng = random.Random(seed)
    for n in (4, 5):
        lv = Level(n)
        for _ in range(20):
            exps = {
                j: rng.randint(-3, 3) for j in rng.sample(d_index_set(lv), 2)
            }
            alpha_exp = rng.choice([0, 0, rng.randrange(lv.order)])
            beta = eval_word(UnitWord.make(lv, alpha_exp, exps))
            admissible = is_admissible(beta)
            try:
                u = u_chi1(beta)
                succeeded = True
                assert u.augmentation() == 1
            except NotIntegral:
                succeeded = False
            assert succeeded == admissible


# ---------------------------------------------------------------------- #
# multiplicativity and inverses


@pytest.mark.parametrize("seed", range(5))
def test_u_chi1_multiplicative(seed):
    rng = random.Random(100 + seed)
    for n in (4, 5):
        lv = Level(n)
        b1 = admissible_beta(lv, rng)
        b2 = admissible_beta(lv, rng)
        assert u_chi1(b1 * b2) == gr_mul(u_chi1(b1), u_chi1(b2))


@pytest.mark.parametrize("seed", range(5))
def test_u_chi1_inverse(seed):
    rng = random.Random(200 + seed)
    lv = Level(5)
    beta = admissible_beta(lv, rng)
    u = u_chi1(beta)
    v = u_chi1(beta.invert_unit())
    assert gr_mul(u, v) == GroupRingElt.identity(lv)


# ---------------------------------------------------------------------- #
# the generator images


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_v1_generators(n):
    lv = Level(n)
    report = v1_generators(lv)
    assert len(report.images) == (1 << (n - 2)) - 1
    assert report.labels[0] == f"d_1^{1 << (n - 2)}"
    assert report.torsion_generator == GroupRingElt.x_power(lv, lv.degree)
    for image in report.images:
        assert image.augmentation() == 1
    assert gr_mul(report.torsion_generator, report.torsion_generator) == (
        GroupRingElt.identity(lv)
    )


def test_v1_generators_level_gate():
    with pytest.raises(LevelTooSmall):
        v1_generators(Level(3))
    with pytest.raises(LevelTooSmall):
        v1_generators(Level(8))
