"""Unit words, the beta units, p-word conversion, and the log-rank check.

The p-word layer (products of the 1 - alpha^{3^l}) lives here as a test
oracle: its conversion to d-words and its exact evaluation must agree with
the library's words and beta units.
"""

import random
from dataclasses import dataclass
from operator import add, neg, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import cos, fabs, log, matrix, mp, pi, svd_r, workprec

from circunits import (
    CycInt,
    IndexOutOfRange,
    InternalInconsistency,
    Level,
    LevelMismatch,
    NotAUnit,
    NotIntegral,
    UnitWord,
    beta,
    d_index_set,
    eval_word,
    parse_word,
    seq_d,
)
from circunits import circular_units, cyclotomic
from circunits.cli import main


def fold_d_index(level: Level, j: int) -> int:
    """Reduce any odd j into 1..2^(n-1)-1 using d_{2^n - j} = d_j exactly."""
    t = j % level.order
    if t % 2 == 0:
        raise IndexOutOfRange(f"d-index must be odd, got {j}")
    return t if t < level.degree else level.order - t


@dataclass(frozen=True, slots=True)
class PWord:
    """Formal product alpha^a * prod (1 - alpha^{3^l})^{k_l}."""

    level: Level
    alpha_exp: int
    cyc_exps: tuple[int, ...]

    def __post_init__(self) -> None:
        expected = 1 << (self.level.n - 2)
        if len(self.cyc_exps) != expected:
            raise ValueError(
                f"need {expected} exponents at n={self.level.n}, "
                f"got {len(self.cyc_exps)}"
            )


def p_word_is_unit(p: PWord) -> bool:
    """A p-word is a unit exactly when its exponents sum to zero."""
    return sum(p.cyc_exps) == 0


def _suffix_sums(exps: tuple[int, ...]) -> list[int]:
    out = [0] * len(exps)
    running = 0
    for i in range(len(exps) - 1, -1, -1):
        out[i] = running
        running += exps[i]
    return out


def eval_p_word(p: PWord) -> CycInt:
    """Exact value of a p-word with nonnegative total (1-alpha) valuation.

    Every 1 - alpha^{3^l} factors as (1 - alpha) times a unit, so the word
    is integral iff the exponent sum s is >= 0; then it equals
    alpha^a (1-alpha)^s prod_i beta_i^{g_i} with g_i the suffix sums.
    """
    s = sum(p.cyc_exps)
    if s < 0:
        raise NotIntegral(
            f"exponent sum {s} < 0: the value is not an algebraic integer"
        )
    acc = CycInt.monomial(p.level, p.alpha_exp)
    if s:
        one_minus_alpha = CycInt.one(p.level) - CycInt.monomial(p.level, 1)
        acc = acc * one_minus_alpha**s
    for i, g in enumerate(_suffix_sums(p.cyc_exps)):
        if g:
            acc = acc * beta(p.level, i) ** g
    return acc


def p_word_to_unit_word(p: PWord) -> UnitWord:
    """Rewrite a unit p-word over alpha and the d-generators.

    Uses beta_l = alpha^{3^l} d_{3^l} and eliminates the out-of-set index
    2^(n-1)-1 through the relation prod_l beta_l = 1.
    """
    if not p_word_is_unit(p):
        raise NotAUnit("p-word with nonzero exponent sum is not a unit")
    level = p.level
    order = level.order
    count = 1 << (level.n - 2)
    suffix = _suffix_sums(p.cyc_exps)
    alpha_total = p.alpha_exp
    exps: dict[int, int] = {}
    folded = []
    for i in range(count):
        t = pow(3, i, order)
        j = fold_d_index(level, t)
        folded.append(j)
        g = suffix[i]
        alpha_total += g * t
        if g:
            exps[j] = exps.get(j, 0) + g
    if len(set(folded)) != count:
        raise InternalInconsistency("folded 3-power indices are not distinct")
    outsider = level.degree - 1
    e_out = exps.pop(outsider, 0)
    if e_out:
        total_three = sum(pow(3, i, order) for i in range(count))
        alpha_total -= total_three * e_out
        for j in folded:
            if j != outsider:
                exps[j] = exps.get(j, 0) - e_out
    return UnitWord.make(level, alpha_total, exps)


def random_word(lv: Level, rng: random.Random, real: bool = True) -> UnitWord:
    indices = d_index_set(lv)
    exps = {
        j: rng.randint(-4, 4)
        for j in rng.sample(indices, k=min(3, len(indices)))
    }
    alpha_exp = 0 if real else rng.randrange(lv.order)
    return UnitWord.make(lv, alpha_exp, exps)


def random_unit_p_word(lv: Level, rng: random.Random) -> PWord:
    count = 1 << (lv.n - 2)
    exps = [rng.randint(-3, 3) for _ in range(count - 1)]
    exps.append(-sum(exps))
    return PWord(lv, rng.randrange(lv.order), tuple(exps))


# ---------------------------------------------------------------------- #
# generator indexing


def test_d_index_set():
    assert d_index_set(Level(4)) == (1, 3, 5)
    assert d_index_set(Level(5)) == (1, 3, 5, 7, 9, 11, 13)
    assert len(d_index_set(Level(7))) == 31


def test_fold_d_index():
    lv = Level(5)
    assert fold_d_index(lv, 3) == 3
    assert fold_d_index(lv, 17) == 15  # 32 - 17
    assert fold_d_index(lv, 35) == 3
    assert fold_d_index(lv, -1) == 1
    with pytest.raises(IndexOutOfRange):
        fold_d_index(lv, 4)


def test_fold_is_exact_identity():
    # d_{2^n - j} equals d_j on the nose, not just mod 2
    for n in (4, 5):
        lv = Level(n)
        for j in range(1, lv.degree, 2):
            assert seq_d(lv, lv.order - j) == seq_d(lv, j)
            assert seq_d(lv, -j) == seq_d(lv, j)


# ---------------------------------------------------------------------- #
# word algebra


def test_word_validation():
    lv = Level(4)
    with pytest.raises(IndexOutOfRange):
        UnitWord.make(lv, 0, {2: 1})
    with pytest.raises(IndexOutOfRange):
        UnitWord.make(lv, 0, {7: 1})  # 7 = 2^(n-1) - 1 is outside the set
    with pytest.raises(ValueError):
        UnitWord(lv, -1, ())
    with pytest.raises(ValueError):
        UnitWord(lv, 0, ((3, 1), (1, 1)))
    with pytest.raises(ValueError):
        UnitWord(lv, 0, ((1, 0),))
    assert UnitWord.make(lv, 0, {1: 0}) == UnitWord.identity(lv)
    assert UnitWord.make(lv, -3).alpha_exp == lv.order - 3


@pytest.mark.parametrize("seed", range(5))
def test_word_evaluation_homomorphism(seed):
    rng = random.Random(seed)
    for n in (4, 5):
        lv = Level(n)
        w1 = random_word(lv, rng, real=False)
        w2 = random_word(lv, rng, real=False)
        assert eval_word(w1 * w2) == eval_word(w1) * eval_word(w2)
        assert eval_word(w1**-1) == eval_word(w1).invert_unit()
        assert eval_word(w1**3) == eval_word(w1) ** 3
        assert eval_word(w1 * w1**-1) == CycInt.one(lv)


def eval_word_per_factor(w: UnitWord) -> CycInt:
    """Oracle: alpha^a times each d_j^e from left to right, every negative
    power inverted on its own."""
    acc = CycInt.monomial(w.level, w.alpha_exp)
    for j, e in w.d_exps:
        acc = acc * seq_d(w.level, j) ** e
    return acc


def random_d_words(lv: Level, rng: random.Random, top: int) -> list[UnitWord]:
    """The identity word, a bare alpha power, and three-factor words with
    all-positive, all-negative and mixed exponents up to +-top, each with
    and without an alpha power."""
    indices = d_index_set(lv)
    words = [UnitWord.identity(lv), UnitWord.make(lv, 5)]
    for signs in ((1, 1, 1), (-1, -1, -1), (1, -1, -1), (-1, 1, -1)):
        js = rng.sample(indices, min(len(signs), len(indices)))
        exps = {j: s * rng.randint(1, top) for j, s in zip(js, signs)}
        for alpha_exp in (0, rng.randrange(1, lv.order)):
            words.append(UnitWord.make(lv, alpha_exp, exps))
    return words


@pytest.mark.parametrize("n", range(3, 11))
def test_eval_word_against_per_factor_route(monkeypatch, n):
    """Words with exponents up to +-128: eval_word agrees with the
    per-factor route, marks its value, and neither divides nor reads a
    cached d_1 power.  Both spies are live: the routes that keep the
    division and the cache, invert_unit and _galois_product, call them."""
    lv = Level(n)
    words = random_d_words(lv, random.Random(300 + n), 128)
    expected = [eval_word_per_factor(w) for w in words]
    calls = []
    real_divide, real_d_power = cyclotomic._divide, circular_units._d_power

    def divide(c):
        calls.append("_divide")
        return real_divide(c)

    def d_power(n, e):
        calls.append("_d_power")
        return real_d_power(n, e)

    monkeypatch.setattr(cyclotomic, "_divide", divide)
    monkeypatch.setattr(circular_units, "_d_power", d_power)
    for w, want in zip(words, expected):
        value = eval_word(w)
        assert value == want, w.render()
        assert value.known_unit, w.render()
    assert calls == []
    seq_d(lv, 1).invert_unit()
    assert set(calls) == {"_divide"}
    circular_units._galois_product(UnitWord.make(lv, 0, {1: -2}))
    assert calls[-1] == "_d_power"


def sparse(pairs, m: int) -> dict[int, int]:
    """Oracle: the sum of c * alpha^e over (e, c) pairs as {exponent:
    coefficient}, exponents reduced into 0..m-1 by alpha^m = -1, zeros
    dropped."""
    out: dict[int, int] = {}
    for e, c in pairs:
        k = e % (2 * m)
        out[k % m] = out.get(k % m, 0) + (-c if k >= m else c)
    return {k: c for k, c in out.items() if c}


@pytest.mark.parametrize("n", range(3, 13))
def test_d_inverse_is_n_minus_2_three_term_factors(n):
    """d_i (1 - s_i) = 1 - s_i^2 = -d_(2i), so the chain d_j (1 - s_j)
    (1 - s_(2j)) ... stays one signed d: after t factors it is
    (-1)^t d_(2^t j), and after n - 2 it is (-1)^n, as d_(2^(n-2) j) = 1 for
    odd j.  Every j of the generator set, j >= m and negative j, in exact
    sparse arithmetic of Z[alpha]."""
    m = Level(n).degree
    for j in [*d_index_set(Level(n)), m + 1, 2 * m - 1, 3 * m + 5, -1, -3, -m - 5]:
        chain = sparse([(0, 1), (j, 1), (-j, 1)], m)
        for t in range(n - 2):
            i, sign = j << t, (-1) ** (t + 1)
            factor = sparse([(0, 1), (i, -1), (-i, -1)], m)
            chain = sparse(
                [(e + f, c * d) for e, c in chain.items() for f, d in factor.items()], m
            )
            want = sparse([(0, sign), (2 * i, sign), (-2 * i, sign)], m)
            assert chain == want, (j, t)
        assert chain == {0: (-1) ** n}, j


@pytest.mark.parametrize("n", range(3, 11))
def test_three_term_kernel_against_the_dense_product(n):
    """_times_1_plus_s(x, i, sign) is x * (1 + sign * s_i) by _wrapped on
    the explicit three-term vector, for both signs and every shift class
    of i: 0 mod m, m/2, below m/2, above m/2, from m to 2m, and negative."""
    lv = Level(n)
    m = lv.degree
    rng = random.Random(900 + n)
    x = [rng.randrange(-(1 << 200), 1 << 200) for _ in range(m)]
    shifts = [0, m, 2 * m, -m, m // 2, 3 * m // 2, 1, m // 2 - 1, m // 2 + 1]
    shifts += [m - 1, m + 1, 2 * m - 1, -1, -(m // 2) - 1, -3 * m - 1]
    shifts += [rng.randrange(-4 * m, 4 * m) for _ in range(4)]
    for i in shifts:
        for sign in (1, -1):
            factor = CycInt.from_terms(lv, [(0, 1), (i, sign), (-i, sign)])
            want = cyclotomic._wrapped(x, list(factor.coeffs), -1)
            assert cyclotomic._times_1_plus_s(x, i, sign) == want, (i, sign)


def _unsigned_inverse(x, j, n):
    """_times_d_inverse with its (-1)^n dropped."""
    for t in range(n - 2):
        x = cyclotomic._times_1_plus_s(x, j << t, -1)
    return x


def _short_inverse(x, j, n):
    """_times_d_inverse with its chain cut to n - 3 factors."""
    for t in range(n - 3):
        x = cyclotomic._times_1_plus_s(x, j << t, -1)
    return list(map(neg, x)) if n % 2 else x


def _unwrapped_kernel(x, i, sign):
    """_times_1_plus_s with its wrapped terms added, not subtracted: the
    rotations by +-k taken as if alpha^m were 1."""
    m = len(x)
    k = min(i % (2 * m), -i % (2 * m))
    if 2 * k > m:
        k, sign = m - k, -sign
    op = add if sign > 0 else sub
    q = m - k
    return [
        *map(op, map(op, x[:k], x[k : 2 * k]), x[q:]),
        *map(op, map(op, x[k:q], x[: q - k]), x[2 * k :]),
        *map(op, map(op, x[q:], x[q - k : q]), x[:k]),
    ]


@pytest.mark.parametrize(
    "name, fault",
    [
        ("_times_d_inverse", _unsigned_inverse),
        ("_times_d_inverse", _short_inverse),
        ("_times_1_plus_s", _unwrapped_kernel),
    ],
    ids=["sign-dropped", "chain-cut", "wrap-unsigned"],
)
@pytest.mark.parametrize("n", [5, 7, 9])
def test_eval_word_faults_are_caught(monkeypatch, name, fault, n):
    """Each fault, patched into eval_word's path, is called, and the
    per-factor comparison above catches it.  The sign fault shows only at
    odd n, where (-1)^n = -1."""
    lv = Level(n)
    words = random_d_words(lv, random.Random(300 + n), 128)
    expected = [eval_word_per_factor(w) for w in words]
    calls = []

    def spy(*args):
        calls.append(args[1:])
        return fault(*args)

    monkeypatch.setattr(circular_units, name, spy)
    wrong = [w.render() for w, want in zip(words, expected) if eval_word(w) != want]
    assert calls
    assert wrong


@pytest.mark.parametrize("n", range(3, 11))
def test_d_power_galois_images_are_the_d_j_powers(n):
    """sigma_j(d_1^e) = d_j^e for odd j, inside the generator set and
    outside it (d_(2^n - j) = d_j, and j past 2^(n-1)), for e = 1..40 and
    for the cached inverses, e = -40..-1."""
    lv = Level(n)
    rng = random.Random(700 + n)
    indices = d_index_set(lv)
    js = {1, indices[-1], rng.choice(indices), lv.degree + 1, lv.order - 3}
    for e in [*range(-40, 0), *range(1, 41)]:
        for j in sorted(js):
            assert circular_units._d_power(n, e).galois(j) == seq_d(lv, j) ** e, (j, e)


@pytest.mark.parametrize("n", range(3, 13))
def test_d_inverse_closed_form_is_the_tower_inverse(n):
    """The cached seed d_1^(-1), the chain of _times_d_inverse, is the
    inverse the tower descent finds and the oracle d_1^(-1) = alpha *
    sum_(i<t) alpha^(3i), 3t = 1 mod 2^n, from d_1 = alpha^(-1) (1 - alpha^3)
    / (1 - alpha), whose coefficients lie in {-1, 0, 1}."""
    lv = Level(n)
    t = pow(3, -1, lv.order)
    oracle = CycInt.from_terms(lv, ((3 * i + 1, 1) for i in range(t)))
    assert set(oracle.coeffs) <= {-1, 0, 1}
    seed = circular_units._d_power(n, -1)
    assert seed == oracle
    assert seed == seq_d(lv, 1).invert_unit()


@pytest.mark.parametrize("n", range(4, 9))
def test_d_inverse_powers_from_the_seed(n):
    """Every d_1^(-e) is d_1^e's inverse and the seed's power."""
    lv = Level(n)
    seed = circular_units._d_power(n, -1)
    for e in [*range(1, 10), 16, 32]:
        inverse = circular_units._d_power(n, -e)
        assert inverse == seq_d(lv, 1) ** -e, e
        assert inverse == seed**e, e


def _flipped_inverse(x, j, n):
    """_times_d_inverse with the sign (-1)^(n+1) in place of (-1)^n, so
    that the fault shows at even n as well."""
    for t in range(n - 2):
        x = cyclotomic._times_1_plus_s(x, j << t, -1)
    return x if n % 2 else list(map(neg, x))


@pytest.mark.parametrize(
    "fault", [_flipped_inverse, _short_inverse], ids=["sign-flipped", "chain-cut"]
)
def test_cli_exits_3_when_the_seed_chain_is_wrong(monkeypatch, capsys, fault):
    """A wrong chain for d_1^(-1) fails the seed's self-check: the verifier
    stops with exit 3 before the cache serves the seed or any power of it."""
    circular_units._d_power.cache_clear()
    circular_units._d_seed.cache_clear()
    calls = []

    def spy(*args):
        calls.append(args[1:])
        return fault(*args)

    monkeypatch.setattr(circular_units, "_times_d_inverse", spy)
    assert main(["verify", "--n", "6"]) == 3
    captured = capsys.readouterr()
    assert calls
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "internal disagreement: the closed form of d_1^(-1) is not its inverse"
    ]
    assert circular_units._d_seed.cache_info().currsize == 0


def marked_words(lv: Level, rng: random.Random) -> list[UnitWord]:
    """The identity word, a bare alpha power, and words of one to three
    d-factors with exponents of both signs, with and without an alpha power."""
    indices = d_index_set(lv)
    words = [UnitWord.identity(lv), UnitWord.make(lv, rng.randrange(1, lv.order))]
    for size in (1, 2, 3):
        js = rng.sample(indices, min(size, len(indices)))
        exps = {j: rng.choice((-1, 1)) * rng.randint(1, 3) for j in js}
        for alpha_exp in (0, rng.randrange(1, lv.order)):
            words.append(UnitWord.make(lv, alpha_exp, exps))
    return words


@pytest.mark.parametrize("n", range(3, 11))
def test_word_value_has_norm_one_and_is_marked(n):
    """N(alpha) = 1 and d_j = alpha^(-j) (1 - alpha^(3j)) / (1 - alpha^j),
    a quotient of two elements of norm Phi_(2^n)(1) = 2, so every word value
    has norm exactly 1, not -1; eval_word marks each one."""
    lv = Level(n)
    for w in marked_words(lv, random.Random(700 + n)):
        value = eval_word(w)
        assert value.known_unit, w.render()
        assert value.norm() == 1, w.render()


def test_hand_built_copy_is_unmarked_and_indistinguishable():
    lv = Level(6)
    for w in marked_words(lv, random.Random(71)):
        marked = eval_word(w)
        copy = CycInt(lv, marked.coeffs)
        assert not copy.known_unit
        assert copy == marked and hash(copy) == hash(marked)
        assert repr(copy) == repr(marked)


def test_no_operation_passes_the_mark_on():
    lv = Level(5)
    rng = random.Random(72)
    a, b = (eval_word(w) for w in marked_words(lv, rng)[3:5])
    assert a.known_unit and b.known_unit
    results = [
        a + b,
        a - b,
        -a,
        3 * a,
        a * b,
        a**2,
        a**-1,
        a.invert_unit(),
        a.galois(3),
        CycInt.from_terms(lv, enumerate(a.coeffs)),
    ]
    assert not any(r.known_unit for r in results)


def test_word_mul_level_mismatch():
    with pytest.raises(LevelMismatch):
        UnitWord.identity(Level(4)) * UnitWord.identity(Level(5))


@pytest.mark.parametrize("other", [3, 1.0, None, CycInt.one(Level(4))])
def test_word_mul_by_a_foreign_operand_raises_type_error(other):
    with pytest.raises(TypeError, match="unsupported operand"):
        UnitWord.identity(Level(4)) * other


def test_word_exponents_must_be_ints():
    lv = Level(4)
    d1 = UnitWord.make(lv, 0, {1: 1})
    for build in (
        lambda: UnitWord.identity(lv) ** 2.0,
        lambda: UnitWord.make(lv, 1.0),
        lambda: UnitWord(lv, 0.0, ()),
    ):
        with pytest.raises(TypeError, match="alpha exponent must be an int, got float"):
            build()
    for build in (
        lambda: UnitWord.make(lv, 0, {1: 0.5}),
        lambda: UnitWord(lv, 0, ((1, 2.0),)),
    ):
        with pytest.raises(TypeError, match="d-exponent must be an int, got float"):
            build()
    assert d1 ** 2 == UnitWord(lv, 0, ((1, 2),))


def test_word_d_indices_must_be_ints():
    lv = Level(4)
    for build in (
        lambda: UnitWord(lv, 0, ((1.0, 2),)),
        lambda: UnitWord.make(lv, 0, {1.0: 2}),
    ):
        with pytest.raises(TypeError, match="d-index must be an int, got float"):
            build()
    assert UnitWord(lv, 0, ((1, 2),)).render() == "d1^2"


def test_word_render_and_parse():
    lv = Level(5)
    w = UnitWord.make(lv, 3, {1: -2, 7: 2, 9: 1})
    assert w.render() == "a^3 * d1^-2 * d7^2 * d9"
    assert parse_word(lv, w.render()) == w
    assert parse_word(lv, "1") == UnitWord.identity(lv)
    assert parse_word(lv, "") == UnitWord.identity(lv)
    assert parse_word(lv, "a") == UnitWord.make(lv, 1)
    assert parse_word(lv, "d1*d1^2") == UnitWord.make(lv, 0, {1: 3})
    assert parse_word(lv, " d3 ^ -1 * d13 ") == UnitWord.make(lv, 0, {3: -1, 13: 1})
    with pytest.raises(ValueError):
        parse_word(lv, "x^2")
    with pytest.raises(ValueError):
        parse_word(lv, "d")


@st.composite
def unit_words(draw) -> UnitWord:
    lv = Level(draw(st.integers(3, 12)))
    indices = draw(st.lists(st.sampled_from(d_index_set(lv)), unique=True, max_size=6))
    exponent = st.integers(-(1 << 40), 1 << 40).filter(bool)
    exps = {j: draw(exponent) for j in indices}
    return UnitWord.make(lv, draw(st.integers(0, lv.order - 1)), exps)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(w=unit_words())
def test_render_parse_round_trip(w):
    assert parse_word(w.level, w.render()) == w


# Each takes a well-formed word's text and breaks its syntax.
SYNTAX_BREAKS = (
    lambda text: text + " *",
    lambda text: "* " + text,
    lambda text: text + " * * d1",
    lambda text: text + " ** d1",
    lambda text: text + "^",
    lambda text: text + "^^2",
    lambda text: "^2 * " + text,
    lambda text: text + " + d1",
    lambda text: text + " / d1",
    lambda text: text + " * d",
    lambda text: "d^3 * " + text,
    lambda text: text + " * d-1",
    lambda text: text + " * b2",
    lambda text: text + "\n",
    lambda text: text + " * d\u0661",
    lambda text: text + " * d1^\uff12",
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(w=unit_words(), brk=st.sampled_from(SYNTAX_BREAKS))
def test_malformed_word_syntax_raises_value_error(w, brk):
    with pytest.raises(ValueError):
        parse_word(w.level, brk(w.render()))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    w=unit_words(),
    k=st.integers(0, 1 << 12),
    even=st.booleans(),
    e=st.integers(-9, 9).filter(bool),
)
def test_index_outside_the_generator_set_raises(w, k, even, e):
    """An even index, or an odd one above 2^(n-1) - 3, with a nonzero
    exponent, next to the factors of a well-formed word."""
    j = 2 * k if even else w.level.degree - 1 + 2 * k
    factors = [] if w == UnitWord.identity(w.level) else [w.render()]
    text = " * ".join(factors + [f"d{j}^{e}"])
    with pytest.raises(IndexOutOfRange):
        parse_word(w.level, text)


def test_identity_renders_as_one():
    assert UnitWord.identity(Level(4)).render() == "1"


# ---------------------------------------------------------------------- #
# norms of the building blocks


@pytest.mark.parametrize("n", [3, 4, 5])
def test_one_minus_alpha_power_norms(n):
    lv = Level(n)
    one = CycInt.one(lv)
    for j in range(1, lv.order, 2):
        assert (one - CycInt.monomial(lv, j)).norm() == 2


def test_d_generators_are_units():
    for n in (4, 5, 6):
        lv = Level(n)
        for j in d_index_set(lv):
            assert seq_d(lv, j).norm() in (1, -1)


# ---------------------------------------------------------------------- #
# the beta units


@pytest.mark.parametrize("n", [4, 5, 6])
def test_beta_facts(n):
    lv = Level(n)
    count = 1 << (n - 2)
    prod = CycInt.one(lv)
    for l in range(count):
        b = beta(lv, l)
        assert b.norm() == 1
        prod = prod * b
    assert prod == CycInt.one(lv)
    with pytest.raises(IndexOutOfRange):
        beta(lv, count)
    with pytest.raises(IndexOutOfRange):
        beta(lv, -1)


def test_beta_is_alpha_power_times_d():
    for n in (4, 5):
        lv = Level(n)
        for l in range(1 << (n - 2)):
            t = pow(3, l, lv.order)
            expected = CycInt.monomial(lv, t) * seq_d(lv, t)
            assert beta(lv, l) == expected


@pytest.mark.parametrize("n", [4, 5])
def test_cyclotomic_factor_telescopes(n):
    # 1 - alpha^{3^l} peels off one 1 - alpha and a product of betas
    lv = Level(n)
    one = CycInt.one(lv)
    base = one - CycInt.monomial(lv, 1)
    acc = one
    for l in range(1 << (n - 2)):
        t = pow(3, l, lv.order)
        assert one - CycInt.monomial(lv, t) == base * acc
        acc = acc * beta(lv, l)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9, 10])
def test_folded_three_powers_cover_odd_indices(n):
    lv = Level(n)
    count = 1 << (n - 2)
    folded = {fold_d_index(lv, pow(3, l, lv.order)) for l in range(count)}
    assert folded == set(range(1, lv.degree, 2))


# ---------------------------------------------------------------------- #
# p-words


def test_p_word_unit_criterion():
    lv = Level(4)
    assert p_word_is_unit(PWord(lv, 0, (1, -1, 0, 0)))
    assert not p_word_is_unit(PWord(lv, 0, (1, 0, 0, 0)))
    with pytest.raises(ValueError):
        PWord(lv, 0, (1, -1))


def test_p_word_nonneg_valuation():
    lv = Level(4)
    value = eval_p_word(PWord(lv, 0, (2, -1, 0, 0)))
    assert value.norm() == 2  # total valuation 1
    with pytest.raises(NotIntegral):
        eval_p_word(PWord(lv, 0, (-1, 0, 0, 0)))


def test_p_word_norm_is_two_to_the_sum():
    rng = random.Random(7)
    lv = Level(4)
    for _ in range(10):
        exps = tuple(rng.randint(0, 2) for _ in range(4))
        value = eval_p_word(PWord(lv, rng.randrange(16), exps))
        assert value.norm() in (1 << sum(exps), -(1 << sum(exps)))


def test_p_word_conversion_requires_unit():
    lv = Level(4)
    with pytest.raises(NotAUnit):
        p_word_to_unit_word(PWord(lv, 0, (1, 0, 0, 0)))


@pytest.mark.parametrize("seed", range(5))
def test_p_word_conversion_eval_equality(seed):
    rng = random.Random(seed)
    for n in (4, 5, 6):
        lv = Level(n)
        for _ in range(4):
            p = random_unit_p_word(lv, rng)
            w = p_word_to_unit_word(p)
            assert eval_word(w) == eval_p_word(p)


def test_p_word_conversion_trivial():
    lv = Level(5)
    p = PWord(lv, 5, (0,) * 8)
    assert p_word_to_unit_word(p) == UnitWord.make(lv, 5)


# ---------------------------------------------------------------------- #
# multiplicative independence


def independence_rank(level: Level) -> int:
    """Numeric rank of the log-embedding matrix of the d-generators.

    Singular values below 1e-6 count as zero; computed at 128-bit
    precision.  Expected value is 2^(n-2)-1.
    """
    if level.n > 8:
        raise ValueError("independence_rank is a desk-scale diagnostic, n <= 8")
    gens = d_index_set(level)
    embeddings = tuple(range(1, level.degree, 2))
    with workprec(128):
        mat = matrix(len(gens), len(embeddings))
        for row, j in enumerate(gens):
            for col, k in enumerate(embeddings):
                value = 1 + 2 * cos(pi * j * k / level.degree)
                mat[row, col] = log(fabs(value))
        singular = svd_r(mat, compute_uv=False)
        return sum(1 for s in singular if s > mp.mpf("1e-6"))


@pytest.mark.parametrize("n,expected", [(3, 1), (4, 3), (5, 7), (6, 15)])
def test_independence_rank(n, expected):
    assert independence_rank(Level(n)) == expected
    assert expected == len(d_index_set(Level(n)))


def test_independence_rank_capped():
    with pytest.raises(ValueError):
        independence_rank(Level(9))
