"""Funnel partitions, the q words, and the exponent lattices of F and sqrt(F).

Ranks, indices and membership on the F lattice come from sympy's Smith
normal form, which is the independent oracle for this file.
"""

from math import prod

import pytest
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form

from circunits import (
    IndexNotInPartition,
    Level,
    LevelTooSmall,
    UnitWord,
    build_partition,
    d_index_set,
    galois_transport_check,
    generator_system,
    q_word,
    verify_main_theorem,
)
from circunits import funnel


def expected_index(n: int) -> int:
    """|D : F| = 2^(n-2) * prod over k of (2^k)^(2^(n-3-k))."""
    index = 1 << (n - 2)
    for k in range(1, n - 2):
        index *= (1 << k) ** (1 << (n - 3 - k))
    return index


def exponent_vector(w: UnitWord) -> list:
    """Exponents of a word over the full generator set d_1, d_3, ..."""
    exps = w.d_exp_map
    return [exps.get(j, 0) for j in d_index_set(w.level)]


def f_matrix(n: int) -> list:
    lv = Level(n)
    return [exponent_vector(lw.word) for lw in generator_system(lv).f_gens]


def invariant_factors(rows: list) -> list:
    """Nonzero invariant factors of the integer matrix with these rows."""
    snf = smith_normal_form(Matrix(rows))
    return [abs(snf[i, i]) for i in range(min(snf.shape)) if snf[i, i]]


def index_in_ambient(rows: list, size: int) -> int:
    """Index of the row lattice in Z^size; 0 when its rank is below size."""
    factors = invariant_factors(rows)
    return prod(factors) if len(factors) == size else 0


def full_rank_contains(rows: list, vec: list) -> bool:
    """Membership in a full-rank row lattice L: L + Zv has index |Z^size : L|
    exactly when v lies in L, and a strictly smaller index otherwise."""
    return prod(invariant_factors(rows + [vec])) == prod(invariant_factors(rows))


# ---------------------------------------------------------------------- #
# partitions


def test_partition_small_cases():
    p4 = build_partition(Level(4))
    assert p4.A_sets == ((1, 3), (1,))
    assert p4.B_sets == ((5,), (3,))
    p5 = build_partition(Level(5))
    assert p5.A_sets == ((1, 3, 5, 7), (1, 3), (1,))
    assert p5.B_sets == ((9, 11, 13), (5, 7), (3,))


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9])
def test_partition_invariants(n):
    lv = Level(n)
    p = build_partition(lv)
    full = set(d_index_set(lv))
    assert len(p.A_sets) == n - 2
    for k, a in enumerate(p.A_sets):
        assert len(a) == 1 << (n - 3 - k)
        assert all(j % 2 == 1 for j in a)
        assert set(a) <= full
    assert p.A_sets[-1] == (1,)
    for k in range(1, len(p.A_sets)):
        assert set(p.A_sets[k]) < set(p.A_sets[k - 1])
    # B sets partition A \ A_{n-3}
    covered = set()
    for b in p.B_sets:
        assert not (set(b) & covered)
        covered |= set(b)
    assert covered == full - {1}


def test_partition_needs_level_four():
    with pytest.raises(LevelTooSmall):
        build_partition(Level(3))


# ---------------------------------------------------------------------- #
# q words


def test_q_word_examples():
    lv = Level(5)
    assert q_word(lv, 0, 3) == UnitWord.make(lv, 0, {3: -1, 13: 1})
    assert q_word(lv, 1, 3) == UnitWord.make(lv, 0, {3: -1, 5: 1})
    assert q_word(lv, 1, 1) == UnitWord.make(lv, 0, {1: -1, 7: 1})
    assert q_word(lv, 2, 1) == UnitWord.make(lv, 0, {1: -1, 3: 1})
    lv4 = Level(4)
    assert q_word(lv4, 0, 3) == UnitWord.make(lv4, 0, {3: -1, 5: 1})


def test_q_word_index_errors():
    lv = Level(5)
    with pytest.raises(IndexNotInPartition):
        q_word(lv, 0, 1)  # j = 1 is excluded at step 0
    with pytest.raises(IndexNotInPartition):
        q_word(lv, 1, 5)  # 5 is not in A_1
    with pytest.raises(IndexNotInPartition):
        q_word(lv, 3, 1)  # k beyond n - 3
    with pytest.raises(IndexNotInPartition):
        q_word(lv, 1, 2)
    with pytest.raises(LevelTooSmall):
        q_word(Level(3), 0, 1)  # no funnel below n = 4


# ---------------------------------------------------------------------- #
# generator systems


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_generator_counts_and_labels(n):
    lv = Level(n)
    system = generator_system(lv)
    assert len(system.f_gens) == (1 << (n - 2)) - 1
    assert len(system.sqrt_gens) == 1 << (n - 3)
    assert system.f_gens[0].label == f"d_1^{1 << (n - 2)}"
    assert system.sqrt_gens[0].label == f"d_1^{1 << (n - 3)}"
    # blocks run with k descending, j ascending
    ks = [lw.k for lw in system.sqrt_gens[1:]]
    assert ks == sorted(ks, reverse=True)


def test_generator_words_16():
    lv = Level(4)
    words = {lw.word for lw in generator_system(lv).f_gens}
    assert words == {
        UnitWord.make(lv, 0, {1: 4}),
        UnitWord.make(lv, 0, {3: -1, 5: 1}),
        UnitWord.make(lv, 0, {1: -2, 3: 2}),
    }


def test_generator_words_32():
    lv = Level(5)
    words = {lw.word for lw in generator_system(lv).f_gens}
    assert words == {
        UnitWord.make(lv, 0, {1: 8}),
        UnitWord.make(lv, 0, {3: -1, 13: 1}),
        UnitWord.make(lv, 0, {5: -1, 11: 1}),
        UnitWord.make(lv, 0, {7: -1, 9: 1}),
        UnitWord.make(lv, 0, {1: -2, 7: 2}),
        UnitWord.make(lv, 0, {3: -2, 5: 2}),
        UnitWord.make(lv, 0, {1: -4, 3: 4}),
    }


def test_sqrt_gens_halve_f_exponents():
    lv = Level(6)
    system = generator_system(lv)
    f_by_key = {(lw.k, lw.j): lw for lw in system.f_gens}
    for lw in system.sqrt_gens:
        mate = f_by_key[(lw.k, lw.j)]
        assert mate.exponent == 2 * lw.exponent
        assert lw.word * lw.word == mate.word


@pytest.mark.parametrize("n", range(5, 10))
def test_verifier_builds_no_f_word(n, monkeypatch):
    """The verifier and the transport read only the coset generators: one q
    word for each past the d_1 head, and no q(0, .) word of F."""
    real = funnel.q_word
    steps = []

    def spy(level, k, j):
        steps.append(k)
        return real(level, k, j)

    monkeypatch.setattr(funnel, "q_word", spy)
    for check in (verify_main_theorem, galois_transport_check):
        steps.clear()
        check(Level(n))
        assert len(steps) == (1 << (n - 3)) - 1
        assert 0 not in steps


def test_generator_system_needs_level_four():
    with pytest.raises(LevelTooSmall):
        generator_system(Level(3))


# ---------------------------------------------------------------------- #
# exponent lattices


@pytest.mark.parametrize("n", [4, 5, 6])
def test_f_lattice_index_against_smith_oracle(n):
    rows = f_matrix(n)
    snf = smith_normal_form(Matrix(rows))
    size = len(rows)
    oracle = 1
    for i in range(size):
        oracle *= abs(snf[i, i])
    assert oracle == expected_index(n)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_f_lattice_full_rank_and_index_formula(n):
    rows = f_matrix(n)
    assert len(invariant_factors(rows)) == (1 << (n - 2)) - 1
    assert index_in_ambient(rows, len(rows)) == expected_index(n)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_lattice_chain_is_strict(n):
    lv = Level(n)
    system = generator_system(lv)
    rows = f_matrix(n)
    size = (1 << (n - 2)) - 1
    # D^{2^(n-2)} sits inside F
    for i in range(size):
        vec = [0] * size
        vec[i] = 1 << (n - 2)
        assert full_rank_contains(rows, vec)
    # each coset generator is outside F but its square is inside
    for lw in system.sqrt_gens:
        vec = exponent_vector(lw.word)
        assert not full_rank_contains(rows, vec)
        assert full_rank_contains(rows, [2 * x for x in vec])


@pytest.mark.parametrize("n", [4, 5, 6])
def test_sqrt_lattice_index_halves_per_generator(n):
    rows = f_matrix(n)
    sqrt_rows = [
        exponent_vector(lw.word)
        for lw in generator_system(Level(n)).sqrt_gens
    ]
    f_index = index_in_ambient(rows, len(rows))
    sqrt_index = index_in_ambient(rows + sqrt_rows, len(rows))
    assert f_index == sqrt_index * (1 << (1 << (n - 3)))
