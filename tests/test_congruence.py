"""Mod-2 word classes, the subgroup E, identity reports, and the verifier."""

import json
import random
from operator import xor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circunits import (
    CycInt,
    DisagreementError,
    EvenGaloisIndex,
    InternalInconsistency,
    Level,
    LevelTooSmall,
    NonRealWord,
    UnitWord,
    d_index_set,
    e_membership,
    eval_word,
    galois_transport_check,
    generator_system,
    q_power_identities,
    q_word,
    seq_d,
    seq_r,
    seq_s,
    special_mod2,
    verify_main_theorem,
    word_mod2,
)
from circunits import circular_units, congruence, cyclotomic
from circunits.cli import main
from circunits.funnel import CERTIFIED_LEVELS
from circunits.gf2 import cyc_mul_f2, cyc_pow_f2, gf2_rank, pack_bits
from circunits.real_basis import special_mod2_from_parities


def word(lv, exps, alpha=0):
    return UnitWord.make(lv, alpha, exps)


# ---------------------------------------------------------------------- #
# word_mod2


def test_word_mod2_known_classes():
    lv = Level(4)
    assert word_mod2(word(lv, {1: 2})).render() == "1+s_2"
    assert word_mod2(q_word(lv, 1, 1)).render() == "1+r_1"
    assert word_mod2(word(lv, {1: 4})).is_one()
    lv7 = Level(7)
    assert word_mod2(word(lv7, {1: 16})).render() == "1+s_16"


def test_word_mod2_rejects_alpha():
    lv = Level(4)
    with pytest.raises(NonRealWord):
        word_mod2(word(lv, {1: 2}, alpha=3))


@pytest.mark.parametrize("seed", range(5))
def test_word_mod2_negative_exponents(seed):
    """Exponent lifting must agree with the class of the exact inverse."""
    rng = random.Random(seed)
    for n in (4, 5, 6, 7, 8):
        lv = Level(n)
        indices = d_index_set(lv)
        exps = {j: rng.randint(-5, 5) for j in rng.sample(indices, 2)}
        w = word(lv, exps)
        assert word_mod2(w) == special_mod2(eval_word(w))


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_coset_generator_classes_match_exact_evaluation(n):
    """The parity-ring classes against exact Z[alpha] evaluation, one level
    past the verifier's own exact cross-check."""
    for lw in generator_system(Level(n)).sqrt_gens:
        assert word_mod2(lw.word) == special_mod2(eval_word(lw.word)), lw.label


def test_word_mod2_matches_direct_class():
    lv = Level(5)
    w = word(lv, {3: -1, 5: 1})
    assert word_mod2(w) == special_mod2(
        seq_d(lv, 3).invert_unit() * seq_d(lv, 5)
    )


# ---------------------------------------------------------------------- #
# E membership


@pytest.mark.parametrize("n", [4, 5, 6])
def test_e_membership_boundary_powers(n):
    lv = Level(n)
    full = 1 << (n - 2)
    for j in d_index_set(lv):
        assert e_membership(word(lv, {j: full}))
        assert not e_membership(word(lv, {j: full // 2}))
        for k in range(0, n - 2):
            assert not e_membership(word(lv, {j: 1 << k}))


def test_e_membership_step_zero_words():
    for n in (4, 5, 6):
        lv = Level(n)
        p = generator_system(lv)
        for lw in p.f_gens:
            assert e_membership(lw.word), lw.label


@pytest.mark.parametrize("n", [4, 5, 6])
def test_half_power_pair_products_in_e(n):
    # single half powers are outside E, but any product of two is inside
    lv = Level(n)
    half = 1 << (n - 3)
    for j in d_index_set(lv):
        for l in d_index_set(lv):
            assert e_membership(word(lv, {j: half}) * word(lv, {l: half}))


@pytest.mark.parametrize("seed", range(5))
def test_e_closed_under_products(seed):
    rng = random.Random(seed)
    for n in (4, 5, 6):
        lv = Level(n)
        gens = generator_system(lv).f_gens
        w = UnitWord.identity(lv)
        for _ in range(4):
            lw = rng.choice(gens)
            w = w * (lw.word ** rng.choice([-1, 1]))
        assert e_membership(w)


def test_q_words_step_k_powers():
    for n in (4, 5, 6):
        lv = Level(n)
        for k in range(1, n - 2):
            for j in range(1, 1 << (n - 2 - k), 2):
                qw = q_word(lv, k, j)
                assert e_membership(qw ** (1 << k))
                assert not e_membership(qw ** (1 << (k - 1)))


# ---------------------------------------------------------------------- #
# P factors


def p_factor_indices(lv, k):
    """The d-indices 2^(k-1), ..., 2^(n-4) of P(k), for 1 <= k <= n - 3."""
    return tuple(1 << j for j in range(k - 1, lv.n - 3))


def test_p_factor_indices():
    # the report names each P(k) by its d-indices, and has one for each
    # funnel step k = 1 .. n - 3 only
    lv = Level(6)
    shown = {
        c["k"]: c["p_product"]
        for c in q_power_identities(lv)["checks"]
        if c["name"] == "q_half_power_p_form"
    }
    assert shown == {1: "d_1*d_2*d_4", 2: "d_2*d_4", 3: "d_4"}


def p_factor(lv, k):
    """The exact product of d_1^(2^j) over j = k-1 .. n-4 in Z[alpha]."""
    return seq_d(lv, 1) ** sum(p_factor_indices(lv, k))


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_p_factor_matches_d_product_mod2(n):
    lv = Level(n)
    for k in range(1, n - 2):
        prod = seq_d(lv, 1) ** 0
        for i in p_factor_indices(lv, k):
            prod = prod * seq_d(lv, i)
        assert special_mod2(p_factor(lv, k)) == special_mod2(prod)


# ---------------------------------------------------------------------- #
# identity reports


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_q_power_identities_all_pass(n):
    report = q_power_identities(Level(n))
    assert report["all_passed"], [c for c in report["checks"] if not c["passed"]]
    assert report["certified_range"]
    # one head, mirror, two q forms and one P product per step, one extra
    assert len(report["checks"]) == 5 * (n - 3) + 1


def test_q_power_identities_level_gate():
    with pytest.raises(LevelTooSmall):
        q_power_identities(Level(3))


INVERSE_POWER_FAULTS = {
    # times d_1 = 1 + s_1: still real, but no longer 1/d_(2^(k-1))
    "real": lambda lv, mask: congruence._times_d(mask, 1, lv.degree),
    # alpha^1 alone has no real partner, so no B-class renders from it
    "non_real": lambda lv, mask: mask ^ 2,
}


@pytest.mark.parametrize("fault", sorted(INVERSE_POWER_FAULTS))
def test_identities_check_the_inverse_power_premise_first(fault, monkeypatch, capsys):
    # the class of d_1^(-2^(k-1)) is corrupted at every step k; the premise
    # d_(2^(k-1)) * d_1^(-2^(k-1)) = 1 mod 2 must refuse it before any
    # entry renders the corrupted class
    lv = Level(5)
    targets = {word(lv, {1: -(1 << k)}) for k in range(lv.n - 3)}
    parities = congruence._word_parities
    injected = []

    def corrupted(w, j=1):
        mask = parities(w, j)
        if w not in targets:
            return mask
        injected.append(w)
        return INVERSE_POWER_FAULTS[fault](lv, mask)

    monkeypatch.setattr(congruence, "_word_parities", corrupted)
    with pytest.raises(InternalInconsistency, match="is not 1/d_"):
        q_power_identities(lv)
    assert injected
    injected.clear()
    assert main(["identities", "--n", "5"]) == 3
    assert injected
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "is not 1/d_" in captured.err


@pytest.mark.parametrize("n", [5, 6, 7])
def test_galois_transport(n):
    report = galois_transport_check(Level(n))
    assert report["all_passed"]
    assert len(report["transports"]) == (1 << (n - 3)) - 1
    assert len(report["coset_table"]) == 1 << (n - 3)
    labels = [t["label"] for t in report["transports"]]
    assert "q(1,1)" in labels


def test_galois_transport_level_gate():
    with pytest.raises(LevelTooSmall):
        galois_transport_check(Level(4))


def _render_by_bits(lv, parities):
    # per-bit B-rewrite of a real parity mask, s_(2^(n-2)-t) = r_t + s_t
    # mod 2, and its labels in position order
    half = lv.degree // 2
    quarter = half // 2
    coords = [0] * half
    for j in range(half):
        if (parities >> j) & 1:
            if j <= quarter:
                coords[j] ^= 1
            else:
                coords[half - j] ^= 1
                coords[quarter + half - j] ^= 1
    labels = ["1"] + [f"s_{p}" for p in range(1, quarter + 1)]
    labels += [f"r_{t}" for t in range(1, quarter)]
    return "+".join(text for text, c in zip(labels, coords) if c) or "0"


def test_transport_can_fail(monkeypatch, capsys):
    # with sigma_j replaced by the identity map, q(k,1)^(2^(k-1)) is
    # "transported" onto itself, which only the j = 1 generators match
    lv = Level(6)
    word_parities = congruence._word_parities
    monkeypatch.setattr(congruence, "_word_parities", lambda w, j=1: word_parities(w))
    report = galois_transport_check(lv)
    assert not report["all_passed"]
    failed = [t["label"] for t in report["transports"] if not t["passed"]]
    assert failed == ["q(2,3)^2", "q(1,3)", "q(1,5)", "q(1,7)"]
    gens = [lw for lw in generator_system(lv).sqrt_gens if lw.k is not None]
    assert [lw.label for lw in gens] == [t["label"] for t in report["transports"]]
    for lw, t in zip(gens, report["transports"]):
        if t["passed"]:
            assert t["transported"] == t["value"]
        else:
            mutated = word_parities(q_word(lv, lw.k, 1) ** (1 << (lw.k - 1)))
            assert t["transported"] == _render_by_bits(lv, mutated)
            assert t["transported"] != t["value"]
    assert main(["identities", "--n", "6"]) == 2
    assert "FAIL transport q(1,3)" in capsys.readouterr().out


def test_identity_reports_convert_each_mask_once(monkeypatch):
    # within one report every distinct parity mask is converted and
    # rendered once, however many checks or transports show it
    lv = Level(9)
    seen = []

    def spy(level, parities):
        seen.append(parities)
        return special_mod2_from_parities(level, parities)

    monkeypatch.setattr(congruence, "special_mod2_from_parities", spy)
    for report in (q_power_identities, galois_transport_check):
        seen.clear()
        assert report(lv)["all_passed"]
        assert seen
        assert len(seen) == len(set(seen))


# ---------------------------------------------------------------------- #
# the identity reports against the exact route
#
# The library computes every class of both reports in Z[alpha]/2.  These
# are the reports as computed before, by exact powers, products and Galois
# images in Z[alpha], each reduced mod 2 only at the end.


def _exact_entry(name, lhs, rhs, **extra):
    return {
        "name": name,
        "passed": lhs == rhs,
        "lhs": lhs.render(),
        "rhs": rhs.render(),
        **extra,
    }


def exact_q_power_identities(lv):
    n = lv.n
    quarter = 1 << (n - 3)
    checks = []
    for k in range(1, n - 2):
        half = 1 << (k - 1)
        pk = p_factor(lv, k)
        lhs = special_mod2(seq_d(lv, 1) ** -half)
        rhs = special_mod2(seq_d(lv, quarter) * pk)
        checks.append(_exact_entry("head_inverse_power", lhs, rhs, k=k))
        mirror = (1 << (n - 1 - k)) - 1
        lhs = special_mod2(seq_d(lv, mirror) ** half)
        rhs = special_mod2(seq_d(lv, half) + seq_r(lv, half))
        checks.append(_exact_entry("mirror_half_power", lhs, rhs, k=k))
        q_half = special_mod2(eval_word(q_word(lv, k, 1) ** half))
        rhs = special_mod2(
            CycInt.one(lv) + seq_d(lv, half).invert_unit() * seq_r(lv, half)
        )
        checks.append(_exact_entry("q_half_power_inverse_form", q_half, rhs, k=k))
        rhs = special_mod2(CycInt.one(lv) + pk * seq_r(lv, half))
        p_product = "*".join(f"d_{i}" for i in p_factor_indices(lv, k))
        checks.append(
            _exact_entry("q_half_power_p_form", q_half, rhs, k=k, p_product=p_product)
        )
        prod = CycInt.one(lv)
        for i in p_factor_indices(lv, k):
            prod = prod * seq_d(lv, i)
        lhs, rhs = special_mod2(pk), special_mod2(prod)
        checks.append(_exact_entry("p_factor_d_product", lhs, rhs, k=k))
    fixes = all(
        special_mod2(seq_d(lv, quarter) * seq_r(lv, l)) == special_mod2(seq_r(lv, l))
        for l in range(1, quarter)
    )
    checks.append(
        {
            "name": "sqrt2_head_fixes_r_block",
            "passed": fixes,
            "lhs": "d_{2^(n-3)} * r_l for all l",
            "rhs": "r_l",
        }
    )
    return {
        "n": n,
        "certified_range": 4 <= n <= 7,
        "checks": checks,
        "all_passed": all(c["passed"] for c in checks),
    }


def exact_galois_transport_check(lv):
    n = lv.n
    gens = generator_system(lv).sqrt_gens
    classes = [special_mod2(eval_word(lw.word)) for lw in gens]
    transports = []
    for k in range(n - 3, 0, -1):
        base = eval_word(q_word(lv, k, 1) ** (1 << (k - 1)))
        for lw, lhs in zip(gens, classes):
            if lw.k == k:
                rhs = special_mod2(base.galois(lw.j))
                transports.append(
                    {
                        "label": lw.label,
                        "passed": lhs == rhs,
                        "value": lhs.render(),
                        "transported": rhs.render(),
                    }
                )
    return {
        "n": n,
        "certified_range": 5 <= n <= 7,
        "transports": transports,
        "coset_table": [
            {"label": lw.label, "value": value.render()}
            for lw, value in zip(gens, classes)
        ],
        "all_passed": all(t["passed"] for t in transports),
    }


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9])
def test_identity_reports_match_the_exact_route(n):
    lv = Level(n)
    assert q_power_identities(lv) == exact_q_power_identities(lv)
    if n >= 5:
        assert galois_transport_check(lv) == exact_galois_transport_check(lv)


# ---------------------------------------------------------------------- #
# the verifier


def test_verify_16_in_detail():
    cert = verify_main_theorem(Level(4))
    assert cert.trivial_only
    assert cert.method == "exhaustive+linearized"
    assert cert.exhaustive_assignments == 4
    assert cert.exhaustive_kernel_size == 1
    assert cert.system.rank == 2
    assert cert.system.nullity == 0
    assert cert.generator_labels == ("d_1^2", "q(1,1)")
    assert cert.odd_r_subsystem is None


@pytest.mark.parametrize("n", [5, 6, 7])
def test_verify_exhaustive_and_linear_agree(n):
    # the verifier raises DisagreementError on its own if the routes differ
    cert = verify_main_theorem(Level(n))
    assert cert.trivial_only
    assert cert.exhaustive_kernel_size == 1
    assert cert.system.rank == 1 << (n - 3)
    assert cert.odd_r_subsystem is not None
    assert cert.odd_r_subsystem["full_rank"]


def test_verify_certificate_json_shape():
    cert = verify_main_theorem(Level(5))
    data = cert.to_json_dict()
    assert data["n"] == 5
    assert data["verdict"] == "trivial_only"
    assert data["elapsed_ms"] == 0
    assert len(data["generators"]) == 4
    for g in data["generators"]:
        assert set(g) == {"label", "coords_hex"}
        assert int(g["coords_hex"], 16) % 2 == 1
    assert len(data["matrix_rows_hex"]) == len(data["row_labels"]) == 7
    # the odd-r block is written once, as rows_hex; rows_bits stays in memory
    sub = cert.odd_r_subsystem
    assert "rows_bits" not in data["odd_r_subsystem"]
    assert data["odd_r_subsystem"] == {k: v for k, v in sub.items() if k != "rows_bits"}
    assert [int(h, 16) for h in sub["rows_hex"]] == [
        pack_bits(bits) for bits in sub["rows_bits"]
    ]
    timed = cert.to_json_dict(include_timing=True)
    assert timed["elapsed_ms"] >= 0


def test_verify_level_gate():
    with pytest.raises(LevelTooSmall):
        verify_main_theorem(Level(3))


@pytest.mark.parametrize("n", [8, 9, 10])
def test_verify_square_zero_path(n):
    # past n = 7 the walk covers the first 16 of 2^(n-3) generators
    cert = verify_main_theorem(Level(n))
    assert cert.method == "square-zero+linearized"
    assert cert.trivial_only
    assert cert.system.nullity == 0
    assert cert.exhaustive_assignments == 1 << 16
    assert cert.exhaustive_kernel_size == 1
    data = cert.to_json_dict()
    assert "exploratory" not in data and "spot_checks" not in data


@pytest.mark.parametrize("n", range(3, 13))
def test_s_mask_is_parity_of_exact_s(n):
    # the masks of d_j and r_t come from _times_d, the parity ring's one
    # primitive, and meet the exact ring here; that of s_j = d_j - 1 is the
    # d_j mask xor 1, as the exact d_j and s_j differ by 1
    lv = Level(n)
    m = lv.degree
    for j in range(-lv.order, 2 * lv.order):
        assert congruence._times_d(1, j, m) == pack_bits(seq_d(lv, j).coeffs), j
    for t in range(m // 2 + 1):
        assert congruence._r_mask(t, m) == pack_bits(seq_r(lv, t).coeffs), t


def _break_times_d(monkeypatch, when, fault):
    # congruence._times_d(x, j, m) returns fault(x, product) instead of the
    # product wherever when(j, m) holds; returns the list of the j so
    # broken, which each caller checks is not empty after its run
    times_d = congruence._times_d
    injected = []

    def broken(x, j, m):
        product = times_d(x, j, m)
        if not when(j, m):
            return product
        injected.append(j)
        return fault(x, product)

    monkeypatch.setattr(congruence, "_times_d", broken)
    return injected


def _break_square_zero_lemma(monkeypatch):
    # multiply by s_q where d_q = 1 + s_q is asked for (q = 2^(n-3)); s_q
    # squares to 0 mod 2, not 1, so the lemma must fail on it
    return _break_times_d(monkeypatch, lambda j, m: j == m // 4, xor)


@pytest.mark.parametrize("n", [5, 8])
def test_verify_detects_broken_square_zero_lemma(n, monkeypatch):
    injected = _break_square_zero_lemma(monkeypatch)
    with pytest.raises(InternalInconsistency, match="square-zero"):
        verify_main_theorem(Level(n))
    assert injected


def test_cli_exits_3_on_broken_square_zero_lemma(monkeypatch, capsys):
    injected = _break_square_zero_lemma(monkeypatch)
    assert main(["verify", "--n", "8"]) == 3
    assert injected
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "square-zero lemma fails" in captured.err


def test_cli_failed_run_leaves_empty_json(monkeypatch, tmp_path, capsys):
    target = tmp_path / "cert.json"
    target.write_text("stale certificate\n")
    injected = _break_square_zero_lemma(monkeypatch)
    assert main(["verify", "--n", "5", "--json", str(target)]) == 3
    assert injected
    assert capsys.readouterr().out == ""
    assert target.read_text() == ""


def test_verify_rows_encode_generator_coords():
    cert = verify_main_theorem(Level(5))
    rows = [int(h, 16) for h in cert.to_json_dict()["matrix_rows_hex"]]
    for i, coords in enumerate(cert.generators):
        for p in range(1, 8):
            bit = (rows[p - 1] >> i) & 1
            assert bit == (coords.mask >> p) & 1


@pytest.mark.parametrize("n", range(4, 13))
def test_proof_columns_and_printed_rows_are_one_system(n, monkeypatch):
    """The proof ranks the class columns and transposes only the k = 1
    block; the certificate's rows, transposed from all columns, must give
    the same rank and hold the odd-r block at the odd-r positions."""
    transpose = congruence._transpose
    calls = []

    def spy(masks, width):
        calls.append(len(masks))
        return transpose(masks, width)

    monkeypatch.setattr(congruence, "_transpose", spy)
    cert = verify_main_theorem(Level(n))
    assert calls == ([1 << (n - 4)] if n >= 5 else [])
    data = cert.to_json_dict()
    rows = [int(h, 16) for h in data["matrix_rows_hex"]]
    assert gf2_rank(rows) == cert.system.rank
    sub = cert.odd_r_subsystem
    if sub is None:
        return
    # row p - 1 of the certificate is B-position p, so the odd r_t sit at
    # rows 2^(n-3), 2^(n-3) + 2, ...
    quarter = 1 << (n - 3)
    assert data["row_labels"][quarter::2] == sub["row_labels"]
    restricted = [
        pack_bits(row >> i for i in sub["column_indices"]) for row in rows[quarter::2]
    ]
    assert [int(h, 16) for h in sub["rows_hex"]] == restricted


# ---------------------------------------------------------------------- #
# closed forms of the verifier's parity-ring steps


def _coset_span_basis(lv):
    # s_q, r_1, ..., r_{q-1} (q = 2^(n-3)) as parity masks, from exact values
    quarter = 1 << (lv.n - 3)
    basis = [seq_s(lv, quarter)] + [seq_r(lv, t) for t in range(1, quarter)]
    return [pack_bits(x.coeffs) for x in basis]


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9, 10])
def test_pairwise_square_zero_products_vanish(n):
    """The q(q+1)/2 pairwise products that the one-product-per-element
    lemma replaces are all 0 mod 2."""
    lv = Level(n)
    basis = _coset_span_basis(lv)
    assert len(basis) == 1 << (n - 3)
    for i, x in enumerate(basis):
        for y in basis[i:]:
            assert cyc_mul_f2(x, y, lv.degree) == 0


@pytest.mark.parametrize("n", [4, 7, 12])
def test_verify_makes_one_ideal_product_per_generator(n, monkeypatch):
    # the ideal test is the relative norm mod 2, one fold per class
    lv = Level(n)
    m = lv.degree
    seen = []
    norm_mod2 = congruence._norm_mod2

    def counting(mask, width):
        seen.append((mask, width))
        return norm_mod2(mask, width)

    monkeypatch.setattr(congruence, "_norm_mod2", counting)
    cert = verify_main_theorem(lv)
    tested = list(seen)
    gens = generator_system(lv).sqrt_gens
    assert len(tested) == len(gens) == len(cert.generators)
    # each is the class itself, in Z[alpha]/2
    expected = [(congruence._word_parities(lw.word), m) for lw in gens]
    assert tested == expected
    assert {norm_mod2(mask, m) for mask, _ in tested} == {1}


@pytest.mark.parametrize("n", range(4, 13))
def test_real_kernel_of_the_ideal_test_is_the_coset_span(n):
    """The real masks killed by 1 + alpha^(m/2) form a space of dimension
    q = 2^(n-3) that holds V = span(s_q, r_1, ..., r_{q-1}), so they are V:
    the ideal test, the norm mod 2, accepts a real class exactly when it
    lies in 1 + V."""
    lv = Level(n)
    m = lv.degree
    real = [1] + [pack_bits(seq_s(lv, j).coeffs) for j in range(1, m // 2)]
    assert gf2_rank(real) == m // 2
    images = [cyc_mul_f2(1 | 1 << (m // 2), x, m) for x in real]
    assert len(real) - gf2_rank(images) == 1 << (n - 3)
    basis = _coset_span_basis(lv)
    assert gf2_rank(basis) == 1 << (n - 3)
    assert all(congruence._norm_mod2(1 ^ x, m) == 1 for x in basis)


def _break_r_block(monkeypatch):
    # multiply by s_1 where d_1 = 1 + s_1 is asked for: the constant bit of
    # d_1 is lost, so the classes built on d_1 are no longer units mod 2
    return _break_times_d(monkeypatch, lambda j, m: j == 1, xor)


@pytest.mark.parametrize("n", [4, 8])
def test_verify_detects_broken_r_block(n, monkeypatch):
    injected = _break_r_block(monkeypatch)
    with pytest.raises(InternalInconsistency, match="square-zero"):
        verify_main_theorem(Level(n))
    assert injected


def test_cli_exits_3_on_broken_r_block(monkeypatch, capsys):
    injected = _break_r_block(monkeypatch)
    assert main(["verify", "--n", "6"]) == 3
    assert injected
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "square-zero lemma fails" in captured.err


def _move_one_class(monkeypatch, lv, fault):
    # the class of one coset generator, as the verifier computes it, is
    # replaced by fault(mask); returns that generator
    target = generator_system(lv).sqrt_gens[1]
    parities = congruence._word_parities

    def moved(w, j=1):
        mask = parities(w, j)
        return fault(lv, mask) if w == target.word and j == 1 else mask

    monkeypatch.setattr(congruence, "_word_parities", moved)
    return target


CLASS_FAULTS = {
    # real, but outside 1 + V
    "low_s": lambda lv, mask: mask ^ 1 ^ congruence._times_d(1, 1, lv.degree),
    "lost_constant": lambda lv, mask: mask ^ 1,
}


@pytest.mark.parametrize("n", [5, 8])
@pytest.mark.parametrize("fault", sorted(CLASS_FAULTS))
def test_cli_exits_3_on_a_class_outside_one_plus_v(n, fault, monkeypatch, capsys):
    target = _move_one_class(monkeypatch, Level(n), CLASS_FAULTS[fault])
    assert main(["verify", "--n", str(n)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"internal disagreement: square-zero lemma fails: the class of "
        f"{target.label} is not 1 plus an element of (1 + alpha)^(m/2) mod 2"
    ]


@pytest.mark.parametrize("n", [5, 8])
@pytest.mark.parametrize("fault", ["s_q", "r_1"])
def test_cli_exits_3_on_a_broken_sequence_mask(n, fault, monkeypatch, capsys):
    breaks = {"s_q": _break_square_zero_lemma, "r_1": _break_r_block}
    injected = breaks[fault](monkeypatch)
    labels = [lw.label for lw in generator_system(Level(n)).sqrt_gens]
    assert main(["verify", "--n", str(n)]) == 3
    assert injected
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "square-zero lemma fails" in captured.err
    assert any(f"the class of {label} is" in captured.err for label in labels)


@pytest.mark.parametrize("n", [5, 8])
def test_class_moved_inside_one_plus_v_reaches_the_later_checks(
    n, monkeypatch, capsys
):
    # plus r_1 keeps the class in 1 + V: the ideal test passes it, the exact
    # comparison catches it up to n = 7, and past that it is certified as given
    lv = Level(n)
    r_1_mask = pack_bits(seq_r(lv, 1).coeffs)
    target = _move_one_class(monkeypatch, lv, lambda _, mask: mask ^ r_1_mask)
    code = main(["verify", "--n", str(n)])
    captured = capsys.readouterr()
    if n in CERTIFIED_LEVELS:
        assert code == 3
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"internal disagreement: {target.label}: parity-ring class "
            "disagrees with exact evaluation"
        ]
        return
    monkeypatch.undo()
    honest = verify_main_theorem(lv).to_json_dict()
    data = json.loads(captured.out)
    r_1 = 1 << ((1 << (n - 3)) + 1)  # B-position of r_1
    for got, want in zip(data["generators"], honest["generators"]):
        flip = r_1 if got["label"] == target.label else 0
        assert int(got["coords_hex"], 16) == int(want["coords_hex"], 16) ^ flip
    assert code == (0 if data["verdict"] == "trivial_only" else 2)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_exact_cross_check_value_is_the_word_value(n):
    # the verifier's product of cached powers and eval_word's one
    # square-and-multiply pass give the same element for every coset generator
    for lw in generator_system(Level(n)).sqrt_gens:
        assert circular_units._galois_product(lw.word) == eval_word(lw.word), lw.label


def test_exact_cross_check_descends_no_tower(monkeypatch):
    # from a cold cache, n = 7 takes d_1^(-e) for e = 8, 4, 2, 1 as powers
    # of the seed _d_power(7, -1), built once by one inverse chain: no
    # invert_unit, no _divide, and no word evaluated through eval_word
    circular_units._d_power.cache_clear()
    circular_units._d_seed.cache_clear()
    real_chain = circular_units._times_d_inverse
    chains = []

    def chain(*args):
        chains.append(args[1:])
        return real_chain(*args)

    def descended(*args):
        raise AssertionError("a tower descent on the verifier's path")

    def refused(w):
        raise AssertionError(f"eval_word({w.render()}) on the verifier's path")

    monkeypatch.setattr(CycInt, "invert_unit", descended)
    monkeypatch.setattr(cyclotomic, "_divide", descended)
    monkeypatch.setattr(circular_units, "eval_word", refused)
    monkeypatch.setattr(circular_units, "_times_d_inverse", chain)
    monkeypatch.setattr(congruence, "eval_word", refused, raising=False)
    lv = Level(7)
    assert verify_main_theorem(lv).trivial_only
    assert chains == [(1, 7)]
    monkeypatch.undo()
    # one cached power per exponent of the words, and no other
    gens = generator_system(lv).sqrt_gens
    exponents = {e for lw in gens for _, e in lw.word.d_exps}
    assert sorted(e for e in exponents if e < 0) == [-8, -4, -2, -1]
    assert circular_units._d_power.cache_info().currsize == len(exponents)
    misses = circular_units._d_power.cache_info().misses
    for e in (8, 4, 2, 1):
        assert circular_units._d_power(7, -e) == seq_d(lv, 1) ** -e
    assert circular_units._d_power.cache_info().misses == misses


def test_cli_exits_3_when_a_cached_inverse_is_wrong(monkeypatch, capsys):
    # d_1^(-1) replaced by d_1^(-2), still a real unit: q(1, j)'s exact
    # value moves to another class mod 2
    real = circular_units._d_power
    monkeypatch.setattr(
        circular_units, "_d_power", lambda n, e: real(n, -2 if e == -1 else e)
    )
    assert main(["verify", "--n", "6"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "internal disagreement: q(1,1): parity-ring class disagrees with "
        "exact evaluation"
    ]


def test_cli_exits_3_when_the_exact_value_is_not_real(monkeypatch, capsys):
    # alpha times the exact value is still a unit but no longer real: the
    # verifier reports a disagreement, not an escaped NotReal
    real = congruence._galois_product
    monkeypatch.setattr(
        congruence,
        "_galois_product",
        lambda w: real(w) * CycInt.monomial(w.level, 1),
    )
    assert main(["verify", "--n", "6"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "internal disagreement: d_1^8: parity-ring class disagrees with "
        "exact evaluation"
    ]


def test_word_parities_checks_the_order_premise(monkeypatch):
    # a d_j whose 2^(n-2)-th power is not 1 mod 2 must stop the reduction:
    # d_(3 * 2^(n-2)) gains an alpha bit
    lv = Level(6)
    injected = _break_times_d(
        monkeypatch, lambda j, m: j == 3 * m // 2, lambda x, product: product ^ 2
    )
    assert congruence._word_parities(word(lv, {1: 5, 5: -3})) > 1
    assert not injected
    with pytest.raises(InternalInconsistency, match="order dividing"):
        congruence._word_parities(word(lv, {3: 1}))
    assert injected


def test_word_parities_takes_no_general_product(monkeypatch):
    # every factor of a word, and every order premise, is one d-class,
    # multiplied in by _times_d
    def refused(*args):
        raise AssertionError("cyc_mul_f2 called")

    monkeypatch.setattr(congruence, "cyc_mul_f2", refused)
    for lw in generator_system(Level(9)).sqrt_gens:
        assert congruence._word_parities(lw.word, 3) > 1, lw.label


def _dense_word_parities(w):
    # alpha^a times dense d_j powers; every unit of Z[alpha]/2 has order
    # dividing m, so e mod m lifts negative exponents independently of the
    # 2^(n-2) period the verifier uses
    m = w.level.degree
    parities = 1 << (w.alpha_exp % m)
    for j, e in w.d_exps:
        d_mask = pack_bits(seq_d(w.level, j).coeffs)
        parities = cyc_mul_f2(cyc_pow_f2(d_mask, e % m, m), parities, m)
    return parities


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9, 10, 11, 12])
def test_word_parities_against_dense_powers(n):
    rng = random.Random(n)
    lv = Level(n)
    period = 1 << (n - 2)
    indices = d_index_set(lv)
    for _ in range(12):
        exps = {}
        for j in rng.sample(indices, min(3, len(indices))):
            # below and beyond one period, of both signs
            big = rng.randint(period, 4 * period)
            exps[j] = rng.choice([rng.randint(1, period - 1), big]) * rng.choice([1, -1])
        w = word(lv, exps, alpha=rng.randrange(lv.order))
        parities = congruence._word_parities(w)
        assert parities == _dense_word_parities(w), w.render()
        if n <= 7:
            assert parities == pack_bits(eval_word(w).coeffs), w.render()


@st.composite
def galois_cases(draw, n):
    # a word with an alpha power and exponents of both signs, and an odd
    # automorphism index of either sign, up to well past the order 2^n
    lv = Level(n)
    indices = draw(st.lists(st.sampled_from(d_index_set(lv)), unique=True, max_size=3))
    exps = {i: draw(st.integers(-40, 40)) for i in indices}
    w = word(lv, exps, alpha=draw(st.integers(0, lv.order - 1)))
    return w, 2 * draw(st.integers(-2 * lv.order, 2 * lv.order)) + 1


@pytest.mark.parametrize("n", range(3, 11))
@settings(derandomize=True, max_examples=15, deadline=None)
@given(data=st.data())
def test_word_parities_is_the_galois_image(n, data):
    """sigma_j of a word in the parity ring against the parities of the
    exact Galois image of its value."""
    w, j = data.draw(galois_cases(n))
    expected = pack_bits(eval_word(w).galois(j).coeffs)
    assert congruence._word_parities(w, j) == expected, (w.render(), j)


def test_word_parities_rejects_even_galois_indices():
    w = word(Level(5), {1: 3, 7: -1}, alpha=2)
    for j in (0, 2, -4):
        with pytest.raises(EvenGaloisIndex):
            congruence._word_parities(w, j)


def _transpose_by_bits(masks, width):
    # the per-bit loop that congruence._transpose replaces
    rows = []
    for p in range(width):
        row = 0
        for i, mask in enumerate(masks):
            row |= ((mask >> p) & 1) << i
        rows.append(row)
    return rows


@pytest.mark.parametrize("n", [4, 5, 7, 9, 12])
def test_transpose_against_bit_loop(n):
    rng = random.Random(n)
    quarter = 1 << (n - 3)
    for width in (quarter, 2 * quarter, 4 * quarter):
        for count in (1, 2, 5, quarter):
            # some masks carry bits past the width, which must be ignored
            masks = [rng.getrandbits(2 * width + 3) for _ in range(count)]
            masks[0] = 0
            assert congruence._transpose(masks, width) == _transpose_by_bits(
                masks, width
            )


# ---------------------------------------------------------------------- #
# the exhaustive count


def _brute_force_kernel(masks, m):
    # multiply out every subset on its own
    hits = 0
    for subset in range(1 << len(masks)):
        product = 1
        for i, mask in enumerate(masks):
            if subset >> i & 1:
                product = cyc_mul_f2(mask, product, m)
        hits += product == 1
    return hits


def _random_involutions(rng, count, m):
    # x^2 = 1 iff (1 + x)^2 = 0 iff 1 + x lies in (1 + alpha)^(m/2), the
    # multiples of 1 + alpha^(m/2)
    pi_half = 1 | 1 << m // 2
    return [1 ^ cyc_mul_f2(pi_half, rng.getrandbits(m), m) for _ in range(count)]


@pytest.mark.parametrize("m", [4, 8, 16, 32, 64, 128, 256])
def test_exhaustive_kernel_against_brute_force(m):
    rng = random.Random(m)
    for g in range(11):
        masks = _random_involutions(rng, g, m)
        assert congruence._exhaustive_kernel(masks, m) == (
            1 << g,
            _brute_force_kernel(masks, m),
        )


@pytest.mark.parametrize("m", [4, 16, 64, 256])
def test_exhaustive_kernel_counts_planted_relations(m):
    # the mask 1, a repeated mask and the product of two others each lie in
    # the span of the rest, so each doubles the kernel
    rng = random.Random(100 + m)
    for g in (3, 4, 6, 7):
        base = _random_involutions(rng, g, m)
        planted = base + [1, base[0], cyc_mul_f2(base[1], base[2], m)]
        rng.shuffle(planted)
        _, base_kernel = congruence._exhaustive_kernel(base, m)
        _, kernel = congruence._exhaustive_kernel(planted, m)
        assert kernel == 8 * base_kernel == _brute_force_kernel(planted, m)


def test_exhaustive_kernel_rejects_non_involutions():
    m = 16
    involution = _random_involutions(random.Random(0), 1, m)[0]
    for bad in (0, 1 | 2, 1 << 3):
        with pytest.raises(InternalInconsistency, match="not an involution"):
            congruence._exhaustive_kernel([involution, bad], m)


@pytest.mark.parametrize("m", [4, 16, 64, 256, 2048])
def test_subset_products_slots_are_products(m):
    # slot k, of 2m bits, holds the product of the masks whose index is a
    # set bit of k, folded with cyc_mul_f2 in index order; the fold for k
    # extends the one for k without its top bit
    rng = random.Random(200 + m)
    for g in range(9):
        involutions = _random_involutions(rng, g, m)
        cases = [involutions]
        if g >= 3:
            cases.append(involutions[:-2] + [1, involutions[0]])
        for masks in cases:
            expected = [1]
            for k in range(1, 1 << len(masks)):
                top = k.bit_length() - 1
                expected.append(cyc_mul_f2(masks[top], expected[k ^ 1 << top], m))
            products = congruence._subset_products(masks, m)
            assert [int.from_bytes(p, "little") for p in products] == expected
            assert {len(p) for p in products} == {m // 4}


def test_exhaustive_kernel_uses_neither_lemma_nor_rank(monkeypatch):
    """The count calls neither the rank nor the verifier's fold; the lemma's
    per-class statement it needs, that each class squares to 1, it checks
    with its own product."""
    lv = Level(8)
    masks = [
        congruence._word_parities(lw.word)
        for lw in generator_system(lv).sqrt_gens[: congruence.WALK_GENERATORS]
    ]

    def forbidden(*args):
        raise AssertionError("the exhaustive count used the linear route")

    monkeypatch.setattr(congruence, "gf2_rank", forbidden)
    monkeypatch.setattr(congruence, "_norm_mod2", forbidden)
    assert congruence._exhaustive_kernel(masks, lv.degree) == (1 << 16, 1)


def _lose_one_rank(monkeypatch):
    # the linearized route, which runs after every class is checked, sees
    # one rank too few and predicts a kernel the exhaustive count does not
    def short(rows):
        return gf2_rank(rows) - 1

    monkeypatch.setattr(congruence, "gf2_rank", short)


def test_verify_detects_disagreeing_routes(monkeypatch):
    _lose_one_rank(monkeypatch)
    with pytest.raises(DisagreementError, match="exhaustive kernel has 1 elements"):
        verify_main_theorem(Level(6))


def test_cli_exits_3_on_disagreeing_routes(monkeypatch, capsys):
    _lose_one_rank(monkeypatch)
    assert main(["verify", "--n", "6"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal disagreement" in captured.err
