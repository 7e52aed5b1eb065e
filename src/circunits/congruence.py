"""Mod-2 congruence calculus on unit words and the main-theorem verifier.

A word w in the d-generators has a mod-2 class in the special basis B,
computed in the parity ring Z[alpha]/2.  The subgroup E consists of the
words congruent to 1.  The verifier proves at every n that no nontrivial
product of sqrt(F)/F coset generators lands in E, by a checked square-zero
lemma: each class has relative norm 1 mod 2 one level down, so the class
minus 1 is annihilated by 1 + alpha^(m/2) mod 2 and lies in an ideal whose
square is 0 mod 2, and the GF(2) system linearizing the products is exact.
The identity reports compare classes mod 2 as well, all in the parity
ring, with no exact arithmetic; at n = 12 they take about 0.03 s.
"""

from __future__ import annotations

import time
from collections import Counter
from functools import cache, reduce

from .circular_units import UnitWord, _galois_product
from .cyclotomic import Level, _Frozen
from .errors import (
    DisagreementError,
    EvenGaloisIndex,
    InternalInconsistency,
    LevelTooSmall,
    NonRealWord,
)
from .funnel import CERTIFIED_LEVELS, generator_system, q_word
from .gf2 import cyc_mul_f2, cyc_pow_f2, gf2_rank, pack_bits, unpack_bits
from .real_basis import (
    SpecialCoordsMod2,
    _position_labels,
    _r_mask,
    _times_d,
    special_mod2_from_parities,
)
from .version import TOOL_VERSION

__all__ = [
    "F2System",
    "Certificate",
    "word_mod2",
    "e_membership",
    "q_power_identities",
    "galois_transport_check",
    "verify_main_theorem",
]

# The exhaustive count covers all products of the first 16 coset generators
# (all generators for n <= 7) from the subset products of each half.  On
# CERTIFIED_LEVELS each class is also recomputed in Z[alpha] by _galois_product,
# whose inverses are powers of the closed form of d_1^(-1), with no division
# (one-shot words take eval_word's division), and its parities compared.
WALK_GENERATORS = 16


def _word_parities(w: UnitWord, j: int = 1) -> int:
    """Coefficient parities of sigma_j(w), as an m-bit mask, in Z[alpha]/2.

    sigma_j sends alpha to alpha^j and d_i to d_(i*j), for odd j.  Signs
    vanish mod 2, so alpha^a is bit a*j mod m.  Squaring is the Frobenius
    map, so d_(i*j)^e is the product of the sparse factors d_(i*j)^(2^k) =
    d_(2^k i j) over the set bits k of e mod 2^(n-2), each applied by
    _times_d as the mask plus its two rotations by +-2^k i j.  That
    reduction lifts negative exponents, and its premise d_(i*j)^(2^(n-2))
    = 1 mod 2 is checked for each index used.
    """
    if j % 2 == 0:
        raise EvenGaloisIndex(f"Galois index must be odd, got {j}")
    shift = w.level.n - 2
    m = 2 << shift
    parities = 1 << w.alpha_exp * j % m
    for i, e in w.d_exps:
        i *= j
        if _times_d(1, i << shift, m) != 1:
            raise InternalInconsistency(
                f"d_{i} does not have order dividing 2^(n-2) mod 2"
            )
        for k in range(shift):  # the low bits of e, two's complement if e < 0
            if e >> k & 1:
                parities = _times_d(parities, i << k, m)
    return parities


def word_mod2(w: UnitWord) -> SpecialCoordsMod2:
    """Mod-2 class of a real word in the special basis."""
    if not w.is_real():
        raise NonRealWord(
            f"word has alpha exponent {w.alpha_exp}; no real coordinates"
        )
    return special_mod2_from_parities(w.level, _word_parities(w))


def e_membership(w: UnitWord) -> bool:
    """True iff the word is congruent to 1 mod 2 (the subgroup E)."""
    return word_mod2(w).is_one()


# ---------------------------------------------------------------------- #
# identity reports


def q_power_identities(level: Level) -> dict:
    """Check the chain of congruences behind the half-power expansions.

    For each funnel step k this verifies, mod 2:
      d_1^(-2^(k-1))          is  d_{2^(n-3)} * P(k),
      d_{2^(n-1-k)-1}^(2^(k-1)) is  d_{2^(k-1)} + r_{2^(k-1)},
      q(k,1)^(2^(k-1))        is  1 + d_{2^(k-1)}^(-1) r_{2^(k-1)}
                              and  1 + P(k) r_{2^(k-1)},
      P(k)                    is  the ascending product of the d_{2^j},
    plus, once, that multiplying by d_{2^(n-3)} fixes every r_l.  All in
    Z[alpha]/2; P(k) = d_1^(2^(k-1) + ... + 2^(n-4)) by square-and-multiply,
    and every product by a single d_i, the ascending product included, by
    _times_d: the mask plus its two rotations by +-i.
    """
    n = level.n
    if n < 4:
        raise LevelTooSmall(f"identities need n >= 4, got {n}")
    m = level.degree
    quarter = 1 << (n - 3)
    # each distinct mask is converted and rendered once per report
    show = cache(lambda mask: special_mod2_from_parities(level, mask).render())
    checks = []
    for k in range(1, n - 2):
        half = 1 << (k - 1)
        inv_mask = _word_parities(UnitWord.make(level, 0, {1: -half}))
        if _times_d(inv_mask, half, m) != 1:
            raise InternalInconsistency("d_1^(-2^(k-1)) is not 1/d_{2^(k-1)} mod 2")
        # P(k) is the product of the d_i over i = 2^(k-1), ..., 2^(n-4)
        indices = [1 << i for i in range(k - 1, n - 3)]
        pk = cyc_pow_f2(_times_d(1, 1, m), sum(indices), m)
        d_mirror = _times_d(1, (1 << (n - 1 - k)) - 1, m)
        q_half = _word_parities(q_word(level, k, 1) ** half)
        r_half = _r_mask(half, m)
        d_half = _times_d(1, half, m)
        prod = reduce(lambda x, i: _times_d(x, i, m), indices, 1)
        for name, lhs, rhs in (
            ("head_inverse_power", inv_mask, _times_d(pk, quarter, m)),
            ("mirror_half_power", cyc_pow_f2(d_mirror, half, m), d_half ^ r_half),
            ("q_half_power_inverse_form", q_half, 1 ^ cyc_mul_f2(r_half, inv_mask, m)),
            ("q_half_power_p_form", q_half, 1 ^ cyc_mul_f2(r_half, pk, m)),
            ("p_factor_d_product", pk, prod),
        ):
            entry = {
                "name": name,
                "passed": lhs == rhs,
                "lhs": show(lhs),
                "rhs": show(rhs),
                "k": k,
            }
            if name == "q_half_power_p_form":
                entry["p_product"] = "*".join(f"d_{i}" for i in indices)
            checks.append(entry)

    r_masks = [_r_mask(l, m) for l in range(1, quarter)]
    fixes = all(_times_d(r, quarter, m) == r for r in r_masks)
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
        "certified_range": n in CERTIFIED_LEVELS,
        "checks": checks,
        "all_passed": all(c["passed"] for c in checks),
    }


def galois_transport_check(level: Level) -> dict:
    """Check that the automorphism sigma_j: alpha -> alpha^j moves q(k,1)
    half-powers onto the q(k,j) half-powers mod 2, and tabulate every coset
    generator.

    sigma_j sends d_i to d_(i*j), so the image of q(k,1)^(2^(k-1)) is again
    a product of sparse Frobenius factors, and each transport compares its
    class with the class of the word q(k,j)^(2^(k-1)), computed on its own:
    d_(2^(n-1-k)-j) against d_((2^(n-1-k)-1)*j).  The k = 1 block is the
    transport statement proper; higher blocks hold because raising to
    2^(k-1) multiplies sequence indices by 2^(k-1), which absorbs the index
    discrepancy into the mod-2 period.
    """
    n = level.n
    if n < 5:
        raise LevelTooSmall(f"transport needs a nontrivial A_1 block, n >= 5, got {n}")
    gens = generator_system(level).sqrt_gens
    masks = [_word_parities(lw.word) for lw in gens]
    shown = [special_mod2_from_parities(level, mask).render() for mask in masks]
    bases = {k: q_word(level, k, 1) ** (1 << (k - 1)) for k in range(1, n - 2)}
    transports = []
    for lw, lhs, text in zip(gens, masks, shown):
        if lw.k is None:
            continue
        rhs = _word_parities(bases[lw.k], lw.j)
        ok = rhs == lhs  # a transported mask is converted only if it differs
        moved = text if ok else special_mod2_from_parities(level, rhs).render()
        transports.append(
            {"label": lw.label, "passed": ok, "value": text, "transported": moved}
        )
    table = [{"label": lw.label, "value": text} for lw, text in zip(gens, shown)]
    return {
        "n": n,
        "certified_range": n in CERTIFIED_LEVELS,
        "transports": transports,
        "coset_table": table,
        "all_passed": all(t["passed"] for t in transports),
    }


# ---------------------------------------------------------------------- #
# the main theorem


class F2System(_Frozen):
    """Rank and nullity of the linearized membership system, whose columns
    are the coset-generator classes without their constant term."""

    __slots__ = ("rank", "nullity")


class Certificate(_Frozen):
    """Replayable record of one main-theorem verification run; generators
    holds SpecialCoordsMod2 classes, odd_r_subsystem a dict or None (n < 5).

    The JSON form states each fact once: a class by its coords_hex, and the
    odd-r block by its rows_hex; its rows_bits, built at n <= 7 only, stays
    in memory.  The proof ranks the class columns; matrix_rows_hex, their
    transpose into the rows of the GF(2) system, is rendered for the document.
    """

    __slots__ = (
        "level", "generators", "generator_labels", "system", "method",
        "exhaustive_assignments", "exhaustive_kernel_size", "odd_r_subsystem",
        "trivial_only", "elapsed_ms",
    )

    def to_json_dict(self, include_timing: bool = False) -> dict:
        n = self.level.n
        g = len(self.generators)
        width = max(1, (g + 3) // 4)
        # row p - 1 is B-position p; position 0, the constant 1, is dropped
        rows = _transpose([c.mask for c in self.generators], 1 << (n - 2))[1:]
        data: dict = {
            "n": n,
            "tool_version": TOOL_VERSION,
            "method": self.method,
            "generators": [
                {"label": label, "coords_hex": coords.coords_hex()}
                for label, coords in zip(self.generator_labels, self.generators)
            ],
            "row_labels": list(_position_labels(n)[1:]),
            "matrix_rows_hex": [format(row, f"0{width}x") for row in rows],
            "rank": self.system.rank,
            "nullity": self.system.nullity,
            "verdict": "trivial_only" if self.trivial_only else "kernel_nontrivial",
            "exhaustive_assignments": self.exhaustive_assignments,
            "exhaustive_kernel_size": self.exhaustive_kernel_size,
        }
        if self.odd_r_subsystem is not None:
            data["odd_r_subsystem"] = {
                k: v for k, v in self.odd_r_subsystem.items() if k != "rows_bits"
            }
        data["elapsed_ms"] = round(self.elapsed_ms, 3) if include_timing else 0
        return data


def _norm_mod2(mask: int, m: int) -> int:
    """The relative norm x(alpha) * x(-alpha) mod 2, read in beta = alpha^2,
    of the x whose parity mask has bits c_i: mod 2 it is x(alpha)^2, and
    beta^(m/2) = 1, so bit i is c_i + c_(i + m/2).  A coset-generator class has norm 1 at
    every n, a theorem (see the README); the verifier's call cross-checks
    it."""
    return (mask ^ mask >> m // 2) & ((1 << m // 2) - 1)


def _subset_products(masks: list[int], m: int) -> list[bytes]:
    """The products of all 2^len(masks) subsets of masks in Z[alpha]/2, as
    little-endian byte strings of 2m bits (m a multiple of 4); entry k is
    the product of the masks[i] with bit i set in k.

    The products are formed packed in one int, product k in slot k of 2m
    bits.  Each mask multiplies every product so far in one cyc_mul_f2
    call, one shift per set bit of the mask, at the width of the whole
    int: no raw product reaches it, so nothing wraps and each slot holds a
    raw product of fewer than 2m bits.  One fold per slot reduces those mod
    alpha^m = 1, and the results fill the next as many slots.
    """
    products, low, width = 1, (1 << m) - 1, 2 * m
    for mask in masks:
        raw = cyc_mul_f2(mask, products, width)
        products |= ((raw ^ (raw >> m)) & low) << width
        low |= low << width
        width *= 2
    size = m // 4
    data = products.to_bytes(width // 8, "little")
    return [data[i : i + size] for i in range(0, len(data), size)]


def _exhaustive_kernel(masks: list[int], m: int) -> tuple[int, int]:
    """Count the delta-assignments whose product is 1, over all 2^g of them.

    Returns (assignments, number of products equal to 1).  Each mask is
    checked to be an involution by its own square, which mod 2 is
    x(alpha^2), the fold of _norm_mod2 spread onto the even bits: the
    square-zero lemma's per-class statement.  Z[alpha]/2 is commutative, so
    every subset product is its own inverse: splitting the masks in two
    halves, P_A * P_B = 1 iff P_A = P_B, and the count meets the two halves'
    products in the middle, with neither linearity nor a rank.
    """
    for mask in masks:
        if cyc_mul_f2(mask, mask, m) != 1:
            raise InternalInconsistency("coset generator mask is not an involution")
    half = len(masks) // 2
    counts = Counter(_subset_products(masks[:half], m))
    hits = sum(counts[p] for p in _subset_products(masks[half:], m))
    return 1 << len(masks), hits


def _transpose(masks: list[int], width: int) -> list[int]:
    """GF(2) rows from column masks: row r < width has bit i set iff
    masks[i] has bit r set.  zip reads the masks' low bit strings (lowest
    bit first, last mask first) position by position."""
    columns = [format(x, f"0{width}b")[::-1][:width] for x in reversed(masks)]
    return [int("".join(bits), 2) for bits in zip(*columns)]


def verify_main_theorem(level: Level) -> Certificate:
    """Decide whether only the trivial coset product is congruent to 1.

    Each class 1 + x_i is checked to have relative norm 1 mod 2 (_norm_mod2)
    before it is read in B.  Mod 2 the norm is additive, and that of x_i is
    the low half of (1 + alpha^(m/2)) * x_i, whose high half repeats it, so
    the class has norm 1 exactly when x_i lies in the ideal (pi^(m/2)),
    pi = 1 + alpha, the kernel of pi^(m/2) = 1 + alpha^(m/2).  This test
    cross-checks the square-zero lemma, a theorem at every n (README).  The
    ideal squares to 0 mod 2, so prod (1 + x_i)^(delta_i) = 1 + sum delta_i
    x_i and nullity 0 of the linearized system is a proof at every n.  The
    exhaustive count over all products of the first WALK_GENERATORS
    generators must agree with it.  The count uses neither linearity nor
    the rank; its premise, that every class squares to 1, is the lemma's
    per-class statement, which it checks with its own product.  A true
    verdict pins the intersection of sqrt(F) with E to F.
    """
    n = level.n
    started = time.perf_counter()
    m = level.degree
    system = generator_system(level)
    gens = system.sqrt_gens
    g = len(gens)

    classes = []
    masks = []
    for lw in gens:
        mask = _word_parities(lw.word)
        if _norm_mod2(mask, m) != 1:
            raise InternalInconsistency(
                f"square-zero lemma fails: the class of {lw.label} is not 1 "
                "plus an element of (1 + alpha)^(m/2) mod 2"
            )
        if n in CERTIFIED_LEVELS:
            exact = _galois_product(lw.word)
            if not exact.is_real() or pack_bits(exact.coeffs) != mask:
                raise InternalInconsistency(
                    f"{lw.label}: parity-ring class disagrees with exact evaluation"
                )
        classes.append(special_mod2_from_parities(level, mask))
        masks.append(mask)

    # column i is the class of generator i without position 0, the constant 1
    columns = [c.mask >> 1 for c in classes]
    rank = gf2_rank(columns)
    f2 = F2System(rank=rank, nullity=g - rank)

    walked = min(g, WALK_GENERATORS)
    exhaustive_assignments, kernel_size = _exhaustive_kernel(masks[:walked], m)
    walk_nullity = walked - gf2_rank(columns[:walked])
    if kernel_size != (1 << walk_nullity):
        raise DisagreementError(
            f"exhaustive kernel has {kernel_size} elements, linearized "
            f"system predicts {1 << walk_nullity}"
        )
    method = "exhaustive+linearized" if walked == g else "square-zero+linearized"

    odd_r = None
    if n >= 5:
        quarter = 1 << (n - 3)
        block = [i for i, lw in enumerate(gens) if lw.k == 1]
        rows = _transpose([classes[i].mask for i in block], 2 * quarter)
        sub_rows = rows[quarter + 1 :: 2]
        sub_rank = gf2_rank(sub_rows)
        sub_width = max(1, (len(block) + 3) // 4)
        odd_r = {
            "column_variables": [gens[i].label for i in block],
            "column_indices": block,
            "row_labels": list(_position_labels(n)[quarter + 1 :: 2]),
            "rows_hex": [format(r, f"0{sub_width}x") for r in sub_rows],
            "rank": sub_rank,
            "full_rank": sub_rank == len(block) == len(sub_rows),
        }
        if n in CERTIFIED_LEVELS:
            odd_r["rows_bits"] = [unpack_bits(r, len(block)) for r in sub_rows]

    elapsed_ms = (time.perf_counter() - started) * 1000.0
    return Certificate(
        level=level,
        generators=tuple(classes),
        generator_labels=tuple(lw.label for lw in gens),
        system=f2,
        method=method,
        exhaustive_assignments=exhaustive_assignments,
        exhaustive_kernel_size=kernel_size,
        odd_r_subsystem=odd_r,
        trivial_only=f2.nullity == 0,
        elapsed_ms=elapsed_ms,
    )
