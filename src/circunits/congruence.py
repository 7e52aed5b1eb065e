"""Mod-2 congruence calculus on unit words and the main-theorem verifier.

A word w in the d-generators has a mod-2 class in the special basis B,
computed in the parity ring Z[alpha]/2.  The subgroup E consists of the
words congruent to 1.  The verifier proves at every n that no nontrivial
product of sqrt(F)/F coset generators lands in E, by a checked square-zero
lemma: each class minus 1 is annihilated by 1 + alpha^(m/2) mod 2, so it
lies in an ideal whose square is 0 mod 2, and the GF(2) system linearizing
the products is exact.
The identity reports compare classes mod 2 as well, all in the parity
ring, with no exact arithmetic; at n = 12 they take about 0.2 s.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass

from .circular_units import UnitWord, eval_word
from .cyclotomic import Level
from .errors import (
    DisagreementError,
    EvenGaloisIndex,
    IndexOutOfRange,
    InternalInconsistency,
    LevelTooSmall,
    NonRealWord,
)
from .funnel import generator_system, q_word
from .gf2 import cyc_mul_f2, cyc_pow_f2, gf2_rank, unpack_bits
from .real_basis import (
    SpecialCoordsMod2,
    _position_labels,
    _r_mask,
    _s_mask,
    special_mod2,
    special_mod2_from_parities,
)
from .version import TOOL_VERSION

__all__ = [
    "F2System",
    "Certificate",
    "word_mod2",
    "e_membership",
    "p_factor_indices",
    "q_power_identities",
    "galois_transport_check",
    "verify_main_theorem",
    "WALK_GENERATORS",
]

# The exhaustive count covers all products of the first 16 coset generators
# (all generators for n <= 7) from the subset products of each half; up to
# n = 7 every class is also recomputed by exact evaluation.
WALK_GENERATORS = 16
EXACT_CHECK_MAX_N = 7


def _word_parities(w: UnitWord, j: int = 1) -> int:
    """Coefficient parities of sigma_j(w), as an m-bit mask, in Z[alpha]/2.

    sigma_j sends alpha to alpha^j and d_i to d_(i*j), for odd j.  Signs
    vanish mod 2, so alpha^a is bit a*j mod m.  Squaring is the Frobenius
    map, so d_(i*j)^e is the product of the sparse factors d_(i*j)^(2^k) =
    1 + s_(2^k i j) over the set bits k of e mod 2^(n-2).  That reduction
    lifts negative exponents, and its premise d_(i*j)^(2^(n-2)) = 1 mod 2
    is checked for each index used.
    """
    if j % 2 == 0:
        raise EvenGaloisIndex(f"Galois index must be odd, got {j}")
    level = w.level
    m = level.degree
    shift = level.n - 2
    parities = 1 << w.alpha_exp * j % m
    for i, e in w.d_exps:
        i *= j
        if _s_mask(level, i << shift):
            raise InternalInconsistency(
                f"d_{i} does not have order dividing 2^(n-2) mod 2"
            )
        for k in range(shift):  # the low bits of e, two's complement if e < 0
            if e >> k & 1:
                parities = cyc_mul_f2(1 ^ _s_mask(level, i << k), parities, m)
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
# the product factors P(k)


def p_factor_indices(level: Level, k: int) -> tuple[int, ...]:
    """Indices 2^(k-1), ..., 2^(n-4) of the mod-2 d-product form of P(k)."""
    if not 1 <= k <= level.n - 3:
        raise IndexOutOfRange(
            f"P-factor index must lie in 1..{level.n - 3}, got {k}"
        )
    return tuple(1 << j for j in range(k - 1, level.n - 3))


# ---------------------------------------------------------------------- #
# identity reports


def _check_entry(name: str, level: Level, lhs: int, rhs: int, **extra):
    """Compare two parity masks; report them by their B-classes."""
    entry = {
        "name": name,
        "passed": lhs == rhs,
        "lhs": special_mod2_from_parities(level, lhs).render(),
        "rhs": special_mod2_from_parities(level, rhs).render(),
    }
    entry.update(extra)
    return entry


def q_power_identities(level: Level) -> dict:
    """Check the chain of congruences behind the half-power expansions.

    For each funnel step k this verifies, mod 2:
      d_1^(-2^(k-1))          is  d_{2^(n-3)} * P(k),
      d_{2^(n-1-k)-1}^(2^(k-1)) is  d_{2^(k-1)} + r_{2^(k-1)},
      q(k,1)^(2^(k-1))        is  1 + d_{2^(k-1)}^(-1) r_{2^(k-1)}
                              and  1 + P(k) r_{2^(k-1)},
      P(k)                    is  the ascending product of the d_{2^j},
    plus, once, that multiplying by d_{2^(n-3)} fixes every r_l.  All in
    Z[alpha]/2; P(k) = d_1^(2^(k-1) + ... + 2^(n-4)) by square-and-multiply.
    """
    n = level.n
    if n < 4:
        raise LevelTooSmall(f"identities need n >= 4, got {n}")
    m = level.degree
    quarter = 1 << (n - 3)
    head_mask = 1 ^ _s_mask(level, quarter)
    checks = []
    for k in range(1, n - 2):
        half = 1 << (k - 1)
        indices = p_factor_indices(level, k)
        pk = cyc_pow_f2(1 ^ _s_mask(level, 1), sum(indices), m)
        inv_mask = _word_parities(UnitWord.make(level, 0, {1: -half}))
        rhs = cyc_mul_f2(head_mask, pk, m)
        checks.append(_check_entry("head_inverse_power", level, inv_mask, rhs, k=k))

        mirror = (1 << (n - 1 - k)) - 1
        lhs = cyc_pow_f2(1 ^ _s_mask(level, mirror), half, m)
        rhs = 1 ^ _s_mask(level, half) ^ _r_mask(level, half)
        checks.append(_check_entry("mirror_half_power", level, lhs, rhs, k=k))

        q_half = _word_parities(q_word(level, k, 1) ** half)

        if cyc_mul_f2(1 ^ _s_mask(level, half), inv_mask, m) != 1:
            raise InternalInconsistency("d_1^(-2^(k-1)) is not 1/d_{2^(k-1)} mod 2")
        rhs = 1 ^ cyc_mul_f2(_r_mask(level, half), inv_mask, m)
        checks.append(
            _check_entry("q_half_power_inverse_form", level, q_half, rhs, k=k)
        )

        rhs = 1 ^ cyc_mul_f2(_r_mask(level, half), pk, m)
        checks.append(
            _check_entry(
                "q_half_power_p_form",
                level,
                q_half,
                rhs,
                k=k,
                p_product="*".join(f"d_{i}" for i in indices),
            )
        )

        prod = 1
        for i in indices:
            prod = cyc_mul_f2(1 ^ _s_mask(level, i), prod, m)
        checks.append(_check_entry("p_factor_d_product", level, pk, prod, k=k))

    r_masks = [_r_mask(level, l) for l in range(1, quarter)]
    fixes = all(cyc_mul_f2(r, head_mask, m) == r for r in r_masks)
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
    classes = [word_mod2(lw.word) for lw in gens]
    shown = [value.render() for value in classes]
    bases = {k: q_word(level, k, 1) ** (1 << (k - 1)) for k in range(1, n - 2)}
    transports = []
    for lw, lhs, text in zip(gens, classes, shown):
        if lw.k is None:
            continue
        rhs = special_mod2_from_parities(level, _word_parities(bases[lw.k], lw.j))
        transports.append(
            {
                "label": lw.label,
                "passed": lhs == rhs,
                "value": text,
                "transported": rhs.render(),
            }
        )
    table = [{"label": lw.label, "value": text} for lw, text in zip(gens, shown)]
    return {
        "n": n,
        "certified_range": 5 <= n <= 7,
        "transports": transports,
        "coset_table": table,
        "all_passed": all(t["passed"] for t in transports),
    }


# ---------------------------------------------------------------------- #
# the main theorem


@dataclass(frozen=True, slots=True)
class F2System:
    """Rank and nullity of the linearized membership system, whose columns
    are the coset-generator classes without their constant term."""

    rank: int
    nullity: int


@dataclass(frozen=True, slots=True)
class Certificate:
    """Replayable record of one main-theorem verification run.

    The JSON form states each fact once: a class by its coords_hex, and the
    odd-r block by its rows_hex.  rows_bits is kept in memory only.  The
    proof ranks the class columns; matrix_rows_hex, their transpose into
    the rows of the GF(2) system, is rendered here for the document.
    """

    level: Level
    generators: tuple[SpecialCoordsMod2, ...]
    generator_labels: tuple[str, ...]
    system: F2System
    method: str
    exhaustive_assignments: int
    exhaustive_kernel_size: int
    odd_r_subsystem: dict | None
    trivial_only: bool
    elapsed_ms: float

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


def _in_square_zero_ideal(level: Level, x: int) -> bool:
    """True iff the parity mask x lies in the ideal (pi^(m/2)) of
    Z[alpha]/2 = F_2[pi]/(pi^m), pi = 1 + alpha, whose square is 0.

    In a chain ring (pi^(m/2)) is the kernel of multiplication by pi^(m/2)
    = 1 + alpha^(m/2), the x with c_j = c_(j+m/2) for all j.  A real x has
    c_j = c_(-j) and c_(m/2) = 0, so its coefficients are constant on the
    orbits of {+-1, +m/2} on Z/m: {0, m/2}, which must be 0, {+-m/4},
    which gives s_(m/4), and {+-t, m/2 +- t} for 0 < t < m/4, which gives
    r_t.  So the real part of the ideal is exactly V = span(s_q, r_1, ...,
    r_(q-1)), q = m/4 = 2^(n-3).
    """
    return not cyc_mul_f2(1 | 1 << level.degree // 2, x, level.degree)


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

    Returns (assignments, number of products equal to 1).  Each mask is an
    involution and Z[alpha]/2 is commutative, so every subset product is
    its own inverse: splitting the masks in two halves, P_A * P_B = 1 iff
    P_A = P_B, and the count meets the two halves' products in the middle.
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

    Each class is checked to be 1 + x_i with x_i in the ideal (pi^(m/2)),
    one product per class, before it is read in B.  The ideal squares to 0
    mod 2, so prod (1 + x_i)^(delta_i) = 1 + sum delta_i x_i and nullity 0
    of the linearized system is a proof at every n.  The exhaustive count
    over all products of the first WALK_GENERATORS generators, which uses
    neither the lemma nor linearity, must agree with it.  A true verdict
    pins the intersection of sqrt(F) with E to F.
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
        if not _in_square_zero_ideal(level, mask ^ 1):
            raise InternalInconsistency(
                f"square-zero lemma fails: the class of {lw.label} is not 1 "
                "plus an element of (1 + alpha)^(m/2) mod 2"
            )
        coords = special_mod2_from_parities(level, mask)
        if n <= EXACT_CHECK_MAX_N and special_mod2(eval_word(lw.word)) != coords:
            raise InternalInconsistency(
                f"{lw.label}: parity-ring class disagrees with exact evaluation"
            )
        classes.append(coords)
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
            "rows_bits": [unpack_bits(r, len(block)) for r in sub_rows],
            "rank": sub_rank,
            "full_rank": sub_rank == len(block) == len(sub_rows),
        }

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
