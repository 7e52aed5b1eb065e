"""Circular units as formal words over alpha and the generators d_j = 1 + s_j.

The unit group of interest splits as the roots of unity times the free
abelian group D on d_1, d_3, ..., d_{2^(n-1)-3}.  Words keep the
factorization, which is what subgroup questions need; evaluation to an
exact ring element is always available.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

from .cyclotomic import CycInt, Level
from .errors import (
    IndexOutOfRange,
    InternalInconsistency,
    LevelMismatch,
    NotAUnit,
    NotIntegral,
)
from .real_basis import seq_d

__all__ = [
    "UnitWord",
    "PWord",
    "d_index_set",
    "fold_d_index",
    "beta",
    "eval_word",
    "p_word_is_unit",
    "eval_p_word",
    "p_word_to_unit_word",
    "parse_word",
]


def d_index_set(level: Level) -> tuple[int, ...]:
    """The 2^(n-2)-1 generator indices 1, 3, ..., 2^(n-1)-3."""
    return tuple(range(1, level.degree - 2, 2))


def fold_d_index(level: Level, j: int) -> int:
    """Reduce any odd j into 1..2^(n-1)-1 using d_{2^n - j} = d_j exactly."""
    t = j % level.order
    if t % 2 == 0:
        raise IndexOutOfRange(f"d-index must be odd, got {j}")
    return t if t < level.degree else level.order - t


@dataclass(frozen=True, slots=True)
class UnitWord:
    """Formal product alpha^a * prod d_j^{e_j} with j in the generator set."""

    level: Level
    alpha_exp: int
    d_exps: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not 0 <= self.alpha_exp < self.level.order:
            raise ValueError("alpha exponent must be stored reduced; use make()")
        allowed_max = self.level.degree - 3
        last = 0
        for j, e in self.d_exps:
            if j % 2 == 0 or not 1 <= j <= allowed_max:
                raise IndexOutOfRange(
                    f"d-index {j} outside the generator set at n={self.level.n}"
                )
            if j <= last:
                raise ValueError("d-exponents must be sorted by index")
            if e == 0:
                raise ValueError("zero exponents must be dropped; use make()")
            last = j

    @classmethod
    def make(
        cls,
        level: Level,
        alpha_exp: int = 0,
        d_exps: Mapping[int, int] | None = None,
    ) -> UnitWord:
        pairs = []
        if d_exps:
            for j in sorted(d_exps):
                e = d_exps[j]
                if e:
                    pairs.append((j, e))
        return cls(level, alpha_exp % level.order, tuple(pairs))

    @classmethod
    def identity(cls, level: Level) -> UnitWord:
        return cls(level, 0, ())

    @property
    def d_exp_map(self) -> dict[int, int]:
        return dict(self.d_exps)

    def is_real(self) -> bool:
        return self.alpha_exp == 0

    def __mul__(self, other: UnitWord) -> UnitWord:
        if self.level != other.level:
            raise LevelMismatch("cannot multiply words at different levels")
        exps = self.d_exp_map
        for j, e in other.d_exps:
            exps[j] = exps.get(j, 0) + e
        return UnitWord.make(self.level, self.alpha_exp + other.alpha_exp, exps)

    def inverse(self) -> UnitWord:
        return UnitWord.make(
            self.level,
            -self.alpha_exp,
            {j: -e for j, e in self.d_exps},
        )

    def __pow__(self, exponent: int) -> UnitWord:
        return UnitWord.make(
            self.level,
            self.alpha_exp * exponent,
            {j: e * exponent for j, e in self.d_exps},
        )

    def exponent_vector(self) -> tuple[int, ...]:
        """Exponents over the full generator set, for lattice arithmetic."""
        vec = [0] * (len(d_index_set(self.level)))
        for j, e in self.d_exps:
            vec[(j - 1) // 2] = e
        return tuple(vec)

    def render(self) -> str:
        parts = []
        if self.alpha_exp:
            parts.append("a" if self.alpha_exp == 1 else f"a^{self.alpha_exp}")
        for j, e in self.d_exps:
            parts.append(f"d{j}" if e == 1 else f"d{j}^{e}")
        return " * ".join(parts) if parts else "1"

    def to_json_dict(self) -> dict:
        return {
            "alpha": self.alpha_exp,
            "d": {str(j): e for j, e in self.d_exps},
        }

    @classmethod
    def from_json_dict(cls, level: Level, data: dict) -> UnitWord:
        return cls.make(
            level,
            int(data.get("alpha", 0)),
            {int(j): int(e) for j, e in data.get("d", {}).items()},
        )


_WORD_TOKEN = re.compile(r"^(?:(a)|d(\d+))(?:\^(-?\d+))?$")


def parse_word(level: Level, text: str) -> UnitWord:
    """Parse the CLI word syntax, e.g. 'a^3 * d1^-2 * d7^2'."""
    squeezed = text.replace(" ", "").replace("\t", "")
    if squeezed in ("", "1"):
        return UnitWord.identity(level)
    alpha_exp = 0
    exps: dict[int, int] = {}
    for token in squeezed.split("*"):
        match = _WORD_TOKEN.match(token)
        if match is None:
            raise ValueError(f"cannot parse word factor {token!r}")
        exponent = int(match.group(3)) if match.group(3) else 1
        if match.group(1):
            alpha_exp += exponent
        else:
            j = int(match.group(2))
            exps[j] = exps.get(j, 0) + exponent
    return UnitWord.make(level, alpha_exp, exps)


# ---------------------------------------------------------------------- #
# evaluation


@lru_cache(maxsize=None)
def _d_power(n: int, j: int, e: int) -> CycInt:
    return seq_d(Level(n), j) ** e


def eval_word(w: UnitWord) -> CycInt:
    """Exact ring element of a word; negative exponents go through inversion."""
    acc = CycInt.monomial(w.level, w.alpha_exp)
    for j, e in w.d_exps:
        acc = acc * _d_power(w.level.n, j, e)
    return acc


# ---------------------------------------------------------------------- #
# products of the 1 - alpha^{3^l}


def beta(level: Level, l: int) -> CycInt:
    """The unit 1 + alpha^{3^l} + alpha^{2*3^l}."""
    if not 0 <= l <= (1 << (level.n - 2)) - 1:
        raise IndexOutOfRange(
            f"beta index must lie in 0..{(1 << (level.n - 2)) - 1}, got {l}"
        )
    t = pow(3, l, level.order)
    return CycInt.from_terms(level, [(0, 1), (t, 1), (2 * t, 1)])


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

