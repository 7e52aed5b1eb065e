"""Circular units as formal words over alpha and the generators d_j = 1 + s_j.

The unit group of interest splits as the roots of unity times the free
abelian group D on d_1, d_3, ..., d_{2^(n-1)-3}.  Words keep the
factorization, which is what subgroup questions need; evaluation to an
exact ring element is always available.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import mul
from typing import Mapping

from .cyclotomic import CycInt, Level, _divide
from .errors import IndexOutOfRange, LevelMismatch
from .real_basis import seq_d

__all__ = [
    "UnitWord",
    "d_index_set",
    "beta",
    "eval_word",
    "parse_word",
]


def d_index_set(level: Level) -> tuple[int, ...]:
    """The 2^(n-2)-1 generator indices 1, 3, ..., 2^(n-1)-3."""
    return tuple(range(1, level.degree - 2, 2))


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

    def __pow__(self, exponent: int) -> UnitWord:
        return UnitWord.make(
            self.level,
            self.alpha_exp * exponent,
            {j: e * exponent for j, e in self.d_exps},
        )

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


_WORD_TOKEN = re.compile(r"(?:(a)|d([0-9]+))(?:\^(-?[0-9]+))?")


def parse_word(level: Level, text: str) -> UnitWord:
    """Parse the CLI word syntax, e.g. 'a^3 * d1^-2 * d7^2'."""
    squeezed = text.replace(" ", "").replace("\t", "")
    if squeezed in ("", "1"):
        return UnitWord.identity(level)
    alpha_exp = 0
    exps: dict[int, int] = {}
    for token in squeezed.split("*"):
        match = _WORD_TOKEN.fullmatch(token)
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
def _d_power(n: int, e: int) -> CycInt:
    """d_1^e, e > 0: d_j^e is its Galois image sigma_j(d_1^e), so one power
    per exponent serves every index."""
    return seq_d(Level(n), 1) ** e


def eval_word(w: UnitWord) -> CycInt:
    """Exact ring element of a word: alpha^a times its positive d-powers,
    divided once by the product of its negative ones.  The value has norm
    1 by construction and is marked known_unit."""
    n = w.level.n
    above = [_d_power(n, e).galois(j) for j, e in w.d_exps if e > 0]
    below = [_d_power(n, -e).galois(j) for j, e in w.d_exps if e < 0]
    if w.alpha_exp or not w.d_exps:  # alpha^0 = 1 is the empty word's value
        above.append(CycInt.monomial(w.level, w.alpha_exp))
    value = reduce(mul, above).coeffs if above else None
    if below:
        value = _divide(value, reduce(mul, below).coeffs)
    return CycInt(w.level, tuple(value), known_unit=True)


# ---------------------------------------------------------------------- #
# the units 1 + alpha^{3^l} + alpha^{2*3^l}


def beta(level: Level, l: int) -> CycInt:
    """The unit 1 + alpha^{3^l} + alpha^{2*3^l}."""
    if not 0 <= l <= (1 << (level.n - 2)) - 1:
        raise IndexOutOfRange(
            f"beta index must lie in 0..{(1 << (level.n - 2)) - 1}, got {l}"
        )
    t = pow(3, l, level.order)
    return CycInt.from_terms(level, [(0, 1), (t, 1), (2 * t, 1)])
