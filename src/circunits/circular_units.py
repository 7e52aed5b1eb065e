"""Circular units as formal words over alpha and the generators d_j = 1 + s_j.

The unit group of interest splits as the roots of unity times the free
abelian group D on d_1, d_3, ..., d_{2^(n-1)-3}.  Words keep the
factorization, which is what subgroup questions need; evaluation to an
exact ring element is always available.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache, reduce
from operator import mul, neg

from .cyclotomic import CycInt, Level, _Frozen, _times_1_plus_s, _wrapped
from .errors import IndexOutOfRange, InternalInconsistency, LevelMismatch
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


class UnitWord(_Frozen):
    """Formal product alpha^a * prod d_j^{e_j} with j in the generator set."""

    __slots__ = ("level", "alpha_exp", "d_exps")

    def __init__(
        self, level: Level, alpha_exp: int, d_exps: tuple[tuple[int, int], ...]
    ) -> None:
        if not isinstance(alpha_exp, int):
            shown = type(alpha_exp).__name__
            raise TypeError(f"alpha exponent must be an int, got {shown}")
        if not 0 <= alpha_exp < level.order:
            raise ValueError("alpha exponent must be stored reduced; use make()")
        allowed_max = level.degree - 3
        last = 0
        for j, e in d_exps:
            if not isinstance(j, int):
                raise TypeError(f"d-index must be an int, got {type(j).__name__}")
            if not isinstance(e, int):
                raise TypeError(f"d-exponent must be an int, got {type(e).__name__}")
            if j % 2 == 0 or not 1 <= j <= allowed_max:
                raise IndexOutOfRange(
                    f"d-index {j} outside the generator set at n={level.n}"
                )
            if j <= last:
                raise ValueError("d-exponents must be sorted by index")
            if e == 0:
                raise ValueError("zero exponents must be dropped; use make()")
            last = j
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "alpha_exp", alpha_exp)
        object.__setattr__(self, "d_exps", d_exps)

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

    def is_real(self) -> bool:
        return self.alpha_exp == 0

    def __mul__(self, other: UnitWord) -> UnitWord:
        if other.__class__ is not UnitWord:
            return NotImplemented
        if self.level != other.level:
            raise LevelMismatch("cannot multiply words at different levels")
        exps = dict(self.d_exps)
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


def parse_word(level: Level, text: str) -> UnitWord:
    """Parse the CLI word syntax, e.g. 'a^3 * d1^-2 * d7^2'.  re is imported
    here, not with the package, which otherwise never needs it."""
    import re

    factor = re.compile(r"(?:(a)|d([0-9]+))(?:\^(-?[0-9]+))?")
    squeezed = text.replace(" ", "").replace("\t", "")
    if squeezed in ("", "1"):
        return UnitWord.identity(level)
    alpha_exp = 0
    exps: dict[int, int] = {}
    for token in squeezed.split("*"):
        match = factor.fullmatch(token)
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
    """d_1^e: d_j^e is its Galois image sigma_j(d_1^e), so one power per
    exponent serves every index.  A negative e raises the seed _d_seed(n),
    so no power descends the tower and none is made from another entry."""
    base = seq_d(Level(n), 1) if e >= 0 else _d_seed(n)
    return base ** abs(e)


@lru_cache(maxsize=None)
def _d_seed(n: int) -> CycInt:
    """d_1^(-1): _times_d_inverse applied to 1, checked by one product."""
    level = Level(n)
    seed = CycInt(level, tuple(_times_d_inverse([1] + [0] * (level.degree - 1), 1, n)))
    if seq_d(level, 1) * seed != CycInt.one(level):
        raise InternalInconsistency("the closed form of d_1^(-1) is not its inverse")
    return seed


def _times_d_inverse(x: list[int], j: int, n: int) -> list[int]:
    """x * d_j^(-1) with no division: d_i * (1 - s_i) = 1 - s_i^2 = -d_(2i), and
    d_(2^(n-2) j) = 1 for odd j, so d_j^(-1) = (-1)^n prod_(t<n-2) (1 - s_(2^t j))."""
    for t in range(n - 2):
        x = _times_1_plus_s(x, j << t, -1)
    return list(map(neg, x)) if n % 2 else x


def eval_word(w: UnitWord) -> CycInt:
    """Exact ring element of a word, with no division: one square-and-multiply
    pass down the bits of the largest |e_j|, each bit a square, then d_j or
    _times_d_inverse for each j with the bit set in |e_j|; alpha^a last, as
    a signed rotation.  Its norm is 1 by construction: marked known_unit."""
    n, m = w.level.n, w.level.degree
    value = [1] + [0] * (m - 1)
    top = max([abs(e) for _, e in w.d_exps], default=0).bit_length()
    for k in reversed(range(top)):
        if k < top - 1:
            value = _wrapped(value, value, -1)
        for j, e in w.d_exps:
            if e > 0 and e >> k & 1:
                value = _times_1_plus_s(value, j, 1)
            elif e < 0 and -e >> k & 1:
                value = _times_d_inverse(value, j, n)
    a = w.alpha_exp & (m - 1)  # alpha^a: the top a terms wrap round, negated
    head, low = value[m - a :], value[: m - a]
    value = [*head, *map(neg, low)] if w.alpha_exp & m else [*map(neg, head), *low]
    return CycInt(w.level, tuple(value), known_unit=True)


def _galois_product(w: UnitWord) -> CycInt:
    """The value of a word of d-factors only, no alpha power, with no
    division: one product of the Galois images of cached d_1 powers, the
    inverses among them included.  Each factor has norm 1, so the value is
    marked known_unit."""
    value = reduce(mul, [_d_power(w.level.n, e).galois(j) for j, e in w.d_exps])
    return CycInt(w.level, value.coeffs, known_unit=True)


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
