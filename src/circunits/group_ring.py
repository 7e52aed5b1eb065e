"""Normalized units of the integral group ring of a cyclic 2-power group.

The construction takes a real unit beta of Z[alpha] congruent to 1 mod 2
and produces the element sum gamma_j x^j of Z[C_{2^n}] whose coefficients
are scaled traces of (beta - 1) alpha^(-j).  Integrality of those traces
characterizes exactly the admissible beta, which makes the construction a
bridge between the congruence subgroup E and group-ring units.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circular_units import eval_word
from .cyclotomic import CycInt, Level, convolve
from .errors import LevelMismatch, LevelTooSmall, NotAUnit, NotIntegral
from .funnel import generator_system
from .gf2 import pack_bits

__all__ = [
    "GroupRingElt",
    "V1Report",
    "u_chi1",
    "is_admissible",
    "gr_mul",
    "v1_generators",
]


@dataclass(frozen=True, slots=True)
class GroupRingElt:
    """Element of Z[C_{2^n}]; coeffs[j] is the coefficient of x^j."""

    level: Level
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.level.order:
            raise ValueError(
                f"need {self.level.order} coefficients at n={self.level.n}, "
                f"got {len(self.coeffs)}"
            )

    @classmethod
    def identity(cls, level: Level) -> GroupRingElt:
        return cls.x_power(level, 0)

    @classmethod
    def x_power(cls, level: Level, j: int) -> GroupRingElt:
        coeffs = [0] * level.order
        coeffs[j % level.order] = 1
        return cls(level, tuple(coeffs))

    def augmentation(self) -> int:
        return sum(self.coeffs)

    def apply_character(self, value: CycInt) -> CycInt:
        """Substitute a 2^n-th root of unity value = +-alpha^j for x.

        With value = alpha^k (k = j, or j + 2^(n-1) for -alpha^j), the
        image is sum c_i alpha^(i*k).  Any other value raises ValueError:
        x has order 2^n, so only roots of unity give a homomorphism.
        """
        support = [(j, c) for j, c in enumerate(value.coeffs) if c]
        if len(support) != 1 or support[0][1] not in (1, -1):
            raise ValueError("character value must be a root of unity +-alpha^j")
        ((j, sign),) = support
        k = j if sign == 1 else j + value.level.degree
        return CycInt.from_terms(
            value.level, ((i * k, c) for i, c in enumerate(self.coeffs) if c)
        )

    def to_json_dict(self) -> dict:
        return {"n": self.level.n, "coeffs": [str(c) for c in self.coeffs]}


def gr_mul(a: GroupRingElt, b: GroupRingElt) -> GroupRingElt:
    """Cyclic convolution; x^(2^n) = 1."""
    if a.level != b.level:
        raise LevelMismatch("group ring elements live at different levels")
    size = a.level.order
    full = convolve(a.coeffs, b.coeffs)
    return GroupRingElt(a.level, tuple(full[k] + full[k + size] for k in range(size)))


def _require_one_mod2(parities: int) -> None:
    """Refuse a beta whose parity mask is not 1, naming the first odd x^j."""
    odd = parities ^ 1
    if odd:
        j = (odd & -odd).bit_length() - 1
        raise NotIntegral(f"trace coefficient at x^{j} is odd; beta is not 1 mod 2")


def u_chi1(beta: CycInt) -> GroupRingElt:
    """The normalized group-ring unit attached to an admissible beta.

    gamma_0 = 1 + trace(beta - 1) / 2^n and gamma_j = trace((beta - 1)
    alpha^(-j)) / 2^n.  Written out on reduced coordinates c = beta - 1:
    gamma_j = c_j / 2 below the fold and -c_{j - m} / 2 above it.  Every
    division must be exact, otherwise beta was not congruent to 1 mod 2.
    """
    nrm = beta.norm()
    if nrm not in (1, -1):
        raise NotAUnit(f"norm is {nrm}, not +-1")
    return _gammas(beta)


def _gammas(beta: CycInt) -> GroupRingElt:
    """u_chi1 without the norm check, for a beta known to be a unit, such
    as the value of a word in alpha and the d_j."""
    _require_one_mod2(pack_bits(beta.coeffs))
    level = beta.level
    c = (beta - CycInt.one(level)).coeffs
    gammas = [x // 2 for x in c] + [-x // 2 for x in c]
    gammas[0] += 1
    return GroupRingElt(level, tuple(gammas))


def is_admissible(beta: CycInt) -> bool:
    """True iff beta is a real unit congruent to 1 mod 2.

    Units congruent to 1 mod 2 are automatically real, so this predicate
    matches exactly the inputs on which u_chi1 succeeds.
    """
    nrm = beta.norm()
    if nrm not in (1, -1):
        raise NotAUnit(f"norm is {nrm}, not +-1")
    return beta.is_real() and beta.is_congruent_one_mod2()


@dataclass(frozen=True, slots=True)
class V1Report:
    """Images of the F generators, with the torsion part of W_1 alongside.

    W_1 splits as the group generated by x^(2^(n-1)) times V_1; only the
    circular-unit slice of V_1 is constructed here.
    """

    level: Level
    labels: tuple[str, ...]
    images: tuple[GroupRingElt, ...]
    torsion_generator: GroupRingElt


def v1_generators(level: Level) -> V1Report:
    """u_chi1 images of the F generator system (valid for n = 4..7, where
    the congruence subgroup E is known to equal F)."""
    if not 4 <= level.n <= 7:
        raise LevelTooSmall(
            f"the generator description of E is established for n = 4..7, got {level.n}"
        )
    system = generator_system(level)
    labels = []
    images = []
    for lw in system.f_gens:
        labels.append(lw.label)
        images.append(u_chi1(eval_word(lw.word)))
    torsion = GroupRingElt.x_power(level, level.degree)
    return V1Report(level, tuple(labels), tuple(images), torsion)
