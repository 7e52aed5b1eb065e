"""Funnel partitions of the d-generator indices and the subgroups F, sqrt(F).

The index set A = {1, 3, ..., 2^(n-1)-3} is cut down by repeated halving:
A_k collects the odd indices below 2^(n-2-k).  Each step pairs an index j
with its mirror 2^(n-1-k)-j through the two-generator word
q(k, j) = d_j^(-1) d_{2^(n-1-k)-j}.  The subgroup F is generated by
d_1^{2^(n-2)}, the q(0, .), and the q(k, .)^{2^k}; the coset generators of
sqrt(F)/F halve those exponents.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circular_units import UnitWord, d_index_set
from .cyclotomic import Level
from .errors import IndexNotInPartition, LevelTooSmall

__all__ = [
    "FunnelPartition",
    "LabeledWord",
    "GeneratorSystem",
    "build_partition",
    "q_word",
    "generator_system",
]


@dataclass(frozen=True, slots=True)
class FunnelPartition:
    """The chain A_0 > A_1 > ... > A_{n-3} and the difference sets B_k."""

    level: Level
    A_sets: tuple[tuple[int, ...], ...]
    B_sets: tuple[tuple[int, ...], ...]


def build_partition(level: Level) -> FunnelPartition:
    """Construct the halving chain; needs n >= 4 so that A_0 is proper."""
    n = level.n
    if n < 4:
        raise LevelTooSmall(f"funnel partitions need n >= 4, got {n}")
    full = d_index_set(level)
    bounds = [1 << (n - 2 - k) for k in range(n - 2)]
    a_sets = [tuple(j for j in full if j < bound) for bound in bounds]
    # B_k = A_(k-1) - A_k: the indices of the set above at or past the bound
    above = [full] + a_sets
    b_sets = [tuple(j for j in up if j >= bound) for up, bound in zip(above, bounds)]
    return FunnelPartition(level, tuple(a_sets), tuple(b_sets))


def q_word(level: Level, k: int, j: int) -> UnitWord:
    """The word d_j^(-1) d_{2^(n-1-k)-j}.

    For k = 0 the index j runs over A_0 without 1; for k >= 1 over A_k,
    the odd indices below 2^(n-2-k).
    """
    n = level.n
    if n < 4:
        raise LevelTooSmall(f"funnel partitions need n >= 4, got {n}")
    if not 0 <= k <= n - 3:
        raise IndexNotInPartition(f"funnel step k must lie in 0..{n - 3}, got {k}")
    if j % 2 == 0 or not 1 <= j < 1 << (n - 2 - k) or (k == 0 and j == 1):
        raise IndexNotInPartition(
            f"index {j} not admissible for q({k}, .) at n={n}"
        )
    mirror = (1 << (n - 1 - k)) - j
    return UnitWord.make(level, 0, {j: -1, mirror: 1})


@dataclass(frozen=True, slots=True)
class LabeledWord:
    """A generator with its provenance: funnel step k, index j, outer exponent."""

    label: str
    k: int | None
    j: int
    exponent: int
    word: UnitWord


@dataclass(frozen=True, slots=True)
class GeneratorSystem:
    """Generators of F and coset generators of sqrt(F)/F, in fixed order.

    Ordering: the d_1 head power first, then the q(k, .) blocks with k
    descending and j ascending inside each block.
    """

    level: Level
    f_gens: tuple[LabeledWord, ...]
    sqrt_gens: tuple[LabeledWord, ...]


def _head(level: Level, exponent: int) -> LabeledWord:
    return LabeledWord(
        label=f"d_1^{exponent}",
        k=None,
        j=1,
        exponent=exponent,
        word=UnitWord.make(level, 0, {1: exponent}),
    )


def _q_block(partition: FunnelPartition, k: int, exponent: int) -> list[LabeledWord]:
    level = partition.level
    indices = partition.A_sets[k] if k >= 1 else partition.A_sets[0][1:]
    out = []
    for j in indices:
        word = q_word(level, k, j) ** exponent
        suffix = "" if exponent == 1 else f"^{exponent}"
        out.append(
            LabeledWord(
                label=f"q({k},{j}){suffix}",
                k=k,
                j=j,
                exponent=exponent,
                word=word,
            )
        )
    return out


def generator_system(level: Level) -> GeneratorSystem:
    """Both generator lists; 2^(n-2)-1 for F and 2^(n-3) for sqrt(F)/F."""
    n = level.n
    partition = build_partition(level)
    f_gens: list[LabeledWord] = [_head(level, 1 << (n - 2))]
    for k in range(n - 3, 0, -1):
        f_gens.extend(_q_block(partition, k, 1 << k))
    f_gens.extend(_q_block(partition, 0, 1))
    sqrt_gens: list[LabeledWord] = [_head(level, 1 << (n - 3))]
    for k in range(n - 3, 0, -1):
        sqrt_gens.extend(_q_block(partition, k, 1 << (k - 1)))
    return GeneratorSystem(level, tuple(f_gens), tuple(sqrt_gens))
