"""Funnel partitions of the d-generator indices and the subgroups F, sqrt(F).

The index set A = {1, 3, ..., 2^(n-1)-3} is cut down by repeated halving:
A_k collects the odd indices below 2^(n-2-k).  Each step pairs an index j
with its mirror 2^(n-1-k)-j through the two-generator word
q(k, j) = d_j^(-1) d_{2^(n-1-k)-j}.  The coset generators of sqrt(F)/F
are d_1^{2^(n-3)} and the q(k, .)^{2^(k-1)} for k >= 1.  The subgroup F is
generated by their squares and the q(0, .); its list is built from the
coset generators when it is read.
"""

from __future__ import annotations

from .circular_units import UnitWord, d_index_set
from .cyclotomic import Level, _Frozen
from .errors import IndexNotInPartition, LevelTooSmall

__all__ = [
    "FunnelPartition",
    "LabeledWord",
    "GeneratorSystem",
    "build_partition",
    "q_word",
    "generator_system",
]

# The levels n = 4..7 (conductors 16..128) that the paper settles: there the
# congruence subgroup E is known to equal F.
CERTIFIED_LEVELS = range(4, 8)


class FunnelPartition(_Frozen):
    """The chain A_0 > ... > A_{n-3} and difference sets B_k, as int tuples."""

    __slots__ = ("level", "A_sets", "B_sets")


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


class LabeledWord(_Frozen):
    """A generator with its provenance: funnel step k, index j, outer exponent."""

    __slots__ = ("label", "k", "j", "exponent", "word")


class GeneratorSystem(_Frozen):
    """sqrt_gens, the coset generators of sqrt(F)/F as LabeledWords in fixed
    order, and the generators of F.

    Ordering: the d_1 head power first, then the q(k, .) blocks with k
    descending and j ascending inside each block.  F is generated by the
    squares of the coset generators, in the same order, and the q(0, .);
    f_gens builds that list each time it is read.
    """

    __slots__ = ("level", "sqrt_gens")

    @property
    def f_gens(self) -> tuple[LabeledWord, ...]:
        level = self.level
        squares = [_labeled(level, w.k, w.j, 2 * w.exponent) for w in self.sqrt_gens]
        q0 = [_labeled(level, 0, j, 1) for j in build_partition(level).A_sets[0][1:]]
        return tuple(squares + q0)


def _labeled(level: Level, k: int | None, j: int, exponent: int) -> LabeledWord:
    """d_1^exponent when k is None, otherwise q(k, j)^exponent."""
    if k is None:
        label, word = f"d_1^{exponent}", UnitWord.make(level, 0, {1: exponent})
    else:
        suffix = "" if exponent == 1 else f"^{exponent}"
        label, word = f"q({k},{j}){suffix}", q_word(level, k, j) ** exponent
    return LabeledWord(label, k, j, exponent, word)


def generator_system(level: Level) -> GeneratorSystem:
    """The 2^(n-3) coset generators of sqrt(F)/F; F's 2^(n-2)-1 generators
    are derived from them when f_gens is read."""
    n = level.n
    a_sets = build_partition(level).A_sets
    head = _labeled(level, None, 1, 1 << (n - 3))
    blocks = [
        _labeled(level, k, j, 1 << (k - 1))
        for k in range(n - 3, 0, -1)
        for j in a_sets[k]
    ]
    return GeneratorSystem(level, (head, *blocks))
