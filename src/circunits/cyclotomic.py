"""Exact arithmetic in Z[alpha] where alpha is a primitive 2^n-th root of unity.

Elements are dense integer coefficient vectors of length 2^(n-1), reduced
eagerly by the minimal-polynomial rule alpha^(2^(n-1)) = -1.  All arithmetic
is over arbitrary-precision integers; nothing here ever rounds.

Products use the ring's structure where it halves the work.  A dense
product is taken by two-point Kronecker substitution (D. Harvey, J.
Symbolic Comput. 44, 2009): each operand is packed as two integers, its
values at t = 2^b and t = -2^b, and two multiplies of half the size of a
one-point substitution give the even and the odd coefficients of the
product exactly.  A square packs its operand once, so both multiplies are
squarings.  The norm and division by a unit descend the subfield tower
Q < Q(i) < ... < Q(alpha), all of whose steps are quadratic: with
x = E(alpha^2) + alpha * O(alpha^2) and beta = alpha^2,

    x(alpha) * x(-alpha) = E(beta)^2 - beta * O(beta)^2,

an element of Z[beta], the ring one level down, and at length 1 of Z.  For
a dense x the same identity at alpha = 2^b makes that one big-integer
product, x(2^b) * x(-2^b); a sparse x takes two half-length squares.  So
p/x = p * x(-alpha) * z with z the inverse of x(alpha) * x(-alpha) one
level down; the inverse is the case p = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import EvenGaloisIndex, LevelMismatch, NotAUnit

MIN_LEVEL = 3
MAX_LEVEL = 12


@dataclass(frozen=True, slots=True)
class Level:
    """The parameter n of the ring Z[alpha], alpha^(2^n) = 1 primitively."""

    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int):
            raise TypeError(f"level must be an int, got {type(self.n).__name__}")
        if not MIN_LEVEL <= self.n <= MAX_LEVEL:
            raise ValueError(
                f"level n must satisfy {MIN_LEVEL} <= n <= {MAX_LEVEL}, got {self.n}"
            )

    @property
    def order(self) -> int:
        """Order of alpha, 2^n."""
        return 1 << self.n

    @property
    def degree(self) -> int:
        """Degree of the field extension, 2^(n-1)."""
        return 1 << (self.n - 1)


def _wrapped(x: Sequence[int], y: Sequence[int], sign: int) -> list[int]:
    """x * y mod t^m - sign for coefficient vectors of equal length m:
    Z[alpha] wraps by t^m = -1 (sign -1), the group ring by t^m = 1.

    With nx and ny nonzero entries, dense operands (nx * ny >= 8 * m) go
    through Kronecker substitution (_kronecker); otherwise a double loop
    pairs the nonzero terms of y with the nonzeros of x, so a sparse
    operand, such as d_j with its three terms, is cheap in either position.
    """
    m = len(x)
    nx = m - x.count(0)
    ny = m - y.count(0)
    if nx * ny >= 8 * m:
        return _kronecker(x, y, min(nx, ny), sign)
    terms = [(j, c) for j, c in enumerate(y) if c]
    full = [0] * (2 * m)
    for i, a in enumerate(x):
        if a:
            for j, c in terms:
                full[i + j] += a * c
    return [a + sign * b for a, b in zip(full[:m], full[m:])]


def _kronecker(
    x: Sequence[int], y: Sequence[int], overlap: int, sign: int
) -> list[int]:
    """_wrapped by two-point Kronecker substitution (D. Harvey, "Faster
    polynomial multiplication via multipoint Kronecker substitution",
    J. Symbolic Comput. 44, 2009) for vectors of even length, where no
    wrapped coefficient sums more than overlap products.

    With slots of B bytes and b = 4B bits, half a slot, each vector is
    packed at t = 2^b and t = -2^b (_pack), and P = x * y is taken at both
    points by two products of integers half as long as one slot per
    coefficient would need; under Karatsuba two such products cost about
    0.6 of one full one.  A square (y is x) packs once and squares both.
    Splitting P by exponent parity, P(+-2^b) = Pe(2^(2b)) +- 2^b * Po(2^(2b)),
    so (P(2^b) + P(-2^b))/2 is Pe and (P(2^b) - P(-2^b))/2^(b+1) is Po, both
    exact shifts, each with one coefficient per slot of 2b bits.  With
    8B - 1 >= bits(max|x|) + bits(max|y|) + bitlen(overlap), every
    coefficient of Pe and Po, wrapped or not, obeys
    |sum a_i * b_j| < 2^(8B-1), so _unpack reads each from its slot.
    """
    width, biases = _slots(x, y, overlap)
    xp, xn = _pack(x, width, biases)
    yp, yn = (xp, xn) if y is x else _pack(y, width, biases)
    p, q = xp * yp, xn * yn
    return _unpack([(p + q) >> 1, (p - q) >> (4 * width + 1)], width, biases, sign)


def _kronecker_halve(c: Sequence[int], overlap: int) -> list[int]:
    """_halve in one product c(2^b) * c(-2^b), where no coefficient of
    E^2 - beta * O^2 sums more than overlap products (see _halve)."""
    width, biases = _slots(c, c, overlap)
    xp, xn = _pack(c, width, biases)
    return _unpack([xp * xn], width, biases, -1)


def _slots(x: Sequence[int], y: Sequence[int], overlap: int) -> tuple[int, int]:
    """The slot width B in bytes for x * y (see _kronecker) and the integer
    holding the bias h = 2^(8B-1) in each of len(x)/2 slots."""
    width = (
        max(map(abs, x)).bit_length()
        + max(map(abs, y)).bit_length()
        + overlap.bit_length()
        + 8
    ) // 8
    bias = 1 << (8 * width - 1)
    biases = int.from_bytes(bias.to_bytes(width, "little") * (len(x) // 2), "little")
    return width, biases


def _pack(v: Sequence[int], width: int, biases: int) -> tuple[int, int]:
    """v(2^b) and v(-2^b), b = 4 * width, for v of even length.

    The even and the odd coefficients, E and O, are written in one join, E
    first, in slots of width bytes through the bias h, so each slot holds a
    nonnegative value and no borrow crosses a slot; subtracting biases from
    each half gives E(beta) and O(beta) at beta = 2^(2b), and
    v(+-2^b) = E(beta) +- 2^b * O(beta).
    """
    bias = 1 << (8 * width - 1)
    raw = b"".join([(c + bias).to_bytes(width, "little") for c in v[0::2] + v[1::2]])
    cut = len(raw) // 2
    even = int.from_bytes(raw[:cut], "little") - biases
    odd = (int.from_bytes(raw[cut:], "little") - biases) << (4 * width)
    return even + odd, even - odd


def _unpack(parts: list[int], width: int, biases: int, sign: int) -> list[int]:
    """Each part holds up to 2k coefficients in slots of width bytes, k the
    slots of biases; wrapped by s^k = sign, the k coefficients of every part
    are read back in one pass, the parts' coefficients interleaved.

    A part plus h in each of its low k slots splits there into
    lo + 2^(8 * width * k) * hi, and lo + sign * hi wraps it in one
    big-integer add (the wrap of Schoenhage-Strassen).
    """
    bias = 1 << (8 * width - 1)
    split = biases.bit_length()  # h fills the top bit of the top slot
    low = (1 << split) - 1
    chunks = []
    for part in parts:
        part += biases
        wrapped = (part & low) + sign * (part >> split)
        chunks.append(wrapped.to_bytes(split // 8, "little"))
    raw = b"".join(chunks)
    values = [
        int.from_bytes(raw[k : k + width], "little") - bias
        for k in range(0, len(raw), width)
    ]
    if len(parts) == 2:
        k = len(values) // 2
        values[0::2], values[1::2] = values[:k], values[k:]
    return values


def _halve(c: Sequence[int]) -> list[int]:
    """x(alpha) * x(-alpha) for the x with coefficients c.

    alpha -> -alpha generates the Galois group over the subfield of
    beta = alpha^2, so splitting x = E(beta) + alpha * O(beta) by exponent
    parity, the product E(beta)^2 - beta * O(beta)^2 is returned as len(c)/2
    coefficients in powers of beta, where beta^(len(c)/2) = -1.

    With nx nonzero coefficients, a dense x (nx * nx >= 8 * len(c),
    _wrapped's rule for x times x(-alpha)) takes one big-integer product
    (_kronecker_halve): the same identity at alpha = 2^b, b = 4B bits, is
    x(2^b) * x(-2^b) = E(2^(2b))^2 - 2^(2b) * O(2^(2b))^2, two-point
    Kronecker substitution (Harvey 2009, see _kronecker) with one
    coefficient per slot of 2b bits.  Each coefficient, wrapped or not,
    sums at most nonzeros(E) + nonzeros(O) = nx products, so _kronecker's
    width bound with overlap nx keeps every slot exact.  A sparse x takes
    two half-length squares, E^2 and O^2.
    """
    m = len(c)
    nx = m - c.count(0)
    if nx * nx >= 8 * m:
        return _kronecker_halve(c, nx)
    even, odd = c[0::2], c[1::2]
    e2 = _wrapped(even, even, -1)
    o2 = _wrapped(odd, odd, -1)
    # beta * O^2 moves every coefficient up one power; the top one wraps to -1
    return [e2[0] + o2[-1]] + [a - b for a, b in zip(e2[1:], o2)]


def _divide(p: Sequence[int] | None, c: Sequence[int]) -> list[int]:
    """p/x for the unit x with coefficients c, or 1/x when p is None.
    With x(-alpha) = E(beta) - alpha * O(beta) and z = 1/(E^2 - beta * O^2)
    inverted one level down, p/x = p * x(-alpha) * z: one product, then two
    half-length ones, the even and the odd coefficients of p * x(-alpha)
    times z.  At length 1 the norm must be +-1."""
    if len(c) == 1:
        _require_unit(c[0])
        return list(c) if p is None else [c[0] * v for v in p]
    z = _divide(None, _halve(c))
    num = [-v if i & 1 else v for i, v in enumerate(c)]  # x(-alpha)
    if p is not None:
        num = _wrapped(p, num, -1)
    num[0::2] = _wrapped(num[0::2], z, -1)
    num[1::2] = _wrapped(num[1::2], z, -1)
    return num


def _require_unit(norm: int) -> None:
    """Refuse an element whose norm is not a unit of Z.  A norm over 8192
    bits is named by its bit-length: Python prints no int of more than
    4300 digits (about 14,000 bits) in decimal."""
    if norm not in (1, -1):
        bits = norm.bit_length()
        shown = norm if bits <= 8192 else f"a {bits}-bit integer"
        raise NotAUnit(f"norm is {shown}, not +-1")


def _check_same_level(a: CycInt, b: CycInt) -> None:
    if a.level != b.level:
        raise LevelMismatch(f"levels differ: n={a.level.n} vs n={b.level.n}")


@dataclass(frozen=True, slots=True)
class CycInt:
    """An element of Z[alpha] in reduced form: coeffs[j] is the coefficient
    of alpha^j for 0 <= j < 2^(n-1).  Only eval_word sets known_unit (norm
    1); ==, hash and repr ignore it, and no operation passes it on.
    """

    level: Level
    coeffs: tuple[int, ...]
    known_unit: bool = field(default=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.level.degree:
            raise ValueError(
                f"need {self.level.degree} coefficients at n={self.level.n}, "
                f"got {len(self.coeffs)}"
            )

    # ------------------------------------------------------------------ #
    # constructors

    @classmethod
    def zero(cls, level: Level) -> CycInt:
        return cls(level, (0,) * level.degree)

    @classmethod
    def one(cls, level: Level) -> CycInt:
        return cls.from_int(level, 1)

    @classmethod
    def from_int(cls, level: Level, value: int) -> CycInt:
        return cls.from_terms(level, [(0, value)])

    @classmethod
    def monomial(cls, level: Level, exponent: int, coeff: int = 1) -> CycInt:
        """coeff * alpha^exponent for any integer exponent (reduced)."""
        return cls.from_terms(level, [(exponent, coeff)])

    @classmethod
    def from_terms(cls, level: Level, terms: Iterable[tuple[int, int]]) -> CycInt:
        """Sum of c * alpha^e over (e, c) pairs, for any integers e.

        The one exponent reducer: e = q*m + i with 0 <= i < m, and
        alpha^(q*m) = (-1)^q because alpha^m = -1.
        """
        m = level.degree
        coeffs = [0] * m
        for e, c in terms:
            q, i = divmod(e, m)
            coeffs[i] += -c if q & 1 else c
        return cls(level, tuple(coeffs))

    # ------------------------------------------------------------------ #
    # ring structure

    def __add__(self, other: CycInt) -> CycInt:
        _check_same_level(self, other)
        return CycInt(
            self.level, tuple(x + y for x, y in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: CycInt) -> CycInt:
        _check_same_level(self, other)
        return CycInt(
            self.level, tuple(x - y for x, y in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> CycInt:
        return CycInt(self.level, tuple(-x for x in self.coeffs))

    def __mul__(self, other: CycInt) -> CycInt:
        _check_same_level(self, other)
        return CycInt(self.level, tuple(_wrapped(self.coeffs, other.coeffs, -1)))

    def __pow__(self, exponent: int) -> CycInt:
        """Binary powering from the top bit down, so no square past it."""
        if exponent < 0:
            return (self ** -exponent).invert_unit()
        result = self if exponent else CycInt.one(self.level)
        for bit in bin(exponent)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def __rmul__(self, scalar: int) -> CycInt:
        return CycInt(self.level, tuple(scalar * x for x in self.coeffs))

    # ------------------------------------------------------------------ #
    # Galois action, trace, norm

    def galois(self, k: int) -> CycInt:
        """Apply the automorphism alpha -> alpha^k; k must be odd."""
        if k % 2 == 0:
            raise EvenGaloisIndex(f"Galois index must be odd, got {k}")
        return CycInt.from_terms(
            self.level, ((j * k, c) for j, c in enumerate(self.coeffs) if c)
        )

    def trace(self) -> int:
        """Sum of all Galois conjugates, always a rational integer.

        Each monomial alpha^j has trace zero except j = 0 (contributing
        2^(n-1)) and, before reduction, j = 2^(n-1) (contributing -2^(n-1));
        reduction folds the latter into the constant, so the trace is
        degree * coeffs[0].
        """
        return self.level.degree * self.coeffs[0]

    def norm(self) -> int:
        """Product of all 2^(n-1) Galois conjugates, a rational integer:
        the coefficients halved until one is left."""
        c = self.coeffs
        while len(c) > 1:
            c = _halve(c)
        return c[0]

    def invert_unit(self) -> CycInt:
        """Inverse of a unit, descending the subfield tower to Z."""
        return CycInt(self.level, tuple(_divide(None, self.coeffs)))

    # ------------------------------------------------------------------ #
    # reductions and predicates

    def mod2_coords(self) -> tuple[int, ...]:
        """Coefficient parities; the element is 1 mod 2 iff this is (1,0,...,0)."""
        return tuple(c & 1 for c in self.coeffs)

    def is_real(self) -> bool:
        """True iff fixed by alpha -> alpha^(-1).

        In reduced coordinates that means coeffs[m-j] == -coeffs[j] for
        0 < j < m and coeffs[m/2] == 0.
        """
        m = self.level.degree
        c = self.coeffs
        if c[m // 2] != 0:
            return False
        return all(c[m - j] == -c[j] for j in range(1, m // 2))
