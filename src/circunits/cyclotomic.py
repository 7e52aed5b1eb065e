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

an element of Z[beta], the ring one level down, and at length 1 of Z.
Each step is that one product, taken as one big-integer product,
x(2^b) * x(-2^b).  So 1/x = x(-alpha) * z with z the inverse of
x(alpha) * x(-alpha) one level down.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import lru_cache
from itertools import chain, repeat
from operator import add, attrgetter, mul, neg, sub
from struct import iter_unpack

from .errors import EvenGaloisIndex, LevelMismatch, NotAUnit

__all__ = ["CycInt", "Level"]

MIN_LEVEL = 3
MAX_LEVEL = 16


class _Frozen:
    """Base of the package's value types: immutable instances whose fields
    are the names in __slots__.  ==, hash and repr go over the key fields,
    _key, which are __slots__ unless a class names fewer (CycInt leaves out
    its known_unit mark); == and hash through one operator.attrgetter,
    _fields.  copy and pickle go over every field in __slots__.  Records
    bind their arguments to the fields in the one constructor below;
    validating types write theirs inline."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._key = cls.__dict__.get("_key", cls.__slots__)
        cls._fields = attrgetter(*cls._key)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __init__(self, *args: object, **kwargs: object) -> None:
        names = self.__slots__
        if kwargs or len(args) != len(names):
            kind = type(self).__qualname__
            if len(args) > len(names):
                raise TypeError(f"{kind} takes {len(names)} fields, got {len(args)}")
            for name in kwargs.keys() - names[len(args) :]:
                problem = "given twice" if name in names else "unknown"
                raise TypeError(f"{kind} field {name!r} {problem}")
            kwargs.update(zip(names, args))
            for name in names:
                if name not in kwargs:
                    raise TypeError(f"{kind} field {name!r} missing")
            args = [kwargs[name] for name in names]
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == other._fields(other)

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._key)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class Level(_Frozen):
    """The parameter n of the ring Z[alpha], alpha^(2^n) = 1 primitively."""

    __slots__ = ("n",)

    def __init__(self, n: int) -> None:
        if not isinstance(n, int):
            raise TypeError(f"level must be an int, got {type(n).__name__}")
        if not MIN_LEVEL <= n <= MAX_LEVEL:
            raise ValueError(
                f"level n must satisfy {MIN_LEVEL} <= n <= {MAX_LEVEL}, got {n}"
            )
        object.__setattr__(self, "n", n)

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
    ny = nx if y is x else m - y.count(0)
    if nx * ny >= 8 * m:
        return _kronecker(x, y, min(nx, ny), sign)
    terms = [(j, c) for j, c in enumerate(y) if c]
    full = [0] * (2 * m)
    for i, a in enumerate(x):
        if a:
            for j, c in terms:
                full[i + j] += a * c
    return list(map(sub if sign < 0 else add, full[:m], full[m:]))


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


def _slots(x: Sequence[int], y: Sequence[int], overlap: int) -> tuple[int, int]:
    """The slot width B in bytes for x * y (see _kronecker) and the integer
    holding the bias h = 2^(8B-1) in each of len(x)/2 slots.  A square
    (y is x) scans its operand once."""
    top = max(map(abs, x)).bit_length()
    width = (
        top
        + (top if y is x else max(map(abs, y)).bit_length())
        + overlap.bit_length()
        + 8
    ) // 8
    return width, _biases(width, len(x) // 2)


@lru_cache(maxsize=128)
def _biases(width: int, slots: int) -> int:
    """The integer holding h = 2^(8 * width - 1) in each of its slots, each
    of width bytes, cached by (width, slots)."""
    bias = 1 << (8 * width - 1)
    return int.from_bytes(bias.to_bytes(width, "little") * slots, "little")


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
    big-integer add (the wrap of Schoenhage-Strassen).  The wrapped parts
    are joined into one byte string, and every slot is read in one C-level
    pass: struct.iter_unpack cuts the slots, int.from_bytes reads each and
    -h is added to each, all through map.
    """
    bias = 1 << (8 * width - 1)
    split = biases.bit_length()  # h fills the top bit of the top slot
    low = (1 << split) - 1
    chunks = []
    for part in parts:
        part += biases
        wrapped = (part & low) + sign * (part >> split)
        chunks.append(wrapped.to_bytes(split // 8, "little"))
    slots = chain.from_iterable(iter_unpack(f"{width}s", b"".join(chunks)))
    values = list(map((-bias).__add__, map(int.from_bytes, slots, repeat("little"))))
    if len(parts) == 2:
        k = len(values) // 2
        values[0::2], values[1::2] = values[:k], values[k:]
    return values


def _halve(c: Sequence[int]) -> list[int]:
    """x(alpha) * x(-alpha) for the x with coefficients c.

    alpha -> -alpha generates the Galois group over the subfield of
    beta = alpha^2 and fixes this product, so its odd coefficients vanish
    and its even ones are returned: len(c)/2 coefficients in powers of
    beta, where beta^(len(c)/2) = -1.

    It is one big-integer product, x(2^b) * x(-2^b) with b = 4B bits:
    two-point Kronecker substitution (Harvey 2009, see _kronecker) whose
    product, even in alpha, holds one coefficient per slot of 2b bits.
    With nx nonzero coefficients, each coefficient, wrapped or not, sums
    at most nx products, so _kronecker's width bound with overlap nx keeps
    every slot exact.
    """
    nx = len(c) - c.count(0)
    width, biases = _slots(c, c, nx)
    xp, xn = _pack(c, width, biases)
    return _unpack([xp * xn], width, biases, -1)


def _divide(c: Sequence[int]) -> list[int]:
    """1/x for the unit x with coefficients c.  With x(-alpha) = E(beta) -
    alpha * O(beta) and z = 1/(E^2 - beta * O^2) inverted one level down,
    1/x = x(-alpha) * z: two half-length products, the even and the odd
    coefficients of x(-alpha) times z.  At length 1 the norm must be +-1."""
    if len(c) == 1:
        _require_unit(c[0])
        return list(c)
    z = _divide(_halve(c))
    num = list(c)
    num[1::2] = map(neg, c[1::2])  # x(-alpha)
    num[0::2] = _wrapped(num[0::2], z, -1)
    num[1::2] = _wrapped(num[1::2], z, -1)
    return num


def _times_1_plus_s(x: Sequence[int], i: int, sign: int) -> list[int]:
    """x * (1 + sign * s_i), s_i = alpha^i + alpha^(-i), for any integer i: x * d_i
    at sign 1, the exact counterpart of real_basis._times_d.  s_i = s_(-i) =
    -s_(m-i) folds i to 0 <= k <= m/2; what x's rotations by +-k wrap past
    alpha^m = -1 enters negated.  Three slice regions, two C-level maps each."""
    m = len(x)
    k = min(i % (2 * m), -i % (2 * m))
    if 2 * k > m:
        k, sign = m - k, -sign
    op, inv = (add, sub) if sign > 0 else (sub, add)
    q = m - k
    return [
        *map(inv, map(op, x[:k], x[k : 2 * k]), x[q:]),
        *map(op, map(op, x[k:q], x[: q - k]), x[2 * k :]),
        *map(inv, map(op, x[q:], x[q - k : q]), x[:k]),
    ]


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


class CycInt(_Frozen):
    """An element of Z[alpha] in reduced form: coeffs[j] is the coefficient
    of alpha^j for 0 <= j < 2^(n-1).  Only word values, from eval_word and
    _galois_product, set known_unit (norm 1); _key leaves it out of ==,
    hash and repr, and no operation passes it on.  invert_unit is the one
    division.  Its constructor and from_terms leave coefficients unchecked
    (package callers pass ints; checks cost time).
    """

    __slots__ = ("level", "coeffs", "known_unit")
    _key = ("level", "coeffs")

    def __init__(
        self, level: Level, coeffs: tuple[int, ...], known_unit: bool = False
    ) -> None:
        if len(coeffs) != level.degree:
            raise ValueError(
                f"need {level.degree} coefficients at n={level.n}, "
                f"got {len(coeffs)}"
            )
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "known_unit", known_unit)

    # ------------------------------------------------------------------ #
    # constructors

    @classmethod
    def one(cls, level: Level) -> CycInt:
        return cls.from_int(level, 1)

    @classmethod
    def from_int(cls, level: Level, value: int) -> CycInt:
        return cls.monomial(level, 0, value)

    @classmethod
    def monomial(cls, level: Level, exponent: int, coeff: int = 1) -> CycInt:
        """coeff * alpha^exponent for any integer exponent (reduced); a coeff
        that is not an int is refused, as __rmul__ refuses it."""
        if not isinstance(coeff, int):
            raise TypeError(f"scalar must be an int, got {type(coeff).__name__}")
        return cls.from_terms(level, [(exponent, coeff)])

    @classmethod
    def from_terms(cls, level: Level, terms: Iterable[tuple[int, int]]) -> CycInt:
        """Sum of c * alpha^e over (e, c) pairs, for any integers e.

        The one exponent reducer.  alpha has order 2m, a power of two, so
        alpha^e depends only on e mod 2m = e & (2m - 1): Python's & acts on
        the two's-complement form of e, which for a negative e is the same
        as adding a large enough multiple of 2m, so the mask also reduces
        negative exponents.  Of e & (2m - 1), the low bits e & (m - 1) are
        the index i and the bit e & m says whether alpha^m = -1 flips it.
        """
        m = level.degree
        low = m - 1
        coeffs = [0] * m
        for e, c in terms:
            coeffs[e & low] += -c if e & m else c
        return cls(level, tuple(coeffs))

    # ------------------------------------------------------------------ #
    # ring structure

    def __add__(self, other: CycInt) -> CycInt:
        if other.__class__ is not CycInt:
            return NotImplemented
        _check_same_level(self, other)
        return CycInt(self.level, tuple(map(add, self.coeffs, other.coeffs)))

    def __sub__(self, other: CycInt) -> CycInt:
        if other.__class__ is not CycInt:
            return NotImplemented
        _check_same_level(self, other)
        return CycInt(self.level, tuple(map(sub, self.coeffs, other.coeffs)))

    def __neg__(self) -> CycInt:
        return CycInt(self.level, tuple(map(neg, self.coeffs)))

    def __mul__(self, other: CycInt) -> CycInt:
        if other.__class__ is not CycInt:
            return NotImplemented
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
        if not isinstance(scalar, int):
            return NotImplemented
        return CycInt(self.level, tuple(map(mul, repeat(scalar), self.coeffs)))

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
        return CycInt(self.level, tuple(_divide(self.coeffs)))

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
