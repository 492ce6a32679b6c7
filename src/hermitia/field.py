"""Exact arithmetic in the five Euclidean imaginary quadratic rings.

For d in {1, 2, 3, 7, 11} let K = Q(sqrt(-d)) with field discriminant

    d_K = -4, -8, -3, -7, -11   (respectively)

and ring of integers O_d.  Internally every ring element is written on the
basis {1, omega} with

    omega = (d_K + sqrt(d_K)) / 2,

which satisfies the uniform quadratic relation omega^2 = t*omega - n where
t = d_K and n = (t^2 - t)/4.  On this basis the norm and trace of
x + y*omega are

    N(x + y*omega)  = x^2 + t*x*y + n*y^2,
    Tr(x + y*omega) = 2*x + t*y,

with integer values for integer x, y.  The conventional small generator of
O_d (i for d = 1, sqrt(-2) for d = 2, and the half-integer omega of the
three odd discriminants) is omega + shift for a small integer shift; it is
used for display and for the parabolic generators of the Bianchi groups,
while all arithmetic stays on the internal basis.

Products and conjugates are written once, on integer pairs (x, y) for
x + y*omega (`pair_mul`, `pair_powers`, `pair_conj`), which the production
paths use directly and `QuadInt` wraps.

All five rings are norm-Euclidean: the covering radius rho of the lattice
O_d in C satisfies rho < 1, which is what makes the nearest-integer
continued fraction terminate.  The exact squared covering radii are stored
on each FieldSpec.  The nearest ring integer has one rule, `nearest_pair`,
for exact and float coordinates alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Union


class CertificateError(ArithmeticError):
    """An internal certificate failed: an exact result did not pass its own
    verification.  It signals a bug, never bad input."""


def _jacobi(a: int, b: int) -> int:
    """Jacobi symbol (a/b) for odd positive b."""
    a %= b
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if b % 8 in (3, 5):
                result = -result
        a, b = b, a
        if a % 4 == 3 and b % 4 == 3:
            result = -result
        a %= b
    return result if b == 1 else 0


def kronecker(a: int, b: int) -> int:
    """Kronecker symbol (a/b), extended to all integer pairs except (0, 0).

    (a/2) is 0 for even a and +1/-1 for a = +-1 resp. +-3 mod 8; (a/-1) is
    -1 exactly for a < 0; (a/0) is 1 for a = +-1 and 0 otherwise.
    """
    if b == 0:
        if a == 0:
            raise ValueError("kronecker(0, 0) is undefined")
        return 1 if a in (1, -1) else 0
    result = 1
    if b < 0:
        b = -b
        if a < 0:
            result = -result
    twos = 0
    while b % 2 == 0:
        b //= 2
        twos += 1
    if twos:
        if a % 2 == 0:
            return 0
        if twos % 2 == 1 and a % 8 in (3, 5):
            result = -result
    return result * _jacobi(a, b)


@dataclass(frozen=True)
class FieldSpec:
    """Immutable description of one of the five rings."""

    d: int
    disc: int                  # field discriminant d_K
    norm_coeff: int            # n in omega^2 = disc*omega - n
    omega_shift: int           # conventional generator = omega + omega_shift
    covering_radius_sq: Fraction
    generator_name: str
    unit: tuple[int, int]      # a primitive unit u on the internal basis
    unit_labels: tuple[str, ...]  # names of u^0, u^1, ...; one per unit

    @property
    def abs_disc(self) -> int:
        """|d_K|; also the conductor of the attached quadratic character."""
        return -self.disc

    @property
    def sqrt_abs_disc(self) -> float:
        return math.sqrt(self.abs_disc)

    @property
    def omega_complex(self) -> complex:
        return complex(self.disc / 2.0, self.sqrt_abs_disc / 2.0)

    @property
    def theta_complex(self) -> complex:
        """Complex embedding of the conventional generator."""
        return self.omega_complex + self.omega_shift

    @property
    def covolume(self) -> float:
        """Area of a fundamental cell of the lattice O_d in C."""
        return self.sqrt_abs_disc / 2.0

    def chi(self, a: int) -> int:
        """The quadratic character attached to K: chi(a) = (d_K / a)."""
        return kronecker(self.disc, a)

    def quad(self, x: int, y: int = 0) -> "QuadInt":
        return QuadInt(self, x, y)

    @property
    def zero(self) -> "QuadInt":
        return QuadInt(self, 0, 0)

    @property
    def one(self) -> "QuadInt":
        return QuadInt(self, 1, 0)

    @property
    def omega(self) -> "QuadInt":
        return QuadInt(self, 0, 1)

    @property
    def theta(self) -> "QuadInt":
        """The conventional generator as a ring element."""
        return QuadInt(self, self.omega_shift, 1)

    def units(self) -> tuple["QuadInt", ...]:
        """Unit group, listed as consecutive powers of the primitive unit."""
        u = QuadInt(self, *self.unit)
        return tuple(u**e for e in range(len(self.unit_labels)))

    def norm_int(self, x: int, y: int) -> int:
        return x * x + self.disc * x * y + self.norm_coeff * y * y


EUCLIDEAN_DS = (1, 2, 3, 7, 11)

# Primitive units: i = 2 + omega for d = 1, the sixth root of unity
# zeta6 = 2 + omega = (1 + sqrt(-3))/2 for d = 3, and -1 otherwise.
FIELDS: dict[int, FieldSpec] = {
    1: FieldSpec(1, -4, 5, 2, Fraction(1, 2), "i", (2, 1), ("1", "i", "-1", "-i")),
    2: FieldSpec(2, -8, 18, 4, Fraction(3, 4), "√-2", (-1, 0), ("1", "-1")),
    3: FieldSpec(3, -3, 3, 1, Fraction(1, 3), "ω", (2, 1),
                 ("1", "z6", "z6^2", "-1", "z6^4", "z6^5")),
    7: FieldSpec(7, -7, 14, 4, Fraction(1, 2) + Fraction(1, 14), "ω", (-1, 0), ("1", "-1")),
    11: FieldSpec(11, -11, 33, 6, Fraction(9, 11), "ω", (-1, 0), ("1", "-1")),
}


def field(d: int) -> FieldSpec:
    try:
        return FIELDS[d]
    except KeyError:
        raise ValueError(
            f"d must be one of {EUCLIDEAN_DS} (the norm-Euclidean imaginary "
            f"quadratic rings); got {d}"
        ) from None


Pair = tuple[int, int]
ZERO: Pair = (0, 0)


def pair_mul(f: FieldSpec, a: Pair, b: Pair) -> Pair:
    """(x1 + y1 w)(x2 + y2 w) with w^2 = t w - n, on integer pairs."""
    x1, y1 = a
    x2, y2 = b
    yy = y1 * y2
    return (x1 * x2 - f.norm_coeff * yy, x1 * y2 + y1 * x2 + f.disc * yy)


def pair_powers(f: FieldSpec, q: Pair, n: int) -> list[Pair]:
    """[q^0, q^1, ..., q^n] on integer pairs."""
    out = [(1, 0)]
    for _ in range(n):
        out.append(pair_mul(f, out[-1], q))
    return out


def pair_conj(f: FieldSpec, q: Pair) -> Pair:
    """conj(x + y w) = (x + t y) - y w, since conj(w) = t - w."""
    x, y = q
    return (x + f.disc * y, -y)


@dataclass(frozen=True, slots=True)
class QuadInt:
    """Ring integer x + y*omega of O_d on the internal basis."""

    field: FieldSpec
    x: int
    y: int

    def __add__(self, other: "QuadInt | int") -> "QuadInt":
        if isinstance(other, int):
            return QuadInt(self.field, self.x + other, self.y)
        if isinstance(other, QuadInt):
            return QuadInt(self.field, self.x + other.x, self.y + other.y)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other: "QuadInt | int") -> "QuadInt":
        if isinstance(other, int):
            return QuadInt(self.field, self.x - other, self.y)
        if isinstance(other, QuadInt):
            return QuadInt(self.field, self.x - other.x, self.y - other.y)
        return NotImplemented

    def __rsub__(self, other: int) -> "QuadInt":
        if isinstance(other, int):
            return QuadInt(self.field, other - self.x, -self.y)
        return NotImplemented

    def __neg__(self) -> "QuadInt":
        return QuadInt(self.field, -self.x, -self.y)

    def __mul__(self, other: "QuadInt | int") -> "QuadInt":
        if isinstance(other, int):
            return QuadInt(self.field, self.x * other, self.y * other)
        if isinstance(other, QuadInt):
            return QuadInt(self.field, *pair_mul(self.field, (self.x, self.y), (other.x, other.y)))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "QuadInt":
        if k < 0:
            raise ValueError("negative powers leave the ring; invert a unit explicitly")
        out = self.field.one
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conj(self) -> "QuadInt":
        return QuadInt(self.field, *pair_conj(self.field, (self.x, self.y)))

    def norm(self) -> int:
        return self.field.norm_int(self.x, self.y)

    def trace(self) -> int:
        return 2 * self.x + self.field.disc * self.y

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def is_unit(self) -> bool:
        return self.norm() == 1

    def exact_div(self, other: "QuadInt") -> "QuadInt":
        """Exact ring division; raises if other does not divide self."""
        nrm = other.norm()
        if nrm == 0:
            raise ZeroDivisionError("division by zero in O_d")
        prod = self * other.conj()
        qx, rx = divmod(prod.x, nrm)
        qy, ry = divmod(prod.y, nrm)
        if rx or ry:
            raise ValueError(f"{other} does not divide {self} in O_d")
        return QuadInt(self.field, qx, qy)

    def __complex__(self) -> complex:
        return self.x + self.y * self.field.omega_complex

    def display_coords(self) -> tuple[int, int]:
        """(u, v) with self = u + v*theta on the conventional basis."""
        return self.x - self.field.omega_shift * self.y, self.y

    def __str__(self) -> str:
        u, v = self.display_coords()
        g = self.field.generator_name
        if v == 0:
            return str(u)
        gterm = g if v == 1 else ("-" + g if v == -1 else f"{v}{g}")
        if u == 0:
            return gterm
        return f"{u}{gterm}" if gterm.startswith("-") else f"{u}+{gterm}"

    def __repr__(self) -> str:
        return f"QuadInt(d={self.field.d}, {self})"


def _gcd3(a: int, b: int, c: int) -> int:
    return math.gcd(math.gcd(a, b), c)


@dataclass(frozen=True, slots=True)
class QuadElem:
    """Field element num/den of K = Q(sqrt(-d)), den a positive integer.

    Instances are kept reduced: den > 0 and gcd(num.x, num.y, den) = 1.
    Construct through ``make`` (or the arithmetic operators) so the
    invariant holds.
    """

    num: QuadInt
    den: int

    @staticmethod
    def make(f: FieldSpec, x: int, y: int, den: int) -> "QuadElem":
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            x, y, den = -x, -y, -den
        g = _gcd3(abs(x), abs(y), den)
        if g > 1:
            x, y, den = x // g, y // g, den // g
        return QuadElem(QuadInt(f, x, y), den)

    @staticmethod
    def from_quadint(q: QuadInt) -> "QuadElem":
        return QuadElem(q, 1)

    @staticmethod
    def from_display(f: FieldSpec, u: Fraction, v: Fraction) -> "QuadElem":
        """Build u + v*theta (conventional basis) as an exact field element."""
        u, v = Fraction(u), Fraction(v)
        x = u + v * f.omega_shift     # coefficient of 1 on the internal basis
        den = math.lcm(x.denominator, v.denominator)
        return QuadElem.make(f, int(x * den), int(v * den), den)

    @property
    def field(self) -> FieldSpec:
        return self.num.field

    def display_coords(self) -> tuple[Fraction, Fraction]:
        """(u, v) with self = u + v*theta, both exact rationals."""
        u, v = self.num.display_coords()
        return Fraction(u, self.den), Fraction(v, self.den)

    def __add__(self, other: "QuadElem | QuadInt | int | Fraction") -> "QuadElem":
        other = as_elem(self.field, other)
        a, b = self.num, other.num
        return QuadElem.make(
            self.field,
            a.x * other.den + b.x * self.den,
            a.y * other.den + b.y * self.den,
            self.den * other.den,
        )

    __radd__ = __add__

    def __sub__(self, other: "QuadElem | QuadInt | int | Fraction") -> "QuadElem":
        return self + (-as_elem(self.field, other))

    def __rsub__(self, other) -> "QuadElem":
        return as_elem(self.field, other) + (-self)

    def __neg__(self) -> "QuadElem":
        return QuadElem(-self.num, self.den)

    def __mul__(self, other: "QuadElem | QuadInt | int | Fraction") -> "QuadElem":
        other = as_elem(self.field, other)
        p = self.num * other.num
        return QuadElem.make(self.field, p.x, p.y, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: "QuadElem | QuadInt | int | Fraction") -> "QuadElem":
        other = as_elem(self.field, other)
        nrm = other.num.norm()
        if nrm == 0:
            raise ZeroDivisionError("division by zero in K")
        p = self.num * other.num.conj()
        return QuadElem.make(self.field, p.x * other.den, p.y * other.den, self.den * nrm)

    def __rtruediv__(self, other) -> "QuadElem":
        return as_elem(self.field, other) / self

    def inverse(self) -> "QuadElem":
        return as_elem(self.field, 1) / self

    def conj(self) -> "QuadElem":
        return QuadElem(self.num.conj(), self.den)

    def norm(self) -> Fraction:
        return Fraction(self.num.norm(), self.den * self.den)

    def trace(self) -> Fraction:
        return Fraction(self.num.trace(), self.den)

    def re(self) -> Fraction:
        return Fraction(self.num.trace(), 2 * self.den)

    def omega_coord(self) -> Fraction:
        """Exact coefficient of omega; the imaginary part is this * sqrt(m)/2."""
        return Fraction(self.num.y, self.den)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def as_fraction(self) -> Fraction:
        """The value as a rational; raises if it is not real."""
        if self.num.y != 0:
            raise ValueError(f"{self} is not rational")
        return Fraction(self.num.x, self.den)

    def __complex__(self) -> complex:
        return complex(self.num) / self.den

    def __str__(self) -> str:
        if self.den == 1:
            return str(self.num)
        if self.num.y == 0:
            return f"{self.num.x}/{self.den}"
        return f"({self.num})/{self.den}"

    def __repr__(self) -> str:
        return f"QuadElem(d={self.field.d}, {self})"


def as_elem(f: FieldSpec, value) -> QuadElem:
    """`value` (a QuadElem, QuadInt, int or Fraction) as an element of K;
    raises ValueError for an element of another field."""
    if isinstance(value, QuadInt):
        value = QuadElem(value, 1)
    if isinstance(value, QuadElem):
        if value.field is not f:
            raise ValueError("mixed-field arithmetic")
        return value
    if isinstance(value, int):
        return QuadElem(QuadInt(f, value, 0), 1)
    if isinstance(value, Fraction):
        return QuadElem.make(f, value.numerator, 0, value.denominator)
    raise TypeError(f"cannot coerce {value!r} into K")


ZLike = Union[QuadElem, complex]


def nearest_int(f: FieldSpec, z: ZLike) -> QuadInt:
    """Nearest ring integer to z, with a deterministic tie-break.

    Among the lattice points minimizing N(z - w), the one with the smallest
    real part is chosen, then the smallest imaginary part.  For exact field
    elements all comparisons are exact (the tie-break keys are the integers
    2x + t*y and y), so e.g. 1/2 rounds to 0 and (1 + theta)/2 rounds
    consistently on Voronoi boundaries.  Both kinds of input go through
    `nearest_pair`: complex z on its float coordinates on the basis
    {1, omega}, y = Im(z) / (sqrt(m)/2) and x = Re(z) - t*y/2.
    """
    if isinstance(z, QuadElem):
        return QuadInt(f, *nearest_pair(f, z.num.x, z.num.y, z.den))
    zc = complex(z)
    y = zc.imag / (f.sqrt_abs_disc / 2.0)
    x, y = nearest_pair(f, zc.real - f.disc * y / 2.0, y, 1)
    return QuadInt(f, int(x), int(y))


def nearest_pair(f: FieldSpec, zx: int, zy: int, den: int) -> tuple[int, int]:
    """The nearest ring integer x + y*omega to z = (zx + zy*omega)/den,
    den > 0, as the integer pair (x, y), with the tie-break of `nearest_int`.

    The fraction need not be in lowest terms: a common factor scales every
    distance N(zx - x*den, zy - y*den) alike and leaves the floors below
    unchanged.  N(z - x - y*omega) is the square of the real part
    Re(z) - x - t*y/2 plus m/4 times the square of e = zy/den - y.  In a row
    y the real part is smallest, and the tie-break's real part too, at the
    x that leaves it in (-1/2, 1/2].  With y0 = floor(zy/den) and
    e0 = zy/den - y0 in [0, 1), the row y0 holds a point at distance at
    most 1/4 + (m/4) e0^2 and the row y0 + 1 one at most
    1/4 + (m/4) (1 - e0)^2, while every row below y0 is at least
    (m/4) (1 + e0)^2 away and every row above y0 + 1 at least
    (m/4) (2 - e0)^2; as m >= 3, those rows are strictly farther.  So the
    nearest point is the better of two, one per row.  Float coordinates
    (den = 1) work alike and give integral floats.
    """
    t, n = f.disc, f.norm_coeff
    best = None
    y0 = zy // den
    for y in (y0, y0 + 1):
        ry = zy - y * den
        # x = ceil(Re(z) - t*y/2 - 1/2), so that the real part lies in (-1/2, 1/2]
        x = -((den - 2 * zx - t * ry) // (2 * den))
        rx = zx - x * den
        key = (rx * (rx + t * ry) + n * ry * ry, 2 * x + t * y, y)
        if best is None or key < best:
            best, best_pt = key, (x, y)
    return best_pt


def lattice_norms_below(f: FieldSpec, bound: int) -> Iterator[tuple[int, int, int]]:
    """(x, y, N(x + y*omega)) for every x + y*omega in O_d with norm below
    bound (a nonnegative integer), as plain integers: the sweep that the
    sums by norm class run, with no `QuadInt` per point.

    Iteration order is deterministic: y ascending, then x ascending.
    """
    if bound <= 0:
        return
    t, m = f.disc, f.abs_disc
    cap = bound - 1                      # N(w) <= cap
    ymax = math.isqrt(4 * cap // m) + 1
    for y in range(-ymax, ymax + 1):
        disc4 = 4 * cap - m * y * y      # (2x + t*y)^2 <= disc4
        if disc4 < 0:
            continue
        s = math.isqrt(disc4)
        # N(x + y*omega) = x (x + t y) + n y^2
        ty, ny2 = t * y, f.norm_coeff * y * y
        for x in range((-ty - s - 2) // 2, (-ty + s + 2) // 2 + 1):
            norm = x * (x + ty) + ny2
            if norm < bound:
                yield x, y, norm


def lattice_points_with_norm_below(f: FieldSpec, bound: int) -> Iterator[QuadInt]:
    """All w in O_d with N(w) < bound (bound a nonnegative integer).

    Iteration order is deterministic: y ascending, then x ascending.
    """
    for x, y, _ in lattice_norms_below(f, bound):
        yield QuadInt(f, x, y)


def is_norm(f: FieldSpec, value: int) -> bool:
    """Whether value = N(w) for some w in O_d."""
    if value < 0:
        return False
    if value == 0:
        return True
    t, m = f.disc, f.abs_disc
    ymax = math.isqrt(4 * value // m)
    for y in range(ymax + 1):
        disc4 = 4 * value - m * y * y    # (2x + t*y)^2 = disc4 for a solution
        s = math.isqrt(disc4)
        if s * s == disc4 and (s - t * y) % 2 == 0:
            return True
    return False


@lru_cache(maxsize=None)
def smallest_nonnorm(d: int) -> int:
    """Smallest positive integer that is not a norm from O_d."""
    f = field(d)
    k = 2
    while is_norm(f, k):
        k += 1
    return k


def nonnorm_deltas(f: FieldSpec, count: int) -> list[int]:
    """The `count` smallest positive non-norms of O_d, ascending."""
    out = []
    k = 2
    while len(out) < count:
        if not is_norm(f, k):
            out.append(k)
        k += 1
    return out
