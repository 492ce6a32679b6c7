"""Binary Hermitian forms over O_d, their matrix group, and the transfer
polynomials attached to sums of powers of forms.

A form is the Hermitian matrix h = [[a, b], [conj(b), c]] with a, c
rational integers and b in O_d; it acts on column vectors as the sesquilinear
map (u, v) h (conj(u), conj(v))^t, and its value along the section v = 1 is

    h(z, 1) = a*z*conj(z) + b*z + conj(b*z) + c ,

a real quantity.  The discriminant used throughout is

    delta(h) = N(b) - a*c,

so det h = -delta(h).  A matrix sigma in GL_2(O_d) acts by
sigma(h) = conj(sigma)^t h sigma, which preserves delta whenever det sigma
is a unit.

For a positive integer Delta that is *not* a norm from O_d, the forms of
discriminant Delta with a < 0 < c evaluated at 0 give the constant

    alpha_{k,Delta} = sum_{N(b) < Delta} sigma_k(Delta - N(b)),

and the finitely many forms with c < 0 < a assemble into the transfer
polynomial

    P_{k,Delta}(z, zbar) = sum_{c < 0 < a} (a*z*zbar + b*z + conj(b)*zbar + c)^k,

an element of the space of polynomials of bidegree at most (k, k).

Both depend on b only through its norm class N(b) = n: alpha through the
count r(n) of such b, P through the power sums of b over the class.  So
`alphas` and `expand_P` sweep the lattice points once, group them by norm,
and take the divisor sums of Delta - n from one smallest-prime-factor
sieve up to Delta.  `form_ints` lists the forms with c < 0 < a one by one
as integers, for H_{k,Delta} (`hsum`), with the divisors of Delta - n
from the same kind of sieve (`intarith.divisors`), and `delta_forms` as
`HermitianForm`s, for the oracles (`alpha_direct`).  No integer is
factored on its own.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterator

from .field import (
    CertificateError,
    FieldSpec,
    QuadElem,
    QuadInt,
    ZLike,
    as_elem,
    is_norm,
    lattice_norms_below,
    pair_powers,
)
from .intarith import divisor_moments, divisor_power_sums, divisors, smallest_prime_factor_sieve


# --------------------------------------------------------------- matrix group

@dataclass(frozen=True, slots=True)
class GroupElement:
    """2x2 matrix [[a, b], [c, e]] over O_d."""

    a: QuadInt
    b: QuadInt
    c: QuadInt
    e: QuadInt

    @staticmethod
    def make(f: FieldSpec, rows) -> "GroupElement":
        """Build from ((a, b), (c, e)) where entries are QuadInt or int."""
        (a, b), (c, e) = rows

        def q(v):
            return v if isinstance(v, QuadInt) else f.quad(v)

        return GroupElement(q(a), q(b), q(c), q(e))

    @property
    def field(self) -> FieldSpec:
        return self.a.field

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.e,
            self.c * other.a + self.e * other.c,
            self.c * other.b + self.e * other.e,
        )

    def det(self) -> QuadInt:
        return self.a * self.e - self.b * self.c

    def conj(self) -> "GroupElement":
        return GroupElement(self.a.conj(), self.b.conj(), self.c.conj(), self.e.conj())

    def inverse(self) -> "GroupElement":
        """Inverse, defined when det is a unit of O_d."""
        dt = self.det()
        if dt.norm() != 1:
            raise ValueError(f"matrix with det {dt} is not invertible over O_d")
        u = dt.conj()  # the inverse of a unit is its conjugate
        return GroupElement(u * self.e, -(u * self.b), -(u * self.c), u * self.a)

    def is_scalar_unit(self) -> bool:
        return (
            self.b.is_zero()
            and self.c.is_zero()
            and self.a == self.e
            and self.a.is_unit()
        )

    def apply(self, z: ZLike) -> ZLike:
        """Moebius action z -> (a z + b) / (c z + e)."""
        if isinstance(z, QuadElem):
            return (self.a * z + self.b) / (self.c * z + self.e)
        zc = complex(z)
        return (complex(self.a) * zc + complex(self.b)) / (
            complex(self.c) * zc + complex(self.e)
        )

    def entries(self) -> tuple[QuadInt, QuadInt, QuadInt, QuadInt]:
        return (self.a, self.b, self.c, self.e)

    def __pow__(self, k: int) -> "GroupElement":
        base = self if k >= 0 else self.inverse()
        k = abs(k)
        out = identity(self.field)
        while k:
            if k & 1:
                out = out @ base
            base = base @ base
            k >>= 1
        return out

    def __str__(self) -> str:
        return f"[[{self.a}, {self.b}], [{self.c}, {self.e}]]"


def identity(f: FieldSpec) -> GroupElement:
    return GroupElement.make(f, ((1, 0), (0, 1)))


def gen_S(f: FieldSpec) -> GroupElement:
    """The inversion [[0, -1], [1, 0]]."""
    return GroupElement.make(f, ((0, -1), (1, 0)))


def gen_T(f: FieldSpec) -> GroupElement:
    """Translation by 1."""
    return GroupElement.make(f, ((1, 1), (0, 1)))


def translation(f: FieldSpec, q: QuadInt) -> GroupElement:
    return GroupElement.make(f, ((1, q), (0, 1)))


def gen_T_omega(f: FieldSpec) -> GroupElement:
    """Translation by the conventional generator of O_d."""
    return translation(f, f.theta)


# ------------------------------------------------------------ Hermitian forms

@dataclass(frozen=True, slots=True)
class HermitianForm:
    """h = [[a, b], [conj(b), c]] with a, c in Z and b in O_d."""

    a: int
    b: QuadInt
    c: int

    @property
    def field(self) -> FieldSpec:
        return self.b.field

    def delta(self) -> int:
        return self.b.norm() - self.a * self.c

    def eval(self, z: ZLike):
        """h(z, 1); a Fraction for exact z, a float for complex z."""
        if isinstance(z, QuadElem):
            return self.a * z.norm() + (self.b * z).trace() + self.c
        zc = complex(z)
        return (
            self.a * (zc.real * zc.real + zc.imag * zc.imag)
            + 2 * (complex(self.b) * zc).real
            + self.c
        )

    def __str__(self) -> str:
        return f"[a={self.a}, b={self.b}, c={self.c}]"


def act(g: GroupElement, h: HermitianForm) -> HermitianForm:
    """conj(g)^t h g; composes contravariantly: act(g1, act(g2, h)) =
    act(g2 @ g1, h)."""
    f = g.field
    hm = (
        (f.quad(h.a), h.b),
        (h.b.conj(), f.quad(h.c)),
    )
    gc = g.conj()
    # rows of conj(g)^t h
    r00 = gc.a * hm[0][0] + gc.c * hm[1][0]
    r01 = gc.a * hm[0][1] + gc.c * hm[1][1]
    r10 = gc.b * hm[0][0] + gc.e * hm[1][0]
    r11 = gc.b * hm[0][1] + gc.e * hm[1][1]
    new_a = r00 * g.a + r01 * g.c
    new_b = r00 * g.b + r01 * g.e
    new_c = r10 * g.b + r11 * g.e
    if new_a.y != 0 or new_c.y != 0:
        raise CertificateError("form action produced a non-Hermitian matrix")
    return HermitianForm(new_a.x, new_b, new_c.x)


# ---------------------------------------------------- fixed-discriminant sets

def check_delta(f: FieldSpec, delta: int) -> None:
    if delta <= 0:
        raise ValueError(f"--delta must be a positive integer, got {delta}")
    if is_norm(f, delta):
        raise ValueError(
            f"--delta = {delta} is a norm from O_{f.d}; the sums of powers of "
            f"forms are only defined for non-norm discriminants"
        )


def form_ints(f: FieldSpec, delta: int) -> Iterator[tuple[int, int, int, int]]:
    """(a, x, y, c) for each form of discriminant delta with c < 0 < a, b =
    x + y*omega, as integers: one per lattice point b of norm n < delta (in
    `lattice_norms_below` order) and divisor a of delta - n (ascending),
    found once per norm class from one smallest-prime-factor sieve."""
    check_delta(f, delta)
    spf = smallest_prime_factor_sieve(delta)
    pairs: dict[int, list[tuple[int, int]]] = {}
    for x, y, n in lattice_norms_below(f, delta):
        if n not in pairs:
            pairs[n] = [(e, (n - delta) // e) for e in divisors(delta - n, spf)]
        for a, c in pairs[n]:
            yield a, x, y, c


def delta_forms(f: FieldSpec, delta: int) -> Iterator[HermitianForm]:
    """All forms of discriminant delta with c < 0 < a, in the order of
    `form_ints`.  The set is finite: ac = N(b) - delta < 0 forces
    N(b) < delta and |a|*|c| <= delta.  Negating a and c gives the forms
    with a < 0 < c."""
    for a, x, y, c in form_ints(f, delta):
        yield HermitianForm(a, QuadInt(f, x, y), c)


def alpha(f: FieldSpec, k: int, delta: int) -> int:
    """The constant alpha_{k,Delta} = sum_{N(b) < Delta} sigma_k(Delta - N(b)).

    Requires delta to be a positive non-norm of O_d.
    """
    return alphas(f, k, [delta])[0]


def alphas(f: FieldSpec, k: int, deltas: list[int]) -> list[int]:
    """alpha_{k,Delta} for each Delta in `deltas`, grouped by norm class:
    alpha_{k,Delta} = sum_{n < Delta} r(n) sigma_k(Delta - n), with r(n)
    the number of b in O_d of norm n.  One sweep of the lattice points
    below the largest Delta counts every r(n), and one sieve gives every
    sigma_k up to it; each Delta sums only the classes below it.  At k = 0
    it counts the forms of discriminant Delta with c < 0 < a
    (`delta_forms`), and as many with a < 0 < c: one per b and divisor of
    Delta - N(b)."""
    for delta in deltas:
        check_delta(f, delta)
    if k < 0:
        raise ValueError("k must be a nonnegative integer")
    top = max(deltas)
    # the norm classes in ascending order: those below Delta are a prefix
    classes = sorted(Counter(n for _, _, n in lattice_norms_below(f, top)).items())
    norms = [n for n, _ in classes]
    sig = divisor_power_sums(k, top)
    return [
        sum(r * sig[delta - n] for n, r in classes[: bisect_left(norms, delta)])
        for delta in deltas
    ]


def alpha_direct(f: FieldSpec, k: int, delta: int) -> int:
    """alpha_{k,Delta} computed from its definition as the value at z = 0:
    the sum of h(0,1)^k = c^k over the forms with a < 0 < c, the negatives
    of the forms (a, b, c) of `delta_forms`, so the sum of (-c)^k over those."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    return sum((-h.c) ** k for h in delta_forms(f, delta))


def window_scan(
    f: FieldSpec, delta: int, z: QuadElem
) -> Iterator[tuple[int, int, int, int]]:
    """The finitely many forms h of discriminant delta with a < 0 and
    h(z, 1) > 0, for exact z in K, as integer tuples (a, vx, vy, h(z,1)*den^2)
    with conj(b) = vx + vy*omega, in scan order.  Summing h(z,1)^k over it
    gives H_{k,Delta}(z) from its definition in O(Delta*den^2) steps: the
    oracle for the continued-fraction walk of `hsum.eval_exact`.

    Completeness: write z = (zx + zy*omega)/den in lowest terms.  Then
    h(z,1)*den^2 is a positive integer for every contributing form, and

        delta = N(conj(b) + a*z) - a*h(z,1) >= |a| * h(z,1),

    so |a| <= delta*den^2.  For each a, the b with h(z,1) > 0 are exactly
    those with N(conj(b) + a*z) < delta and (N(b) - delta) divisible by a;
    they live in a disk of radius sqrt(delta) around -a*z and are swept by
    an exact integer scan.
    """
    check_delta(f, delta)
    if not isinstance(z, QuadElem):
        raise TypeError("the window scan needs an exact field element")
    t, n, m = f.disc, f.norm_coeff, f.abs_disc
    zx, zy, den = z.num.x, z.num.y, z.den
    dd = delta * den * den
    ymax_num = math.isqrt(4 * dd // m)
    for a in range(-dd, 0):
        # v = conj(b): scan integer pairs with N(v*den + a*z_num) < delta*den^2
        ax, ay = a * zx, a * zy
        ylo = (-ymax_num - ay) // den - 1
        yhi = (ymax_num - ay) // den + 1
        for vy in range(ylo, yhi + 1):
            yy = vy * den + ay
            disc4 = 4 * dd - m * yy * yy
            if disc4 < 0:
                continue
            s = math.isqrt(disc4)
            xlo = (-s - t * yy - 2 * ax) // (2 * den) - 1
            xhi = (s - t * yy - 2 * ax) // (2 * den) + 1
            tyy = t * yy
            for vx in range(xlo, xhi + 1):
                xx = vx * den + ax
                nxy = xx * xx + tyy * xx + n * yy * yy
                if nxy >= dd:
                    continue
                if (vx * vx + t * vx * vy + n * vy * vy - delta) % a:
                    continue
                yield a, vx, vy, (nxy - dd) // a


# --------------------------------------------------------- bidegree (n, n)

@dataclass(frozen=True)
class BiPoly:
    """Polynomial in z and zbar of bidegree at most (n, n), with exact
    coefficients in K.  coeffs maps (i, j) -> coefficient of z^i zbar^j;
    zero coefficients are never stored."""

    field: FieldSpec
    n: int
    coeffs: dict[tuple[int, int], QuadElem]

    @staticmethod
    def make(
        f: FieldSpec, n: int, coeffs: dict[tuple[int, int], QuadElem]
    ) -> "BiPoly":
        clean = {}
        for (i, j), v in coeffs.items():
            if not (0 <= i <= n and 0 <= j <= n):
                raise ValueError(f"monomial ({i},{j}) outside bidegree ({n},{n})")
            if not v.is_zero():
                clean[(i, j)] = v
        return BiPoly(f, n, clean)

    @staticmethod
    def zero(f: FieldSpec, n: int) -> "BiPoly":
        return BiPoly(f, n, {})

    @staticmethod
    def monomial(f: FieldSpec, n: int, i: int, j: int, coeff=1) -> "BiPoly":
        c = as_elem(f, coeff)
        return BiPoly.make(f, n, {(i, j): c})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "BiPoly") -> "BiPoly":
        out = dict(self.coeffs)
        for key, v in other.coeffs.items():
            out[key] = out[key] + v if key in out else v
        return BiPoly.make(self.field, max(self.n, other.n), out)

    def __sub__(self, other: "BiPoly") -> "BiPoly":
        return self + (-other)

    def __neg__(self) -> "BiPoly":
        return BiPoly(self.field, self.n, {k: -v for k, v in self.coeffs.items()})

    def scaled(self, factor) -> "BiPoly":
        c = as_elem(self.field, factor)
        return BiPoly.make(
            self.field, self.n, {k: v * c for k, v in self.coeffs.items()}
        )

    def eval_exact(self, z: QuadElem) -> QuadElem:
        """P(z, conj(z)), exactly."""
        zero = as_elem(self.field, 0)
        zp = _power_list(z, self.n)
        wp = _power_list(z.conj(), self.n)
        total = zero
        for (i, j), v in self.coeffs.items():
            total = total + v * zp[i] * wp[j]
        return total

    def eval_complex(self, z: complex) -> complex:
        """P(z, conj(z)) in floating point."""
        zbar = z.conjugate()
        total = 0j
        for (i, j), v in self.coeffs.items():
            total += complex(v) * z**i * zbar**j
        return total

    def terms(self) -> list[tuple[int, int, QuadElem]]:
        """Sorted (i, j, coeff) triples."""
        return [(i, j, self.coeffs[(i, j)]) for (i, j) in sorted(self.coeffs)]

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i, j, v in self.terms():
            factors = [f"({v})"]
            if i:
                factors.append("z" if i == 1 else f"z^{i}")
            if j:
                factors.append("zbar" if j == 1 else f"zbar^{j}")
            parts.append("*".join(factors))
        return " + ".join(parts)


def _power_list(z: QuadElem, n: int) -> list[QuadElem]:
    out = [as_elem(z.field, 1)]
    for _ in range(n):
        out.append(out[-1] * z)
    return out


def expansion_plan(k: int, w: int) -> list[tuple[int, int, int, int, list[tuple[int, int, int]]]]:
    """The terms a^i b^j conj(b)^l c^r (i + j + l + r = k) of `expand_P`
    that reach z^alpha zbar^beta with alpha - beta = w t and alpha >= beta:
    one (t, alpha, beta, |r - i|, [((-1)^r k!/(i! j! l! r!), min(i, r), l)])
    per monomial.  The multinomial is C(k, r) C(k-r, i) C(k-r-i, j), read
    from one Pascal triangle, so no term divides factorials."""
    pascal = [[1]]
    for _ in range(k):
        row = pascal[-1]
        pascal.append([1, *(x + y for x, y in zip(row, row[1:])), 1])
    plan = []
    for t in range(k // w + 1):
        for be in range(k + 1 - w * t):
            al = be + w * t
            terms = []
            for i in range(max(0, al + be - k), be + 1):
                j, l, r = al - i, be - i, k - al - be + i
                mult = pascal[k][r] * pascal[k - r][i] * pascal[k - r - i][j]
                terms.append(((-1) ** r * mult, min(i, r), l))
            plan.append((t, al, be, abs(k - al - be), terms))
    return plan


def expand_P(f: FieldSpec, k: int, delta: int) -> BiPoly:
    """The transfer polynomial P_{k,Delta} as an exact BiPoly of bidegree
    (k, k): the sum of (a z zbar + b z + conj(b) zbar + c)^k over the forms
    of discriminant delta with c < 0 < a.

    The multinomial expansion is summed by norm class.  The forms with
    N(b) = n are (e, b, -m/e) for the divisors e of m = Delta - n.  Over
    them the term a^i b^j conj(b)^l c^r of z^alpha zbar^beta (alpha = i + j,
    beta = i + l) sums to S[i][r] T[j][l], where

        S[i][r] = sum_e e^i (-m/e)^r = (-1)^r m^min(i,r) sigma_|i-r|(m),
        T[j][l] = sum_{N(b) = n} b^j conj(b)^l = n^l p_(j-l)   (j >= l),

    and p_s = sum_{N(b) = n} b^s.  A class holds conj(b) with b, so every
    p_s is a rational integer, P has integer coefficients, and that of
    z^beta zbar^alpha equals that of z^alpha zbar^beta: only alpha >= beta
    (that is, j >= l) is summed.  Multiplying b by one of the w units u
    multiplies b^s by u^s, and the units sum to zero in every power s that
    w does not divide, so only p_(w t) = sum (b^w)^t is nonzero; each class
    is kept as a count of its distinct b^w, whose powers are integer pairs.
    The terms of one (alpha, beta) share p_(alpha - beta) and
    sigma_|i-r|(m), as r - i = k - alpha - beta.  The sigma_0..sigma_k(m)
    are running power sums over the divisors of m, found from one
    smallest-prime-factor sieve up to Delta.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    check_delta(f, delta)
    w = len(f.unit_labels)
    # each norm class as a count of the distinct values of b^w
    classes: dict[int, Counter] = defaultdict(Counter)
    for x, y, n in lattice_norms_below(f, delta):
        classes[n][pair_powers(f, (x, y), w)[w]] += 1
    plan = expansion_plan(k, w)
    spf = smallest_prime_factor_sieve(delta)
    # every monomial, in the order of the term-by-term expansion (the BiPoly keeps it)
    acc = dict.fromkeys(
        ((i + j, i + l) for i in range(k + 1) for j in range(k + 1 - i) for l in range(k + 1 - i - j)),
        0,
    )
    for n, values in classes.items():
        m = delta - n
        sig = divisor_moments(m, k, spf)
        m_pow, n_pow = [m**e for e in range(k + 1)], [n**e for e in range(k + 1)]
        # p_(w t) = sum of count * (b^w)^t: the omega parts cancel over the class
        psum = [0] * (k // w + 1)
        for c, count in values.items():
            for t, (x, _) in enumerate(pair_powers(f, c, k // w)):
                psum[t] += count * x
        for t, al, be, q, terms in plan:
            if psum[t]:
                v = sig[q] * sum(mult * m_pow[em] * n_pow[en] for mult, em, en in terms)
                acc[al, be] += v * psum[t]
    for al, be in acc:
        if al < be:
            acc[al, be] = acc[be, al]
    return BiPoly.make(f, k, {key: QuadElem.from_quadint(f.quad(v)) for key, v in acc.items()})
