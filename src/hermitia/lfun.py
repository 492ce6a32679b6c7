"""Special values of L(chi, s) for the quadratic character chi = (d_K/.),
through the Dirichlet series of residue counts of norm forms.

For a signed integer delta and n >= 1 let

    r(delta, n) = #{ beta in O_d/n : N(beta) + delta = 0 (mod n) } .

r is multiplicative in n, and for delta != 0 the series
Z(delta, s) = sum r(delta, n)/n^(s+1) factors as

    Z(delta, s) = theta(delta, s) * zeta(s) / L(chi, s+1),

where theta collects finitely many local corrections: writing X = p^(-1-s),

    theta(delta, s) = prod over p | d_K*delta of R_p(delta; X),

with R_p the explicit local polynomials implemented in `local_factor`
(their argument is the signed delta; sums of forms of discriminant
Delta > 0 enter with delta = -Delta).  Equivalently, the full local factor
of Z at any prime is R_p(delta; X) (1 - chi(p) X)/(1 - p X), whose power
series coefficients are exactly r(delta, p^j); that identity is the main
internal consistency oracle, tested against literal residue counting.

Combining Z with the cell-average of the sums of k-th powers of Hermitian
forms produces closed forms for L(chi, s):

    L(chi, k+2)  = 2 pi Delta^(k+1) theta(-Delta as above, k+1) zeta(k+1)
                    / ((k+1) sqrt(m) alpha_{k,Delta}),
    L(chi, -k-1) = - B_(k+1) (m Delta)^(k+1) theta(.., k+1)
                    / ((k+1) alpha_{k,Delta}),

valid for (k = 1, every d), (k = 3, d in {1, 3, 7}), (k = 5, d = 3) -- the
ranges where the sums are constant.  The right-hand sides are independent
of the chosen non-norm Delta, which is a strong exact self-check.  Negative
values are independently computable from generalized Bernoulli numbers
(L(chi, 1-n) = -B_(n,chi)/n) and positive ones from Hurwitz-zeta character
sums; both serve as oracles here.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

# mpmath is imported in the functions that compute with it, so that the
# commands that compute no L-value start without loading it
# (tests/test_cli.py::test_only_the_l_value_commands_import_mpmath).

from .field import FieldSpec, field, kronecker, smallest_nonnorm
from .forms import alpha
from .intarith import factorize

# ------------------------------------------------------------ residue counts


def r_count(f: FieldSpec, delta: int, n: int) -> int:
    """r(delta, n) by exact counting, O(n) time.

    Counting pairs (x, y) mod n with x^2 + t x y + n_c y^2 + delta = 0
    (mod n) is done by completing the square: with u = 2x + t*y mod 2n the
    condition becomes u^2 = d_K y^2 - 4 delta (mod 4n), and u runs once
    over each residue mod 2n of the parity of t*y.
    """
    if n <= 0:
        raise ValueError("modulus must be positive")
    modulus = 4 * n
    table: dict[tuple[int, int], int] = {}
    for u in range(2 * n):
        key = (u & 1, u * u % modulus)
        table[key] = table.get(key, 0) + 1
    total = 0
    disc = f.disc
    for y in range(n):
        target = (disc * y * y - 4 * delta) % modulus
        total += table.get(((disc * y) & 1, target), 0)
    return total


def r_count_naive(f: FieldSpec, delta: int, n: int) -> int:
    """The definitional O(n^2) count; the independent oracle for r_count."""
    if n <= 0:
        raise ValueError("modulus must be positive")
    total = 0
    for x in range(n):
        for y in range(n):
            if (f.norm_int(x, y) + delta) % n == 0:
                total += 1
    return total


# ------------------------------------------------------------- local factors


def local_factor(f: FieldSpec, delta: int, p: int) -> list[int]:
    """Coefficients [c_0, c_1, ...] of the local polynomial R_p(delta; X).

    delta is the signed series argument and must be nonzero.  For
    p not dividing d_K*delta the polynomial is 1.
    """
    if delta == 0:
        raise ValueError("local factors need delta != 0")
    d_K = f.disc
    t_val = 0
    delta0 = delta
    while delta0 % p == 0:
        delta0 //= p
        t_val += 1
    if d_K % p != 0:
        # sum_{i<=t} (chi(p) p X)^i
        cp = f.chi(p) * p
        return [cp**i for i in range(t_val + 1)]
    if p != 2:
        d0 = d_K // p
        sym = kronecker(-(abs(d0) ** t_val) * delta0, p)
        coeffs = [0] * (t_val + 2)
        coeffs[0] = 1
        coeffs[t_val + 1] = sym * p ** (t_val + 1)
        return coeffs
    d1 = d_K // 4
    if d1 % 4 == 2:
        d2 = -d1 // 2
        sign = 1 if d1 % 8 == 2 else -1
        top = 8 if d1 % 8 == 2 else -8
        sym = kronecker(top, delta0 * d2**t_val)
        coeffs = [0] * (t_val + 4)
        coeffs[0] = 1
        coeffs[t_val + 3] = sign * sym * 2 ** (t_val + 3)
        return coeffs
    # d1 = 3 mod 4 (covers d_K = -4)
    d2 = (1 - d1) // 2
    sym = kronecker(-4, delta0 * d2**t_val)
    coeffs = [0] * (t_val + 3)
    coeffs[0] = 1
    coeffs[t_val + 2] = -sym * 2 ** (t_val + 2)
    return coeffs


def local_count_coeffs(f: FieldSpec, delta: int, p: int, jmax: int) -> list[int]:
    """r(delta, p^j) for 0 <= j <= jmax, from the local series

    R_p(delta; Y) (1 - chi(p) Y) / (1 - p Y).
    """
    rp = local_factor(f, delta, p)
    chi_p = f.chi(p)
    a = [0] * (len(rp) + 1)
    for i, c in enumerate(rp):
        a[i] += c
        a[i + 1] -= chi_p * c
    out = []
    for j in range(jmax + 1):
        out.append(sum(a[i] * p ** (j - i) for i in range(min(j, len(a) - 1) + 1)))
    return out


def r_count_multiplicative(f: FieldSpec, delta: int, n: int) -> int:
    """r(delta, n) via multiplicativity and the local series (delta != 0);
    its time is that of `factorize(n)`.  `r_count` and `r_count_naive` are
    its oracles."""
    if n <= 0:
        raise ValueError("modulus must be positive")
    total = 1
    for p, e in factorize(n).items():
        total *= local_count_coeffs(f, delta, p, e)[e]
    return total


def theta(f: FieldSpec, delta: int, s: int) -> Fraction:
    """theta(delta, s) for a form discriminant delta > 0: the product of
    R_p(-delta; p^(-1-s)) over p | d_K*delta, as an exact rational."""
    if delta <= 0:
        raise ValueError(f"--delta must be the positive form discriminant, got {delta}")
    if s < 1:
        raise ValueError(f"-s must be at least 1 for theta, got {s}")
    # R_p at X = 1/q, q = p^(s+1), is (sum c_i q^(T-i)) / q^T, T its
    # degree: one Horner pass on integers, and one reduction at the end
    num = den = 1
    for p in sorted(factorize(f.abs_disc * delta)):
        q = p ** (s + 1)
        coeffs = local_factor(f, -delta, p)
        acc = 0
        for c in coeffs:
            acc = acc * q + c
        num *= acc
        den *= q ** (len(coeffs) - 1)
    return Fraction(num, den)


# ------------------------------------------------------------ Dirichlet side


def zseries_closed_form(f: FieldSpec, delta: int, s: int, bits: int = 128):
    """Z(-delta, s) = theta(delta, s) zeta(s) / L(chi, s+1), numerically."""
    import mpmath

    exact = theta(f, delta, s)
    with mpmath.workprec(bits + 16):
        th = mpmath.mpf(exact.numerator) / exact.denominator
        return th * mpmath.zeta(s) / l_positive_numeric(f, s + 1, bits)


# --------------------------------------------------------- Bernoulli oracles


@lru_cache(maxsize=None)
def bernoulli_number(n: int) -> Fraction:
    """B_n with the B_1 = -1/2 convention."""
    if n == 0:
        return Fraction(1)
    total = Fraction(0)
    for j in range(n):
        total += math.comb(n + 1, j) * bernoulli_number(j)
    return -total / (n + 1)


def bernoulli_poly(n: int, x: Fraction) -> Fraction:
    """The Bernoulli polynomial B_n(x), exactly."""
    x = Fraction(x)
    return sum(
        math.comb(n, j) * bernoulli_number(j) * x ** (n - j) for j in range(n + 1)
    )


def generalized_bernoulli(f: FieldSpec, n: int) -> Fraction:
    """B_(n,chi) for the attached character, conductor m = |d_K|."""
    m = f.abs_disc
    return m ** (n - 1) * sum(
        f.chi(a) * bernoulli_poly(n, Fraction(a, m)) for a in range(1, m + 1)
    )


def l_negative_exact(f: FieldSpec, s: int) -> Fraction:
    """L(chi, s) for integer s <= 0, exactly: L(chi, 1-n) = -B_(n,chi)/n."""
    if s > 0:
        raise ValueError("exact Bernoulli evaluation is for s <= 0")
    n = 1 - s
    return -generalized_bernoulli(f, n) / n


# --------------------------------------------------------- numeric baselines


def l_positive_numeric(f: FieldSpec, s, bits: int = 128):
    """L(chi, s) for s > 1 via the Hurwitz-zeta character sum
    L = m^(-s) sum_{a<m} chi(a) zeta(s, a/m), at the requested precision."""
    import mpmath

    m = f.abs_disc
    with mpmath.workprec(bits + 16):
        s_mp = mpmath.mpf(s)
        if not s_mp > 1:
            raise ValueError("the character sum converges for s > 1")
        total = mpmath.mpf(0)
        for a in range(1, m):
            ch = f.chi(a)
            if ch:
                total += ch * mpmath.zeta(s_mp, mpmath.mpf(a) / m)
        return total / mpmath.mpf(m) ** s_mp


def functional_equation_negative(f: FieldSpec, s: int, l_at_s, bits: int = 128):
    """L(chi, 1-s) from L(chi, s) via
    L(1-s) = 2 m^(s-1/2) (2 pi)^(-s) Gamma(s) sin(s pi/2) L(s)."""
    import mpmath

    m = f.abs_disc
    with mpmath.workprec(bits + 16):
        return (
            2
            * mpmath.mpf(m) ** (s - mpmath.mpf(1) / 2)
            * (2 * mpmath.pi) ** (-s)
            * mpmath.gamma(s)
            * mpmath.sin(s * mpmath.pi / 2)
            * l_at_s
        )


# ------------------------------------------------------------ special values

# (k, allowed d): the ranges where the sums of k-th powers are constant.
CONSTANCY_SCOPE: dict[int, tuple[int, ...]] = {
    1: (1, 2, 3, 7, 11),
    3: (1, 3, 7),
    5: (3,),
}


def _scope_k(f: FieldSpec, s: int) -> int:
    if s >= 3 and s % 2 == 1:
        k = s - 2
    elif s <= -2 and s % 2 == 0:
        k = -s - 1
    else:
        raise ValueError(
            f"-s = {s} is not covered: allowed are odd s >= 3 and even s <= -2"
        )
    if k not in CONSTANCY_SCOPE or f.d not in CONSTANCY_SCOPE[k]:
        ks = [j for j, ds in CONSTANCY_SCOPE.items() if f.d in ds]
        allowed = [j + 2 for j in ks] + [-j - 1 for j in ks]
        raise ValueError(
            f"-s = {s} is outside the constancy range of the closed-form "
            f"evaluation (for d = {f.d}, s is one of {', '.join(map(str, allowed))})"
        )
    return k


def zeta_even_over_pi_power(n: int) -> Fraction:
    """zeta(n)/pi^n for even n >= 2, exactly."""
    if n < 2 or n % 2:
        raise ValueError("closed form only for even n >= 2")
    j = n // 2
    return Fraction((-1) ** (j + 1)) * bernoulli_number(n) * 2 ** (n - 1) / math.factorial(n)


@dataclass(frozen=True)
class LValue:
    """An exact special value: coeff * pi^pi_power [* 1/sqrt(m)]."""

    d: int
    s: int
    delta: int
    coeff: Fraction
    pi_power: int
    inv_sqrt_disc: bool

    @property
    def is_rational(self) -> bool:
        return self.pi_power == 0 and not self.inv_sqrt_disc

    def numeric(self, bits: int = 128):
        import mpmath

        with mpmath.workprec(bits + 16):
            v = mpmath.mpf(self.coeff.numerator) / self.coeff.denominator
            if self.pi_power:
                v *= mpmath.pi**self.pi_power
            if self.inv_sqrt_disc:
                v /= mpmath.sqrt(field(self.d).abs_disc)
            return v

    def exact_str(self) -> str:
        if self.is_rational:
            return str(self.coeff)
        body = f"({self.coeff})"
        if self.pi_power:
            body += f"*pi^{self.pi_power}" if self.pi_power != 1 else "*pi"
        if self.inv_sqrt_disc:
            body += f"/sqrt({field(self.d).abs_disc})"
        return body

    def __str__(self) -> str:
        return f"L(chi_{field(self.d).disc}, {self.s}) = {self.exact_str()}"


def l_closed_form(f: FieldSpec, s: int, delta: int | None = None) -> LValue:
    """L(chi, s) in closed form from the constants alpha_{k,Delta} and the
    rational theta factor; exact up to the explicit pi^s/sqrt(m) for
    positive s and fully rational for negative s.

    Scope: s in {3, -2} for every d; {5, -4} for d in {1, 3, 7};
    {7, -6} for d = 3.  delta defaults to the smallest non-norm and the
    result is independent of which non-norm is chosen.
    """
    k = _scope_k(f, s)
    if delta is None:
        delta = smallest_nonnorm(f.d)
    al = alpha(f, k, delta)
    th = theta(f, delta, k + 1)
    if s > 0:
        coeff = 2 * Fraction(delta) ** (k + 1) * th * zeta_even_over_pi_power(k + 1)
        coeff /= (k + 1) * al
        inv_sqrt = True
        m = f.abs_disc
        root = math.isqrt(m)
        if root * root == m:  # fold a rational sqrt into the coefficient
            coeff /= root
            inv_sqrt = False
        return LValue(f.d, s, delta, coeff, s, inv_sqrt)
    coeff = -bernoulli_number(k + 1) * Fraction(f.abs_disc * delta) ** (k + 1) * th
    coeff /= (k + 1) * al
    return LValue(f.d, s, delta, coeff, 0, False)


# ------------------------------------------------------------------ benchmark


@dataclass(frozen=True)
class BenchReport:
    d: int
    s: int
    bits: int
    fast_seconds: float
    baseline_seconds: float
    agree: bool
    value: str

    @property
    def speedup(self) -> float:
        return self.baseline_seconds / self.fast_seconds


def bench_negative(
    f: FieldSpec, s: int = -2, bits: int = 128, repeats: int = 5
) -> BenchReport:
    """Time the closed-form evaluation of L(chi, s), s < 0, against the
    character-sum baseline pushed through the functional equation at the
    same working precision.  Reports the best of `repeats` runs each."""
    import mpmath

    if s >= 0:
        raise ValueError(f"-s must be negative for the benchmark, got {s}")
    sigma = 1 - s

    def fast():
        return l_closed_form(f, s)

    def baseline():
        return functional_equation_negative(
            f, sigma, l_positive_numeric(f, sigma, bits), bits
        )

    fast_val, base_val = fast(), baseline()
    t_fast = min(_time_once(fast) for _ in range(repeats))
    t_base = min(_time_once(baseline) for _ in range(repeats))
    with mpmath.workprec(bits + 16):
        agree = abs(fast_val.numeric(bits) - base_val) < mpmath.mpf(2) ** (
            -(bits - 8)
        ) * (1 + abs(base_val))
    return BenchReport(f.d, s, bits, t_fast, t_base, bool(agree), fast_val.exact_str())


def _time_once(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0
