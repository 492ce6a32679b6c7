"""Brute-force routes kept only to check the production code against.

* `expand_P_quadint` is the transfer polynomial expanded form by form on
  `QuadInt` objects: the full multinomial expansion of each
  (a z zbar + b z + conj(b) zbar + c)^k, with no grouping and no integer
  pairs.  `forms.expand_P` must agree with it coefficient by coefficient.

* `one_var_matrix` is the z substitution matrix of a group element, built
  by multiplying `QuadInt` polynomials.  `polyspace.factors`, which builds
  it on integer pairs, must agree with it entry by entry.

* `pairs_mod` reduces a matrix of integer pairs mod a split prime, and
  `reductions` turns explicit `QuadInt` rows into the `linalg.Reductions`
  that the modular routines take.

* `word_action_loop` is the exact word action as a Python loop over the
  support, one `pair_mul` at a time, on the `factored_words` of a ring:
  the oracle of `polyspace.apply_word`, which runs it as integer matrix
  products.

* `annihilates` checks exactly that every kernel word kills an integral
  polynomial, by `polyspace.apply_word`: the oracle of
  `WordOperator.in_kernel` and of `membership`, which prove it from
  reductions mod split primes.

* `zseries_partial` sums the Dirichlet series Z(-Delta, s), the oracle of
  `lfun.zseries_closed_form`; `enumerate_window` sorts `forms.window_scan`.

* `hurwitz_cf_elems` is the exact Hurwitz continued fraction on `QuadElem`
  arithmetic, z_(n+1) = 1/(z_n - alpha_n) one reduced fraction at a time:
  the oracle of `cfrac.hurwitz_cf`, which runs on integer remainders.
  `eval_points_fractions` walks it with one `Fraction` per step, the oracle
  of `hsum.eval_points` (whose oracle for small denominators is the window
  scan).

* `word_operator_mod` is the stacked word matrix of a
  `polyspace.WordOperator` mod a split prime, built as Kronecker products
  of the factors as the operator reduces them; the tests compare it with
  the exact matrix reduced, which checks the reductions that
  `reduced_mod` and `in_kernel` share.

* `poly_to_vector` and `vector_to_poly` convert between a `BiPoly` and its
  flat coefficient vector of `QuadElem`, index (k+1)*i + j for z^i zbar^j,
  and `elems` turns a vector of integer pairs into `QuadElem`s: the input
  format of the matrix oracles `polyspace.operator_matrix` and
  `linalg.matvec_is_zero`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from hermitia.cfrac import CFExpansion
from hermitia.field import ZERO, FieldSpec, Pair, QuadElem, QuadInt, nearest_int, pair_mul
from hermitia.forms import BiPoly, GroupElement, HermitianForm, check_delta, delta_forms, form_ints, window_scan
from hermitia.intarith import smallest_prime_factor_sieve
from hermitia.lfun import local_count_coeffs
from hermitia.linalg import Reductions, Rows, omega_roots
from hermitia.polyspace import (
    PairMatrix,
    Support,
    WordOperator,
    apply_word,
    conjugate,
    factors,
    flat_index,
    from_support,
    kernel_words,
)


def expand_P_quadint(f: FieldSpec, k: int, delta: int) -> BiPoly:
    """P_{k,Delta} summed over `delta_forms` one form at a time."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    check_delta(f, delta)
    acc: dict[tuple[int, int], QuadInt] = {}
    fact = math.factorial
    for h in delta_forms(f, delta):
        a_pow = [h.a**i for i in range(k + 1)]
        c_pow = [h.c**i for i in range(k + 1)]
        b_pow = _int_power_list(h.b, k)
        bbar_pow = _int_power_list(h.b.conj(), k)
        for i in range(k + 1):
            for j in range(k + 1 - i):
                for l in range(k + 1 - i - j):
                    r = k - i - j - l
                    mult = fact(k) // (fact(i) * fact(j) * fact(l) * fact(r))
                    coeff = (mult * a_pow[i] * c_pow[r]) * (b_pow[j] * bbar_pow[l])
                    key = (i + j, i + l)
                    acc[key] = acc[key] + coeff if key in acc else coeff
    return BiPoly.make(
        f, k, {key: QuadElem.from_quadint(v) for key, v in acc.items()}
    )


def _int_power_list(q: QuadInt, n: int) -> list[QuadInt]:
    out = [q.field.one]
    for _ in range(n):
        out.append(out[-1] * q)
    return out


def _poly_mul(f: FieldSpec, a: list[QuadInt], b: list[QuadInt]) -> list[QuadInt]:
    out = [f.zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai.is_zero():
            continue
        for j, bj in enumerate(b):
            if not bj.is_zero():
                out[i + j] = out[i + j] + ai * bj
    return out


def _binomial_powers(f: FieldSpec, lo: QuadInt, hi: QuadInt, n: int) -> list[list[QuadInt]]:
    """pows[j] = coefficients (in z) of (hi*z + lo)^j for j = 0..n."""
    pows = [[f.one]]
    base = [lo, hi]
    for _ in range(n):
        pows.append(_poly_mul(f, pows[-1], base))
    return pows


def one_var_matrix(f: FieldSpec, g: GroupElement, n: int) -> list[list[QuadInt]]:
    """(n+1) x (n+1) matrix A with A[i][j] = coefficient of z^i in
    (a z + b)^j (c z + e)^(n-j)."""
    a, b, c, e = g.entries()
    top = _binomial_powers(f, b, a, n)
    bot = _binomial_powers(f, e, c, n)
    cols = [_poly_mul(f, top[j], bot[n - j]) for j in range(n + 1)]
    return [[cols[j][i] for j in range(n + 1)] for i in range(n + 1)]


def pairs_mod(
    f: FieldSpec, rows: Sequence[Sequence[Pair]], p: int, w: int | None = None
) -> np.ndarray:
    """A matrix of integer pairs x + y*omega, reduced mod the split prime p
    with omega -> w (by default the first of `omega_roots`)."""
    if w is None:
        w = omega_roots(f, p)[0]
    mat = np.array([[(x + y * w) % p for x, y in row] for row in rows], dtype=np.int64)
    return mat.reshape(len(rows), len(rows[0]) if len(rows) else 0)


def reductions(f: FieldSpec, rows: Rows) -> Reductions:
    """Explicit rows of `QuadInt` as the reductions the modular routines take."""
    pairs = [[(e.x, e.y) for e in row] for row in rows]
    return lambda p, w: pairs_mod(f, pairs, p, w)


def elems(f: FieldSpec, vec: Sequence[Pair]) -> list[QuadElem]:
    """Integer pairs (x, y) as the field elements x + y*omega."""
    return [QuadElem.from_quadint(f.quad(x, y)) for x, y in vec]


def poly_to_vector(P: BiPoly) -> list[QuadElem]:
    """P's coefficients as a flat vector of length (n+1)^2."""
    vec = [QuadElem.from_quadint(P.field.zero)] * (P.n + 1) ** 2
    for (i, j), c in P.coeffs.items():
        vec[flat_index(P.n, i, j)] = c
    return vec


def vector_to_poly(f: FieldSpec, k: int, vec: Sequence[QuadElem]) -> BiPoly:
    """The BiPoly of bidegree (k, k) with the flat coefficient vector `vec`."""
    return BiPoly.make(
        f, k, {(i, j): vec[flat_index(k, i, j)] for i in range(k + 1) for j in range(k + 1)}
    )


FactoredWord = list[tuple[int, PairMatrix, PairMatrix]]


def factored_words(f: FieldSpec, k: int) -> list[FactoredWord]:
    """Each of `kernel_words(f)` as (sign, z factor, zbar factor) per
    element: `factor_pair`."""
    return [[(sign, *factor_pair(f, g, k)) for sign, g in word] for word in kernel_words(f)]


def factor_pair(f: FieldSpec, g: GroupElement, k: int) -> tuple[PairMatrix, PairMatrix]:
    """The z factor of g (`polyspace.factors`) and its conjugate, the zbar
    factor."""
    az = factors(f, g, k)
    return az, conjugate(f, az)


def word_action_loop(
    f: FieldSpec, word: FactoredWord, support: Support, n: int
) -> list[list[list[int]]]:
    """The n x n grid whose entry [x, y] at (p, q) is the z^p zbar^q
    coefficient of sum sign * (v|g) over the word, each g given by its
    factors, for the integral v of bidegree (n-1, n-1) given by its
    `support`.  Each g acts separably: z factor along z, then zbar factor
    along zbar."""
    total = [[[0, 0] for _ in range(n)] for _ in range(n)]
    for sign, az, azb in word:
        # half[p][j] = sum_i az[p][i] * v[i][j]
        half = [[[0, 0] for _ in range(n)] for _ in range(n)]
        for (i, j), v in support:
            for p in range(n):
                a = az[p][i]
                if a != ZERO:
                    x, y = pair_mul(f, a, v)
                    h = half[p][j]
                    h[0] += x
                    h[1] += y
        for p, row in enumerate(half):
            for j, (hx, hy) in enumerate(row):
                if hx == 0 and hy == 0:
                    continue
                for q in range(n):
                    b = azb[q][j]
                    if b != ZERO:
                        x, y = pair_mul(f, b, (hx, hy))
                        t = total[p][q]
                        t[0] += sign * x
                        t[1] += sign * y
    return total


def annihilates(f: FieldSpec, k: int, supp: Support) -> bool:
    """Whether every kernel word of the ring kills the integral polynomial
    of bidegree (k, k) with support `supp`, by the exact word action."""
    P = from_support(f, k, supp, 1)
    return all(apply_word(P, word).is_zero() for word in kernel_words(f))


def word_operator_mod(
    op: WordOperator, p: int, w: int, cols: Sequence[int] | None = None
) -> np.ndarray:
    """The stacked word matrix of `op`, or its columns `cols`, reduced mod
    the split prime p with omega -> w, one of `omega_roots`: int64, entries
    in [0, p), all-zero rows kept.  Row (i', j') of a word's block is
    sum_g sign * A_g[i', i] * B_g[j', j] at column (i, j), from the factors
    as `op` reduces them."""
    n = op.k + 1
    cols = np.arange(op.size) if cols is None else np.asarray(cols, dtype=np.int64)
    ci, cj = np.divmod(cols, n)
    a, b = op._reduced(p, w)
    blocks = []
    for word in op.words:
        total = np.zeros((n, n, len(ci)), dtype=np.int64)
        for g in range(word.start, word.stop):
            # entries are below p < 2^31, so the products fit in int64
            total += op.signs[g] * (a[g][:, None, ci] * b[g][None, :, cj] % p)
        blocks.append(total.reshape(op.size, len(ci)) % p)
    return np.vstack(blocks)


def zseries_partial(f: FieldSpec, delta: int, s: int, n_max: int) -> float:
    """Partial sum over n <= n_max of r(-delta, n)/n^(s+1), delta > 0.

    Uses multiplicativity with a smallest-prime-factor sieve; the
    prime-power counts come from the proven local series.
    """
    if delta <= 0:
        raise ValueError("zseries takes the positive form discriminant")
    spf = smallest_prime_factor_sieve(n_max)
    cache: dict[tuple[int, int], int] = {}

    def r_of(n: int) -> int:
        total = 1
        while n > 1:
            p = spf[n]
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            key = (p, e)
            if key not in cache:
                cache[key] = local_count_coeffs(f, -delta, p, e)[e]
            total *= cache[key]
        return total

    total = 0.0
    for n in range(1, n_max + 1):
        total += r_of(n) / float(n) ** (s + 1)
    return total


def enumerate_window(f: FieldSpec, delta: int, z: QuadElem) -> list[HermitianForm]:
    """The forms of `window_scan` as HermitianForms, sorted by a, then by
    the trace and omega coordinate of b."""
    out = []
    for a, vx, vy, _ in window_scan(f, delta, z):
        v = QuadInt(f, vx, vy)
        out.append(HermitianForm(a, v.conj(), (v.norm() - delta) // a))
    out.sort(key=lambda h: (h.a, h.b.trace(), h.b.y))
    return out


def hurwitz_cf_elems(f: FieldSpec, z: QuadElem) -> CFExpansion:
    """The exact Hurwitz expansion of z by `QuadElem` arithmetic: round z_n
    to its nearest ring integer alpha_n and invert the remainder, until it
    is 0."""
    alphas, p, q, zs = [], [], [], []
    p2, p1 = f.zero, f.one
    q2, q1 = f.one, f.zero
    zn = z
    while True:
        zs.append(zn)
        a = nearest_int(f, zn)
        alphas.append(a)
        p2, p1 = p1, a * p1 + p2
        q2, q1 = q1, a * q1 + q2
        p.append(p1)
        q.append(q1)
        rem = zn - a
        if rem.is_zero():
            return CFExpansion(f, z, True, alphas, p, q, zs, True)
        zn = rem.inverse()


def eval_points_fractions(f: FieldSpec, k: int, delta: int, points: list[QuadElem]) -> list[Fraction]:
    """H_{k,Delta} at each point by the walk along `hurwitz_cf_elems`, with
    H(z_n) = N(r)^k H(1/r) - P(r) for the remainder r = z_n - alpha_n in
    lowest terms, (x + y*omega)/den: each form (a, b, c) with c < 0 < a adds
    to P(r) the k-th power of h(r,1)*den^2 = a*N(x, y) +
    den*(x*Tr(b) + y*Tr(b*omega)) + c*den^2, over den^(2k)."""
    t, tt = f.disc, f.disc * f.disc - 2 * f.norm_coeff
    terms = [(a, 2 * x + t * y, t * x + tt * y, c) for a, x, y, c in form_ints(f, delta)]
    h_zero = sum((-c) ** k for _, _, _, c in terms)
    values = []
    for z in points:
        total, scale = Fraction(0), Fraction(1)
        exp = hurwitz_cf_elems(f, z)
        for zn, an in zip(exp.zs, exp.alphas):
            r = zn - an
            if r.is_zero():
                values.append(total + scale * h_zero)
                break
            x, y, den = r.num.x, r.num.y, r.den
            nrm, dd = f.norm_int(x, y), den * den
            p = sum((a * nrm + den * (tb * x + tbw * y) + c * dd) ** k for a, tb, tbw, c in terms)
            total -= scale * Fraction(p, dd**k)
            scale *= Fraction(nrm, dd) ** k
    return values
