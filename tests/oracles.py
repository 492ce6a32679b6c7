"""Brute-force routes kept only to check the production code against.

* `expand_P_quadint` is the transfer polynomial expanded form by form on
  `QuadInt` objects: the full multinomial expansion of each
  (a z zbar + b z + conj(b) zbar + c)^k, with no grouping and no integer
  pairs.  `forms.expand_P` must agree with it coefficient by coefficient.

* `one_var_matrix` is the z substitution matrix of a group element, built
  by multiplying `QuadInt` polynomials.  `polyspace.factors`, which builds
  it on integer pairs, must agree with it entry by entry.

* `pairs_mod` reduces a matrix of integer pairs mod a split prime, under
  either root of omega, and `reductions` turns explicit `QuadInt` rows
  into the `linalg.Reductions` that the modular routines take.
  `second_root` gives `linalg.certified_kernel` the second root's kernel
  of such rows by reducing them under that root and row-reducing there
  (`kernel_mod`), where `polyspace.WordOperator` permutes the first
  root's.

* `row_reduce` is `linalg._row_reduce` on Python ints, column by column,
  with a `% p` after every update and, for a left kernel, the row
  operations carried as a transform that starts as the identity: the
  oracle of `echelon_mod`, `rref_mod` and `left_kernel_mod`, which delay
  the `% p`.  `kernel_mod` reads the Gauss-Jordan kernel basis mod p off
  its reduced form: the oracle of `linalg.kernel_mod_from_span`, which
  reads it off vectors that span the kernel.

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
  arithmetic, z_(n+1) = 1/(z_n - alpha_n) one reduced fraction at a time,
  with the norms of den * delta_(n+1) = den * delta_n * (z_n - alpha_n):
  the oracle of `cfrac.hurwitz_cf`, which runs on integer remainders.
  `eval_points_fractions` walks it with one `Fraction` per step, the oracle
  of `hsum.eval_points` (whose oracle for small denominators is the window
  scan).

* `eval_truncated` is the definition of H_{k,Delta} summed in floating
  point at a complex point, over 0 < |a| <= a_max, with `hsum.tail_bound`
  on the rest (k >= 3): the oracle of the float walk behind
  `hsum.average_quadrature`.  `reduction_residual_float` checks the
  reduction identity at complex z with it, P evaluated in floating point
  from `forms.transfer_coefficients`; `hsum.reduction_identity_check` is
  the exact check at points of K.

* `word_operator_mod` is the stacked word matrix of a
  `polyspace.WordOperator` mod a split prime, built as Kronecker products
  of the factors as the operator reduces them, or of the same factors
  swapped, which are the factors under the second root; the tests compare
  it with the exact matrix reduced, which checks the reductions that
  `reduced_mod` and `in_kernel` share.  `words_mod` is the exact matrix
  reduced under either root, from each element's exact factors, at k too
  large to build the matrix over O_d.

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
from hermitia.forms import (
    BiPoly,
    GroupElement,
    HermitianForm,
    check_delta,
    delta_forms,
    form_ints,
    transfer_coefficients,
    window_scan,
)
from hermitia.hsum import tail_bound
from hermitia.intarith import smallest_prime_factor_sieve
from hermitia.lfun import local_count_coeffs
from hermitia.linalg import Reductions, Rows, SecondRoot, omega_roots
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
    """Explicit rows of `QuadInt` as the reductions the modular routines
    take, under the first root of omega: all of them, or the rows
    `picked`."""
    pairs = [[(e.x, e.y) for e in row] for row in rows]

    def mod(p: int, picked: Sequence[int] | None = None) -> np.ndarray:
        mat = pairs_mod(f, pairs, p)
        return mat if picked is None else mat[list(picked)]

    return mod


def second_root(f: FieldSpec, rows: Rows) -> SecondRoot:
    """The second root's kernel that `linalg.certified_kernel` asks for, on
    explicit rows of `QuadInt`: the rows it eliminates (all if None),
    reduced mod p with omega -> w2 (`pairs_mod`) and row-reduced there
    (`kernel_mod`); the first root's basis is not used."""
    pairs = [[(e.x, e.y) for e in row] for row in rows]

    def kernel(p: int, picked: Sequence[int] | None, basis: np.ndarray) -> np.ndarray:
        mat = pairs_mod(f, pairs, p, omega_roots(f, p)[1])
        return kernel_mod(mat if picked is None else mat[list(picked)], p)[0]

    return kernel


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


def kernel_mod(mat: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """The Gauss-Jordan kernel basis mod the prime p of an int64 matrix
    with entries in [0, p), one row per free column c: 1 at c, 0 at the
    other free columns, and minus the reduced entries of column c at the
    pivot columns, which are 0 right of c.  Also the pivot columns.  From
    the reduced form of `row_reduce`."""
    red, pivots, _ = row_reduce(mat, p, reduced=True)
    free = [c for c in range(mat.shape[1]) if c not in pivots]
    basis = np.zeros((len(free), mat.shape[1]), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, list(pivots)] = (-red[:, free].T) % p
    return basis, pivots


def row_reduce(
    mat: np.ndarray, p: int, reduced: bool, kernel: bool = False
) -> tuple[np.ndarray, tuple[int, ...], np.ndarray | None]:
    """What `linalg._row_reduce` returns: the echelon form mod the prime p
    without its zero rows (with unit pivots and cleared above them if
    `reduced`), its pivot columns and, if `kernel`, the transforms of the
    rows that it zeroes, a basis of { x : x mat = 0 mod p }.  Each column
    in turn takes the first row at or below the next pivot row with a
    nonzero entry there as its pivot; every entry is reduced mod p after
    every update.  Without `kernel` the zero rows of `mat` are dropped
    first, as there."""
    rows = [[int(x) % p for x in row] for row in mat]
    if not kernel:
        rows = [row for row in rows if any(row)]
    nrows, ncols = len(rows), mat.shape[1]
    # the transform, empty rows unless `kernel` asks for it
    trans = [[int(i == j) for j in range(nrows if kernel else 0)] for i in range(nrows)]
    pivots: list[int] = []
    for col in range(ncols):
        top = len(pivots)
        piv = next((r for r in range(top, nrows) if rows[r][col]), None)
        if piv is None:
            continue
        rows[top], rows[piv] = rows[piv], rows[top]
        trans[top], trans[piv] = trans[piv], trans[top]
        inv = pow(rows[top][col], p - 2, p)
        if reduced:
            rows[top] = [x * inv % p for x in rows[top]]
            trans[top] = [x * inv % p for x in trans[top]]
        for r in range(0 if reduced else top + 1, nrows):
            if r == top or not rows[r][col]:
                continue
            c = rows[r][col] * (1 if reduced else inv) % p
            rows[r] = [(x - c * y) % p for x, y in zip(rows[r], rows[top])]
            trans[r] = [(x - c * y) % p for x, y in zip(trans[r], trans[top])]
        pivots.append(col)
    rank = len(pivots)
    echelon = np.array(rows[:rank], dtype=np.int64).reshape(rank, ncols)
    left = np.array(trans[rank:], dtype=np.int64).reshape(nrows - rank, nrows) if kernel else None
    return echelon, tuple(pivots), left


def annihilates(f: FieldSpec, k: int, supp: Support) -> bool:
    """Whether every kernel word of the ring kills the integral polynomial
    of bidegree (k, k) with support `supp`, by the exact word action."""
    P = from_support(f, k, supp, 1)
    return all(apply_word(P, word).is_zero() for word in kernel_words(f))


def word_operator_mod(
    op: WordOperator, p: int, cols: Sequence[int] | None = None, second: bool = False
) -> np.ndarray:
    """The stacked word matrix of `op`, or its columns `cols`, reduced mod
    the split prime p with omega -> w1, the first of `omega_roots`, or with
    omega -> w2 if `second`: int64, entries in [0, p), all-zero rows kept
    (`_stacked_mod`).  The factors are (A, B) as `op` reduces them, or, if
    `second`, (B, A): under w2 the z and zbar factors trade places."""
    a, b = op._reduced(p)[::-1] if second else op._reduced(p)
    words = [[(op.signs[g], a[g], b[g]) for g in range(word.start, word.stop)] for word in op.words]
    return _stacked_mod(words, op.k + 1, p, cols)


def words_mod(f: FieldSpec, k: int, p: int, w: int | None = None) -> np.ndarray:
    """The stacked word matrix of W_{k,k} reduced mod the split prime p with
    omega -> w (by default the first of `omega_roots`), all-zero rows kept,
    from each element's exact factors (`factored_words`) reduced by
    `pairs_mod`: reduction is a ring map, so this is the exact matrix
    reduced, without building it."""
    words = [
        [(sign, pairs_mod(f, az, p, w), pairs_mod(f, azb, p, w)) for sign, az, azb in word]
        for word in factored_words(f, k)
    ]
    return _stacked_mod(words, k + 1, p)


def _stacked_mod(
    words: list[list[tuple[int, np.ndarray, np.ndarray]]], n: int, p: int, cols: Sequence[int] | None = None
) -> np.ndarray:
    """Each word's block, stacked, on the columns `cols` (all by default),
    from (sign, A, B) per element, A and B its z and zbar factors mod p:
    row (i', j') of a word's block is sum_g sign * A_g[i', i] * B_g[j', j]
    at column (i, j)."""
    cols = np.arange(n * n) if cols is None else np.asarray(cols, dtype=np.int64)
    ci, cj = np.divmod(cols, n)
    blocks = []
    for word in words:
        total = np.zeros((n, n, len(ci)), dtype=np.int64)
        for sign, a, b in word:
            # entries are below p < 2^31, so the products fit in int64
            total += sign * (a[:, None, ci] * b[None, :, cj] % p)
        blocks.append(total.reshape(n * n, len(ci)) % p)
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
    is 0; norms[n] is N(den * delta_(n+1)), delta_(n+1) = delta_n (z_n -
    alpha_n) from delta_0 = 1."""
    alphas, p, q, zs, norms = [], [], [], [], []
    p2, p1 = f.zero, f.one
    q2, q1 = f.one, f.zero
    zn, delta = z, QuadElem.from_quadint(f.one)
    while True:
        zs.append(zn)
        a = nearest_int(f, zn)
        alphas.append(a)
        p2, p1 = p1, a * p1 + p2
        q2, q1 = q1, a * q1 + q2
        p.append(p1)
        q.append(q1)
        rem = zn - a
        delta = delta * rem
        norms.append(int(delta.norm() * z.den**2))
        if rem.is_zero():
            return CFExpansion(f, z, True, alphas, p, q, zs, norms, True)
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


def eval_truncated(
    f: FieldSpec, k: int, delta: int, z: complex, a_max: int = 2000
) -> tuple[float, float, int]:
    """The partial sum of H_{k,Delta}(z) over 0 < |a| <= a_max at complex
    z, k >= 3, with the bound `hsum.tail_bound` on the rest and the number
    of terms summed: (value, tail bound, terms).  For k = 1 the series
    diverges off K, so no truncation is meaningful there."""
    check_delta(f, delta)
    if k < 3:
        raise ValueError("eval_truncated needs k >= 3; for k = 1 use eval_exact on K")
    if a_max < 1:
        raise ValueError("a_max must be positive")
    zc = complex(z)
    t, n = f.disc, f.norm_coeff
    half_sqm = f.sqrt_abs_disc / 2.0
    znorm = zc.real * zc.real + zc.imag * zc.imag
    sqrt_delta = math.sqrt(delta)
    total = 0.0
    terms = 0
    for a in range(-a_max, 0):
        cx, cy = -a * zc.real, -a * zc.imag  # v must be within sqrt(D) of here
        ylo = math.floor((cy - sqrt_delta) / half_sqm)
        yhi = math.ceil((cy + sqrt_delta) / half_sqm)
        for vy in range(ylo, yhi + 1):
            imag_off = vy * half_sqm - cy
            rad2 = delta - imag_off * imag_off
            if rad2 < 0:
                continue
            rad = math.sqrt(rad2)
            xbase = vy * t / 2.0
            xlo = math.floor(cx - rad - xbase)
            xhi = math.ceil(cx + rad - xbase)
            for vx in range(xlo, xhi + 1):
                nv = vx * vx + t * vx * vy + n * vy * vy
                if (nv - delta) % a:
                    continue
                c = (nv - delta) // a
                # b = conj(v); trace of b*z is 2*Re(conj(v)*z)
                vre, vim = vx + xbase, vy * half_sqm
                h = a * znorm + 2.0 * (vre * zc.real + vim * zc.imag) + c
                if h > 0.0:
                    total += h**k
                    terms += 1
    return total, tail_bound(f, k, delta, a_max), terms


def reduction_residual_float(
    f: FieldSpec, k: int, delta: int, z: complex, a_max: int = 2000
) -> tuple[float, float]:
    """N(z)^k H(-1/z) - H(z) - P(z, zbar) at complex z != 0, k >= 3, with
    both sums truncated at a_max (`eval_truncated`) and P evaluated in
    floating point from its integer coefficients, and the error bound of
    the truncation, N(z)^k times the tail bound at -1/z plus that at z."""
    zc = complex(z)
    if zc == 0:
        raise ValueError("the reduction identity needs z != 0")
    at_w, tail_w, _ = eval_truncated(f, k, delta, -1.0 / zc, a_max)
    at_z, tail_z, _ = eval_truncated(f, k, delta, zc, a_max)
    zbar, znorm = zc.conjugate(), abs(zc) ** 2
    p = sum(c * zc**i * zbar**j for (i, j), c in transfer_coefficients(f, k, delta).items())
    return znorm**k * at_w - at_z - p.real, znorm**k * tail_w + tail_z
