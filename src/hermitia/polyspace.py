"""The modules V_{k,k} of bidegree-(k, k) polynomials in (z, zbar) and the
parabolic cocycle subspaces W_{k,k} inside them.

GL_2(O_d) acts on the right on V_{k,k} by

    (P|g)(z, zbar) = (c z + e)^k (c~ zbar + e~)^k P(g z, g~ zbar),

where g = [[a, b], [c, e]], g~ is the entrywise conjugate, and gz is the
Moebius image.  On coefficient vectors the action is the Kronecker product
of two one-variable substitution matrices, so words in the generators
become integral matrices over O_d and the cocycle conditions become exact
kernel computations (see `linalg`).

W_{k,k} is the common kernel of a short list of word operators derived
from a presentation of PGL-type for each of the five rings (generators:
the inversion S, the translations T = T_1 and T_t by the ring generator t,
and for d = 1, 3 the diagonal unit rotation L).  The distinguished
diagonal involution eps splits W_{k,k} into eigenspaces indexed by the
unit group; the sums of k-th powers of Hermitian forms land in the
eigenvalue-1 part.

On the W_{k,k} path a polynomial is its `Support`: the nonzero
coefficients of an integral polynomial as integer pairs, keyed by
monomial.  The kernels (`WordOperator.kernel`) return supports, proven
from the operator's reductions mod split primes under a height bound
(`WordOperator.in_kernel`), and `wkk` makes each basis `BiPoly` once from
its support; `QuadElem` appears only in the `BiPoly`s returned.
`membership` proves M (den * P) = 0 by the same `in_kernel`, on the
support of den * P.  The path builds no exact factor: `WordOperator`
computes each element's z factor mod p from the element's four entries,
as values at s = 0..k for `in_kernel` and as coefficients for the rows of
`reduced_mod`, and bounds the height from them (`row_majorant`).

The exact word action is `apply_word`: each element g acts as A_g V
B_g^T, V the grid of coefficients, A_g the z factor of g (`factors`) and
B_g its conjugate, by three integer matrix products per product of grids
(`pair_matmul`, on arrays of Python ints: the entries outgrow int64).
`act_poly` is the one-element case.  Neither is on the W_{k,k} path.
`operator_matrix`, `word_matrix` and `stacked_word_matrix` build the
exact matrices of an element, of a word and of every kernel word, which
`WordOperator` never builds: the tests check it against them, and they
stay in the package while `bench/spans.py` traces `stacked_word_matrix` by
name.

The first word, 1 + S, is solved in closed form.  S acts by a signed
permutation, (z^i zbar^j)|S = (-1)^(i+j) z^(k-i) zbar^(k-j), so P|(1+S) = 0
says v[k-i, k-j] = -(-1)^(i+j) v[i, j] (the relation of the period
polynomials of Kohnen and Zagier, "Modular forms with rational periods",
1984).  Its kernel is parametrized by the upper half of the flat index,
and every rank and kernel of `wkk` runs on the other words restricted to
it (`WordOperator.reduced_mod`), about half the columns and without the S
word's rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .field import ZERO, FieldSpec, Pair, QuadElem, QuadInt, pair_conj, pair_mul, pair_powers
from .forms import (
    BiPoly,
    GroupElement,
    gen_S,
    gen_T,
    gen_T_omega,
    identity,
)
from . import linalg

# ------------------------------------------------------------------- action


def flat_index(k: int, i: int, j: int) -> int:
    return i * (k + 1) + j


PairMatrix = list[list[Pair]]
# the nonzero coefficients of an integral polynomial, as ((i, j), pair)
Support = list[tuple[tuple[int, int], Pair]]


def factors(f: FieldSpec, g: GroupElement, k: int) -> PairMatrix:
    """The z factor of `operator_matrix(g)` as integer pairs: the z
    substitution matrix A of g = [[a, b], [c, e]], with A[i][j] the
    coefficient of z^i in (a z + b)^j (c z + e)^(k-j).  The zbar factor is
    its `conjugate`."""
    def binomials(hi: Pair, lo: Pair) -> PairMatrix:
        """rows[j][s] = coefficient of z^s in (hi z + lo)^j, for j <= k."""
        his, los = pair_powers(f, hi, k), pair_powers(f, lo, k)
        rows = []
        for j in range(k + 1):
            row = []
            for s in range(j + 1):
                x, y = pair_mul(f, his[s], los[j - s])
                m = math.comb(j, s)
                row.append((m * x, m * y))
            rows.append(row)
        return rows

    a, b, c, e = ((q.x, q.y) for q in g.entries())
    top, bot = binomials(a, b), binomials(c, e)
    az = [[ZERO] * (k + 1) for _ in range(k + 1)]
    for j in range(k + 1):
        for s, t in enumerate(top[j]):
            if t == ZERO:
                continue
            for r, u in enumerate(bot[k - j]):
                if u != ZERO:
                    x, y = pair_mul(f, t, u)
                    ax, ay = az[s + r][j]
                    az[s + r][j] = (ax + x, ay + y)
    return az


def conjugate(f: FieldSpec, mat: PairMatrix) -> PairMatrix:
    """The entrywise conjugate of a matrix of integer pairs.  Conjugation is
    a ring automorphism, so the conjugate of `factors(f, g, k)` is the z
    substitution matrix of g.conj(): the zbar factor of g."""
    return [[pair_conj(f, q) for q in row] for row in mat]


def operator_matrix(f: FieldSpec, g: GroupElement, k: int) -> list[list[QuadInt]]:
    """Matrix of P -> P|g on coefficient vectors: the Kronecker product of
    the z factor (`factors`) along z and its conjugate along zbar."""
    az = factors(f, g, k)
    azb = conjugate(f, az)
    n = k + 1
    return [
        [f.quad(*pair_mul(f, az[i1][i2], azb[j1][j2])) for i2 in range(n) for j2 in range(n)]
        for i1 in range(n)
        for j1 in range(n)
    ]


def pair_matmul(
    f: FieldSpec, ax: np.ndarray, ay: np.ndarray, bx: np.ndarray, by: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(ax + ay*omega) @ (bx + by*omega) with omega^2 = d_K omega - n, by
    three products: the mixed part is (ax + ay) @ (bx + by) - xx - yy."""
    xx, yy = ax @ bx, ay @ by
    return xx - f.norm_coeff * yy, (ax + ay) @ (bx + by) - xx + (f.disc - 1) * yy


def act_poly(P: BiPoly, g: GroupElement) -> BiPoly:
    """(P|g): `apply_word` on the one-element word."""
    return apply_word(P, [(1, g)])


def support(P: BiPoly) -> tuple[int, Support]:
    """The lcm den of P's denominators, and the support of den * P."""
    den = math.lcm(*(c.den for c in P.coeffs.values()))
    scaled = ((ij, c.num, den // c.den) for ij, c in P.coeffs.items())
    return den, [(ij, (q.x * m, q.y * m)) for ij, q, m in scaled]


def from_support(f: FieldSpec, k: int, supp: Support, den: int) -> BiPoly:
    """The polynomial (1/den) * sum x_ij z^i zbar^j of bidegree (k, k)
    over the support ((i, j), x_ij)."""
    return BiPoly.make(f, k, {ij: QuadElem.make(f, x, y, den) for ij, (x, y) in supp})


# -------------------------------------------------------- unit eigenstructure


def unit_diagonal(f: FieldSpec, u: QuadInt) -> GroupElement:
    return GroupElement.make(f, [[u, 0], [0, 1]])


def epsilon(f: FieldSpec) -> GroupElement:
    """The diagonal unit rotation diag(u, 1) splitting W_{k,k}, u the
    primitive unit of the ring."""
    return unit_diagonal(f, f.units()[1])


def eigen_labels(f: FieldSpec) -> list[str]:
    return list(f.unit_labels)


def eigen_exponent(f: FieldSpec, i: int, j: int) -> int:
    """Exponent e with (z^i zbar^j)|eps = u^e z^i zbar^j."""
    return (i - j) % len(f.unit_labels)


# --------------------------------------------------------------- word lists

Word = list[tuple[int, GroupElement]]


def kernel_words(f: FieldSpec) -> list[Word]:
    """Signed group words whose operators cut out W_{k,k} as a common
    kernel.  They encode the parabolic cocycle conditions coming from the
    defining relations of the automorphism group over O_d."""
    I = identity(f)
    S = gen_S(f)
    T = gen_T(f)
    Tw = gen_T_omega(f)
    U = T @ S
    words: list[Word] = [
        [(1, I), (1, S)],
        [(1, I), (1, U), (1, U @ U)],
    ]
    if f.d in (1, 3):
        u = f.units()
        # diag(i, -i) for d = 1; diag(zeta3^2, zeta3) with zeta3 = u^2 for d = 3
        L = GroupElement.make(
            f, [[u[1], 0], [0, u[3]]] if f.d == 1 else [[u[4], 0], [0, u[2]]]
        )
        E = Tw @ S @ L
        words.insert(1, [(1, I), (-1, L)])
        words.append([(1, I), (1, E), (1, E @ E)])
    elif f.d == 2:
        words.append(
            [(1, I), (1, S @ Tw), (1, Tw @ S), (1, Tw.inverse() @ S @ Tw @ S)]
        )
    elif f.d == 7:
        words.append(
            [
                (1, T),
                (1, S @ Tw),
                (1, Tw @ S @ T),
                (1, S @ Tw.inverse() @ S @ Tw),
            ]
        )
    else:  # d == 11
        E = Tw.inverse() @ S @ Tw @ S @ T
        words.append(
            [
                (1, T),
                (1, S @ Tw),
                (1, T @ E),
                (1, S @ Tw @ E.inverse()),
                (1, Tw @ S @ T),
                (1, S @ Tw.inverse() @ S @ Tw),
            ]
        )
    return words


def apply_word(P: BiPoly, word: Word) -> BiPoly:
    """sum sign * (P|g) over the word, on the grid V of den * P (`support`).
    Each g acts separably, z factor A along z (`factors`) and its
    `conjugate` B along zbar, so its term is A V B^T: two products of grids
    of pairs (`pair_matmul`) on arrays of Python ints.  Each output
    coefficient is reduced once."""
    f, k = P.field, P.n
    n = k + 1
    den, supp = support(P)
    grid = np.zeros((2, n, n), dtype=object)
    for (i, j), xy in supp:
        grid[:, i, j] = xy
    total = np.zeros((2, n, n), dtype=object)
    for sign, g in word:
        az = factors(f, g, k)
        a = np.array(az, dtype=object).transpose(2, 0, 1)
        bt = np.array(conjugate(f, az), dtype=object).transpose(2, 1, 0)  # B^T
        total += sign * np.array(pair_matmul(f, *pair_matmul(f, *a, *grid), *bt))
    xs, ys = total
    out = [((i, j), (xs[i, j], ys[i, j])) for i in range(n) for j in range(n) if xs[i, j] or ys[i, j]]
    return from_support(f, k, out, den)


def word_matrix(f: FieldSpec, word: Word, k: int) -> list[list[QuadInt]]:
    """A word's matrix, built exactly entry by entry from `operator_matrix`:
    an oracle for the tests of `WordOperator`; `wkk` never builds it."""
    size = (k + 1) * (k + 1)
    total = [[f.zero] * size for _ in range(size)]
    for sign, g in word:
        m = operator_matrix(f, g, k)
        for r in range(size):
            row_m = m[r]
            row_t = total[r]
            for c in range(size):
                e = row_m[c]
                if not e.is_zero():
                    row_t[c] = row_t[c] + (e if sign == 1 else f.quad(sign) * e)
    return total


def stacked_word_matrix(f: FieldSpec, k: int) -> list[list[QuadInt]]:
    """Every kernel word's matrix, stacked, without its all-zero rows: the
    test oracle for `WordOperator`."""
    rows: list[list[QuadInt]] = []
    for word in kernel_words(f):
        rows.extend(word_matrix(f, word, k))
    return [r for r in rows if any(not e.is_zero() for e in r)]


def _interpolation(k: int, p: int) -> np.ndarray:
    """The inverse mod p of the Vandermonde matrix [s^i] of the nodes
    s = 0..k, as int64: row i, column s holds the coefficient of z^i in
    the Lagrange polynomial prod_{t != s} (z - t) / (s - t).  Each is the
    quotient of prod_t (z - t) by z - s (synthetic division, for every s
    at once), over its value (-1)^(k-s) s! (k-s)! at s."""
    full = [1]  # the coefficients of prod_t (z - t), lowest first
    for t in range(k + 1):
        full = [(lo - t * hi) % p for lo, hi in zip([0, *full], [*full, 0])]
    nodes = np.arange(k + 1, dtype=np.int64)
    quotients = np.empty((k + 1, k + 1), dtype=np.int64)
    quotients[k] = 1
    for i in range(k, 0, -1):
        quotients[i - 1] = (full[i] + nodes * quotients[i]) % p
    fact = math.factorial
    scale = [pow((-1) ** (k - s) * fact(s) * fact(k - s), -1, p) for s in range(k + 1)]
    return quotients * np.array(scale, dtype=np.int64) % p


def ceil_abs(q: QuadInt) -> int:
    """m(q) = ceil(sqrt(N(q))), an integer at least |q| in C."""
    n = q.norm()
    return math.isqrt(n - 1) + 1 if n else 0


def row_majorant(ma: int, mb: int, mc: int, me: int, k: int) -> tuple[int, ...]:
    """The coefficients rho[r] of z^r, r = 0..k, in sum_i (ma z + mb)^i
    (mc z + me)^(k-i).  With ma, mb, mc, me at least |a|, |b|, |c|, |e|
    in C, rho[r] bounds the sum of |A[r][j]| over row r of the z factor A
    of [[a, b], [c, e]] (`factors`), and of its conjugate.

    By Kronecker substitution: at z = 2^bits, above every coefficient (each
    is at most the value at z = 1), the sum is (u^(k+1) - v^(k+1)) / (u - v)
    for u = ma z + mb and v = mc z + me, whose base-2^bits digits are rho."""
    bits = ((k + 1) * max(ma + mb, mc + me) ** k).bit_length()
    u, v = (ma << bits) + mb, (mc << bits) + me
    total = (k + 1) * u**k if u == v else (u ** (k + 1) - v ** (k + 1)) // (u - v)
    mask = (1 << bits) - 1
    return tuple(total >> (bits * r) & mask for r in range(k + 1))


def height_factor(f: FieldSpec) -> int:
    """c_d, the least integer at least (1 + 2 sqrt(n/|d_K|)) (1 + sqrt(n)),
    omega^2 = d_K omega - n.  An integral pair with entries at most m is
    at most (1 + sqrt(n)) m in C, as |omega| = sqrt(n); and alpha = X +
    Y*omega has Im(omega) = sqrt(|d_K|)/2, so |Y| <= 2|alpha|/sqrt(|d_K|)
    and |X| <= |alpha| + |Y| sqrt(n).  Both square roots are rounded up at
    2^-64."""
    one = 1 << 64
    root = math.isqrt(4 * f.norm_coeff * one * one // f.abs_disc) + 1
    root_n = math.isqrt(f.norm_coeff * one * one) + 1
    return -(-(one + root) * (one + root_n) // (one * one))


class WordOperator:
    """The stacked word matrix of W_{k,k}, kept as the group elements of
    its words and never built exactly as a whole.

    Row r belongs to word r // (k+1)^2 and is its row r % (k+1)^2, the
    flat index of (i, j); each word's matrix is the signed sum of the
    Kronecker products of the z factor (`factors`) of each element and its
    conjugate (see `operator_matrix`).  All-zero rows are kept.

    The elements are listed word after word (`elements`, with `signs`, and
    `words` holds each word's slice of them).  No exact factor is built:
    for each split prime p and image w of omega, every element's z factor
    is computed mod p from its four entries, as values at s = 0..k
    (`_at_nodes`, which `in_kernel` checks on) and as coefficients
    (`_reduced`, which `reduced_mod` reduces rows of), and kept for the
    life of the operator; whole matrices mod p are not kept.

    `reduced_mod` is M_rest L mod p: M_rest the words after S, and L the
    lift of the kernel of the S word from its upper coordinates (`lift`).
    `kernel` works on it, and `in_kernel` still checks every word.
    """

    def __init__(self, f: FieldSpec, k: int) -> None:
        self.field = f
        self.k = k
        self.size = (k + 1) ** 2
        words = kernel_words(f)
        self.elements = [g for word in words for _, g in word]
        self.signs = np.array([sign for word in words for sign, _ in word])
        self.starts = np.cumsum([0] + [len(word) for word in words[:-1]])
        # each word's elements, as a slice of `elements`
        self.words = [slice(start, start + len(word)) for start, word in zip(self.starts, words)]
        self._values: dict[tuple[int, int], np.ndarray] = {}
        self._reductions: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        self._row_bound: int | None = None

    @property
    def nrows(self) -> int:
        return len(self.words) * self.size

    def _at_nodes(self, p: int, w: int) -> np.ndarray:
        """The z factors and the zbar factors of every element, in word
        order, mod p with omega -> w, as values at the nodes s = 0..k: an
        int64 array of shape (2, #elements, k+1, k+1), entries in [0, p),
        with [0, g, s, j] = (a s + b)^j (c s + e)^(k-j) for g = [[a, b],
        [c, e]], the value at s of column j of its z factor.  The zbar
        factor is the conjugate, x + y*(d_K - omega), so [1] is [0] under
        the other root d_K - w.

        Power tables of a s + b and c s + e give them, for every element
        under both roots at once; both roots are kept, under both keys."""
        if (p, w) not in self._values:
            k = self.k
            roots = (w, (self.field.disc - w) % p)
            # a, b, c, e of every element under each root: (2, #elements, 4)
            entries = np.array(
                [[(q.x + q.y * root) % p for g in self.elements for q in g.entries()] for root in roots],
                dtype=np.int64,
            ).reshape(2, len(self.elements), 4)
            # a s + b and c s + e at every node s: (2, #elements, 2, k+1);
            # entries stay below p < 2^31, so every product fits in int64
            nodes = np.arange(k + 1, dtype=np.int64)
            lin = (entries[..., [0, 2], None] * nodes + entries[..., [1, 3], None]) % p
            powers = np.empty((k + 1, *lin.shape), dtype=np.int64)
            powers[0] = 1
            for j in range(1, k + 1):
                powers[j] = powers[j - 1] * lin % p
            values = (powers[:, :, :, 0] * powers[::-1, :, :, 1] % p).transpose(1, 2, 3, 0)
            self._values[p, roots[0]], self._values[p, roots[1]] = values, values[::-1]
        return self._values[p, w]

    def _reduced(self, p: int, w: int) -> tuple[np.ndarray, np.ndarray]:
        """The z factors and the zbar factors of every element, in word
        order, mod p with omega -> w: int64 arrays of shape
        (#elements, k+1, k+1), entries in [0, p).  One product with the
        inverse Vandermonde matrix of the nodes (`_interpolation`) turns
        their values (`_at_nodes`) into coefficients, under both roots."""
        if (p, w) not in self._reductions:
            a, b = linalg.matmul_mod(_interpolation(self.k, p), self._at_nodes(p, w), p)
            self._reductions[p, w], self._reductions[p, (self.field.disc - w) % p] = (a, b), (b, a)
        return self._reductions[p, w]

    # The S word is words[0] (see `kernel_words`).  S maps flat index c
    # to its mirror N-1-c with the sign (-1)^(i+j), so v|(1+S) = 0 says
    # v[N-1-c] = mirror_sign(c) v[c]: its kernel is parametrized by the
    # upper coordinates c >= N/2 (for even k the centre (N-1)/2 is 0).

    def mirror_closed(self, cols: Sequence[int]) -> bool:
        """Whether `cols` holds the mirror N-1-c of each of its columns c."""
        return {self.size - 1 - c for c in cols} == set(cols)

    def upper(self, cols: Sequence[int]) -> list[int]:
        """The upper coordinates c >= N/2 of `cols`, in their order."""
        return [c for c in cols if 2 * c >= self.size]

    def s_forces_zero(self, cols: Sequence[int]) -> bool:
        """Whether the S relation alone kills every vector on `cols`: they
        are not closed under the mirror, or have no upper coordinate."""
        return not self.mirror_closed(cols) or not self.upper(cols)

    def mirror_sign(self, c):
        """-(-1)^(i+j) for c = flat_index(k, i, j), elementwise on an
        array: v[N-1-c] = sign * v[c] on the kernel of the S word."""
        return 2 * (sum(divmod(c, self.k + 1)) % 2) - 1

    def reduced_mod(self, p: int, w: int, cols: Sequence[int]) -> np.ndarray:
        """M_rest L mod p on the mirror-closed columns `cols`: the rows of
        the words after S, and for each upper coordinate c of `cols`, in
        ascending order, column c plus mirror_sign(c) * column N-1-c.

        Column c = (i, j) of a word is the grid sum_g sign_g A_g[:, i]
        B_g[:, j]^T, A_g and B_g the z and zbar factors of g, and column
        N-1-c is the same at (k-i, k-j).  So each word's block is one
        batched product (`linalg.matmul_mod`) over the upper coordinates,
        with inner dimension twice the word's length."""
        n = self.k + 1
        up = np.array(self.upper(cols), dtype=np.int64)
        ci, cj = np.divmod(up, n)
        mirror = self.mirror_sign(up)
        a, b = self._reduced(p, w)
        blocks = []
        for g in self.words[1:]:
            sign = self.signs[g, None, None]
            # (2 * #elements, k+1, #up): z factor columns, then zbar factor
            # columns with the signs
            x = np.concatenate([a[g][:, :, ci], a[g][:, :, self.k - ci]])
            y = np.concatenate([sign * b[g][:, :, cj], sign * mirror * b[g][:, :, self.k - cj]]) % p
            grids = linalg.matmul_mod(x.transpose(2, 1, 0), y.transpose(2, 0, 1), p)
            blocks.append(grids.reshape(len(up), self.size).T)
        return np.vstack(blocks)

    def lift(self, cols: Sequence[int], u: Sequence[Pair]) -> list[Pair]:
        """L u: the vector on the mirror-closed columns `cols` with u on
        their upper coordinates, mirror_sign(c) * u_c on each mirror
        N-1-c, and 0 at the centre."""
        at = dict(zip(self.upper(cols), u))
        out = []
        for c in cols:
            if c in at:
                out.append(at[c])
                continue
            m = self.size - 1 - c
            x, y = at.get(m, ZERO)
            s = self.mirror_sign(m)
            out.append((s * x, s * y))
        return out

    def height_bound(self, norm: int) -> int:
        """A bound H on |X| and |Y| for every coefficient X + Y*omega of
        M v, for an integral v whose pairs have entries at most `norm`.

        Coefficient (r, s) of a word is sum_g sign * sum_{i,j} A_g[r, i] *
        v[i, j] * B_g[s, j], A_g and B_g the z and zbar factors of g.  With
        m(q) = ceil(sqrt(N(q))) >= |q| in C for each entry q of g, the
        complex row sums of A_g and B_g are at most the coefficients
        rho_g[r] of sum_i (m_a z + m_b)^i (m_c z + m_e)^(k-i)
        (`row_majorant`), and |v[i, j]| <= (1 + sqrt(n)) * norm.  So
        |X + Y*omega| <= (1 + sqrt(n)) * R * norm, R the largest, over the
        words and (r, s), of sum_g rho_g[r] * rho_g[s], and H =
        `height_factor` * R * norm."""
        if self._row_bound is None:
            majorants = [tuple(ceil_abs(q) for q in g.entries()) for g in self.elements]
            rows = {m: row_majorant(*m, self.k) for m in set(majorants)}
            rho = np.array([rows[m] for m in majorants], dtype=object)
            self._row_bound = max((rho[g].T @ rho[g]).max() for g in self.words)
        return height_factor(self.field) * self._row_bound * norm

    def in_kernel(self, cols: Sequence[int], vec: list[Pair]) -> bool:
        """Whether M[:, cols] v = 0, for the integral vector v of integer
        pairs on the columns `cols`, proven from the reductions alone.

        Each word's sum_g sign * A_g V B_g^T, V the (k+1) x (k+1) grid of
        v, is checked mod the first split primes whose product exceeds 2H
        (`height_bound`), under both images of omega.  It is checked on the
        factors' values at the nodes (`_at_nodes`), with no interpolation:
        with W the Vandermonde matrix of s = 0..k, those are W A_g and
        W B_g, and sum_g sign (W A_g) V (W B_g)^T = W (sum_g sign A_g V
        B_g^T) W^T is 0 mod p exactly when the word's coefficients are, as
        W is invertible mod p > k.  A nonzero residue refutes v.  If all
        vanish, every coefficient X + Y*omega has X + Y*w = 0 mod p for
        both roots w, so X = Y = 0 mod p (the roots differ mod a split
        prime); as |X|, |Y| <= H, X = Y = 0."""
        f, n = self.field, self.k + 1
        norm = max((max(abs(x), abs(y)) for x, y in vec), default=0)
        ci, cj = np.divmod(np.asarray(cols, dtype=np.int64), n)
        for p in linalg.primes_exceeding(f, 2 * self.height_bound(norm)):
            for w in linalg.omega_roots(f, p):
                grid = np.zeros((n, n), dtype=np.int64)
                grid[ci, cj] = [(x + y * w) % p for x, y in vec]
                a, b = self._at_nodes(p, w)
                terms = linalg.matmul_mod(linalg.matmul_mod(a, grid, p), b.transpose(0, 2, 1), p)
                if (np.add.reduceat(self.signs[:, None, None] * terms, self.starts) % p).any():
                    return False
        return True

    def kernel(self, cols: list[int]) -> list[Support]:
        """Certified basis of the kernel of the ascending columns `cols`,
        as supports.

        A kernel vector satisfies v[N-1-c] = +-v[c], so on columns not
        closed under the mirror, or without an upper coordinate, it
        vanishes: the basis is empty, with no reduction (`s_forces_zero`).
        Otherwise `linalg.certified_kernel` runs on `reduced_mod`, each u
        proven by `in_kernel` of its lift over every word, S included, and
        the lifts, made content-free, are the basis.  It is the
        Gauss-Jordan basis of M[:, cols]: the last nonzero entry of a
        kernel vector is an upper coordinate, so the free columns, and the
        vectors with 1 at one of them and 0 at the others, are the same
        for u and for L u."""
        if self.s_forces_zero(cols):
            return []
        n = self.k + 1
        block = linalg.certified_kernel(
            self.field,
            lambda p, w: self.reduced_mod(p, w, cols),
            lambda u: self.in_kernel(cols, self.lift(cols, u)),
        )
        lifted = (linalg._canonical_integral(self.lift(cols, u)) for u in block)
        return [[(divmod(c, n), e) for c, e in zip(cols, v) if e != ZERO] for v in lifted]


# ------------------------------------------------------------------ subspace


@dataclass(frozen=True)
class SubspaceReport:
    d: int
    k: int
    dims: dict[str, int]
    total: int
    basis: tuple[BiPoly, ...] | None

    @property
    def split_sum(self) -> int:
        return sum(self.dims.values())


def eigen_columns(f: FieldSpec, k: int, exponent: int) -> list[int]:
    """The flat indices of the monomials z^i zbar^j of one eigenspace."""
    return [
        flat_index(k, i, j)
        for i in range(k + 1)
        for j in range(k + 1)
        if eigen_exponent(f, i, j) == exponent
    ]


def eigen_kernel(op: WordOperator, exponent: int) -> list[Support]:
    """Exact basis of W^(u^exponent), as supports.

    Eigenvectors of the diagonal eps operator are exactly the vectors
    supported on monomials of one exponent class, so the eigenspace is the
    kernel of the stacked word matrix restricted to those columns.
    """
    return op.kernel(eigen_columns(op.field, op.k, exponent))


def wkk(f: FieldSpec, k: int, method: str = "exact") -> SubspaceReport:
    """Compute W_{k,k} with its eigenspace splitting.

    Both methods take one pass over the eigenspaces.  exact: each is a
    certified kernel (`eigen_kernel`, from the blocks' reductions mod
    split primes), and the basis returned is their union.  modular: each
    is the least kernel dimension mod a few split primes
    (`linalg.quad_rank_modular`), an upper bound that is exact unless every
    prime tried is of bad reduction; no basis is returned.

    The total is then the least kernel dimension of the full block over the
    same RANK_PRIMES primes, found with the sum of the eigenspace
    dimensions as its lower bound (`linalg.kernel_dim_upper_bound`).  That
    bound holds mod every prime p: the eigenspace blocks are disjoint sets
    of columns of the full block, with the same rows, so ker(full mod p)
    contains the direct sum of their kernels mod p.  So the first prime
    that meets the sum gives the least over every prime.  For the exact
    method this is a sandwich: the verified eigenvectors bound the total
    from below, so when the two meet it is unconditional, and otherwise
    the full certified kernel is computed.  Neither method builds the
    stacked word matrix over O_d.

    Every rank runs on `WordOperator.reduced_mod`, the words after S on
    half the coordinates, and an eigenspace whose columns are not closed
    under the mirror c -> N-1-c (u^e with u^e != u^-e) has dimension 0
    without any prime.  That is sound: the kernel of M is the kernel of
    the S word, the image of the injective lift L, cut by the other
    words, so dim ker M = dim ker(M_rest L) over K, and mod every odd p,
    where the kernel of 1+S mod p is still the image of L.
    """
    if method not in ("exact", "modular"):
        raise ValueError("method must be 'exact' or 'modular'")
    op = WordOperator(f, k)
    dims: dict[str, int] = {}
    basis: list[BiPoly] = []
    for e, lab in enumerate(eigen_labels(f)):
        if method == "exact":
            supps = eigen_kernel(op, e)
            basis.extend(from_support(f, k, s, 1) for s in supps)
            dims[lab] = len(supps)
            continue
        cols = eigen_columns(f, k, e)
        dims[lab] = 0 if op.s_forces_zero(cols) else linalg.quad_rank_modular(
            f, lambda p, w: op.reduced_mod(p, w, cols)
        ).kernel_dim
    lower = sum(dims.values())
    every = list(range(op.size))
    total = linalg.kernel_dim_upper_bound(f, lambda p, w: op.reduced_mod(p, w, every), lower)
    if method == "modular":
        return SubspaceReport(f.d, k, dims, total, None)
    if total != lower:
        total = len(op.kernel(every))
    return SubspaceReport(f.d, k, dims, total, tuple(basis))


def membership(P: BiPoly, label: str = "1") -> bool:
    """Whether P lies in W_{k,k} with the given eps eigenvalue.  eps is
    diagonal, with eigenvalue u^eigen_exponent on each monomial, so the
    eigenvalue test reads P's support; the words are tested on den * P,
    the integral polynomial of `support`, by `WordOperator.in_kernel` on
    its columns: M (den * P) = 0 proven from reductions mod split primes
    under the height bound, at every k."""
    f, k = P.field, P.n
    e = eigen_labels(f).index(label)
    if any(eigen_exponent(f, i, j) != e for i, j in P.coeffs):
        return False
    _, supp = support(P)
    return WordOperator(f, k).in_kernel([flat_index(k, i, j) for (i, j), _ in supp], [xy for _, xy in supp])
