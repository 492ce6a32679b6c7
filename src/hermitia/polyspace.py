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
(`WordOperator.in_kernel`), and `wkk` returns the supports: its report
makes each basis `BiPoly` from its support only when its `basis` is first
read, so `dims` makes none; `QuadElem` appears only in those `BiPoly`s.
`membership` proves M (den * P) = 0 by the same `in_kernel`, on the
support of den * P (`support_membership`, which `expandp --check` calls
on P's integer coefficients).  The path builds no exact factor:
`WordOperator` computes each element's z factor mod p from the element's
four entries, as values at s = 0..k for `in_kernel` and as coefficients
for the rows of `reduced_mod`, and bounds the height from them
(`row_majorant`).

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
word's rows.  The operator row-reduces that block once, on every column,
at the first split prime, on first need (`linalg.first_prime`), and every
`kernel`, and the upper bound on the total (`first_nullity`), reads its
first prime from that one elimination, with no row reduction of its own
block.  A kernel's proofs take their first prime from it too: each
candidate basis is checked mod p1 against the rows it keeps, in one
product, and one `in_kernel` proves all of it at the later primes, in one
product of grids stacked over those primes (or a few stacks, at large k),
on float64 BLAS from k = 7 on (`linalg.matmul_mod_float`).

Every split prime is worked under its first root w1 of omega alone.
Under the second root w2 the z and zbar factors of each element trade
places, so the block mod (p, w2) is the block mod (p, w1) with rows
(word, r, s) and (word, s, r) swapped and its columns permuted with signs
(`WordOperator.swap`): a kernel's second root comes from its first, and
`in_kernel` checks both roots on the first root's values, the second on
the transposed grid, or on w1 alone for real vectors with symmetric grids
(as P_{k,Delta} and the bases of `wkk` at odd k), whose word sums under
w2 are the transposes of those under w1.  At later primes a kernel asks
`reduced_mod` only for the rows it eliminates.

The kernel words do not depend on k, and are built once per ring
(`kernel_words`), so the operators of every k share their elements.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Sequence

import numpy as np

from .field import ZERO, FieldSpec, Pair, QuadElem, QuadInt, field, pair_conj, pair_mul, pair_powers
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

Word = Sequence[tuple[int, GroupElement]]


@lru_cache(maxsize=None)
def kernel_words(f: FieldSpec) -> tuple[Word, ...]:
    """Signed group words whose operators cut out W_{k,k} as a common
    kernel.  They encode the parabolic cocycle conditions coming from the
    defining relations of the automorphism group over O_d.  They do not
    depend on k, so they are built once per ring, as immutable tuples."""
    I = identity(f)
    S = gen_S(f)
    T = gen_T(f)
    Tw = gen_T_omega(f)
    U = T @ S
    words: list[list[tuple[int, GroupElement]]] = [
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
    return tuple(map(tuple, words))


@lru_cache(maxsize=None)
def distinct_elements(f: FieldSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[tuple[int, ...], ...]]:
    """The elements of the kernel words, listed word after word, once
    each (the identity is in most words): the place in that list of each
    distinct element, first occurrences in order; for each element of the
    list the index of its own among them; the entries a, b, c, e of each
    distinct element g = [[a, b], [c, e]] as integer pairs, an int64 array
    of shape (2, #distinct, 4), [0] the x and [1] the y of x + y*omega; and
    the majorants m(a), m(b), m(c), m(e) of each distinct element's
    entries (`ceil_abs`, for `WordOperator.height_bound`)."""
    index: dict[GroupElement, int] = {}
    same_as = np.array([index.setdefault(g, len(index)) for word in kernel_words(f) for _, g in word])
    distinct = np.unique(same_as, return_index=True)[1]
    entries = np.array([[(q.x, q.y) for q in g.entries()] for g in index], dtype=np.int64).transpose(2, 0, 1)
    for array in (distinct, same_as, entries):
        array.flags.writeable = False
    return distinct, same_as, entries, tuple(tuple(map(ceil_abs, g.entries())) for g in index)


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


# `WordOperator._word_sums` multiplies on float64 BLAS from this many nodes
# k + 1 on, and in int64 below: under it the float route's extra numpy calls
# (limbs and reductions) cost more than BLAS saves on products this small
FLOAT_NODES = 8
# `WordOperator.in_kernel` stacks its proof primes in one `_word_sums` while
# the stack's first product, 2 * #distinct elements * #vectors * (k+1)^2
# entries per prime (the node values times the number of vectors, under
# both roots: half of it under one), has at most this many: every prime in
# one stack for `membership` at k <= 21, and one prime per product from
# k = 40 on in O_11 (k = 45 in O_7, k = 48 in O_1, O_2 and O_3).
# Stacking saved 10-25% of a `membership` call at k = 11-25 and nothing from
# k = 33 on, and a bound 8 times larger lost 10-17% at k = 57.
STACKED_ENTRIES = 1 << 16


class WordOperator:
    """The stacked word matrix of W_{k,k}, kept as the group elements of
    its words and never built exactly as a whole.

    Row r belongs to word r // (k+1)^2 and is its row r % (k+1)^2, the
    flat index of (i, j); each word's matrix is the signed sum of the
    Kronecker products of the z factor (`factors`) of each element and its
    conjugate (see `operator_matrix`).  All-zero rows are kept.

    The elements are listed word after word (`elements`, with `signs`, and
    `words` holds each word's slice of them).  No exact factor is built:
    for each split prime p, every element's z factor is computed mod p from
    its four entries, as values at s = 0..k (`_at_nodes`, which `in_kernel`
    checks on) and as coefficients (`_reduced`, which `reduced_mod` reduces
    rows of), each distinct element once (`distinct_elements`) and the
    coefficients gathered back to word order.  The coefficients and their
    values are kept for the life of the operator, one entry per prime that
    it reduces rows at; at a prime that only proves, the values are made
    for each proof, for all its stacked primes at once, and dropped after
    it.  Of whole matrices mod p, only the rows R and the kernel basis K at
    the first split prime are kept (below).

    Every reduction is taken with omega -> w1, the first of
    `linalg.omega_roots`.  Only `_at_nodes`, which gets the zbar factors
    from the second root, and `_word_sums` and `_first_settles`, which
    prove M v = 0 under both roots (under w1 alone when every vector is
    real and symmetric), name the roots.

    `reduced_mod` is M_rest L mod p: M_rest the words after S, and L the
    lift of the kernel of the S word from its upper coordinates
    (`lifting`), whole or only some of its rows.  `kernel` and
    `first_nullity` work on it alone (`swap` gives the second root's
    kernel from the first's), and `in_kernel` still checks every word
    under both roots.

    At the first split prime p1 the operator reduces M_rest L on every
    upper coordinate once, when a kernel or `first_nullity` first needs it
    (`linalg.first_prime`, one row reduction of its transpose): rows R that
    span it mod p1, those rows M[R], and K, a basis of its kernel mod p1,
    c - |R| vectors on the c upper coordinates.  It keeps them, and no
    other row.  Each eigenspace block E is a column slice of the full
    block, and `_first_slice` restricts them to E's columns
    (`linalg.FirstPrime.columns`): R still spans E's rows there, and K on
    E's columns spans a space that contains ker(E mod p1), of rank d_E >=
    dim_K ker(E).  d_E equals dim ker(E mod p1) when the eigenspace kernels
    mod p1 add up to the full one, as they do over K, where ker M is their
    direct sum; a first prime where they do not only adds candidate
    vectors, which `in_kernel` refutes, and raises `first_nullity` above
    the eigenspace sum, which sends `wkk` to the full kernel.  No
    eigenspace block is row-reduced at p1.  At each later prime a kernel
    builds and eliminates only the rows R of the last prime that
    `linalg.certified_kernel` did not skip, p1's R at first: on E's
    columns they may be dependent mod p1 and independent over K, and that
    prime's elimination finds E's rank.
    """

    def __init__(self, f: FieldSpec, k: int) -> None:
        self.field = f
        self.k = k
        self.size = (k + 1) ** 2
        words = kernel_words(f)
        self.elements = [g for word in words for _, g in word]
        self.signs = np.array([sign for word in words for sign, _ in word])
        self.distinct, self.same_as, self.entries, self.majorants = distinct_elements(f)
        self.starts = np.cumsum([0] + [len(word) for word in words[:-1]])
        # each word's elements, as a slice of `elements`
        self.words = [slice(start, start + len(word)) for start, word in zip(self.starts, words)]
        self._values: dict[int, np.ndarray] = {}
        self._reductions: dict[int, np.ndarray] = {}
        self._row_bound: int | None = None
        # p1, R, M[R] and K (see the class docstring), made on first need
        self._first: linalg.FirstPrime | None = None

    @property
    def nrows(self) -> int:
        return len(self.words) * self.size

    def _at_nodes(self, primes) -> np.ndarray:
        """The z factors and the zbar factors of every distinct element
        (`distinct_elements`) mod each of `primes`, a split prime or an
        array of them, as values at the nodes s = 0..k: an int64 array of
        shape (*primes.shape, 2, #distinct, k+1, k+1), entries in [0, p),
        with [0, g, s, j] = (a s + b)^j (c s + e)^(k-j) for g = [[a, b],
        [c, e]], the value at s of column j of its z factor.  The zbar
        factor is the conjugate, x + y*(d_K - omega), so [1] is [0] under
        the second root d_K - w1.

        a s + b and c s + e at every node, integer pairs made from the
        integer arrays of the entries, are reduced mod every prime under
        both roots at once, and power tables of them, doubled in length at
        each step, give the values.  They are kept only for the primes
        whose coefficients are kept (`_reduced`), and used for a stack of
        primes all kept: otherwise, as at every prime of `membership`, each
        proof computes them and drops them after use."""
        p = np.asarray(primes, dtype=np.int64)
        each = p.ravel()
        kept = [self._values[q] for q in each.tolist() if q in self._values]
        if kept and len(kept) == len(each):
            return np.reshape(kept, (*p.shape, *kept[0].shape))
        n, distinct = self.k + 1, len(self.distinct)
        # a s + b and c s + e at every node s, as integer pairs:
        # [(element, line, s), x or y]
        lines = self.entries[..., 0::2, None] * np.arange(n, dtype=np.int64) + self.entries[..., 1::2, None]
        # their residues x + y*w mod p, as [x, y] @ [1, w], and the powers
        # 0..k of those: [j, prime, (element, line, s), root]; residues are
        # below p < 2^31, so every product fits in int64
        mod = each[:, None, None]
        lift = np.array([((1, 1), linalg.omega_roots(self.field, q)) for q in each.tolist()], dtype=np.int64)
        lin = lines.reshape(2, -1).T @ lift % mod
        powers = np.empty((n, *lin.shape), dtype=np.int64)
        powers[0] = 1
        filled = 1
        while filled < n:
            more = min(filled, n - filled)
            top = powers[filled - 1] * lin % mod
            powers[filled : filled + more] = powers[:more] * top % mod
            filled += more
        powers = powers.reshape(n, len(each), distinct, 2, n, 2)
        # [j, prime, element, s, root]
        values = powers[:, :, :, 0] * powers[::-1, :, :, 1] % mod[..., None]
        return values.transpose(1, 4, 2, 3, 0).reshape(*p.shape, 2, distinct, n, n)

    def _reduced(self, p: int) -> np.ndarray:
        """The z factors and the zbar factors of every element, in word
        order, mod p: an int64 array of shape (2, #elements, k+1, k+1),
        entries in [0, p).  One product with the inverse Vandermonde matrix
        of the nodes (`_interpolation`) turns the distinct elements' values
        (`_at_nodes`) into coefficients, gathered to word order."""
        if p not in self._reductions:
            self._values[p] = self._at_nodes(p)
            coefficients = linalg.matmul_mod(_interpolation(self.k, p), self._values[p], p)
            self._reductions[p] = coefficients[:, self.same_as]
        return self._reductions[p]

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

    def reduced_mod(self, p: int, cols: Sequence[int], rows: Sequence[int] | None = None) -> np.ndarray:
        """M_rest L mod p on the mirror-closed columns `cols`: the rows of
        the words after S (or only the rows `rows` of them, in their
        order), and for each upper coordinate c of `cols`, in ascending
        order, column c plus mirror_sign(c) * column N-1-c.

        Column c = (i, j) of a word is the grid sum_g sign_g A_g[:, i]
        B_g[:, j]^T, A_g and B_g the z and zbar factors of g, and column
        N-1-c is the same at (k-i, k-j).  So each word's block is one
        batched product (`linalg.matmul_mod`) over the upper coordinates,
        with inner dimension twice the word's length; its row (r, s) alone
        is sum_g x_g[r] * y_g[s] over those columns, one product per row
        and element."""
        n = self.k + 1
        up = np.array(self.upper(cols), dtype=np.int64)
        ci, cj = np.divmod(up, n)
        mirror = self.mirror_sign(up)
        a, b = self._reduced(p)
        picked = np.arange(self.nrows - self.size) if rows is None else np.asarray(rows, dtype=np.int64)
        out = np.empty((len(picked), len(up)), dtype=np.int64)
        for i, g in enumerate(self.words[1:]):
            sign = self.signs[g, None, None]
            # (2 * #elements, k+1, #up): z factor columns, then zbar factor
            # columns with the signs
            x = np.concatenate([a[g][:, :, ci], a[g][:, :, self.k - ci]])
            y = np.concatenate([sign * b[g][:, :, cj], sign * mirror * b[g][:, :, self.k - cj]]) % p
            if rows is None:
                grids = linalg.matmul_mod(x.transpose(2, 1, 0), y.transpose(2, 0, 1), p)
                out[i * self.size : (i + 1) * self.size] = grids.reshape(len(up), self.size).T
                continue
            at = np.flatnonzero(picked // self.size == i)
            r, s = np.divmod(picked[at] % self.size, n)
            # each product is below p^2 < 2^62 and reduced before the sum
            acc = np.zeros((len(at), len(up)), dtype=np.int64)
            for xe, ye in zip(x, y):
                acc += xe[r] * ye[s] % p
            out[at] = acc % p
        return out

    def swap(self, cols: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """The signed permutation that swapping the two roots of omega makes
        of the columns of `reduced_mod` on `cols`, closed under the mirror
        and the transpose (i, j) -> (j, i): positions `at` and signs `sign`
        such that column u of the block under the second root w2 is
        sign[u] * reduced_mod(p, cols)[swapped, at[u]], where row (word, r,
        s) of `swapped` is row (word, s, r).

        Under w2 the z and zbar factors of every element are the zbar and z
        factors under w1 (`_at_nodes`), so the grid of column (i, j) is the
        transposed grid of column (j, i) under w1.  Upper column (i, j) is
        thus column (j, i) when that is upper, and otherwise mirror_sign(c)
        times the column of its mirror (k-j, k-i), as mirror_sign is the
        same at c, its transpose and their mirrors."""
        up = self.upper(cols)
        i, j = np.divmod(np.array(up, dtype=np.int64), self.k + 1)
        t = j * (self.k + 1) + i
        lower = 2 * t < self.size
        pos = {c: u for u, c in enumerate(up)}
        try:
            at = [pos[c] for c in np.where(lower, self.size - 1 - t, t).tolist()]
        except KeyError:
            raise ValueError("columns not closed under the transpose") from None
        return np.array(at, dtype=np.int64), np.where(lower, self.mirror_sign(t), 1)

    def lifting(self, cols: Sequence[int]) -> Callable[[Sequence[Pair]], list[Pair]]:
        """L on the mirror-closed columns `cols` as one gather, its
        positions and signs found once: u -> the vector with u on their
        upper coordinates, mirror_sign(c) * u_c on each mirror N-1-c, and 0
        at the centre."""
        pos = {c: u for u, c in enumerate(self.upper(cols))}
        mirror = self.size - 1 - np.asarray(cols, dtype=np.int64)
        at = [pos.get(c, pos.get(m, len(pos))) for c, m in zip(cols, mirror.tolist())]
        signs = np.where(2 * mirror < self.size, 1, self.mirror_sign(mirror)).tolist()

        def lift(u: Sequence[Pair]) -> list[Pair]:
            padded = [*u, ZERO]
            return [(s * padded[i][0], s * padded[i][1]) for i, s in zip(at, signs)]

        return lift

    def _first_slice(self, cols: Sequence[int]) -> linalg.FirstPrime:
        """The first prime restricted to the mirror-closed `cols`, one
        column per upper coordinate, made on the first call (see the class
        docstring)."""
        if self._first is None:
            self._first = linalg.first_prime(self.field, lambda p: self.reduced_mod(p, range(self.size)))
        return self._first.columns(np.array(self.upper(cols), dtype=np.int64) - (self.size + 1) // 2)

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
        `height_factor` * R * norm.  By Cauchy-Schwarz that sum is at most
        the larger of its values at (r, r) and (s, s), so R is the largest
        sum_g rho_g[r]^2, taken with rho once per distinct majorant, and m
        once per ring (`distinct_elements`)."""
        if self._row_bound is None:
            rows = {m: row_majorant(*m, self.k) for m in set(self.majorants)}
            squares = np.array([[x * x for x in rows[m]] for m in self.majorants], dtype=object)[self.same_as]
            self._row_bound = np.add.reduceat(squares, self.starts).max()
        return height_factor(self.field) * self._row_bound * norm

    def _word_sums(self, primes: Sequence[int], cols: Sequence[int], vecs: Sequence[list[Pair]]) -> np.ndarray:
        """Each word's sum_g sign * A_g V B_g^T mod each p of `primes` on
        the factors' values at the nodes under the first root w1
        (`_at_nodes`), for V the grid of each v mod (p, w1) and for V the
        transpose of the grid of each v mod (p, w2): shape (#primes, r,
        #vecs, #words, k+1, k+1).  Under w2 the z and zbar values are the
        zbar and z values under w1, so the word's sum under w2 is sum_g
        sign * B_g V A_g^T = (sum_g sign * A_g V^T B_g^T)^T: the transpose
        of [:, 1].

        The root axis has r = 1, w1 alone, when every v is real (every y
        is 0) and its grid symmetric, v[i, j] = v[j, i] (`real_symmetric`),
        and r = 2 otherwise.  For such a v the grid mod (p, w2) is the grid
        mod (p, w1), V, and V^T = V, so the word's sum under w2 is the
        transpose of its sum under w1 (above): one vanishes exactly when
        the other does, and [:, 1] would prove nothing more.

        The primes are one leading batch axis of the grids, the values and
        both products, each of which takes the primes as an array
        broadcast over it.  Two products serve every prime, every grid and
        every root, each distinct element once (the identity is in most
        words): the A_g stacked, times every grid side by side, then each
        A_g V, stacked over the grids, times B_g^T.  The terms are gathered
        back to word order and summed with their signs.  The products run
        on float64 BLAS (`linalg.matmul_mod_float`) from FLOAT_NODES nodes
        on, and below it in int64 (`linalg.matmul_mod`), which makes fewer
        numpy calls."""
        n = self.k + 1
        if n < FLOAT_NODES:
            dtype, product, reduce = np.int64, linalg.matmul_mod, np.remainder
        else:
            dtype, product, reduce = np.float64, linalg.matmul_mod_float, linalg.float_mod
        m, nvecs = len(primes), len(vecs)
        p = np.array(primes, dtype=np.int64)
        r = 1 if self.real_symmetric(cols, vecs) else 2
        roots = [linalg.omega_roots(self.field, q)[:r] for q in primes]
        # each v mod (p, w) for each p and the r roots w: [column, prime,
        # root, vector]
        res = np.array(
            [[[(x + y * w) % q for vec in vecs for x, y in vec] for w in ws] for q, ws in zip(primes, roots)],
            dtype=dtype,
        ).reshape(m, r, nvecs, len(cols)).transpose(3, 0, 1, 2)
        # the grids side by side: [prime, i, root, vector, j], the second
        # root's grids (if any) transposed
        ci, cj = np.divmod(np.asarray(cols, dtype=np.int64), n)
        grids = np.zeros((m, n, r, nvecs, n), dtype=dtype)
        grids[:, ci, 0, :, cj] = res[:, :, 0]
        grids[:, cj, 1:, :, ci] = res[:, :, 1:]
        values = self._at_nodes(p).astype(dtype, copy=False)
        a, b = values[:, 0], values[:, 1]
        # [prime, (g, s), (root, vector, j)]: the rows of A_g V, for every grid
        left = product(a.reshape(m, -1, n), grids.reshape(m, n, -1), p[:, None, None])
        terms = product(left.reshape(*a.shape[:2], -1, n), b.transpose(0, 1, 3, 2), p[:, None, None, None])
        signed = terms.reshape(*a.shape[:2], -1)[:, self.same_as]
        signed *= self.signs[:, None]
        sums = reduce(np.add.reduceat(signed, self.starts, axis=1), p[:, None, None])
        return sums.reshape(m, len(self.words), n, r, nvecs, n).transpose(0, 3, 4, 1, 2, 5)

    def real_symmetric(self, cols: Sequence[int], vecs: Sequence[list[Pair]]) -> bool:
        """Whether every v of `vecs`, on the columns `cols`, is real and has
        a symmetric grid: y = 0 in every entry, and v[i, j] = v[j, i], with
        0 where (j, i) is not among `cols`."""
        n = self.k + 1
        pos = {c: u for u, c in enumerate(cols)}
        mates = [pos.get(c % n * n + c // n, len(cols)) for c in cols]
        padded = ([*vec, ZERO] for vec in vecs)
        return all(xy[1] == 0 and vec[u] == xy for vec in padded for xy, u in zip(vec, mates))

    def in_kernel(self, cols: Sequence[int], vecs: Sequence[list[Pair]], settled: int | None = None) -> bool:
        """Whether M[:, cols] v = 0 for every v of `vecs`, integral vectors
        of integer pairs on the columns `cols`, proven from the reductions
        alone.

        Each word's sum_g sign * A_g V B_g^T, V the (k+1) x (k+1) grid of
        v, is checked mod the first split primes whose product exceeds 2H
        (`height_bound`, of the largest entry of any v), under both images
        of omega, for all the vectors against the first root's values
        (under the second root the sum is the transpose of the first
        root's sum on the transposed grid, and for real symmetric vectors
        that of the first root's sum itself: `_word_sums`), at all those
        primes in one `_word_sums`: a stack of primes shares its products,
        as long as the stack's first product has at most STACKED_ENTRIES
        entries, and
        otherwise the primes go in as many stacks as that bound needs (one
        per prime at large k or with many vectors).  It is checked on the
        factors' values at the nodes (`_at_nodes`), with no interpolation:
        with W the Vandermonde matrix of s = 0..k, those are W A_g and W
        B_g, and sum_g sign (W A_g) V (W B_g)^T = W (sum_g sign A_g V
        B_g^T) W^T is 0 mod p exactly when the word's coefficients are, as
        W is invertible mod p > k.  A nonzero residue at any prime refutes some
        v, and the answer is False.  If all vanish, every coefficient X +
        Y*omega has X + Y*w = 0 mod p for both roots w, so X = Y = 0 mod p
        (the roots differ mod a split prime); as |X|, |Y| <= H, X = Y = 0.

        `settled`, if given, is a prime at which the caller has already
        proven M v = 0 under both roots for every v (`kernel` does so at the
        first split prime): it is not checked again, and the product of the
        other primes with it still exceeds 2H."""
        norm = max(map(abs, itertools.chain.from_iterable(itertools.chain.from_iterable(vecs))), default=0)
        primes = [p for p in linalg.primes_exceeding(self.field, 2 * self.height_bound(norm)) if p != settled]
        size = max(1, STACKED_ENTRIES // (2 * len(self.distinct) * max(1, len(vecs)) * (self.k + 1) ** 2))
        stacks = (primes[i : i + size] for i in range(0, len(primes), size))
        return not any(self._word_sums(stack, cols, vecs).any() for stack in stacks)

    def _first_settles(
        self, first: linalg.FirstPrime, at: np.ndarray, sign: np.ndarray, basis: Sequence[list[Pair]]
    ) -> bool:
        """Whether M_rest L u = 0 mod the first split prime p1 under both
        roots of omega for every u of `basis`, vectors on the upper
        coordinates of a block whose first prime is `first` (`_first_slice`)
        and whose `swap` is (at, sign), in one product.  The rows R of
        `first.mat` span the block's rows mod (p1, w1), so the block kills
        u's residues under w1 exactly when `first.mat` does; the block under
        w2 is the block under w1 with its rows permuted and its columns
        permuted with signs, so it kills u's residues x under w2 exactly
        when `first.mat` kills y with y[at] = sign * x.

        When every u is real with u[at] = sign * u (its lift L u real with
        a symmetric grid), y = x: the w1 columns alone are multiplied."""
        p = first.p
        w1, w2 = linalg.omega_roots(self.field, p)
        pairs = list(zip(at.tolist(), sign.tolist()))
        twin = all(u[a] == (s * x, y) and not y for u in basis for (a, s), (x, y) in zip(pairs, u))
        # one column per vector under w1, then (unless twin) one per vector under w2
        res = np.empty((len(at), 1 if twin else 2, len(basis)), dtype=np.int64)
        for v, u in enumerate(basis):
            res[:, 0, v] = [(x + y * w1) % p for x, y in u]
            if not twin:
                res[at, 1, v] = sign * np.array([(x + y * w2) % p for x, y in u], dtype=np.int64) % p
        return not linalg.matmul_mod(first.mat, res.reshape(len(at), -1), p).any()

    def kernel(self, cols: list[int]) -> list[Support]:
        """Certified basis of the kernel of the ascending columns `cols`,
        as supports.

        A kernel vector satisfies v[N-1-c] = +-v[c], so on columns not
        closed under the mirror, or without an upper coordinate, it
        vanishes: the basis is empty, with no reduction (`s_forces_zero`).
        Otherwise `linalg.certified_kernel` runs on `reduced_mod` under
        the first root of each prime, started from the operator's first
        prime on `cols` (`_first_slice`): its first basis is K's
        Gauss-Jordan form there, and each later prime builds and eliminates
        only the rows R of the last prime not skipped, p1's at first (after
        a refuted candidate, the whole block).  The kernel under the
        second root is the first's with its columns permuted with signs
        (`swap`), as M_rest L mod (p, w2) = P (M_rest L mod (p, w1)) Q for
        a row permutation P and a signed column permutation Q, so its
        kernel is Q^T times the first's.  Each
        candidate basis is checked as a whole, one exact check per
        candidate: first mod p1 against the rows M[R] kept there, in one
        product over every vector's residues under w1 and under w2, the
        latter permuted with signs, or under w1 alone where every lift is
        real and symmetric (`_first_settles`): a nonzero product
        refutes the basis at once, and zero settles p1 for both roots, as R
        spans the block's rows mod p1 and each lift L u meets the S word
        exactly.  One `in_kernel` of all the lifts over every word, S
        included, then proves them at the other primes of the height bound
        of their largest entry, in one `_word_sums` stacked over them, and
        the lifts, made content-free, are the basis.  It is the
        Gauss-Jordan basis of M[:, cols]: the last nonzero entry of
        a kernel vector is an upper coordinate, so the free columns, and
        the vectors with 1 at one of them and 0 at the others, are the same
        for u and for L u.  `cols` must be closed under the transpose
        (i, j) -> (j, i) too, as every eigenspace closed under the mirror
        is."""
        if self.s_forces_zero(cols):
            return []
        n = self.k + 1
        at, sign = self.swap(cols)
        lift = self.lifting(cols)
        first = self._first_slice(cols)
        block = linalg.certified_kernel(
            self.field,
            lambda p, rows=None: self.reduced_mod(p, cols, rows),
            lambda p, rows, basis: basis[:, at] * sign % p,
            lambda basis: self._first_settles(first, at, sign, basis)
            and self.in_kernel(cols, [lift(u) for u in basis], first.p),
            first,
        )
        lifted = (linalg._canonical_integral(lift(u)) for u in block)
        return [[(divmod(c, n), e) for c, e in zip(cols, v) if e != ZERO] for v in lifted]

    def first_nullity(self) -> int:
        """dim ker(M_rest L mod p1) on every upper coordinate, read from the
        first prime (`_first_slice`): len(K), its vectors being independent.
        It is at least dim ker M over K, as a prime ideal can only lower the
        rank; `wkk` takes it as the upper bound on the total."""
        return len(self._first_slice(range(self.size)).kernel)


# ------------------------------------------------------------------ subspace


@dataclass(frozen=True)
class SubspaceReport:
    """What `wkk` found: the eigenspace dimensions, the total and the
    basis, kept as its supports (`supports`).  Its `BiPoly`s are made when
    `basis` is first read, so `dims` never makes them."""

    d: int
    k: int
    dims: dict[str, int]
    total: int
    supports: tuple[Support, ...]

    @cached_property
    def basis(self) -> tuple[BiPoly, ...]:
        f = field(self.d)
        return tuple(from_support(f, self.k, s, 1) for s in self.supports)

    @property
    def split_sum(self) -> int:
        return sum(self.dims.values())


def eigen_columns(f: FieldSpec, k: int, exponent: int) -> list[int]:
    """The flat indices of the monomials z^i zbar^j of one eigenspace, in
    flat order: those with (i - j) % w = exponent (`eigen_exponent`), w the
    number of units, are for each i the j from (i - exponent) % w in steps
    of w."""
    w = len(f.unit_labels)
    return [flat_index(k, i, j) for i in range(k + 1) for j in range((i - exponent) % w, k + 1, w)]


def eigen_kernel(op: WordOperator, exponent: int) -> list[Support]:
    """Exact basis of W^(u^exponent), as supports.

    Eigenvectors of the diagonal eps operator are exactly the vectors
    supported on monomials of one exponent class, so the eigenspace is the
    kernel of the stacked word matrix restricted to those columns
    (`WordOperator.kernel`, whose first split prime is read from the
    operator's one reduction there).
    """
    return op.kernel(eigen_columns(op.field, op.k, exponent))


def wkk(f: FieldSpec, k: int) -> SubspaceReport:
    """Compute W_{k,k} with its eigenspace splitting, in one pass over the
    eigenspaces, each a certified kernel (`eigen_kernel`): the proven
    dimensions, the total, and the union of the eigenspace bases as the
    basis.  The operator row-reduces the full block once at the first
    split prime, on first need, and every kernel takes its first prime
    from that one reduction: the first-prime basis of each eigenspace is
    read from the full block's kernel there, and no eigenspace block is
    row-reduced at that prime.

    The total is a sandwich.  The eigenspace blocks are disjoint sets of
    columns of the full block, with the same rows, so their verified
    kernel vectors are independent in ker M and their number, the sum of
    the eigenspace dimensions, bounds dim ker M from below.  The full
    block's kernel dimension mod the first split prime
    (`WordOperator.first_nullity`) bounds it from above.  When the two
    meet the total is proven; otherwise the full certified kernel is
    computed.  The stacked word matrix is never built over O_d.

    Every rank runs on `WordOperator.reduced_mod`, the words after S on
    half the coordinates, and an eigenspace whose columns are not closed
    under the mirror c -> N-1-c (u^e with u^e != u^-e) has dimension 0
    without any prime.  That is sound: the kernel of M is the kernel of
    the S word, the image of the injective lift L, cut by the other
    words, so dim ker M = dim ker(M_rest L) over K, and mod every odd p,
    where the kernel of 1+S mod p is still the image of L.
    """
    op = WordOperator(f, k)
    dims: dict[str, int] = {}
    basis: list[Support] = []
    for e, lab in enumerate(eigen_labels(f)):
        supps = eigen_kernel(op, e)
        basis.extend(supps)
        dims[lab] = len(supps)
    total = sum(dims.values())
    if total != op.first_nullity():
        total = len(op.kernel(list(range(op.size))))
    return SubspaceReport(f.d, k, dims, total, tuple(basis))


def membership(P: BiPoly, label: str = "1") -> bool:
    """Whether P lies in W_{k,k} with the given eps eigenvalue:
    `support_membership` of den * P (`support`)."""
    return support_membership(P.field, P.n, support(P)[1], label)


def support_membership(f: FieldSpec, k: int, supp: Support, label: str = "1") -> bool:
    """Whether the integral polynomial of bidegree (k, k) with support
    `supp` lies in W_{k,k} with the given eps eigenvalue.  eps is diagonal,
    with eigenvalue u^eigen_exponent on each monomial, so the eigenvalue
    test reads the support; the words are tested by
    `WordOperator.in_kernel` on its columns, the one vector by the route of
    a kernel basis: M v = 0 proven from reductions mod split primes under
    the height bound, in one product of grids stacked over the primes
    (`WordOperator._word_sums`), for k up to 254 (a larger k raises
    ValueError in `linalg.matmul_mod_float`)."""
    e = eigen_labels(f).index(label)
    if any(eigen_exponent(f, i, j) != e for (i, j), _ in supp):
        return False
    return WordOperator(f, k).in_kernel([flat_index(k, i, j) for (i, j), _ in supp], [[xy for _, xy in supp]])
