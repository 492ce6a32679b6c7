"""Exact nullspaces of matrices over the rings O_d.

The polynomial cocycle spaces are cut out as kernels of integral matrices
whose entries live in O_d.  A prime p that splits in O_d has two prime
ideals above it, and O_d modulo either is Z/p: omega goes to one of the two
roots w1, w2 of x^2 - t x + n mod p (`omega_roots`).  The pieces:

* `echelon_mod` and `rref_mod` -- row reduction of an int64 numpy matrix
  modulo p: rank and pivot columns, and for `rref_mod` the reduced rows.
  The `% p` is delayed: each step reduces only the pivot column, the
  pivot row and the columns it looks ahead at, so factors and pivot rows
  lie in [0, p) and an update subtracts at most (p - 1)^2 from an entry.
  The rest is reduced once every T = (2^63 - p) // (p - 1)^2 updates,
  which keeps every entry in int64, and once at the end: T = 7 at the ~2^30
  split primes (the FFLAS-FFPACK technique of Dumas, Giorgi and Pernet,
  ACM TOMS 35(3), 2008).  A column with no nonzero left at or below the
  next pivot row is jumped over, never to be visited again.
  `left_kernel_mod` is the same row reduction carrying its row operations,
  in pivot order, in a block after the matrix: the pivot columns and a
  basis of { x : x M = 0 mod p } from one elimination (the transformation
  view of Jeannerod, Pernet and Storjohann, "Rank-profile revealing
  Gaussian elimination and the CUP matrix decomposition", J. Symb. Comput.
  56, 2013).  `kernel_mod_from_span` turns vectors that span a kernel
  into its Gauss-Jordan basis, one vector per free column.
  `matmul_mod` multiplies such matrices mod p, batched, splitting one
  factor into 15-bit limbs so that the sums stay in int64; the word
  operators of `polyspace` use it on the elimination side: each element's
  factor from its values at 0..k, the blocks of the reduced matrix, and
  the check of a candidate basis against the rows kept at the first
  prime.  `matmul_mod_float` is the same product on float64 BLAS, with
  the same 15-bit limbs, exact while every partial sum stays below 2^53
  (inner dimension up to 255 at the ~2^30 split primes), each result
  reduced as c - p * floor(c / p) (`float_mod`, exact below 2^53 with no
  correction): the word action that proves M v = 0 for every vector of a
  kernel basis at once, and for `membership`, runs on it from k = 7 on.

* `certified_kernel` -- the kernel of a matrix M over O_d that is known
  only by its reductions mod split primes, an exact test of M v = 0 for
  every vector of a candidate basis at once, and what one elimination at
  the first split prime p1 gives (`FirstPrime`, made by `first_prime` from
  one `left_kernel_mod` of M^T): rows R that span M's row space mod p1,
  M[R] mod p1, and K, a basis of ker(M mod p1).  If M mod p has full
  column rank, the kernel is empty: the rank over K is at least the rank
  mod p.  Each prime is worked under its first root w1 alone, and its kernel basis is the Gauss-Jordan form
  (`kernel_mod_from_span`) of the kernel of one such elimination: K at
  p1, where no row of M is reduced again, and at each later prime the
  kernel of the rows R of the last prime not skipped, eliminated there
  (`_eliminate`, the elimination of `first_prime`); only those rows are
  asked for.  Each free column set to 1, the basis goes to the
  caller's map to a kernel basis under w2 (for the word operators of
  `polyspace` a signed column permutation, for the tests' matrices a row
  reduction under w2), whose Gauss-Jordan form must have w1's free
  columns: otherwise w2 has other pivots and the prime is skipped, as is
  one whose rank or pivots are worse than the best.  The two kernels give
  x and y mod p of every entry x + y*omega; the primes are combined by
  CRT and rational reconstruction, and the first reconstruction whose
  common denominator is within Wang's bound isqrt(modulus // 2) is
  checked exactly at once, the whole basis in one call that is true only
  if every vector passes (for the word operators, by their reductions at
  the `primes_exceeding` twice a height bound proven for the largest
  entry, one product per prime for all the vectors), so a kernel of
  small height is proven at its first prime.  After a refuted candidate
  the next prime eliminates all of M.  c - rank_p independent vectors of
  ker M make a basis, since dim ker M <= c - rank_p; each is supported on
  its own free column and earlier pivots, so the free columns mod p are
  those over K and the basis is the one Gauss-Jordan elimination over K
  gives.

  `FirstPrime.columns` restricts p1's rows and K to a block E of M's
  columns, with the same rows: R still spans E's row space mod p1, and K
  on E's columns spans a space that contains ker(E mod p1), as every v
  in it, padded with zeros, is in ker(M mod p1).  So its dimension d
  satisfies d >= dim ker(E mod p1) >= dim_K ker E: d is an upper bound
  for `quad_rank_modular` (`first`), and c - d a lower bound on the rank.
  It is equal to dim ker(E mod p1) when the kernel of M mod p1 is the
  direct sum of the kernels of its column blocks.  A larger span only
  adds candidate vectors, which the exact check refutes, and the next
  prime eliminates E itself.

* `quad_rank_modular` -- one rule for every rank mod p.  For a prime ideal
  P above p, rank(M mod P) <= rank(M) over K, since a minor that is
  nonzero mod P is nonzero over K.  So every split prime bounds the kernel
  dimension from above, and a prime of bad reduction can only raise it.
  It takes the least kernel dimension over the first RANK_PRIMES split
  primes and stops at the first prime that meets a known lower bound
  (`lower`): 0 by default; for the sandwich of `polyspace.wkk` the number
  of verified kernel vectors, where meeting it makes the dimension
  unconditional; and for its modular total the sum of the eigenspace
  dimensions (`kernel_dim_upper_bound` is that dimension alone).  A
  caller that already has the dimension mod the first prime, or an upper
  bound on it that is at least the dimension over K (above), passes it
  (`first`), and that prime is not reduced again.  Each prime reduces
  whichever orientation of the matrix has fewer rows (`rank_mod`): the
  rank is the same, and the work is smaller.

* `quad_kernel` -- Gauss-Jordan elimination over K on `QuadElem`
  fractions, with a check of every vector against every row
  (`matvec_is_zero`).  No production route calls it: it is the test
  oracle of `certified_kernel`, on `QuadElem` arithmetic rather than the
  integer pairs of the production path, and it stays in the package while
  `bench/spans.py` traces it by name.

The split primes are searched for on demand, once per ring and process
(`_split_primes`): a caller that uses one prime searches for one.

The modular functions take a matrix only by its reductions, a function
from a split prime p, and optionally some rows, to the matrix or those
rows mod p with omega -> w1, the first of `omega_roots` (`Reductions`),
so it is never built over O_d; only `certified_kernel` names w2.  Kernel
vectors, in `certified_kernel`, its exact check and `quad_kernel`, are
lists of integer pairs (x, y) for x + y*omega, integral and content-free
(`_canonical_integral`); the arithmetic of pairs lives in `field`.  Rows
of `QuadInt` (`Rows`) enter only the test oracles `quad_kernel` and
`matvec_is_zero`.  This module holds linear algebra only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, Sequence

import numpy as np

from .field import ZERO, CertificateError, FieldSpec, Pair, QuadElem, QuadInt, kronecker
from .intarith import is_probable_prime, sqrt_mod_prime

Rows = Sequence[Sequence[QuadInt]]
# a matrix over O_d given by its reductions: (split prime p[, rows]) ->
# int64 array with entries in [0, p), the matrix or its rows `rows` mod p
# with omega -> w1, the first of `omega_roots`
Reductions = Callable[..., np.ndarray]
# the second root's kernel from the first's: (split prime p, rows R or None
# for all of M, a kernel basis mod p of M[R] under the first root of omega,
# one vector per row) -> a kernel basis mod p of M[R] under the second root
SecondRoot = Callable[[int, Sequence[int] | None, np.ndarray], np.ndarray]

# `certified_kernel` gives up after this many split primes (~1900 bits)
MAX_PRIMES = 64
# `quad_rank_modular` bounds a kernel dimension by this many split primes
RANK_PRIMES = 3
# the split primes are the first above this; below 2^31 products fit in int64
PRIME_START = 1 << 30


def quad_kernel(f: FieldSpec, rows: Rows) -> list[list[Pair]]:
    """Basis of { v : M v = 0 } over K, the field of fractions of O_d, by
    Gauss-Jordan elimination on `QuadElem` fractions: the test oracle of
    `certified_kernel`.

    The columns are scanned left to right, each pivot is the first nonzero
    entry at or below the next pivot row, and the pivot rows are scaled to
    1 and cleared above and below.  Each free column gives the vector with
    1 there and minus its reduced entries at the pivot columns, made
    integral and content-free; every vector is checked against every row of
    M by `matvec_is_zero` before returning.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    if any(len(row) != ncols for row in rows):
        raise ValueError("ragged matrix")
    red = [[QuadElem.from_quadint(e) for e in row] for row in rows]
    pivots: list[int] = []
    for col in range(ncols):
        top = len(pivots)
        piv = next((r for r in range(top, len(red)) if not red[r][col].is_zero()), None)
        if piv is None:
            continue
        red[top], red[piv] = red[piv], red[top]
        inv = red[top][col].inverse()
        red[top] = [e * inv for e in red[top]]
        for r, row in enumerate(red):
            if r != top and not row[col].is_zero():
                red[r] = [e - row[col] * p for e, p in zip(row, red[top])]
        pivots.append(col)

    basis: list[list[Pair]] = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [QuadElem.from_quadint(f.zero)] * ncols
        vec[fc] = QuadElem.from_quadint(f.one)
        for i, c in enumerate(pivots):
            vec[c] = -red[i][fc]
        den = math.lcm(*(e.den for e in vec))
        ints = [(e.num.x * (den // e.den), e.num.y * (den // e.den)) for e in vec]
        basis.append(_canonical_integral(ints))

    for v in basis:
        if not matvec_is_zero(f, rows, [QuadElem.from_quadint(f.quad(x, y)) for x, y in v]):
            raise CertificateError("kernel vector failed exact verification")
    return basis


def _canonical_integral(ints: list[Pair]) -> list[Pair]:
    """Scale a nonzero integral vector to content 1 and a first nonzero
    coordinate above (0, 0) in tuple order: x > 0, or x = 0 and y > 0."""
    g = math.gcd(*(c for e in ints for c in e))
    if next(e for e in ints if e != ZERO) < ZERO:
        g = -g
    return ints if g == 1 else [(x // g, y // g) for x, y in ints]


def matvec_is_zero(f: FieldSpec, rows: Rows, vec: Sequence[QuadElem]) -> bool:
    """M v = 0 on QuadElem fractions: a test oracle for the kernels."""
    zero = QuadElem.from_quadint(f.zero)
    for row in rows:
        acc = zero
        for e, v in zip(row, vec):
            if not (e.is_zero() or v.is_zero()):
                acc = acc + QuadElem.from_quadint(e) * v
        if not acc.is_zero():
            return False
    return True


# ------------------------------------------------------------- modular path


# the split primes of each ring found so far, in increasing order
_SPLIT_PRIMES: dict[FieldSpec, list[int]] = {}


def _split_primes(f: FieldSpec) -> Iterator[int]:
    """The split primes of `split_primes`, in increasing order and without
    end.  Each is searched for when a caller first asks for it, and kept in
    one list per ring that every caller extends, so a process searches only
    as far as the furthest prime it has used."""
    found = _SPLIT_PRIMES.setdefault(f, [])
    for i in itertools.count():
        if i == len(found):
            p = found[-1] + 2 if found else PRIME_START | 1
            while not (is_probable_prime(p) and kronecker(f.disc, p) == 1):
                p += 2
            found.append(p)
        yield found[i]


def split_primes(f: FieldSpec, count: int) -> list[int]:
    """The first `count` odd primes p > PRIME_START with (d_K/p) = 1, where
    O_d embeds in Z/p."""
    return list(itertools.islice(_split_primes(f), count))


def primes_exceeding(f: FieldSpec, bound: int) -> list[int]:
    """The fewest first split primes whose product exceeds `bound`."""
    primes = _split_primes(f)
    out: list[int] = []
    product = 1
    while product <= bound:
        out.append(next(primes))
        product *= out[-1]
    return out


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p (numpy's batched `matmul`) for int64 arrays with entries
    in [0, p), p < 2^31, and an inner dimension K of at most 2^16.

    b is split into 15-bit limbs, b = hi * 2^15 + lo: a product with lo is
    below 2^46 and one with hi below 2^47, so each sum of K products stays
    below 2^63, as does (a @ hi mod p) * 2^15 + a @ lo."""
    if a.shape[-1] > 1 << 16:
        raise ValueError("inner dimension above 2^16 may overflow int64")
    hi, lo = np.divmod(b, 1 << 15)
    return ((a @ hi) % p * (1 << 15) + a @ lo) % p


def float_mod(c: np.ndarray, p: int) -> np.ndarray:
    """c mod p, in [0, p), for a float64 array of integers with |c| < 2^53,
    as c - p * floor(c / p), a new array.  The quotient needs no
    correction: a float x is within half its spacing, at most |x| 2^-53, of
    its rounding, and c / p is at least 1/p from every integer it is not,
    where |c / p| 2^-53 < 1/p; so the correctly rounded c / p is an integer
    only when c / p is, and has the same floor.  Every product and
    difference is then an exact integer of at most |c| + p."""
    q = float(p)
    return c - np.floor(c / q) * q


def matmul_mod_float(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p on float64 BLAS (numpy's batched `matmul`), for float64
    arrays of integers in [0, p), as a new float64 array.  The inner
    dimension n must have (p - 1) max(n h, n l + 2^15) + p <= 2^53, h = (p -
    1) >> 15 and l = min(p - 1, 2^15 - 1) the largest limbs below: n up to
    255 at the split primes just above 2^30.  A larger n raises ValueError.

    b is split into 15-bit limbs, b = hi * 2^15 + lo, both exact in
    float64, and one product takes them side by side: every product with
    hi is at most (p - 1) h and every one with lo at most (p - 1) l, so
    every partial sum, in any order, is an exact integer (the technique of
    FFLAS-FFPACK, Dumas, Giorgi and Pernet, ACM TOMS 35(3), 2008).  a @ hi
    is reduced (`float_mod`), and (a @ hi mod p) * 2^15 + a @ lo, at most
    2^53 - p, once more."""
    hi_max, lo_max = (p - 1) >> 15, min(p - 1, (1 << 15) - 1)
    n = a.shape[-1]
    if (p - 1) * max(n * hi_max, n * lo_max + (1 << 15)) + p > 1 << 53:
        raise ValueError("inner dimension too large for exact float64 sums mod p")
    hi = np.floor(b * 2.0**-15)
    both = a @ np.concatenate([hi, b - hi * 2.0**15], axis=-1)
    half = b.shape[-1]
    return float_mod(float_mod(both[..., :half], p) * 2.0**15 + both[..., half:], p)


@lru_cache(maxsize=None)
def omega_roots(f: FieldSpec, p: int) -> tuple[int, int]:
    """The two images w1, w2 of omega in Z/p for a split prime p: the roots
    of x^2 - t x + n, one for each prime ideal above p."""
    root = sqrt_mod_prime(f.disc % p, p)
    w1 = (f.disc + root) * pow(2, p - 2, p) % p
    return w1, (f.disc - w1) % p


def _row_reduce(
    mat: np.ndarray, p: int, reduced: bool, kernel: bool = False
) -> tuple[np.ndarray, tuple[int, ...], np.ndarray | None]:
    """Row reduction mod p of a copy of `mat`: the echelon form without its
    zero rows (reduced, with unit pivots, if `reduced`), its pivot columns,
    and, if `kernel`, a basis of the left kernel { x : x mat = 0 mod p },
    one vector for each row that the reduction zeroes (else None).

    The left kernel is read off the row operations, carried in a transform
    block right after `mat`'s columns and kept in pivot order: its column t
    belongs to the row that becomes pivot t, and that row's 1 is written
    there when it does.  Until then a row's transform is supported on the
    earlier pivots' columns and its own unwritten 1, so each step updates
    one contiguous slice, from the pivot column to the newest pivot's
    transform column.  The rows left over take the columns after the last
    pivot's, in their order, and their transforms, with the columns put
    back in the order of `mat`'s rows, are the basis.

    The `% p` is delayed (Dumas, Giorgi and Pernet, FFLAS-FFPACK, ACM TOMS
    35(3), 2008).  Each step reduces only what it reads: the pivot column
    (at and below the pivot row, or all of it if `reduced`), the columns an
    empty-column look-ahead tests, and the pivot row.  So every factor and
    every pivot row entry lies in [0, p), and an update subtracts at most
    (p - 1)^2 from an entry: after t updates an entry of [0, p) lies in
    [-t (p - 1)^2, p).  The trailing block, the transform block included,
    is reduced once every T = (2^63 - p) // (p - 1)^2 updates, so that T
    (p - 1)^2 + p <= 2^63 keeps every entry in int64, and once more at the
    end.  T is 7 at the split primes just above 2^30, 2 at 2^31 - 1 and 1
    just above 2^31.  Every pivot, factor and output entry is the one that
    a `% p` after each update gives."""
    nrows, ncols = mat.shape
    if kernel:
        # the transform block, and the row of `mat` each row started as
        mat = np.concatenate([mat, np.zeros((nrows, nrows), dtype=np.int64)], axis=1)
        order = np.arange(nrows)
    else:
        mat = mat[np.any(mat, axis=1)]
        nrows = len(mat)
    period = (2**63 - p) // (p - 1) ** 2
    pending = 0  # updates since the trailing block was last reduced
    pivot_cols: list[int] = []
    top = col = 0
    while top < nrows and col < ncols:
        column = mat[top:, col]
        column %= p
        live = top + column.nonzero()[0]
        if live.size == 0:
            # a column without a nonzero at or below `top` stays so: jump to
            # the next one that has one, looking ahead in windows that
            # double in width, or stop if none is left
            start, width = col + 1, 8
            while start < ncols:
                window = mat[top:, start : min(start + width, ncols)]
                window %= p
                ahead = window.any(axis=0)
                first = int(ahead.argmax())
                if ahead[first]:
                    break
                start, width = start + width, 2 * width
            else:
                break
            col = start + first
            live = top + mat[top:, col].nonzero()[0]
        piv = live[0]
        if piv != top:
            mat[[top, piv]] = mat[[piv, top]]
            if kernel:
                order[[top, piv]] = order[[piv, top]]
        end = ncols
        if kernel:
            end += top + 1
            mat[top, end - 1] = 1
        # rows above `top` are zero left of their pivots, so only the
        # columns from `col` on change
        row = mat[top, col:end]
        row %= p
        inv = pow(int(row[0]), -1, p)
        if reduced:
            row *= inv
            row %= p
            mat[:top, col] %= p
            others = mat[:, col].nonzero()[0]
            others = others[others != top]
            factor = mat[others, col]
        else:
            others = live[1:]
            factor = mat[others, col] * inv % p
        if others.size:
            mat[others, col:end] -= factor[:, None] * row
            pending += 1
            if pending == period:
                mat[0 if reduced else top + 1 :, col + 1 : end] %= p
                pending = 0
        pivot_cols.append(col)
        top += 1
        col += 1
    mat %= p
    if not kernel:
        return mat[:top], tuple(pivot_cols), None
    left = np.zeros((nrows - top, nrows), dtype=np.int64)
    mat[np.arange(top, nrows), ncols + np.arange(top, nrows)] = 1
    left[:, order] = mat[top:, ncols:]
    return mat[:top, :ncols], tuple(pivot_cols), left


def echelon_mod(mat: np.ndarray, p: int) -> tuple[int, tuple[int, ...]]:
    """Rank and pivot columns of an int64 matrix with entries in [0, p),
    by row reduction mod the prime p.  The input is left unchanged."""
    rows, pivots, _ = _row_reduce(mat, p, reduced=False)
    return len(rows), pivots


def left_kernel_mod(mat: np.ndarray, p: int) -> tuple[tuple[int, ...], np.ndarray]:
    """The pivot columns mod the prime p of an int64 matrix with entries in
    [0, p), and a basis mod p of its left kernel { x : x mat = 0 }, one
    vector per row, from one row reduction.  The input is left unchanged."""
    _, pivots, left = _row_reduce(mat, p, reduced=False, kernel=True)
    return pivots, left


def rref_mod(mat: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """The nonzero rows of the reduced row echelon form mod the prime p of
    an int64 matrix with entries in [0, p), and its pivot columns.  The
    input is left unchanged."""
    rows, pivots, _ = _row_reduce(mat, p, reduced=True)
    return rows, pivots


@dataclass(frozen=True)
class ModularRankReport:
    """The least kernel dimension mod the split primes `primes` reduced."""

    kernel_dim: int
    primes: tuple[int, ...]


def rank_mod(mat: np.ndarray, p: int) -> int:
    """The rank mod the prime p of an int64 matrix with entries in [0, p),
    reducing whichever orientation has fewer rows: the rank is the same,
    and the work is smaller."""
    return echelon_mod(mat.T if mat.shape[0] > mat.shape[1] else mat, p)[0]


def quad_rank_modular(
    f: FieldSpec, rows: Reductions, lower: int = 0, first: int | None = None
) -> ModularRankReport:
    """The kernel dimension of the matrix with reductions `rows`: the least
    over the first RANK_PRIMES split primes, each an upper bound over K, so
    exact unless all of them are of bad reduction.  It stops at the first
    prime that meets `lower`, a known lower bound on the dimension mod every
    prime; that prime's dimension is then the least, and no later prime is
    searched for or reduced.  `first`, if given, is the dimension mod the
    first split prime, which the caller already has, or an upper bound on
    it that is at least the dimension over K: that prime is then not
    reduced again, and a later one corrects a value above the least."""
    dims: list[int] = []
    primes: list[int] = []
    for p in itertools.islice(_split_primes(f), RANK_PRIMES):
        if first is not None and not primes:
            dims.append(first)
        else:
            mat = rows(p)
            dims.append(mat.shape[1] - rank_mod(mat, p))
        primes.append(p)
        if dims[-1] <= lower:
            break
    return ModularRankReport(min(dims), tuple(primes))


def kernel_dim_upper_bound(f: FieldSpec, rows: Reductions, lower: int, first: int | None = None) -> int:
    """An unconditional upper bound on the kernel dimension of the matrix
    with reductions `rows`, given `lower`, a known lower bound, and
    optionally `first`, its dimension mod the first split prime."""
    return quad_rank_modular(f, rows, lower, first).kernel_dim


# --------------------------------------------------------- certified kernel


def _rational(a: int, m: int, bound: int) -> tuple[int, int] | None:
    """n/q with q*a = n mod m, |n| <= bound and 0 < q <= bound, by the
    extended Euclidean algorithm (Wang's rational reconstruction), or None."""
    r0, r1, s0, s1 = m, a % m, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if s1 == 0 or abs(s1) > bound:
        return None
    return (r1, s1) if s1 > 0 else (-r1, -s1)


def _reconstruct(residues: np.ndarray, m: int) -> tuple[int, list[int]] | None:
    """A common denominator D and integers N_i with N_i / D = residues[i]
    mod m, all small against m, or None.  D grows only when D*residue is
    not already small, so most entries cost one product.  D may not exceed
    isqrt(m // 2), the bound of each reconstruction: a larger one is not
    worth proving yet."""
    bound = math.isqrt(m // 2)
    den = 1
    parts: list[tuple[int, int]] = []  # (numerator, D when it was found)
    for a in residues.tolist():
        b = den * a % m
        if b > m // 2:
            b -= m
        if abs(b) > bound:
            nq = _rational(b, m, bound)
            if nq is None:
                return None
            b, q = nq
            den *= q
            if den > bound:
                return None
        parts.append((b, den))
    return den, [n * (den // at) for n, at in parts]


def _crt(residues: np.ndarray, m: int, new: np.ndarray, p: int) -> np.ndarray:
    """The residues mod m*p that are `residues` mod m and `new` mod p."""
    step = (new.astype(object) - residues % p) * pow(m % p, p - 2, p) % p
    return residues + m * step


def kernel_mod_from_span(span: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """The Gauss-Jordan kernel basis mod the prime p of a matrix whose
    kernel mod p is the row space of `span`, one row per free column c (1
    at c, 0 at the other free columns and right of c), and the columns
    that are not free, its pivot columns.  It is the reduced row echelon
    form of `span` with its columns and its rows reversed: a kernel
    vector's last nonzero entry is at a free column, and each free column
    is the last nonzero entry of one.  The input is left unchanged."""
    ncols = span.shape[1]
    red, lead = rref_mod(span[:, ::-1], p)
    free = {ncols - 1 - c for c in lead}
    return red[::-1, ::-1], tuple(c for c in range(ncols) if c not in free)


@dataclass(frozen=True)
class FirstPrime:
    """One elimination of a matrix M over O_d, or of some of its rows, at
    a split prime p (`_eliminate`; `first_prime` at the first): rows R of
    M, independent mod p, that span the eliminated rows' space there,
    those rows M[R] mod p under w1 (`mat`), and K, a basis mod p of the
    eliminated rows' kernel, one vector per eliminated row (`kernel`)."""

    p: int
    rows: tuple[int, ...]
    mat: np.ndarray
    kernel: np.ndarray

    def columns(self, at: Sequence[int] | np.ndarray) -> FirstPrime:
        """The same on M's columns `at`: R still spans their row space mod
        p, and K on them spans a space that contains their kernel mod p
        (the module docstring)."""
        return FirstPrime(self.p, self.rows, self.mat[:, at], self.kernel[:, at])


def first_prime(f: FieldSpec, mod: Reductions) -> FirstPrime:
    """`FirstPrime` of the matrix with reductions `mod` at the first split
    prime (`_eliminate`)."""
    return _eliminate(mod, split_primes(f, 1)[0])


def _eliminate(mod: Reductions, p: int, rows: Sequence[int] | None = None) -> FirstPrime:
    """`FirstPrime` of the matrix with reductions `mod` at the split prime
    p, of all its rows or of the rows `rows` alone, from one row reduction
    of their transpose that carries the row operations (`left_kernel_mod`):
    its pivot columns, as row indices of M, are R, and its left kernel is
    the kernel of those rows mod p."""
    mat = mod(p) if rows is None else mod(p, list(rows))
    pivots, kernel = left_kernel_mod(mat.T, p)
    kept = pivots if rows is None else tuple(rows[i] for i in pivots)
    return FirstPrime(p, kept, mat[list(pivots)], kernel)


def certified_kernel(
    f: FieldSpec,
    mod: Reductions,
    second: SecondRoot,
    annihilates: Callable[[list[list[Pair]]], bool],
    first: FirstPrime,
) -> list[list[Pair]]:
    """Basis of the kernel of a matrix M over O_d known through
    `mod(p, rows)`, the rows `rows` (all by default) of M mod the split
    prime p with omega -> w1, the first root of omega, `second`, the map
    from a kernel basis under w1 to one under the second root w2,
    `annihilates(basis)`, an exact test of M v = 0 for every vector v of
    a candidate basis of integer pairs, true only if every vector passes
    (`polyspace.WordOperator` gives a signed column permutation and proves
    M v = 0 for the whole basis from reductions, one product per prime;
    the tests' oracles row-reduce under w2 and compute M v for each
    vector), and `first`, M at the first split prime p1 (`FirstPrime`,
    possibly restricted to M's columns from a larger matrix's).

    Each split prime p is worked under w1 only, from one elimination there
    (`FirstPrime`): `first` at p1, and at each later prime `_eliminate` of
    the rows R of the last prime that was kept (below), or of all of M
    when no prime has been kept since p1 or the last refuted candidate.  Its
    kernel spans a space that contains ker(M mod p), as its rows are rows
    of M; the kernel basis is that kernel's Gauss-Jordan form
    (`kernel_mod_from_span`), and `second` is asked for its image on the
    same rows (None, all of M, at p1).  Its size d is at least dim ker(M
    mod p), which is at least dim ker M over K, so d = 0 proves the kernel
    empty.  The basis under w2 that `second` returns is put in
    Gauss-Jordan form too: a prime where its free columns are not w1's has
    other pivots under w2 and is skipped, as is a prime whose rank or
    pivot pattern is worse than the best seen so far.  Every other prime
    is kept, and its R, independent mod p and so over K, are the rows the
    next prime eliminates: a skipped prime never shrinks them.
    Under the two roots the entries x + y*omega of each kernel vector,
    with its free column set to 1, are x + y*w1 and x + y*w2, so each prime
    gives x and y mod p.  They are combined by CRT and rational
    reconstruction; as soon as a reconstruction has a common denominator
    within the bound of Wang's reconstruction, isqrt(modulus // 2), the
    basis, each vector made integral and content-free, goes to
    `annihilates` in one call, one exact check per candidate basis.
    Neither the bound, `second` nor `first` decides what is returned, only
    when a proof is worth trying: whatever is returned has passed.  A
    refuted candidate comes from too few primes, from a first kernel
    larger than ker M, or from rows R that span M's rows only mod the
    prime that kept them; the next prime then eliminates all of M, whose
    rank at a prime of good reduction is M's.
    The basis equals `quad_kernel` of M.  If no candidate passes within
    MAX_PRIMES primes, CertificateError is raised.
    """
    best = None  # (rank, pivots) of the primes being combined
    keep = None  # rows the next prime eliminates: the last kept prime's R, or None, all of M
    residues = modulus = None
    for p in itertools.islice(_split_primes(f), MAX_PRIMES):
        w1, w2 = omega_roots(f, p)
        record = first if p == first.p else _eliminate(mod, p, keep)
        basis1, pivots = kernel_mod_from_span(record.kernel, p)
        if not len(basis1):
            return []
        basis2, pivots2 = kernel_mod_from_span(second(p, keep, basis1), p)
        if pivots2 != pivots:
            continue
        key = (len(pivots), tuple(-c for c in pivots))
        if best is not None and key < best:
            continue
        keep = record.rows
        # kernel entries at the pivot columns, one row per free column
        k1, k2 = basis1[:, list(pivots)], basis2[:, list(pivots)]
        y = (k1 - k2) % p * pow((w1 - w2) % p, p - 2, p) % p
        x = (k1 - y * w1 % p) % p
        new = np.concatenate([x.ravel(), y.ravel()])
        if best is None or key > best:
            best, residues, modulus = key, new.astype(object), p
        else:
            residues = _crt(residues, modulus, new, p)
            modulus *= p
        candidate = _reconstruct(residues, modulus)
        if candidate is not None:
            ncols = basis1.shape[1]
            free = sorted(set(range(ncols)) - set(pivots))
            basis = _kernel_vectors(ncols, pivots, free, *candidate)
            if annihilates(basis):
                return basis
            # the next prime eliminates all of M
            keep = None
    raise CertificateError(f"no kernel candidate passed exact verification in {MAX_PRIMES} primes")


def _kernel_vectors(
    ncols: int, pivots: Sequence[int], free: list[int], den: int, nums: list[int]
) -> list[list[Pair]]:
    """The basis vectors (free column = den) from the reconstructed pivot
    entries nums / den (all x parts, then all y parts), made canonical."""
    half = len(nums) // 2
    xs, ys = nums[:half], nums[half:]
    out = []
    for i, fc in enumerate(free):
        vec = [ZERO] * ncols
        vec[fc] = (den, 0)
        for j, c in enumerate(pivots):
            t = i * len(pivots) + j
            vec[c] = (xs[t], ys[t])
        out.append(_canonical_integral(vec))
    return out
