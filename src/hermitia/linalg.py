"""Exact nullspaces of matrices over the rings O_d.

The polynomial cocycle spaces are cut out as kernels of integral matrices
whose entries live in O_d.  A prime p that splits in O_d has two prime
ideals above it, and O_d modulo either is Z/p: omega goes to one of the two
roots w1, w2 of x^2 - t x + n mod p (`omega_roots`).  The pieces:

* `echelon_mod` and `rref_mod` -- row reduction of an int64 numpy matrix
  modulo p: rank and pivot columns, and for `rref_mod` the reduced rows.
  The primes are ~2^30 split primes and entries stay below p < 2^31, so
  every product fits in int64.  A column with no nonzero left at or below
  the next pivot row is jumped over, never to be visited again.
  `matmul_mod` multiplies such matrices mod p, batched, splitting one
  factor into 15-bit limbs so that the sums stay in int64.  The word
  operators of `polyspace` use it for all their arithmetic mod p: each
  element's factor from its values at 0..k, the blocks of the reduced
  matrix, and the word action on a vector that proves M v = 0 for the
  kernels and for `membership`.

* `certified_kernel` -- the kernel of a matrix M over O_d that is known
  only by its reductions mod split primes and an exact test of M v = 0.
  If M mod p has full column rank, the kernel is empty: the rank over K
  is at least the rank mod p.  Otherwise the reduced row echelon kernels
  under w1 and w2, each free column set to 1, give x and y mod p of every
  entry x + y*omega; the primes are combined by CRT and rational
  reconstruction, and the vectors are checked exactly (for the word
  operators of `polyspace`, by their reductions at the `primes_exceeding`
  twice a proven height bound).  c - rank_p independent vectors of ker M
  make a basis, since dim ker M <= c - rank_p; each is supported on its
  own free column and earlier pivots, so the free columns mod p are those
  over K and the basis is the one Gauss-Jordan elimination over K gives.

* `quad_rank_modular` -- one rule for every rank mod p.  For a prime ideal
  P above p, rank(M mod P) <= rank(M) over K, since a minor that is
  nonzero mod P is nonzero over K.  So every split prime bounds the kernel
  dimension from above, and a prime of bad reduction can only raise it.
  It takes the least kernel dimension over the first RANK_PRIMES split
  primes and stops at the first prime that meets a known lower bound
  (`lower`): 0 by default; for the sandwich of `polyspace.wkk` the number
  of verified kernel vectors, where meeting it makes the dimension
  unconditional; and for its modular total the sum of the eigenspace
  dimensions (`kernel_dim_upper_bound` is that dimension alone).  Each
  prime reduces whichever orientation of the matrix has fewer rows: the
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
from a split prime p and a root w of omega's polynomial mod p to the matrix
mod p (`Reductions`), so it is never built over O_d.  Kernel vectors, in
`certified_kernel`, its exact check and `quad_kernel`, are lists of integer
pairs (x, y) for x + y*omega, integral and content-free
(`_canonical_integral`); the arithmetic of pairs lives in `field`.  Rows of
`QuadInt` (`Rows`) enter only the test oracles `quad_kernel` and
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
# a matrix over O_d given by its reductions: (split prime p, image w of
# omega mod p) -> int64 array with entries in [0, p)
Reductions = Callable[[int, int], np.ndarray]

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


@lru_cache(maxsize=None)
def omega_roots(f: FieldSpec, p: int) -> tuple[int, int]:
    """The two images w1, w2 of omega in Z/p for a split prime p: the roots
    of x^2 - t x + n, one for each prime ideal above p."""
    root = sqrt_mod_prime(f.disc % p, p)
    w1 = (f.disc + root) * pow(2, p - 2, p) % p
    return w1, (f.disc - w1) % p


def _row_reduce(mat: np.ndarray, p: int, reduced: bool) -> tuple[np.ndarray, tuple[int, ...]]:
    """Row reduction mod p of a copy of `mat` without its zero rows: the
    echelon form (reduced, with unit pivots, if `reduced`) and its pivot
    columns."""
    mat = mat[np.any(mat, axis=1)]
    nrows, ncols = mat.shape
    pivot_cols: list[int] = []
    top = col = 0
    while top < nrows and col < ncols:
        live = top + np.flatnonzero(mat[top:, col])
        if live.size == 0:
            # a column without a nonzero at or below `top` stays so: jump to
            # the next one that has one, looking ahead in windows that
            # double in width, or stop if none is left
            start, width = col + 1, 8
            while start < ncols:
                ahead = mat[top:, start : start + width].any(axis=0)
                first = int(ahead.argmax())
                if ahead[first]:
                    break
                start, width = start + width, 2 * width
            else:
                break
            col = start + first
            live = top + np.flatnonzero(mat[top:, col])
        piv = live[0]
        if piv != top:
            mat[[top, piv]] = mat[[piv, top]]
        # rows above `top` are zero left of their pivots, so only the
        # columns from `col` on change; entries stay below p < 2^31, so
        # the products fit in int64
        inv = pow(int(mat[top, col]), p - 2, p)
        if reduced:
            mat[top, col:] = mat[top, col:] * inv % p
            others = np.flatnonzero(mat[:, col])
            others = others[others != top]
            factor = mat[others, col]
        else:
            others = live[1:]
            factor = mat[others, col] * inv % p
        if others.size:
            mat[others, col:] = (mat[others, col:] - factor[:, None] * mat[top, col:]) % p
        pivot_cols.append(col)
        top += 1
        col += 1
    return mat[:top], tuple(pivot_cols)


def echelon_mod(mat: np.ndarray, p: int) -> tuple[int, tuple[int, ...]]:
    """Rank and pivot columns of an int64 matrix with entries in [0, p),
    by row reduction mod the prime p.  The input is left unchanged."""
    rows, pivots = _row_reduce(mat, p, reduced=False)
    return len(rows), pivots


def rref_mod(mat: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """The nonzero rows of the reduced row echelon form mod the prime p of
    an int64 matrix with entries in [0, p), and its pivot columns.  The
    input is left unchanged."""
    return _row_reduce(mat, p, reduced=True)


@dataclass(frozen=True)
class ModularRankReport:
    """The least kernel dimension mod the split primes `primes` reduced."""

    kernel_dim: int
    primes: tuple[int, ...]


def quad_rank_modular(f: FieldSpec, rows: Reductions, lower: int = 0) -> ModularRankReport:
    """The kernel dimension of the matrix with reductions `rows`: the least
    over the first RANK_PRIMES split primes, each an upper bound over K, so
    exact unless all of them are of bad reduction.  It stops at the first
    prime that meets `lower`, a known lower bound on the dimension mod every
    prime; that prime's dimension is then the least, and no later prime is
    searched for or reduced."""
    dims: list[int] = []
    primes: list[int] = []
    for p in itertools.islice(_split_primes(f), RANK_PRIMES):
        mat = rows(p, omega_roots(f, p)[0])
        # both orientations have the same rank; fewer rows are less work
        rank, _ = echelon_mod(mat.T if mat.shape[0] > mat.shape[1] else mat, p)
        dims.append(mat.shape[1] - rank)
        primes.append(p)
        if dims[-1] <= lower:
            break
    return ModularRankReport(min(dims), tuple(primes))


def kernel_dim_upper_bound(f: FieldSpec, rows: Reductions, lower: int) -> int:
    """An unconditional upper bound on the kernel dimension of the matrix
    with reductions `rows`, given `lower`, a known lower bound."""
    return quad_rank_modular(f, rows, lower).kernel_dim


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
    not already small, so most entries cost one product."""
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
        parts.append((b, den))
    return den, [n * (den // at) for n, at in parts]


def _crt(residues: np.ndarray, m: int, new: np.ndarray, p: int) -> np.ndarray:
    """The residues mod m*p that are `residues` mod m and `new` mod p."""
    step = (new.astype(object) - residues % p) * pow(m % p, p - 2, p) % p
    return residues + m * step


def certified_kernel(
    f: FieldSpec, mod: Reductions, annihilates: Callable[[list[Pair]], bool]
) -> list[list[Pair]]:
    """Basis of the kernel of a matrix M over O_d known through
    `mod(p, w)`, M mod the split prime p with omega -> w, and
    `annihilates(v)`, an exact test of M v = 0 on a vector of integer
    pairs (`polyspace.WordOperator.in_kernel` proves it from reductions,
    the tests' oracles compute M v).

    At each split prime, the rows named by the pivot columns of M^T mod p
    (independent mod p, hence over K) are put in reduced row echelon form
    under both images of omega.  A prime whose rank or pivot pattern is
    worse than the best seen so far, or differs between its two images,
    is skipped.  The kernel vectors' entries, with each free column set to
    1, are combined by CRT and rational reconstruction until one more
    prime changes nothing; then every vector, made integral and
    content-free, must pass `annihilates`.  The basis equals `quad_kernel`
    of M.  If no candidate passes within
    MAX_PRIMES primes, CertificateError is raised.
    """
    best = None  # (rank, pivots) of the primes being combined
    chosen = None  # rows independent mod the prime that chose them
    residues = modulus = candidate = rejected = None
    for p in itertools.islice(_split_primes(f), MAX_PRIMES):
        w1, w2 = omega_roots(f, p)
        m1 = mod(p, w1)
        ncols = m1.shape[1]
        if chosen is None:
            rank, rows = echelon_mod(m1.T, p)
            if rank == ncols:
                return []
            chosen = list(rows)
        (red1, piv1), (red2, piv2) = rref_mod(m1[chosen], p), rref_mod(mod(p, w2)[chosen], p)
        if len(piv1) == ncols or len(piv2) == ncols:
            return []
        if piv1 != piv2:
            continue
        key = (len(piv1), tuple(-c for c in piv1))
        if best is not None and key < best:
            continue
        pivset = set(piv1)
        free = [c for c in range(ncols) if c not in pivset]
        # kernel entries at the pivot columns, one row per free column:
        # v = e_free - sum_i R[i, free] e_pivot(i)
        k1, k2 = (-red1[:, free].T) % p, (-red2[:, free].T) % p
        y = (k1 - k2) % p * pow((w1 - w2) % p, p - 2, p) % p
        x = (k1 - y * w1 % p) % p
        new = np.concatenate([x.ravel(), y.ravel()])
        if best is None or key > best:
            best, residues, modulus, candidate = key, new.astype(object), p, None
        else:
            if candidate is not None and candidate != rejected:
                den, nums = candidate
                inv = pow(den % p, p - 2, p) if den % p else 0
                if inv and all(n * inv % p == r for n, r in zip(nums, new.tolist())):
                    basis = _kernel_vectors(ncols, piv1, free, den, nums)
                    if all(map(annihilates, basis)):
                        return basis
                    # rows chosen at a bad prime, or a premature
                    # reconstruction: choose rows again at the next prime
                    rejected, chosen = candidate, None
            residues = _crt(residues, modulus, new, p)
            modulus *= p
        candidate = _reconstruct(residues, modulus)
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
