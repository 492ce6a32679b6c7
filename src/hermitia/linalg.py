"""Exact nullspaces of matrices over the rings O_d.

The polynomial cocycle spaces are cut out as kernels of integral matrices
whose entries live in O_d.  The pieces:

* `echelon_mod` -- row reduction of an int64 numpy matrix modulo a prime
  p; it returns the rank and the pivot columns mod p.  The primes used are
  ~2^30 primes that split in the ring (so O_d/p = Z/p via an integer image
  of the generator), and entries stay below p < 2^31, so every product
  fits in int64.

* `quad_kernel` -- fraction-free (Bareiss) Gaussian elimination directly
  over O_d: cross-multiply with the current pivot and divide exactly by
  the previous one, which keeps entries at determinant-minor size instead
  of growing exponentially.  Exact back substitution then produces
  integral, content-free kernel vectors, and every vector is re-checked
  against every input row on integer pairs, so the result is proven.

* `certified_kernel` -- the kernel of a matrix M that is never built
  exactly as a whole: it is given by its reduction mod p, its rows on
  demand, and an exact test of M v = 0.  The pivot columns of M^T mod p
  name rows that are independent mod p, hence independent over O_d;
  Bareiss runs on those rows only.  Their kernel contains ker M, so once
  every basis vector passes the exact test the two kernels are equal.  If
  a vector fails (the rank dropped mod p), Bareiss runs on all rows.

* `quad_rank_modular` -- ranks modulo several split primes.  Reduction
  mod p can only lower the rank, hence can only raise the kernel
  dimension: every single prime yields a true upper bound on the kernel
  dimension (`kernel_dim_upper_bound`).  The report is accepted once
  several primes agree on the full pivot pattern, which pins the
  dimension down with overwhelming probability; combined with an exact
  lower bound (independent verified kernel vectors) the bound becomes an
  unconditional certificate.

Matrices enter the modular functions either as rows of `QuadInt` or as a
function from a split prime p to the matrix mod p, so a caller that can
reduce its matrix directly never builds it over O_d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .field import CertificateError, FieldSpec, QuadElem, QuadInt, kronecker
from .intarith import is_probable_prime, sqrt_mod_prime

Pair = tuple[int, int]
Rows = Sequence[Sequence[QuadInt]]
# a matrix over O_d given by its reductions: split prime p -> int64 array mod p
Reductions = Callable[[int], np.ndarray]

ZERO: Pair = (0, 0)


def pair_mul(f: FieldSpec, a: Pair, b: Pair) -> Pair:
    """(x1 + y1 w)(x2 + y2 w) with w^2 = t w - n, on integer pairs."""
    x1, y1 = a
    x2, y2 = b
    yy = y1 * y2
    return (x1 * x2 - f.norm_coeff * yy, x1 * y2 + y1 * x2 + f.disc * yy)


def _div(f: FieldSpec, a: Pair, b: Pair) -> Pair:
    """a / b in O_d; exact by the Bareiss divisibility guarantee."""
    u, v = b
    nb = u * u + f.disc * u * v + f.norm_coeff * v * v
    x, y = a
    cu, cv = u + f.disc * v, -v
    px = x * cu - f.norm_coeff * y * cv
    py = x * cv + y * cu + f.disc * y * cv
    return (px // nb, py // nb)


def _row_content(row: list[Pair]) -> int:
    g = 0
    for x, y in row:
        g = math.gcd(g, math.gcd(abs(x), abs(y)))
        if g == 1:
            return 1
    return g


def _strip(row: list[Pair]) -> list[Pair]:
    g = _row_content(row)
    if g > 1:
        return [(x // g, y // g) for x, y in row]
    return row


def _annihilates(f: FieldSpec, rows: list[list[Pair]], vec: list[Pair]) -> bool:
    support = [(c, v) for c, v in enumerate(vec) if v != ZERO]
    for row in rows:
        x = y = 0
        for c, v in support:
            e = row[c]
            if e != ZERO:
                px, py = pair_mul(f, e, v)
                x += px
                y += py
        if x or y:
            return False
    return True


def quad_kernel(f: FieldSpec, rows: Rows) -> list[list[QuadElem]]:
    """Basis of { v : M v = 0 } over the field of fractions of O_d.

    Returns integral, content-free vectors (QuadElem of denominator 1).
    The basis vectors are verified against every row of M exactly before
    returning.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    pairs: list[list[Pair]] = []
    for row in rows:
        if len(row) != ncols:
            raise ValueError("ragged matrix")
        pairs.append([(e.x, e.y) for e in row])
    remaining = [_strip(pr) for pr in pairs if any(e != ZERO for e in pr)]

    pivots: list[tuple[int, list[Pair]]] = []  # (pivot column, frozen row)
    prev: Pair = (1, 0)
    for col in range(ncols):
        if not remaining:
            break
        candidates = [r for r in remaining if r[col] != ZERO]
        if not candidates:
            continue
        # the smallest pivot entry keeps the minor growth down
        pivot = min(candidates, key=lambda r: max(abs(r[col][0]), abs(r[col][1])))
        pv = pivot[col]
        nxt: list[list[Pair]] = []
        for r in remaining:
            if r is pivot:
                continue
            e = r[col]
            if e == ZERO:
                new = [_div(f, pair_mul(f, pv, rc), prev) if rc != ZERO else ZERO for rc in r]
            else:
                new = []
                for rc, pc in zip(r, pivot):
                    t1 = pair_mul(f, pv, rc) if rc != ZERO else ZERO
                    t2 = pair_mul(f, e, pc) if pc != ZERO else ZERO
                    diff = (t1[0] - t2[0], t1[1] - t2[1])
                    new.append(_div(f, diff, prev) if diff != ZERO else ZERO)
            if any(p != ZERO for p in new):
                nxt.append(new)
        pivots.append((col, pivot))
        prev = pv
        remaining = nxt

    pivot_cols = {c for c, _ in pivots}
    basis: list[list[Pair]] = []
    zero = QuadElem.from_quadint(f.zero)
    for fc in range(ncols):
        if fc in pivot_cols:
            continue
        v: list[QuadElem] = [zero] * ncols
        v[fc] = QuadElem.from_quadint(f.one)
        for col, row in reversed(pivots):
            acc = zero
            for c in range(col + 1, ncols):
                rc = row[c]
                if rc != ZERO and not v[c].is_zero():
                    acc = acc + QuadElem.from_quadint(f.quad(*rc)) * v[c]
            pe = QuadElem.from_quadint(f.quad(*row[col]))
            v[col] = -acc * pe.inverse() if not acc.is_zero() else zero
        basis.append(_canonical_integral(v))

    for v in basis:
        if not _annihilates(f, pairs, v):
            raise CertificateError("kernel vector failed exact verification")
    return [[QuadElem.from_quadint(f.quad(x, y)) for x, y in v] for v in basis]


def integral_pairs(vec: Iterable[QuadElem]) -> tuple[int, list[Pair]]:
    """The lcm den of the denominators in `vec`, and den * vec as integer pairs."""
    vec = list(vec)
    den = math.lcm(*(e.den for e in vec))
    return den, [(e.num.x * (den // e.den), e.num.y * (den // e.den)) for e in vec]


def _canonical_integral(vec: list[QuadElem]) -> list[Pair]:
    """Scale to an integral vector with content 1 and a sign-normalized
    first nonzero coordinate."""
    ints = _strip(integral_pairs(vec)[1])
    lead = next((e for e in ints if e != ZERO), (1, 0))
    if lead[0] < 0 or (lead[0] == 0 and lead[1] < 0):
        ints = [(-x, -y) for x, y in ints]
    return ints


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


def certified_kernel(
    f: FieldSpec,
    mod: np.ndarray,
    p: int,
    exact_rows: Callable[[Sequence[int]], Rows],
    annihilates: Callable[[list[QuadElem]], bool],
) -> list[list[QuadElem]]:
    """Basis of the kernel of a matrix M over O_d known through `mod`, M
    mod the split prime p; `exact_rows(indices)`, the named rows of M
    built exactly; and `annihilates(v)`, an exact test of M v = 0.

    Bareiss runs on the rows named by the pivot columns of M^T mod p; if a
    vector then fails `annihilates`, on all rows.  A vector failing after
    that raises CertificateError.  The basis equals `quad_kernel` of M: it
    depends on the kernel only.
    """
    nrows, ncols = mod.shape
    chosen = echelon_mod(mod.T, p)[1]
    for indices in (chosen, range(nrows)):
        basis = quad_kernel(f, exact_rows(indices) or [[f.zero] * ncols])
        if all(annihilates(v) for v in basis):
            return basis
    raise CertificateError("kernel vector failed exact verification")


# ------------------------------------------------------------- modular path


@dataclass(frozen=True)
class ModularRankReport:
    ncols: int
    rank: int
    pivot_cols: tuple[int, ...]
    primes: tuple[int, ...]

    @property
    def kernel_dim(self) -> int:
        return self.ncols - self.rank


def split_primes(f: FieldSpec, count: int, start: int = 1 << 30) -> list[int]:
    """Odd primes p with (d_K/p) = 1, where O_d embeds in Z/p."""
    out: list[int] = []
    p = start | 1
    while len(out) < count:
        if is_probable_prime(p) and kronecker(f.disc, p) == 1:
            out.append(p)
        p += 2
    return out


def _omega_mod(f: FieldSpec, p: int) -> int:
    """An image of omega in Z/p for a split prime p."""
    root = sqrt_mod_prime(f.disc % p, p)
    return (f.disc + root) * pow(2, p - 2, p) % p


def pairs_mod(f: FieldSpec, rows: Sequence[Sequence[Pair]], p: int) -> np.ndarray:
    """A matrix of integer pairs x + y*omega, reduced mod the split prime p."""
    w = _omega_mod(f, p)
    mat = np.array([[(x + y * w) % p for x, y in row] for row in rows], dtype=np.int64)
    return mat.reshape(len(rows), len(rows[0]) if len(rows) else 0)


def _reductions(f: FieldSpec, rows: Rows | Reductions) -> Reductions:
    if callable(rows):
        return rows
    pairs = [[(e.x, e.y) for e in row] for row in rows]
    return lambda p: pairs_mod(f, pairs, p)


def echelon_mod(mat: np.ndarray, p: int) -> tuple[int, tuple[int, ...]]:
    """Rank and pivot columns of an int64 matrix with entries in [0, p),
    by row reduction mod the prime p.  The input is left unchanged."""
    mat = mat[np.any(mat, axis=1)]
    nrows, ncols = mat.shape
    pivot_cols: list[int] = []
    top = 0
    for col in range(ncols):
        if top == nrows:
            break
        live = top + np.flatnonzero(mat[top:, col])
        if live.size == 0:
            continue
        # rows above `top` are final and zero left of their pivots, so only
        # the rows below and the columns from `col` on change
        piv, others = live[0], live[1:]
        if others.size:
            # entries stay below p < 2^31, so the products fit in int64
            factor = mat[others, col] * pow(int(mat[piv, col]), p - 2, p) % p
            mat[others, col:] = (mat[others, col:] - factor[:, None] * mat[piv, col:]) % p
        if piv != top:
            mat[[top, piv]] = mat[[piv, top]]
        pivot_cols.append(col)
        top += 1
    return top, tuple(pivot_cols)


def quad_rank_modular(
    f: FieldSpec, rows: Rows | Reductions, agreements: int = 3
) -> ModularRankReport:
    """Rank (and kernel dimension) from pivot-pattern agreement across
    `agreements` split primes.  The kernel dimension of any single prime
    is already a true upper bound for the exact kernel dimension."""
    if not callable(rows) and not rows:
        return ModularRankReport(0, 0, (), ())
    mod = _reductions(f, rows)
    primes = split_primes(f, agreements)
    results = [echelon_mod(mod(p), p) for p in primes]
    ranks = {r for r, _ in results}
    patterns = {cols for _, cols in results}
    if len(ranks) != 1 or len(patterns) != 1:
        # a prime of bad reduction slipped in; extend until stable
        extra = split_primes(f, 2 * agreements)[agreements:]
        for p in extra:
            primes.append(p)
            results.append(echelon_mod(mod(p), p))
        best = max({r for r, _ in results})
        results = [(r, c) for r, c in results if r == best]
        if len(results) < agreements:
            raise CertificateError("modular ranks failed to stabilize")
    rank, cols = results[0]
    return ModularRankReport(mod(primes[0]).shape[1], rank, cols, tuple(primes))


def kernel_dim_upper_bound(f: FieldSpec, rows: Rows | Reductions) -> int:
    """An unconditional upper bound: min kernel dimension mod two split
    primes (each single prime already bounds from above)."""
    if not callable(rows) and not rows:
        return 0
    mod = _reductions(f, rows)
    bounds = []
    for p in split_primes(f, 2):
        mat = mod(p)
        bounds.append(mat.shape[1] - echelon_mod(mat, p)[0])
    return min(bounds)
