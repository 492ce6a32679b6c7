"""Exact kernels over O_d and the modular rank path."""

from __future__ import annotations

import numpy as np
import pytest

from hermitia import linalg
from hermitia.field import EUCLIDEAN_DS, CertificateError, field
from hermitia.linalg import (
    certified_kernel,
    echelon_mod,
    kernel_dim_upper_bound,
    matvec_is_zero,
    pairs_mod,
    quad_kernel,
    quad_rank_modular,
    split_primes,
)

from conftest import seeded


def rand_rows(rng, f, nr, nc, span=4):
    return [
        [f.quad(rng.randint(-span, span), rng.randint(-span, span)) for _ in range(nc)]
        for _ in range(nr)
    ]


def test_kernel_vectors_are_verified_and_integral():
    rng = seeded("kernel-random")
    for d in EUCLIDEAN_DS:
        f = field(d)
        for _ in range(25):
            rows = rand_rows(rng, f, rng.randint(1, 5), rng.randint(1, 6))
            ker = quad_kernel(f, rows)
            for v in ker:
                assert matvec_is_zero(f, rows, v)
                assert all(e.den == 1 for e in v)


def test_exact_dimension_equals_modular_dimension():
    rng = seeded("kernel-vs-modular")
    for d in EUCLIDEAN_DS:
        f = field(d)
        for _ in range(20):
            rows = rand_rows(rng, f, rng.randint(1, 5), rng.randint(1, 6))
            assert len(quad_kernel(f, rows)) == quad_rank_modular(f, rows).kernel_dim


def test_rank_deficient_stack():
    f = field(3)
    base = [f.quad(1, 0), f.quad(0, 1), f.quad(2, 0)]
    rows = [
        base,
        [e * f.quad(0, 1) for e in base],
        [e * f.quad(3, -2) for e in base],
    ]
    assert len(quad_kernel(f, rows)) == 2
    rep = quad_rank_modular(f, rows)
    assert rep.rank == 1 and rep.kernel_dim == 2
    assert kernel_dim_upper_bound(f, rows) == 2


def test_full_rank_matrix_has_trivial_kernel():
    f = field(7)
    rows = [
        [f.one, f.zero],
        [f.omega, f.one],
    ]
    assert quad_kernel(f, rows) == []
    assert quad_rank_modular(f, rows).kernel_dim == 0


def test_zero_matrix_kernel_is_everything():
    f = field(11)
    rows = [[f.zero, f.zero, f.zero]]
    assert len(quad_kernel(f, rows)) == 3


def test_split_primes_split():
    from hermitia.field import kronecker
    from hermitia.intarith import is_probable_prime

    for d in EUCLIDEAN_DS:
        f = field(d)
        for p in split_primes(f, 4):
            assert is_probable_prime(p)
            assert kronecker(f.disc, p) == 1


def test_upper_bound_is_an_upper_bound():
    rng = seeded("upper-bound")
    for d in (1, 3):
        f = field(d)
        for _ in range(10):
            rows = rand_rows(rng, f, 3, 5)
            exact = len(quad_kernel(f, rows))
            assert kernel_dim_upper_bound(f, rows) >= exact


# ------------------------------------------------------- certified kernel


def reduced(f, rows, p):
    return pairs_mod(f, [[(e.x, e.y) for e in row] for row in rows], p)


def certified(f, rows, annihilates=None):
    """`certified_kernel` of explicit rows; returns the basis and the row
    sets it asked for."""
    p = split_primes(f, 1)[0]
    asked = []

    def exact_rows(indices):
        asked.append(list(indices))
        return [rows[i] for i in indices]

    check = annihilates or (lambda v: matvec_is_zero(f, rows, v))
    return certified_kernel(f, reduced(f, rows, p), p, exact_rows, check), asked


def test_certified_kernel_matches_all_rows_bareiss():
    rng = seeded("certified-random")
    for d in EUCLIDEAN_DS:
        f = field(d)
        for _ in range(25):
            ncols = rng.randint(1, 6)
            rows = rand_rows(rng, f, rng.randint(1, 5), ncols)
            # repeat combinations of rows so that some rows are redundant
            for _ in range(rng.randint(0, 4)):
                a, b = rng.choice(rows), rng.choice(rows)
                s, t = rand_rows(rng, f, 1, 2)[0]
                rows.append([s * x + t * y for x, y in zip(a, b)])
            rng.shuffle(rows)
            basis, asked = certified(f, rows)
            assert basis == quad_kernel(f, rows)
            # small entries keep every minor below p: no fallback, and
            # Bareiss ran on rank-many rows
            assert len(asked) == 1 and len(asked[0]) == ncols - len(basis)


def test_certified_kernel_falls_back_when_the_rank_drops_mod_p():
    f = field(2)
    p = split_primes(f, 1)[0]
    # exact rank 2, rank 1 mod p: the chosen row alone has a kernel vector
    # that the second row rejects
    rows = [[f.one, f.one], [f.one, f.quad(1 + p)]]
    assert echelon_mod(reduced(f, rows, p), p)[0] == 1
    basis, asked = certified(f, rows)
    assert basis == quad_kernel(f, rows) == []
    assert asked == [[0], [0, 1]]

    # a kernel that survives the fallback: one more column, still dropping mod p
    rows = [[f.one, f.one, f.zero], [f.one, f.quad(1 + p), f.zero]]
    basis, asked = certified(f, rows)
    assert len(asked) == 2
    assert basis == quad_kernel(f, rows)
    assert [[(e.num.x, e.num.y) for e in v] for v in basis] == [[(0, 0), (0, 0), (1, 0)]]


def test_certified_kernel_raises_when_verification_keeps_failing():
    f = field(7)
    rows = [[f.one, f.zero, f.one]]
    with pytest.raises(CertificateError):
        certified(f, rows, annihilates=lambda v: False)


def test_echelon_mod_leaves_its_input_and_finds_pivots():
    p = 101
    mat = np.array([[0, 2, 4], [0, 1, 2], [0, 0, 0], [3, 0, 1]], dtype=np.int64)
    before = mat.copy()
    assert echelon_mod(mat, p) == (2, (0, 1))
    assert np.array_equal(mat, before)
    # the pivot columns of the transpose name independent rows
    assert echelon_mod(mat.T.copy(), p) == (2, (0, 3))


def test_quad_kernel_rejects_a_vector_outside_the_kernel(monkeypatch):
    f = field(3)
    rows = [[f.one, f.quad(0, 1), f.quad(2, 0)]]
    canonical = linalg._canonical_integral
    # a back substitution that went wrong: the first coordinate is off by one
    monkeypatch.setattr(
        linalg, "_canonical_integral", lambda vec: [(1, 0)] + canonical(vec)[1:]
    )
    with pytest.raises(CertificateError):
        quad_kernel(f, rows)
