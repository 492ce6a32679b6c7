"""Exact kernels over O_d and the modular rank path."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermitia import linalg
from hermitia.field import EUCLIDEAN_DS, CertificateError, field
from hermitia.intarith import is_probable_prime
from hermitia.linalg import (
    FirstPrime,
    certified_kernel,
    echelon_mod,
    first_prime,
    float_mod,
    kernel_dim_upper_bound,
    left_kernel_mod,
    matmul_mod,
    matmul_mod_float,
    matvec_is_zero,
    omega_roots,
    primes_exceeding,
    quad_kernel,
    quad_rank_modular,
    rref_mod,
    split_primes,
)

from conftest import generator_of_first_ideals, seeded
from oracles import elems, kernel_mod, pairs_mod, reductions, row_reduce, second_root


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
                assert matvec_is_zero(f, rows, elems(f, v))
                assert all(type(x) is int and type(y) is int for x, y in v)
                assert math.gcd(*(c for e in v for c in e)) == 1


def test_exact_dimension_equals_modular_dimension():
    rng = seeded("kernel-vs-modular")
    for d in EUCLIDEAN_DS:
        f = field(d)
        for _ in range(20):
            rows = rand_rows(rng, f, rng.randint(1, 5), rng.randint(1, 6))
            assert len(quad_kernel(f, rows)) == quad_rank_modular(f, reductions(f, rows)).kernel_dim


def test_rank_deficient_stack():
    f = field(3)
    base = [f.quad(1, 0), f.quad(0, 1), f.quad(2, 0)]
    rows = [
        base,
        [e * f.quad(0, 1) for e in base],
        [e * f.quad(3, -2) for e in base],
    ]
    assert len(quad_kernel(f, rows)) == 2
    rep = quad_rank_modular(f, reductions(f, rows))
    # a nonempty kernel at good primes: every one of them is reduced
    assert rep.kernel_dim == 2 and list(rep.primes) == split_primes(f, linalg.RANK_PRIMES)
    assert kernel_dim_upper_bound(f, reductions(f, rows)) == 2


def test_full_rank_matrix_has_trivial_kernel():
    f = field(7)
    rows = [
        [f.one, f.zero],
        [f.omega, f.one],
    ]
    assert quad_kernel(f, rows) == []
    assert quad_rank_modular(f, reductions(f, rows)).kernel_dim == 0


def test_modular_rank_stops_at_the_first_prime_of_full_rank():
    f = field(7)
    rows = [[f.one, f.zero], [f.omega, f.one]]
    # an empty kernel mod one prime is empty over K: no other prime is reduced
    rep = quad_rank_modular(f, reductions(f, rows))
    assert rep.kernel_dim == 0 and list(rep.primes) == split_primes(f, 1)


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
            assert kernel_dim_upper_bound(f, reductions(f, rows)) >= exact


# ------------------------------------------------------- certified kernel


def reduced(f, rows, p, w=None):
    return pairs_mod(f, [[(e.x, e.y) for e in row] for row in rows], p, w)


def certified(f, rows, annihilates=None, among=None, cols=None):
    """`certified_kernel` of explicit rows, started from `first_prime` of
    them; returns the basis, the split primes whose reductions the start
    and it asked for under either root (in order), and how many vectors it
    sent to the exact check.  `among`, if given, replaces R, the rows that
    the first prime chose, and `cols` keeps the first `cols` columns of the
    rows, whose start is the whole matrix's restricted to them
    (`FirstPrime.columns`), as `polyspace.WordOperator` starts each
    eigenspace's."""
    start = first_prime(f, reductions(f, rows))
    asked = [start.p]
    checks = []
    if among is not None:
        start = FirstPrime(start.p, tuple(among), reduced(f, [rows[r] for r in among], start.p), start.kernel)
    if cols is not None:
        rows, start = [row[:cols] for row in rows], start.columns(range(cols))
    explicit, kernel2 = reductions(f, rows), second_root(f, rows)

    def mod(p, picked=None):
        asked.append(p)
        return explicit(p, picked)

    def second(p, picked, basis):
        asked.append(p)
        return kernel2(p, picked, basis)

    def check(v):
        checks.append(v)
        return annihilates(v) if annihilates else matvec_is_zero(f, rows, elems(f, v))

    basis = certified_kernel(f, mod, second, lambda vs: all(map(check, vs)), start)
    return basis, list(dict.fromkeys(asked)), len(checks)


def primes_to_reconstruct(f, basis):
    """How many first split primes make a product large enough that the
    reconstruction of `basis` needs no luck: each vector over its free
    entry u_fc, with common denominator D = lcm |u_fc|, has every numerator
    and D within isqrt(product // 2).  1 for an empty basis."""
    if not basis:
        return 1
    free = [next(x for x, y in reversed(v) if x) for v in basis]
    den = math.lcm(*(abs(u) for u in free))
    height = max(den, *(abs(c) * den // abs(u) for v, u in zip(basis, free) for e in v for c in e))
    n, product = 0, 1
    while math.isqrt(product // 2) < height:
        n += 1
        product *= split_primes(f, n)[-1]
    return n


def first_reconstruction(f, basis, n):
    """The vectors that rational reconstruction (`linalg._reconstruct`)
    first gives of the nonempty kernel `basis` (`quad_kernel`'s) reduced
    mod the product of the first 1, 2, ..., n split primes, as
    `certified_kernel` combines them when every prime is good: the pivot
    entries over the free entry, all x parts and then all y parts.  None if
    it gives nothing, or if a prime divides a free entry."""
    ncols = len(basis[0])
    free = [max(c for c in range(ncols) if v[c] != (0, 0)) for v in basis]
    pivots = [c for c in range(ncols) if c not in free]
    entries = [(v[c][part], v[fc][0]) for part in (0, 1) for v, fc in zip(basis, free) for c in pivots]
    m = 1
    for p in split_primes(f, n):
        m *= p
        if any(math.gcd(u, m) != 1 for _, u in entries):
            return None
        got = linalg._reconstruct(np.array([a * pow(u, -1, m) % m for a, u in entries], dtype=object), m)
        if got is not None:
            return linalg._kernel_vectors(ncols, pivots, free, *got)
    return None


def test_certified_kernel_matches_all_rows_bareiss():
    rng = seeded("certified-random")
    small = 0
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
            basis, primes, checks = certified(f, rows)
            assert basis == quad_kernel(f, rows)
            # small entries keep every minor below p: the first prime's
            # rank is the exact rank, an empty kernel takes that prime
            # alone, and a basis is proven, at its first check, by the
            # first primes whose product bounds its reconstruction
            need = primes_to_reconstruct(f, basis)
            assert checks == len(basis)
            if need == 1:
                small += 1
                assert primes == split_primes(f, 1)
            else:
                assert primes == split_primes(f, len(primes)) and len(primes) <= need
    assert small >= 90


def test_certified_kernel_falls_back_when_the_rank_drops_mod_p():
    f = field(2)
    p, q, r = split_primes(f, 3)
    # exact rank 2, rank 1 mod p under both roots: the first prime's
    # kernel vector fails the check, the second prime starts from its own
    # elimination of all rows, and its rank 2 proves the kernel empty
    rows = [[f.one, f.one], [f.one, f.quad(1 + p)]]
    assert all(echelon_mod(reduced(f, rows, p, w), p)[0] == 1 for w in omega_roots(f, p))
    basis, primes, checks = certified(f, rows)
    assert basis == quad_kernel(f, rows) == []
    assert primes == [p, q] and checks == 1

    # a kernel that survives: one more column, still dropping mod p; the
    # rank-2 second prime replaces the rank-1 first one
    rows = [[f.one, f.one, f.zero], [f.one, f.quad(1 + p), f.zero]]
    basis, primes, checks = certified(f, rows)
    assert primes == [p, q] and checks == 2
    assert basis == quad_kernel(f, rows)
    assert basis == [[(0, 0), (0, 0), (1, 0)]]

    # the refutation at a later prime: the kernel of row 0 alone has the
    # entry -big, too large for p alone to reconstruct, so nothing is
    # checked at p; q, eliminating the rows R = [0] that p kept,
    # reconstructs that kernel and it is refuted, and r eliminates both
    # rows
    big = 10**6 + 3
    assert linalg._reconstruct(np.array([-big % p], dtype=object), p) is None
    rows = [[f.one, f.quad(big), f.zero], [f.one, f.quad(big + p), f.zero]]
    explicit = reductions(f, rows)
    events = []

    def mod(prime, picked=None):
        events.append(("mod", prime, picked))
        return explicit(prime, picked)

    def check(v):
        events.append(("check", v))
        return matvec_is_zero(f, rows, elems(f, v))

    start = first_prime(f, mod)
    assert start.rows == (0,)
    basis = certified_kernel(f, mod, second_root(f, rows), lambda vs: all(map(check, vs)), start)
    assert basis == quad_kernel(f, rows) == [[(0, 0), (0, 0), (1, 0)]]
    assert events == [
        ("mod", p, None), ("mod", q, [0]), ("check", [(big, 0), (-1, 0), (0, 0)]),
        ("mod", r, None), ("check", basis[0]),
    ]


def test_certified_kernel_skips_a_later_prime_of_bad_reduction():
    f = field(7)
    p, q, r = split_primes(f, 3)
    # rank 2 mod p and over K, rank 1 mod q: q's kernel is larger, and
    # combining it with p's would mix two pivot patterns.  The kernel entry
    # -big is too large for p alone to reconstruct, so q is visited
    big = 10**6 + 3
    assert linalg._reconstruct(np.array([-big % p], dtype=object), p) is None
    rows = [[f.one, f.one, f.quad(big)], [f.one, f.quad(1 + q), f.quad(big)]]
    basis, primes, checks = certified(f, rows)
    assert primes == [p, q, r] and checks == 1
    assert basis == quad_kernel(f, rows) == [[(big, 0), (0, 0), (-1, 0)]]


def test_certified_kernel_proves_no_candidate_above_the_bound():
    f = field(2)
    p, q = split_primes(f, 2)
    # the kernel (1/a, 1/b, 1): each entry reconstructs mod p alone, but
    # their common denominator a*b exceeds isqrt(p // 2), so that candidate
    # is never checked; mod p*q it is within the bound and proven
    a, b = 151, 157
    assert max(a, b) <= math.isqrt(p // 2) < a * b <= math.isqrt(p * q // 2)
    rows = [[f.quad(a), f.zero, f.quad(-1)], [f.zero, f.quad(b), f.quad(-1)]]
    checked = []

    def check(v):
        checked.append(v)
        return matvec_is_zero(f, rows, elems(f, v))

    basis, primes, checks = certified(f, rows, check)
    assert basis == quad_kernel(f, rows) == [[(b, 0), (a, 0), (a * b, 0)]]
    assert primes == [p, q] and checked == basis


def test_certified_kernel_recovers_from_rows_that_span_only_mod_the_first_prime():
    f = field(2)
    p, q = split_primes(f, 2)
    rows = [[f.one, f.one, f.zero], [f.one, f.quad(1 + p), f.zero], [f.quad(2), f.quad(2), f.zero]]
    # row 0 spans the row space mod p, where row 1 is row 0, but not over
    # K: the kernel mod p, that of row 0 alone, is refuted, and q starts
    # from its own elimination of all the rows, not from R = [0]
    basis, primes, checks = certified(f, rows, among=[0])
    assert basis == quad_kernel(f, rows) == [[(0, 0), (0, 0), (1, 0)]]
    assert primes == [p, q] and checks == 2
    # rows 1 and 2 span over K and mod p (row 0 is row 2 - row 1): the
    # first prime proves the kernel
    rows = [[f.one, f.one, f.zero], [f.one, f.quad(2), f.zero], [f.quad(2), f.quad(3), f.zero]]
    basis, primes, checks = certified(f, rows, among=[1, 2])
    assert basis == quad_kernel(f, rows) == [[(0, 0), (0, 0), (1, 0)]]
    assert primes == [p] and checks == 1


def test_certified_kernel_eliminates_the_kept_rows_again_at_the_next_prime():
    """Rows [1, b, 0] and [1, b + p, 1] over O_1, b = 1 + 10^6, on their
    first two columns, started from the whole matrix's first prime p
    restricted to them (`FirstPrime.columns`), as `polyspace.WordOperator`
    starts each eigenspace's: both rows are kept at p, where the whole
    rows are independent, but on the block they are equal mod p, so p's
    kernel is (-b, 1), too large to reconstruct mod p alone.  q eliminates
    both kept rows, independent over K, finds the block of full rank and
    proves its kernel empty with no exact check."""
    f = field(1)
    p, q = split_primes(f, 2)
    b = 1 + 10**6
    assert linalg._reconstruct(np.array([-b % p], dtype=object), p) is None
    rows = [[f.one, f.quad(b), f.zero], [f.one, f.quad(b + p), f.one]]
    block = [row[:2] for row in rows]
    start = first_prime(f, reductions(f, rows))
    assert start.rows == (0, 1)
    explicit, kernel2 = reductions(f, block), second_root(f, block)
    events = []

    def mod(prime, picked=None):
        events.append(("mod", prime, picked))
        return explicit(prime, picked)

    def second(prime, picked, basis):
        events.append(("second", prime, picked))
        return kernel2(prime, picked, basis)

    def check(v):
        events.append(("check", v))
        return matvec_is_zero(f, block, elems(f, v))

    basis = certified_kernel(f, mod, second, lambda vs: all(map(check, vs)), start.columns(range(2)))
    assert basis == quad_kernel(f, block) == []
    assert events == [("second", p, None), ("mod", q, [0, 1])]


def test_certified_kernel_skips_a_prime_where_the_second_root_has_other_pivots(monkeypatch):
    """Rows [[pi, 1, 0], [0, 0, 1]], pi a short generator of the prime
    ideal (p1, omega - w2(p1)): pi is 0 mod p1 under the second root w2
    alone, so at p1 the free column is 1 under w1 and 0 under w2.  The
    first prime is skipped, in every ring: the basis is `quad_kernel`'s,
    and no modulus that is reconstructed from holds p1."""
    moduli = []
    reconstruct = linalg._reconstruct

    def recorded(residues, m):
        moduli.append(m)
        return reconstruct(residues, m)

    monkeypatch.setattr(linalg, "_reconstruct", recorded)
    for d in EUCLIDEAN_DS:
        f = field(d)
        p1 = split_primes(f, 1)[0]
        w1, w2 = omega_roots(f, p1)
        x, y = generator_of_first_ideals(f, 1, root=1)
        assert (x + y * w2) % p1 == 0 != (x + y * w1) % p1
        rows = [[f.quad(x, y), f.one, f.zero], [f.zero, f.zero, f.one]]
        assert kernel_mod(reduced(f, rows, p1, w1), p1)[1] == (0, 2)
        assert kernel_mod(reduced(f, rows, p1, w2), p1)[1] == (1, 2)
        moduli.clear()
        basis, primes, checks = certified(f, rows)
        assert basis == quad_kernel(f, rows), d
        assert moduli and not any(m % p1 == 0 for m in moduli), d


def test_modular_rank_reduces_the_short_side(monkeypatch):
    f = field(1)
    base = [f.one, f.quad(0, 1), f.quad(2, -1)]
    # a tall matrix: rows 0 and 2 are multiples of `base`
    rows = [base, [f.zero, f.one, f.zero], [e * f.quad(3, 1) for e in base], [f.one] * 3]
    shapes = []
    echelon = linalg.echelon_mod

    def recorded(mat, p):
        shapes.append(mat.shape)
        return echelon(mat, p)

    monkeypatch.setattr(linalg, "echelon_mod", recorded)
    assert quad_rank_modular(f, reductions(f, rows)).kernel_dim == 0
    wide = [list(col) for col in zip(*rows)]
    assert quad_rank_modular(f, reductions(f, wide)).kernel_dim == 1
    # the tall matrix is reduced as its transpose, the wide one as it is
    assert set(shapes) == {(3, 4)}


def test_modular_rank_skips_a_bad_first_prime():
    f = field(2)
    p, q = split_primes(f, 2)
    # [p] is [0] mod p alone: kernel dimension 1 there, 0 mod q and over K;
    # the least dimension discards p, and q ends the search
    rep = quad_rank_modular(f, reductions(f, [[f.quad(p)]]))
    assert rep.kernel_dim == 0 and rep.primes == (p, q)


def test_certified_kernel_corrects_a_first_prime_basis_larger_than_the_kernel(monkeypatch):
    """A first prime p whose K spans more than the kernel (what a first
    prime whose eigenspace ranks do not add up gives
    `polyspace.WordOperator`): its candidate is refuted, and the second
    prime q eliminates all of M, whose pivots replace p's and prove the
    kernel there, with no `echelon_mod`; the basis is `quad_kernel`'s.  A
    K that is the kernel is proven at p, with no row asked for.  M has
    rational entries, so its reductions under the two roots agree and the
    second root's basis is the first root's (`second`)."""
    f = field(7)
    p, q = split_primes(f, 2)
    # row 3 is row 0 + row 1 - row 2, and R = [0, 1, 2] spans the rows
    ints = [[1, 2, 0, -1, 0], [0, 1, 1, 3, 0], [2, 0, 1, 0, 1], [-1, 3, 0, 2, -1]]
    rows = [[f.quad(x) for x in row] for row in ints]
    want = quad_kernel(f, rows)
    assert len(want) == 2
    explicit = reductions(f, rows)
    span = (0, 1, 2)
    events = []
    echelon = linalg.echelon_mod

    def recorded(mat, prime):
        events.append(("echelon", prime))
        return echelon(mat, prime)

    def mod(prime, picked=None):
        events.append(("mod", prime, picked))
        return explicit(prime, picked)

    def check(v):
        events.append(("check", v))
        return matvec_is_zero(f, rows, elems(f, v))

    def run(kernel):
        events.clear()
        start = FirstPrime(p, span, explicit(p, span), kernel)
        return certified_kernel(f, mod, lambda prime, picked, basis: basis, lambda vs: all(map(check, vs)), start)

    monkeypatch.setattr(linalg, "echelon_mod", recorded)
    # the kernel of rows 0 and 1 alone: 3 vectors, one of them outside ker M
    assert run(kernel_mod(explicit(p, [0, 1]), p)[0]) == want
    # its first vector, (2, -1, 1, 0, 0), is refuted; no echelon_mod runs
    outside = [(2, 0), (-1, 0), (1, 0), (0, 0), (0, 0)]
    assert not matvec_is_zero(f, rows, elems(f, outside))
    assert events == [("check", outside), ("mod", q, None)] + [("check", v) for v in want]
    # the kernel itself: proven at p alone
    assert run(kernel_mod(explicit(p), p)[0]) == want
    assert [e[0] for e in events] == ["check"] * len(want)


def test_certified_kernel_raises_when_verification_keeps_failing():
    f = field(7)
    rows = [[f.one, f.zero, f.one]]
    asked = []
    explicit = reductions(f, rows)

    def mod(p, picked=None):
        asked.append(p)
        return explicit(p, picked)

    with pytest.raises(CertificateError):
        certified_kernel(f, mod, second_root(f, rows), lambda vs: False, first_prime(f, mod))
    # it gave up after a fixed number of primes
    assert list(dict.fromkeys(asked)) == split_primes(f, linalg.MAX_PRIMES)


# entries near 2^40 make kernel coefficients of hundreds of bits, beyond one
# prime; small ones make the combinations that stack dependent rows
SMALL = st.integers(-4, 4)
ENTRY = st.one_of(SMALL, st.integers(2**40 - 8, 2**40 + 8), st.integers(-(2**40) - 8, -(2**40) + 8))


@st.composite
def stacks(draw):
    f = field(draw(st.sampled_from(EUCLIDEAN_DS)))
    ncols = draw(st.integers(1, 6))
    entry = st.builds(f.quad, ENTRY, ENTRY)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=1, max_size=5))
    # O_d-combinations of drawn rows: rank-deficient stacks
    pick = st.integers(0, len(rows) - 1)
    for s, t, i, j in draw(st.lists(st.tuples(SMALL, SMALL, pick, pick), max_size=4)):
        rows.append([f.quad(s) * x + f.quad(0, t) * y for x, y in zip(rows[i], rows[j])])
    return f, draw(st.permutations(rows))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(stack=stacks())
def test_certified_kernel_equals_bareiss_property(stack):
    """When the first reconstruction within Wang's bound is the kernel,
    each basis vector is sent to the exact check once and nothing else is.
    With entries near 2^40 a wrong candidate can come first: it is the
    first vector checked, and the basis is checked last.  Also on the first
    columns alone, started from the whole matrix's first prime restricted
    to them (`FirstPrime.columns`), as `polyspace.WordOperator` starts each
    eigenspace's."""
    f, rows = stack
    want = quad_kernel(f, rows)
    checked = []

    def check(v):
        checked.append(v)
        return matvec_is_zero(f, rows, elems(f, v))

    basis, primes, checks = certified(f, rows, check)
    assert basis == want
    first = first_reconstruction(f, want, len(primes)) if want else want
    if first == want:
        assert checks == len(want)
    else:
        assert checked[0] == first[0] and checked[len(checked) - len(want) :] == want
    head = (len(rows[0]) + 1) // 2
    assert certified(f, rows, cols=head)[0] == quad_kernel(f, [row[:head] for row in rows])


def test_certified_kernel_refutes_each_wrong_reconstruction_within_the_bound(monkeypatch):
    """The kernel of [(2^40 - 8)·i, (2^40 - 7)·i] over O_1 needs three
    split primes, but one and two already reconstruct within Wang's bound,
    to wrong candidates: each is checked and refuted before the kernel is
    proven at the third."""
    f = field(1)
    rows = [[f.quad(0, 2**40 - 8), f.quad(0, 2**40 - 7)]]
    want = quad_kernel(f, rows)
    assert want == [[(2**40 - 7, 0), (-(2**40 - 8), 0)]]
    events = []
    real = linalg._reconstruct

    def recorded(residues, m):
        events.append(("modulus", m))
        return real(residues, m)

    def check(v):
        events.append(("check", v))
        return matvec_is_zero(f, rows, elems(f, v))

    monkeypatch.setattr(linalg, "_reconstruct", recorded)
    basis, primes, checks = certified(f, rows, check)
    p, q, r = split_primes(f, 3)
    assert basis == want and primes == [p, q, r] and checks == 3
    assert events == [
        ("modulus", p), ("check", [(9223, 0), (-9224, 0)]),
        ("modulus", p * q), ("check", [(716119437, 0), (-511647109, 0)]),
        ("modulus", p * q * r), ("check", want[0]),
    ]
    assert [m.bit_length() for kind, m in events if kind == "modulus"] == [31, 61, 91]
    # the property test's oracle sees the first of them
    assert first_reconstruction(f, want, 3) == [[(9223, 0), (-9224, 0)]]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(stack=stacks())
def test_first_prime_spans_the_rows_and_the_kernel_property(stack):
    """`first_prime`: R has M's rank mod p1, M[R] is M's rows R there, K
    is c - |R| independent vectors that M kills, and on the first columns
    (`FirstPrime.columns`) R's rows are M's rows there and K's row space
    contains their kernel (`kernel_mod`)."""
    f, rows = stack
    mod = reductions(f, rows)
    start = first_prime(f, mod)
    p = start.p
    assert p == split_primes(f, 1)[0]
    mat = mod(p)
    ncols = mat.shape[1]
    rank = linalg.rank_mod(mat, p)
    assert len(start.rows) == linalg.rank_mod(start.mat, p) == rank
    assert np.array_equal(start.mat, mat[list(start.rows)])
    assert start.kernel.shape == (ncols - rank, ncols)
    assert linalg.rank_mod(start.kernel, p) == ncols - rank
    assert not matmul_mod(mat, start.kernel.T.copy(), p).any()
    head = (ncols + 1) // 2
    part = start.columns(range(head))
    assert part.p == p and part.rows == start.rows
    assert np.array_equal(part.mat, start.mat[:, :head])
    sliced = kernel_mod(mat[:, :head], p)[0]
    both = np.concatenate([part.kernel, sliced])
    assert linalg.rank_mod(both, p) == linalg.rank_mod(part.kernel, p)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(stack=stacks())
def test_kernel_bases_have_the_reduced_echelon_shape_property(stack):
    """Column c is free when it depends on the columns left of it, i.e.
    when the kernel of the first c + 1 columns is larger than that of the
    first c.  The i-th basis vector is nonzero at the i-th free column and
    at no other, and zero at every pivot column right of it."""
    f, rows = stack
    ncols = len(rows[0])
    dims = [0] + [
        quad_rank_modular(f, reductions(f, [row[: c + 1] for row in rows])).kernel_dim
        for c in range(ncols)
    ]
    free = [c for c in range(ncols) if dims[c + 1] > dims[c]]
    pivots = [c for c in range(ncols) if c not in free]
    for basis in (quad_kernel(f, rows), certified(f, rows)[0]):
        assert len(basis) == len(free)
        for v, fc in zip(basis, free):
            assert [c for c in free if v[c] != (0, 0)] == [fc]
            assert all(v[c] == (0, 0) for c in pivots if c > fc)


@st.composite
def stacks_bad_at_the_first_prime(draw):
    f, rows = draw(stacks())
    p = split_primes(f, 1)[0]
    # a row times p vanishes mod p alone: the rank drops mod p, not over K
    scale = draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    return f, [[e * f.quad(p) for e in row] if s else row for row, s in zip(rows, scale)]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(stack=stacks_bad_at_the_first_prime())
def test_least_kernel_dimension_discards_a_bad_first_prime_property(stack):
    f, rows = stack
    exact = len(quad_kernel(f, rows))
    mod = reductions(f, rows)
    assert quad_rank_modular(f, mod).kernel_dim == exact
    assert kernel_dim_upper_bound(f, mod) == exact
    # every prime ideal bounds the kernel dimension from above
    for p in split_primes(f, linalg.RANK_PRIMES):
        for mat in (mod(p), reduced(f, rows, p, omega_roots(f, p)[1])):
            assert len(rows[0]) - echelon_mod(mat, p)[0] >= exact


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


# ------------------------------------------------------------ row reduction


def test_row_reduction_matches_a_column_by_column_reference():
    """`echelon_mod` and `rref_mod` give the rank, the pivots and the rows
    of the reference on tall and wide matrices of every rank, with runs of
    zero columns that the reduction jumps over."""
    rng = seeded("row-reduce")
    for p in (10007, split_primes(field(2), 1)[0]):
        for _ in range(150):
            nrows, ncols = rng.randint(1, 14), rng.randint(1, 30)
            rank = rng.randint(0, min(nrows, ncols))
            left = np.array([[rng.randrange(p) for _ in range(rank)] for _ in range(nrows)], dtype=object)
            right = np.array([[rng.randrange(p) for _ in range(ncols)] for _ in range(rank)], dtype=object)
            mat = (left.reshape(nrows, rank) @ right.reshape(rank, ncols)) % p
            for _ in range(rng.randint(0, 3)):
                start = rng.randrange(ncols)
                mat[:, start : start + rng.randint(1, 8)] = 0
            mat = mat.astype(np.int64)
            before = mat.copy()
            rows, pivots, _ = row_reduce(mat, p, reduced=True)
            assert echelon_mod(mat, p) == (len(pivots), pivots)
            got_rows, got_pivots = rref_mod(mat, p)
            assert got_pivots == pivots and np.array_equal(got_rows, rows)
            assert np.array_equal(mat, before)


def worst_case_product(p, nrows, ncols, pivots):
    """L U mod p for U in echelon form with pivot columns `pivots`, 1 at
    each pivot and p - 1 right of it, and L unit lower triangular with
    p - 1 below the diagonal (its rows past len(pivots) are all p - 1 left
    of it).  Eliminating L U meets the pivots in order with no swap, and
    every factor and every pivot row entry right of the pivot is p - 1, so
    each update subtracts the most, (p - 1)^2, from every trailing entry;
    the columns between the pivots become 0 mod p, but not 0, once the
    pivots before them are eliminated."""
    rank = len(pivots)
    left = np.array([[1 if i == j else p - 1 if i > j else 0 for j in range(rank)] for i in range(nrows)], dtype=object)
    right = np.zeros((rank, ncols), dtype=object)
    for t, c in enumerate(pivots):
        right[t, c] = 1
        right[t, c + 1 :] = p - 1
    return ((left @ right) % p).astype(np.int64)


def test_delayed_reduction_matches_the_reference_at_every_period():
    """`echelon_mod`, `rref_mod` and `left_kernel_mod` reduce the trailing
    block every T = (2^63 - p) // (p - 1)^2 updates: T = 7 just above
    2^30, 2 at 2^31 - 1 and 1 just above 2^31.  With every factor and
    pivot row entry p - 1 (`worst_case_product`), on shapes with more
    than 7 pivots and runs of non-pivot columns, and on random matrices
    with entries p - 1, the rows, pivots and left kernels equal the
    reference's, which reduces after every update."""
    rng = seeded("delayed-reduction")
    primes = {7: split_primes(field(2), 1)[0], 2: 2**31 - 1, 1: 2**31 + 11}
    for period, p in primes.items():
        assert (2**63 - p) // (p - 1) ** 2 == period and is_probable_prime(p)
        mats = [
            worst_case_product(p, 20, 24, list(range(20))),
            worst_case_product(p, 24, 30, [0, 1, 2, 5, 6, 7, 8, 9, 15, 16, 17, 18, 19, 20, 27]),
            worst_case_product(p, 12, 40, [0, 1, 2, 3, 4, 5, 6, 7, 8, 30, 31]),
            np.full((10, 12), p - 1, dtype=np.int64),
        ]
        for _ in range(10):
            nrows, ncols = rng.randint(8, 24), rng.randint(8, 24)
            mat = np.array([[rng.choice((p - 1, p - 1, rng.randrange(p))) for _ in range(ncols)] for _ in range(nrows)])
            mats.append(mat.astype(np.int64))
        for mat in mats[:3]:
            assert len(row_reduce(mat, p, reduced=False)[1]) > 7
        for mat in mats:
            before = mat.copy()
            rows, pivots, left = row_reduce(mat, p, reduced=False, kernel=True)
            assert echelon_mod(mat, p) == (len(pivots), pivots), period
            assert np.array_equal(linalg._row_reduce(mat, p, reduced=False)[0], row_reduce(mat, p, reduced=False)[0])
            assert np.array_equal(linalg._row_reduce(mat, p, reduced=False, kernel=True)[0], rows)
            got_pivots, got_left = left_kernel_mod(mat, p)
            assert got_pivots == pivots and np.array_equal(got_left, left), period
            red, red_pivots, _ = row_reduce(mat, p, reduced=True)
            got_red, got_red_pivots = rref_mod(mat, p)
            assert got_red_pivots == red_pivots and np.array_equal(got_red, red), period
            assert np.array_equal(mat, before)


def test_matmul_mod_matches_exact_products():
    rng = seeded("matmul-mod")
    p = split_primes(field(7), 1)[0]
    for inner in (1, 5, 29, 700):
        a = np.array([[[rng.randrange(p) for _ in range(inner)] for _ in range(3)] for _ in range(2)])
        b = np.array([[rng.randrange(p) for _ in range(4)] for _ in range(inner)])
        want = (a.astype(object) @ b.astype(object)) % p
        assert np.array_equal(matmul_mod(a, b, p), want.astype(np.int64))
    # every entry p - 1: the largest sums the limbs allow for
    top = np.full((2, 2000), p - 1, dtype=np.int64)
    assert np.array_equal(matmul_mod(top, top.T, p), np.full((2, 2), 2000 * (p - 1) ** 2 % p))
    with pytest.raises(ValueError):
        matmul_mod(np.zeros((1, (1 << 16) + 1), dtype=np.int64), np.zeros(((1 << 16) + 1, 1), dtype=np.int64), p)


def test_primes_exceeding_is_the_shortest_prefix():
    for d in EUCLIDEAN_DS:
        f = field(d)
        every = split_primes(f, 80)
        for bound in (0, 1, every[0] - 1, every[0], every[0] * every[1], 2**200, 2**2000):
            primes = primes_exceeding(f, bound)
            assert primes == every[: len(primes)]
            assert math.prod(primes) > bound
            assert math.prod(primes[:-1]) <= bound or not primes


def test_split_primes_equal_an_eager_search(monkeypatch):
    from hermitia.field import kronecker
    from hermitia.intarith import is_probable_prime

    rng = seeded("split-primes-on-demand")
    monkeypatch.setattr(linalg, "_SPLIT_PRIMES", {})
    for d in EUCLIDEAN_DS:
        f = field(d)
        eager, p = [], linalg.PRIME_START | 1
        while len(eager) < 80:
            if is_probable_prime(p) and kronecker(f.disc, p) == 1:
                eager.append(p)
            p += 2
        # asked for in no particular order, the list grows and is reread
        counts = list(range(81))
        rng.shuffle(counts)
        for n in counts:
            assert split_primes(f, n) == eager[:n], (d, n)


def test_primes_exceeding_searches_only_the_primes_it_returns(monkeypatch):
    for d in EUCLIDEAN_DS:
        f = field(d)
        monkeypatch.setattr(linalg, "_SPLIT_PRIMES", {})
        # two primes above 2^30 exceed 2^40, and no third is searched for
        primes = primes_exceeding(f, 2**40)
        assert len(primes) == 2 and linalg._SPLIT_PRIMES[f] == primes
        assert primes_exceeding(f, 0) == [] and len(linalg._SPLIT_PRIMES[f]) == 2


def test_matmul_mod_float_equals_matmul_mod_up_to_the_largest_inner_dimension():
    """The float64 product mod p equals the int64 one at the largest inner
    dimension its guard admits at the first split prime of every ring, 255,
    on entries all p - 1, or all p - 2 (odd, so that a sum past 2^53 would
    be rounded), against p - 1 and against the largest entry whose low
    15-bit limb is 2^15 - 1: the largest sums each limb allows for.  So on
    random entries, batched, from [0, p) and from [p - 2^16, p), where
    wider limbs would take the sums past 2^53; one more raises ValueError."""
    rng = seeded("matmul-mod-float")
    for d in EUCLIDEAN_DS:
        p = split_primes(field(d), 1)[0]
        inner = 255
        for first in (p - 1, p - 2):
            for last in (p - 1, ((p - 1) >> 15 << 15) - 1):
                a = np.full((3, inner), first, dtype=np.int64)
                b = np.full((inner, 2), last, dtype=np.int64)
                got = matmul_mod_float(a.astype(np.float64), b.astype(np.float64), p)
                assert np.array_equal(got, matmul_mod(a, b, p)), (d, first, last)
        for low in (0, p - (1 << 16)):
            a = np.array([[[rng.randrange(low, p) for _ in range(inner)] for _ in range(4)] for _ in range(2)])
            b = np.array([[rng.randrange(low, p) for _ in range(5)] for _ in range(inner)])
            got = matmul_mod_float(a.astype(np.float64), b.astype(np.float64), p)
            assert np.array_equal(got, matmul_mod(a, b, p)), (d, low)
        with pytest.raises(ValueError):
            matmul_mod_float(np.zeros((1, inner + 1)), np.zeros((inner + 1, 1)), p)


def test_float_mod_is_exact_below_2_to_the_53():
    """c - p * floor(c / p) in floats is c mod p for every integer |c| <
    2^53, with no correction of the quotient: on c within 3 of a multiple
    of p, the closest a quotient comes to an integer it is not, up to 2^53
    and down to -2^53, at the first split primes and at small primes."""
    rng = np.random.default_rng(1)
    for p in [*split_primes(field(7), 2), 101, 3]:
        c = rng.integers(0, (1 << 53) // p, 20000, dtype=np.int64) * p + rng.integers(-3, 4, 20000)
        c = np.concatenate([c, [(1 << 53) // p * p - 1, 1 - (1 << 53) // p * p, p - 1, 1 - p, 0]])
        c = c[np.abs(c) < 1 << 53]
        assert np.array_equal(float_mod(c.astype(np.float64), p).astype(np.int64), c % p), p
