"""Ring arithmetic, Kronecker symbol, rounding, and norm enumeration."""

from __future__ import annotations

import ast
import copy
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hermitia
from hermitia import linalg, polyspace
from conftest import rand_elem, rand_nonzero_elem, rand_quadint, seeded
from hermitia.field import (
    EUCLIDEAN_DS,
    QuadElem,
    QuadInt,
    field,
    is_norm,
    kronecker,
    lattice_points_with_norm_below,
    nearest_int,
    nearest_pair,
    nonnorm_deltas,
    smallest_nonnorm,
)

ODD_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 41, 43, 97, 101]


# ------------------------------------------------------------------ layering

def _imported_modules(module: str) -> set[str]:
    """The top-level modules, and the hermitia modules by their short names,
    that the source of hermitia.<module> imports anywhere in its body."""
    tree = ast.parse((Path(hermitia.__file__).parent / f"{module}.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif not isinstance(node, ast.ImportFrom):
            continue
        elif node.module in (None, "hermitia"):  # from . import x
            names.update(alias.name for alias in node.names)
        else:
            names.add(node.module)
    return {n.removeprefix("hermitia.").split(".")[0] for n in names}


@pytest.mark.parametrize("module", ["field", "intarith", "forms", "cfrac", "lfun"])
def test_the_number_layer_imports_no_linear_algebra(module):
    """The exact number theory (rings, divisors, forms, continued fractions,
    L-values) stands below numpy and the modules built on it."""
    banned = {"numpy", "linalg", "polyspace", "hsum"}
    assert not _imported_modules(module) & banned, module


# ----------------------------------------------------------------- kronecker

def test_kronecker_euler_criterion_at_odd_primes():
    rng = seeded("kronecker-euler")
    for p in ODD_PRIMES:
        for _ in range(20):
            a = rng.randint(-200, 200)
            expected = pow(a % p, (p - 1) // 2, p)
            expected = {0: 0, 1: 1, p - 1: -1}[expected]
            assert kronecker(a, p) == expected, (a, p)


def test_kronecker_multiplicative_in_both_arguments():
    rng = seeded("kronecker-mult")
    for _ in range(400):
        a1 = rng.randint(-60, 60)
        a2 = rng.randint(-60, 60)
        b1 = rng.randint(-60, 60)
        b2 = rng.randint(-60, 60)
        if b1 == 0 or b2 == 0:
            continue
        assert kronecker(a1 * a2, b1) == kronecker(a1, b1) * kronecker(a2, b1)
        assert kronecker(a1, b1 * b2) == kronecker(a1, b1) * kronecker(a1, b2)


def test_kronecker_at_two_and_minus_one():
    for a in range(-40, 41):
        if a % 2 == 0:
            assert kronecker(a, 2) == 0
        elif a % 8 in (1, 7):
            assert kronecker(a, 2) == 1
        else:
            assert kronecker(a, 2) == -1
        if a != 0:
            assert kronecker(a, -1) == (1 if a > 0 else -1)


def test_kronecker_edge_cases():
    assert kronecker(-4, -3) == 1
    assert kronecker(1, 0) == 1
    assert kronecker(-1, 0) == 1
    assert kronecker(5, 0) == 0
    with pytest.raises(ValueError):
        kronecker(0, 0)


def test_attached_characters_have_period_abs_disc():
    for d in EUCLIDEAN_DS:
        f = field(d)
        m = f.abs_disc
        for a in range(1, 3 * m):
            assert f.chi(a) == f.chi(a + m)
            if a % 2 == 1 or d in (1, 2):
                pass
        # chi is odd: chi(-1) = -1 for imaginary quadratic fields
        assert f.chi(-1) == -1
        assert f.chi(m - 1) == -1


def test_character_values_at_two():
    assert field(3).chi(2) == -1
    assert field(7).chi(2) == 1
    assert field(11).chi(2) == -1


# ------------------------------------------------------------ ring structure

def test_quadint_ring_axioms_randomized():
    for d in EUCLIDEAN_DS:
        f = field(d)
        rng = seeded(f"ring-axioms-{d}")
        for _ in range(60):
            a, b, c = (rand_quadint(rng, f) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert (a * b).conj() == a.conj() * b.conj()
            assert (a + b).conj() == a.conj() + b.conj()
            assert (a * b).norm() == a.norm() * b.norm()
            assert (a + b).trace() == a.trace() + b.trace()
            assert a * a.conj() == f.quad(a.norm())
            assert a + a.conj() == f.quad(a.trace())


def test_omega_satisfies_its_quadratic():
    for d in EUCLIDEAN_DS:
        f = field(d)
        w = f.omega
        assert w * w == f.disc * w - f.quad(f.norm_coeff)
        # trace and norm of omega follow the uniform rule
        assert w.trace() == f.disc
        assert w.norm() == f.norm_coeff
        assert f.norm_coeff == (f.disc * f.disc - f.disc) // 4


def test_complex_embedding_is_a_homomorphism():
    for d in EUCLIDEAN_DS:
        f = field(d)
        rng = seeded(f"embedding-{d}")
        for _ in range(30):
            a, b = rand_quadint(rng, f, 10), rand_quadint(rng, f, 10)
            assert abs(complex(a * b) - complex(a) * complex(b)) < 1e-9
            assert abs(complex(a + b) - (complex(a) + complex(b))) < 1e-12
            assert abs(complex(a) * complex(a.conj()) - a.norm()) < 1e-9


def test_power_matches_repeated_multiplication():
    for d in EUCLIDEAN_DS:
        f = field(d)
        rng = seeded(f"pow-{d}")
        for _ in range(10):
            a = rand_quadint(rng, f, 5)
            acc = f.one
            for k in range(7):
                assert a**k == acc
                acc = acc * a


def test_exact_div_roundtrip_and_failure():
    for d in EUCLIDEAN_DS:
        f = field(d)
        rng = seeded(f"exactdiv-{d}")
        for _ in range(40):
            a = rand_quadint(rng, f, 12)
            b = rand_quadint(rng, f, 12)
            if b.is_zero():
                continue
            assert (a * b).exact_div(b) == a
    f = field(1)
    with pytest.raises(ValueError):
        f.quad(1).exact_div(f.quad(2))


def test_unit_groups():
    expected_order = {1: 4, 2: 2, 3: 6, 7: 2, 11: 2}
    for d in EUCLIDEAN_DS:
        f = field(d)
        units = f.units()
        assert len(units) == expected_order[d]
        assert len(set(units)) == len(units)
        assert all(u.norm() == 1 for u in units)
        # closed under multiplication, and powers of units[1] give the lot
        uset = set(units)
        for u in units:
            for v in units:
                assert u * v in uset
        gen = units[1 % len(units)]
        assert {gen**k for k in range(len(units))} == uset
        # units are exactly the norm-one elements of the ring
        norm_one = [w for w in lattice_points_with_norm_below(f, 2) if w.norm() == 1]
        assert set(norm_one) == uset


def test_rings_compare_by_identity():
    """A ring is equal only to itself, so a copy is another ring, and every
    cache keyed on a ring returns the same object for the same ring."""
    for d in EUCLIDEAN_DS:
        f = field(d)
        assert copy.copy(f) != f == field(d) and hash(f) == hash(field(d))
        for cached in (polyspace.kernel_words, polyspace.distinct_elements):
            assert cached(f) is cached(field(d)), (d, cached)
        p = linalg.split_primes(f, 1)[0]
        assert linalg.omega_roots(f, p) is linalg.omega_roots(field(d), p)


# ------------------------------------------------------------- field element

def test_quadelem_field_axioms_randomized():
    for d in EUCLIDEAN_DS:
        f = field(d)
        rng = seeded(f"field-axioms-{d}")
        for _ in range(40):
            a = rand_elem(rng, f)
            b = rand_nonzero_elem(rng, f)
            c = rand_elem(rng, f)
            assert (a + b) * c == a * c + b * c
            assert (a / b) * b == a
            assert b * b.inverse() == QuadElem.from_quadint(f.one)
            assert (a * b).norm() == a.norm() * b.norm()
            assert a.conj().conj() == a
            assert (a / b).conj() == a.conj() / b.conj()


# property tests: three elements of one ring, coordinates up to 2^64 so that
# products leave machine integers
COORD = st.one_of(st.integers(-50, 50), st.integers(-(2**64), 2**64))
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def quadints(f):
    return st.builds(f.quad, COORD, COORD)


def quadelems(f):
    dens = st.integers(1, 10**6)
    return st.builds(lambda x, y, den: QuadElem.make(f, x, y, den), COORD, COORD, dens)


def triples(elements):
    return st.sampled_from(EUCLIDEAN_DS).map(field).flatmap(
        lambda f: st.tuples(st.just(f), elements(f), elements(f), elements(f))
    )


@PROPERTY
@given(triples(quadints))
def test_quadint_ring_axioms_property(fabc):
    f, a, b, c = fabc
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a and a + b == b + a
    assert a * f.one == a and a + f.zero == a and a - a == f.zero
    # conjugation is an involutive ring automorphism fixing Z
    assert (a + b).conj() == a.conj() + b.conj()
    assert (a * b).conj() == a.conj() * b.conj()
    assert a.conj().conj() == a and f.quad(a.x).conj() == f.quad(a.x)
    assert (a * b).norm() == a.norm() * b.norm()
    assert a.norm() >= 0 and (a.norm() == 0) == a.is_zero()
    if not b.is_zero():
        assert (a * b).exact_div(b) == a


@PROPERTY
@given(triples(quadelems))
def test_quadelem_field_axioms_property(fabc):
    f, a, b, c = fabc
    one = QuadElem.from_quadint(f.one)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a and a + b == b + a
    assert (a + b).conj() == a.conj() + b.conj()
    assert (a * b).conj() == a.conj() * b.conj()
    assert a.conj().conj() == a
    assert (a * b).norm() == a.norm() * b.norm()
    for x in (a, b, c):
        if not x.is_zero():
            assert x * x.inverse() == one
            assert x.inverse().inverse() == x
            assert (a / x) * x == a
            assert x.conj().inverse() == x.inverse().conj()


def test_quadelem_reduction_invariant():
    f = field(7)
    z = QuadElem.make(f, 6, 4, 10)
    assert (z.num.x, z.num.y, z.den) == (3, 2, 5)
    z = QuadElem.make(f, -4, 2, -6)
    assert z.den == 3 and (z.num.x, z.num.y) == (2, -1)


def test_display_coordinates_roundtrip():
    for d in EUCLIDEAN_DS:
        f = field(d)
        rng = seeded(f"display-{d}")
        for _ in range(30):
            u = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
            v = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
            z = QuadElem.from_display(f, u, v)
            assert z.display_coords() == (u, v)
            # embedding agrees: u + v*theta
            want = u + v * complex(f.theta)
            assert abs(complex(z) - want) < 1e-9


def test_real_and_omega_coordinates():
    for d in EUCLIDEAN_DS:
        f = field(d)
        rng = seeded(f"coords-{d}")
        for _ in range(20):
            z = rand_elem(rng, f)
            zc = complex(z)
            assert abs(float(z.re()) - zc.real) < 1e-9
            assert abs(float(z.omega_coord()) * f.sqrt_abs_disc / 2 - zc.imag) < 1e-9


# ----------------------------------------------------------------- rounding

def _brute_nearest_keys(f, z: QuadElem):
    """Exact (distance, re, im) keys of every candidate nearest point.

    Complete by construction: take any reference lattice point w0 and its
    squared distance D; every minimizer w satisfies N(z - w) <= D, i.e.
    den*(z - w) is a lattice point of norm <= D*den^2 congruent to den*z
    mod den, and those are enumerated exhaustively.
    """
    zx, zy, den = z.num.x, z.num.y, z.den
    d0 = f.norm_int(zx - (zx // den) * den, zy - (zy // den) * den)
    keys = []
    for w in lattice_points_with_norm_below(f, d0 + 1):
        if (zx - w.x) % den == 0 and (zy - w.y) % den == 0:
            x, y = (zx - w.x) // den, (zy - w.y) // den
            dist = f.norm_int(zx - x * den, zy - y * den)
            keys.append(((dist, 2 * x + f.disc * y, y), (x, y)))
    return keys


def test_nearest_int_against_brute_force():
    for d in EUCLIDEAN_DS:
        f = field(d)
        rng = seeded(f"nearest-{d}")
        for _ in range(200):
            z = rand_elem(rng, f, span=60, max_den=20)
            got = nearest_int(f, z)
            keys = _brute_nearest_keys(f, z)
            best = min(keys)[0]
            assert (
                f.norm_int(z.num.x - got.x * z.den, z.num.y - got.y * z.den),
                got.trace(),
                got.y,
            ) == best, (d, z)


def _nearest_of_sixteen(f, zx: int, zy: int, den: int) -> tuple[int, int]:
    """The least (distance, re, im) key over the 4 x 4 candidates around
    the floors of the omega coordinate and, row by row, of the real part."""
    t = f.disc
    best = None
    for y in range(zy // den - 1, zy // den + 3):
        x0 = (2 * zx + t * zy - t * y * den) // (2 * den)
        for x in range(x0 - 1, x0 + 3):
            key = (f.norm_int(zx - x * den, zy - y * den), 2 * x + t * y, y)
            if best is None or key < best:
                best, best_pt = key, (x, y)
    return best_pt


def test_nearest_pair_is_the_best_of_sixteen_candidates():
    """`nearest_pair` keeps one candidate per row in two rows; it picks what
    the least key over 16 candidates picks, on fractions not in lowest
    terms, on points of up to 200 bits and on the ties of every ring: the
    midpoints and Voronoi vertices between lattice points.  On the float
    value of each point, where a tie may round either way, `nearest_int`
    picks a point at the least exact distance."""
    for d in EUCLIDEAN_DS:
        f = field(d)
        rng = seeded(f"nearest-pair-{d}")
        zs = [rand_elem(rng, f, span=60, max_den=20) for _ in range(300)]
        for bits in (64, 200):
            den = rng.randint(2 ** (bits - 1), 2**bits)
            zs += [QuadElem.make(f, rng.randint(-5 * den, 5 * den), rng.randint(-5 * den, 5 * den), den)
                   for _ in range(50)]
        # every point of the grids (1/6) O_d and (1/2m) O_d in one cell and on
        # its edges: the midpoints between lattice points (halves) and the
        # Voronoi vertices (thirds for m = 3, otherwise a denominator of 2m)
        for den in (6, 2 * f.abs_disc):
            zs += [QuadElem.make(f, x, y, den) for x in range(den + 1) for y in range(den + 1)]
        for z in zs:
            g = rng.choice([1, 2, 3, 7, 2**70 + 1])
            want = _nearest_of_sixteen(f, z.num.x, z.num.y, z.den)
            assert nearest_pair(f, g * z.num.x, g * z.num.y, g * z.den) == want, (d, str(z), g)
            assert (nearest_int(f, z).x, nearest_int(f, z).y) == want
            x, y = want
            least = f.norm_int(z.num.x - x * z.den, z.num.y - y * z.den)
            w = nearest_int(f, complex(z))
            assert f.norm_int(z.num.x - w.x * z.den, z.num.y - w.y * z.den) == least, (d, str(z))


def test_nearest_int_tie_breaks():
    f1 = field(1)
    half = QuadElem.make(f1, 1, 0, 2)
    assert nearest_int(f1, half) == f1.zero
    # center of the unit square: four-way tie, resolved to 0
    center = QuadElem.from_display(f1, Fraction(1, 2), Fraction(1, 2))
    assert nearest_int(f1, center) == f1.zero
    f3 = field(3)
    # Voronoi vertex equidistant from 0 and 1; smaller real part wins
    vert = QuadElem.make(f3, 3, 1, 3)
    assert (vert - QuadElem.from_quadint(f3.zero)).norm() == (
        vert - QuadElem.from_quadint(f3.one)
    ).norm()
    assert nearest_int(f3, vert) == f3.zero


def test_nearest_int_within_covering_radius():
    for d in EUCLIDEAN_DS:
        f = field(d)
        rng = seeded(f"covering-{d}")
        for _ in range(150):
            z = rand_elem(rng, f, span=50, max_den=17)
            w = nearest_int(f, z)
            assert (z - w).norm() <= f.covering_radius_sq


def test_covering_radius_is_attained():
    # Deep holes of each lattice, written exactly; distance^2 equals rho^2.
    witnesses = {
        1: (Fraction(1, 2), Fraction(1, 2)),
        2: (Fraction(1, 2), Fraction(1, 2)),
        3: (Fraction(1, 2), Fraction(1, 3) / 1),  # placeholder, fixed below
        7: (Fraction(2, 7), Fraction(3, 7)),
        11: (Fraction(3, 11), Fraction(5, 11)),
    }
    witnesses[3] = (Fraction(2, 3), Fraction(1, 3))  # circumcenter of 0, 1, 1+omega
    for d, (u, v) in witnesses.items():
        f = field(d)
        z = QuadElem.from_display(f, u, v)
        w = nearest_int(f, z)
        assert (z - w).norm() == f.covering_radius_sq, d


def test_nearest_int_float_path_agrees_with_exact():
    for d in EUCLIDEAN_DS:
        f = field(d)
        rng = seeded(f"nearest-float-{d}")
        for _ in range(120):
            z = rand_elem(rng, f, span=25, max_den=11)
            exact_pick = nearest_int(f, z)
            float_pick = nearest_int(f, complex(z))
            # both must be true minimizers (they may differ only on exact ties)
            d_exact = (z - exact_pick).norm()
            d_float = (z - float_pick).norm()
            assert d_float == d_exact, (d, z)


# ------------------------------------------------------------- norm geometry

def _brute_disk(f, bound):
    pts = set()
    box = bound + 2
    for x in range(-2 * box, 2 * box + 1):
        for y in range(-box, box + 1):
            if f.norm_int(x, y) < bound:
                pts.add((x, y))
    return pts


def test_lattice_points_with_norm_below_matches_brute_force():
    for d in EUCLIDEAN_DS:
        f = field(d)
        for bound in (1, 2, 3, 7, 12, 25):
            got = [(w.x, w.y) for w in lattice_points_with_norm_below(f, bound)]
            assert len(got) == len(set(got))
            assert set(got) == _brute_disk(f, bound), (d, bound)
    assert list(lattice_points_with_norm_below(field(1), 0)) == []


def test_is_norm_matches_achieved_norms():
    for d in EUCLIDEAN_DS:
        f = field(d)
        achieved = {w.norm() for w in lattice_points_with_norm_below(f, 61)}
        for v in range(61):
            assert is_norm(f, v) == (v in achieved), (d, v)
        assert not is_norm(f, -3)


def test_smallest_nonnorm_values():
    assert {d: smallest_nonnorm(d) for d in EUCLIDEAN_DS} == {
        1: 3,
        2: 5,
        3: 2,
        7: 3,
        11: 2,
    }


def test_three_smallest_nonnorms():
    expected = {
        1: [3, 6, 7],
        2: [5, 7, 10],
        3: [2, 5, 6],
        7: [3, 5, 6],
        11: [2, 6, 7],
    }
    for d in EUCLIDEAN_DS:
        assert nonnorm_deltas(field(d), 3) == expected[d]


def test_field_rejects_non_euclidean_d():
    for bad in (0, 4, 5, 6, 19, -1):
        with pytest.raises(ValueError):
            field(bad)
