"""Nearest-integer continued fractions over the five rings: termination
on field elements, the convergent/determinant/contraction identities, and
float-path convergence with the exact path as oracle."""

from __future__ import annotations

import math
from fractions import Fraction

from hermitia.cfrac import hurwitz_cf, phi
from hermitia.field import EUCLIDEAN_DS, QuadElem, field, nearest_int
from hermitia.forms import HermitianForm, act

from conftest import points_of_bits, rand_elem, rand_quadint, seeded
from oracles import hurwitz_cf_elems


def disp(f, u, v) -> QuadElem:
    return QuadElem.from_display(f, Fraction(u), Fraction(v))


def test_half_expands_as_zero_two():
    f = field(1)
    exp = hurwitz_cf(f, disp(f, Fraction(1, 2), 0))
    assert [a.display_coords() for a in exp.alphas] == [(0, 0), (2, 0)]
    assert exp.terminated


def test_generator_expands_in_one_step():
    for d in EUCLIDEAN_DS:
        f = field(d)
        exp = hurwitz_cf(f, disp(f, 0, 1))
        assert exp.terminated
        assert len(exp.alphas) == 1
        assert exp.alphas[0] == f.theta


def test_exact_expansion_terminates_and_reproduces_z():
    rng = seeded("cf-exact")
    for d in EUCLIDEAN_DS:
        f = field(d)
        for _ in range(25):
            z = rand_elem(rng, f, 9, 9)
            exp = hurwitz_cf(f, z, max_steps=64)
            assert exp.terminated
            assert exp.convergent(len(exp.alphas) - 1) == z


def test_exact_expansion_matches_the_quadelem_path():
    """The expansion on integer remainders equals the one on `QuadElem`s
    (`oracles.hurwitz_cf_elems`) field by field, whole and truncated, at
    points of 1 to 300 bits, lattice points included."""
    rng = seeded("cf-vs-elems")
    lists = ("alphas", "p", "q", "zs", "norms")
    for d in EUCLIDEAN_DS:
        f = field(d)
        zs = [disp(f, 0, 0), disp(f, 2, -1), disp(f, Fraction(1, 2), Fraction(1, 2))]
        for z in zs + points_of_bits(rng, f, [1, 2, 4, 8, 16, 32, 64, 300]):
            want = hurwitz_cf_elems(f, z)
            got = hurwitz_cf(f, z, max_steps=math.inf)
            assert [getattr(got, a) for a in lists] == [getattr(want, a) for a in lists], (d, str(z))
            assert got.terminated and want.terminated
            cut = len(want.alphas) // 2
            short = hurwitz_cf(f, z, max_steps=cut)
            assert [getattr(short, a) for a in lists] == [getattr(want, a)[:cut] for a in lists]
            assert not short.terminated


def test_partial_quotients_are_nearest_integers():
    rng = seeded("cf-nearest")
    for d in EUCLIDEAN_DS:
        f = field(d)
        for _ in range(10):
            z = rand_elem(rng, f, 7, 8)
            exp = hurwitz_cf(f, z)
            for zn, an in zip(exp.zs, exp.alphas):
                assert nearest_int(f, zn) == an


def test_delta_recursion_contraction_and_determinant():
    rng = seeded("cf-identities")
    for d in EUCLIDEAN_DS:
        f = field(d)
        rho_sq = f.covering_radius_sq
        for _ in range(12):
            z = rand_elem(rng, f, 7, 8)
            exp = hurwitz_cf(f, z)
            ds = exp.deltas()
            # contraction: N(delta_{n+1}) <= rho^2 N(delta_n)
            for i in range(1, len(ds) - 1):
                assert ds[i + 1].norm() <= rho_sq * ds[i].norm()
            # delta_n = (-1)^(n-1) (q_{n-1} z - p_{n-1})
            for n in range(1, len(exp.p) + 1):
                q_prev = QuadElem.from_quadint(exp.q[n - 1])
                p_prev = QuadElem.from_quadint(exp.p[n - 1])
                expect = q_prev * z - p_prev
                if (n - 1) % 2 == 1:
                    expect = -expect
                assert ds[n + 1] == expect
            # determinant: p_{n+1} q_n - p_n q_{n+1} = +-1
            for n in range(len(exp.p) - 1):
                det = exp.p[n + 1] * exp.q[n] - exp.p[n] * exp.q[n + 1]
                assert det.is_unit()


def test_group_elements_move_z_along_the_orbit():
    rng = seeded("cf-group")
    for d in EUCLIDEAN_DS:
        f = field(d)
        for _ in range(8):
            z = rand_elem(rng, f, 6, 7)
            exp = hurwitz_cf(f, z)
            gs = exp.group_elements()
            for n, g in enumerate(gs[: len(exp.zs)]):
                assert g.det().is_unit()
                assert g.apply(z) == exp.zs[n]


def test_float_path_converges_fast():
    rng = seeded("cf-float")
    for d in EUCLIDEAN_DS:
        f = field(d)
        worst = 0.0
        for _ in range(40):
            z = complex(rng.uniform(-1, 1), rng.uniform(0.05, 1.2))
            exp = hurwitz_cf(f, z, max_steps=30)
            n = len(exp.alphas) - 1
            if n >= 0:
                worst = max(worst, exp.error(n))
        assert worst < 1e-8


def test_float_path_agrees_with_exact_path():
    """Run the float path on exactly known inputs.  At Voronoi tie points
    the two paths may legally pick different quotients, so the oracle
    property is convergence to the input, not digit-for-digit equality."""
    rng = seeded("cf-float-oracle")
    for d in EUCLIDEAN_DS:
        f = field(d)
        for _ in range(10):
            z = rand_elem(rng, f, 5, 7)
            approx = hurwitz_cf(f, complex(z), max_steps=30)
            best = min(approx.error(n) for n in range(len(approx.alphas)))
            assert best < 1e-8


def test_pullback_composes():
    rng = seeded("phi-compose")
    for d in EUCLIDEAN_DS:
        f = field(d)
        from hermitia.forms import gen_S, gen_T, gen_T_omega

        for _ in range(10):
            h = HermitianForm(rng.randint(-4, -1), rand_quadint(rng, f, 3),
                              rng.randint(1, 4))
            g1 = gen_T(f) @ gen_S(f)
            g2 = gen_T_omega(f)
            a = phi(phi(h, g1), g2)
            b = phi(h, g1 @ g2)
            assert (a.a, a.b, a.c) == (b.a, b.b, b.c)


def test_pullback_is_conjugate_action():
    f = field(2)
    from hermitia.forms import gen_S

    h = HermitianForm(-1, f.quad(1, 0), 5)
    g = gen_S(f)
    want = act(g.conj(), h)
    got = phi(h, g)
    assert (got.a, got.b, got.c) == (want.a, want.b, want.c)


def test_error_of_exact_points_beyond_the_float_range():
    """`error` on exact points whose integers overflow a float: about 711
    in O_3 as 3^700 / 2^1100, and 10^309 + i in O_1, whose value does not
    fit a float either.  Each error is |z - p_i/q_i| from exact rationals,
    and so it is on a point whose integers fit, where a float difference
    would be rounding noise at its last steps."""
    f = field(3)
    z = disp(f, Fraction(3**700, 2**1100), 0)
    exp = hurwitz_cf(f, z, max_steps=12)
    for i in range(len(exp.alphas)):
        want = abs(z.as_fraction() - exp.convergent(i).as_fraction())
        assert math.isclose(exp.error(i), float(want), rel_tol=1e-12), i
    f = field(1)
    exp = hurwitz_cf(f, disp(f, 10**309, 1))
    assert exp.terminated and len(exp.alphas) == 1 and exp.error(0) == 0.0
    z = disp(f, Fraction(7, 10), Fraction(1, 3))
    exp = hurwitz_cf(f, z)
    for i in range(len(exp.alphas)):
        want = math.sqrt((z - exp.convergent(i)).norm())
        assert math.isclose(exp.error(i), want, rel_tol=1e-15), i


def test_error_of_exact_points_is_the_exact_distance():
    """On exact points in every ring, `error(i)` is |z - p_i/q_i| computed
    exactly (the square root of the norm of the difference, as a
    fraction) to a relative 1e-15, and 0.0 on the terminating step; far
    below the double's resolution of z it still reads the distance, not
    the rounding of two floats near z."""
    rng = seeded("cf-error-exact")
    for d in EUCLIDEAN_DS:
        f = field(d)
        for z in [rand_elem(rng, f, 40, 40) for _ in range(10)] + points_of_bits(rng, f, [8, 64, 200]):
            exp = hurwitz_cf(f, z, max_steps=math.inf)
            assert exp.terminated and exp.error(len(exp.alphas) - 1) == 0.0, (d, str(z))
            for i in range(len(exp.alphas) - 1):
                want = math.sqrt((z - exp.convergent(i)).norm())
                assert want > 0 and math.isclose(exp.error(i), want, rel_tol=1e-15), (d, str(z), i)
    f = field(3)
    exp = hurwitz_cf(f, disp(f, Fraction(3**30, 2**47), Fraction(1, 7**15)))
    assert f"{exp.error(39):.3e}" == "7.122e-43"
