"""The sums of k-th powers of Hermitian forms: exact evaluation,
constancy where it holds*, the frozen witnesses where it fails, the
reduction identity, truncation honesty, and the cell average.

*constant means: the same exact rational at every point of K.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermitia import cfrac, cli, forms, hsum
from hermitia.field import EUCLIDEAN_DS, CertificateError, QuadElem, field, nonnorm_deltas, smallest_nonnorm
from hermitia.forms import expand_P, window_scan
from hermitia.hsum import (
    average_quadrature,
    eval_exact,
    eval_truncated,
    formula_average,
    reduction_identity_check,
    tail_bound,
)

from conftest import points_of_bits, rand_elem, seeded
from oracles import eval_points_fractions


def disp(f, u, v) -> QuadElem:
    return QuadElem.from_display(f, Fraction(u), Fraction(v))


def scan_values(f, delta, z, ks=(1, 3, 5)) -> dict[int, Fraction]:
    """H_{k,Delta}(z) for each k in ks from the definition: the sum of
    h^k / den^(2k) over `forms.window_scan`, which yields h(z,1)*den^2."""
    hs = [h for _, _, _, h in window_scan(f, delta, z)]
    return {k: Fraction(sum(h**k for h in hs), z.den ** (2 * k)) for k in ks}


# ------------------------------------------------------------- exact values


def test_value_at_zero_is_alpha():
    from hermitia.forms import alpha

    for d in EUCLIDEAN_DS:
        f = field(d)
        delta = smallest_nonnorm(d)
        for k in (1, 3):
            assert eval_exact(f, k, delta, disp(f, 0, 0)) == alpha(f, k, delta)


def test_constancy_smoke_in_scope():
    rng = seeded("constancy-smoke")
    scope = [(d, 1) for d in EUCLIDEAN_DS] + [(1, 3), (3, 3), (7, 3), (3, 5)]
    for d, k in scope:
        f = field(d)
        delta = smallest_nonnorm(d)
        base = eval_exact(f, k, delta, disp(f, 0, 0))
        for _ in range(8):
            z = rand_elem(rng, f, 3, 6)
            assert eval_exact(f, k, delta, z) == base, (d, k, str(z))


FROZEN_D2 = [
    ((0, 0), Fraction(366)),
    ((Fraction(1, 3), 0), Fraction(366)),
    ((Fraction(1, 2), 0), Fraction(366)),
    ((Fraction(1, 5), 0), Fraction(366)),
    ((0, Fraction(1, 3)), Fraction(30670, 81)),
    ((Fraction(1, 4), Fraction(1, 4)), Fraction(47793, 128)),
    ((Fraction(2, 7), Fraction(1, 7)), Fraction(43363662, 117649)),
]


@pytest.mark.parametrize("coords,value", FROZEN_D2)
def test_frozen_values_d2_k3(coords, value):
    f = field(2)
    assert eval_exact(f, 3, 5, disp(f, *coords)) == value


def test_d2_k3_constant_on_rationals_but_not_off_axis():
    """The suggested comparison pair (0 vs 1/3) does NOT distinguish:
    the restriction to rational points is constant.  Going off the real
    axis does."""
    f = field(2)
    assert eval_exact(f, 3, 5, disp(f, 0, 0)) == eval_exact(
        f, 3, 5, disp(f, Fraction(1, 3), 0)
    )
    assert eval_exact(f, 3, 5, disp(f, 0, Fraction(1, 3))) != Fraction(366)


def test_frozen_values_d11_and_d1():
    f11 = field(11)
    assert eval_exact(f11, 3, 2, disp(f11, 0, 0)) == 11
    assert eval_exact(f11, 3, 2, disp(f11, Fraction(1, 2), 0)) == 11
    assert eval_exact(f11, 3, 2, disp(f11, 0, Fraction(1, 3))) == Fraction(55, 9)
    f1 = field(1)
    assert eval_exact(f1, 5, 3, disp(f1, 0, 0)) == 380
    assert eval_exact(f1, 5, 3, disp(f1, 0, Fraction(1, 3))) == Fraction(
        2534140, 6561
    )


# ------------------------------------------ the walk against the window scan


def test_walk_matches_the_scan_on_seeded_points():
    rng = seeded("walk-vs-scan")
    cases = [(2, 5, disp(field(2), Fraction(1, 3), Fraction(1, 2))),
             (11, 2, disp(field(11), 0, Fraction(1, 3)))]
    for d in EUCLIDEAN_DS:
        f = field(d)
        for delta in nonnorm_deltas(f, 2):
            for max_den in (6, 15, 40):
                den = rng.randint(max_den // 2, max_den)
                u = Fraction(rng.randint(-2 * den, 2 * den), den)
                v = Fraction(rng.randint(-2 * den, 2 * den), den)
                cases.append((d, delta, disp(f, u, v)))
    assert max(z.den for _, _, z in cases) > 30
    for d, delta, z in cases:
        f = field(d)
        for k, want in scan_values(f, delta, z).items():
            assert eval_exact(f, k, delta, z) == want, (d, k, delta, str(z))


# u, v in [-2, 2] with common denominator den <= 12
POINTS = st.integers(1, 12).flatmap(
    lambda den: st.tuples(st.integers(-2 * den, 2 * den), st.integers(-2 * den, 2 * den)).map(
        lambda uv: (Fraction(uv[0], den), Fraction(uv[1], den))
    )
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    d=st.sampled_from(EUCLIDEAN_DS),
    k=st.sampled_from((1, 3, 5)),
    which_delta=st.integers(0, 1),
    point=POINTS,
)
def test_walk_equals_scan_property(d, k, which_delta, point):
    f = field(d)
    delta = nonnorm_deltas(f, 2)[which_delta]
    z = disp(f, *point)
    assert eval_exact(f, k, delta, z) == scan_values(f, delta, z, (k,))[k]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    d=st.sampled_from(EUCLIDEAN_DS),
    k=st.sampled_from((1, 3, 5)),
    which_delta=st.integers(0, 1),
    points=st.lists(st.one_of(POINTS, st.tuples(st.integers(-2, 2), st.integers(-2, 2))), max_size=6),
    repeat=st.booleans(),
)
def test_eval_points_equals_eval_exact_at_each_point(d, k, which_delta, points, repeat):
    """One enumeration of the forms serves every point: `eval_points` equals
    `eval_exact` point by point, and the window scan, on lists with z = 0,
    lattice points and repeated points."""
    f = field(d)
    delta = nonnorm_deltas(f, 2)[which_delta]
    zs = [disp(f, 0, 0)] + [disp(f, *p) for p in points]
    if repeat:
        zs += zs[-2:]
    values = hsum.eval_points(f, k, delta, zs)
    assert values == [eval_exact(f, k, delta, z) for z in zs]
    assert values == [scan_values(f, delta, z, (k,))[k] for z in zs]


def test_eval_points_enumerates_the_forms_once(monkeypatch):
    calls = []
    enumerate_forms = hsum.form_ints

    def counted(*args):
        calls.append(args)
        return enumerate_forms(*args)

    monkeypatch.setattr(hsum, "form_ints", counted)
    f = field(2)
    zs = [disp(f, Fraction(i, 7), Fraction(1, 3)) for i in range(5)]
    values = hsum.eval_points(f, 3, 5, zs)
    assert len(calls) == 1
    assert values == [eval_exact(f, 3, 5, z) for z in zs]
    assert hsum.eval_points(f, 3, 5, []) == []
    with pytest.raises(TypeError):
        hsum.eval_points(f, 3, 5, [zs[0], 0.25 + 0.5j])


# --------------------------------- the integer walk against the Fraction walk


def test_eval_points_equals_the_fraction_walk():
    """The walk on integer remainders against the walk on reduced
    `Fraction`s of `oracles.eval_points_fractions`, in every ring at three
    Delta and k in {1, 3, 5, 9}, at points of 1 to 64 bits, and at the
    smallest Delta also at one point of about 300 bits."""
    rng = seeded("walk-vs-fractions")
    for d in EUCLIDEAN_DS:
        f = field(d)
        for i, delta in enumerate(nonnorm_deltas(f, 3)):
            zs = points_of_bits(rng, f, [1, 2, 3, 5, 8, 13, 21, 34, 48, 64] + [300] * (i == 0))
            assert i or zs[-1].den.bit_length() > 290
            for k in (1, 3, 5, 9):
                got = hsum.eval_points(f, k, delta, zs)
                assert got == eval_points_fractions(f, k, delta, zs), (d, delta, k)


def test_walk_runs_on_integers(monkeypatch):
    """`eval_points` calls no `hurwitz_cf` and does no `QuadElem` or
    `Fraction` arithmetic: its one `Fraction` per point is built from two
    integers."""
    f = field(2)
    zs = points_of_bits(seeded("walk-on-integers"), f, [3, 20, 64]) + [disp(f, 0, 0), disp(f, 1, -1)]
    want = eval_points_fractions(f, 3, 5, zs)

    def refuse(*args):
        raise AssertionError("the walk left the integers")

    monkeypatch.setattr(cfrac, "hurwitz_cf", refuse)
    monkeypatch.setattr(hsum, "hurwitz_cf", refuse, raising=False)
    for name in ("__add__", "__sub__", "__mul__", "__truediv__", "inverse", "norm"):
        monkeypatch.setattr(QuadElem, name, refuse)
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__pow__"):
        monkeypatch.setattr(Fraction, name, refuse)
    got = hsum.eval_points(f, 3, 5, zs)
    monkeypatch.undo()
    assert got == want


def test_a_remainder_that_does_not_shrink_is_a_certificate_error(monkeypatch, capsys):
    """Every step must lower N(Delta_n); a wrong partial quotient is caught
    there, and `hconst` exits 3."""
    monkeypatch.setattr(cfrac, "nearest_pair", lambda f, x, y, den: (0, 0))
    f = field(1)
    with pytest.raises(CertificateError, match="did not shrink"):
        hsum.eval_points(f, 1, 3, [disp(f, Fraction(3, 2), 0)])
    code = cli.main(["hconst", "-d", "1", "-k", "1", "--delta", "3", "-z", "3/2"])
    assert code == cli.EXIT_ORACLE
    assert "did not shrink" in capsys.readouterr().err


def test_scan_alone_satisfies_the_reduction_identity():
    # the identity the walk relies on, checked without the walk
    for d, k, u, v in [(1, 3, Fraction(1, 3), Fraction(1, 2)), (2, 3, Fraction(1, 3), 0),
                       (3, 5, Fraction(-1, 2), Fraction(1, 4)), (7, 1, Fraction(2, 5), Fraction(1, 3)),
                       (11, 3, 0, Fraction(1, 3))]:
        f = field(d)
        delta = smallest_nonnorm(d)
        z = disp(f, u, v)
        lhs = z.norm() ** k * scan_values(f, delta, -z.inverse(), (k,))[k] - scan_values(
            f, delta, z, (k,)
        )[k]
        assert lhs == expand_P(f, k, delta).eval_exact(z).as_fraction(), (d, k, str(z))


def test_walk_does_not_scan(monkeypatch):
    def refuse(*args):
        raise AssertionError("eval_exact reached the window scan")

    monkeypatch.setattr(forms, "window_scan", refuse)
    monkeypatch.setattr(hsum, "window_scan", refuse)
    f = field(3)
    z = disp(f, Fraction(1, 10**40), Fraction(-3, 7))
    assert eval_exact(f, 3, 2, z) == forms.alpha(f, 3, 2)


def test_walk_takes_alpha_from_its_own_forms(monkeypatch, capsys):
    """H(0) = alpha is the sum of (-c)^k over the forms the walk already
    holds: neither `eval_exact` nor `hconst` calls `alpha_direct`."""

    def refuse(*args):
        raise AssertionError("the walk called alpha_direct")

    monkeypatch.setattr(forms, "alpha_direct", refuse)
    monkeypatch.setattr(hsum, "alpha_direct", refuse, raising=False)
    for d in EUCLIDEAN_DS:
        f = field(d)
        delta = smallest_nonnorm(d)
        for k in (1, 3, 5):
            want = forms.alpha(f, k, delta)
            # at lattice points the first remainder is 0
            for z in (disp(f, 0, 0), disp(f, 1, 0), disp(f, -1, 1)):
                assert eval_exact(f, k, delta, z) == want, (d, k, str(z))
        # k = 1 is constant on all of K in every ring
        z = disp(f, Fraction(1, 3), Fraction(-2, 5))
        assert eval_exact(f, 1, delta, z) == forms.alpha(f, 1, delta)
    code = cli.main(["hconst", "-d", "1", "-k", "1", "--delta", "3", "-z", "0", "-z", "1/3,1/5",
                     "--format", "json"])
    rows = json.loads(capsys.readouterr().out)
    assert code == cli.EXIT_OK
    assert [row["value"] for row in rows[:-1]] == ["20", "20"]


def test_eval_exact_preconditions():
    f = field(1)
    with pytest.raises(TypeError):
        eval_exact(f, 1, 3, 0.25 + 0.5j)
    with pytest.raises(ValueError):
        eval_exact(f, 2, 3, disp(f, 0, 0))  # H_{k,Delta} needs odd k
    with pytest.raises(ValueError):
        eval_exact(f, 0, 3, disp(f, 0, 0))
    with pytest.raises(ValueError):
        eval_exact(f, 1, 2, disp(f, 0, 0))  # 2 = N(1 + i) is a norm


# -------------------------------------------------------- reduction identity


def test_reduction_identity_exact():
    rng = seeded("reduction-exact")
    for d in EUCLIDEAN_DS:
        f = field(d)
        delta = smallest_nonnorm(d)
        for k in (1, 3):
            for _ in range(4):
                z = rand_elem(rng, f, 3, 5)
                if z.is_zero():
                    continue
                rep = reduction_identity_check(f, k, delta, z)
                assert rep.exact
                assert rep.residual == 0
                assert rep.holds()


def test_reduction_identity_float_path():
    for d in (1, 2):
        f = field(d)
        delta = smallest_nonnorm(d)
        z = complex(0.3, 0.9)
        rep = reduction_identity_check(f, 3, delta, z, a_max=800)
        assert not rep.exact
        assert rep.holds()


def test_reduction_identity_matches_transfer_polynomial_directly():
    f = field(2)
    delta = 5
    k = 3
    z = disp(f, Fraction(1, 3), Fraction(1, 2))
    P = expand_P(f, k, delta)
    lhs = z.norm() ** k * eval_exact(f, k, delta, -z.inverse()) - eval_exact(
        f, k, delta, z
    )
    assert lhs == P.eval_exact(z).as_fraction()


# ------------------------------------------------------- truncation honesty


def test_truncated_value_within_tail_bound_of_exact():
    for d in EUCLIDEAN_DS:
        f = field(d)
        delta = smallest_nonnorm(d)
        z = disp(f, Fraction(1, 3), Fraction(1, 4))
        exact = float(eval_exact(f, 3, delta, z))
        rep = eval_truncated(f, 3, delta, complex(z), a_max=400)
        assert abs(rep.value - exact) <= rep.tail_bound + 1e-9 * abs(exact)
        assert rep.tail_bound == pytest.approx(tail_bound(f, 3, delta, 400))


def test_tail_bound_decreases_and_truncation_converges():
    f = field(3)
    z = 0.25 + 0.55j
    b1 = tail_bound(f, 3, 2, 200)
    b2 = tail_bound(f, 3, 2, 2000)
    assert b2 < b1
    v1 = eval_truncated(f, 3, 2, z, a_max=200).value
    v2 = eval_truncated(f, 3, 2, z, a_max=2000).value
    assert abs(v1 - v2) <= b1 + 1e-12


def test_truncated_requires_k_at_least_3():
    with pytest.raises(ValueError):
        eval_truncated(field(1), 1, 3, 0.1 + 0.2j)


# -------------------------------------------------------------- cell average


def test_average_engines_agree():
    f = field(2)
    # reference: the mean of the exact values at the same midpoints (points of K)
    grid = 8
    acc = 0.0
    for i in range(grid):
        for j in range(grid):
            acc += float(eval_exact(f, 3, 5, disp(f, Fraction(2 * i + 1, 2 * grid),
                                                 Fraction(2 * j + 1, 2 * grid))))
    b = average_quadrature(f, 3, 5, grid=grid, a_max=60)
    assert acc / (grid * grid) == pytest.approx(b.quadrature, abs=1e-9)


def test_float_walk_lies_in_the_truncation_enclosure():
    # generic complex points, not points of K: H(z) lies in
    # [v, v + tail_bound] for the partial sum v over |a| <= a_max
    rng = seeded("float-walk-enclosure")
    for d in EUCLIDEAN_DS:
        f = field(d)
        for k in (3, 4, 5):
            delta = rng.choice(nonnorm_deltas(f, 2))
            zs = np.array([complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(2)])
            walk = hsum._walk_values(f, k, delta, zs, tail_bound(f, k, delta, 2000))
            for z, w in zip(zs, walk):
                rep = eval_truncated(f, k, delta, z, a_max=2000)
                slack = 1e-9 * rep.value
                assert rep.value - slack <= w <= rep.value + rep.tail_bound + slack, (d, k, z)


def test_float_walk_matches_eval_exact_on_K():
    # for k >= 3 the tail bound is uniform in z, so H is continuous and the
    # float walk through a point of K reaches the exact value
    rng = seeded("float-walk-exact")
    for d in EUCLIDEAN_DS:
        f = field(d)
        delta = smallest_nonnorm(d)
        pts = [rand_elem(rng, f, 12, 9) for _ in range(6)]
        for k in (3, 5):
            walk = hsum._walk_values(f, k, delta, np.array([complex(z) for z in pts]), 0.0)
            for z, w in zip(pts, walk):
                want = float(eval_exact(f, k, delta, z))
                assert w == pytest.approx(want, rel=1e-12), (d, k, str(z))


def test_average_does_not_scale_with_a_max(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the average reached the truncated sweep")

    monkeypatch.setattr(hsum, "eval_truncated", refuse)
    f = field(2)
    low = average_quadrature(f, 3, 5, grid=16, a_max=100)
    high = average_quadrature(f, 3, 5, grid=16, a_max=10**400)
    assert high.quadrature == pytest.approx(low.quadrature, rel=1e-12)
    assert high.rel_error < 1e-6


def test_value_at_zero_is_the_sum_over_the_walks_forms():
    """alpha_{k,Delta} is the sum of (-c)^k over the forms with c < 0 < a,
    odd and even k: the H(0) of the float walk."""
    for d in EUCLIDEAN_DS:
        f = field(d)
        for delta in nonnorm_deltas(f, 3):
            cs = [h.c for h in forms.delta_forms(f, delta)]
            for k in range(3, 9):
                assert sum((-c) ** k for c in cs) == forms.alpha(f, k, delta), (d, delta, k)


def test_average_takes_h0_from_its_own_forms(monkeypatch):
    f = field(3)
    want = [average_quadrature(f, k, 2, grid=4).quadrature for k in (3, 4)]

    def refuse(*args):
        raise AssertionError("the average called forms.alpha")

    monkeypatch.setattr(forms, "alpha", refuse)
    monkeypatch.setattr(hsum, "alpha", refuse, raising=False)
    assert [average_quadrature(f, k, 2, grid=4).quadrature for k in (3, 4)] == want


def test_average_for_even_k():
    # the signed walk holds for even k too
    rep = average_quadrature(field(2), 4, 5, grid=16, a_max=100)
    assert rep.rel_error < 1e-6


def test_average_quadrature_approaches_formula():
    f = field(3)
    rep = average_quadrature(f, 3, 2, grid=32, a_max=200)
    assert rep.rel_error < 5e-3
    assert rep.formula == pytest.approx(formula_average(f, 3, 2))


def test_average_for_constant_sum_is_the_constant():
    # in the constancy range the mean must equal the value at 0
    f = field(3)
    rep = average_quadrature(f, 3, 2, grid=16, a_max=150)
    assert rep.quadrature == pytest.approx(15.0, rel=1e-4)
    assert float(formula_average(f, 3, 2)) == pytest.approx(15.0, rel=1e-9)
