"""Hermitian forms, the group action, the alpha constants, and the
transfer polynomials."""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermitia.field import (
    EUCLIDEAN_DS,
    QuadElem,
    field,
    is_norm,
    lattice_points_with_norm_below,
    nonnorm_deltas,
    smallest_nonnorm,
)
from hermitia.forms import (
    BiPoly,
    GroupElement,
    HermitianForm,
    act,
    alpha,
    alpha_direct,
    delta_forms,
    expand_P,
    expansion_plan,
    form_ints,
    gen_S,
    gen_T,
    gen_T_omega,
    identity,
    transfer_coefficients,
    translation,
)
from hermitia.intarith import divisor_moments, divisor_power_sums, divisors, smallest_prime_factor_sieve

from conftest import rand_elem, rand_quadint, seeded
from oracles import enumerate_window, expand_P_quadint


def rand_group_element(rng, f):
    """A random product of the standard generators (always invertible)."""
    gens = [gen_S(f), gen_T(f), gen_T_omega(f), gen_T(f).inverse(),
            gen_T_omega(f).inverse()]
    g = identity(f)
    for _ in range(rng.randint(1, 6)):
        g = g @ rng.choice(gens)
    return g


# ------------------------------------------------------------- group action


def test_act_is_contravariant_composition():
    rng = seeded("act-composition")
    for d in EUCLIDEAN_DS:
        f = field(d)
        for _ in range(20):
            h = HermitianForm(rng.randint(-5, -1), rand_quadint(rng, f, 4),
                              rng.randint(1, 5))
            g1, g2 = rand_group_element(rng, f), rand_group_element(rng, f)
            lhs = act(g1, act(g2, h))
            rhs = act(g2 @ g1, h)
            assert (lhs.a, lhs.b, lhs.c) == (rhs.a, rhs.b, rhs.c)


def test_act_preserves_delta():
    rng = seeded("act-delta")
    for d in EUCLIDEAN_DS:
        f = field(d)
        for _ in range(20):
            h = HermitianForm(rng.randint(-5, -1), rand_quadint(rng, f, 4),
                              rng.randint(1, 5))
            g = rand_group_element(rng, f)
            assert act(g, h).delta() == h.delta()


def test_inversion_swaps_outer_coefficients():
    for d in EUCLIDEAN_DS:
        f = field(d)
        h = HermitianForm(-2, f.quad(1, 1), 3)
        s = act(gen_S(f), h)
        assert (s.a, s.b, s.c) == (h.c, -h.b.conj(), h.a)


def test_translation_closed_form():
    rng = seeded("translation")
    for d in EUCLIDEAN_DS:
        f = field(d)
        for _ in range(10):
            h = HermitianForm(rng.randint(-5, -1), rand_quadint(rng, f, 4),
                              rng.randint(1, 5))
            q = rand_quadint(rng, f, 3)
            t = act(translation(f, q), h)
            assert t.a == h.a
            assert t.b == h.b + f.quad(h.a) * q
            assert t.c == h.c + (h.b * q.conj()).trace() + h.a * q.norm()


def test_eval_transforms_with_automorphy_factor():
    rng = seeded("eval-transform")
    for d in EUCLIDEAN_DS:
        f = field(d)
        for _ in range(15):
            h = HermitianForm(rng.randint(-5, -1), rand_quadint(rng, f, 4),
                              rng.randint(1, 5))
            g = rand_group_element(rng, f)
            gc = g.conj()
            z = rand_elem(rng, f, 6, 5)
            denom = QuadElem.from_quadint(gc.c) * z + QuadElem.from_quadint(gc.e)
            if denom.is_zero():
                continue
            lhs = act(g, h).eval(z)
            rhs = denom.norm() * h.eval(gc.apply(z))
            assert lhs == rhs


# -------------------------------------------------------------------- alpha


FROZEN_ALPHA = [
    (1, 1, 3, 20),
    (1, 3, 3, 68),
    (1, 1, 7, 120),
    (1, 5, 3, 380),
    (2, 1, 5, 42),
    (3, 1, 2, 9),
    (3, 5, 2, 39),
    (7, 3, 3, 50),
]


@pytest.mark.parametrize("d,k,delta,value", FROZEN_ALPHA)
def test_alpha_frozen_values(d, k, delta, value):
    assert alpha(field(d), k, delta) == value


def test_alpha_two_paths_agree():
    for d in EUCLIDEAN_DS:
        f = field(d)
        for k in (1, 3, 5):
            for delta in nonnorm_deltas(f, 3):
                assert alpha(f, k, delta) == alpha_direct(f, k, delta)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(d=st.sampled_from(EUCLIDEAN_DS), k=st.sampled_from((1, 3, 5, 7)), which=st.integers(0, 29))
def test_alpha_equals_the_form_sum_property(d, k, which):
    f = field(d)
    delta = nonnorm_deltas(f, 30)[which]
    assert alpha(f, k, delta) == alpha_direct(f, k, delta)


def test_divisors_from_the_sieve_equal_a_brute_force_list():
    limit = 5000
    spf = smallest_prime_factor_sieve(limit)
    want: list[list[int]] = [[] for _ in range(limit + 1)]
    for e in range(1, limit + 1):
        for n in range(e, limit + 1, e):
            want[n].append(e)
    for n in range(1, limit + 1):
        assert divisors(n, spf) == want[n], n


def test_divisor_power_sums_equal_the_divisor_sums():
    for k in range(6):
        sig = divisor_power_sums(k, 300)
        assert sig[0] == 0 and len(sig) == 301
        for n in range(1, 301):
            assert sig[n] == sum(e**k for e in range(1, n + 1) if n % e == 0), (k, n)
    assert divisor_power_sums(3, 0) == [0] and divisor_power_sums(3, 1) == [0, 1]


@pytest.mark.parametrize("d", EUCLIDEAN_DS)
def test_alpha_at_k0_counts_the_forms_on_each_side(d):
    """alpha_{0,Delta}, the count that prices `hconst` and `average`, is
    the number of forms `delta_forms` yields, those with c < 0 < a, and so
    of their negatives, those with a < 0 < c; O_3 at Delta = 4879 has
    246,740 of them."""
    f = field(d)
    for delta in nonnorm_deltas(f, 5) + ([4879] if d == 3 else []):
        assert sum(1 for _ in delta_forms(f, delta)) == alpha(f, 0, delta), (d, delta)
    if d == 3:
        assert alpha(f, 0, 4879) == 246740
    with pytest.raises(ValueError):
        alpha(f, -1, nonnorm_deltas(f, 1)[0])


def test_alpha_rejects_norm_discriminant():
    for d, bad in ((1, 4), (2, 2), (3, 3), (7, 2), (11, 3)):
        with pytest.raises(ValueError):
            alpha(field(d), 1, bad)
    with pytest.raises(ValueError):
        alpha(field(1), 1, 0)
    with pytest.raises(ValueError):
        alpha(field(1), 1, -3)


def test_delta_forms_sides_and_finiteness():
    for d in EUCLIDEAN_DS:
        f = field(d)
        delta = smallest_nonnorm(d)
        pos = list(delta_forms(f, delta))
        neg = [HermitianForm(-h.a, h.b, -h.c) for h in pos]
        assert len(pos) > 0
        for h in neg:
            assert h.a < 0 < h.c and h.delta() == delta
        for h in pos:
            assert h.c < 0 < h.a and h.delta() == delta


def test_form_ints_lists_the_forms_point_by_point_in_order():
    """`form_ints`, which finds the divisors once per norm class, yields
    the forms in the order of a per-point construction from the lattice
    points and the divisors of Delta - N(b): the order that the float sums
    of `average` replay.  The divisors are found by trial of every e, since
    `intarith.divisors` is under test here."""
    for d in EUCLIDEAN_DS:
        f = field(d)
        for delta in nonnorm_deltas(f, 4) + [nonnorm_deltas(f, 200)[-1]]:
            want = [(e, b.x, b.y, -((delta - b.norm()) // e))
                    for b in lattice_points_with_norm_below(f, delta)
                    for e in range(1, delta - b.norm() + 1) if (delta - b.norm()) % e == 0]
            assert list(form_ints(f, delta)) == want, (d, delta)
            assert [(h.a, h.b.x, h.b.y, h.c) for h in delta_forms(f, delta)] == want
    with pytest.raises(ValueError):
        list(form_ints(field(1), 4))


# ------------------------------------------------------ window completeness


def _window_oracle(f, delta, z):
    """Definitional enumeration: loop b over a disk big enough to contain
    every candidate, accept (a, b, c) iff the form is literally positive
    at z.  Independent of the production window bound."""
    out = []
    zc = complex(z)
    a_bound = delta * z.den * z.den  # |a| cannot exceed this (h*den^2 >= 1)
    for a in range(-a_bound, 0):
        radius = delta**0.5 + abs(a) * abs(zc) + 2
        for b in lattice_points_with_norm_below(f, int(radius**2) + 1):
            if (b.norm() - delta) % a != 0:
                continue
            c = (b.norm() - delta) // a
            h = HermitianForm(a, b, c)
            if h.eval(z) > 0:
                out.append((h.a, (h.b.x, h.b.y), h.c))
    return sorted(out)


def test_enumerate_window_matches_definitional_oracle():
    rng = seeded("window")
    for d in EUCLIDEAN_DS:
        f = field(d)
        delta = smallest_nonnorm(d)
        pts = [rand_elem(rng, f, 3, 3) for _ in range(3)]
        pts.append(QuadElem.from_display(f, Fraction(0), Fraction(0)))
        for z in pts:
            got = sorted(
                (h.a, (h.b.x, h.b.y), h.c) for h in enumerate_window(f, delta, z)
            )
            assert got == _window_oracle(f, delta, z)


def test_enumerate_window_values_are_positive():
    rng = seeded("window-positive")
    for d in EUCLIDEAN_DS:
        f = field(d)
        for delta in nonnorm_deltas(f, 2):
            z = rand_elem(rng, f, 4, 5)
            for h in enumerate_window(f, delta, z):
                assert h.eval(z) > 0


# ------------------------------------------------------ transfer polynomials


def test_transfer_polynomial_k1_shape():
    for d in EUCLIDEAN_DS:
        f = field(d)
        for delta in nonnorm_deltas(f, 2):
            P = expand_P(f, 1, delta)
            a = alpha(f, 1, delta)
            want = BiPoly.make(
                f, 1, {(1, 1): _c(f, a), (0, 0): _c(f, -a)}
            )
            assert (P - want).is_zero()


def test_transfer_polynomial_k3_k5_shapes():
    for d in (1, 3, 7):
        f = field(d)
        delta = smallest_nonnorm(d)
        P = expand_P(f, 3, delta)
        a3 = alpha(f, 3, delta)
        want = BiPoly.make(f, 3, {(3, 3): _c(f, a3), (0, 0): _c(f, -a3)})
        assert (P - want).is_zero()
    f = field(3)
    P = expand_P(f, 5, 2)
    a5 = alpha(f, 5, 2)
    want = BiPoly.make(f, 5, {(5, 5): _c(f, a5), (0, 0): _c(f, -a5)})
    assert (P - want).is_zero()


def test_transfer_polynomial_is_not_binomial_outside_scope():
    # for d = 2, k = 3 the polynomial has genuinely more monomials
    P = expand_P(field(2), 3, 5)
    assert len(P.coeffs) > 2


def test_bipoly_evaluation_matches_form_sum():
    rng = seeded("bipoly-eval")
    for d in EUCLIDEAN_DS:
        f = field(d)
        delta = smallest_nonnorm(d)
        P = expand_P(f, 3, delta)
        for _ in range(5):
            z = rand_elem(rng, f, 4, 4)
            direct = _c(f, 0)
            for h in delta_forms(f, delta):
                v = _c(f, h.eval(z))
                direct = direct + v * v * v
            assert (P.eval_exact(z) - direct).is_zero()


def test_bipoly_rejects_a_coefficient_of_another_ring():
    f, other = field(1), field(3)
    for coeff in (QuadElem.make(other, 1, 1, 2), other.omega):
        with pytest.raises(ValueError):
            BiPoly.monomial(f, 2, 1, 0, coeff)
        with pytest.raises(ValueError):
            BiPoly.monomial(f, 2, 1, 0).scaled(coeff)


def test_expand_P_matches_the_form_by_form_oracle():
    for d in EUCLIDEAN_DS:
        f = field(d)
        for delta in nonnorm_deltas(f, 3):
            for k in range(1, 8):
                P, want = expand_P(f, k, delta), expand_P_quadint(f, k, delta)
                assert P.coeffs == want.coeffs, (d, k, delta)
                assert str(P) == str(want)


def test_transfer_coefficients_are_expand_P_on_integers():
    """`transfer_coefficients` holds P_{k,Delta}'s nonzero coefficients as
    ints, keyed and ordered as `expand_P` keeps them, and equal at (alpha,
    beta) and (beta, alpha), for odd k <= 11 and the three least
    non-norms of every ring."""
    for d in EUCLIDEAN_DS:
        f = field(d)
        for delta in nonnorm_deltas(f, 3):
            for k in range(1, 12, 2):
                coeffs = transfer_coefficients(f, k, delta)
                assert list(coeffs) == list(expand_P(f, k, delta).coeffs), (d, k, delta)
                assert all(type(v) is int and v for v in coeffs.values())
                assert all(coeffs[b, a] == v for (a, b), v in coeffs.items())
                assert expand_P(f, k, delta).coeffs == {key: _c(f, v) for key, v in coeffs.items()}


def test_expansion_plan_multinomials_equal_the_factorial_formula():
    """Every term of the plan, for k <= 40 and each unit count w, is
    (-1)^r k!/(i! j! l! r!) for the one (i, j, l, r) that its monomial,
    min(i, r) and l name, and the plan lists every such term once."""
    fact = math.factorial
    for w in (2, 4, 6):
        for k in range(1, 41):
            want = []
            for t in range(k // w + 1):
                for be in range(k + 1 - w * t):
                    al = be + w * t
                    terms = []
                    for i in range(max(0, al + be - k), be + 1):
                        j, l, r = al - i, be - i, k - al - be + i
                        terms.append(((-1) ** r * fact(k) // (fact(i) * fact(j) * fact(l) * fact(r)), min(i, r), l))
                    want.append((t, al, be, abs(k - al - be), terms))
            assert expansion_plan(k, w) == want, (w, k)


def test_expand_P_matches_the_oracle_where_a_norm_class_has_three_orbits():
    """At the least non-norm Delta above the least norm n with more than
    2w points (w units), e.g. Delta = 27 in O_1 where N(b) = 25 has 12."""
    for d in EUCLIDEAN_DS:
        f = field(d)
        w = len(f.units())
        counts = Counter(b.norm() for b in lattice_points_with_norm_below(f, 100))
        n = min(n for n, c in counts.items() if c > 2 * w)
        delta = next(x for x in range(n + 1, 200) if not is_norm(f, x))
        for k in range(1, 6):
            P, want = expand_P(f, k, delta), expand_P_quadint(f, k, delta)
            assert P.coeffs == want.coeffs, (d, k, delta)


def test_divisor_sums_of_the_forms_sharing_b_have_a_closed_form():
    """S[i][r] = sum of e^i (-m/e)^r over the divisors e of m is
    (-1)^r m^min(i,r) sigma_|i-r|(m), with the sigmas of `divisor_moments`."""
    spf = smallest_prime_factor_sieve(200)
    for m in range(1, 201):
        divs = [e for e in range(1, m + 1) if m % e == 0]
        sig = divisor_moments(m, 7, spf)
        assert sig == [sum(e**q for e in divs) for q in range(8)], m
        for i in range(8):
            for r in range(8 - i):
                brute = sum(e**i * (-(m // e)) ** r for e in divs)
                assert brute == (-1) ** r * m ** min(i, r) * sig[abs(i - r)], (m, i, r)


# u, v in [-2, 2] with common denominator den <= 12
POINTS = st.integers(1, 12).flatmap(
    lambda den: st.tuples(st.integers(-2 * den, 2 * den), st.integers(-2 * den, 2 * den)).map(
        lambda uv: (Fraction(uv[0], den), Fraction(uv[1], den))
    )
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    d=st.sampled_from(EUCLIDEAN_DS),
    k=st.sampled_from((1, 3, 5, 7)),
    which_delta=st.integers(0, 2),
    point=POINTS,
)
def test_expand_P_evaluates_to_the_form_sum_property(d, k, which_delta, point):
    f = field(d)
    delta = nonnorm_deltas(f, 3)[which_delta]
    z = QuadElem.from_display(f, *point)
    direct = sum(h.eval(z) ** k for h in delta_forms(f, delta))
    assert expand_P(f, k, delta).eval_exact(z).as_fraction() == direct


def _c(f, v) -> QuadElem:
    if isinstance(v, QuadElem):
        return v
    if isinstance(v, Fraction):
        return QuadElem.make(f, v.numerator, 0, v.denominator)
    return QuadElem.make(f, int(v), 0, 1)


def test_group_element_basics():
    for d in EUCLIDEAN_DS:
        f = field(d)
        S, T = gen_S(f), gen_T(f)
        assert (S @ S).is_scalar_unit()
        assert ((S @ T) ** 3).is_scalar_unit()
        g = T @ S @ gen_T_omega(f)
        assert (g @ g.inverse() @ identity(f).inverse()).is_scalar_unit()
        assert g.det().is_unit()
