"""L-function machinery: residue counts, local factors, the Dirichlet
series, Bernoulli evaluations, and the closed-form special values.

The keystone is the local oracle: the power-series coefficients of
R_p(delta; Y)(1 - chi(p)Y)/(1 - pY) must equal the literal residue counts
r(delta, p^j).  Everything downstream (theta, the closed forms) rests on
those polynomials.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import pytest

from hermitia.field import EUCLIDEAN_DS, field, nonnorm_deltas, smallest_nonnorm
from hermitia import intarith, lfun
from hermitia.intarith import FactorizationError, factorize, is_probable_prime
from hermitia.lfun import (
    CONSTANCY_SCOPE,
    bench_negative,
    bernoulli_number,
    bernoulli_poly,
    l_closed_form,
    functional_equation_negative,
    generalized_bernoulli,
    l_negative_exact,
    l_positive_numeric,
    local_count_coeffs,
    local_factor,
    r_count,
    r_count_multiplicative,
    r_count_naive,
    theta,
    zseries_closed_form,
)

from conftest import seeded
from oracles import zseries_partial


# ------------------------------------------------------------ residue counts


def test_fast_count_equals_naive_count():
    rng = seeded("rcount")
    for d in EUCLIDEAN_DS:
        f = field(d)
        for _ in range(12):
            delta = rng.randint(-9, 9) or 1
            n = rng.randint(1, 60)
            assert r_count(f, delta, n) == r_count_naive(f, delta, n)


def test_count_is_multiplicative():
    for d in EUCLIDEAN_DS:
        f = field(d)
        delta = -smallest_nonnorm(d)
        for m, n in ((4, 9), (5, 8), (3, 25), (7, 4)):
            assert r_count(f, delta, m) * r_count(f, delta, n) == r_count(
                f, delta, m * n
            )
            assert r_count_multiplicative(f, delta, m * n) == r_count(
                f, delta, m * n
            )


def test_multiplicative_count_equals_table_count():
    for d in EUCLIDEAN_DS:
        f = field(d)
        for delta in (1, 2, 3, 5, 6, 7, 12):
            for n in range(1, 200):
                assert r_count_multiplicative(f, -delta, n) == r_count(f, -delta, n), (d, delta, n)
    for n in (0, -4):
        with pytest.raises(ValueError):
            r_count_multiplicative(field(1), -3, n)


def test_factorize_past_trial_division():
    # trial division would need about 2^30 divisions to split either product
    p, q = 2**31 - 1, 2**61 - 1
    assert factorize(p * q) == {p: 1, q: 1}
    assert factorize(-12 * p**2 * q) == {2: 2, 3: 1, p: 2, q: 1}
    # a strong pseudoprime to the bases 2, 3, ..., 37
    assert not is_probable_prime(318665857834031151167461)
    assert factorize(318665857834031151167461) == {399165290221: 1, 798330580441: 1}
    rng = seeded("factorize")
    for _ in range(300):
        n = rng.randrange(1, 10 ** rng.randint(1, 20))
        found = factorize(n)
        # below 3.3e24 is_probable_prime is a proof, so this is the factorization
        assert math.prod(r**e for r, e in found.items()) == n
        assert all(is_probable_prime(r) for r in found)
        assert list(found) == sorted(found)


def test_factorize_refuses_what_it_cannot_prove(monkeypatch):
    # 10^30 + 57 passes Miller-Rabin above MILLER_RABIN_PROVEN
    for n in (10**30 + 57, 6 * (10**30 + 57)):
        with pytest.raises(FactorizationError, match="Miller-Rabin"):
            factorize(n)
    monkeypatch.setattr(intarith, "RHO_STEPS", 1 << 10)
    # above the bound rho gives up after RHO_STEPS steps ...
    with pytest.raises(FactorizationError, match="rho"):
        factorize((2**31 - 1) * (2**61 - 1))
    # ... below it, rho runs to the end
    assert factorize(318665857834031151167461) == {399165290221: 1, 798330580441: 1}


def test_local_series_matches_literal_counts():
    """The keystone oracle, j <= 4."""
    for d in EUCLIDEAN_DS:
        f = field(d)
        for delta in nonnorm_deltas(f, 3):
            for p in (2, 3, 5):
                series = local_count_coeffs(f, -delta, p, 4)
                literal = [r_count(f, -delta, p**j) for j in range(5)]
                assert series == literal, (d, delta, p)


def test_local_series_at_unramified_primes():
    # p not dividing d_K * delta: r(p^j) = p^j - chi(p) p^(j-1)
    for d in EUCLIDEAN_DS:
        f = field(d)
        delta = smallest_nonnorm(d)
        for p in (11, 13, 17):
            if (f.abs_disc * delta) % p == 0:
                continue
            got = local_count_coeffs(f, -delta, p, 3)
            want = [1] + [p**j - f.chi(p) * p ** (j - 1) for j in range(1, 4)]
            assert got == want


def test_local_factor_is_one_off_the_bad_primes():
    f = field(1)
    assert local_factor(f, -3, 5) == [1]
    assert local_factor(f, -3, 7) == [1]


# -------------------------------------------------------------------- theta


HAND_THETA = [
    (1, 3, 2, Fraction(5, 6)),
    (1, 3, 4, Fraction(425, 432)),
    (3, 2, 2, Fraction(2, 3)),
    (2, 5, 2, Fraction(189, 200)),
]


@pytest.mark.parametrize("d,delta,s,value", HAND_THETA)
def test_theta_hand_computed_values(d, delta, s, value):
    assert theta(field(d), delta, s) == value


def test_theta_rejects_bad_arguments():
    with pytest.raises(ValueError):
        theta(field(1), -3, 2)
    with pytest.raises(ValueError):
        theta(field(1), 3, 0)


# ----------------------------------------------------------- Dirichlet side


def test_partial_sums_approach_closed_form():
    for d, delta in ((1, 3), (2, 5), (3, 2), (7, 3), (11, 2)):
        f = field(d)
        partial = zseries_partial(f, delta, 2, 100_000)
        closed = float(zseries_closed_form(f, delta, 2))
        assert abs(partial - closed) < 1e-3, (d, delta, partial, closed)


def test_closed_form_takes_theta_once(monkeypatch):
    calls = []

    def counted(f, delta, s):
        calls.append((f.d, delta, s))
        return theta(f, delta, s)

    monkeypatch.setattr(lfun, "theta", counted)
    value = zseries_closed_form(field(2), 5, 2)
    assert calls == [(2, 5, 2)]
    assert value == zseries_closed_form(field(2), 5, 2)


# ---------------------------------------------------------------- Bernoulli


def test_bernoulli_numbers():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == Fraction(-1, 2)
    assert bernoulli_number(2) == Fraction(1, 6)
    assert bernoulli_number(4) == Fraction(-1, 30)
    assert bernoulli_number(6) == Fraction(1, 42)
    assert bernoulli_number(12) == Fraction(-691, 2730)
    assert bernoulli_number(3) == 0


def test_bernoulli_polynomials():
    x = Fraction(1, 4)
    assert bernoulli_poly(1, x) == x - Fraction(1, 2)
    assert bernoulli_poly(3, x) == x**3 - Fraction(3, 2) * x**2 + Fraction(1, 2) * x


def test_generalized_bernoulli_and_negative_values():
    f1, f3 = field(1), field(3)
    assert generalized_bernoulli(f1, 3) == Fraction(3, 2)
    assert l_negative_exact(f1, -2) == Fraction(-1, 2)
    assert l_negative_exact(f1, -4) == Fraction(5, 2)
    assert generalized_bernoulli(f3, 3) == Fraction(2, 3)
    assert l_negative_exact(f3, -2) == Fraction(-2, 9)


# -------------------------------------------------------------- closed forms


def test_hand_computed_positive_values():
    v = l_closed_form(field(1), 3)
    assert (v.coeff, v.pi_power, v.inv_sqrt_disc) == (Fraction(1, 32), 3, False)
    v = l_closed_form(field(1), 5)
    assert (v.coeff, v.pi_power, v.inv_sqrt_disc) == (Fraction(5, 1536), 5, False)
    v = l_closed_form(field(3), 3)
    assert (v.coeff, v.pi_power, v.inv_sqrt_disc) == (Fraction(4, 81), 3, True)
    v = l_closed_form(field(2), 3)  # 3 pi^3 / (64 sqrt 2) = (3/32) pi^3 / sqrt 8
    assert (v.coeff, v.pi_power, v.inv_sqrt_disc) == (Fraction(3, 32), 3, True)


def test_negative_closed_form_equals_bernoulli_everywhere_in_scope():
    for s in (-2, -4, -6):
        k = -s - 1
        for d in CONSTANCY_SCOPE[k]:
            f = field(d)
            assert l_closed_form(f, s).coeff == l_negative_exact(f, s), (d, s)
            assert l_closed_form(f, s).is_rational


def test_delta_independence_is_exact():
    for k, ds in CONSTANCY_SCOPE.items():
        for d in ds:
            f = field(d)
            for s in (k + 2, -k - 1):
                vals = {
                    (l_closed_form(f, s, dl).coeff, l_closed_form(f, s, dl).pi_power)
                    for dl in nonnorm_deltas(f, 3)
                }
                assert len(vals) == 1, (d, s, vals)


def test_positive_closed_form_matches_character_sum():
    for s in (3, 5, 7):
        for d in CONSTANCY_SCOPE[s - 2]:
            f = field(d)
            a = l_closed_form(f, s).numeric(130)
            b = l_positive_numeric(f, s, 130)
            assert abs(a - b) < mpmath.mpf(10) ** -28 * abs(b), (d, s)


def test_functional_equation_reproduces_exact_negative_values():
    for d in EUCLIDEAN_DS:
        f = field(d)
        via_fe = functional_equation_negative(f, 3, l_positive_numeric(f, 3, 128), 128)
        exact = l_negative_exact(f, -2)
        with mpmath.workprec(160):
            want = mpmath.mpf(exact.numerator) / exact.denominator
            assert abs(via_fe - want) < mpmath.mpf(2) ** -100


def test_scope_rejection():
    for d, s in ((2, 5), (11, 5), (7, 7), (1, 7), (2, -4), (11, -6), (1, -6)):
        with pytest.raises(ValueError):
            l_closed_form(field(d), s)
    for s in (0, 1, 2, 4, -1, -3):
        with pytest.raises(ValueError):
            l_closed_form(field(1), s)


def test_lvalue_strings_and_numeric():
    v = l_closed_form(field(1), 3)
    assert "pi^3" in v.exact_str()
    assert float(v.numeric()) == pytest.approx(0.9689461462593693, rel=1e-12)
    n = l_closed_form(field(1), -2)
    assert n.exact_str() == "-1/2"
    assert float(n.numeric()) == -0.5


def test_bench_agreement():
    rep = bench_negative(field(1), -2, bits=96, repeats=2)
    assert rep.agree
    assert rep.value == "-1/2"
