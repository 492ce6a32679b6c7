"""Acceptance criteria.

Each test covers one numbered criterion, enforces its tolerance and time
budget, and prints one PASS/FAIL line (visible under `pytest -s`; under
plain `pytest -v` the per-test PASSED/FAILED line carries the verdict).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from fractions import Fraction

import mpmath

from hermitia.field import (
    EUCLIDEAN_DS,
    QuadElem,
    field,
    nonnorm_deltas,
    smallest_nonnorm,
)
from hermitia.forms import alpha, alpha_direct, expand_P, gen_S, gen_T, gen_T_omega, identity
from hermitia.hsum import average_quadrature, eval_exact
from hermitia.cfrac import hurwitz_cf
from hermitia.lfun import (
    CONSTANCY_SCOPE,
    bench_negative,
    l_closed_form,
    l_negative_exact,
    l_positive_numeric,
    local_count_coeffs,
    r_count,
    r_count_naive,
)
from hermitia.polyspace import (
    apply_word,
    eigen_labels,
    membership,
    unit_diagonal,
    wkk,
)

from conftest import seeded


@contextmanager
def criterion(n: int, desc: str, budget: float | None = None):
    t0 = time.perf_counter()
    try:
        yield
        dt = time.perf_counter() - t0
        if budget is not None:
            assert dt <= budget, f"budget exceeded: {dt:.1f}s > {budget}s"
    except BaseException:
        print(f"[criterion {n:02d}] FAIL - {desc}")
        raise
    print(f"[criterion {n:02d}] PASS - {desc} ({dt:.2f}s)")


def in_scope_pairs():
    for k, ds in sorted(CONSTANCY_SCOPE.items()):
        for d in ds:
            yield d, k


def test_criterion_01_negative_values_match_bernoulli():
    with criterion(1, "closed-form negative L-values equal the Bernoulli "
                      "evaluations exactly, including -1/2 and 5/2 at d=1",
                   budget=5.0):
        for d, k in in_scope_pairs():
            s = -k - 1
            f = field(d)
            assert l_closed_form(f, s).coeff == l_negative_exact(f, s), (d, s)
        assert l_closed_form(field(1), -2).coeff == Fraction(-1, 2)
        assert l_closed_form(field(1), -4).coeff == Fraction(5, 2)


def test_criterion_02_positive_values_match_character_sums():
    with criterion(2, "pi^3/32 and 5 pi^5/1536 reproduced to 30 digits; all "
                      "nine in-scope positive values match character sums to "
                      "25 digits", budget=30.0):
        with mpmath.workprec(170):
            tight = [(1, 3, mpmath.pi**3 / 32), (1, 5, 5 * mpmath.pi**5 / 1536)]
            for d, s, want in tight:
                got = l_closed_form(field(d), s).numeric(150)
                assert abs(got - want) < mpmath.mpf(10) ** -30 * abs(want), (d, s)
            count = 0
            for d, k in in_scope_pairs():
                s = k + 2
                f = field(d)
                a = l_closed_form(f, s).numeric(150)
                b = l_positive_numeric(f, s, 150)
                assert abs(a - b) < mpmath.mpf(10) ** -25 * abs(b), (d, s)
                count += 1
            assert count == 9


def test_criterion_03_delta_independence_is_exact():
    with criterion(3, "closed forms are independent of the choice among the "
                      "three smallest non-norm discriminants, exactly"):
        for d, k in in_scope_pairs():
            f = field(d)
            for s in (k + 2, -k - 1):
                vals = {
                    (v.coeff, v.pi_power, v.inv_sqrt_disc)
                    for v in (l_closed_form(f, s, dl) for dl in nonnorm_deltas(f, 3))
                }
                assert len(vals) == 1, (d, s)


def test_criterion_04_local_series_equal_literal_counts():
    with criterion(4, "local-factor series coefficients equal literal residue "
                      "counts for j <= 4, all rings, three discriminants, all "
                      "relevant primes", budget=60.0):
        for d in EUCLIDEAN_DS:
            f = field(d)
            for delta in nonnorm_deltas(f, 3):
                primes = {2, 3, 5}
                n = f.abs_disc * delta
                p = 2
                while p * p <= n:
                    if n % p == 0:
                        primes.add(p)
                        while n % p == 0:
                            n //= p
                    p += 1
                if n > 1:
                    primes.add(n)
                for p in sorted(primes):
                    series = local_count_coeffs(f, -delta, p, 4)
                    literal = [r_count(f, -delta, p**j) for j in range(5)]
                    assert series == literal, (d, delta, p)
                    naive = [
                        r_count_naive(f, -delta, p**j)
                        for j in range(5)
                        if p**j <= 1024
                    ]
                    assert series[: len(naive)] == naive, (d, delta, p)


def test_criterion_05_alpha_values_and_dual_paths():
    with criterion(5, "alpha_{1,3}=20 and alpha_{3,3}=68 at d=1; divisor-sum "
                      "and form-sum paths agree for all rings, k in {1,3,5}, "
                      "three discriminants"):
        assert alpha(field(1), 1, 3) == 20
        assert alpha(field(1), 3, 3) == 68
        for d in EUCLIDEAN_DS:
            f = field(d)
            for k in (1, 3, 5):
                for delta in nonnorm_deltas(f, 3):
                    assert alpha(f, k, delta) == alpha_direct(f, k, delta)


def test_criterion_06_constancy_on_100_seeded_points():
    with criterion(6, "the sums are constant at 100 seeded exact points "
                      "(denominators <= 12) for every in-scope (d, k)",
                   budget=600.0):
        rng = seeded("acceptance-constancy")
        for d, k in in_scope_pairs():
            f = field(d)
            delta = smallest_nonnorm(d)
            base = eval_exact(f, k, delta, QuadElem.from_display(f, 0, 0))
            for _ in range(100):
                den = rng.randint(1, 12)
                u = Fraction(rng.randint(-2 * den, 2 * den), den)
                v = Fraction(rng.randint(-2 * den, 2 * den), den)
                z = QuadElem.from_display(f, u, v)
                assert eval_exact(f, k, delta, z) == base, (d, k, str(z))


def test_criterion_07_polynomial_identities():
    with criterion(7, "the transfer polynomials satisfy the symmetry, unit, "
                      "inversion and twisted-translation identities (and the "
                      "extra one at d=7) for k in {1,3,5}"):
        for d in EUCLIDEAN_DS:
            f = field(d)
            delta = smallest_nonnorm(d)
            I, S, T, Tw = identity(f), gen_S(f), gen_T(f), gen_T_omega(f)
            for k in (1, 3, 5):
                P = expand_P(f, k, delta)
                assert all(
                    P.coeffs.get((j, i)) == c for (i, j), c in P.coeffs.items()
                )
                for u in f.units():
                    assert (apply_word(P, [(1, unit_diagonal(f, u))]) - P).is_zero()
                assert apply_word(P, [(1, I), (1, S)]).is_zero()
                eps_m = unit_diagonal(f, f.quad(-1))
                assert apply_word(
                    P, [(1, I), (1, T @ S @ eps_m), (-1, T)]
                ).is_zero()
                if d == 7:
                    w5 = [(1, I), (-1, Tw), (-1, S @ T.inverse() @ Tw @ S),
                          (-1, T @ Tw.inverse() @ S @ Tw)]
                    assert apply_word(P, w5).is_zero()


DIM_TABLES = {
    1: {"1": [1, 1, 2, 2, 3, 3], "-1": [0, 0, 0, 1, 0, 1],
        "i": [0] * 6, "-i": [0] * 6, "total": [1, 1, 2, 3, 3, 4]},
    2: {"1": [1, 2, 3, 4, 5, 6], "-1": [0] * 6, "total": [1, 2, 3, 4, 5, 6]},
    3: {"1": [1, 1, 1, 2, 2, 2], "total": [1, 1, 1, 2, 2, 2]},
    7: {"1": [1, 1, 2, 3, 3, 4], "-1": [0] * 6, "total": [1, 1, 2, 3, 3, 4]},
    11: {"1": [1, 2, 3, 4, 5, 6], "-1": [0] * 6, "total": [1, 2, 3, 4, 5, 6]},
}


def test_criterion_08_dimension_tables():
    with criterion(8, "exact cocycle dimensions match the tables for odd "
                      "k <= 11 in every ring, eigenvalue by eigenvalue, and "
                      "the total is certified", budget=300.0):
        for d, table in DIM_TABLES.items():
            f = field(d)
            for idx, k in enumerate((1, 3, 5, 7, 9, 11)):
                rep = wkk(f, k)
                assert rep.total == rep.split_sum == table["total"][idx], (d, k)
                for lab in eigen_labels(f):
                    want = table.get(lab, [0] * 6)[idx]
                    assert rep.dims[lab] == want, (d, k, lab)


def test_criterion_09_transfer_polynomials_are_cocycles():
    with criterion(9, "the transfer polynomials lie in the unit eigenspace "
                      "of the cocycle space for all rings, k in {1,3,5}, two "
                      "discriminants"):
        for d in EUCLIDEAN_DS:
            f = field(d)
            for k in (1, 3, 5):
                for delta in nonnorm_deltas(f, 2):
                    assert membership(expand_P(f, k, delta), "1"), (d, k, delta)


def test_criterion_10_cell_average():
    with criterion(10, "the 64x64 midpoint quadrature of the d=2, k=3, "
                       "Delta=5 sum matches the closed-form mean within 2%",
                   budget=300.0):
        rep = average_quadrature(field(2), 3, 5, grid=64, a_max=300)
        assert rep.rel_error < 0.02, rep


def test_criterion_11_continued_fractions_converge():
    with criterion(11, "nearest-integer continued fractions reach error "
                       "below 1e-8 within 30 steps at 100 float points per "
                       "ring, and terminate exactly on field elements"):
        rng = seeded("acceptance-cf")
        for d in EUCLIDEAN_DS:
            f = field(d)
            for _ in range(100):
                z = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.02, 1.5))
                exp = hurwitz_cf(f, z, max_steps=30)
                assert min(
                    exp.error(n) for n in range(len(exp.alphas))
                ) < 1e-8, (d, z)
            for _ in range(20):
                den = rng.randint(1, 9)
                u = Fraction(rng.randint(-9, 9), den)
                v = Fraction(rng.randint(-9, 9), den)
                ze = QuadElem.from_display(f, u, v)
                ee = hurwitz_cf(f, ze, max_steps=64)
                assert ee.terminated
                assert ee.convergent(len(ee.alphas) - 1) == ze


def test_criterion_12_closed_form_is_fast():
    with criterion(12, "the exact closed form evaluates L(chi_{-4}, -2) at "
                       "least 10x faster than the character-sum baseline at "
                       "128 bits, with agreeing values"):
        rep = bench_negative(field(1), -2, bits=128, repeats=7)
        assert rep.agree
        assert rep.speedup >= 10.0, f"speedup only {rep.speedup:.1f}x"
        print(f"    (speedup {rep.speedup:.1f}x: closed form "
              f"{rep.fast_seconds*1e3:.3f} ms vs baseline "
              f"{rep.baseline_seconds*1e3:.3f} ms)")
