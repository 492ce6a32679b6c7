"""Sums of k-th powers of binary Hermitian forms of fixed discriminant.

For a positive non-norm Delta and odd k, the object of study is

    H_{k,Delta}(z) = sum over forms h with a < 0, h(z,1) > 0 of h(z,1)^k .

At exact z in K the sum is a finite exact rational.  `eval_points`
computes it at a list of points by walking the Hurwitz continued fraction
of each: H is O_d-periodic and even, so the reduction identity below
carries H from each remainder to the next, one value of P_{k,Delta} per
step, down to H(0) = alpha_{k,Delta}.  The walk runs on the integer
remainders Delta_(-1) = den*z, Delta_0 = den, Delta_(n+1) = Delta_(n-1) -
alpha_n Delta_n of `cfrac.remainders`, and with h(u, v) = a N(u) +
Tr(b u conj(v)) + c N(v) the identity telescopes to

    H(z) = (N(Delta_N)^k alpha_{k,Delta}
            - sum_(n<N) sum_(c<0<a) h(Delta_(n+1), Delta_n)^k) / den^(2k),

Delta_(N+1) = 0: integer sums and one Fraction per point.  It enumerates the
forms once per call, so a command enumerates them once, and then costs
O(#forms * log den(z)) per point; `eval_exact` is its one-point case.  The
definition itself is summed by the window scan `forms.window_scan`, which
visits every |a| <= Delta*den(z)^2; it is the oracle of the tests and of
`reduction_identity_check`.  For floating z the series is absolutely
convergent for k >= 3, and `tail_bound` bounds the part of it with
|a| > a_max; the partial sum over |a| <= a_max, the definition summed in
floating point, is the oracle of the float walk below and lives in
`tests/oracles.py` (for k = 1 the sum only converges on K, where it has
finite support).

The sum satisfies the reduction identity

    N(z)^k * H_{k,Delta}(-1/z) - H_{k,Delta}(z) = P_{k,Delta}(z, zbar)

with the transfer polynomial of `forms.expand_P`; `reduction_identity_check`
evaluates the difference of the two sides exactly, at points of K.  With P
replaced by the signed sum T of `_walk_values` the identity holds at every
complex z and for every k, so the walk of `eval_exact` also runs in
floating point, rounding to the nearest lattice point by the two-row rule
of `field.nearest_pair` on numpy arrays.  Its step count is set by k, the
covering radius and float resolution; a_max enters only once its tail
bound is below float resolution, and then as log(a_max).  Averaging over
a fundamental cell of the lattice connects the sum to a Dirichlet series:

    mean of H_{k,Delta} = (2 pi Delta^(k+1) / ((k+1) sqrt(m))) * Z(-Delta, k+1)

which `average_quadrature` verifies on a midpoint grid, evaluating every
midpoint by that float walk.  Its stopping rule bounds what the walk leaves
out by `tail_bound`; float rounding is outside that bound.  For k >= 3
that tail bound does not depend on z, so H is a uniform limit of
continuous functions and has no jumps, at points of K included: there the
float walk agrees with `eval_exact` up to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cfrac import remainders
from .field import FieldSpec, QuadElem
from .forms import check_delta, expand_P, form_ints, window_scan


def eval_exact(f: FieldSpec, k: int, delta: int, z: QuadElem) -> Fraction:
    """H_{k,Delta}(z) as an exact rational, z in K, odd k: `eval_points` at
    z alone, which enumerates the forms for this one point."""
    return eval_points(f, k, delta, [z])[0]


def eval_points(f: FieldSpec, k: int, delta: int, points: list[QuadElem]) -> list[Fraction]:
    """H_{k,Delta} at each of the exact `points` of K, odd k, from one
    enumeration of the forms of discriminant Delta.

    Each point z = (x + y*omega)/den walks its Hurwitz continued fraction on
    the integer remainders of `cfrac.remainders`: Delta_(-1) = den*z,
    Delta_0 = den and Delta_(n+1) = Delta_(n-1) - alpha_n Delta_n, so that
    the n-th remainder is r_n = z_n - alpha_n = Delta_(n+1)/Delta_n.
    Periodicity, H(-w) = H(w) and the reduction identity give
    H(z_n) = H(r_n) = N(r_n)^k H(z_(n+1)) - P(r_n), down to the step N with
    Delta_(N+1) = 0, where H(0) = alpha_{k,Delta}.  The norms telescope,
    N(r_0) ... N(r_(n-1)) = N(Delta_n)/den^2, and
    h(r_n, 1) N(Delta_n) = h(Delta_(n+1), Delta_n), so

        H(z) = (N(Delta_N)^k alpha_{k,Delta}
                - sum_(n<N) sum_(c<0<a) h(Delta_(n+1), Delta_n)^k) / den^(2k),

    where h(u, v) = a N(u) + Tr(b u conj(v)) + c N(v) is an integer: integer
    sums and one Fraction per point.  With w = u conj(v) = wx + wy*omega,
    Tr(b w) = wx Tr(b) + wy Tr(b*omega).  The forms with a < 0 < c are the
    negatives of those with c < 0 < a, so alpha_{k,Delta} = H(0) is the sum
    of (-c)^k over the same forms.
    """
    if k < 1 or k % 2 == 0:
        raise ValueError("k must be an odd positive integer")
    check_delta(f, delta)
    if not all(isinstance(z, QuadElem) for z in points):
        raise TypeError("eval_points needs exact field elements")
    # Tr(b) and Tr(b*omega) for b = x + y*omega, with omega^2 = t*omega - n
    t, tt = f.disc, f.disc * f.disc - 2 * f.norm_coeff
    terms = [(a, 2 * x + t * y, t * x + tt * y, c) for a, x, y, c in form_ints(f, delta)]
    h_zero = sum((-c) ** k for _, _, _, c in terms)
    values = []
    for z in points:
        total = 0
        for (ax, ay), (mx, my), s, s_next in remainders(f, z.num.x, z.num.y, z.den):
            if not s_next:
                total += s**k * h_zero
                break
            # w = Delta_(n+1) conj(Delta_n) = m_n - alpha_n s_n
            wx, wy = mx - ax * s, my - ay * s
            total -= sum((a * s_next + tb * wx + tbw * wy + c * s) ** k for a, tb, tbw, c in terms)
        values.append(Fraction(total, z.den ** (2 * k)))
    return values


def _scan_value(f: FieldSpec, k: int, delta: int, z: QuadElem) -> Fraction:
    """H_{k,Delta}(z) from its definition, summed over `forms.window_scan`
    (which yields h(z,1)*den^2); O(Delta*den^2), for checking only."""
    total = sum(h**k for _, _, _, h in window_scan(f, delta, z))
    return Fraction(total, z.den ** (2 * k))


def tail_bound(f: FieldSpec, k: int, delta: int, a_max: int) -> float:
    """Upper bound on the discarded |a| > a_max part of H_{k,Delta}, k >= 3.

    At fixed a the positive forms have conj(b) in a disk of radius
    sqrt(Delta) around -a*z; the Voronoi cells (area sqrt(m)/2, radius at
    most rho) of those lattice points are disjoint inside the enlarged disk,
    so there are at most pi*(sqrt(Delta)+rho)^2 / (sqrt(m)/2) of them, each
    contributing at most (Delta/|a|)^k.  Summing a^(-k) over |a| > a_max is
    bounded by the integral a_max^(1-k)/(k-1).
    """
    if k < 3:
        raise ValueError("tail bound needs k >= 3")
    rho = math.sqrt(float(f.covering_radius_sq))
    count_bound = math.pi * (math.sqrt(delta) + rho) ** 2 / f.covolume
    # an integer quotient, so that any a_max gives a float (0.0 at worst)
    return count_bound * delta**k * (1 / a_max ** (k - 1)) / (k - 1)


def reduction_identity_check(f: FieldSpec, k: int, delta: int, z: QuadElem) -> Fraction:
    """N(z)^k H(-1/z) - H(z) - P(z, zbar) at exact z != 0 in K, as an exact
    rational: the identity holds iff it is 0.

    Both sums come from the window scan, independently of the
    continued-fraction walk of `eval_exact` (which assumes the identity).
    """
    if not isinstance(z, QuadElem):
        raise TypeError("the reduction identity is checked at exact field elements")
    if z.is_zero():
        raise ValueError("the reduction identity needs z != 0")
    lhs = z.norm() ** k * _scan_value(f, k, delta, -z.inverse()) - _scan_value(f, k, delta, z)
    return lhs - expand_P(f, k, delta).eval_exact(z).as_fraction()


@dataclass(frozen=True)
class AverageReport:
    d: int
    k: int
    delta: int
    grid: int
    a_max: int
    quadrature: float
    formula: float

    @property
    def rel_error(self) -> float:
        return abs(self.quadrature - self.formula) / abs(self.formula)


def formula_average(f: FieldSpec, k: int, delta: int) -> float:
    """Mean of H_{k,Delta} over a fundamental cell, from the closed form
    (2 pi Delta^(k+1) / ((k+1) sqrt(m))) * Z(-Delta, k+1)."""
    from . import lfun

    zval = lfun.zseries_closed_form(f, delta, k + 1)
    return float(
        2 * math.pi * delta ** (k + 1) / ((k + 1) * f.sqrt_abs_disc) * float(zval)
    )


def average_quadrature(
    f: FieldSpec,
    k: int,
    delta: int,
    grid: int = 64,
    a_max: int = 300,
) -> AverageReport:
    """Midpoint-rule average of H_{k,Delta} over the cell {u + v*theta},
    u, v in [0, 1), on a grid x grid lattice of midpoints (row-major), for
    k >= 3.

    Each midpoint is evaluated by the float continued-fraction walk
    (`_walk_values`), all points at once.  A point stops once what is
    left of its sum is at most tail_bound(f, k, delta, a_max), the error
    bound of the partial sum over |a| <= a_max, and at most 1e-16 of its
    value, so a_max only matters once its tail bound is below float
    resolution.  Float rounding is not part of that bound.  That partial
    sum, the definition summed in floating point, is the oracle of the walk
    in `tests/oracles.py`.
    """
    check_delta(f, delta)
    if k < 3:
        raise ValueError("averages are computed for k >= 3 only")
    idx = (np.arange(grid) + 0.5) / grid
    zz = idx[:, None] + idx[None, :] * f.theta_complex  # row-major: z[i, j]
    values = _walk_values(f, k, delta, zz.ravel(), tail_bound(f, k, delta, a_max))
    quad = float(values.sum()) / (grid * grid)
    return AverageReport(f.d, k, delta, grid, a_max, quad, formula_average(f, k, delta))


def _walk_values(
    f: FieldSpec, k: int, delta: int, z: np.ndarray, tolerance: float
) -> np.ndarray:
    """H_{k,Delta} at the complex points z, k >= 3, by the continued-fraction
    walk of `eval_exact` run in floating point on all points at once.

    With T(w) = sum over c < 0 < a of sgn(h(w,1)) |h(w,1)|^k (which is P(w)
    for odd k), N(w)^k H(-1/w) - H(w) = T(w) holds at every complex w and
    for every k: forms with a < 0 < c and h > 0 are the negatives of forms
    with c < 0 < a and h < 0.  So with r the remainder of z_n at its
    nearest lattice point, N(r) <= rho^2 < 1 and H(z_n) = H(r) =
    N(r)^k H(1/r) - T(r).  After n steps H(z) = total + scale * H(z_n),
    and 0 <= H <= M = (pi (sqrt(Delta) + rho)^2 / covolume) Delta^k zeta(k),
    the count bound of `tail_bound` summed over every a.  A point stops once
    scale * M <= min(tolerance, 1e-16 * |total|), or at r = 0, where
    H(0) = alpha_{k,Delta}.  The value returned is total, a lower bound
    up to float rounding.  Its oracle is the definition summed in floating
    point over |a| <= a_max (`tests/oracles.py`), whose discarded tail is
    at most `tail_bound`.
    """
    import mpmath  # here, as in `lfun`: only the L-value commands load it

    omega = f.omega_complex
    terms = [(a, x + y * omega, c) for a, x, y, c in form_ints(f, delta)]
    t, half_sqm = f.disc / 2.0, f.sqrt_abs_disc / 2.0
    # tail_bound at a_max = 1 is (count bound) * Delta^k / (k - 1)
    bound = tail_bound(f, k, delta, 1) * (k - 1) * float(mpmath.zeta(k))
    # H(0) = alpha_{k,Delta} is the sum of (-c)^k over the same forms
    h_zero = float(sum((-c) ** k for _, _, c in terms))
    total = np.zeros(z.shape)
    scale = np.ones(z.shape)
    live = np.arange(z.size)
    zn = np.asarray(z, dtype=complex)
    while live.size:
        # the nearest lattice point: in rows floor(y) and floor(y) + 1, the
        # point whose real offset lies in (-1/2, 1/2] (proof: `nearest_pair`)
        y0 = np.floor(zn.imag / half_sqm)
        r = None
        for y in (y0, y0 + 1):
            w = zn - (np.ceil(zn.real - y * t - 0.5) + y * t) - 1j * (y * half_sqm)
            r = w if r is None else np.where(abs(w) < abs(r), w, r)
        nr = r.real * r.real + r.imag * r.imag
        step = np.zeros(live.size)
        for a, b, c in terms:  # one form at a time: arrays stay grid-sized
            h = a * nr + 2.0 * (b.real * r.real - b.imag * r.imag) + c
            step += np.copysign(np.abs(h) ** k, h)
        step[nr == 0.0] = -h_zero  # the walk ends on H(0)
        s = scale[live]
        total[live] -= s * step
        scale[live] = s = s * nr**k
        going = s * bound > np.minimum(tolerance, 1e-16 * np.abs(total[live]))
        live, zn = live[going], 1.0 / r[going]
    return total
