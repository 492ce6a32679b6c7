"""Sums of k-th powers of binary Hermitian forms of fixed discriminant.

For a positive non-norm Delta and odd k, the object of study is

    H_{k,Delta}(z) = sum over forms h with a < 0, h(z,1) > 0 of h(z,1)^k .

At exact z in K the sum is a finite exact rational.  `eval_exact` computes
it by walking the Hurwitz continued fraction of z (`cfrac.hurwitz_cf`):
H is O_d-periodic and even, so the reduction identity below carries H from
each remainder to the next, one value of P_{k,Delta} per step, down to
H(0) = alpha_{k,Delta}.  That costs O(#forms * log den(z)).  The
definition itself is summed by the window scan `forms.window_scan`, which
visits every |a| <= Delta*den(z)^2; it is the oracle of the tests and of
`reduction_identity_check`.  For floating z the series is absolutely
convergent for k >= 3 and `eval_truncated` returns the partial sum over
|a| <= a_max together with a rigorous bound on the discarded tail (for
k = 1 the full sum only converges on K, where it has finite support, so
truncation is refused).

The sum satisfies the reduction identity

    N(z)^k * H_{k,Delta}(-1/z) - H_{k,Delta}(z) = P_{k,Delta}(z, zbar)

with the transfer polynomial of `forms.expand_P`; `reduction_identity_check`
evaluates the difference of the two sides (exactly on K).  Averaging over a
fundamental cell of the lattice connects the sum to a Dirichlet series:

    mean of H_{k,Delta} = (2 pi Delta^(k+1) / ((k+1) sqrt(m))) * Z(-Delta, k+1)

which `average_quadrature` verifies numerically on a midpoint grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cfrac import hurwitz_cf
from .field import CertificateError, FieldSpec, QuadElem, lattice_points_with_norm_below
from .forms import alpha_direct, check_delta, delta_forms, expand_P, window_scan


def eval_exact(f: FieldSpec, k: int, delta: int, z: QuadElem) -> Fraction:
    """H_{k,Delta}(z) as an exact rational, z in K, odd k.

    Walks the Hurwitz continued fraction of z.  With r = z_n - alpha_n the
    n-th remainder and z_(n+1) = 1/r, periodicity, H(-w) = H(w) and the
    reduction identity give H(z_n) = H(r) = N(r)^k H(z_(n+1)) - P(r); the
    walk sums these until a remainder is 0, where H(0) = alpha_direct.
    P(r) is evaluated on integers: for r = (x + y*omega)/den each form
    (a, b, c) with c < 0 < a contributes
    h(r,1)*den^2 = a*N(x, y) + den*(x*Tr(b) + y*Tr(b*omega)) + c*den^2.
    The cost is O(#forms * log den); the definition, summed by
    `forms.window_scan` in O(Delta*den^2), is the oracle in the tests.
    """
    if k < 1 or k % 2 == 0:
        raise ValueError("k must be an odd positive integer")
    check_delta(f, delta)
    if not isinstance(z, QuadElem):
        raise TypeError("eval_exact needs an exact field element")
    omega = f.omega
    terms = [
        (h.a, h.b.trace(), (h.b * omega).trace(), h.c)
        for h in delta_forms(f, delta, "positive_a")
    ]
    total, scale = Fraction(0), Fraction(1)
    exp = hurwitz_cf(f, z, max_steps=math.inf)
    for zn, an in zip(exp.zs, exp.alphas):
        r = zn - an
        if r.is_zero():
            return total + scale * alpha_direct(f, k, delta)
        x, y, den = r.num.x, r.num.y, r.den
        nrm, dd = f.norm_int(x, y), den * den
        p = sum((a * nrm + den * (tb * x + tbw * y) + c * dd) ** k for a, tb, tbw, c in terms)
        total -= scale * Fraction(p, dd**k)
        scale *= Fraction(nrm, dd) ** k
    raise CertificateError(f"the continued fraction of {z} did not terminate")


def _scan_value(f: FieldSpec, k: int, delta: int, z: QuadElem) -> Fraction:
    """H_{k,Delta}(z) from its definition, summed over `forms.window_scan`
    (which yields h(z,1)*den^2); O(Delta*den^2), for checking only."""
    total = sum(h**k for _, _, _, h in window_scan(f, delta, z))
    return Fraction(total, z.den ** (2 * k))


@dataclass(frozen=True)
class HEvalReport:
    """Truncated evaluation with a rigorous tail bound."""

    d: int
    k: int
    delta: int
    z: complex
    a_max: int
    value: float
    tail_bound: float
    terms: int


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
    return count_bound * delta**k * a_max ** (1 - k) / (k - 1)


def eval_truncated(
    f: FieldSpec, k: int, delta: int, z: complex, a_max: int = 2000
) -> HEvalReport:
    """Partial sum of H_{k,Delta}(z) over 0 < |a| <= a_max, with tail bound.

    Requires k >= 3: for k = 1 the defining series diverges off K, so no
    truncation is meaningful there.
    """
    check_delta(f, delta)
    if k < 3:
        raise ValueError(
            "eval_truncated needs k >= 3; for k = 1 use eval_exact on K"
        )
    if a_max < 1:
        raise ValueError("a_max must be positive")
    zc = complex(z)
    t, n, m = f.disc, f.norm_coeff, f.abs_disc
    half_sqm = f.sqrt_abs_disc / 2.0
    znorm = zc.real * zc.real + zc.imag * zc.imag
    sqrt_delta = math.sqrt(delta)
    total = 0.0
    terms = 0
    for a in range(-a_max, 0):
        cx, cy = -a * zc.real, -a * zc.imag  # v must be within sqrt(D) of here
        ylo = math.floor((cy - sqrt_delta) / half_sqm)
        yhi = math.ceil((cy + sqrt_delta) / half_sqm)
        for vy in range(ylo, yhi + 1):
            imag_off = vy * half_sqm - cy
            rad2 = delta - imag_off * imag_off
            if rad2 < 0:
                continue
            rad = math.sqrt(rad2)
            xbase = vy * t / 2.0
            xlo = math.floor(cx - rad - xbase)
            xhi = math.ceil(cx + rad - xbase)
            for vx in range(xlo, xhi + 1):
                nv = vx * vx + t * vx * vy + n * vy * vy
                if (nv - delta) % a:
                    continue
                c = (nv - delta) // a
                # b = conj(v); trace of b*z is 2*Re(conj(v)*z)
                vre, vim = vx + xbase, vy * half_sqm
                h = a * znorm + 2.0 * (vre * zc.real + vim * zc.imag) + c
                if h > 0.0:
                    total += h**k
                    terms += 1
    return HEvalReport(
        f.d, k, delta, zc, a_max, total, tail_bound(f, k, delta, a_max), terms
    )


@dataclass(frozen=True)
class ReductionCheck:
    """Difference N(z)^k H(-1/z) - H(z) - P(z, zbar) with its error budget."""

    residual: Fraction | float
    error_bound: Fraction | float
    exact: bool

    def holds(self, slack: float = 1e-9) -> bool:
        if self.exact:
            return self.residual == 0
        return abs(self.residual) <= float(self.error_bound) + slack


def reduction_identity_check(
    f: FieldSpec, k: int, delta: int, z, a_max: int = 2000
) -> ReductionCheck:
    """Evaluate both sides of the reduction identity at z != 0.

    For exact z in K both sums come from the window scan, independently of
    the continued-fraction walk of `eval_exact` (which assumes the
    identity); the residual is an exact rational and the identity holds
    iff it is 0.  For floating z both sums are truncated at a_max and
    the error bound is the sum of the two tail bounds (k >= 3 only).
    """
    P = expand_P(f, k, delta)
    if isinstance(z, QuadElem):
        if z.is_zero():
            raise ValueError("the reduction identity needs z != 0")
        w = -z.inverse()
        lhs = z.norm() ** k * _scan_value(f, k, delta, w) - _scan_value(f, k, delta, z)
        rhs = P.eval_exact(z).as_fraction()
        return ReductionCheck(lhs - rhs, Fraction(0), True)
    zc = complex(z)
    if zc == 0:
        raise ValueError("the reduction identity needs z != 0")
    w = -1.0 / zc
    rep_w = eval_truncated(f, k, delta, w, a_max)
    rep_z = eval_truncated(f, k, delta, zc, a_max)
    znorm = abs(zc) ** 2
    residual = znorm**k * rep_w.value - rep_z.value - P.eval_complex(zc).real
    bound = znorm**k * rep_w.tail_bound + rep_z.tail_bound
    return ReductionCheck(residual, bound, False)


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


def _offsets_window(f: FieldSpec, delta: int) -> list[tuple[int, int]]:
    """Lattice offsets covering a disk of radius sqrt(Delta) around any
    point, after componentwise rounding of the center.

    Componentwise rounding (y first, then x) lands within
    sqrt(1/4 + m/16) of the true center, so offsets of norm up to
    (sqrt(Delta) + sqrt(1/4 + m/16))^2 suffice."""
    m = f.abs_disc
    slack = math.sqrt(0.25 + m / 16.0)
    bound = math.floor((math.sqrt(delta) + slack) ** 2) + 2
    return [(w.x, w.y) for w in lattice_points_with_norm_below(f, bound)]


def average_quadrature(
    f: FieldSpec,
    k: int,
    delta: int,
    grid: int = 64,
    a_max: int = 300,
) -> AverageReport:
    """Midpoint-rule average of H_{k,Delta} over the cell {u + v*theta},
    u, v in [0, 1), on a grid x grid lattice of midpoints, truncating each
    evaluation at a_max.  The partial sums are vectorized over the grid
    points per (a, offset) stencil; the grid is row-major.
    """
    check_delta(f, delta)
    if k < 3:
        raise ValueError("averages are computed for k >= 3 only")
    t, n = f.disc, f.norm_coeff
    half_sqm = f.sqrt_abs_disc / 2.0
    theta = f.theta_complex
    idx = (np.arange(grid) + 0.5) / grid
    zz = idx[:, None] + idx[None, :] * theta  # row-major: z[i, j]
    zre = zz.real.ravel()
    zim = zz.imag.ravel()
    znorm = zre * zre + zim * zim
    offsets = _offsets_window(f, delta)
    total = np.zeros_like(zre)
    for a in range(-a_max, 0):
        cx, cy = -a * zre, -a * zim
        by = np.rint(cy / half_sqm).astype(np.int64)
        bx = np.rint(cx - by * (t / 2.0)).astype(np.int64)
        for ox, oy in offsets:
            vx, vy = bx + ox, by + oy
            nv = vx * vx + t * vx * vy + n * vy * vy
            divisible = (nv - delta) % (-a) == 0
            c = (nv - delta) // a
            vre = vx + vy * (t / 2.0)
            vim = vy * half_sqm
            h = a * znorm + 2.0 * (vre * zre + vim * zim) + c
            mask = divisible & (h > 0.0)
            if mask.any():
                total = total + np.where(mask, h, 0.0) ** k
    quad = float(total.sum()) / (grid * grid)
    return AverageReport(f.d, k, delta, grid, a_max, quad, formula_average(f, k, delta))
