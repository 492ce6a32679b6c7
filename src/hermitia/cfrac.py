"""Nearest-integer (Hurwitz-type) continued fractions over O_d.

The expansion of z iterates

    alpha_n = round(z_n)  (nearest ring integer),    z_(n+1) = 1/(z_n - alpha_n)

starting from z_0 = z.  Because the covering radius rho of O_d is < 1 for
all five Euclidean d, every step has |z_n - alpha_n| <= rho, the algorithm
terminates for z in K, and the convergents

    p_n = alpha_n p_(n-1) + p_(n-2),   q_n = alpha_n q_(n-1) + q_(n-2)

(with p_(-2), p_(-1) = 0, 1 and q_(-2), q_(-1) = 1, 0) converge
geometrically for arbitrary complex z.  The remainder sequence

    delta_(-1) = z,  delta_0 = 1,  delta_(n+1) = delta_(n-1) - alpha_n delta_n

satisfies delta_n = (-1)^(n-1) (q_(n-1) z - p_(n-1)), contracts by a factor
of at least rho per step (N(delta_(n+1)) <= rho^2 N(delta_n)), and encodes
the approximation error as z - p_n/q_n = (-1)^n delta_(n+1)/q_n.

The matrices gamma_n = [[q_(n-2), -p_(n-2)], [-q_(n-1), p_(n-1)]] lie in
GL_2(O_d) (det = +-1) and map z to the remainder z_n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from .field import CertificateError, FieldSpec, QuadElem, QuadInt, ZLike, nearest_int, nearest_pair
from .forms import GroupElement, HermitianForm, act

# a floating-point expansion stops once its remainder is this small
FLOAT_EPS = 1e-12


@dataclass(frozen=True)
class CFExpansion:
    """The result of a Hurwitz expansion.

    alphas[n] is the n-th partial quotient; p[n]/q[n] its convergent; zs[n]
    the remainder z_n before the n-th rounding; norms[n] N(Delta_(n+1)) of
    `remainders` for exact z, None for complex z.  `terminated` is True
    when the remainder reached (numerically: approached) zero, which always
    happens for exact z in K.
    """

    field: FieldSpec
    z: ZLike
    exact: bool
    alphas: list[QuadInt]
    p: list[QuadInt]
    q: list[QuadInt]
    zs: list[ZLike]
    norms: list[int | None]
    terminated: bool

    def __len__(self) -> int:
        return len(self.alphas)

    def convergent(self, i: int) -> QuadElem:
        """p_i / q_i as an exact field element."""
        pi, qi = self.p[i], self.q[i]
        num = pi * qi.conj()
        return QuadElem.make(self.field, num.x, num.y, qi.norm())

    def convergent_complex(self, i: int) -> complex:
        return complex(self.p[i]) / complex(self.q[i])

    def error(self, i: int) -> float:
        """|z - p_i/q_i| in floating point.  For exact z it is |delta_(i+1)|
        / |q_i|, the square root of N(Delta_(i+1)) / (den^2 N(q_i)), a ratio
        of integers divided correctly rounded and at most rho^2 < 1; complex
        z takes the float difference."""
        if self.exact:
            return math.sqrt(self.norms[i] / (self.z.den**2 * self.q[i].norm()))
        return abs(complex(self.z) - self.convergent_complex(i))

    def deltas(self) -> list:
        """The remainders [delta_(-1), delta_0, ..., delta_n] with n =
        len(self), recomputed from the partial quotients; exact when the
        input was exact."""
        if self.exact:
            one = QuadElem.from_quadint(self.field.one)
            out = [self.z, one]
        else:
            out = [complex(self.z), 1 + 0j]
        for a in self.alphas:
            av = QuadElem.from_quadint(a) if self.exact else complex(a)
            out.append(out[-2] - av * out[-1])
        return out

    def group_elements(self) -> list[GroupElement]:
        """gamma_0 .. gamma_len; gamma_n maps z to the remainder z_n."""
        f = self.field
        ps = [f.zero, f.one] + self.p  # p_(-2), p_(-1), p_0, ...
        qs = [f.one, f.zero] + self.q
        out = []
        for n in range(len(self.alphas) + 1):
            out.append(
                GroupElement(qs[n], -ps[n], -qs[n + 1], ps[n + 1])
            )
        return out


def hurwitz_cf(f: FieldSpec, z: ZLike, max_steps: int = 40) -> CFExpansion:
    """Hurwitz continued fraction of z.

    Exact input (QuadElem) runs on the integer remainders of `remainders`
    and always terminates; complex input runs in floating point and stops
    after max_steps or once |z_n - alpha_n| < FLOAT_EPS.
    """
    exact = isinstance(z, QuadElem)
    steps = _exact_steps(f, z) if exact else _float_steps(f, complex(z))
    alphas: list[QuadInt] = []
    p: list[QuadInt] = []
    q: list[QuadInt] = []
    zs: list[ZLike] = []
    norms: list[int | None] = []
    p2, p1 = f.zero, f.one
    q2, q1 = f.one, f.zero
    terminated = False
    while len(alphas) < max_steps:
        zn, a, last, norm = next(steps)
        zs.append(zn)
        alphas.append(a)
        norms.append(norm)
        p2, p1 = p1, a * p1 + p2
        q2, q1 = q1, a * q1 + q2
        p.append(p1)
        q.append(q1)
        if last:
            terminated = True
            break
    return CFExpansion(f, z, exact, alphas, p, q, zs, norms, terminated)


def _exact_steps(f: FieldSpec, z: QuadElem) -> Iterator[tuple[QuadElem, QuadInt, bool, int]]:
    """(z_n, alpha_n, whether z_n - alpha_n = 0, N(Delta_(n+1))) for each
    step of the exact expansion of z, from its integer remainders."""
    for (ax, ay), (mx, my), s, s_next in remainders(f, z.num.x, z.num.y, z.den):
        yield QuadElem.make(f, mx, my, s), QuadInt(f, ax, ay), s_next == 0, s_next


def _float_steps(f: FieldSpec, zn: complex) -> Iterator[tuple[complex, QuadInt, bool, None]]:
    """(z_n, alpha_n, whether |z_n - alpha_n| < FLOAT_EPS, None) for each
    step of the floating-point expansion, without end."""
    while True:
        a = nearest_int(f, zn)
        rem = zn - complex(a)
        last = abs(rem) < FLOAT_EPS
        yield zn, a, last, None
        zn = 1.0 / rem


def remainders(
    f: FieldSpec, x: int, y: int, den: int
) -> Iterator[tuple[tuple[int, int], tuple[int, int], int, int]]:
    """The exact expansion of z = (x + y*omega)/den, den > 0, on integer
    pairs: the remainders Delta_n = den * delta_n, which lie in O_d.

    From Delta_(-1) = den*z and Delta_0 = den it takes
    Delta_(n+1) = Delta_(n-1) - alpha_n Delta_n, with alpha_n the nearest
    ring integer (`field.nearest_pair`) to z_n = Delta_(n-1)/Delta_n =
    m_n/s_n, where m_n = Delta_(n-1) conj(Delta_n) and s_n = N(Delta_n).
    Each step yields (alpha_n, m_n, s_n, s_(n+1)) with alpha_n and m_n as
    pairs; the remainder z_n - alpha_n is Delta_(n+1)/Delta_n =
    (m_n - alpha_n s_n)/s_n, and the last step is the one with
    s_(n+1) = 0.  A step multiplies the norm by N(z_n - alpha_n) <= rho^2
    < 1, so every Delta_n stays within the bits of den*z; a step whose norm
    does not fall raises CertificateError.
    """
    t, n = f.disc, f.norm_coeff
    # Delta_(n-1) = ux + uy*omega and Delta_n = vx + vy*omega; the products
    # are `pair_mul` written out: a call per product slows the walk by 30-70%
    ux, uy, vx, vy, s = x, y, den, 0, den * den
    while True:
        # m = Delta_(n-1) * conj(Delta_n), conj(vx + vy*omega) = (vx + t*vy) - vy*omega
        cx, cy = vx + t * vy, -vy
        bd = uy * cy
        mx, my = ux * cx - n * bd, ux * cy + uy * cx + t * bd
        ax, ay = nearest_pair(f, mx, my, s)
        bd = ay * vy
        wx, wy = ux - ax * vx + n * bd, uy - ax * vy - ay * vx - t * bd
        s_next = wx * (wx + t * wy) + n * wy * wy
        if s_next >= s:
            raise CertificateError(
                f"a remainder of the continued fraction of ({x} + {y}*omega)/{den} did not shrink"
            )
        yield (ax, ay), (mx, my), s, s_next
        if not s_next:
            return
        ux, uy, vx, vy, s = vx, vy, wx, wy, s_next


def phi(h: HermitianForm, g: GroupElement) -> HermitianForm:
    """Pullback of a form along g: phi(h, g)(z, 1) = |c z + e|^2 h(g(z), 1).

    Applying this with the gamma_n of an expansion walks a form along the
    continued fraction of z; it composes covariantly,
    phi(phi(h, g1), g2) = phi(h, g1 @ g2).
    """
    return act(g.conj(), h)
