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

from dataclasses import dataclass

from .field import FieldSpec, QuadElem, QuadInt, ZLike, nearest_int
from .forms import GroupElement, HermitianForm, act

# a floating-point expansion stops once its remainder is this small
FLOAT_EPS = 1e-12


@dataclass(frozen=True)
class CFExpansion:
    """The result of a Hurwitz expansion.

    alphas[n] is the n-th partial quotient; p[n]/q[n] its convergent; zs[n]
    the remainder z_n before the n-th rounding.  `terminated` is True when
    the remainder reached (numerically: approached) zero, which always
    happens for exact z in K.
    """

    field: FieldSpec
    z: ZLike
    exact: bool
    alphas: list[QuadInt]
    p: list[QuadInt]
    q: list[QuadInt]
    zs: list[ZLike]
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

    Exact input (QuadElem) uses exact arithmetic throughout and always
    terminates; complex input runs in floating point and stops after
    max_steps or once |z_n - alpha_n| < FLOAT_EPS.
    """
    exact = isinstance(z, QuadElem)
    zn: ZLike = z if exact else complex(z)
    alphas: list[QuadInt] = []
    p: list[QuadInt] = []
    q: list[QuadInt] = []
    zs: list[ZLike] = []
    p2, p1 = f.zero, f.one
    q2, q1 = f.one, f.zero
    terminated = False
    while len(alphas) < max_steps:
        zs.append(zn)
        a = nearest_int(f, zn)
        alphas.append(a)
        p2, p1 = p1, a * p1 + p2
        q2, q1 = q1, a * q1 + q2
        p.append(p1)
        q.append(q1)
        if exact:
            rem = zn - a
            if rem.is_zero():
                terminated = True
                break
            zn = rem.inverse()
        else:
            rem = zn - complex(a)
            if abs(rem) < FLOAT_EPS:
                terminated = True
                break
            zn = 1.0 / rem
    return CFExpansion(f, z, exact, alphas, p, q, zs, terminated)


def phi(h: HermitianForm, g: GroupElement) -> HermitianForm:
    """Pullback of a form along g: phi(h, g)(z, 1) = |c z + e|^2 h(g(z), 1).

    Applying this with the gamma_n of an expansion walks a form along the
    continued fraction of z; it composes covariantly,
    phi(phi(h, g1), g2) = phi(h, g1 @ g2).
    """
    return act(g.conj(), h)
