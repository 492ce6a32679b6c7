"""Brute-force routes kept only to check the production code against.

`expand_P_quadint` is the transfer polynomial expanded form by form on
`QuadInt` objects: the full multinomial expansion of each
(a z zbar + b z + conj(b) zbar + c)^k, with no grouping and no integer
pairs.  `forms.expand_P` must agree with it coefficient by coefficient.
"""

from __future__ import annotations

import math

from hermitia.field import FieldSpec, QuadElem, QuadInt
from hermitia.forms import BiPoly, check_delta, delta_forms


def expand_P_quadint(f: FieldSpec, k: int, delta: int) -> BiPoly:
    """P_{k,Delta} summed over `delta_forms(..., "positive_a")` one form at
    a time."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    check_delta(f, delta)
    acc: dict[tuple[int, int], QuadInt] = {}
    fact = math.factorial
    for h in delta_forms(f, delta, "positive_a"):
        a_pow = [h.a**i for i in range(k + 1)]
        c_pow = [h.c**i for i in range(k + 1)]
        b_pow = _int_power_list(h.b, k)
        bbar_pow = _int_power_list(h.b.conj(), k)
        for i in range(k + 1):
            for j in range(k + 1 - i):
                for l in range(k + 1 - i - j):
                    r = k - i - j - l
                    mult = fact(k) // (fact(i) * fact(j) * fact(l) * fact(r))
                    coeff = (mult * a_pow[i] * c_pow[r]) * (b_pow[j] * bbar_pow[l])
                    key = (i + j, i + l)
                    acc[key] = acc[key] + coeff if key in acc else coeff
    return BiPoly.make(
        f, k, {key: QuadElem.from_quadint(v) for key, v in acc.items()}
    )


def _int_power_list(q: QuadInt, n: int) -> list[QuadInt]:
    out = [q.field.one]
    for _ in range(n):
        out.append(out[-1] * q)
    return out
