"""Shared helpers for the test suite: deterministic RNGs, random ring
elements, and short elements of the prime ideals above split primes.
Property-style tests draw from seeded generators so failures reproduce
exactly.
"""

from __future__ import annotations

import math
import random
import zlib
from fractions import Fraction

from hermitia.field import FieldSpec, Pair, QuadElem, QuadInt
from hermitia.linalg import omega_roots, split_primes


def seeded(name: str) -> random.Random:
    """A Random whose seed is derived stably from the test name."""
    return random.Random(zlib.crc32(name.encode()))


def rand_quadint(rng: random.Random, f: FieldSpec, span: int = 30) -> QuadInt:
    return QuadInt(f, rng.randint(-span, span), rng.randint(-span, span))


def rand_elem(
    rng: random.Random, f: FieldSpec, span: int = 30, max_den: int = 12
) -> QuadElem:
    return QuadElem.make(
        f, rng.randint(-span, span), rng.randint(-span, span), rng.randint(1, max_den)
    )


def rand_nonzero_elem(
    rng: random.Random, f: FieldSpec, span: int = 30, max_den: int = 12
) -> QuadElem:
    while True:
        z = rand_elem(rng, f, span, max_den)
        if not z.is_zero():
            return z


def points_of_bits(rng: random.Random, f: FieldSpec, bits: list[int]) -> list[QuadElem]:
    """One point u + v*theta per bit length in `bits`: u, v in [-2, 2]
    over a denominator of that many bits."""
    out = []
    for b in bits:
        den = rng.randint(2 ** (b - 1), 2**b)
        u, v = (Fraction(rng.randint(-2 * den, 2 * den), den) for _ in range(2))
        out.append(QuadElem.from_display(f, u, v))
    return out


def generator_of_first_ideals(f: FieldSpec, m: int, root: int = 0) -> Pair:
    """A short pi = x + y*omega in the product of the prime ideals
    (p_i, omega - w(p_i)) over the first m split primes, w the root `root`
    of `omega_roots` (by default the first, w1): the Lagrange-reduced basis
    of that lattice, {x + y*omega : x + y*w = 0 mod p_i}, under the norm
    form."""
    primes = split_primes(f, m)
    modulus = math.prod(primes)
    w = 0
    for p in primes:
        # CRT: w = w(p) mod p for each p
        rest = modulus // p
        w += omega_roots(f, p)[root] * rest * pow(rest, -1, p)
    u, v = (modulus, 0), (-(w % modulus), 1)

    def norm(a):
        return f.norm_int(*a)

    if norm(u) > norm(v):
        u, v = v, u
    while True:
        # twice the bilinear form of the norm, then the nearest multiple
        twice = norm((u[0] + v[0], u[1] + v[1])) - norm(u) - norm(v)
        mu = (twice + norm(u)) // (2 * norm(u))
        v = (v[0] - mu * u[0], v[1] - mu * u[1])
        if norm(v) >= norm(u):
            return u
        u, v = v, u
