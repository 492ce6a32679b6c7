"""Shared helpers for the test suite: deterministic RNGs and random ring
elements.  Property-style tests draw from seeded generators so failures
reproduce exactly.
"""

from __future__ import annotations

import random
import zlib
from fractions import Fraction

from hermitia.field import FieldSpec, QuadElem, QuadInt


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
