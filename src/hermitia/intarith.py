"""Exact integer helpers: primality, factorization with proof (for `lfun`),
square roots mod p, and, from one smallest-prime-factor sieve, the divisors
(`divisors`) and sigma_0..sigma_k (`divisor_moments`) of one integer and
sigma_k over a range (`divisor_power_sums`)."""

from __future__ import annotations

import math


# Trial division stops at this divisor.  Every n below its square is
# factored by trial division alone.
TRIAL_BOUND = 10**4

# The Miller-Rabin witnesses of `is_probable_prime`: the first 13 primes.
# It is a proof of primality below MILLER_RABIN_PROVEN, the least composite
# that is a strong pseudoprime to all of them (to the first 12 alone, the
# composite 318665857834031151167461 already is one).
WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_PROVEN = 3_317_044_064_679_887_385_961_981

# Pollard rho finds a prime factor p in about sqrt(p) steps.  A composite
# below MILLER_RABIN_PROVEN has one below 1.9e12, and rho runs on it to the
# end (at most about 4e6 steps on 12 semiprimes measured near that bound).
# On a larger composite it gives up after this many steps (about 5 s).
RHO_STEPS = 1 << 23


class FactorizationError(ValueError):
    """`factorize` could not finish with proof in its bounded work."""


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| (n != 0), with the primes in ascending order.

    Trial division up to TRIAL_BOUND; a cofactor left with no prime factor
    below that is split by Pollard-Brent rho.  A cofactor is reported prime
    only when `is_probable_prime` proves it (below MILLER_RABIN_PROVEN).
    FactorizationError is raised for one that passes the test above that
    bound (a proof by trial division would take ~sqrt of it steps), and
    when rho takes more than RHO_STEPS steps to split a composite above it.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    out: dict[int, int] = {}
    n = _trial_divide(abs(n), out, TRIAL_BOUND)
    if n > 1:
        for q in sorted(_split(n)):
            out[q] = out.get(q, 0) + 1
    return out


def _trial_divide(n: int, out: dict[int, int], stop: int) -> int:
    """Divide every prime p <= stop with p*p <= n out of n, into `out`.  A
    cofactor > 1 left once p*p > n is prime and goes into `out` too.  Return
    what is left: 1, or a cofactor with no prime factor up to stop."""
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    p = 5
    while p * p <= n and p <= stop:
        for q in (p, p + 2):
            while n % q == 0:
                out[q] = out.get(q, 0) + 1
                n //= q
        p += 6
    if n > 1 and p * p > n:
        out[n] = out.get(n, 0) + 1
        return 1
    return n


def _split(n: int) -> list[int]:
    """The prime factors, with multiplicity, of n > 1 that has no prime
    factor up to TRIAL_BOUND."""
    if not is_probable_prime(n):
        d = _rho_factor(n)
        return _split(d) + _split(n // d)
    if n >= MILLER_RABIN_PROVEN:
        raise FactorizationError(
            f"the factor {n} passes Miller-Rabin at or above {MILLER_RABIN_PROVEN}, "
            "where that proves nothing"
        )
    return [n]


def _rho_factor(n: int) -> int:
    """A divisor 1 < d < n of the odd composite n: Pollard's rho with
    Brent's cycle search and batched gcds, on x -> x^2 + c for c = 1, 2, ..."""
    batch, c, steps = 128, 0, 0
    limit = RHO_STEPS if n >= MILLER_RABIN_PROVEN else math.inf
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            # the r steps to x and at most r more from it
            steps += 2 * r
            if steps > limit:
                raise FactorizationError(f"Pollard rho found no factor of {n} in {RHO_STEPS} steps")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                saved = y
                for _ in range(min(batch, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += batch
            r *= 2
        if g == n:
            # the batch overshot: step once at a time from its start
            g = 1
            while g == 1:
                saved = (saved * saved + c) % n
                g = math.gcd(x - saved, n)
        if g != n:
            return g


def smallest_prime_factor_sieve(limit: int) -> list[int]:
    """spf[i] = smallest prime factor of i, for 0 <= i <= limit."""
    spf = list(range(limit + 1))
    for i in range(2, math.isqrt(limit) + 1):
        if spf[i] == i:
            for j in range(i * i, limit + 1, i):
                if spf[j] == j:
                    spf[j] = i
    return spf


def divisors(n: int, spf: list[int]) -> list[int]:
    """The positive divisors of n, 0 < n < len(spf), ascending, from the
    smallest-prime-factor sieve `spf`."""
    divs = [1]
    while n > 1:
        p, e = spf[n], 0
        while n % p == 0:
            n //= p
            e += 1
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


def divisor_moments(n: int, k: int, spf: list[int]) -> list[int]:
    """[sigma_0(n), ..., sigma_k(n)] for 0 < n < len(spf): running power
    sums over the `divisors` of n."""
    divs = divisors(n, spf)
    out, powers = [], [1] * len(divs)
    for _ in range(k + 1):
        out.append(sum(powers))
        powers = [q * d for q, d in zip(powers, divs)]
    return out


def divisor_power_sums(k: int, limit: int) -> list[int]:
    """[0, sigma_k(1), ..., sigma_k(limit)], sigma_k(n) the sum of d^k over
    the positive divisors d of n, in one pass over a smallest-prime-factor
    sieve.  For m = p*q with p the least prime of m,

        sigma_k(m) = (1 + p^k) sigma_k(q) - [p | q] p^k sigma_k(q/p).
    """
    spf = smallest_prime_factor_sieve(limit)
    sig = [0] * (limit + 1)
    if limit >= 1:
        sig[1] = 1
    pk: dict[int, int] = {}
    for m in range(2, limit + 1):
        p = spf[m]
        if p == m:
            pk[p] = p**k
        q = m // p
        sig[m] = (1 + pk[p]) * sig[q] - (pk[p] * sig[q // p] if q % p == 0 else 0)
    return sig


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin to the bases WITNESSES: a proof for n < MILLER_RABIN_PROVEN."""
    if n < 2:
        return False
    for p in WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def sqrt_mod_prime(a: int, p: int) -> int:
    """A square root of a mod odd prime p (Tonelli-Shanks); a must be a QR."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        raise ValueError(f"{a} is not a quadratic residue mod {p}")
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t * t % p, 1
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r
