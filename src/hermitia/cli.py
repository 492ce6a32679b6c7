"""Command line interface.

Every subcommand prints rows in one of three formats (--format
table|json|csv) and uses three exit codes:

  0  success
  2  precondition violation (unknown ring, norm discriminant,
     out-of-scope s, malformed z, a numeric flag out of range, ...)
  3  an internal cross-check or certificate failed (`selftest`, `--check`,
     or an exact result that did not pass its own verification)

A flag out of range exits 2 with one line that names it: the argparse type
of a capped flag says "argument -k: must be at most CAP, got VALUE", and
`at_most`, which checks a --delta cap, a cap on a product of inputs or a
command's cost, says "error: WHAT must be at most CAP; got F1 * F2", WHAT
naming the flags.  A flag that the command would ignore, such as
`alpha --count` with --delta, exits 2 with one line that names both flags
(`unused_with`).

Numeric precision (in bits) defaults to the HERMITIA_PRECISION
environment variable (an integer from MIN_BITS to MAX_BITS, as for
--bits), or 128.

The subcommands are one table, COMMANDS. `main` builds the parser of the
invoked subcommand only, and the full parser just for a top-level error or
help.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import os
import random
import sys
from fractions import Fraction
from typing import Callable, NamedTuple

# mpmath is imported in the functions that compute with it, so that the
# commands that compute no L-value start without loading it
# (tests/test_cli.py::test_only_the_l_value_commands_import_mpmath).

from .field import (
    EUCLIDEAN_DS,
    CertificateError,
    QuadElem,
    field,
    nonnorm_deltas,
    smallest_nonnorm,
)
from . import cfrac, forms, hsum, lfun, polyspace
from .intarith import FactorizationError

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_ORACLE = 3

# Below this, the printed digits of `lvalue` can be wrong and `bench`'s
# agreement test (to 2^-(bits-8)) says nothing.
MIN_BITS = 16
# The character sums of `bench`'s baseline grow fast with the precision: at
# this many bits its default five repeats take under 10 s in every ring.
MAX_BITS = 3000
# `bench` runs its baseline once more than --repeats, so it caps the repeats
# times the bits: at the cap, five repeats at MAX_BITS took 7.3 s in O_11
# (the slowest ring) on a 2-vCPU VM, and a baseline run costs less than its
# share of the cap at fewer bits (4 ms at 16 bits, 0.42 s at 2000).
BENCH_REPEATS_BITS_MAX = 15_000


def default_bits() -> int:
    """HERMITIA_PRECISION, held to the --bits rule, or 128."""
    try:
        return int_at_least(MIN_BITS, most=MAX_BITS)(os.environ.get("HERMITIA_PRECISION", "128"))
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"HERMITIA_PRECISION: {exc}") from None


def int_at_least(low: int, odd: bool = False, most: int | None = None):
    """An argparse type: an integer >= low, odd if `odd`, and at most
    `most` if given."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if odd and value % 2 == 0:
            raise argparse.ArgumentTypeError(f"must be odd, got {value}")
        if most is not None and value > most:
            raise argparse.ArgumentTypeError(f"must be at most {most}, got {value}")
        return value

    return parse


def at_most(what: str, cap: int, *factors: int) -> None:
    """Refuse (exit 2) a product of `factors` above `cap`; `what` names
    the flags that the factors come from."""
    if math.prod(factors) > cap:
        raise ValueError(f"{what} must be at most {cap}; got {' * '.join(map(str, factors))}")


def unused_with(flag: str, args: argparse.Namespace, *others: str) -> None:
    """Refuse (exit 2) any of the flags `others` given together with
    `flag`, which makes the command ignore them; the flags have no parser
    default, so an explicit value is told apart from none."""
    for other in others:
        if getattr(args, other.lstrip("-")) is not None:
            raise ValueError(f"{other} cannot be used with {flag}")


# The most digits of the numerator and of the denominator of a -z
# coordinate, its exponent applied (`coordinate_digits`).  Fraction builds
# a coordinate in time that grows faster than its digits
# (Fraction("1e-10000000") took 7.5 s).  A point whose two coordinates have
# coprime denominators at the cap has convergents of up to about 4000
# digits, under the interpreter's 4300-digit limit on converting an int to
# decimal.  The `walk-*` corners of `hconst` pass 957 digits.
Z_DIGITS_MAX = 1000


def coordinate_digits(text: str) -> int:
    """The most decimal digits that the numerator or the denominator of
    Fraction(text) can have, read from the text without building a number:
    "p/q" has the digits of p and of q, and a decimal "i.f" with exponent n
    is the integer "if" times 10^(n - len(f)).  An exponent of more than 19
    digits counts as its first 19, past any cap either way."""
    body, _, exponent = text.lower().partition("e")
    if "/" in body:
        num, _, den = body.partition("/")
        return max(_count_decimals(num), _count_decimals(den))
    whole, _, frac = body.partition(".")
    exponent = exponent.strip().replace("_", "")
    magnitude = exponent.lstrip("+-").lstrip("0")[:19]
    n = int(magnitude) if magnitude.isdecimal() else 0  # none, or malformed: Fraction refuses it
    shift = (-n if exponent.startswith("-") else n) - _count_decimals(frac)
    return max(_count_decimals(whole) + _count_decimals(frac) + max(shift, 0), 1 + max(-shift, 0))


def _count_decimals(text: str) -> int:
    return sum(map(str.isdecimal, text))


def parse_z(f, text: str) -> QuadElem:
    """Parse "u,v" (meaning u + v*theta_d, both rational) or a bare "u";
    a coordinate past Z_DIGITS_MAX is refused before it is built."""
    parts = text.split(",")
    if len(parts) > 2:
        raise ValueError(f"-z must be 'u' or 'u,v', got {text!r}")
    digits = max(map(coordinate_digits, parts))
    if digits > Z_DIGITS_MAX:
        raise ValueError(
            f"-z: a coordinate may have at most {Z_DIGITS_MAX} digits in its numerator "
            f"and in its denominator, its exponent applied; got {digits}"
        )
    try:
        u = Fraction(parts[0])
        v = Fraction(parts[1]) if len(parts) == 2 else Fraction(0)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad coordinate in -z {text!r}: {exc}") from None
    return QuadElem.from_display(f, u, v)


def emit(rows: list[dict], fmt: str) -> None:
    """Write the rows in the format `fmt`.  Integer and fraction cells of
    any length print whole: the interpreter's limit on converting an int to
    decimal digits (4300 by default) guards the parsing of untrusted text,
    and an exact result may be longer."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        _emit(rows, fmt)
    finally:
        sys.set_int_max_str_digits(limit)


def _emit(rows: list[dict], fmt: str) -> None:
    stream = sys.stdout
    if fmt == "json":
        json.dump(rows, stream, indent=2, default=str)
        stream.write("\n")
        return
    if not rows:
        return
    header = list(rows[0].keys())
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if row.get(h) is None else str(row.get(h)) for h in header])
        stream.write(buf.getvalue())
        return
    if fmt != "table":
        raise ValueError(f"unknown format {fmt!r}")
    cells = [[("" if row.get(h) is None else str(row.get(h))) for h in header] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) for i, h in enumerate(header)]
    stream.write("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip() + "\n")
    for r in cells:
        stream.write("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() + "\n")


def _nstr(value, bits: int) -> str:
    import mpmath

    digits = max(6, int(bits * 0.301) - 2)
    return mpmath.nstr(value, digits)


# ----------------------------------------------------------------- commands


# The largest --delta of `alpha`, `lvalue`, `hconst`, `average` and
# `expandp`, which sweep the O(Delta) lattice points of norm below it (about
# 0.2 s at the cap).  Every other input that sets the work is priced by one
# cost rule per command, fitted on a 2-vCPU VM to the slowest ring at each
# corner that `scripts/time_caps.py` times.
DELTA_MAX = 10**5
# `alpha` sieves sigma_k up to its largest delta, top (at most 2 count + 6
# for --count): top products of about u = k * (bit length of top) bits, at
# about u sqrt(u) each, held in top * u bits; each delta sums over the norm
# classes below it, priced as those below top, at 13 u + 25000 each, and
# prints about u bits, in time quadratic in u.  It caps
# 20 top u sqrt(u) + count (top (13 u + 25000) + u^2), about 1.4*10^-12 s
# per unit.
ALPHA_COST_MAX = 5 * 10**12
# `hconst` and `average` cost about the number F of forms of discriminant
# Delta (alpha_{0,Delta}, `forms.alpha` at k = 0) times what each costs.
# `hconst` enumerates the forms once and walks each point's continued
# fraction over them: about b steps for a denominator of b bits, each on
# exact values of about (k+2)(b+L) bits (L the bit length of Delta), on the
# k-th powers of every form, and on fractions of fixed cost.  It caps
# 2.6*10^5 F plus the sum over the points of
# b ((k+2) ((k+2) (b+L)^2 + 5500 F) + 3*10^6), about 3*10^-11 s per unit.
# The rule was fitted to a walk on reduced fractions.  The walk now runs on
# integer remainders with one Fraction per point, so the rule overprices:
# its 3*10^6 per step priced a step's fixed fraction arithmetic, and its
# (k+2)^2 (b+L)^2 the products and gcds of the running fraction of exact
# values, both gone (`walk-k11` fell from 4.4-6.6 s to 0.8-1.2 s, 1585
# points of 61 bits from 5.8-7.7 s to 0.8-1.3 s).  It stays until refitted.
HCONST_WALK_MAX = 3 * 10**11
# theta(Delta, s) has about s * log2(|d_K| * Delta) bits, so `theta` caps
# s times the bit length of |d_K| * Delta.
THETA_S_BITS_MAX = 10**6
# `expandp` sums about k^3 / w terms per norm class
# (`forms.transfer_coefficients`), w the number of units, on integers that
# grow with k, after a plan of as many terms built once at about k each;
# --check proves the word operators on (k+1)^2 coordinates mod split
# primes, as many as the about k (L + 5) bits of the height, L the bit
# length of Delta.  It caps
# (k+8)^3 (5 Delta + k) / w, plus k^4 (L + 5) with --check, about 5*10^-9 s
# per unit.
EXPANDP_COST_MAX = 18 * 10**8
# `average` walks its grid^2 points at once in floats, one numpy pass per
# form and step.  It caps F (250 + grid^2) + 30 grid^2, about 2*10^-7 s
# per unit; the 30 grid^2 bounds the walk's arrays, about 200 bytes per
# grid point.  Its floats hold |h|^k with |h| < Delta + 2 and Delta^(k+1):
# k times the bit length of Delta + 2 stays 64 bits below the float range.
AVERAGE_WALK_MAX = 4 * 10**7
AVERAGE_K_BITS_MAX = 960
# `cfrac` prints a row per step, up to --max-steps, each with a convergent
# of up to about the bits b of the point's denominator, so it caps
# --max-steps times b.  An exact point's expansion ends after at most about
# b steps (5593 at b = 6637 in O_11), so a whole expansion costs about b^2.
# At the cap in O_11, the ring of the most steps per bit, 3013 steps at the
# -z digit cap (b = 6637) and the whole expansion at b = 4842 (4124 steps)
# took 3.0-4.7 s and 60-70 MB; the whole expansion at b = 6637, which
# the rule refuses, took 5.2-9.9 s and printed 90 MB.
CFRAC_STEPS_BITS_MAX = 2 * 10**7
# W_{k,k} has (k+1)^2 coordinates per eigenspace: at the cap `dims`
# (every odd k up to --kmax, one route for either --method) took 1.8-1.9
# s (O_11) and 1.5-1.7 s (O_2), and `basis` 0.8-1.1 s, on a 2-vCPU VM
# where `python3 -c pass` takes 0.04-0.05 s.
WKK_K_MAX = 27


def cmd_alpha(args) -> list[dict]:
    f = field(args.d)
    if args.delta is not None:
        unused_with("--delta", args, "--count")
        at_most("--delta", DELTA_MAX, args.delta)
        forms.check_delta(f, args.delta)
    nonnorms = 3 if args.count is None else args.count
    count, top = (1, args.delta) if args.delta is not None else (nonnorms, 2 * nonnorms + 6)
    u = args.k * top.bit_length()
    at_most("the cost at -k of the deltas (--delta, or the first --count non-norms)", ALPHA_COST_MAX,
            20 * top * u * math.isqrt(u) + count * (top * (13 * u + 25000) + u * u))
    deltas = [args.delta] if args.delta is not None else nonnorm_deltas(f, nonnorms)
    values = forms.alphas(f, args.k, deltas)
    return [{"d": args.d, "k": args.k, "delta": dl, "alpha": v} for dl, v in zip(deltas, values)]


def cmd_theta(args) -> list[dict]:
    f = field(args.d)
    at_most("-s times the bit length of |d_K| * --delta", THETA_S_BITS_MAX,
            args.s, (f.abs_disc * args.delta).bit_length())
    try:
        value = lfun.theta(f, args.delta, args.s)
    except FactorizationError as exc:
        raise ValueError(f"--delta {args.delta} cannot be factored with proof: {exc}") from None
    return [
        {
            "d": args.d,
            "delta": args.delta,
            "s": args.s,
            "theta": value,
            "numeric": float(value),
        }
    ]


# `rcount --check` runs the O(n) table count and the O(n^2) naive count
RCOUNT_CHECK_MAX_N = 1000


def cmd_rcount(args) -> list[dict]:
    f = field(args.d)
    if args.delta <= 0:
        raise ValueError(f"--delta must be the positive form discriminant, got {args.delta}")
    if args.check:
        at_most("-n with --check", RCOUNT_CHECK_MAX_N, max(args.n))
    out = []
    for n in args.n:
        try:
            count = lfun.r_count_multiplicative(f, -args.delta, n)
        except FactorizationError as exc:
            raise ValueError(f"-n {n} cannot be factored with proof: {exc}") from None
        row = {"d": args.d, "delta": args.delta, "n": n, "count": count}
        if args.check:
            naive = lfun.r_count_naive(f, -args.delta, n)
            row["naive"] = naive
            if not count == lfun.r_count(f, -args.delta, n) == naive:
                raise OracleMismatch(
                    f"r_count_multiplicative disagrees with r_count or the naive count at n={n}"
                )
        out.append(row)
    return out


def cmd_lvalue(args) -> list[dict]:
    f = field(args.d)
    bits = default_bits() if args.bits is None else args.bits
    if args.delta is not None:
        at_most("--delta", DELTA_MAX, args.delta)
    value = lfun.l_closed_form(f, args.s, args.delta)
    numeric = value.numeric(bits)
    return [
        {
            "d": args.d,
            "s": args.s,
            "delta": value.delta,
            "exact": value.exact_str(),
            "pi_power": value.pi_power,
            "numeric": _nstr(numeric, bits),
        }
    ]


def cmd_bench(args) -> list[dict]:
    f = field(args.d)
    bits = default_bits() if args.bits is None else args.bits
    at_most("--repeats times the precision in bits", BENCH_REPEATS_BITS_MAX, args.repeats, bits)
    rep = lfun.bench_negative(f, args.s, bits, args.repeats)
    return [
        {
            "d": rep.d,
            "s": rep.s,
            "bits": rep.bits,
            "closed_form_s": f"{rep.fast_seconds:.6f}",
            "baseline_s": f"{rep.baseline_seconds:.6f}",
            "speedup": f"{rep.speedup:.1f}",
            "agree": rep.agree,
            "value": rep.value,
        }
    ]


def cmd_hconst(args) -> list[dict]:
    f = field(args.d)
    at_most("--delta", DELTA_MAX, args.delta)
    forms.check_delta(f, args.delta)
    points = [parse_z(f, z) for z in args.z or ()]
    if points:
        unused_with("-z", args, "--points", "--den", "--seed")
    drawn = 20 if args.points is None else args.points
    den_max = 8 if args.den is None else args.den
    seed = 0 if args.seed is None else args.seed
    # (bits, points) pairs: a point to be drawn counts the bits of --den, the
    # most its denominator can have, so no --seed decides a refusal
    bits = [(z.den.bit_length(), 1) for z in points] or [(den_max.bit_length(), drawn)]
    nforms, k2, lbits = forms.alpha(f, 0, args.delta), args.k + 2, args.delta.bit_length()
    walks = sum(n * b * (k2 * (k2 * (b + lbits) ** 2 + 5500 * nforms) + 3 * 10**6) for b, n in bits)
    at_most("the walk's cost at -k and --delta over the points (-z, or --points at --den)",
            HCONST_WALK_MAX, 26 * 10**4 * nforms + walks)
    rng = random.Random(seed)
    for _ in range(0 if points else drawn):
        den = rng.randint(1, den_max)
        u = Fraction(rng.randint(-2 * den, 2 * den), den)
        v = Fraction(rng.randint(-2 * den, 2 * den), den)
        points.append(QuadElem.from_display(f, u, v))
    rows = []
    values = set()
    for z, val in zip(points, hsum.eval_points(f, args.k, args.delta, points)):
        values.add(val)
        u, v = z.display_coords()
        rows.append(
            {"d": args.d, "k": args.k, "delta": args.delta, "z": f"{u},{v}", "value": val}
        )
    rows.append(
        {
            "d": args.d,
            "k": args.k,
            "delta": args.delta,
            "z": f"[{len(points)} points]",
            "value": f"{len(values)} distinct value(s)",
        }
    )
    return rows


def cmd_average(args) -> list[dict]:
    f = field(args.d)
    at_most("--delta", DELTA_MAX, args.delta)
    forms.check_delta(f, args.delta)
    at_most("-k times the bit length of --delta + 2", AVERAGE_K_BITS_MAX,
            args.k, (args.delta + 2).bit_length())
    grid2 = args.grid * args.grid
    at_most("the walk's cost at --delta and --grid", AVERAGE_WALK_MAX,
            forms.alpha(f, 0, args.delta) * (250 + grid2) + 30 * grid2)
    rep = hsum.average_quadrature(f, args.k, args.delta, grid=args.grid, a_max=args.a_max)
    return [
        {
            "d": args.d,
            "k": args.k,
            "delta": args.delta,
            "grid": args.grid,
            "a_max": args.a_max,
            "quadrature": f"{rep.quadrature:.10g}",
            "formula": f"{rep.formula:.10g}",
            "rel_error": f"{rep.rel_error:.3e}",
        }
    ]


def cmd_cfrac(args) -> list[dict]:
    f = field(args.d)
    z = parse_z(f, args.z)
    at_most("--max-steps times the bit length of the denominator of -z", CFRAC_STEPS_BITS_MAX,
            args.max_steps, z.den.bit_length())
    exp = cfrac.hurwitz_cf(f, z, max_steps=args.max_steps)
    rows = []
    for i, a in enumerate(exp.alphas):
        u, v = QuadElem.from_quadint(a).display_coords()
        conv = exp.convergent(i)
        cu, cv = conv.display_coords()
        rows.append(
            {
                "n": i,
                "alpha": f"{u},{v}",
                "convergent": f"{cu},{cv}",
                "error": f"{exp.error(i):.3e}",
            }
        )
    rows.append(
        {
            "n": len(exp.alphas),
            "alpha": "(terminated)" if exp.terminated else "(truncated)",
            "convergent": "",
            "error": "",
        }
    )
    return rows


def cmd_dims(args) -> list[dict]:
    f = field(args.d)
    rows = []
    for k in range(1, args.kmax + 1, 2):
        rep = polyspace.wkk(f, k)
        row: dict = {"d": args.d, "k": k}
        row.update(rep.dims)
        row["total"] = rep.total
        rows.append(row)
    return rows


def cmd_basis(args) -> list[dict]:
    f = field(args.d)
    labels = polyspace.eigen_labels(f)
    if args.eigen is not None and args.eigen not in labels:
        raise ValueError(
            f"--eigen must be an eigenvalue label of O_{args.d}: "
            f"one of {', '.join(labels)}; got {args.eigen!r}"
        )
    rep = polyspace.wkk(f, args.k)
    # the basis lists each eigenspace's vectors in label order
    basis = iter(rep.basis)
    rows = []
    for lab in labels:
        for poly in itertools.islice(basis, rep.dims[lab]):
            if not args.eigen or lab == args.eigen:
                rows.append(
                    {"d": args.d, "k": args.k, "eigen": lab, "index": len(rows), "poly": str(poly)}
                )
    if not rows:
        rows.append(
            {"d": args.d, "k": args.k, "eigen": args.eigen or "-", "index": "-", "poly": "(empty)"}
        )
    return rows


def cmd_expandp(args) -> list[dict]:
    f = field(args.d)
    at_most("--delta", DELTA_MAX, args.delta)
    forms.check_delta(f, args.delta)
    check = args.k**4 * (args.delta.bit_length() + 5) if args.check else 0
    at_most("the cost at -k and --delta, --check included", EXPANDP_COST_MAX,
            (args.k + 8) ** 3 * (5 * args.delta + args.k) // len(f.unit_labels) + check)
    coeffs = forms.transfer_coefficients(f, args.k, args.delta)
    row = {"d": args.d, "k": args.k, "delta": args.delta,
           "poly": forms.format_terms([(i, j, coeffs[i, j]) for i, j in sorted(coeffs)])}
    if args.check:
        supp = [(ij, (v, 0)) for ij, v in coeffs.items()]
        row["in_W1"] = polyspace.support_membership(f, args.k, supp, "1")
        if not row["in_W1"]:
            raise OracleMismatch("expanded sum failed the cocycle membership test")
    return [row]


class OracleMismatch(Exception):
    pass


def cmd_selftest(args) -> list[dict]:
    rows = []

    def check(name: str, fn) -> None:
        try:
            fn()
            rows.append({"check": name, "status": "ok"})
        except Exception as exc:  # noqa: BLE001 - reported, then exit 3
            rows.append({"check": name, "status": f"FAIL: {exc}"})

    def residue_counts():
        for d in EUCLIDEAN_DS:
            f = field(d)
            delta = smallest_nonnorm(d)
            for n in (2, 3, 4, 5, 6, 8, 9, 12):
                fast = lfun.r_count(f, -delta, n)
                naive = lfun.r_count_naive(f, -delta, n)
                mult = lfun.r_count_multiplicative(f, -delta, n)
                if not fast == naive == mult:
                    raise OracleMismatch(f"d={d} n={n}: {fast}/{naive}/{mult}")

    def local_series():
        for d in EUCLIDEAN_DS:
            f = field(d)
            for delta in nonnorm_deltas(f, 2):
                for p in (2, 3, 5):
                    series = lfun.local_count_coeffs(f, -delta, p, 3)
                    naive = [lfun.r_count_naive(f, -delta, p**j) for j in range(4)]
                    if series != naive:
                        raise OracleMismatch(f"d={d} delta={delta} p={p}")

    def alpha_paths():
        for d in EUCLIDEAN_DS:
            f = field(d)
            for k in (1, 3):
                for delta in nonnorm_deltas(f, 2):
                    if forms.alpha(f, k, delta) != forms.alpha_direct(f, k, delta):
                        raise OracleMismatch(f"d={d} k={k} delta={delta}")

    def reduction_identity():
        for d in EUCLIDEAN_DS:
            f = field(d)
            z = QuadElem.from_display(f, Fraction(1, 3), Fraction(1, 2))
            if hsum.reduction_identity_check(f, 1, smallest_nonnorm(d), z) != 0:
                raise OracleMismatch(f"d={d}")

    def lvalue_consistency():
        for d in EUCLIDEAN_DS:
            f = field(d)
            if lfun.l_closed_form(f, -2).coeff != lfun.l_negative_exact(f, -2):
                raise OracleMismatch(f"d={d}")

    def cf_identities():
        for d in EUCLIDEAN_DS:
            f = field(d)
            z = QuadElem.from_display(f, Fraction(3, 7), Fraction(2, 5))
            exp = cfrac.hurwitz_cf(f, z)
            if not exp.terminated:
                raise OracleMismatch(f"d={d} did not terminate")
            if exp.convergent(len(exp.alphas) - 1) != z:
                raise OracleMismatch(f"d={d} final convergent")

    def cocycle_dims():
        want = {1: 1, 2: 2, 3: 1, 7: 1, 11: 2}
        for d, dim in want.items():
            rep = polyspace.wkk(field(d), 3)
            if rep.dims["1"] != dim or rep.total != rep.split_sum:
                raise OracleMismatch(f"d={d}: {rep.dims}")

    check("residue counts (fast vs naive vs multiplicative)", residue_counts)
    check("local series vs literal counts", local_series)
    check("alpha: divisor-sum vs form-sum", alpha_paths)
    check("reduction identity, exact", reduction_identity)
    check("closed form matches Bernoulli at s=-2", lvalue_consistency)
    check("continued fractions terminate and reproduce z", cf_identities)
    check("cocycle dimensions at k=3", cocycle_dims)
    return rows


# -------------------------------------------------------------------- parser


class Command(NamedTuple):
    """One subcommand: its help line, the function that computes its rows,
    whether it takes -d, and its own arguments as (flags, keywords) pairs
    for `add_argument`."""

    help: str
    fn: Callable[[argparse.Namespace], list[dict]]
    needs_d: bool
    arguments: tuple[tuple[tuple[str, ...], dict], ...]


def arg(*flags: str, **kwargs) -> tuple[tuple[str, ...], dict]:
    return flags, kwargs


COMMANDS: dict[str, Command] = {
    "alpha": Command("the integer constants alpha_{k,Delta}", cmd_alpha, True, (
        arg("-k", type=int_at_least(1, odd=True), required=True),
        arg("--delta", type=int),
        arg("--count", type=int_at_least(1), help="how many non-norm deltas (not with --delta)"),
    )),
    "theta": Command("exact local correction factor theta(delta, s)", cmd_theta, True, (
        arg("--delta", type=int, required=True),
        arg("-s", type=int_at_least(1), required=True),
    )),
    "rcount": Command("residue counts of N(beta) = delta mod n", cmd_rcount, True, (
        arg("--delta", type=int, required=True),
        arg("-n", type=int_at_least(1), nargs="+", required=True),
        arg("--check", action="store_true",
            help=f"cross-check by table and naive counts (n <= {RCOUNT_CHECK_MAX_N})"),
    )),
    "lvalue": Command("special values L(chi, s) in closed form", cmd_lvalue, True, (
        arg("-s", type=int, required=True),
        arg("--delta", type=int),
        arg("--bits", type=int_at_least(MIN_BITS, most=MAX_BITS)),
    )),
    "bench": Command("closed form vs character-sum baseline", cmd_bench, True, (
        arg("-s", type=int, default=-2),
        arg("--bits", type=int_at_least(MIN_BITS, most=MAX_BITS)),
        arg("--repeats", type=int_at_least(1), default=5),
    )),
    "hconst": Command("evaluate the sum H_{k,Delta} at exact points", cmd_hconst, True, (
        arg("-k", type=int_at_least(1, odd=True), required=True),
        arg("--delta", type=int, required=True),
        arg("-z", action="append", help="point 'u,v' = u + v*theta (repeatable)"),
        arg("--points", type=int_at_least(1), help="how many points to draw (not with -z)"),
        arg("--den", type=int_at_least(1), help="largest denominator of a drawn point (not with -z)"),
        arg("--seed", type=int, help="seed of the draw (not with -z)"),
    )),
    "average": Command("cell average: quadrature vs closed form", cmd_average, True, (
        arg("-k", type=int_at_least(3), required=True),
        arg("--delta", type=int, required=True),
        arg("--grid", type=int_at_least(1), default=32),
        arg("--a-max", type=int_at_least(1), default=200),
    )),
    "cfrac": Command("nearest-integer continued fraction of z", cmd_cfrac, True, (
        arg("-z", required=True, help="point 'u,v' = u + v*theta"),
        arg("--max-steps", type=int_at_least(1), default=40),
    )),
    "dims": Command("dimensions of the cocycle spaces W_{k,k}", cmd_dims, True, (
        arg("--kmax", type=int_at_least(1, most=WKK_K_MAX), default=11),
        arg("--method", choices=("exact", "modular"), default="exact",
            help="both values run the one certified route and print the same table"),
    )),
    "basis": Command("exact basis of W_{k,k}", cmd_basis, True, (
        arg("-k", type=int_at_least(1, most=WKK_K_MAX), required=True),
        arg("--eigen", help="restrict to one eigenvalue label"),
    )),
    "expandp": Command("the transfer polynomial P_{k,Delta}", cmd_expandp, True, (
        arg("-k", type=int_at_least(1, odd=True), required=True),
        arg("--delta", type=int, required=True),
        arg("--check", action="store_true", help="verify cocycle membership"),
    )),
    "selftest": Command("run the internal oracle cross-checks", cmd_selftest, False, ()),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand in COMMANDS, or of `command` alone."""
    parser = argparse.ArgumentParser(
        prog="hermitia",
        description="Sums of powers of binary Hermitian forms over the five "
        "Euclidean imaginary quadratic rings, and the L-values they compute.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    names = COMMANDS if command is None else (command,)
    for name in names:
        cmd = COMMANDS[name]
        p = sub.add_parser(name, help=cmd.help)
        if cmd.needs_d:
            p.add_argument("-d", type=int, required=True, choices=EUCLIDEAN_DS,
                           help="ring O_d")
        p.add_argument("--format", choices=("table", "json", "csv"), default="table")
        for flags, kwargs in cmd.arguments:
            p.add_argument(*flags, **kwargs)
    return parser


def attach_negative_points(argv: list[str]) -> list[str]:
    """Write "-z -1/3,0" as "-z=-1/3,0".  argparse takes only plain negative
    numbers such as -3 for values; any other word starting with "-" would
    start a new option and leave -z without its point."""
    out: list[str] = []
    for word in argv:
        negative = len(word) > 1 and word[0] == "-" and word[1] in "0123456789."
        if negative and out and out[-1] == "-z":
            out[-1] = f"-z={word}"
        else:
            out.append(word)
    return out


def main(argv=None) -> int:
    argv = attach_negative_points(sys.argv[1:] if argv is None else argv)
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args, extra = build_parser(command).parse_known_args(argv)
    if extra:
        # only the full parser's usage line lists every command
        args = build_parser().parse_args(argv)
    try:
        rows = COMMANDS[args.command].fn(args)
    except OracleMismatch as exc:
        print(f"oracle mismatch: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    except CertificateError as exc:
        print(f"certificate failed: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    emit(rows, args.format)
    if args.command == "selftest" and any(r["status"] != "ok" for r in rows):
        return EXIT_ORACLE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
