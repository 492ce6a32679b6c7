"""The polynomial right action, the group presentations, the cocycle
spaces W_{k,k} with their unit-eigenvalue splitting, and the membership of
the transfer polynomials."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermitia.field import EUCLIDEAN_DS, ZERO, QuadElem, field, nonnorm_deltas, smallest_nonnorm
from hermitia.forms import (
    BiPoly,
    GroupElement,
    expand_P,
    gen_S,
    gen_T,
    gen_T_omega,
    identity,
)
from hermitia import linalg, polyspace
from hermitia.linalg import matvec_is_zero, omega_roots, split_primes
from hermitia.polyspace import (
    WordOperator,
    act_poly,
    apply_word,
    conjugate,
    eigen_columns,
    eigen_exponent,
    eigen_labels,
    epsilon,
    factors,
    flat_index,
    from_support,
    kernel_words,
    membership,
    operator_matrix,
    pair_matmul,
    stacked_word_matrix,
    support,
    unit_diagonal,
    wkk,
    word_matrix,
)

from conftest import generator_of_first_ideals, seeded
from oracles import (
    annihilates,
    factor_pair,
    factored_words,
    kernel_mod,
    one_var_matrix,
    pairs_mod,
    poly_to_vector,
    vector_to_poly,
    word_action_loop,
    word_operator_mod,
    words_mod,
)


def rand_bipoly(rng, f, k, terms=4):
    coeffs = {}
    for _ in range(terms):
        coeffs[(rng.randint(0, k), rng.randint(0, k))] = QuadElem.make(
            f, rng.randint(-4, 4), rng.randint(-3, 3), rng.randint(1, 3)
        )
    return BiPoly.make(f, k, coeffs)


def gens(f):
    return [gen_S(f), gen_T(f), gen_T_omega(f), gen_T_omega(f).inverse()]


def as_pairs(rows):
    return [[(e.x, e.y) for e in row] for row in rows]


# ------------------------------------------------------------------- action


def test_action_is_a_right_action():
    rng = seeded("poly-action")
    for d in EUCLIDEAN_DS:
        f = field(d)
        for _ in range(8):
            P = rand_bipoly(rng, f, 3)
            g1, g2 = rng.choice(gens(f)), rng.choice(gens(f))
            assert (act_poly(act_poly(P, g1), g2) - act_poly(P, g1 @ g2)).is_zero()


def test_identity_acts_trivially():
    rng = seeded("poly-identity")
    for d in EUCLIDEAN_DS:
        f = field(d)
        P = rand_bipoly(rng, f, 2)
        assert (act_poly(P, identity(f)) - P).is_zero()


def test_action_matches_substitution_pointwise():
    rng = seeded("poly-pointwise")
    for d in EUCLIDEAN_DS:
        f = field(d)
        P = rand_bipoly(rng, f, 2)
        g = gen_T(f) @ gen_S(f)
        for _ in range(6):
            z = QuadElem.make(f, rng.randint(-3, 3), rng.randint(1, 3), rng.randint(1, 4))
            cz_e = QuadElem.from_quadint(g.c) * z + QuadElem.from_quadint(g.e)
            if cz_e.is_zero():
                continue
            lhs = act_poly(P, g).eval_exact(z)
            factor = cz_e * cz_e.conj()
            rhs = P.eval_exact(g.apply(z)) * factor * factor
            assert (lhs - rhs).is_zero()


def assert_factors_match_the_oracle(f, g, k):
    az = factors(f, g, k)
    azb = conjugate(f, az)
    assert az == as_pairs(one_var_matrix(f, g, k)), (f.d, k, str(g))
    assert azb == as_pairs(one_var_matrix(f, g.conj(), k)), (f.d, k, str(g))


def test_factors_equal_the_quadint_oracle_on_every_kernel_word():
    for d in EUCLIDEAN_DS:
        f = field(d)
        elements = {str(g): g for word in kernel_words(f) for _, g in word}
        for k in range(1, 12):
            for g in elements.values():
                assert_factors_match_the_oracle(f, g, k)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    d=st.sampled_from(EUCLIDEAN_DS),
    k=st.integers(0, 9),
    letters=st.lists(st.integers(0, 5), max_size=8),
)
def test_factors_equal_the_quadint_oracle_property(d, k, letters):
    """Random words in S, T, T_omega and their inverses."""
    f = field(d)
    alphabet = gens(f) + [gen_S(f).inverse(), gen_T(f).inverse()]
    g = identity(f)
    for i in letters:
        g = g @ alphabet[i]
    assert_factors_match_the_oracle(f, g, k)


def pair_arrays(mat):
    """A matrix of integer pairs as its x and y object arrays."""
    a = np.array(mat, dtype=object)
    return a[..., 0], a[..., 1]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    d=st.sampled_from(EUCLIDEAN_DS),
    k=st.integers(0, 13),
    g_letters=st.lists(st.integers(0, 5), max_size=6),
    h_letters=st.lists(st.integers(0, 5), max_size=6),
)
def test_factors_of_a_product_are_the_product_of_the_factors(d, k, g_letters, h_letters):
    """factors(g @ h) = factors(h) . factors(g) (`pair_matmul`), on random
    words in S, T, T_omega and their inverses: an algebraic oracle of
    `factors` that does not use the QuadInt loop of `one_var_matrix`."""
    f = field(d)
    alphabet = gens(f) + [gen_S(f).inverse(), gen_T(f).inverse()]
    g, h = identity(f), identity(f)
    for i in g_letters:
        g = g @ alphabet[i]
    for i in h_letters:
        h = h @ alphabet[i]
    x, y = pair_matmul(f, *pair_arrays(factors(f, h, k)), *pair_arrays(factors(f, g, k)))
    want_x, want_y = pair_arrays(factors(f, g @ h, k))
    assert np.array_equal(x, want_x) and np.array_equal(y, want_y)


def test_operator_matrix_represents_the_action():
    rng = seeded("poly-matrix")
    for d in EUCLIDEAN_DS:
        f = field(d)
        k = 2
        P = rand_bipoly(rng, f, k)
        g = rng.choice(gens(f))
        M = operator_matrix(f, g, k)
        v = poly_to_vector(P)
        zero = QuadElem.from_quadint(f.zero)
        mv = []
        for row in M:
            acc = zero
            for e, x in zip(row, v):
                if not (e.is_zero() or x.is_zero()):
                    acc = acc + QuadElem.from_quadint(e) * x
            mv.append(acc)
        assert (vector_to_poly(f, k, mv) - act_poly(P, g)).is_zero()


def test_operator_matrices_compose_contravariantly():
    f = field(2)
    k = 1
    g1, g2 = gen_T(f), gen_S(f)
    m1 = operator_matrix(f, g1, k)
    m2 = operator_matrix(f, g2, k)
    m12 = operator_matrix(f, g1 @ g2, k)
    n = len(m12)
    prod = [
        [sum((m2[i][t] * m1[t][j] for t in range(n)), f.zero) for j in range(n)]
        for i in range(n)
    ]
    assert prod == [list(r) for r in m12]


# ------------------------------------------------------------- presentation


def test_presentation_relations_are_scalar_units():
    for d in EUCLIDEAN_DS:
        f = field(d)
        S, T, Tw = gen_S(f), gen_T(f), gen_T_omega(f)
        rels = [S @ S, (S @ T) ** 3, T @ Tw @ T.inverse() @ Tw.inverse()]
        if d == 1:
            L = GroupElement.make(f, [[f.theta, 0], [0, -f.theta]])
            rels += [L @ L, (S @ L) ** 2, (T @ L) ** 2, (Tw @ L) ** 2,
                     (Tw @ S @ L) ** 3]
        if d == 3:
            z3 = f.quad(1, 1)
            L = GroupElement.make(f, [[z3 * z3, 0], [0, z3]])
            rels += [L @ L @ L, (S @ L) ** 2, (Tw @ S @ L) ** 3]
        if d == 2:
            rels.append((Tw.inverse() @ S @ Tw @ S) ** 2)
        if d == 7:
            rels.append((Tw.inverse() @ S @ Tw @ S @ T) ** 2)
        if d == 11:
            rels.append((Tw.inverse() @ S @ Tw @ S @ T) ** 3)
        for r in rels:
            assert r.is_scalar_unit(), (d, str(r))


def test_unit_rotation_conjugates_translations_for_d3():
    f = field(3)
    z3 = f.quad(1, 1)
    L = GroupElement.make(f, [[z3 * z3, 0], [0, z3]])
    T, Tw = gen_T(f), gen_T_omega(f)
    assert (L.inverse() @ Tw @ L @ T.inverse()).is_scalar_unit()
    assert (L.inverse() @ T @ L @ (T.inverse() @ Tw.inverse()).inverse()).is_scalar_unit()


# ------------------------------------------------------------- eigenvalues


def test_epsilon_is_diagonal_with_monomial_eigenvalues():
    rng = seeded("epsilon")
    for d in EUCLIDEAN_DS:
        f = field(d)
        k = 3
        u = f.units()[1]
        for _ in range(5):
            i, j = rng.randint(0, k), rng.randint(0, k)
            P = BiPoly.monomial(f, k, i, j)
            lam = u ** eigen_exponent(f, i, j)
            assert (act_poly(P, epsilon(f)) - P.scaled(lam)).is_zero()


def test_eigen_labels_count_matches_unit_group_order():
    for d in EUCLIDEAN_DS:
        f = field(d)
        assert len(eigen_labels(f)) == len(f.units())


# ---------------------------------------------------------- word operator


def oracle_rows(f, k):
    """Every word's exact matrix, stacked, all-zero rows kept."""
    return [row for word in kernel_words(f) for row in word_matrix(f, word, k)]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_word_matrix_mod_p_equals_the_exact_matrix_reduced(k):
    for d in EUCLIDEAN_DS:
        f = field(d)
        op = WordOperator(f, k)
        rows = oracle_rows(f, k)
        primes = split_primes(f, 2)
        for p in primes:
            assert np.array_equal(word_operator_mod(op, p), pairs_mod(f, as_pairs(rows), p)), (d, k, p)
        # the oracle's stacked matrix is the same rows without the zero ones
        mod = word_operator_mod(op, primes[0])
        kept = pairs_mod(f, as_pairs(stacked_word_matrix(f, k)), primes[0])
        assert np.array_equal(mod[np.any(mod, axis=1)], kept)


@pytest.mark.parametrize("k", [1, 3, 5])
def test_rows_on_demand_equal_the_exact_matrix(k):
    """The named columns under either image of omega, from the factors as
    the operator reduces them (swapped for the second root), equal the
    exact matrix reduced the same way, on every row and on random picks of
    rows and columns."""
    rng = seeded(f"word-rows-{k}")
    for d in EUCLIDEAN_DS:
        f = field(d)
        op = WordOperator(f, k)
        rows = oracle_rows(f, k)
        assert op.nrows == len(rows)
        every = list(range(op.size))
        picked = rng.sample(range(op.nrows), 7)
        cols = sorted(rng.sample(every, min(5, op.size)))
        p = split_primes(f, 1)[0]
        for second, w in zip((False, True), omega_roots(f, p)):
            exact = pairs_mod(f, as_pairs(rows), p, w)
            assert np.array_equal(word_operator_mod(op, p, every, second), exact)
            assert np.array_equal(word_operator_mod(op, p, cols, second)[picked], exact[np.ix_(picked, cols)])


def test_annihilates_agrees_with_the_word_action():
    """The exact oracle `annihilates` and `in_kernel` on every column agree
    with the exact matrix on basis vectors, each with one random term
    added."""
    rng = seeded("word-annihilates")
    for d in EUCLIDEAN_DS:
        f = field(d)
        for k in (1, 3):
            op = WordOperator(f, k)
            every = list(range(op.size))
            rows = oracle_rows(f, k)
            rep = wkk(f, k)
            for P in rep.basis:
                assert annihilates(f, k, support(P)[1])
                Q = P + rand_bipoly(rng, f, k, terms=1)
                want = matvec_is_zero(f, rows, poly_to_vector(Q))
                entries = {flat_index(k, i, j): xy for (i, j), xy in support(Q)[1]}
                vec = [entries.get(c, ZERO) for c in every]
                assert annihilates(f, k, support(Q)[1]) == op.in_kernel(every, [vec]) == want


def test_annihilates_checks_the_words_after_s():
    """Vectors that the S word kills, lifted from random upper coordinates:
    `annihilates` and `in_kernel` agree with the loop oracle over every
    word, so they reject those that a later word does not kill."""
    rng = seeded("annihilates-after-s")
    rejected = 0
    for d in EUCLIDEAN_DS:
        f = field(d)
        for k in (1, 2, 3, 4):
            op = WordOperator(f, k)
            every = list(range(op.size))
            words = factored_words(f, k)
            for _ in range(3):
                u = [(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in op.upper(every)]
                v = op.lifting(every)(u)
                supp = as_support(k, every, v)
                grids = [word_action_loop(f, word, supp, k + 1) for word in words]
                assert not any(x or y for row in grids[0] for x, y in row)
                want = not any(x or y for grid in grids for row in grid for x, y in row)
                assert annihilates(f, k, supp) == op.in_kernel(every, [v]) == want, (d, k)
                rejected += not want
    assert rejected


BIG = 2**100


def assert_action_matches_the_loop(f, k, words, supp):
    """`apply_word` on the polynomial with support `supp` equals the loop
    oracle on each of `words`, in Python ints."""
    P = from_support(f, k, supp, 1)
    for w, word in enumerate(words):
        den, got = support(apply_word(P, word))
        assert den == 1
        assert all(type(c) is int for _, xy in got for c in xy)
        want = word_action_loop(f, [(sign, *factor_pair(f, g, k)) for sign, g in word], supp, k + 1)
        assert got == [((p, q), tuple(want[p][q])) for p in range(k + 1) for q in range(k + 1)
                       if want[p][q] != [0, 0]], (f.d, k, w)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    d=st.sampled_from(EUCLIDEAN_DS),
    k=st.integers(0, 13),
    words=st.lists(
        st.lists(st.tuples(st.sampled_from([1, -1]), st.lists(st.integers(0, 5), max_size=6)),
                 min_size=1, max_size=4),
        min_size=1, max_size=3,
    ),
    entries=st.lists(
        st.tuples(st.integers(0, 13), st.integers(0, 13), st.integers(-BIG, BIG), st.integers(-BIG, BIG)),
        max_size=24,
    ),
)
def test_word_action_equals_the_loop_oracle(d, k, words, entries):
    """Random signed words in S, T, T_omega and their inverses, several
    per example, on supports with entries up to 2^100 in absolute
    value: int64 arithmetic anywhere would wrap and fail."""
    f = field(d)
    alphabet = gens(f) + [gen_S(f).inverse(), gen_T(f).inverse()]
    group_words = []
    for word in words:
        elements = []
        for sign, letters in word:
            g = identity(f)
            for i in letters:
                g = g @ alphabet[i]
            elements.append((sign, g))
        group_words.append(elements)
    supp = list({(i % (k + 1), j % (k + 1)): (x, y) for i, j, x, y in entries}.items())
    assert_action_matches_the_loop(f, k, group_words, supp)


def test_word_action_at_k81_equals_the_loop_oracle():
    """Every kernel word of O_11 at k = 81, where the factors reach 2^167,
    on a sparse support with entries near 2^100."""
    rng = seeded("word-action-81")
    f, k = field(11), 81
    supp = [((rng.randint(0, k), rng.randint(0, k)), (rng.randint(-BIG, BIG), rng.randint(-BIG, BIG)))
            for _ in range(4)]
    supp = list(dict(supp).items())
    assert max(abs(c) for word in factored_words(f, k) for _, az, _ in word
               for row in az for pair in row for c in pair).bit_length() > 160
    assert_action_matches_the_loop(f, k, kernel_words(f), supp)


def test_height_bound_equals_the_row_sum_loop():
    """`height_bound` for k <= 13 equals c_d * R written out as polynomial
    loops: rho_g the coefficients of sum_i (m_a z + m_b)^i (m_c z +
    m_e)^(k-i), m(q) the least integer at least |q| = sqrt(N(q)), and R
    the largest over the words and (r, s) of sum_g rho_g[r] * rho_g[s].
    Each rho_g[r] bounds the complex row sum of the z factor of g."""

    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    def power(lin, e):
        out = [1]
        for _ in range(e):
            out = mul(out, lin)
        return out

    def ceil_sqrt(n):
        m = 0
        while m * m < n:
            m += 1
        return m

    for d in EUCLIDEAN_DS:
        f = field(d)
        n = f.norm_coeff
        # (1 + 2 sqrt(n/|d_K|)) (1 + sqrt(n)) is 0.03 or more from an integer
        # in each ring, so the float ceiling is exact
        c = math.ceil((1 + 2 * math.sqrt(n / f.abs_disc)) * (1 + math.sqrt(n)))
        for k in range(14):
            best = 0
            for word in kernel_words(f):
                rhos = []
                for _, g in word:
                    ma, mb, mc, me = (ceil_sqrt(q.norm()) for q in g.entries())
                    rho = [0] * (k + 1)
                    for i in range(k + 1):
                        for r, x in enumerate(mul(power([mb, ma], i), power([me, mc], k - i))):
                            rho[r] += x
                    for r, row in enumerate(factors(f, g, k)):
                        assert sum(math.sqrt(f.norm_int(*q)) for q in row) <= rho[r] * (1 + 1e-9)
                    rhos.append(rho)
                best = max(best, *(sum(rho[r] * rho[s] for rho in rhos)
                                   for r in range(k + 1) for s in range(k + 1)))
            op = WordOperator(f, k)
            assert op.height_bound(7) == c * best * 7, (d, k)
            assert type(op.height_bound(1)) is int


def test_reductions_equal_each_factor_reduced():
    """The factors `reduced_mod` works on, for k <= 13: each element's z
    factor and zbar factor (the conjugate) equal its pairs reduced under
    the first root, and the zbar factor is the z factor reduced under the
    second root, the identity `swap` rests on."""
    for d in EUCLIDEAN_DS:
        f = field(d)
        p = split_primes(f, 1)[0]
        w2 = omega_roots(f, p)[1]
        for k in range(14):
            op = WordOperator(f, k)
            factored = [(az, azb) for word in factored_words(f, k) for _, az, azb in word]
            a, b = op._reduced(p)
            assert a.dtype == b.dtype == np.int64
            for g, (az, azb) in enumerate(factored):
                assert np.array_equal(a[g], pairs_mod(f, az, p)), (d, k, g)
                assert np.array_equal(b[g], pairs_mod(f, azb, p)), (d, k, g)
                assert np.array_equal(b[g], pairs_mod(f, az, p, w2)), (d, k, g)


def test_values_at_the_nodes_are_the_factors_evaluated():
    """The values `in_kernel` works on, for k <= 13: entry [g, s, j] of the
    z factors (zbar factors) is column j of the z factor (zbar factor) of
    element g evaluated at s, mod p under the first root, and the zbar
    factors' values are the z factor's under the second root."""
    for d in EUCLIDEAN_DS:
        f = field(d)
        p = split_primes(f, 1)[0]
        w2 = omega_roots(f, p)[1]
        for k in range(14):
            op = WordOperator(f, k)
            powers = np.array([[pow(s, i, p) for i in range(k + 1)] for s in range(k + 1)], dtype=object)
            factored = [(az, azb) for word in factored_words(f, k) for _, az, azb in word]
            a, b = op._at_nodes(p)[:, op.same_as]
            assert a.dtype == b.dtype == np.int64
            for g, (az, azb) in enumerate(factored):
                for got, factor, w in ((a[g], az, None), (b[g], azb, None), (b[g], az, w2)):
                    want = powers @ pairs_mod(f, factor, p, w).astype(object) % p
                    assert np.array_equal(got, want.astype(np.int64)), (d, k, g)


def test_values_are_kept_only_beside_the_coefficients():
    """A proof at primes the operator reduces no rows at (every prime of
    `membership`) leaves no values behind; a prime it reduces rows at keeps
    its coefficients and their values, which equal a fresh operator's."""
    for d in EUCLIDEAN_DS:
        f = field(d)
        op, cols, v = kernel_vectors(f, 11)[0]
        assert op.in_kernel(cols, [v])
        assert not op._values and not op._reductions, d
        p = split_primes(f, 2)[1]
        op._reduced(p)
        assert set(op._values) == set(op._reductions) == {p}, d
        assert np.array_equal(op._at_nodes(p), WordOperator(f, 11)._at_nodes(p)), d


def kernel_vectors(f, k):
    """(operator, cols, v) for every basis vector v of W_{k,k}, on the
    columns `cols` of its eigenspace."""
    op = WordOperator(f, k)
    rep = wkk(f, k)
    labels = [e for e, lab in enumerate(eigen_labels(f)) for _ in range(rep.dims[lab])]
    out = []
    for e, P in zip(labels, rep.basis, strict=True):
        cols = eigen_columns(f, k, e)
        den, supp = support(P)
        assert den == 1
        entries = {flat_index(k, i, j): pair for (i, j), pair in supp}
        out.append((op, cols, [entries.get(c, ZERO) for c in cols]))
    return out


def as_support(k, cols, v):
    return [(divmod(c, k + 1), e) for c, e in zip(cols, v) if e != ZERO]


@pytest.mark.parametrize("d", EUCLIDEAN_DS)
def test_in_kernel_agrees_with_the_word_action(d):
    """The check by reductions accepts every basis vector for odd k <= 11,
    and agrees with `annihilates` once one entry is changed."""
    rng = seeded(f"in-kernel-{d}")
    f = field(d)
    for k in range(1, 12, 2):
        for op, cols, v in kernel_vectors(f, k):
            assert op.in_kernel(cols, [v]) and annihilates(f, k, as_support(k, cols, v))
            for _ in range(2):
                w = list(v)
                c = rng.randrange(len(cols))
                w[c] = (w[c][0] + rng.randint(-3, 3), w[c][1] + rng.choice([-1, 1]) * rng.randint(0, 2))
                assert op.in_kernel(cols, [w]) == annihilates(f, k, as_support(k, cols, w)), (k, c)


def test_height_bound_bounds_the_word_action():
    """Every coefficient of the word action is at most `height_bound` in
    both parts, on random vectors: by the loop oracle for k <= 5, and by
    `apply_word` at k = 11 in every ring and at k = 25 in O_11."""
    rng = seeded("height-bound")
    cases = [(d, k) for d in EUCLIDEAN_DS for k in (1, 3, 5)]
    cases += [(d, 11) for d in EUCLIDEAN_DS] + [(11, 25)]
    for d, k in cases:
        f = field(d)
        op = WordOperator(f, k)
        n = k + 1
        for _ in range(6):
            span = rng.choice([1, 7, 2**40])
            supp = [((i, j), (rng.randint(-span, span), rng.randint(-span, span)))
                    for i in range(n) for j in range(n)]
            norm = max(max(abs(x), abs(y)) for _, (x, y) in supp)
            if k <= 5:
                top = max(abs(c) for word in factored_words(f, k)
                          for row in word_action_loop(f, word, supp, n) for xy in row for c in xy)
            else:
                P = from_support(f, k, supp, 1)
                top = max(abs(c) for word in kernel_words(f)
                          for _, xy in support(apply_word(P, word))[1] for c in xy)
            assert 0 < top <= op.height_bound(norm), (d, k)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(d=st.sampled_from(EUCLIDEAN_DS), k=st.sampled_from([1, 3]), m=st.integers(1, 4), pick=st.randoms())
def test_in_kernel_rejects_multiples_of_the_first_primes(d, k, m, pick):
    """A kernel vector plus (p_1 ... p_m) e_c: its M v is a nonzero
    multiple of the product of the first m split primes, so it vanishes
    mod each of them under both roots; only the height bound, which asks
    for more primes, lets the check reject it."""
    f = field(d)
    op, cols, v = pick.choice(kernel_vectors(f, k))
    c = pick.randrange(len(cols))
    primes = split_primes(f, m)
    w = list(v)
    w[c] = (w[c][0] + math.prod(primes), w[c][1])
    assert not annihilates(f, k, as_support(k, cols, w))
    for p in primes:
        for second, root in zip((False, True), omega_roots(f, p)):
            image = np.array([(x + y * root) % p for x, y in w], dtype=object)
            assert not (word_operator_mod(op, p, cols, second).astype(object) @ image % p).any()
    assert not op.in_kernel(cols, [w])


def test_in_kernel_needs_both_roots():
    """A kernel vector plus pi e_c, pi in the prime ideals above the first
    m primes that belong to their first roots: M v vanishes under those
    roots at every prime the check uses, so only the second root refutes
    it."""
    m = 6
    for d in EUCLIDEAN_DS:
        f = field(d)
        pi = generator_of_first_ideals(f, m)
        for p in split_primes(f, m):
            assert (pi[0] + pi[1] * omega_roots(f, p)[0]) % p == 0
        for k in (1, 3):
            op, cols, v = kernel_vectors(f, k)[0]
            w = list(v)
            w[0] = (w[0][0] + pi[0], w[0][1] + pi[1])
            norm = max(max(abs(x), abs(y)) for x, y in w)
            assert len(linalg.primes_exceeding(f, 2 * op.height_bound(norm))) <= m
            assert not annihilates(f, k, as_support(k, cols, w))
            assert not op.in_kernel(cols, [w]), (d, k)


def eigen_bases(f, k):
    """(operator, cols, basis) for each nonempty eigenspace of W_{k,k},
    the basis vectors on the columns `cols` of the eigenspace."""
    grouped = {}
    for op, cols, v in kernel_vectors(f, k):
        grouped.setdefault(tuple(cols), (op, cols, []))[2].append(v)
    return list(grouped.values())


def test_in_kernel_refutes_a_basis_whose_last_vector_alone_is_wrong():
    """`in_kernel` proves an eigenspace's basis in one call, and refutes it
    once its last vector alone is changed at one entry, by 1 or by pi, an
    element of the prime ideals above the first m split primes that belong
    to their first roots (omega - w1 for one prime): the second change
    vanishes under the first root at every prime the check uses, so only
    the second root's grid of the last vector refutes it."""
    m = 6
    tried = 0
    for d in EUCLIDEAN_DS:
        f = field(d)
        pi = generator_of_first_ideals(f, m)
        for k in (3, 5, 7):
            for op, cols, basis in eigen_bases(f, k):
                assert op.in_kernel(cols, basis), (d, k)
                if len(basis) < 2:
                    continue
                for step in ((1, 0), pi):
                    w = list(basis[-1])
                    w[0] = (w[0][0] + step[0], w[0][1] + step[1])
                    norm = max(max(abs(x), abs(y)) for v in [*basis, w] for x, y in v)
                    assert len(linalg.primes_exceeding(f, 2 * op.height_bound(norm))) <= m
                    assert not annihilates(f, k, as_support(k, cols, w))
                    assert not op.in_kernel(cols, [*basis[:-1], w]), (d, k, step)
                    tried += 1
    assert tried > 0


@pytest.mark.parametrize("d", EUCLIDEAN_DS)
def test_in_kernel_of_a_list_is_all_of_in_kernel_of_each(d):
    """`in_kernel` of a list of vectors, with one height bound from their
    largest entry, answers as `all` of `in_kernel` of each: an eigenspace
    basis with any one vector changed at a random entry, by a small step
    or by the product of the first two split primes (which only a bound
    asking for a third prime refutes), and the basis itself."""
    rng = seeded(f"in-kernel-list-{d}")
    f = field(d)
    big = math.prod(split_primes(f, 2))
    verdicts = set()
    for k in (3, 7):
        for op, cols, basis in eigen_bases(f, k):
            cases = [basis]
            for i in range(len(basis)):
                for step in ((rng.randint(-2, 2), rng.randint(-1, 1)), (big, 0)):
                    vecs = [list(v) for v in basis]
                    c = rng.randrange(len(cols))
                    vecs[i][c] = (vecs[i][c][0] + step[0], vecs[i][c][1] + step[1])
                    cases.append(vecs)
            for vecs in cases:
                want = all(op.in_kernel(cols, [v]) for v in vecs)
                assert op.in_kernel(cols, vecs) == want, (k, len(vecs))
                verdicts.add(want)
    assert verdicts == {True, False}


def test_exact_wkk_never_proves_at_the_first_split_prime(monkeypatch):
    """`WordOperator.kernel` settles the first split prime p1 of every
    proof against the rows M[R] it keeps there, so over `wkk` in every ring
    at every odd k <= 11 `in_kernel` runs its word sums only at later
    primes, and some proofs need them."""
    primes = []
    word_sums = WordOperator._word_sums

    def recorded(self, stack, cols, vecs):
        primes.extend(stack)
        return word_sums(self, stack, cols, vecs)

    monkeypatch.setattr(WordOperator, "_word_sums", recorded)
    for d in EUCLIDEAN_DS:
        f = field(d)
        p1 = split_primes(f, 1)[0]
        primes.clear()
        for k in range(1, 12, 2):
            wkk(f, k)
        assert primes and p1 not in primes, d


def test_exact_wkk_refutes_no_candidate_and_never_restarts(monkeypatch):
    """Over `wkk` in every ring at every odd k <= 11, every candidate that
    `certified_kernel` sends to the exact check passes, so no later prime
    eliminates all of M: `linalg._eliminate` covers every row at the first
    split prime alone, and at later primes only the rows kept before."""
    verdicts, primes = [], []
    certified, eliminate = linalg.certified_kernel, linalg._eliminate

    def recorded(f, mod, second, annihilates, first):
        def check(u):
            verdicts.append(annihilates(u))
            return verdicts[-1]

        return certified(f, mod, second, check, first)

    def elimination(mod, p, rows=None):
        primes.append((p, rows is None))
        return eliminate(mod, p, rows)

    monkeypatch.setattr(linalg, "certified_kernel", recorded)
    monkeypatch.setattr(linalg, "_eliminate", elimination)
    later = 0
    for d in EUCLIDEAN_DS:
        f = field(d)
        verdicts.clear()
        primes.clear()
        for k in range(1, 12, 2):
            wkk(f, k)
        assert verdicts and all(verdicts), d
        p1 = split_primes(f, 1)[0]
        assert {p for p, whole in primes if whole} == {p1}, d
        later += sum(p != p1 for p, _ in primes)
    # some kernels reach a later prime, and eliminate the rows kept there
    assert later > 0


def test_first_prime_refutes_a_changed_vector_before_in_kernel(monkeypatch):
    """Each candidate u of `WordOperator.kernel` is checked mod the first
    split prime p1 against the rows M[R] kept there before `in_kernel`
    runs: every basis vector passes, and one with an entry changed by 1 at
    a column that is nonzero mod p1 under w1, or by omega - w1 (0 under w1)
    at a column whose image under w2 is nonzero, is refuted there, under
    w1 and under w2 respectively, with no `in_kernel`."""
    seen = []
    certified = linalg.certified_kernel

    def recorded(f, mod, second, annihilates, first):
        out = certified(f, mod, second, annihilates, first)
        seen.append((annihilates, first.p, out))
        return out

    def forbidden(*args):
        raise AssertionError("in_kernel ran on a vector refuted at p1")

    monkeypatch.setattr(linalg, "certified_kernel", recorded)
    refuted = 0
    for d in EUCLIDEAN_DS:
        f = field(d)
        for k in (5, 9, 11):
            op = WordOperator(f, k)
            cols = eigen_columns(f, k, 0)
            seen.clear()
            op.kernel(cols)
            ((annihilates, p, block),) = seen
            assert annihilates(block), (d, k)
            w1 = omega_roots(f, p)[0]
            nonzero = op.reduced_mod(p, cols).any(axis=0)
            at, _ = op.swap(cols)
            with monkeypatch.context() as patched:
                patched.setattr(WordOperator, "in_kernel", forbidden)
                for u in block:
                    for c in range(len(u)):
                        for step, live in (((1, 0), nonzero[c]), ((-w1, 1), nonzero[at[c]])):
                            if live:
                                v = list(u)
                                v[c] = (v[c][0] + step[0], v[c][1] + step[1])
                                assert not annihilates([v]), (d, k, c, step)
                                refuted += 1
    assert refuted > 0


def test_first_prime_refutes_a_basis_with_one_changed_vector_before_in_kernel(monkeypatch):
    """The exact check that `WordOperator.kernel` gives `certified_kernel`
    takes the whole candidate basis, and checks all of it mod the first
    split prime p1 in one product (`_first_settles`) before `in_kernel`:
    with any one vector changed by 1 at a column that is nonzero mod p1,
    the basis is refuted there and `in_kernel` is not called."""
    seen = []
    certified = linalg.certified_kernel

    def recorded(f, mod, second, annihilates, first):
        out = certified(f, mod, second, annihilates, first)
        seen.append((annihilates, first.p, out))
        return out

    def forbidden(*args):
        raise AssertionError("in_kernel ran on a basis refuted at p1")

    monkeypatch.setattr(linalg, "certified_kernel", recorded)
    refuted = 0
    for d in EUCLIDEAN_DS:
        f = field(d)
        for k in (5, 9, 11):
            op = WordOperator(f, k)
            cols = eigen_columns(f, k, 0)
            seen.clear()
            op.kernel(cols)
            ((annihilates, p, block),) = seen
            c = int(op.reduced_mod(p, cols).any(axis=0).argmax())
            with monkeypatch.context() as patched:
                patched.setattr(WordOperator, "in_kernel", forbidden)
                for i in range(len(block)):
                    changed = [list(u) for u in block]
                    changed[i][c] = (changed[i][c][0] + 1, changed[i][c][1])
                    assert not annihilates(changed), (d, k, i)
                    refuted += i > 0
    assert refuted > 0


# ------------------------------------------------ the S relation in closed form


def mirror_classes(f, k):
    """(closed, open): the exponents whose eigenspace columns are closed
    under (i, j) -> (k-i, k-j), and the others."""
    units = len(eigen_labels(f))
    closed = [e for e in range(units) if (-e) % units == e]
    return closed, [e for e in range(units) if e not in closed]


def explicit_lift(k, cols):
    """L as a len(cols) x h integer matrix, written out from the S relation
    v[k-i, k-j] = -(-1)^(i+j) v[i, j]: one column per (i, j) of `cols`
    whose flat index exceeds its mirror's, ascending, with 1 there and the
    sign at the mirror."""
    pos = {c: r for r, c in enumerate(cols)}
    upper = [c for c in cols if c > flat_index(k, k - c // (k + 1), k - c % (k + 1))]
    L = np.zeros((len(cols), len(upper)), dtype=np.int64)
    for u, c in enumerate(upper):
        i, j = divmod(c, k + 1)
        L[pos[c], u] = 1
        L[pos[flat_index(k, k - i, k - j)], u] = -((-1) ** (i + j))
    return L


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_reduced_matrix_is_the_words_after_s_times_the_lift(k):
    """The first word is 1 + S with S the signed mirror, and `reduced_mod`
    equals the exact matrix of the other words times the explicit lift,
    on every column and on each mirror-closed eigenspace; under the second
    root the exact product is the block with the signed permutation of
    `swap`."""
    n, size = k + 1, (k + 1) ** 2
    s_word = np.eye(size, dtype=np.int64)
    for i in range(n):
        for j in range(n):
            s_word[flat_index(k, k - i, k - j), flat_index(k, i, j)] += (-1) ** (i + j)
    for d in EUCLIDEAN_DS:
        f = field(d)
        op = WordOperator(f, k)
        rows = oracle_rows(f, k)
        assert [[(e.x, e.y) for e in row] for row in rows[:size]] == [
            [(int(x), 0) for x in row] for row in s_word
        ]
        p = split_primes(f, 1)[0]
        closed, _ = mirror_classes(f, k)
        swapped = swapped_rows(op)
        for cols in [list(range(size))] + [eigen_columns(f, k, e) for e in closed]:
            assert op.mirror_closed(cols)
            L = explicit_lift(k, cols)
            block = op.reduced_mod(p, cols)
            at, sign = op.swap(cols)
            for w, want in zip(omega_roots(f, p), (block, block[swapped][:, at] * sign % p)):
                rest = pairs_mod(f, as_pairs(rows[size:]), p, w)[:, cols]
                assert np.array_equal(want, rest @ L % p), (d, k, w)


def test_mirror_open_eigenspaces_need_no_reduction(monkeypatch):
    """On columns not closed under the mirror, `kernel` returns [] without
    a single reduction, at odd k <= 11; for k <= 3 the kernel oracle on the
    exact matrix agrees."""

    def refuse(*args):
        raise AssertionError("a mirror-open block was reduced")

    for d in (1, 3):
        f = field(d)
        for k in (1, 3):
            _, open_ = mirror_classes(f, k)
            rows = oracle_rows(f, k)
            for e in open_:
                cols = eigen_columns(f, k, e)
                assert linalg.quad_kernel(f, [[row[c] for c in cols] for row in rows]) == []
    monkeypatch.setattr(WordOperator, "_reduced", refuse)
    for d in (1, 3):
        f = field(d)
        for k in range(1, 12, 2):
            op = WordOperator(f, k)
            _, open_ = mirror_classes(f, k)
            assert len(open_) == (2 if d == 1 else 4)
            for e in open_:
                cols = eigen_columns(f, k, e)
                assert not op.mirror_closed(cols) or cols == []
                assert op.s_forces_zero(cols) and op.kernel(cols) == [], (d, k, e)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_kernel_equals_the_gauss_jordan_oracle(k):
    """`kernel` on every column and on each eigenspace, odd and even k,
    equals Gauss-Jordan over K on the exact matrix of every word."""
    for d in EUCLIDEAN_DS:
        f = field(d)
        op = WordOperator(f, k)
        rows = oracle_rows(f, k)
        blocks = [list(range(op.size))] + [eigen_columns(f, k, e) for e in range(len(eigen_labels(f)))]
        for cols in blocks:
            want = linalg.quad_kernel(f, [[row[c] for c in cols] for row in rows])
            assert op.kernel(cols) == [as_support(k, cols, v) for v in want], (d, k, cols)


@pytest.mark.parametrize("d, k", [(1, 3), (2, 3), (3, 4), (7, 3), (11, 3)])
def test_in_kernel_checks_the_s_word(d, k):
    """`in_kernel` rejects a vector that every word after S kills, taken
    from the exact kernel of those words alone, and a lifted basis vector
    with the sign of one lower mirror entry flipped."""
    f = field(d)
    op = WordOperator(f, k)
    every = list(range(op.size))
    rest = oracle_rows(f, k)[op.size:]
    outside = [v for v in linalg.quad_kernel(f, rest) if not annihilates(f, k, as_support(k, every, v))]
    assert outside
    for v in outside:
        supp = as_support(k, every, v)
        assert all(x == y == 0 for word in factored_words(f, k)[1:] for row in word_action_loop(f, word, supp, k + 1)
                   for x, y in row)
        assert not op.in_kernel(every, [v])
    for op, cols, v in kernel_vectors(f, k):
        lower = [r for r, c in enumerate(cols) if 2 * c < op.size - 1 and v[r] != ZERO]
        assert lower
        for r in lower[:3]:
            w = list(v)
            w[r] = (-w[r][0], -w[r][1])
            s_word = word_action_loop(f, factored_words(f, k)[0], as_support(k, cols, w), k + 1)
            assert any(x or y for row in s_word for x, y in row)
            assert not op.in_kernel(cols, [w]), r


def test_modular_total_equals_the_least_over_every_rank_prime():
    """The total of `wkk`, proven by the sandwich or the full kernel, is
    the least kernel dimension of the full block that `quad_rank_modular`
    finds over the RANK_PRIMES primes, in every ring at every k <= 13."""
    for d in EUCLIDEAN_DS:
        f = field(d)
        for k in range(1, 14):
            op = WordOperator(f, k)
            every = list(range(op.size))
            oracle = linalg.quad_rank_modular(f, lambda p: op.reduced_mod(p, every))
            assert wkk(f, k).total == oracle.kernel_dim, (d, k)


def test_modular_dimensions_equal_the_least_over_each_whole_eigenspace_block():
    """Each eigenspace dimension of `wkk`, whose first prime is read from
    the rows that span the full block there, equals `quad_rank_modular`
    on the whole eigenspace block, in every ring at every k <= 15."""
    for d in EUCLIDEAN_DS:
        f = field(d)
        for k in range(1, 16):
            op = WordOperator(f, k)
            dims = wkk(f, k).dims
            for e, lab in enumerate(eigen_labels(f)):
                cols = eigen_columns(f, k, e)
                want = 0 if op.s_forces_zero(cols) else linalg.quad_rank_modular(
                    f, lambda p: op.reduced_mod(p, cols)
                ).kernel_dim
                assert dims[lab] == want, (d, k, lab)


def test_the_first_reduction_holds_every_eigenspace_block():
    """At the first split prime p1, in every ring at every k <= 15, the
    operator keeps R, the pivot rows of the full block's transpose, those
    rows M[R], and K, a basis of the block's kernel mod p1 with c - |R|
    vectors.  Each mirror-closed eigenspace block is a column slice of the
    full block, its R rows are M[R]'s slice and have its rank, and its
    first-prime basis, read from K, is the oracle `kernel_mod` of the
    whole block at p1, with |E| - rank_mod vectors: the full block's too."""
    for d in EUCLIDEAN_DS:
        f = field(d)
        p = split_primes(f, 1)[0]
        for k in range(1, 16):
            op = WordOperator(f, k)
            every = list(range(op.size))
            block = op.reduced_mod(p, every)
            rank, span = linalg.echelon_mod(block.T, p)
            whole = op._first_slice(every)
            kept, kernel = op._first.mat, op._first.kernel
            assert (whole.p, whole.rows) == (p, span) and len(span) == rank
            assert np.array_equal(kept, block[list(span)]) and np.array_equal(whole.mat, kept)
            assert np.array_equal(whole.kernel, kernel)
            assert kernel.shape == (block.shape[1] - rank, block.shape[1]), (d, k)
            assert linalg.rank_mod(kernel, p) == len(kernel), (d, k)
            assert not linalg.matmul_mod(block, kernel.T.copy(), p).any(), (d, k)
            upper = op.upper(every)
            for e, cols in [(None, every)] + [(e, eigen_columns(f, k, e)) for e in range(len(eigen_labels(f)))]:
                if op.s_forces_zero(cols):
                    continue
                eigen = op.reduced_mod(p, cols)
                assert np.array_equal(block[:, [upper.index(c) for c in op.upper(cols)]], eigen), (d, k, e)
                first = op._first_slice(cols)
                rows = first.mat
                assert first.rows == span and np.array_equal(rows, eigen[list(span)]), (d, k, e)
                basis, pivots = linalg.kernel_mod_from_span(first.kernel, p)
                eigen_rank = linalg.rank_mod(eigen, p)
                assert linalg.rank_mod(rows, p) == eigen_rank, (d, k, e)
                # the kernel of E's rows that span it mod p1 is E's
                want, want_pivots = kernel_mod(eigen[list(linalg.echelon_mod(eigen.T, p)[1])], p)
                assert np.array_equal(basis, want) and pivots == want_pivots, (d, k, e)
                assert len(basis) == eigen.shape[1] - eigen_rank, (d, k, e)


def test_wkk_reduces_the_first_split_prime_once(monkeypatch):
    """`wkk` reduces the block at the first split prime once per call, in
    every ring at k <= 7; `membership`, which needs no kernel, never
    reduces it."""
    calls = []
    reduced_mod = WordOperator.reduced_mod

    def counted(self, p, cols, rows=None):
        calls.append(p)
        return reduced_mod(self, p, cols, rows)

    monkeypatch.setattr(WordOperator, "reduced_mod", counted)
    for d in EUCLIDEAN_DS:
        f = field(d)
        first = split_primes(f, 1)[0]
        for k in range(1, 8):
            calls.clear()
            wkk(f, k)
            assert calls.count(first) == 1, (d, k)
            calls.clear()
            if k % 2:
                assert membership(expand_P(f, k, smallest_nonnorm(d)))
            assert calls == [], (d, k)


def swapped_rows(op):
    """Row (word, s, r) of the reduced block at each row (word, r, s)."""
    n = op.k + 1
    word, rs = np.divmod(np.arange(op.nrows - op.size), op.size)
    r, s = np.divmod(rs, n)
    return word * op.size + s * n + r


def test_the_second_root_block_is_a_signed_permutation_of_the_first():
    """Under the second root, the exact M_rest L reduced (`words_mod` times
    the explicit lift) is `reduced_mod` with rows (word, r, s) and (word,
    s, r) swapped and its columns permuted with signs by `swap`, on the
    full block and every mirror-closed eigenspace, in every ring at every
    k <= 15 and the first two split primes; and the rows on demand are the
    full block's rows, in any order.  Columns not closed under the
    transpose have no such permutation."""
    rng = seeded("second-root-block")
    for d in EUCLIDEAN_DS:
        f = field(d)
        for k in range(1, 16):
            op = WordOperator(f, k)
            closed, _ = mirror_classes(f, k)
            swapped = swapped_rows(op)
            rests = {p: words_mod(f, k, p, omega_roots(f, p)[1])[op.size :] for p in split_primes(f, 2)}
            for cols in [list(range(op.size))] + [eigen_columns(f, k, e) for e in closed]:
                if op.s_forces_zero(cols):
                    continue
                at, sign = op.swap(cols)
                assert sorted(at.tolist()) == list(range(len(op.upper(cols))))
                lift = explicit_lift(k, cols)
                for p, rest in rests.items():
                    first = op.reduced_mod(p, cols)
                    second = rest[:, cols] @ lift % p
                    assert np.array_equal(second, first[swapped][:, at] * sign % p), (d, k, p)
                    picked = rng.sample(range(len(first)), min(9, len(first)))
                    assert np.array_equal(op.reduced_mod(p, cols, picked), first[picked]), (d, k, p)
            # closed under the mirror but, for k > 1, not the transpose:
            # z^0 zbar^1 and its mirror
            if k > 1:
                with pytest.raises(ValueError):
                    op.swap([flat_index(k, 0, 1), flat_index(k, k, k - 1)])


def test_in_kernel_sums_the_second_root_as_the_first_root_transposed():
    """The word sums that `in_kernel` checks: [0] is each word's sum under
    the first root on v mod (p, w1), and the transpose of [1] is its sum
    under the second root on v mod (p, w2), each summed here from the
    values under that root (under the second, the z and zbar values trade
    places: `test_values_at_the_nodes_are_the_factors_evaluated`); five
    rings, k in {1, 4, 7, 12}, random vectors on random columns, at two
    primes passed as one stack: each prime's slice of the stacked sums is
    summed here from that prime's own values."""
    rng = seeded("word-sums-transposed")
    for d in EUCLIDEAN_DS:
        f = field(d)
        for k in (1, 4, 7, 12):
            op = WordOperator(f, k)
            n = k + 1
            cols = sorted(rng.sample(range(op.size), min(op.size, 12)))
            vec = [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in cols]
            primes = split_primes(f, 2)
            stacked = op._word_sums(primes, cols, [vec])
            assert stacked.shape == (2, 2, 1, len(op.words), n, n)
            for p, sums in zip(primes, stacked[:, :, 0]):
                values = op._at_nodes(p)[:, op.same_as]
                under = zip((sums[0], sums[1].transpose(0, 2, 1)), omega_roots(f, p), (values, values[::-1]))
                for got, w, (a, b) in under:
                    grid = np.zeros((n, n), dtype=np.int64)
                    for c, (x, y) in zip(cols, vec):
                        grid[divmod(c, n)] = (x + y * w) % p
                    for word, want in zip(op.words, got):
                        total = np.zeros((n, n), dtype=object)
                        for g in range(word.start, word.stop):
                            total += op.signs[g] * (a[g].astype(object) @ grid @ b[g].T.astype(object))
                        assert np.array_equal(total % p, want), (d, k, p, w)


def symmetric_change(k, cols, v, c, t):
    """v plus the real step t at column c = (i, j) and at (j, i)."""
    i, j = divmod(c, k + 1)
    w = list(v)
    for u in {cols.index(c), cols.index(flat_index(k, j, i))}:
        w[u] = (w[u][0] + t, w[u][1])
    return w


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(d=st.sampled_from(EUCLIDEAN_DS), k=st.sampled_from([1, 4, 7, 12]), pick=st.randoms())
def test_one_root_answers_as_both_roots_and_the_word_action_property(d, k, pick):
    """A real vector with a symmetric grid, a basis vector of W_{k,k} or
    the same with a real step at (i, j) and at (j, i) (small, or the
    product of the first two split primes, which vanishes mod both), gets
    the same `in_kernel` answer under the first root alone, under both
    roots (`real_symmetric` patched to False) and from the exact word
    action (`annihilates`).  (The basis vectors of the eigenvalue -1 at
    even k have antisymmetric grids, and are left out.)"""
    f = field(d)
    op, cols, v = pick.choice([(op, cols, v) for op, cols, v in kernel_vectors(f, k) if op.real_symmetric(cols, [v])])
    step = pick.choice([pick.randint(1, 3), math.prod(split_primes(f, 2))]) * pick.choice([-1, 1])
    w = symmetric_change(k, cols, v, pick.choice(cols), step)
    for vec in (v, w):
        assert op.real_symmetric(cols, [vec])
        one = op.in_kernel(cols, [vec])
        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(WordOperator, "real_symmetric", lambda self, cols, vecs: False)
            both = op.in_kernel(cols, [vec])
        assert one == both == annihilates(f, k, as_support(k, cols, vec)), (k, step)


def test_word_sums_take_one_root_exactly_for_real_symmetric_vectors(monkeypatch):
    """The root axis of `_word_sums` has length 1 exactly when every
    vector is real with a symmetric grid: a basis vector of W_{k,k} and a
    real symmetric step of it, but not the same with an imaginary part,
    with a real step at (i, j) alone (i != j), with a nonzero real entry
    at (i, j) whose (j, i) is not a column, or beside a real non-symmetric
    vector.  Every proof of `wkk` and of `membership(P_{k,Delta})` at odd
    k <= 11 in the five rings takes one root."""
    for d in EUCLIDEAN_DS:
        f = field(d)
        p = split_primes(f, 1)
        for k in (7, 12):
            op, cols, v = kernel_vectors(f, k)[0]
            off = next(c for c in cols if c // (k + 1) != c % (k + 1))
            u = cols.index(off)
            real = symmetric_change(k, cols, v, off, 2)
            imaginary, one_sided = list(real), list(v)
            imaginary[u] = (imaginary[u][0], 1)
            one_sided[u] = (one_sided[u][0] + 1, 0)
            cases = [([v], 1), ([real], 1), ([imaginary], 2), ([one_sided], 2), ([v, one_sided], 2), ([real, v], 1)]
            for vecs, roots in cases:
                assert op._word_sums(p, cols, vecs).shape[1] == roots, (d, k, roots)
            corner, diagonal = flat_index(k, 0, 1), flat_index(k, 1, 1)
            assert op._word_sums(p, [corner], [[(5, 0)]]).shape[1] == 2
            assert op._word_sums(p, [corner], [[ZERO]]).shape[1] == 1
            assert op._word_sums(p, [diagonal], [[(5, 0)]]).shape[1] == 1
    roots = []
    word_sums = WordOperator._word_sums

    def recorded(self, stack, cols, vecs):
        out = word_sums(self, stack, cols, vecs)
        roots.append(out.shape[1])
        return out

    monkeypatch.setattr(WordOperator, "_word_sums", recorded)
    for d in EUCLIDEAN_DS:
        f = field(d)
        for k in range(1, 12, 2):
            wkk(f, k)
            assert membership(expand_P(f, k, smallest_nonnorm(d)))
    assert roots and set(roots) == {1}


def test_first_prime_settles_real_symmetric_bases_under_one_root(monkeypatch):
    """`_first_settles` multiplies the first root's columns alone when every
    u is real with u[at] = sign * u (its lift real and symmetric), as for
    every basis that `wkk` proves, and both roots' columns otherwise; its
    answer is whether the block mod p1 kills u under both roots, the block
    under w2 being the swapped one (`swapped_rows`, `swap`): the basis, a
    real symmetric step of it, a real step at one column alone and a step
    by omega - w1, at k = 7, 9, 11 in the five rings."""
    widths = []
    matmul = linalg.matmul_mod

    def recorded(a, b, p):
        widths.append(b.shape[1])
        return matmul(a, b, p)

    verdicts = set()
    for d in EUCLIDEAN_DS:
        f = field(d)
        for k in (7, 9, 11):
            op, cols, basis = eigen_bases(f, k)[0]
            first = op._first_slice(cols)
            p, at, sign = first.p, *op.swap(cols)
            w1, w2 = omega_roots(f, p)
            block = op.reduced_mod(p, cols).astype(object)
            second = block[swapped_rows(op)][:, at] * sign
            upper = [r for r, c in enumerate(cols) if 2 * c >= op.size]
            bases = [[[u[r] for r in upper] for u in basis]]
            c = next(r for r in range(len(at)) if at[r] != r)
            changed = [list(u) for u in bases[0]]
            changed[-1][c] = (changed[-1][c][0] + 1, 0)
            bases.append([list(u) for u in changed])
            changed[-1][at[c]] = (changed[-1][at[c]][0] + int(sign[c]), 0)
            bases.append(changed)
            last = [(x - w1, y + 1) if r == c else (x, y) for r, (x, y) in enumerate(bases[0][-1])]
            bases.append([*bases[0][:-1], last])
            for vecs, twin in zip(bases, (True, False, True, False)):
                want = all(
                    not (m @ np.array([(x + y * w) % p for x, y in u], dtype=object) % p).any()
                    for u in vecs
                    for m, w in ((block, w1), (second, w2))
                )
                widths.clear()
                with monkeypatch.context() as patched:
                    patched.setattr(linalg, "matmul_mod", recorded)
                    assert op._first_settles(first, at, sign, vecs) == want, (d, k)
                assert widths == [len(vecs) * (1 if twin else 2)], (d, k, twin)
                verdicts.add(want)
    assert verdicts == {True, False}


def test_wkk_reduces_under_one_root_and_only_the_rows_it_uses(monkeypatch):
    """`wkk`, in every ring at every k <= 11: every block reduced is used
    whole (each is under the first root, the only one `reduced_mod`
    reduces under).  The one full block is the operator's, at the first
    split prime; every other block is of the kept rows it asks for; and
    each is the matrix whose transpose `certified_kernel` eliminates next
    (`left_kernel_mod`)."""
    events = []
    reduced_mod, left_kernel_mod = WordOperator.reduced_mod, linalg.left_kernel_mod

    def reduced(self, p, cols, rows=None):
        out = reduced_mod(self, p, cols, rows)
        events.append(("reduced", p, rows, out))
        return out

    def left(mat, p):
        # the block itself, of which an elimination gets the transpose
        events.append(("left", p, mat.base))
        return left_kernel_mod(mat, p)

    monkeypatch.setattr(WordOperator, "reduced_mod", reduced)
    monkeypatch.setattr(linalg, "left_kernel_mod", left)
    kept = 0
    for d in EUCLIDEAN_DS:
        f = field(d)
        p1 = split_primes(f, 1)[0]
        for k in range(1, 12):
            events.clear()
            wkk(f, k)
            calls = [(i, e) for i, e in enumerate(events) if e[0] == "reduced"]
            assert [p for _, (_, p, rows, _) in calls if rows is None] == [p1], (d, k)
            for i, (_, p, rows, out) in calls:
                after = events[i + 1]
                assert after[:2] == ("left", p) and after[2] is out, (d, k, p)
                kept += rows is not None
    # the kernels reach later primes, and ask only for their rows
    assert kept > 0


def test_wkk_row_reduces_one_block_at_the_first_split_prime(monkeypatch):
    """`wkk`, in every ring at every k <= 11, where the first split prime
    p1 is good (the eigenspaces' first-prime dimensions add up to the full
    block's): at p1 the one block row-reduced is the full one, once
    (`left_kernel_mod`, which also gives its kernel); no block is ranked
    there and no rows are chosen (no `rank_mod`, no `echelon_mod`), and
    each reduced row echelon form at p1 (K's Gauss-Jordan forms, the
    second root's re-expression) has at most dim ker(M mod p1) rows.  Rows
    are asked for only at later primes, for a kernel that needs one: they
    are among R, the rows p1 kept, and are eliminated right after they are
    built."""
    events = []

    def recorded(name, fn):
        def run(*args, **kwargs):
            mat, p = args[-2:]
            events.append((name, p, mat.shape))
            out = fn(*args, **kwargs)
            if name == "left":
                events.append(("kernel_rows", p, out[1].shape))
            return out

        return run

    reduced_mod = WordOperator.reduced_mod

    def reduced(self, p, cols, rows=None):
        events.append(("reduced", p, rows))
        return reduced_mod(self, p, cols, rows)

    monkeypatch.setattr(WordOperator, "reduced_mod", reduced)
    names = {"left": "left_kernel_mod", "rank": "rank_mod", "echelon": "echelon_mod", "rref": "rref_mod"}
    for name, attr in names.items():
        monkeypatch.setattr(linalg, attr, recorded(name, getattr(linalg, attr)))
    later = 0
    for d in EUCLIDEAN_DS:
        f = field(d)
        p1 = split_primes(f, 1)[0]
        for k in range(1, 12):
            op = WordOperator(f, k)
            blocks = [eigen_columns(f, k, e) for e in range(len(eigen_labels(f)))]
            closed = [cols for cols in blocks if not op.s_forces_zero(cols)]
            whole = op._first_slice(list(range(op.size)))
            span, nullity = whole.rows, len(whole.kernel)
            dims = [len(linalg.kernel_mod_from_span(op._first_slice(cols).kernel, p1)[0]) for cols in closed]
            assert sum(dims) == nullity, (d, k)
            events.clear()
            wkk(f, k)
            at_p1 = [(i, e) for i, e in enumerate(events) if e[1] == p1]
            assert [e[0] for _, e in at_p1].count("left") == 1, (d, k)
            assert [e for _, e in at_p1 if e[0] == "reduced"] == [("reduced", p1, None)], (d, k)
            assert not any(e[0] in ("rank", "echelon") for _, e in at_p1), (d, k)
            for _, (name, _, shape) in at_p1:
                if name == "rref":
                    assert shape[0] <= nullity, (d, k)
            for i, (name, p, rows) in enumerate(events):
                if name == "reduced" and rows is not None:
                    assert p != p1 and set(rows) <= set(span), (d, k)
                    assert events[i + 1][:2] == ("left", p), (d, k)
                    later += 1
    # some exact kernels at k <= 11 need a second prime
    assert later > 0


def test_eigen_columns_are_the_monomials_of_each_exponent():
    """`eigen_columns` steps through each row of exponents; it lists the
    same flat indices, in the same order, as the test of every monomial by
    `eigen_exponent`, in every ring, at every k <= 27 and every exponent."""
    for d in EUCLIDEAN_DS:
        f = field(d)
        for k in range(1, 28):
            monomials = [(i, j) for i in range(k + 1) for j in range(k + 1)]
            for e in range(len(eigen_labels(f))):
                want = [flat_index(k, i, j) for i, j in monomials if eigen_exponent(f, i, j) == e]
                assert eigen_columns(f, k, e) == want, (d, k, e)


def test_kernel_words_are_built_once_per_ring():
    for d in EUCLIDEAN_DS:
        f = field(d)
        words = kernel_words(f)
        assert kernel_words(field(d)) is words
        assert isinstance(words, tuple) and all(isinstance(word, tuple) for word in words)
        a, b = WordOperator(f, 3), WordOperator(f, 5)
        assert len(a.elements) == len(b.elements)
        assert all(g is h for g, h in zip(a.elements, b.elements)), d


def test_wkk_searches_only_the_split_primes_it_uses(monkeypatch):
    used = set()
    roots = linalg.omega_roots

    def recorded(f, p):
        used.add(p)
        return roots(f, p)

    monkeypatch.setattr(linalg, "omega_roots", recorded)
    for d in EUCLIDEAN_DS:
        f = field(d)
        monkeypatch.setattr(linalg, "_SPLIT_PRIMES", {})
        used.clear()
        wkk(f, 3)
        assert used and linalg._SPLIT_PRIMES[f] == sorted(used), d


def test_support_clears_the_denominators():
    rng = seeded("support")
    for d in EUCLIDEAN_DS:
        f = field(d)
        for _ in range(10):
            P = rand_bipoly(rng, f, 3)
            den, supp = support(P)
            assert den == math.lcm(*(c.den for c in P.coeffs.values()))
            assert [ij for ij, _ in supp] == list(P.coeffs)
            assert all(x or y for _, (x, y) in supp)
            assert from_support(f, 3, supp, den) == P
            assert from_support(f, 3, supp, 1) == P.scaled(den)


# ------------------------------------------------------------- dimensions


DIM_TABLES = {
    1: {"1": [1, 1, 2, 2, 3, 3], "-1": [0, 0, 0, 1, 0, 1],
        "i": [0] * 6, "-i": [0] * 6, "total": [1, 1, 2, 3, 3, 4]},
    2: {"1": [1, 2, 3, 4, 5, 6], "-1": [0] * 6, "total": [1, 2, 3, 4, 5, 6]},
    3: {"1": [1, 1, 1, 2, 2, 2], "total": [1, 1, 1, 2, 2, 2]},
    7: {"1": [1, 1, 2, 3, 3, 4], "-1": [0] * 6, "total": [1, 1, 2, 3, 3, 4]},
    11: {"1": [1, 2, 3, 4, 5, 6], "-1": [0] * 6, "total": [1, 2, 3, 4, 5, 6]},
}


@pytest.mark.parametrize("d", sorted(DIM_TABLES))
def test_dimension_tables_small_k(d):
    table = DIM_TABLES[d]
    f = field(d)
    for idx, k in enumerate((1, 3, 5)):
        rep = wkk(f, k)
        assert rep.total == rep.split_sum == table["total"][idx], (d, k)
        for lab, series in table.items():
            if lab != "total":
                assert rep.dims.get(lab, 0) == series[idx], (d, k, lab)


def test_total_without_the_sandwich_is_the_full_certified_kernel(monkeypatch):
    """An upper bound that never meets the eigenspace sum forces the full
    certified kernel, and its dimension is the sum."""
    monkeypatch.setattr(WordOperator, "first_nullity", lambda self: -1)
    kernel = WordOperator.kernel
    whole = []

    def recorded(self, cols):
        out = kernel(self, cols)
        if cols == list(range(self.size)):
            whole.append(len(out))
        return out

    monkeypatch.setattr(WordOperator, "kernel", recorded)
    for d in EUCLIDEAN_DS:
        f = field(d)
        for k in (1, 3, 5):
            whole.clear()
            rep = wkk(f, k)
            assert whole == [rep.total], (d, k)
            assert rep.total == rep.split_sum, (d, k)


def test_wkk_skips_the_full_kernel_where_the_sandwich_meets(monkeypatch):
    """In every ring at every odd k <= 11 the eigenspace sum meets the full
    block's kernel dimension mod the first split prime, and `wkk` then
    proves the total from the two alone: it never runs the certified
    kernel on every column."""
    kernel = WordOperator.kernel
    calls = []

    def recorded(self, cols):
        calls.append((self, cols))
        return kernel(self, cols)

    monkeypatch.setattr(WordOperator, "kernel", recorded)
    for d in EUCLIDEAN_DS:
        f = field(d)
        for k in range(1, 12, 2):
            calls.clear()
            rep = wkk(f, k)
            op = calls[0][0]
            assert rep.split_sum == len(op._first_slice(range(op.size)).kernel), (d, k)
            assert [cols for _, cols in calls if cols == list(range(op.size))] == [], (d, k)


def test_exact_wkk_never_runs_bareiss(monkeypatch):
    def bareiss(*args):
        raise AssertionError("wkk ran linalg.quad_kernel")

    monkeypatch.setattr(linalg, "quad_kernel", bareiss)
    assert not hasattr(WordOperator, "rows")
    for d in EUCLIDEAN_DS:
        f = field(d)
        for idx, k in enumerate((1, 3, 5, 7)):
            rep = wkk(f, k)
            assert rep.total == rep.split_sum == DIM_TABLES[d]["total"][idx], (d, k)


def test_exact_wkk_never_runs_the_word_action(monkeypatch):
    """`wkk` and `membership` build no exact factor and
    run no exact word action, at every odd k <= 11 in every ring."""

    def refuse(name):
        def refused(*args):
            raise AssertionError(f"ran polyspace.{name}")

        return refused

    for name in ("factors", "apply_word", "pair_matmul"):
        monkeypatch.setattr(polyspace, name, refuse(name))
    for d in EUCLIDEAN_DS:
        f = field(d)
        for idx, k in enumerate(range(1, 12, 2)):
            rep = wkk(f, k)
            assert rep.total == rep.split_sum == DIM_TABLES[d]["total"][idx], (d, k)
            P = expand_P(f, k, smallest_nonnorm(d))
            assert membership(P) and not membership(P + BiPoly.monomial(f, k, 0, 0)), (d, k)


def test_basis_vectors_satisfy_all_words():
    for d in EUCLIDEAN_DS:
        f = field(d)
        rep = wkk(f, 3)
        assert rep.basis
        for P in rep.basis:
            for word in kernel_words(f):
                assert apply_word(P, word).is_zero()


def test_split_plus_membership_are_consistent():
    for d in EUCLIDEAN_DS:
        f = field(d)
        rep = wkk(f, 5)
        pos = 0
        for lab in eigen_labels(f):
            for _ in range(rep.dims[lab]):
                assert membership(rep.basis[pos], lab), (d, lab)
                pos += 1


def test_membership_of_basis_polynomials_with_denominators():
    """A basis polynomial of W_{k,k} scaled by 1/3 and by (1 + omega)/2
    stays in W_{k,k}: `membership` clears the denominators first."""
    for d in EUCLIDEAN_DS:
        f = field(d)
        rep = wkk(f, 3)
        # the basis lists each eigenspace's vectors in label order
        labels = [lab for lab in eigen_labels(f) for _ in range(rep.dims[lab])]
        for lab, P in zip(labels, rep.basis, strict=True):
            for c in (QuadElem.make(f, 1, 0, 3), QuadElem.make(f, 1, 1, 2)):
                Q = P.scaled(c)
                assert support(Q)[0] > 1, (d, str(Q))
                assert membership(Q, lab), (d, lab, str(c))


def test_membership_rejects_a_wrong_label_and_a_broken_word():
    k = 3
    for d in EUCLIDEAN_DS:
        f = field(d)
        rows = oracle_rows(f, k)
        # the basis lists label "1" first, and W^1 is nonzero at k = 3
        P = wkk(f, k).basis[0]
        assert membership(P, "1")
        for lab in eigen_labels(f)[1:]:
            assert not membership(P, lab), (d, lab)
        # a monomial of P's eigenvalue that breaks a word, by the oracle
        broken = [
            Q
            for i in range(k + 1)
            for j in range(k + 1)
            if eigen_exponent(f, i, j) == 0
            for Q in [P + BiPoly.monomial(f, k, i, j)]
            if not matvec_is_zero(f, rows, poly_to_vector(Q))
        ]
        assert broken, d
        for Q in broken:
            assert not membership(Q, "1"), (d, str(Q))


@pytest.mark.parametrize("d", EUCLIDEAN_DS)
def test_membership_rejects_multiples_of_the_first_primes(d):
    """P_{k,Delta} at k = 11 plus (p_1 ... p_m) times a monomial of its
    eigenspace: the image of the sum is a nonzero multiple of the product
    of the first m split primes, so it vanishes mod each of them under
    both roots; only the height bound, which asks for more primes, lets
    `membership` reject it."""
    rng = seeded(f"membership-primes-{d}")
    f, k = field(d), 11
    P = expand_P(f, k, smallest_nonnorm(d))
    assert membership(P)
    op = WordOperator(f, k)
    cols = eigen_columns(f, k, 0)
    for m in (1, 2, 4):
        primes = split_primes(f, m)
        i, j = divmod(rng.choice(cols), k + 1)
        den, supp = support(P + BiPoly.monomial(f, k, i, j, math.prod(primes)))
        assert den == 1 and not annihilates(f, k, supp)
        entries = {flat_index(k, i, j): xy for (i, j), xy in supp}
        vec = [entries.get(c, ZERO) for c in cols]
        for p in primes:
            for second, root in zip((False, True), omega_roots(f, p)):
                image = np.array([(x + y * root) % p for x, y in vec], dtype=object)
                assert not (word_operator_mod(op, p, cols, second).astype(object) @ image % p).any()
        assert not membership(from_support(f, k, supp, 1)), (m, i, j)


@pytest.mark.parametrize("size", [1, 2])
def test_in_kernel_checks_every_stack_of_primes(monkeypatch, size):
    """With a stacking bound that holds `size` primes per stack (one, as
    at large k), `in_kernel` passes its proof primes to `_word_sums` in
    order, in stacks of at most `size`, and checks every stack:
    P_{k,Delta} at k = 11 in O_11 passes at all of its primes, and P plus
    (p_1 ... p_4) times a monomial of its eigenspace, which vanishes mod
    the first four split primes, is refuted only by a later stack."""
    f, k = field(11), 11
    op = WordOperator(f, k)
    monkeypatch.setattr(polyspace, "STACKED_ENTRIES", size * 2 * len(op.distinct) * (k + 1) ** 2)
    stacks = []
    word_sums = WordOperator._word_sums

    def recorded(self, stack, cols, vecs):
        stacks.append(list(stack))
        return word_sums(self, stack, cols, vecs)

    monkeypatch.setattr(WordOperator, "_word_sums", recorded)
    P = expand_P(f, k, smallest_nonnorm(11))
    i, j = divmod(eigen_columns(f, k, 0)[0], k + 1)
    for Q, member in ((P, True), (P + BiPoly.monomial(f, k, i, j, math.prod(split_primes(f, 4))), False)):
        stacks.clear()
        _, supp = support(Q)
        vec = [xy for _, xy in supp]
        assert op.in_kernel([flat_index(k, *ij) for ij, _ in supp], [vec]) == member
        primes = linalg.primes_exceeding(f, 2 * op.height_bound(max(abs(e) for xy in vec for e in xy)))
        checked = sum(stacks, [])
        assert checked == (primes if member else primes[: len(checked)]), stacks
        assert len(checked) > (0 if member else 4) and all(1 <= len(s) <= size for s in stacks), stacks


def test_the_trivial_line_is_in_every_ring():
    """A parabolic coboundary is fixed by the lattice translations, hence
    constant, so the trivial line of W_{k,k} is spanned by N(z)^k - 1:
    it lies in W_{k,k}, eigenvalue 1, in every ring at odd k <= 27, and
    N(z)^k + 1 does not."""
    for d in EUCLIDEAN_DS:
        f = field(d)
        for k in range(1, 28, 2):
            norm_power, one = BiPoly.monomial(f, k, k, k), BiPoly.monomial(f, k, 0, 0)
            assert membership(norm_power - one, "1"), (d, k)
            assert not membership(norm_power + one, "1"), (d, k)


# ------------------------------------------------- polynomial identities


@pytest.mark.parametrize("k", [1, 3, 5])
def test_transfer_identities(k):
    for d in EUCLIDEAN_DS:
        f = field(d)
        delta = smallest_nonnorm(d)
        P = expand_P(f, k, delta)
        I, S, T, Tw = identity(f), gen_S(f), gen_T(f), gen_T_omega(f)
        # (1) coefficient symmetry
        assert all(P.coeffs.get((j, i)) == c for (i, j), c in P.coeffs.items())
        # (2) invariance under every unit rotation
        for u in f.units():
            assert (act_poly(P, unit_diagonal(f, u)) - P).is_zero()
        # (3) inversion antisymmetry
        assert apply_word(P, [(1, I), (1, S)]).is_zero()
        # (4) the twisted translation identity
        eps_m = unit_diagonal(f, f.quad(-1))
        assert apply_word(P, [(1, I), (1, T @ S @ eps_m), (-1, T)]).is_zero()
        # (5) the extra relation specific to d = 7
        if d == 7:
            w5 = [(1, I), (-1, Tw), (-1, S @ T.inverse() @ Tw @ S),
                  (-1, T @ Tw.inverse() @ S @ Tw)]
            assert apply_word(P, w5).is_zero()


def test_transfer_polynomials_lie_in_the_unit_eigenspace():
    for d in EUCLIDEAN_DS:
        f = field(d)
        for k in (1, 3, 5):
            for delta in nonnorm_deltas(f, 2):
                assert membership(expand_P(f, k, delta), "1"), (d, k, delta)


def test_w1_is_spanned_by_the_transfer_polynomial_for_d1():
    f = field(1)
    for k in (1, 3):
        rep = wkk(f, k)
        assert rep.dims["1"] == 1
        B = rep.basis[0]
        P = expand_P(f, k, 3)
        key = sorted(P.coeffs)[0]
        assert (P.scaled(B.coeffs[key]) - B.scaled(P.coeffs[key])).is_zero()
