import itertools
import random
from fractions import Fraction

import pytest

from affhecke import central
from affhecke.affweyl import group
from affhecke.checks import ball
from affhecke.hecke import context
from affhecke.laurent import LaurentPoly
from affhecke.rootdata import NotDominant, create, vec_sub


def test_theta_dominant_is_tilde_translation():
    datum = create("GL", 3)
    H = context(datum)
    G = H.group
    lam = (2, 1, 0)
    assert central.theta(datum, lam) == H.T_tilde(G.translation(lam))
    assert central.theta(datum, (0, 0, 0)) == H.T(G.identity)


def test_theta_decomposition_strategies_agree():
    rng = random.Random(21)
    for fam, n, dim in [("GL", 2, 2), ("GL", 3, 3), ("GSp", 2, 3), ("G2", 2, 2)]:
        datum = create(fam, n)
        for _ in range(8):
            lam = tuple(rng.randint(-2, 2) for _ in range(dim))
            assert central.theta(
                datum, lam, central.minimal_dominant_pair
            ) == central.theta(datum, lam, central.shifted_dominant_pair), (fam, lam)


def test_theta_independent_of_valid_decomposition():
    # perturb the minimal pair by adding a dominant coweight to both parts
    rng = random.Random(22)
    for fam, n, dim, eps in [
        ("GL", 3, 3, (2, 1, 0)),
        ("GSp", 2, 3, (1, 1, 2)),
        ("G2", 2, 2, (1, 1)),
    ]:
        datum = create(fam, n)
        from affhecke.rootdata import vec_add

        for _ in range(6):
            lam = tuple(rng.randint(-1, 1) for _ in range(dim))
            lam1, lam2 = central.minimal_dominant_pair(datum, lam)

            def shifted(d, l, l1=lam1, l2=lam2, e=eps):
                return vec_add(l1, e), vec_add(l2, e)

            a = central.theta(datum, lam)
            b = central.theta(datum, lam, decomposition=shifted)
            assert a == b, (fam, lam)


def test_minimal_pair_has_least_total_length():
    # brute force: every dominant lam1' in a box with lam1' - lam dominant
    for fam, n in (("GL", 3), ("GSp", 2), ("G2", 2)):
        datum = create(fam, n)
        G = group(datum)

        def length(v):
            return G.translation(v).length()

        box = [v for v in itertools.product(range(-3, 7), repeat=datum.dim)
               if datum.is_dominant(v)]
        for lam in itertools.product(range(-1, 2), repeat=datum.dim):
            lam1, lam2 = central.minimal_dominant_pair(datum, lam)
            assert datum.is_dominant(lam1) and datum.is_dominant(lam2)
            assert vec_sub(lam1, lam2) == lam
            best = min(
                length(v) + length(vec_sub(v, lam))
                for v in box
                if datum.is_dominant(vec_sub(v, lam))
            )
            assert length(lam1) + length(lam2) == best, (fam, lam)


def test_theta_additivity_on_dominant_cone():
    datum = create("GL", 3)
    H = context(datum)
    rng = random.Random(23)
    for _ in range(6):
        a = tuple(sorted((rng.randint(0, 2) for _ in range(3)), reverse=True))
        b = tuple(sorted((rng.randint(0, 2) for _ in range(3)), reverse=True))
        lhs = central.theta(datum, tuple(x + y for x, y in zip(a, b)))
        rhs = H.mul(central.theta(datum, a), central.theta(datum, b))
        assert lhs == rhs


def test_z_basics_and_centrality():
    datum = create("GL", 3)
    H = context(datum)
    G = H.group
    assert central.bernstein_central(datum, (0, 0, 0)) == H.T(G.identity)
    with pytest.raises(NotDominant):
        central.bernstein_central(datum, (0, 1, 0))
    for lam in [(1, 0, 0), (1, 1, 0)]:
        z = central.bernstein_central(datum, lam)
        for i in range(G.n_gens):
            assert H.gen_mul_T(i, z) == H.mul_gen_T(z, i)
        # commutes with a length-zero generator too
        omega, word = G.reduced_word(G.translation((1, 0, 0)))
        assert not word or omega.length() == 0
        tau = omega
        assert H.mul(H.T(tau), z) == H.mul_omega(z, tau)


def test_z_centrality_other_families():
    for fam, n, lam in [("GSp", 2, (1, 1, 1)), ("G2", 2, (1, 0))]:
        datum = create(fam, n)
        H = context(datum)
        G = H.group
        z = central.bernstein_central(datum, lam)
        for i in range(G.n_gens):
            assert H.gen_mul_T(i, z) == H.mul_gen_T(z, i)


def test_z_ic_support_gl2():
    # the C''-support of eps q^{1/2} z_lambda is the union of the lower
    # intervals below the extreme translations
    datum = create("GL", 2)
    H = context(datum)
    G = H.group
    lam = (2, 0)
    z = central.bernstein_central(datum, lam)
    ell = G.translation(lam).length()
    f = z.scale(LaurentPoly.v_power(ell, -1 if ell % 2 else 1))
    coeffs = H.to_ic_basis(f)
    expected = set()
    for nu in datum.weyl_orbit(lam):
        expected.update(G.below(G.translation(nu)))
    assert set(coeffs) == expected


def test_kottwitz_drinfeld_coefficients():
    # mu = (1,0,...,0): coefficient at x is eps_mu (1-q)^{l(t_mu)-l(x)}
    for n in (3, 4):
        datum = create("GL", n)
        H = context(datum)
        G = H.group
        mu = (1,) + (0,) * (n - 1)
        f = central.kottwitz_function(datum, mu)
        adm = G.adm(mu)
        assert set(f.terms) == set(adm)
        ell = G.translation(mu).length()
        one_minus_q = LaurentPoly({0: 1, 2: -1})
        for x in adm:
            want = LaurentPoly.one()
            for _ in range(ell - x.length()):
                want = want * one_minus_q
            assert f.coeff(x) == want.scale(-1 if ell % 2 else 1)


def test_kottwitz_minuscule_is_single_z():
    datum = create("GL", 4)
    G = group(datum)
    mu = (1, 1, 0, 0)
    ell = G.translation(mu).length()
    z = central.bernstein_central(datum, mu)
    f = central.kottwitz_function(datum, mu)
    assert f == z.scale(LaurentPoly.v_power(ell, -1 if ell % 2 else 1))


def test_kottwitz_support_and_integrality():
    for fam, n, mu in [("GSp", 2, (1, 1, 1)), ("GL", 3, (2, 2, 0)), ("G2", 2, (1, 0))]:
        datum = create(fam, n)
        G = group(datum)
        f = central.kottwitz_function(datum, mu)
        assert set(f.terms) == set(G.adm(mu))
        # every coefficient lies in Z[q, q^-1]: even v-exponents only
        assert all(e % 2 == 0 for c in f.terms.values() for e in c.terms)
        with pytest.raises(NotDominant):
            central.kottwitz_function(datum, tuple(-c for c in mu))


def test_non_integral_coweights_are_rejected():
    # a non-integer entry raises instead of being truncated to an int
    datum = create("GL", 3)
    G = group(datum)
    assert G.translation((2.0, Fraction(1), 0)) is G.translation((2, 1, 0))
    with pytest.raises(ValueError):
        central.kottwitz_function(datum, (1.5, 1, 0))
    with pytest.raises(ValueError):
        G.translation((Fraction(3, 2), 0.7, 0))
    with pytest.raises(ValueError):
        central.theta(datum, (0.5, 0, 0))


def test_kottwitz_coefficients_nonneg_in_Q():
    # each coefficient is eps_mu q_mu^{1/2} q_x^{-1/2} R(Q) with R in N[Q]
    datum = create("GSp", 2)
    G = group(datum)
    mu = (1, 1, 1)
    ell = G.translation(mu).length()
    f = central.kottwitz_function(datum, mu)
    sign = -1 if ell % 2 else 1
    for x, c in f.terms.items():
        alpha = Fraction(ell - x.length(), 2)
        expansion = c.scale(sign).q_expand(alpha)
        assert all(v > 0 for v in expansion.values())
        assert all((k - (ell - x.length())) % 2 == 0 for k in expansion)


def test_property_P():
    datum = create("GL", 3)
    H = context(datum)
    G = H.group
    mu = (1, 1, 0)
    ell = G.translation(mu).length()
    f = central.kottwitz_function(datum, mu)
    assert central.satisfies_property_P(f, ell)
    assert not central.satisfies_property_P(f, ell + 1)
    assert central.is_self_dual_up_to_twist(f, ell)
    assert central.self_dual_property_P_coefficients(f, ell)
    # eps_y T_y satisfies (P) with d = l(y)
    rng = random.Random(31)
    pool = ball(G, 5)
    for y in rng.sample(pool, 8):
        h = H.T(y).scale(y.sign())
        assert central.satisfies_property_P(h, y.length())


def test_property_P_duality():
    # f satisfies (P) for d iff bar(f) satisfies (P) for -d
    datum = create("GL", 3)
    H = context(datum)
    G = H.group
    rng = random.Random(32)
    pool = ball(G, 4)
    for _ in range(6):
        y = rng.choice(pool)
        h = H.T(y).scale(y.sign())
        d = y.length()
        assert central.satisfies_property_P(h, d)
        assert central.satisfies_property_P(H.bar(h), -d)
