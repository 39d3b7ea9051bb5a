import random

import pytest

from affhecke import central, wakimoto
from affhecke.affweyl import group
from affhecke.checks import ball
from affhecke.hecke import context
from affhecke.laurent import LaurentPoly
from affhecke.rootdata import create


def test_single_letter_subexpressions():
    G = group(create("GL", 3))
    e = G.identity
    s = G.simple_reflection(1)
    movers = wakimoto.distinguished_subexpressions(e, s, terminal=s)
    stayers = wakimoto.distinguished_subexpressions(e, s, terminal=e)
    assert len(movers) == 1 and movers[0].n_stat == 0 and movers[0].m_stat == 0
    assert len(stayers) == 1 and stayers[0].n_stat == 1
    assert wakimoto.rv_poly(e, s, s) == {0: 1}
    assert wakimoto.rv_poly(e, s, e) == {1: 1}
    assert wakimoto.rv_poly(e, e, e) == {0: 1}


def test_length_congruence_prunes():
    G = group(create("GL", 3))
    e = G.identity
    s1, s2 = G.simple_reflection(1), G.simple_reflection(2)
    w = G.mul(s1, s2)
    # terminal of the wrong parity cannot occur
    for se in wakimoto.distinguished_subexpressions(e, w):
        x = se.terminal()
        assert (x.length() - w.length()) % 2 == (se.n_stat % 2)
        assert x.length() == w.length() - se.n_stat - 2 * se.m_stat
    assert wakimoto.rv_poly(e, w, G.mul(s2, s1)) == {}


def test_walk_length_formula():
    G = group(create("GSp", 2))
    rng = random.Random(41)
    pool = ball(G, 4)
    for _ in range(10):
        v, w = rng.choice(pool), rng.choice(pool)
        for se in wakimoto.distinguished_subexpressions(v, w):
            x = se.terminal()
            assert (
                x.length()
                == v.length() + w.length() - se.n_stat - 2 * se.m_stat
            )


def test_wakimoto_function_examples():
    datum = create("GL", 3)
    G = group(datum)
    H = context(datum)
    e = G.identity
    s = G.simple_reflection(1)
    raw, _ = wakimoto.wakimoto_function(e, G.identity)
    assert raw == H.T(e)
    raw, _ = wakimoto.wakimoto_function(s, G.identity)
    assert raw == H.T_tilde(s)
    raw, _ = wakimoto.wakimoto_function(e, s)
    td = wakimoto.tilde_coefficients(raw)
    assert td[s] == LaurentPoly.one()
    assert td[e] == LaurentPoly({-1: 1, 1: -1})  # Q


@pytest.mark.parametrize("fam,n", [("GL", 3), ("GSp", 2)])
def test_closed_form_vs_product(fam, n):
    datum = create(fam, n)
    G = group(datum)
    rng = random.Random(42)
    pool = ball(G, 4)
    done = 0
    while done < 25:
        v, w = rng.choice(pool), rng.choice(pool)
        if v.length() + w.length() > 8:
            continue
        raw, _ = wakimoto.wakimoto_function(v, w)
        td = wakimoto.tilde_coefficients(raw)
        for x, c in td.items():
            assert c == wakimoto.rv_poly_laurent(v, w, x)
            parity = (v.length() + w.length() - x.length()) % 2
            assert all(k % 2 == parity for k in wakimoto.rv_poly(v, w, x))
        for se in wakimoto.distinguished_subexpressions(v, w):
            assert se.terminal() in td
        done += 1


def test_word_independence():
    datum = create("GL", 3)
    G = group(datum)

    def alt_word(x):
        word = []
        y = x
        while True:
            ds = G.right_descents(y)
            if not ds:
                break
            word.append(ds[-1])
            y = G.mul_gen(y, ds[-1])
        word.reverse()
        return y, tuple(word)

    rng = random.Random(43)
    pool = ball(G, 5)
    done = 0
    while done < 12:
        v, w = rng.choice(pool), rng.choice(pool)
        omega, word2 = alt_word(w)
        if omega is not G.identity or word2 == G.reduced_word(w)[1]:
            continue
        raw, _ = wakimoto.wakimoto_function(v, w)
        for x in wakimoto.tilde_coefficients(raw):
            assert wakimoto.rv_poly(v, w, x) == wakimoto.rv_poly(
                v, w, x, word=word2
            )
        done += 1


def test_rejects_omega_parts():
    datum = create("GL", 3)
    G = group(datum)
    t = G.translation((1, 0, 0))
    with pytest.raises(ValueError):
        wakimoto.distinguished_subexpressions(G.identity, t)
    # but the function itself handles them through the group law
    raw, _ = wakimoto.wakimoto_function(G.identity, t)
    assert raw


def test_rejects_a_word_of_another_element():
    # a caller-supplied word must spell w; the check holds under python -O
    G = group(create("GL", 3))
    w = G.from_word(G.identity, (1, 2, 1))
    assert len(wakimoto.distinguished_subexpressions(G.identity, w, word=(2, 1, 2))) == 7
    for word in ((2, 0, 2), (1, 2), (1, 2, 1, 1), (1, 2, 3), (-2, 2, 1)):
        with pytest.raises(ValueError):
            wakimoto.distinguished_subexpressions(G.identity, w, word=word)


def test_min_expr_single_translation():
    G = group(create("GL", 3))
    t = G.translation((2, 1, 0))
    assert wakimoto.min_expr_degree_check([(t, 1)])
    anti = G.translation((0, 1, 2))
    assert wakimoto.min_expr_degree_check([(anti, -1)])


def test_min_expr_rejects_non_reduced():
    G = group(create("GL", 3))
    s = G.simple_reflection(1)
    with pytest.raises(wakimoto.NotMinimal):
        wakimoto.min_expr_degree_check([(s, 1), (s, 1)])
    t = G.translation((1, 0, 0))
    with pytest.raises(wakimoto.NotMinimal):
        wakimoto.min_expr_degree_check([(t, 1), (G.inv(t), 1)])


@pytest.mark.parametrize(
    "fam,n,mu",
    [("GL", 3, (1, 0, 0)), ("GL", 3, (1, 1, 0)), ("GL", 4, (1, 1, 0, 0))],
)
def test_theta_walk_minimal_expressions(fam, n, mu):
    datum = create(fam, n)
    for lam in datum.weyl_orbit(mu):
        factors = wakimoto.theta_walk_factors(datum, lam)
        assert wakimoto.evaluate_factors(datum, factors) == central.theta(
            datum, lam
        )
        assert wakimoto.min_expr_degree_check(factors)


def test_theta_walk_degree_bound_gives_observation_A():
    # the Q-degree bound on a minimal Theta expression bounds the trace degree
    datum = create("GL", 4)
    G = group(datum)
    for lam in datum.weyl_orbit((1, 1, 0, 0)):
        t = G.translation(lam)
        th = central.theta(datum, lam)
        for x, c in wakimoto.tilde_coefficients(th).items():
            exp = c.q_expansion()
            if exp:
                assert max(exp) <= t.length() - x.length()


def test_normalized_function_property_P():
    datum = create("GSp", 2)
    G = group(datum)
    rng = random.Random(44)
    pool = ball(G, 4)
    done = 0
    while done < 8:
        v, w = rng.choice(pool), rng.choice(pool)
        if v.length() + w.length() > 7:
            continue
        _, norm = wakimoto.wakimoto_function(v, w)
        assert central.satisfies_property_P(norm, v.length() + w.length())
        done += 1
