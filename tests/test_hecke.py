import random

import pytest

from affhecke.affweyl import group
from affhecke.checks import ball, _r_extraction
from affhecke.hecke import KLCache, context
from affhecke.laurent import LaurentPoly
from affhecke.rootdata import create

ONE = LaurentPoly.one()
Q = LaurentPoly.q_power(1)
QM1 = LaurentPoly({2: 1, 0: -1})


def ctx(fam="GL", n=3):
    return context(create(fam, n))


def test_quadratic_relation():
    H = ctx()
    G = H.group
    for i in range(G.n_gens):
        s = G.simple_reflection(i)
        Ts = H.T(s)
        assert H.mul(Ts, Ts) == H.T(G.identity).scale(Q) + Ts.scale(QM1)


def test_length_additive_products():
    H = ctx("GL", 4)
    G = H.group
    rng = random.Random(3)
    pool = ball(G, 5)
    hits = 0
    while hits < 20:
        x, y = rng.choice(pool), rng.choice(pool)
        xy = G.mul(x, y)
        if xy.length() == x.length() + y.length():
            assert H.mul(H.T(x), H.T(y)) == H.T(xy)
            hits += 1


def test_associativity_random():
    H = ctx()
    G = H.group
    rng = random.Random(4)
    pool = ball(G, 4)
    for _ in range(12):
        a, b, c = (H.T(rng.choice(pool)) for _ in range(3))
        assert H.mul(H.mul(a, b), c) == H.mul(a, H.mul(b, c))


def test_inverse():
    H = ctx("GSp", 2)
    G = H.group
    assert H.inv_T(G.identity) == H.T(G.identity)
    s = G.simple_reflection(1)
    assert H.inv_T(s) == H.T(s).scale(LaurentPoly.q_power(-1)) + H.T(
        G.identity
    ).scale(LaurentPoly({-2: 1, 0: -1}))
    rng = random.Random(5)
    pool = [x for x in ball(G, 6)]
    for w in rng.sample(pool, 12):
        assert H.mul(H.inv_T(w), H.T(w)) == H.T(G.identity)


def test_bar():
    H = ctx()
    G = H.group
    e = G.identity
    assert H.bar(H.T(e)) == H.T(e)
    s = G.simple_reflection(1)
    assert H.bar(H.T(s)) == H.T(s).scale(LaurentPoly.q_power(-1)) + H.T(e).scale(
        LaurentPoly({-2: 1, 0: -1})
    )
    rng = random.Random(6)
    pool = ball(G, 4)
    for _ in range(8):
        h = H.T(rng.choice(pool)).scale(LaurentPoly({1: 1, -2: 3})) + H.T(
            rng.choice(pool)
        )
        assert H.bar(H.bar(h)) == h


def test_r_polynomials():
    H = ctx()
    G = H.group
    e = G.identity
    s = G.simple_reflection(2)
    assert H.r_poly(s, s) == ONE
    assert H.r_poly(e, s) == QM1  # covering pair
    # degree and monicity
    for y in ball(G, 5):
        for x in G.below(y):
            r = H.r_poly(x, y)
            gap = y.length() - x.length()
            assert r.q_degree() == gap
            assert r.q_coeff(gap) == 1


@pytest.mark.parametrize("fam,n", [("GL", 3), ("GSp", 2)])
def test_r_recursion_vs_extraction(fam, n):
    H = ctx(fam, n)
    G = H.group
    for y in ball(G, 4):
        for x in G.below(y):
            assert H.r_poly(x, y) == _r_extraction(H, x, y)


def test_kl_trivial_gaps():
    H = ctx("GL", 4)
    G = H.group
    for w in G.adm((1, 1, 0, 0)):
        for x in G.below(w):
            if w.length() - x.length() <= 2:
                assert H.kl_poly(x, w) == ONE


def test_kl_s4_singular_example():
    H = ctx("GL", 4)
    G = H.group
    s1, s2, s3 = (G.simple_reflection(i) for i in (1, 2, 3))
    w = G.mul(G.mul(G.mul(s2, s1), s3), s2)
    assert H.kl_poly(s2, w) == LaurentPoly({0: 1, 2: 1})  # 1 + q
    # the base point is singular too: P_{e,w} = 1 + q for w = 3412
    assert H.kl_poly(G.identity, w) == LaurentPoly({0: 1, 2: 1})
    # the self-dual basis element is bar-fixed up to q_w^{-1} (checked
    # through the independent inv_T-based involution)
    cw = H.ic_basis_element(w)
    assert H.bar(cw) == cw.scale(LaurentPoly.q_power(-w.length()))
    # vanishing off the order
    assert H.kl_poly(w, s2) == LaurentPoly.zero()


def test_kl_positivity_and_degree_bound():
    H = ctx("GSp", 2)
    G = H.group
    for w in G.adm((2, 1, 2)):
        for x in G.below(w):
            p = H.kl_poly(x, w)
            if x is w:
                assert p == ONE
                continue
            if p:
                assert p.is_q_polynomial()
                assert all(c > 0 for c in p.terms.values())
                assert 2 * (p.q_degree() or 0) <= w.length() - x.length() - 1


def test_inv_kl_basics():
    H = ctx()
    G = H.group
    t = G.translation((1, 1, 0))
    for v in G.below(t):
        assert H.inv_kl_poly(v, v) == ONE
        for y in G.below(t):
            if G.leq(v, y) and y.length() - v.length() in (1, 2):
                assert H.inv_kl_poly(v, y) == ONE


def test_pq_inversion_interval():
    H = ctx()
    G = H.group
    # all pairs in an interval below a length-5 element
    tops = [y for y in ball(G, 5) if y.length() == 5]
    y0 = tops[0]
    bel = G.below(y0)
    for x in bel:
        for w in bel:
            if not G.leq(x, w):
                continue
            acc = LaurentPoly.zero()
            for z in bel:
                if G.leq(x, z) and G.leq(z, w):
                    sgn = 1 if (z.length() - x.length()) % 2 == 0 else -1
                    acc = acc + (H.kl_poly(x, z) * H.inv_kl_poly(z, w)).scale(sgn)
            assert acc == (ONE if x is w else LaurentPoly.zero())


def test_base_change():
    H = ctx("GL", 4)
    G = H.group
    e = G.identity
    s = G.simple_reflection(1)
    assert H.ic_basis_element(e) == H.T(e)
    assert H.ic_basis_element(s) == -(H.T(e) + H.T(s))
    rng = random.Random(8)
    adm = G.adm((1, 1, 0, 0))
    for _ in range(6):
        h = H.zero()
        for x in rng.sample(list(adm), 4):
            h = h + H.T(x).scale(
                LaurentPoly({rng.randint(-2, 2): rng.randint(-4, 4)})
            )
        coeffs = H.to_ic_basis(h)
        assert H.from_ic_basis(coeffs) == h


def test_kl_cache_roundtrip(tmp_path):
    H = ctx("GL", 3)
    G = H.group
    t = G.translation((1, 1, 0))
    H._kl_column(t)
    H.save_cache(str(tmp_path))
    path = KLCache(str(tmp_path)).path(H.datum)
    lines = open(path).read().splitlines()
    assert lines[0] == "klcache v1 GL3 base-alcove=dominant"
    assert len(lines) > 1
    # a fresh context loads the cache and agrees
    from affhecke.hecke import HeckeContext

    H2 = HeckeContext(create("GL", 3))
    assert H2.load_cache is not None
    n = KLCache(str(tmp_path)).load_into(H2)
    assert n == len(lines) - 1
    for x in G.below(t):
        assert H2.kl_poly(x, t) == H.kl_poly(x, t)


def test_kl_cache_corruption_ignored(tmp_path):
    H = ctx("GL", 3)
    G = H.group
    t = G.translation((1, 1, 0))
    H._kl_column(t)
    H.save_cache(str(tmp_path))
    path = KLCache(str(tmp_path)).path(H.datum)
    with open(path, "a") as fh:
        fh.write("garbled line without structure\n")
    from affhecke.hecke import HeckeContext

    H2 = HeckeContext(create("GL", 3))
    assert KLCache(str(tmp_path)).load_into(H2) == 0  # rejected wholesale
    # wrong header version is also rejected
    content = open(path).read().splitlines()[1:]
    with open(path, "w") as fh:
        fh.write("klcache v999 GL3 base-alcove=dominant\n")
        fh.write("\n".join(content))
    H3 = HeckeContext(create("GL", 3))
    assert KLCache(str(tmp_path)).load_into(H3) == 0
    # a well-formed record with a wrong value (constant term 2) is rejected
    tampered = tmp_path / "tampered"
    H.save_cache(str(tampered))
    tpath = KLCache(str(tampered)).path(H.datum)
    lines = open(tpath).read().splitlines()
    x_enc, w_enc, poly = lines[1].split()
    assert poly.startswith("1*v^0")
    lines[1] = f"{x_enc} {w_enc} 2*v^0{poly[len('1*v^0'):]}"
    with open(tpath, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    assert KLCache(str(tampered)).load_into(HeckeContext(create("GL", 3))) == 0
    # and computation still works from scratch
    assert H3.kl_poly(G.identity, t) == H.kl_poly(G.identity, t)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda x, w, p, gap: (w, x, p),  # l(x) > l(w)
        lambda x, w, p, gap: (x, x, "1*v^0"),  # l(x) = l(w)
        lambda x, w, p, gap: (x, w, p + "+1*v^-2"),  # negative q-power
        lambda x, w, p, gap: (x, w, p + "+1*v^1"),  # odd v-power
        lambda x, w, p, gap: (x, w, f"1*v^0+1*v^{gap + gap % 2}"),  # 2 deg_q P >= gap
    ],
    ids=["x-longer", "same-length", "negative-power", "odd-power", "degree"],
)
def test_kl_cache_rejects_implausible_records(tmp_path, mutate):
    from affhecke.hecke import HeckeContext

    H = ctx("GL", 3)
    G = H.group
    H._kl_column(G.translation((2, 1, 0)))
    H.save_cache(str(tmp_path))
    path = KLCache(str(tmp_path)).path(H.datum)
    lines = open(path).read().splitlines()
    assert KLCache(str(tmp_path)).load_into(HeckeContext(create("GL", 3))) == len(lines) - 1
    x_enc, w_enc, poly = lines[-1].split()
    gap = G.decode(w_enc).length() - G.decode(x_enc).length()
    lines[-1] = " ".join(mutate(x_enc, w_enc, poly, gap))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    assert KLCache(str(tmp_path)).load_into(HeckeContext(create("GL", 3))) == 0


def test_hecke_element_encoding():
    H = ctx("GL", 3)
    G = H.group
    h = H.T_tilde(G.translation((1, 0, 0)))
    enc = h.encode()
    assert H.from_encoding(enc) == h
