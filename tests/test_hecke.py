import itertools
import random
import sys

import pytest

from affhecke import affweyl, checks, hecke, multiplicity
from affhecke.affweyl import AffineWeylGroup, DatumMismatch, group
from affhecke.central import kottwitz_function
from affhecke.checks import ball, _r_extraction
from affhecke.hecke import HeckeContext, InvariantViolation, KLCache, context
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


@pytest.mark.parametrize("case", checks.BRUHAT_CASES, ids=["GL3", "GSp4", "G2"])
def test_r_poly_all_pairs_vs_extraction(case):
    # every pair, x <= y or not: r_poly decides its zeros without a Bruhat test
    fam, n, mu = case
    H = ctx(fam, n)
    G = H.group
    pool = checks.bruhat_pool(G, 5, mu)
    zeros = 0
    for y in pool:
        inv = H.inv_T(G.inv(y))
        for x in pool:
            r = H.r_poly(x, y)
            assert r == _r_extraction(H, x, y, inv), (x, y)
            assert bool(r) == G.leq(x, y), (x, y)
            zeros += not r
    assert zeros > 0


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
    # through the involution of the Bernstein kernel, not the KL recursion)
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


def _pairs(H):
    """{(x, w): P_{x,w}} over the columns H holds."""
    return {(x, w): p for w, col in H._p_cols.items() for x, p in col.items()}


def test_to_ic_basis_reads_each_pair_once(monkeypatch):
    """The downward solve reads the KL columns of the lower closure U of
    the support, with no Bruhat test: the columns it solves hold exactly
    the pairs of U."""
    monkeypatch.setattr(hecke, "_CONTEXTS", {})
    datum = create("GL", 4)
    f = kottwitz_function(datum, (2, 1, 0, 0))
    H = context(datum)
    G = H.group
    calls = []
    leq = AffineWeylGroup.leq

    def counting(self, x, y):
        calls.append((x, y))
        return leq(self, x, y)

    monkeypatch.setattr(AffineWeylGroup, "leq", counting)
    coeffs = H.to_ic_basis(f)
    assert calls == []
    universe = set()
    for x in f.terms:
        universe.update(G._interval(x))
    pairs = {(w, x) for x in universe for w in G._interval(x) if w is not x}
    assert set(_pairs(H)) == pairs and len(pairs) == 3234
    assert H.from_ic_basis(coeffs) == f


def test_to_ic_basis_multiplies_only_by_p_other_than_one(monkeypatch):
    # GL5 1,1,0,0,0: of the 2,020 pairs of Adm, 160 have P != 1.  The solve
    # multiplies packed integers, never LaurentPolys, and only by a P != 1
    monkeypatch.setattr(hecke, "_CONTEXTS", {})
    datum = create("GL", 5)
    f = kottwitz_function(datum, (1, 1, 0, 0, 0))
    H = context(datum)
    for x in f.terms:
        H._kl_column(x)
    pc = _pairs(H)
    assert len(pc) == 2020
    assert sum(p != 1 for p in pc.values()) == 160
    products = []

    class Counting(int):
        """A held packed P that records every product it enters."""

        def __rmul__(self, other):
            products.append(int(self))
            return int(self) * other

        __mul__ = __rmul__

    for col in H._p_cols.values():
        for x, p in col.items():
            col[x] = Counting(p)
    laurent = []
    real = LaurentPoly.__mul__

    def counting(self, other):
        laurent.append(1)
        return real(self, other)

    monkeypatch.setattr(LaurentPoly, "__mul__", counting)
    coeffs = H.to_ic_basis(f)
    assert laurent == []
    assert 0 < len(products) <= 160
    assert 1 not in products
    monkeypatch.undo()
    assert H.from_ic_basis(coeffs) == f


@pytest.mark.parametrize("fam,n,mu", [("GL", 5, (1, 1, 0, 0, 0)), ("G2", 2, (1, 0))])
def test_kl_columns_share_one_and_extremal_pairs(monkeypatch, fam, n, mu):
    monkeypatch.setattr(hecke, "_CONTEXTS", {})
    datum = create(fam, n)
    multiplicity.compute(datum, mu)
    H = context(datum)
    G = H.group
    pc = _pairs(H)
    assert any(p != 1 for p in pc.values())
    for (x, y), p in pc.items():
        if p == 1:
            assert H._p_polys[p] is ONE
        s = G.first_right_descent(y)
        xs = G.mul_gen(x, s)
        if xs is not y:
            assert pc[(xs, y)] is p


def test_kl_columns_store_each_value_once(monkeypatch):
    monkeypatch.setattr(hecke, "_CONTEXTS", {})
    datum = create("GL", 4)
    multiplicity.compute(datum, (2, 1, 0, 0))
    H = context(datum)
    values = [p for p in _pairs(H).values() if p != 1]
    assert len(values) == 280
    assert len({id(p) for p in values}) == len(set(values)) == 2
    # each stored int is the held one, with one decoded LaurentPoly
    assert all(H._p_values[p] is p for p in values)
    assert len({id(H._p_polys[p]) for p in values}) == 2


def test_kl_poly_and_ic_basis_element_share_the_held_polynomials(monkeypatch):
    monkeypatch.setattr(hecke, "_CONTEXTS", {})
    datum = create("GL", 4)
    multiplicity.compute(datum, (2, 1, 0, 0))
    H = context(datum)
    G = H.group
    held = {id(q) for q in H._p_polys.values()}
    seen = set()
    for w, col in H._p_cols.items():
        c = H.ic_basis_element(w)
        for x in col:
            p = H.kl_poly(x, w)
            assert isinstance(p, LaurentPoly) and id(p) in held
            assert (c.terms[x] is p) if w.sign() == 1 else (c.terms[x] == -p)
            if p == ONE:
                assert p is ONE
            seen.add(id(p))
    assert len(seen) == 3  # 1 and the two values of test_kl_columns_store_each_value_once
    assert H.kl_poly(G.identity, G.identity) is ONE


@pytest.mark.parametrize("fam,n,text", [("GL", 3, "2,1,0"), ("GL", 4, "2,1,0,0"), ("G2", 2, "2,1,0")])
def test_kl_columns_are_the_lower_intervals(monkeypatch, fam, n, text):
    # a column is built over the keys of the column of ys, never over an
    # interval, so its keys must still be [e, w) of the Bruhat order
    monkeypatch.setattr(hecke, "_CONTEXTS", {})
    datum = create(fam, n)
    multiplicity.compute(datum, datum.parse_coweight(text))
    H = context(datum)
    G = H.group
    assert len(H._p_cols) > 1
    for w, col in H._p_cols.items():
        assert col.keys() == G._interval(w) - {w}


def test_table_builds_no_interval_per_column(monkeypatch):
    # Adm(mu) is the union of the intervals of its translations; the KL
    # columns, the downward solve and the Bruhat configurations add none
    monkeypatch.setattr(affweyl, "_GROUPS", {})
    monkeypatch.setattr(hecke, "_CONTEXTS", {})
    datum = create("GL", 4)
    G = group(datum)
    adm = G.adm((2, 1, 0, 0))
    built = len(G._intervals)
    assert built < len(adm) == 143
    multiplicity.compute(datum, (2, 1, 0, 0))
    assert len(G._intervals) == built


def test_inv_kl_poly_rejects_elements_of_two_groups():
    # every entry point refuses an element of another datum, whether one
    # element or both are foreign, rather than answer for the wrong group
    H3, H4 = ctx("GL", 3), ctx("GL", 4)
    e3, w3 = H3.group.identity, H3.group.decode("t[1,0,-1]*w[]")
    w4 = H4.group.translation((1, 0, 0, 0))
    assert H3.r_poly(e3, w3) == LaurentPoly({0: 1, 2: -3, 4: 4, 6: -3, 8: 1})
    for H, x, w in ((H4, e3, w4), (H3, w4, e3), (H4, e3, w3), (H4, w3, w3)):
        for fn in (H.kl_poly, H.inv_kl_poly, H.r_poly):
            with pytest.raises(DatumMismatch):
                fn(x, w)
    with pytest.raises(DatumMismatch):
        H4.ic_basis_element(w3)
    with pytest.raises(DatumMismatch):
        H4.to_ic_basis(H3.T(w3))


def test_products_reject_elements_of_another_datum():
    # a GL3 element or Hecke element handed to GL4's basis elements and
    # products: to_ic_basis(T(w3)), mul_T and mul_T_inv used to fail deep
    # in the walk with InvariantViolation
    H3, H4 = ctx("GL", 3), ctx("GL", 4)
    w3 = H3.group.decode("t[1,0,-1]*w[]")
    e4 = H4.group.identity
    h3, h4 = H3.T(w3), H4.T(e4)
    calls = [
        lambda: H4.to_ic_basis(H4.T(w3)),
        lambda: H4.mul_T(h4, w3),
        lambda: H4.mul_T_inv(h4, w3),
        lambda: H4.T(w3),
        lambda: hecke.HeckeElement(H4, {e4: ONE, w3: ONE}),
        lambda: H4.mul_T(h3, e4),
        lambda: H4.mul_T_inv(h3, e4),
        lambda: H4.mul_T_inv(H4.zero(), w3),
        lambda: H4.mul_gen_T(h3, 1),
        lambda: H4.mul_gen_T_inv(h3, 1),
        lambda: H4.gen_mul_T(1, h3),
        lambda: H4.mul_omega(h4, H3.group.identity),
        lambda: H4.mul_omega(h3, e4),
        lambda: H4.inv_T(w3),
        lambda: H4.mul(h4, h3),
        lambda: H4.sum([h4, h3]),
        lambda: H4.bar(h3),
        lambda: H4.bernstein_sum([(e4, w3, 1, 0)]),
        lambda: H4.bernstein_sum([(w3, e4, 1, 0)]),
    ]
    for n, call in enumerate(calls):
        with pytest.raises(DatumMismatch):
            call()
            pytest.fail(f"call {n} returned")


def test_bernstein_sum_is_the_laurent_sum():
    # sum k v^e T_{t1} T_{t2}^{-1}: each part multiplied back by T_{t2}
    # with the forward walk mul_T gives k v^e T_{t1}, and the sum is the
    # sum of the parts.  Parts sharing a t2 with e of either parity, a t2
    # with a length-zero part, a non-translation t1, negative and zero
    # weights, and a weight of 2**80, whose digits are far wider than 48 bits
    H = ctx("GL", 3)
    G = H.group
    t = G.translation
    parts = [
        (t((2, 1, 0)), t((1, 1, 0)), 2**80, 3),
        (t((1, 0, 0)), t((1, 1, 0)), 1 - 2**80, -2),
        (t((0, 0, 1)), t((1, 1, 0)), 5, 1),
        (G.decode("t[1,0,-1]*w[s1]"), t((1, 0, 0)), -7, 0),
        (t((2, 0, 0)), t((2, 1, 0)), 0, 4),
        (t((0, 1, -1)), t((0, 0, 0)), 3, -1),
    ]
    each = []
    for t1, t2, k, e in parts:
        part = H.bernstein_sum([(t1, t2, k, e)])
        assert H.mul_T(part, t2) == H.T(t1).scale(LaurentPoly.v_power(e, k))
        each.append(part)
    got = H.bernstein_sum(parts)
    assert got == H.sum(each)
    assert max(abs(c) for p in got.terms.values() for c in p.terms.values()) >= 2**80
    assert H.bernstein_sum([]) == H.zero()


def test_kl_poly_reads_the_column_of_w(monkeypatch):
    # P_{n_lambda, n_mu} on G2 2,0 comes off the column of n_mu, whose keys
    # are [e, n_mu): no interval is built, x = w gives 1 and an x that is
    # shorter than w but not below it gives 0
    monkeypatch.setattr(affweyl, "_GROUPS", {})
    monkeypatch.setattr(hecke, "_CONTEXTS", {})
    datum = create("G2", 2)
    H = context(datum)
    G = H.group
    mu = (2, 0)
    n_mu = checks.longest_in_double_coset(G, mu)
    for lam in datum.dominant_below(mu):
        p = H.kl_poly(checks.longest_in_double_coset(G, lam), n_mu)
        assert p.eval_at("v=1") == datum.weight_multiplicity(mu, lam)
    assert H.kl_poly(n_mu, n_mu) is ONE
    x = G.decode("t[-1,2]*w[]")
    assert x.length() < n_mu.length() and G.omega_class(x) == G.omega_class(n_mu)
    assert H.kl_poly(x, n_mu) == LaurentPoly.zero()
    assert G._intervals == {}
    assert not G.leq(x, n_mu)


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


@pytest.mark.parametrize("fam, n, mu", [("GL", 3, (2, 1, 0)), ("GSp", 2, (1, 1, 1)), ("G2", 2, (1, 0))])
def test_exact_sums_do_not_depend_on_the_term_order(fam, n, mu):
    # mul and from_ic_basis add exact terms in the order they are given;
    # the one ordering of the output is encode's
    H = ctx(fam, n)
    rng = random.Random(9)
    pool = ball(H.group, 3)

    def sample():
        return H.sum(H.T(x).scale(LaurentPoly({rng.randint(-2, 2): rng.randint(-3, 3) or 1}))
                     for x in rng.sample(pool, 5))

    def reverse(h):
        return hecke.HeckeElement._of(H, dict(reversed(h.terms.items())))

    f = kottwitz_function(H.datum, mu)
    coeffs = H.to_ic_basis(f)
    back = H.from_ic_basis(dict(reversed(coeffs.items())))
    assert back == H.from_ic_basis(coeffs) == f
    assert list(back.encode().items()) == list(f.encode().items())
    for _ in range(4):
        a, b = sample(), sample()
        ab, ab_rev = H.mul(a, b), H.mul(a, reverse(b))
        assert ab == ab_rev and repr(ab) == repr(ab_rev)


def test_kl_recursion_vs_bar_fixedness_oracle():
    results = list(checks.kl_solver_checks())
    assert [name for name, _, _ in results] == [
        "kl-recursion-vs-bar-fixedness-GL4-2,1,0,0",
        "kl-recursion-vs-bar-fixedness-GSp4-2,1,1,0",
        "kl-recursion-vs-bar-fixedness-G2-2,1,0",
        "kl-recursion-vs-bar-fixedness-GSp6-1,1,1,0,0,0",
        "kl-recursion-vs-bar-fixedness-G2-3,0",
    ]
    for name, ok, detail in results:
        assert ok, (name, detail)
        assert detail.endswith(", 0 mismatches"), detail
    # G2 3,0 checks the columns of 3 of its 6 translations, l(t_lambda) = 18
    assert results[-1][2].startswith("1011 pairs of 3 translations x Adm(3,0) (864 with x <= w)")


def test_q_oracle_vs_ic_basis():
    results = list(checks.q_oracle_checks())
    assert [name for name, _, _ in results] == [
        f"q-oracle-vs-ic-basis-{label}-{text}" for label, text in checks.PQ_INVERSION_CASES
    ] + ["q-oracle-vs-ic-basis-GL3", "q-oracle-vs-ic-basis-GSp4"]
    for name, ok, detail in results:
        assert ok, (name, detail)
        assert detail.endswith(", 0 mismatches"), detail
    # 4,736 pairs x <= w of the six Adm sets, then those of [e, y0], y0 of
    # length 6
    assert [detail for _, _, detail in results[6:]] == [
        "289 pairs x <= w of [e, t[-1,-1,2]*w[]], 0 mismatches",
        "253 pairs x <= w of [e, t[-1,-1,0]*w[]], 0 mismatches",
    ]
    assert sum(int(detail.split()[0]) for _, _, detail in results) == 5278


def test_inverse_product_oracle():
    results = list(checks.inverse_product_checks())
    assert [name for name, _, _ in results] == [
        f"inverse-product-{label}-{text}" for label, text in checks.PQ_INVERSION_CASES
    ]
    for name, ok, detail in results:
        assert ok, (name, detail)
        assert detail.endswith(", 0 mismatches"), detail
    # 143 + 19 + 41 + 49 + 7 + 13 elements y
    assert sum(int(detail.split()[0]) for _, _, detail in results) == 272


def test_kottwitz_function_makes_no_laurent_product(monkeypatch):
    # quadratic steps and monomial scalings are shifts, sums add into one dict
    calls = []
    real = LaurentPoly.__mul__

    def counting(self, other):
        calls.append(1)
        return real(self, other)

    monkeypatch.setattr(LaurentPoly, "__mul__", counting)
    f = kottwitz_function(create("GL", 5), (2, 1, 0, 0, 0))
    assert len(f.terms) == 701
    assert calls == []


@pytest.mark.parametrize(
    "fam,n,lams",
    [
        ("GL", 4, [(1, 0, 0, -1), (0, 2, -1, 1), (2, 1, 0, 0), (-1, 0, 0, 0)]),
        ("GSp", 2, [(0, 1, 1), (1, 0, 1), (-1, 1, 0), (2, 1, 3)]),
        ("G2", 2, [(-1, 2), (1, -1), (0, 0)]),
    ],
)
def test_theta_calls_the_group_law_once_per_left_term(monkeypatch, fam, n, lams):
    # Theta = T~_{t1} T~_{t2}^{-1}: omega^{-1} multiplies the one term of
    # T_{t1}, not every term of the product
    from affhecke import affweyl, central

    datum = create(fam, n)
    calls = []
    real = affweyl.AffineWeylGroup.mul

    def counting(self, a, b):
        calls.append(1)
        return real(self, a, b)

    monkeypatch.setattr(affweyl.AffineWeylGroup, "mul", counting)
    for lam in lams:
        calls.clear()
        h = central.theta(datum, lam)
        assert h and len(calls) == 1, (lam, len(h.terms), len(calls))


def test_table_computes_no_r_polynomials(monkeypatch):
    monkeypatch.setattr(hecke, "_CONTEXTS", {})
    datum = create("GL", 4)
    multiplicity.compute(datum, (2, 1, 0, 0))
    H = context(datum)
    assert len(_pairs(H)) == 3234
    assert H._r_cache == {}


def test_single_q_computes_no_r_polynomials():
    H = HeckeContext(create("G2", 2))
    G = H.group
    n_mu = checks.longest_in_double_coset(G, (2, 0))
    x = G.mul_gen(n_mu, G.first_right_descent(n_mu))
    assert H.inv_kl_poly(x, n_mu) == ONE
    assert H._r_cache == {}


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_kl_column_solve_is_iterative():
    # l(t) = 28: a solve that recursed along a reduced word would need a
    # stack frame per generator
    H = HeckeContext(create("GL", 3))
    G = H.group
    t = G.translation((7, 0, -7))
    assert t.length() == 28
    x = G.below(t)[0]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 15)
    try:
        p = H.kl_poly(x, t)
    finally:
        sys.setrecursionlimit(limit)
    assert p.is_q_polynomial() and p.q_coeff(0) == 1


def test_r_poly_is_iterative():
    # l(t) = 28: R_{e,t} recursed once per generator of the word of t
    H = HeckeContext(create("GL", 3))
    G = H.group
    t = G.translation((7, 0, -7))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 15)
    try:
        r = H.r_poly(G.identity, t)
    finally:
        sys.setrecursionlimit(limit)
    assert r.is_q_polynomial() and r.q_coeff(t.length()) == 1
    assert r.eval_at("v=1") == 0


def test_kl_column_rejects_a_corrupted_dependency():
    # P_{x,v} with xs > x enters P_{x,y} with coefficient 1, so a constant
    # term of 2 there (the packed value plus 1) must raise, not give a
    # wrong P_{x,y}
    H = HeckeContext(create("GL", 3))
    G = H.group
    y = G.translation((2, 1, 0))
    s = G.first_right_descent(y)
    v = G.mul_gen(y, s)
    x = G.reduced_word(v)[0]  # the length-0 element below v
    assert G.mul_gen(x, s).length() > x.length()
    H._kl_column(v)
    H._p_cols[v][x] = H._p_cols[v][x] + 1
    with pytest.raises(InvariantViolation):
        H._kl_column(y)
    assert y not in H._col_done
    assert y not in H._p_cols
    with pytest.raises(InvariantViolation):
        H.kl_poly(x, y)


def _laurent_shape(p, gap):
    """The shape of a KL polynomial as read off a LaurentPoly."""
    return p.is_q_polynomial() and p.q_coeff(0) == 1 and 2 * p.q_degree() <= gap - 1


def test_packed_shape_test_matches_the_laurent_one():
    # coefficients at both ends of (-B/2, B/2), negative ones, constant
    # terms other than 1, zero, and degrees at and above the bound
    H = HeckeContext(create("GL", 3))
    big = H._half - 1
    digits = (-big, -2, -1, 0, 1, 2, big)
    accepted = rejected = 0
    for const in (-1, 0, 1, 2):
        for rest in itertools.product(digits, repeat=3):
            poly = LaurentPoly.from_q_coeffs([const, *rest])
            packed = H._pack(poly)
            assert H._unpack(packed) == poly
            for gap in range(1, 9):
                want = _laurent_shape(poly, gap)
                assert H._kl_shape(packed, gap) == want, (poly, gap)
                accepted += want
                rejected += not want
    # constant term 1 and degree <= (gap - 1) // 2 = 0, 0, 1, 1, 2, 2, 3, 3
    assert accepted == 2 * (1 + 7 + 7 ** 2 + 7 ** 3) and rejected == 8 * 4 * 7 ** 3 - accepted
    for bad in ({0: H._half}, {0: 1, 2: -H._half}, {1: 1}, {-2: 1}):
        with pytest.raises(ValueError):
            H._pack(LaurentPoly(bad))


def test_to_ic_basis_solves_odd_and_negative_powers():
    H = ctx("GL", 3)
    G = H.group
    t = G.translation((1, 1, 0))
    s = G.simple_reflection(1)
    h = H.T(t).scale(LaurentPoly({-3: 1, 2: 2, 5: -1})) + H.T(s).scale(LaurentPoly({1: 4, -4: -1}))
    coeffs = H.to_ic_basis(h)
    assert H.from_ic_basis(coeffs) == h
    assert any(e % 2 for c in coeffs.values() for e in c.terms)


def test_to_ic_basis_refuses_what_it_could_not_decode():
    # a row is decoded only when its coefficients are bounded under B/2
    H = ctx("GL", 3)
    e = H.group.identity
    edge = LaurentPoly({-3: H._half - 1, 2: 1 - H._half})
    assert H.to_ic_basis(H.T(e).scale(edge)) == {e: edge}
    with pytest.raises(InvariantViolation):
        H.to_ic_basis(H.T(e).scale(H._half))
    # every input coefficient is under B/2, but the true rows below a
    # overflow their digits and pack to 0: the guard must run before a
    # row is skipped as 0, or the solve returns {a: r} alone
    H = ctx("GL", 4)
    a = H.group.decode("t[1,0,1,1]*w[s1.s2.s3]")
    col = H._kl_column(a)
    assert any(p != 1 for p in col.values())
    t = H._half - 2
    r = LaurentPoly({0: t, 2: t})
    terms = {z: H._unpack(H._pack(r) * p) for z, p in col.items()}
    terms[a] = r
    assert all(abs(c) < H._half for v in terms.values() for c in v.terms.values())
    with pytest.raises(InvariantViolation):
        H.to_ic_basis(H.sum(H.T(w).scale(c) for w, c in terms.items()))


def test_kl_cache_roundtrip(tmp_path):
    H = ctx("GL", 3)
    G = H.group
    t = G.translation((1, 1, 0))
    H._kl_column(t)
    KLCache(str(tmp_path)).save_from(H)
    path = KLCache(str(tmp_path)).path(H.datum)
    lines = open(path).read().splitlines()
    assert lines[0] == "klcache v1 GL3 base-alcove=dominant"
    assert len(lines) > 1
    # a fresh context loads the cache and agrees
    from affhecke.hecke import HeckeContext

    H2 = HeckeContext(create("GL", 3))
    n = KLCache(str(tmp_path)).load_into(H2)
    assert n == len(lines) - 1
    for x in G.below(t):
        assert H2.kl_poly(x, t) == H.kl_poly(x, t)


@pytest.fixture(scope="module")
def gl5_cache(tmp_path_factory):
    """The KL cache file a cold GL5 `1,1,0,0,0` table writes (2,020 records)."""
    directory = str(tmp_path_factory.mktemp("klcache"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hecke, "_CONTEXTS", {})
        datum = create("GL", 5)
        multiplicity.compute(datum, (1, 1, 0, 0, 0))
        KLCache(directory).save_from(context(datum))
    return KLCache(directory)


def _records(cache, datum):
    with open(cache.path(datum), encoding="ascii") as fh:
        return [line.split() for line in fh.readlines()[1:]]


def test_kl_cache_load_decodes_each_element_once(gl5_cache, monkeypatch):
    datum = create("GL", 5)
    strings = {e for x_enc, w_enc, _ in _records(gl5_cache, datum) for e in (x_enc, w_enc)}
    assert len(strings) == 131
    decode = AffineWeylGroup.decode
    calls = []

    def counting_decode(g, text):
        calls.append(text)
        return decode(g, text)

    monkeypatch.setattr(AffineWeylGroup, "decode", counting_decode)
    assert gl5_cache.load_into(HeckeContext(datum)) == 2020
    assert sorted(calls) == sorted(strings)


def test_kl_cache_load_shares_equal_polynomials(gl5_cache):
    datum = create("GL", 5)
    texts = {p for _, _, p in _records(gl5_cache, datum)}
    assert len(texts) == 3
    H = HeckeContext(datum)
    assert gl5_cache.load_into(H) == 2020
    by_text = {}
    pc = _pairs(H)
    for p in pc.values():
        by_text.setdefault(H._p_polys[p].encode(), set()).add(id(p))
    assert set(by_text) == texts
    assert all(len(ids) == 1 for ids in by_text.values())
    # the loaded packed values are the context's interned ones, each with
    # one LaurentPoly, 1 being the shared one
    assert {id(p) for p in H._p_values.values()} == {id(p) for p in pc.values()}
    assert len({id(q) for q in H._p_polys.values()}) == 3
    assert H._p_polys[1] is hecke._ONE


def test_kl_cache_load_builds_no_interval(gl5_cache, monkeypatch):
    # each column is checked whole against the column of ws, so the load
    # needs no interval and no Bruhat test
    monkeypatch.setattr(affweyl, "_GROUPS", {})
    leq = []
    monkeypatch.setattr(AffineWeylGroup, "leq", lambda g, x, y: leq.append(1))
    H = HeckeContext(create("GL", 5))
    assert gl5_cache.load_into(H) == 2020
    assert H.group._intervals == {} and leq == []


def test_kl_cache_load_needs_the_column_of_ws(gl5_cache, tmp_path):
    datum = create("GL", 5)
    G = group(datum)
    records = _records(gl5_cache, datum)
    cols = {}
    for x, w, p in records:
        cols.setdefault(w, []).append((x, w, p))

    def ws(w_enc):
        w = G.decode(w_enc)
        return G.mul_gen(w, G.first_right_descent(w)).encode()

    needed = {ws(w) for w in cols} & set(cols)
    tops = set(cols) - needed
    assert needed and tops
    cache = KLCache(str(tmp_path))
    for dropped, want in ((min(needed), 0), (min(tops), 2020 - len(cols[min(tops)]))):
        with open(cache.path(datum), "w", encoding="ascii") as fh:
            fh.write("klcache v1 GL5 base-alcove=dominant\n")
            fh.writelines(" ".join(r) + "\n" for r in records if r[1] != dropped)
        assert cache.load_into(HeckeContext(datum)) == want


def test_cold_save_encodes_each_value_once(monkeypatch, tmp_path):
    # GL5 1,1,0,0,0: 2,020 records over 131 elements and 3 polynomials
    monkeypatch.setattr(hecke, "_CONTEXTS", {})
    datum = create("GL", 5)
    multiplicity.compute(datum, (1, 1, 0, 0, 0))
    H = context(datum)
    polys, elements = [], []
    encode, group_encode = LaurentPoly.encode, AffineWeylGroup.encode

    def counting(p):
        polys.append(p)
        return encode(p)

    def counting_group(g, x):
        elements.append(x)
        return group_encode(g, x)

    monkeypatch.setattr(LaurentPoly, "encode", counting)
    monkeypatch.setattr(AffineWeylGroup, "encode", counting_group)
    KLCache(str(tmp_path)).save_from(H)
    monkeypatch.undo()
    assert len(polys) == len(set(polys)) == 3
    assert len(elements) == len(set(elements)) == 131
    records = _records(KLCache(str(tmp_path)), datum)
    assert len(records) == 2020
    assert records == sorted(records)


def test_kl_cache_corruption_ignored(tmp_path):
    H = ctx("GL", 3)
    G = H.group
    t = G.translation((1, 1, 0))
    H._kl_column(t)
    KLCache(str(tmp_path)).save_from(H)
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
    KLCache(str(tampered)).save_from(H)
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


def _unreduced(enc):
    """The same element with s1.s1 put in front of its finite word."""
    trans, word = enc[:-1].split("]*w[")
    return f"{trans}]*w[{'.'.join(['s1', 's1'] + ([word] if word else []))}]"


@pytest.mark.parametrize(
    "mutate",
    [
        lambda x, w, p, gap: (w, x, p),  # l(x) > l(w)
        lambda x, w, p, gap: (x, x, "1*v^0"),  # l(x) = l(w)
        lambda x, w, p, gap: (x, w, p + "+1*v^-2"),  # negative q-power
        lambda x, w, p, gap: (x, w, p + "+1*v^1"),  # odd v-power
        lambda x, w, p, gap: (x, w, f"1*v^0+1*v^{gap + gap % 2}"),  # 2 deg_q P >= gap
        # the same values in text that is not canonical
        lambda x, w, p, gap: (_unreduced(x), w, p),
        lambda x, w, p, gap: (x, w, p + "+0*v^2"),
    ],
    ids=[
        "x-longer", "same-length", "negative-power", "odd-power", "degree",
        "unreduced-word", "zero-term",
    ],
)
def test_kl_cache_rejects_implausible_records(tmp_path, mutate):
    from affhecke.hecke import HeckeContext

    H = ctx("GL", 3)
    G = H.group
    H._kl_column(G.translation((2, 1, 0)))
    KLCache(str(tmp_path)).save_from(H)
    path = KLCache(str(tmp_path)).path(H.datum)
    lines = open(path).read().splitlines()
    assert KLCache(str(tmp_path)).load_into(HeckeContext(create("GL", 3))) == len(lines) - 1
    x_enc, w_enc, poly = lines[-1].split()
    gap = G.decode(w_enc).length() - G.decode(x_enc).length()
    lines[-1] = " ".join(mutate(x_enc, w_enc, poly, gap))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    assert KLCache(str(tmp_path)).load_into(HeckeContext(create("GL", 3))) == 0


def test_kl_cache_rejects_record_not_below(tmp_path):
    # a record whose x is not <= w, though shorter and in the same coset
    from affhecke.hecke import HeckeContext

    H = ctx("GL", 3)
    G = H.group
    H._kl_column(G.translation((2, 1, 0)))
    KLCache(str(tmp_path)).save_from(H)
    path = KLCache(str(tmp_path)).path(H.datum)
    lines = open(path).read().splitlines()
    k, (x_enc, w_enc, poly) = max(
        enumerate(line.split() for line in lines[1:]),
        key=lambda r: G.decode(r[1][0]).length(),
    )
    x, w = G.decode(x_enc), G.decode(w_enc)
    below_w = set(G.below(w))
    omega = G.reduced_word(w)[0]
    x_bad = next(
        z
        for z in (G.mul(omega, b) for b in ball(G, x.length() - 1))
        if z not in below_w
    )
    assert x_bad.length() < x.length()
    assert G.omega_class(x_bad) == G.omega_class(w)
    lines[k + 1] = f"{x_bad.encode()} {w_enc} {poly}"
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    assert KLCache(str(tmp_path)).load_into(HeckeContext(create("GL", 3))) == 0


def test_hecke_element_encoding():
    H = ctx("GL", 3)
    G = H.group
    t = G.translation((1, 0, 0))
    h = H.T(t).scale(LaurentPoly.v_power(-t.length()))
    enc = h.encode()
    back = {G.decode(k): LaurentPoly.decode(v) for k, v in enc.items()}
    assert hecke.HeckeElement(H, back) == h


def test_lusztig_q_analogue_oracle():
    results = list(checks.q_analogue_checks())
    assert [name for name, _, _ in results] == [
        "q-analogue-GL3-2,1,0",
        "q-analogue-GL3-3,0,0",
        "q-analogue-GSp4-2,2,0,0",
        "q-analogue-G2-1,0",
        "q-analogue-GL4-2,1,1,0",
    ]
    for name, ok, detail in results:
        assert ok, (name, detail)
        assert detail.endswith(", 0 mismatches"), detail
    # the zero weight of the adjoint representation of PGL_3: m(q) = q + q^2
    # (the exponents 1, 2), so P = q^2 m(1/q) = 1 + q
    H = ctx()
    n_lam, n_mu = (
        checks.longest_in_double_coset(H.group, lam) for lam in ((1, 1, 1), (2, 1, 0))
    )
    assert H.kl_poly(n_lam, n_mu) == ONE + Q
