import os
import pathlib
import pickle
import random
import subprocess
import sys

import pytest

from affhecke import affweyl, checks, cli, hecke, multiplicity, rootdata
from affhecke.affweyl import DatumMismatch, group
from affhecke.checks import ball
from affhecke.rootdata import DimensionMismatch, NotDominant, create, dot, mat_vec

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def gl(n):
    return group(create("GL", n))


def test_translation_basics():
    G = gl(4)
    assert G.translation((0, 0, 0, 0)) is G.identity
    assert G.translation((1, 1, 0, 0)).length() == 4
    a = G.translation((1, 0, 2, 0))
    b = G.translation((0, 1, 1, 3))
    assert G.mul(a, b) == G.translation((1, 1, 3, 3))


def test_simple_reflection_lengths():
    for G in (gl(3), group(create("GSp", 2)), group(create("G2", 2))):
        assert G.identity.length() == 0
        for i in range(G.n_gens):
            assert G.simple_reflection(i).length() == 1


def test_translation_length_formula():
    G = gl(3)
    assert G.translation((3, 1, 0)).length() == 6
    # dominant formula <lambda, 2 rho>
    datum = create("GL", 5)
    G5 = group(datum)
    lam = (4, 2, 1, 1, 0)
    expect = sum(
        abs(lam[i] - lam[j]) for i in range(5) for j in range(i + 1, 5)
    )
    assert G5.translation(lam).length() == expect


def test_group_laws_random():
    rng = random.Random(11)
    G = gl(3)
    pool = ball(G, 4)
    for _ in range(30):
        a, b, c = (rng.choice(pool) for _ in range(3))
        assert G.mul(G.mul(a, b), c) is G.mul(a, G.mul(b, c))
        assert G.mul(a, G.inv(a)) is G.identity
        assert G.mul(G.inv(a), a) is G.identity
    # semidirect relation: wbar t_mu wbar^{-1} = t_{wbar(mu)}
    datum = create("GL", 3)
    for _ in range(10):
        mu = tuple(rng.randint(-2, 2) for _ in range(3))
        w = rng.choice(pool)
        wbar = G.finite(w.fin)
        lhs = G.mul(G.mul(wbar, G.translation(mu)), G.inv(wbar))
        assert lhs is G.translation(mat_vec(wbar.fin, mu))


def test_reduced_word_roundtrip():
    rng = random.Random(5)
    for G in (gl(4), group(create("GSp", 2)), group(create("G2", 2))):
        pool = ball(G, 6)
        for x in rng.sample(pool, min(25, len(pool))):
            omega, word = G.reduced_word(x)
            assert omega.length() == 0
            assert len(word) == x.length()
            assert G.from_word(omega, word) is x
    G = gl(4)
    assert G.reduced_word(G.identity) == (G.identity, ())


@pytest.mark.parametrize("label", ["GL3", "GSp4", "G2"])
def test_crossing_sign_of_the_walls_of_an_alcove(label):
    G = group(rootdata.parse_group(label))
    # the base alcove lies on the positive side of each alpha_i, i >= 1,
    # and on the side <theta, x> < 1 of the wall of s_0
    assert [G.crossing_sign(G.identity, i) for i in range(G.n_gens)] == [1] + [-1] * (G.n_gens - 1)
    for x in ball(G, 3):
        for i in range(G.n_gens):
            assert G.crossing_sign(G.mul_gen(x, i), i) == -G.crossing_sign(x, i)


def test_reduced_word_stops_at_the_length(monkeypatch):
    # a descent test that never ends must raise, not strip forever
    G = affweyl.AffineWeylGroup(create("GL", 3))
    x = G.translation((1, 0, 0))
    calls = []

    def always_descent(self, y):
        calls.append(y)
        return 1

    monkeypatch.setattr(affweyl.AffineWeylGroup, "first_right_descent", always_descent)
    with pytest.raises(affweyl.InvariantViolation):
        G.reduced_word(x)
    assert len(calls) == x.length() + 1


def test_encode_stops_at_the_finite_length(monkeypatch):
    # a finite walk whose steps never reach e must raise in encode
    G = affweyl.AffineWeylGroup(create("GL", 3))
    s = G.simple_reflection(1)
    monkeypatch.setattr(G, "_gperm", [G._perm[0]] * G.n_gens)
    with pytest.raises(affweyl.InvariantViolation):
        G.encode(s)


def test_length_subadditive():
    rng = random.Random(6)
    G = gl(3)
    pool = ball(G, 5)
    for _ in range(40):
        a, b = rng.choice(pool), rng.choice(pool)
        ab = G.mul(a, b)
        assert ab.length() <= a.length() + b.length()
        assert (ab.length() - a.length() - b.length()) % 2 == 0


def test_bruhat_order_basic():
    G = gl(3)
    e = G.identity
    for i in range(G.n_gens):
        s = G.simple_reflection(i)
        assert G.leq(e, s)
        assert G.leq(s, s)
        assert not G.leq(s, e)
    # order respects length strictly
    t = G.translation((1, 1, 0))
    for x in G.below(t):
        assert G.leq(x, t)
        if x is not t:
            assert x.length() < t.length()


def test_bruhat_vs_subword_oracle():
    rng = random.Random(7)
    for G in (gl(3), group(create("GSp", 2))):
        pool = ball(G, 5)
        for _ in range(150):
            x, y = rng.choice(pool), rng.choice(pool)
            assert G.leq(x, y) == (x in set(G.below(y)))


def test_bruhat_vs_lifting_oracle():
    # leq (interval membership) against the unmemoised lifting recursion
    results = list(checks.bruhat_oracle_checks(depth=5))
    assert [name for name, _, _ in results] == [
        f"bruhat-lifting-vs-interval-{label}" for label in ("GL3", "GSp4", "G2")
    ]
    for name, ok, detail in results:
        assert ok, (name, detail)
        assert detail.endswith(", 0 mismatches"), detail
    # GL3 and GSp4 pools straddle two Omega-cosets
    for _, _, detail in results[:2]:
        assert "(0 across" not in detail


def test_bruhat_across_omega_cosets():
    G = gl(2)
    t1 = G.translation((1, 0))
    t2 = G.translation((1, 1))
    assert not G.leq(t2, t1)
    assert not G.leq(G.identity, t1)  # different coset invariant (sum 0 vs 1)


def test_a_table_and_its_queries_keep_no_interval(monkeypatch, capsys):
    # Adm(mu) is a union of subword closures that nothing reads again, so
    # the table and the adm and kottwitz queries store no [e, y]
    monkeypatch.setattr(affweyl, "_GROUPS", {})
    monkeypatch.setattr(hecke, "_CONTEXTS", {})
    datum = create("GL", 4)
    multiplicity.compute(datum, (2, 1, 0, 0))
    for kind in ("adm", "kottwitz"):
        assert cli.main(["query", kind, "GL4", "--mu", "2,1,0,0"]) == 0
    capsys.readouterr()
    assert group(datum)._intervals == {}


def test_leq_memoises_the_interval_of_y_alone(monkeypatch):
    monkeypatch.setattr(affweyl, "_GROUPS", {})
    G = gl(4)
    y = G.translation((2, 1, 0, 0))
    x = G.mul_gen(G.mul_gen(y, 1), 2)
    assert G.leq(x, y)
    assert list(G._intervals) == [y]


def gl2():
    return gl(2)


def test_adm_counts_small():
    G = gl(4)
    adm = G.adm((1, 1, 0, 0))
    assert len(adm) == 33
    gsp = group(create("GSp", 2))
    assert len(gsp.adm((1, 1, 1))) == 13
    with pytest.raises(NotDominant):
        G.adm((0, 1, 1, 0))


def test_adm_extremes_are_translations():
    G = gl(4)
    mu = (1, 1, 0, 0)
    adm = G.adm(mu)
    ell = G.translation(mu).length()
    tops = [x for x in adm if x.length() == ell]
    orbit = create("GL", 4).weyl_orbit(mu)
    assert len(tops) == len(orbit)
    assert set(tops) == {G.translation(lam) for lam in orbit}
    assert G.translation(mu) in set(adm)


def test_epsilon_sum_identity_minuscule():
    G = gl(4)
    mu = (1, 1, 0, 0)
    adm = G.adm(mu)
    eps_mu = 1 if G.translation(mu).length() % 2 == 0 else -1
    for x in adm:
        s = sum(w.sign() for w in adm if G.leq(x, w))
        assert s == eps_mu


def longest_by_products(g, lam):
    """n_lambda as the longest of all |W|^2 products u t_lambda v."""
    t = g.translation(lam)
    fins = [g.finite(m) for m, _sign in g.datum.finite_weyl()]
    return max((u * t * v for u in fins for v in fins), key=lambda x: x.length())


@pytest.mark.parametrize(
    "label, mu",
    [
        ("GL3", "3,1,0"),
        ("GL4", "2,1,1,0"),
        ("GSp4", "2,2,0,0"),
        ("GSp6", "2,1,1,1,1,0"),
        ("G2", "2,0"),
    ],
)
def test_longest_in_double_coset_climbs_to_the_products_maximum(label, mu):
    datum = rootdata.parse_group(label)
    g = group(datum)
    mu = datum.parse_coweight(mu)
    # every dominant lambda <= mu, and mu seen from a non-dominant conjugate
    for lam in (*datum.dominant_below(mu), datum.weyl_orbit(mu)[-1]):
        assert checks.longest_in_double_coset(g, lam) is longest_by_products(g, lam), lam


def test_minimal_coset():
    # x is shortest in x*W iff it has no finite right descent
    G = gl(4)
    assert G.right_descents(G.identity) == ()
    for i in range(1, G.n_gens):
        assert G.right_descents(G.simple_reflection(i)) == (i,)
    # affine reflection s_0 has no finite descent
    assert G.right_descents(G.simple_reflection(0)) == (0,)


def test_minimal_coset_reps_gaussian_binomial():
    # minimal representatives of W / W_mu for GL4, mu = (1,1,0,0), counted
    # by length, match the Gaussian binomial [4 choose 2]_q = 1,1,2,1,1
    datum = create("GL", 4)
    best = {}
    for m, _sign in datum.finite_weyl():
        img = mat_vec(m, (1, 1, 0, 0))
        length = sum(
            1
            for f in datum.pos_roots
            if tuple(
                sum(f[r] * m[r][k] for r in range(4)) for k in range(4)
            )
            not in datum.pos_root_set
        )
        if img not in best or length < best[img]:
            best[img] = length
    counts = {}
    for v in best.values():
        counts[v] = counts.get(v, 0) + 1
    assert [counts.get(i, 0) for i in range(5)] == [1, 1, 2, 1, 1]


def test_encode_decode():
    rng = random.Random(9)
    for G in (gl(4), group(create("GSp", 3)), group(create("G2", 2))):
        pool = ball(G, 5)
        for x in rng.sample(pool, min(20, len(pool))):
            assert G.decode(G.encode(x)) is x
    G = gl(4)
    t = G.translation((1, 0, 0, 0))
    assert G.encode(t).startswith("t[1,0,0,0]*w[")
    with pytest.raises(ValueError):
        G.decode("garbage")


def test_decode_accepts_any_reduced_word_and_only_those():
    # a word is reduced iff the walk along it from e ends at the length of
    # the word; decode must accept it under any translation exactly then,
    # and land where the walk from that translation ends
    rng = random.Random(12)
    for G in (gl(4), group(create("GSp", 2)), group(create("G2", 2))):
        for _ in range(60):
            word = [rng.randrange(1, G.n_gens) for _ in range(rng.randrange(7))]
            lam = tuple(rng.randint(-3, 3) for _ in range(G.datum.dim))
            text = f"t[{','.join(map(str, lam))}]*w[{'.'.join(f's{i}' for i in word)}]"
            if G.from_word(G.identity, word).length() == len(word):
                assert G.decode(text) is G.from_word(G.translation(lam), word)
            else:
                with pytest.raises(ValueError):
                    G.decode(text)
    G = gl(3)
    assert G.decode("t[-0,01,0]*w[s2.s1.s2]") is G.decode("t[0,1,0]*w[s1.s2.s1]")


def test_decode_makes_one_element_with_the_walks_length():
    # decode composes finite ids and makes the one element it returns: a
    # new text grows the interned elements by exactly one, and that
    # element has the length of the mul_gen walk along the word
    rng = random.Random(34)
    for datum in (create("GL", 4), create("GSp", 2), create("G2", 2)):
        fresh, walker = affweyl.AffineWeylGroup(datum), affweyl.AffineWeylGroup(datum)
        texts = {}
        for m, _sign in datum.finite_weyl():
            lam = tuple(rng.randint(-3, 3) for _ in range(datum.dim))
            omega, word = walker.reduced_word(walker.finite(m))
            assert omega is walker.identity
            texts[walker.encode(walker.element(lam, m))] = (lam, word)
        for text, (lam, word) in texts.items():
            before = len(fresh._intern)
            y = fresh.decode(text)
            assert len(fresh._intern) == before + 1
            walk = walker.from_word(walker.translation(lam), word)
            assert y.length() == walk.length() == fresh._length(y.trans, y._fi)
            assert fresh.encode(y) == walker.encode(walk) == text
            assert fresh.decode(text) is y and len(fresh._intern) == before + 1


@pytest.mark.parametrize(
    "fam, n", [("GL", 2), ("GL", 3), ("GL", 4), ("GL", 5), ("GSp", 2), ("GSp", 3), ("G2", 2)]
)
def test_derived_finite_words_are_the_strip(fam, n):
    # every finite id's word, derived from the word of wbar s_d, is the
    # reversed strip of its smallest descents, and its matrix, built from
    # that word, is the matrix of finite_weyl() with its permutation
    datum = create(fam, n)
    assert checks.finite_word_mismatches(datum) == (0, len(datum.finite_weyl()))


@pytest.mark.parametrize("label, mu", sorted(checks.GOLDEN_CASES))
def test_decode_inverts_encode_on_the_golden_adm_sets(label, mu):
    G = group(rootdata.parse_group(label))
    for x in G.adm(mu):
        assert G.decode(G.encode(x)) is x


def test_datum_mismatch():
    a = gl(3).identity
    b = gl(4).identity
    with pytest.raises(DatumMismatch):
        gl(3).mul(a, b)
    with pytest.raises(DatumMismatch):
        gl(3).leq(a, b)


def test_deterministic_ordering():
    G = gl(4)
    adm = G.adm((1, 1, 0, 0))
    keys = [G.sort_key(x) for x in adm]
    assert keys == sorted(keys)
    assert adm[0].length() == 0  # the base element comes first


@pytest.fixture(scope="module")
def finite_weyl_results():
    # the one sweep behind the index, product and ascent entries
    return list(checks.finite_weyl_checks())


def test_finite_index_vs_matrix_oracle(finite_weyl_results):
    results = finite_weyl_results[0:3]
    assert [name for name, _, _ in results] == [
        f"finite-index-vs-matrix-{label}" for label in ("GL4", "GSp6", "G2")
    ]
    for name, ok, detail in results:
        assert ok, (name, detail)
        assert detail.endswith(", 0 mismatches"), detail
    # the sweep's translations are a dominant regular and a non-dominant one
    for fam, n, regular, other in checks.FINITE_INDEX_CASES:
        datum = create(fam, n)
        assert all(dot(f, regular) > 0 for f in datum.pos_roots)
        assert not datum.is_dominant(other)


def count_index_calls(monkeypatch):
    """Patch AffineWeylGroup._register and _compose to record their calls."""
    calls = {"_register": [], "_compose": []}
    for name, made in calls.items():
        real = getattr(affweyl.AffineWeylGroup, name)

        def counting(self, *args, real=real, made=made):
            made.append(args)
            return real(self, *args)

        monkeypatch.setattr(affweyl.AffineWeylGroup, name, counting)
    return calls


def test_index_fills_each_table_cell_once(monkeypatch):
    # Adm, encode and decode read the finite Weyl index: at most one
    # registration per element of W and one permutation composition per
    # cell of the right generator tables
    calls = count_index_calls(monkeypatch)
    datum = create("GL", 4)
    G = affweyl.AffineWeylGroup(datum)
    adm = G.adm((2, 1, 1, 0))
    for x in adm:
        assert G.decode(G.encode(x)) is x
    assert 0 < len(calls["_register"]) == len(G._perm) <= len(datum.finite_weyl())
    assert 0 < len(calls["_compose"]) <= G.n_gens * len(datum.finite_weyl())
    assert len(set(calls["_compose"])) == len(calls["_compose"])


def test_a_failed_registration_publishes_no_id(monkeypatch):
    # a failure inside the registration of a new finite Weyl element must
    # leave no id that _pidx finds but the per-id lists lack
    datum = create("GL", 3)
    G = affweyl.AffineWeylGroup(datum)
    s1 = datum.simple_reflections[0]
    perm = G._perm_of(s1)
    assert perm not in G._pidx
    failed = []
    real = affweyl._inverse

    def fail_once(p):
        if not failed:
            failed.append(1)
            raise RuntimeError("injected")
        return real(p)

    monkeypatch.setattr(affweyl, "_inverse", fail_once)
    with pytest.raises(RuntimeError):
        G.element((1, 0, 0), s1)
    assert failed and perm not in G._pidx
    n = len(G._perm)
    for per_id in (G._fmat, G._g0, G._asc, G._fword, *G._rmul):
        assert len(per_id) == n
    assert all(k < n for k in G._pidx.values())
    x = G.element((1, 0, 0), s1)
    assert x.fin == s1 and x.length() == G._length(x.trans, x._fi) == 1


def test_mul_gen_makes_each_product_once(monkeypatch):
    # every x s_i comes from one table per generator that the group owns:
    # a second sweep over the same elements computes no product
    made = []
    real = affweyl._RightTable.__missing__

    def counting(table, x):
        made.append(1)
        return real(table, x)

    monkeypatch.setattr(affweyl._RightTable, "__missing__", counting)
    G = affweyl.AffineWeylGroup(create("GL", 3))
    pool = ball(G, 4)
    first = [G.mul_gen(x, i) for x in pool for i in range(G.n_gens)]
    assert made
    made.clear()
    second = [G.mul_gen(x, i) for x in pool for i in range(G.n_gens)]
    assert made == []
    assert all(a is b for a, b in zip(first, second))


def test_elements_hash_and_compare_by_identity():
    # interning makes equal elements one object, so the default object
    # hash and equality are exact
    for fam, n, mu in [("GL", 4, (2, 1, 0, 0)), ("GSp", 2, (1, 1, 1)), ("G2", 2, (1, 0))]:
        G = group(create(fam, n))
        for x in G.adm(mu):
            assert hash(x) == object.__hash__(x)
            assert G.decode(x.encode()) is x
            assert G.element(x.trans, x.fin) is x
            assert pickle.loads(pickle.dumps(x)) is x


def test_group_law_registers_each_finite_element_once(monkeypatch):
    # products compose root permutations and inverses invert them: each
    # finite Weyl element is registered once, and each composition fills
    # one cell of a right generator table or one id pair of the products
    calls = count_index_calls(monkeypatch)
    datum = create("GL", 4)
    G = affweyl.AffineWeylGroup(datum)
    adm = G.adm((2, 1, 1, 0))
    tau = G.reduced_word(G.translation((1, 0, 0, 0)))[0]
    assert tau.length() == 0 and tau is not G.identity
    for x in adm:
        assert G.decode(G.encode(x)) is x
        assert G.mul(G.inv(x), x) is G.identity
        for omega in (tau, G.inv(tau)):
            assert G.mul(x, omega).length() == G.mul(omega, x).length() == x.length()
    assert 0 < len(calls["_register"]) == len(G._perm) <= len(datum.finite_weyl()) == 24
    cells = sum(j is not None for row in G._rmul for j in row)
    assert 0 < len(calls["_compose"]) == cells + len(G._fprod)
    assert cells <= G.n_gens * 24


@pytest.mark.parametrize("fam, n", [("GL", 4), ("GSp", 3), ("G2", 2)])
def test_a_finite_right_factor_reads_no_matrix_of_the_left(fam, n):
    # t_lam wbar * vbar = t_lam (wbar vbar): the product keeps lam, so the
    # matrix of wbar, which no mul_gen walk builds, stays unbuilt
    datum = create(fam, n)
    G = affweyl.AffineWeylGroup(datum)
    x = G.from_word(G.identity, [0, 1, 2, 0, 1])
    assert any(x.trans) and x._fi and G._fmat[x._fi] is None
    fins = [m for m, _sign in datum.finite_weyl() if G._perm_of(m) != G._perm[x._fi]]
    products = [(x * G.finite(m), m) for m in fins]
    assert G._fmat[x._fi] is None
    for xy, m in products:
        fin = rootdata.mat_mul(x.fin, m)
        assert xy is G.element(x.trans, fin)
        assert xy.length() == checks.matrix_length(datum, x.trans, fin)


def test_table_and_trace_multiply_no_matrices(monkeypatch, capsys):
    # the finite Weyl index composes root permutations and builds a matrix
    # from simple reflections: no matrix product on the table or trace path
    assert not hasattr(affweyl, "mat_mul")
    calls = []
    real = rootdata.mat_mul

    def counting(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(rootdata, "mat_mul", counting)
    # fresh data, groups and contexts, so every finite element is new
    monkeypatch.setattr(rootdata, "_DATA", {})
    monkeypatch.setattr(affweyl, "_GROUPS", {})
    monkeypatch.setattr(hecke, "_CONTEXTS", {})
    assert cli.main(["table", "GL5", "--mu", "1,1,0,0,0"]) == 0
    assert cli.main(["query", "kottwitz", "GL5", "--mu", "2,1,0,0,0"]) == 0
    assert capsys.readouterr().out.startswith("Number of admissible alcoves: 131")
    assert calls == []


def test_finite_product_vs_matrix_oracle(finite_weyl_results):
    results = finite_weyl_results[3:6]
    assert [name for name, _, _ in results] == [
        f"finite-product-vs-matrix-{label}" for label in ("GL4", "GSp6", "G2")
    ]
    for name, ok, detail in results:
        assert ok, (name, detail)
        assert detail.endswith(", 0 mismatches"), detail
    # x * tau^{+-1} and tau^{+-1} * x on GL4 and GSp6, Omega trivial on G2
    assert [int(detail.split()[0]) for _, _, detail in results] == [
        24 * 3 * (5 + 4), 48 * 3 * (10 + 4), 12 * 3 * 3
    ]


def test_ascent_vs_length_oracle(finite_weyl_results):
    results = finite_weyl_results[6:9]
    assert [name for name, _, _ in results] == [
        f"ascent-vs-length-{label}" for label in ("GL4", "GSp6", "G2")
    ]
    for name, ok, detail in results:
        assert ok, (name, detail)
        assert detail.endswith(", 0 mismatches"), detail
    # every finite Weyl matrix x the three translations x every generator
    assert [int(detail.split()[0]) for _, _, detail in results] == [
        24 * 3 * 4, 48 * 3 * 4, 12 * 3 * 3
    ]


def test_finite_walk_vs_matrix_oracle(finite_weyl_results):
    results = finite_weyl_results[9:12]
    assert [name for name, _, _ in results] == [
        f"finite-walk-vs-matrix-{label}" for label in ("GL4", "GSp6", "G2")
    ]
    for name, ok, detail in results:
        assert ok, (name, detail)
        assert detail.endswith(", 0 mismatches"), detail
    # the walks reach every element of W
    assert [int(detail.split()[0]) for _, _, detail in results] == [24, 48, 12]
    assert len(finite_weyl_results) == 12


def test_pickle_returns_the_interned_element():
    for G in (gl(3), group(create("GSp", 2)), group(create("G2", 2))):
        for x in ball(G, 3):
            assert pickle.loads(pickle.dumps(x)) is x


CHILD = """
import pickle, sys
from affhecke.affweyl import group
from affhecke.rootdata import create
for fam, n in (("GL", 3), ("GSp", 2), ("G2", 2)):
    datum = create(fam, n)
    for m, _sign in reversed(datum.finite_weyl()):
        group(datum).finite(m)
for x in pickle.loads(sys.stdin.buffer.read()):
    print(x._fi, x.encode())
"""


def test_pickle_carries_the_matrix_across_processes():
    # a fresh process numbers the finite Weyl matrices in another order,
    # so an element must travel as its matrix, not as its id
    pool = []
    for G in (gl(3), group(create("GSp", 2)), group(create("G2", 2))):
        pool += ball(G, 4)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", CHILD],
        input=pickle.dumps(pool),
        capture_output=True,
        env=env,
        check=True,
    ).stdout.decode()
    rows = [line.split(" ", 1) for line in out.splitlines()]
    assert [enc for _, enc in rows] == [x.encode() for x in pool]
    assert any(int(fi) != x._fi for (fi, _), x in zip(rows, pool))


def test_element_lists_no_weyl_group(monkeypatch):
    # unpickling t[1,0,0,0,0,0,0]*w[s1.s2.s3] in a fresh GL7 checks the
    # matrix along its own descents: W (5,040 matrices) is never listed
    datum = create("GL", 7)
    s = datum.simple_reflections
    m = rootdata.mat_mul(rootdata.mat_mul(s[0], s[1]), s[2])
    data = pickle.dumps(affweyl.AffineWeylGroup(datum).element((1, 0, 0, 0, 0, 0, 0), m))

    def fail(self):
        raise AssertionError("finite_weyl() was called")

    monkeypatch.setattr(rootdata.RootDatum, "finite_weyl", fail)
    monkeypatch.setattr(rootdata, "_DATA", {})
    monkeypatch.setattr(affweyl, "_GROUPS", {})
    y = pickle.loads(data)
    assert y.fin == m and y.encode() == "t[1,0,0,0,0,0,0]*w[s1.s2.s3]"
    assert y.group.decode(y.encode()) is y


@pytest.mark.parametrize(
    "n, fin",
    [
        # -w0 sends positive roots to positive roots: no descent before e
        (3, ((0, 0, -1), (0, -1, 0), (-1, 0, 0))),
        # -1 permutes the roots as s1 does, but it is not s1
        (2, ((-1, 0), (0, -1))),
        # 2 * 1 permutes no roots
        (3, ((2, 0, 0), (0, 2, 0), (0, 0, 2))),
    ],
    ids=["minus-w0-GL3", "minus-one-GL2", "two-GL3"],
)
def test_element_rejects_matrices_outside_w(n, fin):
    datum = create("GL", n)
    G = affweyl.AffineWeylGroup(datum)
    for _ in range(2):  # in a fresh group, then with all of W indexed
        known = len(G._perm)
        with pytest.raises(ValueError):
            G.element((0,) * n, fin)
        assert len(G._perm) == known
        for m, _sign in datum.finite_weyl():
            G.finite(m)


def test_element_rejects_non_weyl_matrix_and_wrong_length():
    G = gl(3)
    known = len(G._perm)
    shear = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
    # fixes every root, so it has the root permutation of the identity
    fixes_roots = ((2, 0, 0), (1, 1, 0), (1, 0, 1))
    # sends e1 - e2 to e1 - 2 e2, which is not a root
    off_roots = ((1, 0, 0), (0, 2, 0), (0, 0, 1))
    for fin in (shear, fixes_roots, off_roots):
        for make in (lambda: G.element((0, 0, 0), fin), lambda: G.finite(fin)):
            with pytest.raises(ValueError) as info:
                make()
            assert not isinstance(info.value, (DimensionMismatch, KeyError))
    assert G._perm_of(fixes_roots) == G._perm[G.identity._fi]
    assert len(G._perm) == known
    ident = create("GL", 3).identity
    for trans in ((0, 0), (1, 0, 0, 0)):
        with pytest.raises(DimensionMismatch):
            G.element(trans, ident)
    assert G.element((0, 0, 0), ident) is G.identity
