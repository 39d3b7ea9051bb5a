import os
import pathlib
import pickle
import random
import subprocess
import sys

import pytest

from affhecke import affweyl, checks
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
    # a finite index whose products never reach e must raise in encode
    G = affweyl.AffineWeylGroup(create("GL", 3))
    s = G.simple_reflection(1)
    monkeypatch.setattr(affweyl.AffineWeylGroup, "_fin_right", lambda self, k, i: k)
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
    results = checks.bruhat_oracle_checks(depth=5)
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
    return checks.finite_weyl_checks()


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


def test_index_fills_each_table_cell_once(monkeypatch):
    # Adm, encode and decode read the finite Weyl index: at most one
    # mat_mul per cell of the right generator table
    calls = []
    real = affweyl.mat_mul

    def counting(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(affweyl, "mat_mul", counting)
    datum = create("GL", 4)
    G = affweyl.AffineWeylGroup(datum)
    adm = G.adm((2, 1, 1, 0))
    for x in adm:
        assert G.decode(G.encode(x)) is x
    assert 0 < len(calls) <= G.n_gens * len(datum.finite_weyl())


def test_a_failed_registration_publishes_no_id(monkeypatch):
    # a failure inside the registration of a new finite Weyl element must
    # leave no id that _fidx or _pidx find but the per-id lists lack
    datum = create("GL", 3)
    G = affweyl.AffineWeylGroup(datum)
    s1 = datum.simple_reflections[0]
    assert s1 not in G._fidx
    failed = []
    real = affweyl.mat_vec

    def fail_once(m, v):
        if not failed:
            failed.append(1)
            raise RuntimeError("injected")
        return real(m, v)

    monkeypatch.setattr(affweyl, "mat_vec", fail_once)
    with pytest.raises(RuntimeError):
        G.element((1, 0, 0), s1)
    n = len(G._fmat)
    for per_id in (G._perm, G._g0, G._asc, G._finv, G._fword, *G._rmul):
        assert len(per_id) == n
    assert all(k < n for k in (*G._fidx.values(), *G._pidx.values()))
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


def test_group_law_makes_one_matrix_product_per_finite_element(monkeypatch):
    # products and inverses compose root permutations; a matrix is
    # multiplied only to register a new finite Weyl element
    calls = []
    real = affweyl.mat_mul

    def counting(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(affweyl, "mat_mul", counting)
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
    assert 0 < len(calls) <= len(G._fmat) <= len(datum.finite_weyl()) == 24


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


def test_element_rejects_non_weyl_matrix_and_wrong_length():
    G = gl(3)
    known = len(G._fmat)
    shear = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
    for make in (lambda: G.element((0, 0, 0), shear), lambda: G.finite(shear)):
        with pytest.raises(ValueError) as info:
            make()
        assert not isinstance(info.value, DimensionMismatch)
    assert len(G._fmat) == known
    ident = create("GL", 3).identity
    for trans in ((0, 0), (1, 0, 0, 0)):
        with pytest.raises(DimensionMismatch):
            G.element(trans, ident)
    assert G.element((0, 0, 0), ident) is G.identity
