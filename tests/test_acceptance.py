"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
All comparisons are exact; there are no tolerances anywhere.
"""

import random
from fractions import Fraction

import pytest

from affhecke import central, checks, cli, multiplicity, wakimoto
from affhecke.affweyl import group
from affhecke.hecke import context
from affhecke.laurent import LaurentPoly
from affhecke.rootdata import create
from conftest import ADM_COUNTS, REFERENCE_CASES


def report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"{status} criterion {name}{suffix}")
    assert ok, f"criterion {name} failed: {detail}"


def report_checks(name, results):
    """report() over the (name, ok, detail) triples of a checks suite."""
    report(
        name,
        all(ok for _, ok, _ in results),
        "; ".join(f"{check}: {detail}" for check, _, detail in results),
    )


def test_criterion_1_admissible_cardinalities():
    for fam, n, mu, stem in REFERENCE_CASES:
        g = group(create(fam, n))
        got = len(g.adm(mu))
        want = ADM_COUNTS[stem]
        assert got == want, (stem, got, want)
    report("1 admissible-set cardinalities", True, f"{len(REFERENCE_CASES)} cases exact")


@pytest.mark.parametrize("fam,n,mu,stem", REFERENCE_CASES)
def test_criterion_2_reference_tables(tables, fam, n, mu, stem):
    datum = create(fam, n)
    table = tables(fam, n, mu)
    text = multiplicity.render_text(table)
    golden = checks.golden_text(datum, mu)
    assert golden is not None
    ok = checks.normalize_table(text) == checks.normalize_table(golden)
    report(f"2 table {stem}", ok, "verbatim match")


def test_criterion_3_drinfeld_and_gl2_closed_forms(tables):
    for n in range(2, 7):
        mu = (1,) + (0,) * (n - 1)
        table = tables("GL", n, mu)
        for w in table.adm:
            d = table.ell_mu - w.length()
            assert table.m_polys[w] == LaurentPoly.from_q_coeffs([1] * (d + 1))
    for k in range(1, 6):
        table = tables("GL", 2, (k, 0))
        for w in table.adm:
            d = table.ell_mu - w.length()
            assert table.m_polys[w] == LaurentPoly.from_q_coeffs([1] * (d + 1))
    report("3 Drinfeld and GL2 closed forms", True, "GL_n n<=6 and GL_2 mu<=(5,0)")


MINUSCULE_CASES = [
    ("GL", 4, (1, 1, 0, 0)),
    ("GL", 5, (1, 1, 0, 0, 0)),
    ("GL", 6, (1, 1, 0, 0, 0, 0)),
    ("GSp", 2, (1, 1, 1)),
    ("GSp", 3, (1, 1, 1, 1)),
]


def test_criterion_4_minuscule_tau_poincare(tables):
    for fam, n, mu in MINUSCULE_CASES:
        datum = create(fam, n)
        table = tables(fam, n, mu)
        tau = table.adm[0]
        assert tau.length() == 0
        assert multiplicity.minuscule_poincare(datum, mu) == table.m_polys[tau], (fam, mu)
    report("4 minuscule tau = coset Poincare polynomial", True, f"{len(MINUSCULE_CASES)} cases")


def test_criterion_5a_r_recursion_exhaustive():
    report_checks("5a R recursion == bar expansion", checks.r_recursion_checks(6))


def test_criterion_5bc_pq_identities():
    cases = (("GL3", "1,1,0"), ("GSp4", "1,1,0,0"), ("GL4", "1,1,0,0"))
    report_checks(
        "5b/5c P*Q inversion and inverse-KL recursion",
        checks.q_oracle_checks(cases, intervals=()),
    )


def test_criterion_5d_sum_QR_identity():
    report_checks("5d sum Q_{w,x} R_{x,y} identity", checks.q_oracle_checks(cases=()))


def test_criterion_5e_wakimoto_closed_form():
    report_checks(
        "5e Wakimoto closed form == Hecke product", checks.wakimoto_checks(42, 100)
    )


def test_criterion_6_structural(tables):
    # z centrality, exact, against every generator
    for fam, n, lam in [
        ("GL", 3, (1, 1, 0)),
        ("GL", 4, (1, 1, 0, 0)),
        ("GSp", 2, (1, 1, 1)),
        ("GSp", 3, (1, 1, 1, 1)),
        ("G2", 2, (1, 0)),
    ]:
        datum = create(fam, n)
        hctx = context(datum)
        g = hctx.group
        z = central.bernstein_central(datum, lam)
        for i in range(g.n_gens):
            assert hctx.gen_mul_T(i, z) == hctx.mul_gen_T(z, i), (fam, lam, i)
    # Theta decomposition-independence, 20 random lambda per group
    rng = random.Random(1234)
    from affhecke.rootdata import vec_add

    eps_by_family = {
        ("GL", 2): (1, 0),
        ("GL", 3): (2, 1, 0),
        ("GL", 4): (1, 1, 0, 0),
        ("GSp", 2): (1, 1, 2),
        ("GSp", 3): (1, 1, 1, 2),
        ("G2", 2): (1, 1),
    }
    for (fam, n), eps in eps_by_family.items():
        datum = create(fam, n)
        dim = datum.dim
        small = fam != "GSp" and n < 4
        for _ in range(20):
            lam = tuple(rng.randint(-1, 1) for _ in range(dim))
            base = central.theta(datum, lam)
            lam1, lam2 = central.minimal_dominant_pair(datum, lam)

            def shifted(d, l, l1=lam1, l2=lam2, e=eps):
                return vec_add(l1, e), vec_add(l2, e)

            assert base == central.theta(datum, lam, decomposition=shifted), (fam, lam)
            if small:
                assert base == central.theta(
                    datum, lam, central.shifted_dominant_pair
                ), (fam, lam)
    # property (P) for the trace function, every reference case
    for fam, n, mu, _ in REFERENCE_CASES:
        datum = create(fam, n)
        g = group(datum)
        ell = g.translation(mu).length()
        f = central.kottwitz_function(datum, mu)
        assert central.satisfies_property_P(f, ell), (fam, mu)
    # property (P) for Wakimoto functions
    rng = random.Random(77)
    for fam, n in (("GL", 3), ("GSp", 2)):
        g = group(create(fam, n))
        pool = checks.ball(g, 4)
        done = 0
        while done < 10:
            v, w = rng.choice(pool), rng.choice(pool)
            if v.length() + w.length() > 8:
                continue
            _, norm = wakimoto.wakimoto_function(v, w)
            assert central.satisfies_property_P(norm, v.length() + w.length())
            done += 1
    # q = 1 specialisation over whole orbits
    for name, ok, detail in checks.theta_q1_checks():
        assert ok, (name, detail)
    report("6 structural properties", True, "centrality, Theta, (P), q=1")


def test_criterion_7_observations_and_epsilon_sum(tables):
    for fam, n, mu, stem in REFERENCE_CASES:
        table = tables(fam, n, mu)
        summary = table.property_report()
        assert all(summary.values()), (stem, summary)
        if multiplicity.is_minuscule(create(fam, n), mu):
            assert multiplicity.epsilon_sum_identity(table), stem
    report("7 observations (A)(B)(C) + minuscule eps-sum", True, "all reference cases")


def test_criterion_8_determinism(tmp_path):
    out1 = tmp_path / "j1.json"
    out8 = tmp_path / "j8.json"
    argv = [
        "table",
        "GL4",
        "--mu",
        "2,1,0,0",
        "--format",
        "json",
        "--cache-dir",
        str(tmp_path / "cache"),
    ]
    assert cli.main(argv + ["--jobs", "1", "--out", str(out1)]) == 0
    assert cli.main(argv + ["--jobs", "8", "--out", str(out8)]) == 0
    b1 = out1.read_bytes()
    b8 = out8.read_bytes()
    assert b1 == b8 and b1
    # text format as well
    t1 = tmp_path / "t1.txt"
    t8 = tmp_path / "t8.txt"
    argv = ["table", "GL4", "--mu", "2,1,0,0", "--cache-dir", str(tmp_path / "cache")]
    assert cli.main(argv + ["--jobs", "1", "--out", str(t1)]) == 0
    assert cli.main(argv + ["--jobs", "8", "--out", str(t8)]) == 0
    assert t1.read_bytes() == t8.read_bytes()
    report("8 determinism across parallelism", True, "jobs 1 vs 8 byte-identical")
