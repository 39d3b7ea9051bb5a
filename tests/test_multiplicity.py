import pytest

from affhecke import central, checks, multiplicity
from affhecke.affweyl import group
from affhecke.hecke import HeckeElement, InvariantViolation
from affhecke.laurent import LaurentPoly
from affhecke.rootdata import RootDatum, create, mat_vec, parse_group
from conftest import REFERENCE_CASES


def poly_q(coeffs):
    return LaurentPoly.from_q_coeffs(coeffs)


def test_gl4_minuscule_rows(tables):
    table = tables("GL", 4, (1, 1, 0, 0))
    tau = table.adm[0]
    assert tau.length() == 0
    assert table.m_polys[tau] == poly_q([1, 1, 2, 1, 1])
    assert table.bruhat_config(tau) == (4, 10, 12, 6)
    assert table.mult_vector(tau) == (1, 1, 2, 1, 1)
    # maximal elements carry m = 1 and the empty configuration
    for w in table.adm:
        if w.length() == table.ell_mu:
            assert table.m_polys[w] == LaurentPoly.one()
            assert table.bruhat_config(w) == ()


def test_gsp4_length1_configs(tables):
    table = tables("GSp", 2, (1, 1, 1))
    ones = [w for w in table.adm if w.length() == 1]
    configs = sorted(table.bruhat_config(w) for w in ones)
    assert configs == [(3, 3), (3, 3), (4, 4)]
    mults = sorted(table.mult_vector(w) for w in ones)
    assert mults == [(1, 1, 1), (1, 1, 1), (1, 2, 1)]


def test_gl2_all_multiplicities_one(tables):
    for mu in [(1, 0), (2, 0), (3, 0), (4, 0), (5, 0), (2, 1), (3, 1)]:
        table = tables("GL", 2, mu)
        for w in table.adm:
            d = table.ell_mu - w.length()
            assert table.m_polys[w] == poly_q([1] * (d + 1)), (mu, w)


def test_drinfeld_all_multiplicities_one(tables):
    for n in range(2, 7):
        mu = (1,) + (0,) * (n - 1)
        table = tables("GL", n, mu)
        for w in table.adm:
            d = table.ell_mu - w.length()
            assert table.m_polys[w] == poly_q([1] * (d + 1)), (n, w)


def test_summarize_shapes(tables):
    table = tables("GL", 4, (1, 1, 0, 0))
    rows = table.summarize()
    assert len(rows) == 6
    assert sum(r.count for r in rows) == 33
    g2 = tables("G2", 2, (1, 0))
    rows = g2.summarize()
    assert sum(r.count for r in rows) == 41
    assert len(rows) == 15  # the printed table has 15 grouped rows
    # zero coweight: a single row with m = 1
    table0 = tables("GL", 3, (0, 0, 0))
    rows0 = table0.summarize()
    assert len(rows0) == 1
    assert rows0[0].count == 1 and rows0[0].mults == (1,)


def test_rows_keyed_by_adm(tables):
    table = tables("GL", 3, (2, 2, 0))
    G = group(create("GL", 3))
    assert set(table.m_polys) == set(G.adm((2, 2, 0)))
    outsider = G.translation((3, 1, 0))
    with pytest.raises(multiplicity.NotInAdm):
        table.m_poly(outsider)
    with pytest.raises(multiplicity.NotInAdm):
        table.bruhat_config(outsider)


def test_base_change_consistency(tables):
    for fam, n, mu in [("GL", 3, (2, 2, 0)), ("GSp", 2, (1, 1, 1)), ("G2", 2, (1, 0))]:
        assert multiplicity.base_change_consistency(tables(fam, n, mu))


def test_minuscule_poincare(tables):
    datum = create("GL", 4)
    p = multiplicity.minuscule_poincare(datum, (1, 1, 0, 0))
    assert p == poly_q([1, 1, 2, 1, 1])  # Gaussian binomial [4 2]_q
    gl5 = create("GL", 5)
    assert multiplicity.minuscule_poincare(gl5, (1, 0, 0, 0, 0)) == poly_q(
        [1, 1, 1, 1, 1]
    )  # projective space
    table = tables("GL", 4, (1, 1, 0, 0))
    assert table.m_polys[table.adm[0]] == p
    with pytest.raises(multiplicity.NotMinuscule):
        multiplicity.minuscule_poincare(create("GL", 3), (2, 2, 0))


def poincare_by_enumeration(datum, mu):
    """The reference: the shortest element of W over each image w mu,
    listing W as matrices."""
    g = group(datum)
    best = {}
    for m, _sign in datum.finite_weyl():
        img = mat_vec(m, mu)
        length = g.finite(m).length()
        best[img] = min(length, best.get(img, length))
    out = {}
    for length in best.values():
        out[2 * length] = out.get(2 * length, 0) + 1
    return LaurentPoly(out)


@pytest.mark.parametrize(
    "label, text",
    [
        ("GL3", "1,0,0"), ("GL4", "1,1,0,0"), ("GL4", "0,0,0,-1"), ("GL5", "1,1,1,0,0"),
        ("GL6", "1,1,1,0,0,0"), ("GSp4", "1,1,0,0"), ("GSp6", "1,1,1,0,0,0"),
        ("GSp8", "1,1,1,1,0,0,0,0"), ("G2", "0,0"),
    ],
)
def test_minuscule_poincare_matches_the_enumeration_of_w(label, text):
    datum = parse_group(label)
    mu = datum.parse_coweight(text)
    assert multiplicity.minuscule_poincare(datum, mu) == poincare_by_enumeration(datum, mu)


def test_minuscule_poincare_lists_no_element_of_w(monkeypatch):
    # GL8 has 40,320 finite Weyl elements; the orbit of mu has 28 weights
    def no_listing(datum):
        raise AssertionError("finite_weyl() was called")

    monkeypatch.setattr(RootDatum, "finite_weyl", no_listing)
    p = multiplicity.minuscule_poincare(create("GL", 8), (1, 1, 0, 0, 0, 0, 0, 0))
    # the Gaussian binomial [8 2]_q
    assert p == poly_q([1, 1, 2, 2, 3, 3, 4, 3, 3, 2, 2, 1, 1])


def test_epsilon_sum_identity(tables):
    for fam, n, mu in [
        ("GL", 4, (1, 1, 0, 0)),
        ("GSp", 2, (1, 1, 1)),
        ("GSp", 3, (1, 1, 1, 1)),
    ]:
        assert multiplicity.epsilon_sum_identity(tables(fam, n, mu))


def epsilon_sums_by_intervals(table):
    """The reference: sum_{w >= x} eps_w over the lower intervals [e, w]."""
    g = group(table.datum)
    sums = dict.fromkeys(table.adm, 0)
    for w in table.adm:
        for x in g.below(w):
            sums[x] += w.sign()
    return sums


@pytest.mark.parametrize(
    "fam, n, mu",
    [
        ("GL", 4, (1, 1, 0, 0)),
        ("GSp", 3, (1, 1, 1, 1)),
        ("GL", 6, (1, 1, 1, 0, 0, 0)),
        ("GL", 4, (2, 1, 0, 0)),  # not minuscule: the sums vary with x
    ],
)
def test_epsilon_sums_from_configurations_match_the_intervals(tables, fam, n, mu):
    table = tables(fam, n, mu)
    assert multiplicity.epsilon_sums(table) == epsilon_sums_by_intervals(table)


@pytest.mark.parametrize("fam,n,mu,stem", REFERENCE_CASES)
def test_a_configuration_below_the_top_ends_in_a_positive_count(tables, fam, n, mu, stem):
    # the last count is the number of translations t_lambda, lambda in W mu,
    # above w: all have length l(t_mu) and at least one lies above w
    table = tables(fam, n, mu)
    for w in table.adm:
        config = table.bruhat_config(w)
        assert len(config) == table.ell_mu - w.length()
        assert not config or config[-1] > 0, w


def test_property_checks_reuse_the_table(monkeypatch):
    # a datum of its own, so that no other test has filled its intervals
    datum = RootDatum("GL", 6)
    mu = (1, 1, 1, 0, 0, 0)
    g = group(datum)
    g.adm(mu)
    built = len(g._intervals)
    assert built == 0
    calls = []
    kottwitz = central.kottwitz_function

    def counted(datum, mu):
        calls.append(mu)
        return kottwitz(datum, mu)

    monkeypatch.setattr(multiplicity, "kottwitz_function", counted)
    monkeypatch.setattr(central, "kottwitz_function", counted)
    results = checks.property_checks(datum, mu)
    assert all(ok for _name, ok, _detail in results)
    assert len(g._intervals) == built
    assert calls == [mu]


def test_compute_refuses_a_trace_whose_support_is_not_adm(monkeypatch):
    kottwitz = multiplicity.kottwitz_function

    def short_of_one_term(datum, mu):
        f = kottwitz(datum, mu)
        drop = min(f.terms, key=f.hctx.group.sort_key)
        return HeckeElement(f.hctx, {x: c for x, c in f.terms.items() if x is not drop})

    monkeypatch.setattr(multiplicity, "kottwitz_function", short_of_one_term)
    with pytest.raises(InvariantViolation, match="support differs from the admissible set"):
        multiplicity.compute(create("GL", 3), (1, 1, 0))


def test_property_report_pass(tables):
    table = tables("GL", 3, (3, 1, 0))
    summary = table.property_report()
    assert all(summary.values())


def test_property_report_flags_synthetic_failure(tables):
    table = tables("GL", 3, (2, 2, 0))
    doctored = multiplicity.MultiplicityTable(
        table.datum,
        table.mu,
        table.adm,
        table.ell_mu,
        dict(table.m_polys),
        table.configs,
        table.trace,
    )
    tau = table.adm[0]
    doctored.m_polys[tau] = poly_q([1, 7, 2, 1, 1])  # not palindromic
    summary = doctored.property_report()
    assert not summary["palindromic"]
    assert summary["degree_bound"]  # degree untouched


def test_bruhat_config_matches_lengths(tables):
    table = tables("GSp", 3, (1, 1, 1, 1))
    tau = table.adm[0]
    per_len = {}
    for w in table.adm:
        per_len[w.length()] = per_len.get(w.length(), 0) + 1
    assert table.bruhat_config(tau) == tuple(
        per_len[i] for i in range(1, table.ell_mu + 1)
    )


def test_render_formats(tables):
    table = tables("GL", 3, (2, 2, 0))
    text = multiplicity.render_text(table)
    assert text.startswith("Number of admissible alcoves: 19")
    csv_text = multiplicity.render_csv(table)
    assert csv_text.count("\n") == 20  # header + one line per alcove
    import json

    payload = json.loads(multiplicity.render_json(table))
    assert payload["admissible_count"] == 19
    assert len(payload["rows"]) == 19
    # JSON rows round-trip through the documented encodings
    from affhecke.hecke import context

    H = context(table.datum)
    for row in payload["rows"]:
        w = H.group.decode(row["element"])
        assert LaurentPoly.decode(row["m_poly"]) == table.m_polys[w]


@pytest.mark.parametrize("fam,n,mu,stem", REFERENCE_CASES[:6])
def test_reference_row_sums(tables, fam, n, mu, stem):
    # multiplicity of the base element equals the count column of length 1..
    table = tables(fam, n, mu)
    assert table.adm[0].length() == 0
    total = sum(r.count for r in table.summarize())
    assert total == len(table.adm)
