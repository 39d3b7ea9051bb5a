import pytest

from affhecke import rootdata
from affhecke.rootdata import (
    DimensionMismatch,
    NotDominant,
    UnsupportedFamilyRank,
    create,
    dot,
    identity_matrix,
    mat_inv,
    mat_mul,
    parse_group,
)


def test_positive_root_counts():
    assert len(create("GL", 3).pos_roots) == 3
    assert len(create("GSp", 2).pos_roots) == 4
    assert len(create("G2", 2).pos_roots) == 6
    assert len(create("GL", 6).pos_roots) == 15
    assert len(create("GSp", 3).pos_roots) == 9


@pytest.mark.parametrize("fam,n", [("G2", 2), ("GSp", 2)])
def test_mat_mul_vs_triple_loop(fam, n):
    # mat_mul is the reference of the finite-product-vs-matrix oracle
    weyl = [m for m, _sign in create(fam, n).finite_weyl()]
    size = len(weyl[0])
    for a in weyl:
        for b in weyl:
            want = [[0] * size for _ in range(size)]
            for i in range(size):
                for j in range(size):
                    for k in range(size):
                        want[i][j] += a[i][k] * b[k][j]
            assert mat_mul(a, b) == tuple(map(tuple, want))


@pytest.mark.parametrize("fam,n", [("GL", 4), ("GSp", 3), ("G2", 2)])
def test_mat_inv_of_every_finite_weyl_matrix(fam, n):
    weyl = [m for m, _sign in create(fam, n).finite_weyl()]
    size = len(weyl[0])
    for m in weyl:
        assert mat_mul(m, mat_inv(m)) == identity_matrix(size)


@pytest.mark.parametrize(
    "m, message", [(((1, 2), (2, 4)), "singular"), (((2, 0), (0, 1)), "not unimodular")]
)
def test_mat_inv_rejects_a_matrix_without_integral_inverse(m, message):
    with pytest.raises(ValueError, match=message):
        mat_inv(m)


def test_cartan_matrices():
    assert create("GL", 3).cartan_matrix() == ((2, -1), (-1, 2))
    assert create("GSp", 2).cartan_matrix() == ((2, -1), (-2, 2))
    assert create("G2", 2).cartan_matrix() == ((2, -3), (-1, 2))


DUALITY_DATA = (
    [("GL", n) for n in range(2, 9)] + [("GSp", n) for n in range(2, 6)] + [("G2", 2)]
)


@pytest.mark.parametrize("fam,n", DUALITY_DATA)
def test_family_data_duality(fam, n):
    datum = create(fam, n)
    r = datum.n_gens
    assert len(datum.fund_coweights) == len(datum.fund_weights) == r
    for i, alpha in enumerate(datum.simple_roots()):
        assert [dot(alpha, w) for w in datum.fund_coweights] == [int(i == j) for j in range(r)]
    for i, p in enumerate(datum.fund_weights):
        assert [dot(p, g) for g in datum.simple_coroots()] == [int(i == j) for j in range(r)]
    f = datum.omega_functional
    if fam == "G2":
        assert f is None
        assert all(datum.omega_class(w) == 0 for w in datum.fund_coweights)
        return
    assert all(dot(f, g) == 0 for g in datum.pos_coroots)
    assert any(dot(f, w) == 1 for w in datum.fund_coweights)


def test_unsupported():
    with pytest.raises(UnsupportedFamilyRank):
        create("GSp", 1)
    with pytest.raises(UnsupportedFamilyRank):
        create("G2", 3)
    with pytest.raises(UnsupportedFamilyRank):
        create("E8", 8)
    with pytest.raises(UnsupportedFamilyRank):
        create("GL", 3.5)  # not GL3
    with pytest.raises(UnsupportedFamilyRank):
        parse_group("GSp5")


def test_gl1_unsupported():
    # GL_1 has no highest root, so no affine simple reflection s_0
    for make in (lambda: create("GL", 1), lambda: parse_group("GL1")):
        with pytest.raises(UnsupportedFamilyRank):
            make()


def test_pairing():
    assert dot((1, -1, 0), (1, 0, 0)) == 1
    assert dot((-1, 1, 0), (1, 0, 0)) == -1
    gl4 = create("GL", 4)
    lam = (1, 1, 0, 0)
    assert sum(dot(a, lam) for a in gl4.pos_roots) == 4


def test_dominance():
    gl3 = create("GL", 3)
    assert gl3.dominance_leq((2, 1, 1), (2, 2, 0))
    assert gl3.dominance_leq((2, 2, 0), (2, 2, 0))
    assert not gl3.dominance_leq((3, 0, 0), (2, 2, 0))
    assert not gl3.dominance_leq((1, 1, 0), (2, 2, 0))  # different central sums
    gsp = create("GSp", 2)
    assert gsp.dominance_leq((1, 0, 1), (1, 1, 1))  # subtract e_2
    assert not gsp.dominance_leq((1, 1, 0), (1, 1, 1))  # similitude differs


def test_weyl_orbits():
    gl4 = create("GL", 4)
    assert len(gl4.weyl_orbit((1, 1, 0, 0))) == 6
    gl3 = create("GL", 3)
    assert len(gl3.weyl_orbit((3, 1, 0))) == 6
    g2 = create("G2", 2)
    # short-coroot fundamental coweight: orbit of size 6
    assert len(g2.weyl_orbit((1, 0))) == 6
    gsp3 = create("GSp", 3)
    assert len(gsp3.weyl_orbit((1, 1, 1, 1))) == 8


def test_dominant_below():
    gl3 = create("GL", 3)
    assert gl3.dominant_below((2, 2, 0)) == ((2, 1, 1), (2, 2, 0))
    gl4 = create("GL", 4)
    assert gl4.dominant_below((1, 1, 0, 0)) == ((1, 1, 0, 0),)
    assert gl4.dominant_below((2, 0, 0, 0)) == ((1, 1, 0, 0), (2, 0, 0, 0))
    with pytest.raises(NotDominant):
        gl4.dominant_below((0, 1, 0, 0))


def test_weight_multiplicities():
    gl3 = create("GL", 3)
    assert gl3.weight_multiplicity((2, 2, 0), (2, 2, 0)) == 1
    assert gl3.weight_multiplicity((2, 2, 0), (2, 1, 1)) == 1
    gl4 = create("GL", 4)
    assert gl4.weight_multiplicity((2, 1, 0, 0), (1, 1, 1, 0)) == 2
    # not below: zero
    assert gl4.weight_multiplicity((1, 1, 0, 0), (2, 0, 0, 0)) == 0
    with pytest.raises(NotDominant):
        gl4.weight_multiplicity((1, 1, 0, 0), (0, 1, 1, 0))


@pytest.mark.parametrize(
    "family,rank,mu",
    [
        ("GL", 3, (2, 2, 0)),
        ("GL", 3, (3, 1, 0)),
        ("GL", 4, (2, 1, 0, 0)),
        ("GL", 4, (2, 2, 1, 0)),
        ("GSp", 2, (1, 1, 1)),
        ("GSp", 2, (2, 1, 2)),
        ("GSp", 3, (1, 1, 1, 1)),
        ("G2", 2, (1, 0)),
        ("G2", 2, (0, 1)),
        ("G2", 2, (1, 1)),
        ("GSp", 3, (2, 1, 1, 2)),
        ("G2", 2, (2, 1)),
        ("GL", 5, (2, 1, 1, 0, 0)),
    ],
)
def test_freudenthal_against_character_oracle(family, rank, mu):
    datum = create(family, rank)
    oracle = datum.weight_multiplicities_by_character(mu)
    table = datum.weight_table(mu)
    assert table == oracle


@pytest.mark.parametrize(
    "family,rank,mu",
    [("GL", 4, (2, 1, 0, 0)), ("GSp", 3, (1, 1, 1, 1)), ("G2", 2, (1, 1))],
)
def test_dimension_sum(family, rank, mu):
    datum = create(family, rank)
    total = 0
    for lam in datum.dominant_below(mu):
        total += len(datum.weyl_orbit(lam)) * datum.weight_multiplicity(mu, lam)
    assert total == datum.weyl_dim(mu)


def test_minuscule_has_trivial_weights():
    gl5 = create("GL", 5)
    assert gl5.dominant_below((1, 1, 0, 0, 0)) == ((1, 1, 0, 0, 0),)


def test_parsing():
    assert parse_group("GL4") is create("GL", 4)
    assert parse_group("GSp6") is create("GSp", 3)
    assert parse_group("G2") is create("G2", 2)
    gsp = create("GSp", 2)
    assert gsp.parse_coweight("1,1,0,0") == (1, 1, 1)
    with pytest.raises(DimensionMismatch):
        gsp.parse_coweight("1,0,0,0")  # cross sums differ
    g2 = create("G2", 2)
    assert g2.parse_coweight("2,1,0") == (1, 0)
    assert g2.parse_coweight("1,0") == (1, 0)
    with pytest.raises(DimensionMismatch):
        g2.parse_coweight("1,1,0")  # sum not divisible by 3
    gl4 = create("GL", 4)
    with pytest.raises(DimensionMismatch):
        gl4.parse_coweight("1,1,0")
