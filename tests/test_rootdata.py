import itertools
import math

import pytest

from affhecke import rootdata
from affhecke.rootdata import (
    DimensionMismatch,
    NotDominant,
    UnsupportedFamilyRank,
    create,
    dot,
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


def determinant(m):
    """Leibniz's sum over the permutations p: sign(p) prod m[i][p(i)]."""
    total = 0
    for p in itertools.permutations(range(len(m))):
        inversions = sum(p[i] > p[j] for i, j in itertools.combinations(range(len(p)), 2))
        total += (-1) ** inversions * math.prod(m[i][k] for i, k in enumerate(p))
    return total


@pytest.mark.parametrize(
    "fam,n,order",
    [("GL", n, math.factorial(n)) for n in range(2, 6)]
    + [("GSp", 2, 8), ("GSp", 3, 48), ("G2", 2, 12)],
)
def test_finite_weyl_order_and_signs(fam, n, order):
    # the sign is (-1)^depth of the search that lists W: it must be det(m)
    weyl = create(fam, n).finite_weyl()
    assert len(weyl) == len({m for m, _sign in weyl}) == order
    assert all(sign == determinant(m) for m, sign in weyl)


def cartan_matrix(datum):
    """Entries <alpha_i, alpha_j^vee> over the simple roots and coroots."""
    simple = datum.simple_idx
    return tuple(
        tuple(dot(datum.pos_roots[i], datum.pos_coroots[j]) for j in simple) for i in simple
    )


def test_cartan_matrices():
    assert cartan_matrix(create("GL", 3)) == ((2, -1), (-1, 2))
    assert cartan_matrix(create("GSp", 2)) == ((2, -1), (-2, 2))
    assert cartan_matrix(create("G2", 2)) == ((2, -3), (-1, 2))


DUALITY_DATA = (
    [("GL", n) for n in range(2, 9)] + [("GSp", n) for n in range(2, 6)] + [("G2", 2)]
)


@pytest.mark.parametrize("fam,n", DUALITY_DATA)
def test_family_data_duality(fam, n):
    datum = create(fam, n)
    r = datum.n_gens
    assert len(datum.fund_coweights) == r
    for i, alpha in enumerate(datum.simple_roots()):
        assert [dot(alpha, w) for w in datum.fund_coweights] == [int(i == j) for j in range(r)]
    f = datum.omega_functional
    if fam == "G2":
        assert f is None
        assert all(datum.omega_class(w) == 0 for w in datum.fund_coweights)
        return
    assert all(dot(f, g) == 0 for g in datum.pos_coroots)
    assert any(dot(f, w) == 1 for w in datum.fund_coweights)


@pytest.mark.parametrize("fam,n", DUALITY_DATA)
def test_derived_system_is_a_root_system(fam, n):
    datum = create(fam, n)
    pairs = list(zip(datum.pos_roots, datum.pos_coroots))
    assert all(dot(f, g) == 2 for f, g in pairs)
    phi = set(pairs) | {(tuple(-x for x in f), tuple(-x for x in g)) for f, g in pairs}
    assert len(phi) == 2 * len(pairs)
    simple = [pairs[i] for i in datum.simple_idx]
    for a, b in simple:
        for f, g in phi:
            image = (
                tuple(x - dot(f, b) * y for x, y in zip(f, a)),
                tuple(x - dot(a, g) * y for x, y in zip(g, b)),
            )
            assert image in phi
    theta = datum.highest_root()
    assert all(dot(theta, b) >= 0 for _a, b in simple)

    def height(f):
        return sum(dot(f, w) for w in datum.fund_coweights)

    assert all(height(f) < height(theta) for f in datum.pos_roots if f != theta)


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


@pytest.mark.parametrize(
    "fam,n,top", [("GL", 3, 3), ("GL", 4, 2), ("GSp", 2, 3), ("GSp", 3, 2), ("G2", 2, 2)]
)
def test_dominant_below_is_the_support_of_the_character(fam, n, top):
    # every dominant lam <= mu is a weight of V(mu), so the walk through
    # dominant coweights must find the dominant support of Weyl's formula
    datum = create(fam, n)
    for mu in itertools.product(range(top + 1), repeat=datum.dim):
        if datum.is_dominant(mu):
            want = tuple(sorted(datum.weight_multiplicities_by_character(mu)))
            assert datum.dominant_below(mu) == want, mu


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


def weyl_dim(datum, mu):
    """Dimension of the dual-group irreducible with highest weight mu, by the
    Weyl dimension formula: the product over positive coroots g of
    (mu + rho, g) / (rho, g) in the invariant form, rho taken doubled."""
    mu = datum.require_dominant(mu)
    num = den = 1
    ip = datum.invariant_form
    mu_rho = datum._shifted(mu)
    for g in datum.pos_coroots:
        num *= ip(mu_rho, g)
        den *= ip(datum.two_rho_coroot, g)
    d, r = divmod(num, den)
    assert r == 0, f"Weyl dimension {num}/{den} is not an integer"
    return d


@pytest.mark.parametrize(
    "family,rank,mu",
    [("GL", 4, (2, 1, 0, 0)), ("GSp", 3, (1, 1, 1, 1)), ("G2", 2, (1, 1))],
)
def test_dimension_sum(family, rank, mu):
    datum = create(family, rank)
    total = 0
    for lam in datum.dominant_below(mu):
        total += len(datum.weyl_orbit(lam)) * datum.weight_multiplicity(mu, lam)
    assert total == weyl_dim(datum, mu)


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


@pytest.mark.parametrize(
    "fam, n, text",
    [
        ("GL", 3, "2,-1,0"),
        ("GSp", 2, "1,1,0,0"),
        ("GSp", 2, "2,-1,3,0"),
        ("GSp", 3, "1,1,1,0,0,0"),
        ("GSp", 3, "3,1,-2,4,1,-1"),
        ("G2", 2, "2,1,0"),
        ("G2", 2, "1,-1"),
    ],
)
def test_format_coweight_is_read_back(fam, n, text):
    # the CLI form: GSp (a; c) is written a_1, ..., a_n, c - a_n, ..., c - a_1
    datum = create(fam, n)
    v = datum.parse_coweight(text)
    assert datum.parse_coweight(datum.format_coweight(v)) == v
    if fam != "G2":  # G2 is written in its two coordinates
        assert datum.format_coweight(v) == text
