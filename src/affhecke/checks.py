"""Cross-checking suites: oracle equivalences, table properties, golden diffs.

Every check is a (name, ok, detail) triple, so that both the command-line
front end and the test suite can consume the same checks.  An oracle
suite is a generator function that yields its entries, each made when it
is read, and oracle_checks chains them, so that the front end prints each
entry as soon as it is made; a caller that reads a suite twice or by
index takes list() of it.  property_checks and golden_check return lists.

An oracle suite makes its entries through one runner, _run, one entry
per case: it builds the case, names the entry and reports it through
_entry, which calls the suite's check for the case.  The check counts
the mismatches, bad, and ok is bad == 0; the detail ends in
", <bad> mismatches", or is just "<bad> mismatches" with no detail.  An
InvariantViolation raised while an entry is made, in a case or in a
suite with no case loop, fails that entry alone, with the exception
text as its detail, and the next entry is made as usual.

golden_check compares the rendered table with the stored file byte for
byte, as the benchmark compares the stdout of `table`.
"""

import importlib.resources
import random
from functools import reduce
from itertools import chain

from . import central, multiplicity, wakimoto
from .affweyl import AffineWeylGroup, group
from .hecke import InvariantViolation, context
from .laurent import LaurentPoly
from .rootdata import (
    create,
    dot,
    mat_mul,
    mat_vec,
    parse_group,
    reach,
    vec_add,
    vec_mat,
    vec_scale,
)


def _entry(name, check, *args):
    """The (name, ok, detail) triple of the oracle entry that check(*args)
    = (bad, detail) reports, with bad mismatches; a FAIL entry whose detail
    is the exception text when check raises InvariantViolation."""
    try:
        bad, detail = check(*args)
    except InvariantViolation as exc:
        return name, False, str(exc)
    return name, bad == 0, f"{detail}, {bad} mismatches" if detail else f"{bad} mismatches"


def _run(kind, cases, check):
    """Yield the entry of each case, each made when it is read.

    A case (group label, mu text, *rest), such as ("GL3", "2,1,0"), is
    named kind-label-text and checked by check(context, mu, text, *rest);
    a case (family, rank, *rest), such as ("GL", 3), is named kind-label
    by its datum and checked by check(context, *rest), through _entry.
    """
    for first, second, *rest in cases:
        if isinstance(second, str):
            d = parse_group(first)
            name, args = f"{kind}-{first}-{second}", (d.parse_coweight(second), second, *rest)
        else:
            d = create(first, second)
            name, args = f"{kind}-{d.label}", rest
        yield _entry(name, check, context(d), *args)


def ball(g, radius):
    """All elements of length <= radius in the W_aff coset of the identity:
    reach meets each one, by steps x s_i, at the depth of its length, and
    takes no step from an element at the radius."""

    def step(x):
        return [g.mul_gen(x, i) for i in range(g.n_gens)] if x.length() < radius else []

    return sorted(reach([g.identity], step), key=g.sort_key)


def lifting_leq(g, x, y):
    """x <= y by the lifting property, unmemoised: an oracle for `leq`.

    For a right descent s of y, x <= y iff xs <= ys when s is also a
    descent of x, and iff x <= ys otherwise (Bjorner-Brenti Prop. 2.2.7).
    """
    while x is not y:
        if x.length() >= y.length():
            return False
        i = g.first_right_descent(y)
        xs = g.mul_gen(x, i)
        if xs.length() < x.length():
            x = xs
        y = g.mul_gen(y, i)
    return True


#: groups and coweights for the sweeps over ball(g, depth) u Adm(mu)
BRUHAT_CASES = (("GL", 3, (2, 1, 0)), ("GSp", 2, (2, 1, 2)), ("G2", 2, (0, 1)))


def bruhat_pool(g, depth, mu):
    """ball(g, depth) u Adm(mu), sorted: pairs from two Omega-cosets when
    mu is not in the coroot lattice."""
    return sorted(set(ball(g, depth)) | set(g.adm(mu)), key=g.sort_key)


def bruhat_oracle_checks(depth=5):
    """`leq` against `lifting_leq` on all pairs of ball(g, depth) u Adm(mu)."""

    def check(hctx, mu):
        g = hctx.group
        pool = bruhat_pool(g, depth, mu)
        bad = cross = 0
        for y in pool:
            for x in pool:
                cross += g.omega_class(x) != g.omega_class(y)
                bad += g.leq(x, y) != lifting_leq(g, x, y)
        return bad, f"{len(pool) ** 2} pairs ({cross} across Omega-cosets)"

    yield from _run("bruhat-lifting-vs-interval", BRUHAT_CASES, check)


def configuration_checks():
    """The Bruhat configurations of multiplicity.compute against `leq`: for
    each w in Adm(mu), configs[w][k - 1] must count the x in Adm(mu) with
    w <= x and l(x) - l(w) = k >= 1."""

    def check(hctx, mu):
        g, table = hctx.group, multiplicity.compute(hctx.datum, mu)
        bad = 0
        for w in table.adm:
            want = [0] * (table.ell_mu - w.length())
            for x in table.adm:
                if x.length() > w.length() and g.leq(w, x):
                    want[x.length() - w.length() - 1] += 1
            bad += table.configs[w] != tuple(want)
        return bad, f"{len(table.adm)} admissible elements"

    yield from _run("configurations-vs-intervals", BRUHAT_CASES, check)


#: groups for the finite-index sweep, each with a dominant regular and a
#: non-dominant translation besides 0
FINITE_INDEX_CASES = (
    ("GL", 4, (3, 2, 1, 0), (0, 2, -1, 1)),
    ("GSp", 3, (3, 2, 1, 0), (0, 2, -1, 1)),
    ("G2", 2, (1, 1), (-1, 2)),
)


def _sweep(d, regular, other):
    """(lam, m) of every x = t_lam m of a finite-index case: every finite
    Weyl matrix m and the translations 0, regular and other."""
    return [(lam, m) for m, _sign in d.finite_weyl() for lam in ((0,) * d.dim, regular, other)]


def matrix_length(datum, trans, fin):
    """l(t_trans fin) by Iwahori-Matsumoto with vec_mat, no index."""
    total = 0
    for f in datum.pos_roots:
        c = dot(f, trans)
        if vec_mat(f, fin) not in datum.pos_root_set:
            c -= 1
        total += abs(c)
    return total


def _affine_gens(d):
    """(translation, matrix) of s_0, ..., s_n by plain arithmetic, s_0 the
    affine reflection through <theta, x> = 1; independent of the root
    permutations that AffineWeylGroup keeps for them."""
    zero = (0,) * d.dim
    theta_covee = d.highest_coroot()
    gens = [(theta_covee, d.reflection(d.highest_root(), theta_covee))]
    return gens + [(zero, s) for s in d.simple_reflections]


def _matrix_mismatches(g, want):
    """How many (element, translation, matrix) triples of want disagree: the
    element must be the interned one for the pair, with the
    Iwahori-Matsumoto length."""
    return sum(
        y.trans != trans
        or y.fin != fin
        or y is not g.element(trans, fin)
        or y.length() != matrix_length(g.datum, trans, fin)
        for y, trans, fin in want
    )


def _omega_generator(g):
    """A length-zero tau generating Omega (X_*/Q^vee = Z), or None when Omega
    is trivial: the Omega-part of the canonical word of a translation of
    class 1, here the first fundamental coweight of class 1."""
    d = g.datum
    lam = next((w for w in d.fund_coweights if d.omega_class(w) == 1), None)
    return None if lam is None else g.reduced_word(g.translation(lam))[0]


def _product(a, b):
    """The (translation, matrix) pair of t_{a[0]} a[1] * t_{b[0]} b[1] by
    plain arithmetic: t_{a[0] + a[1] b[0]} a[1] b[1]."""
    return vec_add(a[0], mat_vec(a[1], b[0])), mat_mul(a[1], b[1])


def _inverter(d):
    """The function that takes the (translation, matrix) pair of t_trans m
    to that of its inverse by plain arithmetic: m^{-1} is the matrix of
    finite_weyl() whose product with m is the identity."""
    weyl = [m for m, _sign in d.finite_weyl()]
    inverse = {m: next(u for u in weyl if mat_mul(m, u) == d.identity) for m in weyl}
    return lambda trans, m: (vec_scale(mat_vec(inverse[m], trans), -1), inverse[m])


def finite_weyl_checks():
    """The indexed group law and the ascent test against plain matrix
    arithmetic, over x = t_lam m for every finite Weyl matrix m and
    translation lam (0 and the two of the case) of each case of
    FINITE_INDEX_CASES.  The group keys a finite Weyl element by its root
    permutation alone and builds its matrix on first read (pickles still
    carry that matrix), so every matrix it returns is checked here against
    finite_weyl(), mat_mul and mat_vec.

    * finite-index-vs-matrix: x, x^{-1}, x * s_i and s_i * x for every
      generator i;
    * finite-product-vs-matrix: x multiplied on either side by tau and
      tau^{-1}, tau a length-zero generator of Omega (none for G2), and on
      the right by a fixed sample of finite y;
    * ascent-vs-length: x built in a fresh group, so that each x * s_i is
      made there by mul_gen and gets its length from l(x) by the ascent
      test, not from an element made earlier: i is a right descent of x
      iff l(x s_i) < l(x) by matrix_length, and the length x * s_i is
      made with must be matrix_length of x s_i;
    * finite-walk-vs-matrix: every finite element of a fresh group,
      reached from e by mul_gen walks only, so that each id is made by
      composing permutations and no matrix is handed in: its `fin`, built
      on that read, must be the mat_mul product of the generator matrices
      along the walk, and wbar(theta^vee), which the group reads from the
      permutation, must be mat_vec(m, theta^vee).

    Each product or inverse is compared with its (translation, matrix)
    pair from mat_mul and mat_vec: it must be the interned element for the
    pair, with the Iwahori-Matsumoto length.  Returns the three index
    entries, then the three product entries, then the three ascent
    entries, then the three walk entries.
    """

    def index(hctx, regular, other):
        g, d = hctx.group, hctx.datum
        gens, inverse_pair = _affine_gens(d), _inverter(d)
        want = []
        for pair in _sweep(d, regular, other):
            x = g.element(*pair)
            want += [(x, *pair), (g.inv(x), *inverse_pair(*pair))]
            for i, gen in enumerate(gens):
                want.append((g.mul_gen(x, i), *_product(pair, gen)))
                want.append((g.mul(g.simple_reflection(i), x), *_product(gen, pair)))
        detail = f"{len(want)} elements from {len(d.finite_weyl())} finite Weyl matrices"
        return _matrix_mismatches(g, want), detail

    def product(hctx, regular, other):
        g, d = hctx.group, hctx.datum
        sample = [m for m, _sign in d.finite_weyl()][::5]
        # (factor, its (translation, matrix) pair, multiply on both sides)
        factors = [(g.finite(m), ((0,) * d.dim, m), False) for m in sample]
        tau = _omega_generator(g)
        if tau is not None:
            factors.append((tau, (tau.trans, tau.fin), True))
            factors.append((g.inv(tau), _inverter(d)(tau.trans, tau.fin), True))
        want = []
        for pair in _sweep(d, regular, other):
            x = g.element(*pair)
            for b, b_pair, two_sided in factors:
                want.append((g.mul(x, b), *_product(pair, b_pair)))
                if two_sided:
                    want.append((g.mul(b, x), *_product(b_pair, pair)))
        detail = f"{len(want)} products by Omega and {len(sample)} finite elements"
        return _matrix_mismatches(g, want), detail

    def ascent(hctx, regular, other):
        d = hctx.datum
        gens = _affine_gens(d)
        bad = 0
        for pair in _sweep(d, regular, other):
            fresh = AffineWeylGroup(d)
            y = fresh.element(*pair)
            descents = fresh.right_descents(y)
            ly = matrix_length(d, *pair)
            bad += y.length() != ly
            for i, gen in enumerate(gens):
                lys = matrix_length(d, *_product(pair, gen))
                bad += (i in descents) != (lys < ly) or fresh.mul_gen(y, i).length() != lys
        return bad, f"{len(_sweep(d, regular, other)) * len(gens)} (element, generator) pairs"

    def walk(hctx, _regular, _other):
        g, d = hctx.group, hctx.datum
        gens = _affine_gens(d)
        weyl = [m for m, _sign in d.finite_weyl()]
        fresh = AffineWeylGroup(d)
        words = [g.reduced_word(g.finite(m))[1] for m in weyl]
        prods = [reduce(mat_mul, [gens[i][1] for i in w], d.identity) for w in words]
        want = [(fresh.from_word(fresh.identity, w), (0,) * d.dim, m) for w, m in zip(words, prods)]
        bad = (sorted(m for _, _, m in want) != weyl) + any(fresh._fmat)  # no matrix yet
        bad += _matrix_mismatches(fresh, want)
        bad += sum(fresh._g0[y._fi] != mat_vec(m, gens[0][0]) for y, _, m in want)
        return bad, f"{len(want)} finite elements reached by mul_gen walks"

    yield from _run("finite-index-vs-matrix", FINITE_INDEX_CASES, index)
    yield from _run("finite-product-vs-matrix", FINITE_INDEX_CASES, product)
    yield from _run("ascent-vs-length", FINITE_INDEX_CASES, ascent)
    yield from _run("finite-walk-vs-matrix", FINITE_INDEX_CASES, walk)


def finite_word_mismatches(d):
    """(bad, |W|) for the words and matrices a fresh group of d derives.

    Every finite id is reached from e by _fin_right alone, so that no word
    or matrix is handed in.  For each matrix m of finite_weyl(), the id of
    its root permutation must exist, its word (_word, derived from the
    word of wbar s_d) must be the reversed _descents strip of the
    permutation, and its matrix (_matrix, built from that word) must be
    m; bad counts the ids that fail, plus one if the walk does not reach
    |W| ids."""
    g = AffineWeylGroup(d)
    seen = reach([0], lambda k: (g._fin_right(k, i) for i in range(1, g.n_gens)))
    weyl = d.finite_weyl()
    bad = len(seen) != len(weyl)
    for m, _sign in weyl:
        perm = g._perm_of(m)
        k = g._pidx.get(perm)
        letters = g._descents(perm)
        if k is None or letters is None:
            bad += 1
            continue
        strip = ".".join(f"s{i}" for i in reversed(letters))
        bad += g._word(k) != strip or g._matrix(k) != m
    return bad, len(weyl)


def finite_word_checks():
    """The derived finite words and the decoder against plain matrix
    arithmetic, on each case of FINITE_INDEX_CASES.

    * finite-word-vs-strip: finite_word_mismatches, every word against the
      strip of its permutation and every matrix against finite_weyl();
    * decode-vs-matrix: for every x = t_lam m of the sweep, the canonical
      text of x and that text with each finite letter s_i appended are
      decoded in a fresh group.  The text of x must give the interned
      element of (lam, m) with its Iwahori-Matsumoto length by
      matrix_length; an appended s_i must be refused with ValueError
      exactly when m s_i is shorter than m by matrix_length, and must
      otherwise give the element of the mat_mul product.

    Returns the three word entries, then the three decode entries."""

    def word(hctx, _regular, _other):
        bad, n = finite_word_mismatches(hctx.datum)
        return bad, f"{n} finite words and matrices"

    def decode(hctx, regular, other):
        g, d = hctx.group, hctx.datum
        zero = (0,) * d.dim
        gens = _affine_gens(d)
        fresh = AffineWeylGroup(d)  # so that decode makes what it returns
        bad = texts = 0
        for pair in _sweep(d, regular, other):
            base = g.encode(g.element(*pair))[:-1]
            sep = "" if base.endswith("[") else "."
            bad += _matrix_mismatches(fresh, [(fresh.decode(base + "]"), *pair)])
            length = matrix_length(d, zero, pair[1])
            for i in range(1, len(gens)):
                texts += 1
                up = matrix_length(d, zero, mat_mul(pair[1], gens[i][1])) > length
                try:
                    y = fresh.decode(f"{base}{sep}s{i}]")
                except ValueError:
                    bad += up
                    continue
                bad += not up or _matrix_mismatches(fresh, [(y, *_product(pair, gens[i]))])
        return bad, f"{texts} texts with a finite letter appended"

    yield from _run("finite-word-vs-strip", FINITE_INDEX_CASES, word)
    yield from _run("decode-vs-matrix", FINITE_INDEX_CASES, decode)


def _finite_climb(g, x):
    """x times finite right ascents s_i (i >= 1) until every s_i is a descent."""
    finite = set(range(1, g.n_gens))
    while up := finite.difference(g.right_descents(x)):
        x = g.mul_gen(x, min(up))
    return x


def longest_in_double_coset(g, lam):
    """n_lambda: the longest element u t_lambda v over finite u, v (it is
    unique).  It is the one element of W t_lambda W with every finite s_i
    as a left and a right descent, so climb from t_lambda by right
    ascents, then by left ascents taken through inv, until neither side
    ascends."""
    x = _finite_climb(g, g.translation(lam))
    while (y := _finite_climb(g, g.inv(x))) is not g.inv(x):
        x = _finite_climb(g, g.inv(y))
    return x


#: (group, mu) for the q-analogue sweep
Q_ANALOGUE_CASES = (
    ("GL3", "2,1,0"),
    ("GL3", "3,0,0"),
    ("GSp4", "2,2,0,0"),
    ("G2", "1,0"),
    ("GL4", "2,1,1,0"),
)


def q_analogue_checks():
    """P_{n_lambda, n_mu} against the dual weight multiplicities.

    For dominant lambda <= mu, P_{n_lambda, n_mu} is Lusztig's q-analogue of
    the weight multiplicity m_mu(lambda) (Lusztig 1983, Kato 1982): a
    polynomial in q with constant term 1, nonnegative coefficients and
    P(1) = m_mu(lambda), the last computed by the Freudenthal recursion.
    """

    def check(hctx, mu, _text):
        d, g = hctx.datum, hctx.group
        n_mu = longest_in_double_coset(g, mu)
        lams = d.dominant_below(mu)
        bad = 0
        for lam in lams:
            p = hctx.kl_poly(longest_in_double_coset(g, lam), n_mu)
            bad += not (
                p.is_q_polynomial()
                and p.q_coeff(0) == 1
                and all(c >= 0 for c in p.terms.values())
                and p.eval_at("v=1") == d.weight_multiplicity(mu, lam)
            )
        return bad, f"{len(lams)} dominant lambda <= mu, l(n_mu) = {n_mu.length()}"

    yield from _run("q-analogue", Q_ANALOGUE_CASES, check)


def _bar_solve(s, gap):
    """The p with 2 deg_q p <= gap - 1 and q^gap bar(p) - p = s, or None when
    s is not of that form: the step of bar_fixed_column and q_oracle_row."""
    p = LaurentPoly({2 * gap - e: c for e, c in s.terms.items() if e > gap})
    return p if p.bar().shift(2 * gap) - p == s else None


def bar_fixed_column(hctx, w):
    """{x: P_{x,w}} for x <= w from bar-fixedness alone: an oracle for the
    recursion of HeckeContext._kl_column.

    q^{l(w)-l(x)} bar(P_{x,w}) - P_{x,w} = sum_{x<z<=w} R_{x,z} P_{z,w}
    determines P_{x,w} from its degree bound deg_q <= (l(w)-l(x)-1)/2, by
    decreasing l(x).  The column lives in its own dict: hctx supplies
    R-polynomials only, never _p_cols.
    """
    g = hctx.group
    below = g.below(w)
    lw = w.length()
    col = {w: LaurentPoly.one()}
    for x in reversed(below[:-1]):  # decreasing length, w excluded
        s = LaurentPoly.zero()
        for z, p_z in col.items():
            if g.leq(x, z):
                s = s + hctx.r_poly(x, z) * p_z
        p = _bar_solve(s, lw - x.length())
        if p is None:
            raise InvariantViolation(
                f"KL bar-fixedness failed at x={x.encode()} w={w.encode()}"
            )
        col[x] = p
    return col


#: (group, mu, tops) the two KL solvers are compared on: the columns of
#: every w in Adm(mu), or with tops those of the maximal elements, the
#: translations t_lambda for lambda in W mu, one of each pair t_lambda,
#: t_{-lambda} = t_lambda^{-1} (whose columns agree under inversion,
#: P_{x^-1,w^-1} = P_{x,w}), when every column is too slow for the oracle
#: (G2 3,0: 1.2 s against 20 s)
KL_SOLVER_CASES = (
    ("GL4", "2,1,0,0", False),
    ("GSp4", "2,1,1,0", False),
    ("G2", "2,1,0", False),
    ("GSp6", "1,1,1,0,0,0", False),
    ("G2", "3,0", True),
)


def kl_solver_checks():
    """kl_poly (the recursion) against bar_fixed_column on every pair (x, w)
    with x in Adm(mu) and w in Adm(mu) or its translations, pairs x not <=
    w included; every solved column whose keys are not the interval
    [e, w) of the Bruhat order counts as a mismatch too."""

    def check(hctx, mu, text, tops):
        g = hctx.group
        adm = g.adm(mu)
        ws = adm if not tops else [
            g.translation(lam) for lam in hctx.datum.weyl_orbit(mu) if lam < tuple(-c for c in lam)
        ]
        bad = below = 0
        for w in ws:
            col = bar_fixed_column(hctx, w)
            below += len(col)
            bad += sum(hctx.kl_poly(x, w) != col.get(x, LaurentPoly.zero()) for x in adm)
        bad += sum(col.keys() != g._interval(w) - {w} for w, col in hctx._p_cols.items())
        where = f"{len(ws)} translations x " if tops else ""
        return bad, f"{len(ws) * len(adm)} pairs of {where}Adm({text}) ({below} with x <= w)"

    yield from _run("kl-recursion-vs-bar-fixedness", KL_SOLVER_CASES, check)


def _r_extraction(hctx, x, y, inv=None):
    """R_{x,y} read off from the expansion of T^{-1}_{y^{-1}}."""
    if inv is None:
        inv = hctx.inv_T(hctx.group.inv(y))
    sign = 1 if (x.length() + y.length()) % 2 == 0 else -1
    return inv.coeff(x).scale(sign).shift(2 * y.length())


def r_recursion_checks(depth):
    """R recursion against the bar-expansion extraction, every x <= y with
    l(y) <= depth, on GL_3 and GSp_4."""

    def check(hctx):
        g = hctx.group
        pairs = bad = 0
        for y in ball(g, depth):
            inv = hctx.inv_T(g.inv(y))
            for x in g.below(y):
                pairs += 1
                bad += hctx.r_poly(x, y) != _r_extraction(hctx, x, y, inv)
        return bad, f"{pairs} pairs with l(y) <= {depth}"

    yield from _run("r-recursion-vs-extraction", (("GL", 3), ("GSp", 2)), check)


#: (group, mu) whose sum of v^l(x) T_x over Adm(mu) goes to the C''-basis
#: and back
IC_ROUND_TRIP_CASES = (("GL3", "2,1,0"), ("GSp4", "2,1,1,0"), ("G2", "1,0"))


def ic_round_trip_checks(cases=IC_ROUND_TRIP_CASES):
    """from_ic_basis(to_ic_basis(h)) == h, counted over the T_x of both
    sides, for h = sum v^{l(x)} T_x over Adm(mu): h has both odd and even
    v-exponents, so both halves of to_ic_basis and their merge are met."""

    def check(hctx, mu, text):
        adm = hctx.group.adm(mu)
        h = hctx.sum(hctx.T(x).scale(LaurentPoly.v_power(x.length())) for x in adm)
        coeffs = hctx.to_ic_basis(h)
        back = hctx.from_ic_basis(coeffs)
        bad = sum(back.coeff(x) != h.coeff(x) for x in set(back.terms) | set(h.terms))
        return bad, f"sum of v^l(x) T_x over Adm({text}), {len(coeffs)} C''-coefficients"

    yield from _run("ic-basis-round-trip", cases, check)


#: (group, mu) whose Adm sets the Q oracle and the inverse product are
#: checked on
PQ_INVERSION_CASES = (
    ("GL4", "2,1,0,0"), ("GSp4", "2,1,1,0"), ("G2", "2,1,0"), ("GL3", "3,1,0"),
    ("GL3", "1,1,0"), ("GSp4", "1,1,0,0"),
)


def q_oracle_row(hctx, x, ws):
    """{w: Q_{x,w}} for the w >= x in ws, from R-polynomials alone: an
    oracle for the downward solve that inv_kl_poly reads.

    sum_{x<=z<=w} Q_{x,z} R_{z,w} = q^{l(w)-l(x)} bar(Q_{x,w}) and Q_{x,x} = 1
    give q^{l(w)-l(x)} bar(Q_{x,w}) - Q_{x,w} = sum_{x<=z<w} Q_{x,z} R_{z,w},
    which determines Q_{x,w} from its degree bound 2 deg_q <= l(w)-l(x)-1,
    by increasing l(w); ws must be lower-closed, so that it holds [x, w].
    The row lives in its own dict: hctx supplies R-polynomials only, never
    _p_cols or _q_cache.  Mirrors bar_fixed_column.
    """
    g = hctx.group
    lx = x.length()
    row = {x: LaurentPoly.one()}
    for w in sorted((w for w in ws if w is not x and g.leq(x, w)), key=g.sort_key):
        s = LaurentPoly.zero()
        for z, q_z in row.items():
            if g.leq(z, w):
                s = s + q_z * hctx.r_poly(z, w)
        q = _bar_solve(s, w.length() - lx)
        if q is None:
            raise InvariantViolation(
                f"Q bar-relation failed at x={x.encode()} w={w.encode()}"
            )
        row[w] = q
    return row


def q_oracle_checks(cases=PQ_INVERSION_CASES, intervals=(("GL", 3), ("GSp", 2))):
    """inv_kl_poly against q_oracle_row on every pair x <= w of each pool:
    Adm(mu) for each (group, mu) of cases, and [e, y0] for each (family,
    rank) of intervals, y0 the first length-6 element of ball(g, 6).  The
    row solves sum_{x<=z<=w} Q_{x,z} R_{z,w} = q^{l(w)-l(x)} bar(Q_{x,w}),
    so agreement also checks that relation on the pool.  inv_kl_poly reads
    Q off to_ic_basis(T_w), the solve against the held P, so agreement
    also checks sum_z (-1)^{l(z)-l(x)} P_{x,z} Q_{z,w} = delta_{x,w}."""

    def check(hctx, mu=None, text=None):
        g = hctx.group
        if mu is None:
            y0 = next(y for y in ball(g, 6) if y.length() == 6)
            pool, where = g.below(y0), f"[e, {y0.encode()}]"
        else:
            pool, where = g.adm(mu), f"Adm({text})"
        pairs = bad = 0
        for x in pool:
            row = q_oracle_row(hctx, x, pool)
            pairs += len(row)
            bad += sum(q != hctx.inv_kl_poly(x, w) for w, q in row.items())
        return bad, f"{pairs} pairs x <= w of {where}"

    yield from _run("q-oracle-vs-ic-basis", (*cases, *intervals), check)


def inverse_product_checks():
    """The kernel product mul_T_inv(h, y) by its defining identity
    mul_T(mul_T_inv(h, y), y) = h, on every y of the Adm sets of
    PQ_INVERSION_CASES and h = T_x, x the identity, the first, a middle
    and the last element of Adm(mu).  mul_T walks the word of y forward,
    with no inverse step, and T_y is invertible, so the identity pins the
    product down.  The kernel multiplies h by omega^{-1} first and then
    steps along the word of y with each s_i conjugated by omega: for each
    omega met, omega s_i omega^{-1} by the group law must be the simple
    reflection conj_gen names.
    """

    def check(hctx, mu, text):
        g = hctx.group
        adm = g.adm(mu)
        hs = [hctx.T(x) for x in (g.identity, adm[0], adm[len(adm) // 2], adm[-1])]
        bad = sum(hctx.mul_T(hctx.mul_T_inv(h, y), y) != h for y in adm for h in hs)
        omegas = {g.reduced_word(y)[0] for y in adm}
        for omega in omegas:
            omega_inv = g.inv(omega)
            for i in range(g.n_gens):
                conj = g.mul(g.mul(omega, g.simple_reflection(i)), omega_inv)
                bad += conj is not g.simple_reflection(g.conj_gen(omega, i))
        return bad, f"{len(adm)} y in Adm({text}) times {len(hs)} T_x, {len(omegas)} Omega elements"

    yield from _run("inverse-product", PQ_INVERSION_CASES, check)


def wakimoto_checks(seed, samples):
    """The Wakimoto closed form against the Hecke product, on `samples`
    random pairs (v, w) from ball(g, 4) with l(v) + l(w) <= 8 per family."""

    def check():
        rng = random.Random(seed)
        total = bad = 0
        for fam, n in (("GL", 3), ("GSp", 2)):
            pool = ball(group(create(fam, n)), 4)
            done = 0
            while done < samples:
                v, w = rng.choice(pool), rng.choice(pool)
                if v.length() + w.length() > 8:
                    continue
                raw, _ = wakimoto.wakimoto_function(v, w)
                for x, c in wakimoto.tilde_coefficients(raw).items():
                    bad += c != wakimoto.rv_poly_laurent(v, w, x)
                done += 1
            total += done
        return bad, f"{total} random (v,w) pairs"

    yield _entry("wakimoto-closed-form", check)


def theta_q1_checks():
    """The q = 1 specialisation a_w(1) = Q_{w, t_lambda}(1): for every lambda
    in the Weyl orbits of the cases, the C''-expansion of
    eps_lambda q_lambda^{1/2} Theta_lambda is supported on [e, t_lambda] and
    its coefficients a_w agree with Q_{w, t_lambda} at v = 1."""

    def check():
        bad = 0
        for fam, n, lam0 in (("GL", 2, (1, 0)), ("GL", 2, (2, 0)), ("GL", 3, (1, 1, 0))):
            hctx = context(create(fam, n))
            datum, g = hctx.datum, hctx.group
            for lam in datum.weyl_orbit(lam0):
                t = g.translation(lam)
                sign = -1 if t.length() % 2 else 1
                f = central.theta(datum, lam).scale(LaurentPoly.v_power(t.length(), sign))
                coeffs = hctx.to_ic_basis(f)
                bad += set(coeffs) != set(g.below(t))
                for w, c in coeffs.items():
                    bad += c.eval_at("v=1") != hctx.inv_kl_poly(w, t).eval_at("v=1")
        return bad, ""

    yield _entry("theta-q1-specialisation", check)


#: (group, mu) whose Bernstein functions, central elements and Kottwitz
#: function the packed kernel is checked on
BERNSTEIN_CASES = (("GL4", "2,1,0,0"), ("GSp4", "2,1,1,0"), ("G2", "3,0"))


def bernstein_checks(cases=BERNSTEIN_CASES):
    """The packed kernel HeckeContext.bernstein_sum by its defining
    identity, multiplied back with the forward walk mul_T.  For every nu
    in the Weyl orbit of every dominant lambda <= mu, theta with
    minimal_dominant_pair and with shifted_dominant_pair is
    T~_{t1} T~^{-1}_{t2} = v^{l(t2)-l(t1)} T_{t1} T_{t2}^{-1} for its pair,
    so theta T_{t2} = v^{l(t2)-l(t1)} T_{t1}; z_lambda, one kernel call
    over the orbit, against the sum of those thetas; and kottwitz_function
    against eps_mu q_mu^{1/2} sum m_mu(lambda) z_lambda built from those
    sums."""
    pairs = (central.minimal_dominant_pair, central.shifted_dominant_pair)

    def check(hctx, mu, _text):
        d, g = hctx.datum, hctx.group
        weights = d.weight_table(mu)
        bad = n = 0
        zs = []
        for lam in sorted(weights):
            orbit = []
            for nu in d.weyl_orbit(lam):
                for decomposition in pairs:
                    t1, t2 = map(g.translation, decomposition(d, nu))
                    theta = central.theta(d, nu, decomposition)
                    shift = LaurentPoly.v_power(t2.length() - t1.length())
                    bad += hctx.mul_T(theta, t2) != hctx.T(t1).scale(shift)
                    n += 1
                orbit.append(theta)
            z = hctx.sum(orbit)
            bad += central.bernstein_central(d, lam) != z
            zs.append(z.scale(weights[lam]))
        ell = g.translation(mu).length()
        want = hctx.sum(zs).scale(LaurentPoly.v_power(ell, -1 if ell % 2 else 1))
        bad += central.kottwitz_function(d, mu) != want
        return bad, f"{n} Theta, {len(zs)} z and the Kottwitz function"

    yield from _run("bernstein-packed-vs-laurent", cases, check)


def oracle_checks(seed=42, depth=5, samples=50):
    """Exact cross-oracle identities, mostly on GL_3 and GSp_4: the entries
    of every oracle suite in turn."""
    return chain(
        bruhat_oracle_checks(depth), configuration_checks(), finite_weyl_checks(),
        finite_word_checks(), r_recursion_checks(depth), kl_solver_checks(),
        ic_round_trip_checks(), q_oracle_checks(), inverse_product_checks(),
        wakimoto_checks(seed, samples), theta_q1_checks(), q_analogue_checks(),
        bernstein_checks(),
    )


def property_checks(datum, mu):
    """Empirical table properties for one (group, mu) case, read off one
    multiplicity table: its trace function, l(t_mu) and configurations."""
    table = multiplicity.compute(datum, mu)
    summary = table.property_report()
    results = [
        ("observation-A-degree-bound", summary["degree_bound"], ""),
        ("observation-B-palindromic", summary["palindromic"], ""),
        ("observation-B-unimodal", summary["unimodal"], ""),
        ("observation-C-unit-endpoints", summary["unit_endpoints"], ""),
        ("multiplicities-nonnegative", summary["nonnegative"], ""),
    ]
    results.append(
        (
            "base-change-consistency",
            multiplicity.base_change_consistency(table),
            "re-expanding sum m(w) C''_w in the T basis",
        )
    )
    f, ell = table.trace, table.ell_mu
    results.append(
        (
            "property-P-at-l(t_mu)",
            central.satisfies_property_P(f, ell),
            f"d = {ell}",
        )
    )
    if multiplicity.is_minuscule(datum, mu):
        results.append(
            (
                "minuscule-epsilon-sum",
                multiplicity.epsilon_sum_identity(table),
                "",
            )
        )
        tau = table.adm[0]
        results.append(
            (
                "minuscule-tau-poincare",
                multiplicity.minuscule_poincare(datum, mu) == table.m_polys[tau],
                "",
            )
        )
    return results


#: the reference cases shipped as golden tables
GOLDEN_CASES = {
    ("GL4", (1, 1, 0, 0)): "GL4_1-1-0-0.txt",
    ("GL5", (1, 1, 0, 0, 0)): "GL5_1-1-0-0-0.txt",
    ("GL6", (1, 1, 0, 0, 0, 0)): "GL6_1-1-0-0-0-0.txt",
    ("GL3", (2, 2, 0)): "GL3_2-2-0.txt",
    ("GL3", (3, 1, 0)): "GL3_3-1-0.txt",
    ("GL4", (2, 0, 0, 0)): "GL4_2-0-0-0.txt",
    ("GL4", (2, 1, 0, 0)): "GL4_2-1-0-0.txt",
    ("GSp4", (1, 1, 1)): "GSp4_1-1-0-0.txt",
    ("GSp6", (1, 1, 1, 1)): "GSp6_1-1-1-0-0-0.txt",
    ("G2", (1, 0)): "G2_2-1-0.txt",
}


def golden_text(datum, mu):
    """The stored golden table for (datum, mu), byte for byte as ASCII
    text with no newline translation, or None."""
    name = GOLDEN_CASES.get((datum.label, tuple(mu)))
    if name is None:
        return None
    path = importlib.resources.files("affhecke").joinpath("golden", name)
    return path.read_bytes().decode("ascii")


def golden_check(datum, mu):
    """The entry of the rendered table of (datum, mu) against its stored
    golden table, byte for byte."""
    golden = golden_text(datum, mu)
    if golden is None:
        raise ValueError(
            f"no golden table for {datum.label} mu={datum.format_coweight(mu)}"
        )
    ok = multiplicity.render_text(multiplicity.compute(datum, mu)) == golden
    return [
        (
            f"golden-table-{datum.label}-{datum.format_coweight(mu)}",
            ok,
            "matches stored table" if ok else "DIFFERS from stored table",
        )
    ]
