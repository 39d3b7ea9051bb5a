"""Cross-checking suites: oracle equivalences, table properties, golden diffs.

Each suite returns a list of (name, ok, detail) triples so that both the
command-line front end and the test suite can consume the same checks.
"""

import importlib.resources
import random
from functools import reduce

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
    vec_add,
    vec_mat,
    vec_scale,
)


def ball(g, radius):
    """All elements of length <= radius in the W_aff coset of the identity."""
    out = {g.identity}
    frontier = [g.identity]
    while frontier:
        nxt = []
        for x in frontier:
            if x.length() >= radius:
                continue
            for i in range(g.n_gens):
                y = g.mul_gen(x, i)
                if y.length() > x.length() and y not in out:
                    out.add(y)
                    nxt.append(y)
        frontier = nxt
    return sorted(out, key=g.sort_key)


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
    results = []
    for fam, n, mu in BRUHAT_CASES:
        g = group(create(fam, n))
        pool = bruhat_pool(g, depth, mu)
        bad = cross = 0
        for y in pool:
            for x in pool:
                cross += g.omega_class(x) != g.omega_class(y)
                bad += g.leq(x, y) != lifting_leq(g, x, y)
        results.append(
            (
                f"bruhat-lifting-vs-interval-{g.datum.label}",
                bad == 0,
                f"{len(pool) ** 2} pairs ({cross} across Omega-cosets), {bad} mismatches",
            )
        )
    return results


#: groups for the finite-index sweep, each with a dominant regular and a
#: non-dominant translation besides 0
FINITE_INDEX_CASES = (
    ("GL", 4, (3, 2, 1, 0), (0, 2, -1, 1)),
    ("GSp", 3, (3, 2, 1, 0), (0, 2, -1, 1)),
    ("G2", 2, (1, 1), (-1, 2)),
)


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


def finite_weyl_checks():
    """The indexed group law and the ascent test against plain matrix
    arithmetic, in one sweep over x = t_lam m for every finite Weyl matrix
    m and translation lam of each case of FINITE_INDEX_CASES.  The group
    keys a finite Weyl element by its root permutation alone and builds
    its matrix on first read (pickles still carry that matrix), so every
    matrix it returns is checked here against finite_weyl(), mat_mul and
    mat_vec.

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
    pair, with the Iwahori-Matsumoto length.  The inverse of a matrix m is
    the matrix of finite_weyl() whose product with m is the identity.
    Returns the three index entries, then the three product entries, then
    the three ascent entries, then the three walk entries.
    """
    results = ([], [], [], [])  # index, product, ascent, walk
    for fam, n, regular, other in FINITE_INDEX_CASES:
        d = create(fam, n)
        g = group(d)
        zero = (0,) * d.dim
        gens = _affine_gens(d)
        weyl = [m for m, _sign in d.finite_weyl()]
        inverse = {m: next(u for u in weyl if mat_mul(m, u) == d.identity) for m in weyl}

        def inverse_pair(trans, fin):
            return vec_scale(mat_vec(inverse[fin], trans), -1), inverse[fin]

        # (factor, its (translation, matrix) pair, multiply on both sides)
        factors = [(g.finite(m), (zero, m), False) for m in weyl[::5]]
        tau = _omega_generator(g)
        if tau is not None:
            factors.append((tau, (tau.trans, tau.fin), True))
            factors.append((g.inv(tau), inverse_pair(tau.trans, tau.fin), True))
        cases = [0, 0, 0, 0]
        bad = [0, 0, 0, 0]
        for m in weyl:
            for lam in (zero, regular, other):
                x = g.element(lam, m)
                pair = (lam, m)
                right = [_product(pair, gen) for gen in gens]  # x s_i
                # (element, its translation, its matrix) by plain arithmetic
                want = [(x, lam, m), (g.inv(x), *inverse_pair(lam, m))]
                for i, gen in enumerate(gens):
                    want.append((g.mul_gen(x, i), *right[i]))
                    want.append((g.mul(g.simple_reflection(i), x), *_product(gen, pair)))
                cases[0] += len(want)
                bad[0] += _matrix_mismatches(g, want)
                want = []
                for b, b_pair, two_sided in factors:
                    want.append((g.mul(x, b), *_product(pair, b_pair)))
                    if two_sided:
                        want.append((g.mul(b, x), *_product(b_pair, pair)))
                cases[1] += len(want)
                bad[1] += _matrix_mismatches(g, want)
                fresh = AffineWeylGroup(d)
                y = fresh.element(lam, m)
                descents = fresh.right_descents(y)
                ly = matrix_length(d, lam, m)
                bad[2] += y.length() != ly
                cases[2] += len(right)
                for i, ys in enumerate(right):
                    lys = matrix_length(d, *ys)
                    bad[2] += (i in descents) != (lys < ly) or fresh.mul_gen(y, i).length() != lys
        fresh = AffineWeylGroup(d)
        words = [g.reduced_word(g.finite(m))[1] for m in weyl]
        prods = [reduce(mat_mul, [gens[i][1] for i in w], d.identity) for w in words]
        want = [(fresh.from_word(fresh.identity, w), zero, m) for w, m in zip(words, prods)]
        cases[3] = len(want)
        bad[3] = (sorted(m for _, _, m in want) != weyl) + any(fresh._fmat)  # no matrix yet
        bad[3] += _matrix_mismatches(fresh, want)
        bad[3] += sum(fresh._g0[y._fi] != mat_vec(m, gens[0][0]) for y, _, m in want)
        details = (
            f"{cases[0]} elements from {len(weyl)} finite Weyl matrices",
            f"{cases[1]} products by Omega and {len(weyl[::5])} finite elements",
            f"{cases[2]} (element, generator) pairs",
            f"{cases[3]} finite elements reached by mul_gen walks",
        )
        kinds = ("finite-index-vs-matrix", "finite-product-vs-matrix", "ascent-vs-length",
                 "finite-walk-vs-matrix")
        for kind, out, k, detail in zip(kinds, results, bad, details):
            out.append((f"{kind}-{d.label}", k == 0, f"{detail}, {k} mismatches"))
    return results[0] + results[1] + results[2] + results[3]


def longest_in_double_coset(g, lam):
    """n_lambda: the longest element u t_lambda v over finite u, v (it is unique)."""
    t = g.translation(lam)
    fins = [g.finite(m) for m, _sign in g.datum.finite_weyl()]
    return max((u * t * v for u in fins for v in fins), key=lambda x: x.length())


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
    results = []
    for label, text in Q_ANALOGUE_CASES:
        d = parse_group(label)
        mu = d.parse_coweight(text)
        hctx = context(d)
        g = hctx.group
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
        results.append(
            (
                f"q-analogue-{label}-{text}",
                bad == 0,
                f"{len(lams)} dominant lambda <= mu, l(n_mu) = {n_mu.length()}, "
                f"{bad} mismatches",
            )
        )
    return results


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
    w included; a pair whose solve raises InvariantViolation counts as a
    mismatch, and so does every solved column whose keys are not the
    interval [e, w) of the Bruhat order."""
    results = []
    for label, text, tops in KL_SOLVER_CASES:
        d = parse_group(label)
        hctx = context(d)
        g = hctx.group
        mu = d.parse_coweight(text)
        adm = g.adm(mu)
        if tops:
            ws = [g.translation(lam) for lam in d.weyl_orbit(mu) if lam < tuple(-c for c in lam)]
        else:
            ws = adm
        bad = below = 0
        for w in ws:
            col = bar_fixed_column(hctx, w)
            below += len(col)
            for x in adm:
                try:
                    bad += hctx.kl_poly(x, w) != col.get(x, LaurentPoly.zero())
                except InvariantViolation:
                    bad += 1
        bad += sum(col.keys() != g._interval(w) - {w} for w, col in hctx._p_cols.items())
        where = f"{len(ws)} translations x " if tops else ""
        results.append(
            (
                f"kl-recursion-vs-bar-fixedness-{label}-{text}",
                bad == 0,
                f"{len(ws) * len(adm)} pairs of {where}Adm({text}) ({below} with x <= w), "
                f"{bad} mismatches",
            )
        )
    return results


def _r_extraction(hctx, x, y, inv=None):
    """R_{x,y} read off from the expansion of T^{-1}_{y^{-1}}."""
    if inv is None:
        inv = hctx.inv_T(hctx.group.inv(y))
    sign = 1 if (x.length() + y.length()) % 2 == 0 else -1
    return inv.coeff(x).scale(sign).shift(2 * y.length())


def r_recursion_checks(depth):
    """R recursion against the bar-expansion extraction, every x <= y with
    l(y) <= depth, on GL_3 and GSp_4."""
    results = []
    for fam, n in (("GL", 3), ("GSp", 2)):
        hctx = context(create(fam, n))
        g = hctx.group
        pairs = bad = 0
        for y in ball(g, depth):
            inv = hctx.inv_T(g.inv(y))
            for x in g.below(y):
                pairs += 1
                bad += hctx.r_poly(x, y) != _r_extraction(hctx, x, y, inv)
        detail = f"{pairs} pairs with l(y) <= {depth}, {bad} mismatches"
        results.append((f"r-recursion-vs-extraction-{g.datum.label}", bad == 0, detail))
    return results


def sum_qr_checks():
    """sum_{w<=x<=y} Q_{w,x} R_{x,y} = q^{l(y)-l(w)} bar(Q_{w,y}) for all
    w <= y below the first length-6 element of ball(g, 6), GL_3 and GSp_4."""
    results = []
    for fam, n in (("GL", 3), ("GSp", 2)):
        hctx = context(create(fam, n))
        g = hctx.group
        y0 = next(y for y in ball(g, 6) if y.length() == 6)
        bel = g.below(y0)
        pairs = bad = 0
        for w in bel:
            for y in bel:
                if not g.leq(w, y):
                    continue
                acc = LaurentPoly.zero()
                for x in bel:
                    if g.leq(w, x) and g.leq(x, y):
                        acc = acc + hctx.inv_kl_poly(w, x) * hctx.r_poly(x, y)
                gap = 2 * (y.length() - w.length())
                bad += acc != hctx.inv_kl_poly(w, y).bar().shift(gap)
                pairs += 1
        detail = f"{pairs} pairs below {y0.encode()}, {bad} mismatches"
        results.append((f"sum-QR-identity-{g.datum.label}", bad == 0, detail))
    return results


#: (group, mu) whose Adm pairs x <= w the P-Q inversion is checked on
PQ_INVERSION_CASES = (
    ("GL4", "2,1,0,0"), ("GSp4", "2,1,1,0"), ("G2", "2,1,0"), ("GL3", "3,1,0"),
    ("GL3", "1,1,0"), ("GSp4", "1,1,0,0"),
)


def pq_inversion_checks(cases=PQ_INVERSION_CASES):
    """sum_{x<=z<=w} (-1)^{l(z)-l(x)} P_{x,z} Q_{z,w} = delta_{x,w} on every
    pair x <= w of Adm(mu), P from kl_poly and Q from inv_kl_poly, for each
    (group, mu) of cases."""
    results = []
    for label, text in cases:
        d = parse_group(label)
        hctx = context(d)
        g = hctx.group
        pairs = bad = 0
        for w in g.adm(d.parse_coweight(text)):
            bel = g.below(w)
            for x in bel:
                acc = LaurentPoly.zero()
                for z in bel:
                    if g.leq(x, z):
                        p = hctx.kl_poly(x, z) * hctx.inv_kl_poly(z, w)
                        acc = acc + (p if (z.length() - x.length()) % 2 == 0 else -p)
                pairs += 1
                bad += acc != (LaurentPoly.one() if x is w else LaurentPoly.zero())
        results.append(
            (
                f"pq-inversion-{label}-{text}",
                bad == 0,
                f"{pairs} pairs x <= w of Adm({text}), {bad} mismatches",
            )
        )
    return results


#: (group, mu) whose Adm pairs x <= w the inverse-KL recursion is checked on
INVKL_RECURSION_CASES = (("GL3", "1,1,0"), ("GSp4", "1,1,0,0"))


def invkl_recursion_checks(cases=INVKL_RECURSION_CASES):
    """sum_{x<=z<=w} R_{z,w} Q_{x,z} = q^{l(w)-l(x)} bar(Q_{x,w}) on every
    pair x <= w of Adm(mu), for each (group, mu) of cases."""
    results = []
    for label, text in cases:
        d = parse_group(label)
        hctx = context(d)
        g = hctx.group
        bad = 0
        for w in g.adm(d.parse_coweight(text)):
            bel = g.below(w)
            for x in bel:
                rec = LaurentPoly.zero()
                for z in bel:
                    if g.leq(x, z):
                        rec = rec + hctx.r_poly(z, w) * hctx.inv_kl_poly(x, z)
                gap = 2 * (w.length() - x.length())
                bad += rec != hctx.inv_kl_poly(x, w).bar().shift(gap)
        results.append((f"invkl-recursion-{label}", bad == 0, f"{bad} mismatches"))
    return results


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


def q_oracle_checks():
    """inv_kl_poly against q_oracle_row on every pair x <= w of Adm(mu),
    for the cases of PQ_INVERSION_CASES with mu not minuscule; a row whose
    solve raises InvariantViolation counts as a mismatch."""
    results = []
    for label, text in PQ_INVERSION_CASES:
        d = parse_group(label)
        mu = d.parse_coweight(text)
        if multiplicity.is_minuscule(d, mu):
            continue
        hctx = context(d)
        adm = hctx.group.adm(mu)
        pairs = bad = 0
        for x in adm:
            try:
                row = q_oracle_row(hctx, x, adm)
            except InvariantViolation:
                bad += 1
                continue
            for w, q in row.items():
                pairs += 1
                bad += q != hctx.inv_kl_poly(x, w)
        results.append(
            (
                f"q-oracle-vs-ic-basis-{label}-{text}",
                bad == 0,
                f"{pairs} pairs x <= w of Adm({text}), {bad} mismatches",
            )
        )
    return results


def inverse_product_checks():
    """The kernel product mul_T_inv(h, y) by its defining identity
    mul_T(mul_T_inv(h, y), y) = h, on every y of the Adm sets of
    PQ_INVERSION_CASES and h = T_x, x the identity, the first, a middle
    and the last element of Adm(mu).  mul_T walks the word of y forward,
    with no inverse step, and T_y is invertible, so the identity pins the
    product down.  The kernel multiplies h by omega^{-1} first and then
    steps along the word of y with each s_i conjugated by omega: for each
    omega met, omega s_i omega^{-1} by the group law must be the simple
    reflection conj_gen names.  An InvariantViolation counts as a
    mismatch.
    """
    results = []
    for label, text in PQ_INVERSION_CASES:
        d = parse_group(label)
        hctx = context(d)
        g = hctx.group
        adm = g.adm(d.parse_coweight(text))
        hs = [hctx.T(x) for x in (g.identity, adm[0], adm[len(adm) // 2], adm[-1])]
        omegas = set()
        bad = 0
        for y in adm:
            omegas.add(g.reduced_word(y)[0])
            for h in hs:
                try:
                    got = hctx.mul_T_inv(h, y)
                except InvariantViolation:
                    bad += 1
                    continue
                bad += hctx.mul_T(got, y) != h
        for omega in omegas:
            omega_inv = g.inv(omega)
            for i in range(g.n_gens):
                conj = g.mul(g.mul(omega, g.simple_reflection(i)), omega_inv)
                try:
                    bad += conj is not g.simple_reflection(g.conj_gen(omega, i))
                except InvariantViolation:
                    bad += 1
        results.append(
            (
                f"inverse-product-{label}-{text}",
                bad == 0,
                f"{len(adm)} y in Adm({text}) times {len(hs)} T_x, "
                f"{len(omegas)} Omega elements, {bad} mismatches",
            )
        )
    return results


def wakimoto_checks(seed, samples):
    """The Wakimoto closed form against the Hecke product, on `samples`
    random pairs (v, w) from ball(g, 4) with l(v) + l(w) <= 8 per family."""
    rng = random.Random(seed)
    total = bad = 0
    for fam, n in (("GL", 3), ("GSp", 2)):
        pool = ball(group(create(fam, n)), 4)
        done = 0
        while done < samples:
            v = rng.choice(pool)
            w = rng.choice(pool)
            if v.length() + w.length() > 8:
                continue
            raw, _ = wakimoto.wakimoto_function(v, w)
            for x, c in wakimoto.tilde_coefficients(raw).items():
                bad += c != wakimoto.rv_poly_laurent(v, w, x)
            done += 1
        total += done
    detail = f"{total} random (v,w) pairs, {bad} mismatches"
    return [("wakimoto-closed-form", bad == 0, detail)]


def theta_q1_checks():
    """The q = 1 specialisation a_w(1) = Q_{w, t_lambda}(1): for every lambda
    in the Weyl orbits of the cases, the C''-expansion of
    eps_lambda q_lambda^{1/2} Theta_lambda is supported on [e, t_lambda] and
    its coefficients a_w agree with Q_{w, t_lambda} at v = 1."""
    bad = 0
    for fam, n, lam0 in (("GL", 2, (1, 0)), ("GL", 2, (2, 0)), ("GL", 3, (1, 1, 0))):
        datum = create(fam, n)
        hctx = context(datum)
        g = hctx.group
        for lam in datum.weyl_orbit(lam0):
            t = g.translation(lam)
            sign = -1 if t.length() % 2 else 1
            f = central.theta(datum, lam).scale(LaurentPoly.v_power(t.length(), sign))
            coeffs = hctx.to_ic_basis(f)
            bad += set(coeffs) != set(g.below(t))
            for w, c in coeffs.items():
                bad += c.eval_at("v=1") != hctx.inv_kl_poly(w, t).eval_at("v=1")
    return [("theta-q1-specialisation", bad == 0, f"{bad} mismatches")]


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
    results = []
    pairs = (central.minimal_dominant_pair, central.shifted_dominant_pair)
    for label, text in cases:
        d = parse_group(label)
        hctx = context(d)
        g = hctx.group
        mu = d.parse_coweight(text)
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
        results.append(
            (
                f"bernstein-packed-vs-laurent-{label}-{text}",
                bad == 0,
                f"{n} Theta, {len(zs)} z and the Kottwitz function, {bad} mismatches",
            )
        )
    return results


def oracle_checks(seed=42, depth=5, samples=50):
    """Exact cross-oracle identities, mostly on GL_3 and GSp_4."""
    results = bruhat_oracle_checks(depth) + finite_weyl_checks()
    results += r_recursion_checks(depth) + kl_solver_checks()
    results += invkl_recursion_checks() + pq_inversion_checks()
    results += q_oracle_checks() + inverse_product_checks()
    results += sum_qr_checks() + wakimoto_checks(seed, samples)
    results += theta_q1_checks() + q_analogue_checks()
    return results + bernstein_checks()


def property_checks(datum, mu):
    """Empirical table properties for one (group, mu) case, read off one
    multiplicity table: its trace function, l(t_mu) and configurations."""
    table = multiplicity.compute(datum, mu)
    _, summary = table.property_report()
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
            "support-is-admissible-set",
            set(f.terms) == set(table.adm),
            f"{len(table.adm)} elements",
        )
    )
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
    """The stored golden table for (datum, mu), or None."""
    name = GOLDEN_CASES.get((datum.label, tuple(mu)))
    if name is None:
        return None
    return (
        importlib.resources.files("affhecke")
        .joinpath("golden", name)
        .read_text(encoding="ascii")
    )


def normalize_table(text):
    """Whitespace-insensitive canonical form of a rendered table."""
    lines = []
    for line in text.strip().splitlines():
        collapsed = " ".join(line.split())
        if collapsed:
            lines.append(collapsed)
    return tuple(lines)


def golden_check(datum, mu):
    golden = golden_text(datum, mu)
    if golden is None:
        raise ValueError(
            f"no golden table for {datum.label} mu={datum.format_coweight(mu)}"
        )
    table = multiplicity.compute(datum, mu)
    text = multiplicity.render_text(table)
    ok = normalize_table(text) == normalize_table(golden)
    return [
        (
            f"golden-table-{datum.label}-{datum.format_coweight(mu)}",
            ok,
            "matches stored table" if ok else "DIFFERS from stored table",
        )
    ]
