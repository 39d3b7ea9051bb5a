"""Bernstein functions, central elements, and the nearby-cycles trace function.

For a coweight lambda, the Bernstein function is

    Theta_lambda = T~_{t_{lambda_1}} T~^{-1}_{t_{lambda_2}},

for any decomposition lambda = lambda_1 - lambda_2 with both parts
dominant (the result does not depend on the choice; T~_x = q_x^{-1/2} T_x).
Summing over a Weyl orbit gives the central element
z_lambda = sum_{nu in W lambda} Theta_nu, added serially in orbit order
(the orbit sums are too small to pay for worker processes).  The
semisimple Frobenius trace of the nearby cycles on the local model
attached to a dominant mu is the Kottwitz-conjecture function

    eps_mu q_mu^{1/2} sum_{lambda <= mu dominant} m_mu(lambda) z_lambda,

whose T-support is exactly the admissible set Adm(mu).

Property (P) is the palindromicity condition on trace functions behind
the multiplicity theory: f satisfies (P) for the integer d when the
Verdier-dual function g = bar(f) (the Kazhdan-Lusztig involution image)
obeys g_y = eps_d eps_y q^{-d} q_y^{-1} bar(g_y) coefficientwise.
"""

from __future__ import annotations

from .affweyl import group
from .hecke import context
from .laurent import LaurentPoly
from .rootdata import vec_add, vec_scale, vec_sub


def minimal_dominant_pair(datum, lam):
    """The canonical decomposition lam = lam1 - lam2 with both parts dominant.

    Chosen to keep l(t_{lam1}) + l(t_{lam2}) small so that Hecke products
    stay manageable; any valid decomposition yields the same Theta.
    """
    lam = datum.check_coweight(lam)
    fam = datum.family
    if fam == "GL":
        n = datum.dim
        lam1 = [0] * n
        lam1[n - 1] = max(lam[n - 1], 0)
        for i in range(n - 2, -1, -1):
            lam1[i] = max(lam1[i + 1], lam[i] + lam1[i + 1] - lam[i + 1])
        lam1 = tuple(lam1)
        return lam1, vec_sub(lam1, lam)
    if fam == "G2":
        lam1 = tuple(max(c, 0) for c in lam)
        return lam1, vec_sub(lam1, lam)
    # GSp: scan the similitude coordinate of lam1 and take the shortest pair
    n = datum.rank
    a, c = lam[:n], lam[n]
    g = group(datum)
    span = 2 * (sum(abs(x) for x in a) + abs(c)) + 2
    best = None
    for d in range(c - span, c + span + 1):
        b = [0] * n
        b[n - 1] = max(-(-d // 2), a[n - 1] + (-(-(d - c) // 2)))
        for i in range(n - 2, -1, -1):
            b[i] = max(b[i + 1], a[i] + b[i + 1] - a[i + 1])
        lam1 = tuple(b) + (d,)
        lam2 = vec_sub(lam1, lam)
        if not (datum.is_dominant(lam1) and datum.is_dominant(lam2)):
            continue
        score = (
            g.translation(lam1).length() + g.translation(lam2).length(),
            d,
        )
        if best is None or score < best[0]:
            best = (score, lam1, lam2)
    return best[1], best[2]


def shifted_dominant_pair(datum, lam):
    """Alternative decomposition: lam1 = lam + N*delta for a fixed dominant
    regular corrector delta and the least N making lam1 dominant."""
    lam = datum.check_coweight(lam)
    fam = datum.family
    if fam == "GL":
        delta = tuple(range(datum.dim - 1, -1, -1))
    elif fam == "GSp":
        delta = tuple(range(datum.rank, 0, -1)) + (0,)
    else:
        delta = (1, 1)
    n = 0
    cur = lam
    while not datum.is_dominant(cur):
        cur = vec_add(cur, delta)
        n += 1
    return cur, vec_scale(delta, n)


def theta(datum, lam, decomposition=minimal_dominant_pair):
    """The Bernstein function Theta_lambda as a Hecke element.

    decomposition(datum, lam) returns the dominant pair (lam1, lam2), by
    default minimal_dominant_pair; every valid pair gives the same
    element, which the test suite verifies.
    """
    hctx = context(datum)
    g = hctx.group
    lam1, lam2 = decomposition(datum, lam)
    t1 = g.translation(lam1)
    t2 = g.translation(lam2)
    # T~_{t1} T~^{-1}_{t2} = v^{l(t2)-l(t1)} T_{t1} T_{t2}^{-1}
    h = hctx.mul_T_inv(hctx.T(t1), t2)
    return h.scale(LaurentPoly.v_power(t2.length() - t1.length()))


def bernstein_central(datum, lam):
    """z_lambda = sum_{nu in W lambda} Theta_nu in orbit order; lam must be dominant."""
    lam = datum.require_dominant(lam)
    out = context(datum).zero()
    for nu in datum.weyl_orbit(lam):
        out = out + theta(datum, nu)
    return out


def kottwitz_function(datum, mu):
    """The trace function eps_mu q_mu^{1/2} sum_{lam <= mu} m_mu(lam) z_lam.

    Every T-coefficient lies in Z[q, q^{-1}]; the support is Adm(mu).
    """
    mu = datum.require_dominant(mu)
    hctx = context(datum)
    g = hctx.group
    ell = g.translation(mu).length()
    acc = hctx.zero()
    for lam in datum.dominant_below(mu):
        m = datum.weight_multiplicity(mu, lam)
        if m:
            acc = acc + bernstein_central(datum, lam).scale(m)
    sign = -1 if ell % 2 else 1
    return acc.scale(LaurentPoly.v_power(ell, sign))


def satisfies_property_P(f, d):
    """Property (P) for the integer d, from the raw definition.

    Computes the dual function g = bar(f) under the Kazhdan-Lusztig
    involution and checks g_y = eps_d eps_y q^{-d} q_y^{-1} bar(g_y) for
    every y in its support.  Returns False on any failure.
    """
    hctx = f.hctx
    g = hctx.bar(f)
    eps_d = -1 if d % 2 else 1
    for y, c in g.terms.items():
        want = c.bar().shift(-2 * d - 2 * y.length()).scale(eps_d * y.sign())
        if want != c:
            return False
    return True


def is_self_dual_up_to_twist(f, k):
    """True iff bar(f) = q^{-k} f (Verdier self-duality up to Tate twist)."""
    hctx = f.hctx
    return hctx.bar(f) == f.scale(LaurentPoly.q_power(-k))


def self_dual_property_P_coefficients(f, d):
    """The coefficientwise palindromicity test for self-dual functions:
    bar(f_x) = eps_x eps_d q_x q^{-d} f_x for all x.  Equivalent to (P)
    when f is self-dual up to the twist q^{-d}."""
    eps_d = -1 if d % 2 else 1
    for x, c in f.terms.items():
        if c.bar() != c.shift(2 * x.length() - 2 * d).scale(eps_d * x.sign()):
            return False
    return True
