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

from .hecke import context
from .laurent import LaurentPoly
from .rootdata import dot, vec_add, vec_scale


def minimal_dominant_pair(datum, lam):
    """The decomposition lam = lam1 - lam2 with both parts dominant and the
    least l(t_{lam1}) + l(t_{lam2}):

        lam2 = sum_i max(-<alpha_i, lam>, 0) w_i^vee,   lam1 = lam + lam2,

    w_i^vee the fundamental coweights of the datum.  Every dominant pair
    (lam + nu, nu) has <alpha_i, nu> >= max(-<alpha_i, lam>, 0) =
    <alpha_i, lam2>, so nu - lam2 is dominant and pairs nonnegatively with
    2 rho; as l(t_nu) = <2 rho, nu> for dominant nu, the total length
    <2 rho, lam> + 2 <2 rho, nu> is least at nu = lam2.  Short translations
    keep the Hecke products small; any valid pair yields the same Theta.
    """
    lam = datum.check_coweight(lam)
    lam2 = (0,) * datum.dim
    for alpha, w in zip(datum.simple_roots(), datum.fund_coweights):
        a = dot(alpha, lam)
        if a < 0:
            lam2 = vec_add(lam2, vec_scale(w, -a))
    return vec_add(lam, lam2), lam2


def shifted_dominant_pair(datum, lam):
    """Alternative decomposition: lam1 = lam + N*delta with the dominant
    regular delta = sum_i w_i^vee, which pairs to 1 with every simple root,
    so the least N making lam1 dominant is max(0, max_i -<alpha_i, lam>)."""
    lam = datum.check_coweight(lam)
    delta = (0,) * datum.dim
    for w in datum.fund_coweights:
        delta = vec_add(delta, w)
    n = max(0, *(-dot(alpha, lam) for alpha in datum.simple_roots()))
    shift = vec_scale(delta, n)
    return vec_add(lam, shift), shift


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
    return context(datum).sum(theta(datum, nu) for nu in datum.weyl_orbit(lam))


def kottwitz_function(datum, mu):
    """The trace function eps_mu q_mu^{1/2} sum_{lam <= mu} m_mu(lam) z_lam.

    Every T-coefficient lies in Z[q, q^{-1}]; the support is Adm(mu).
    """
    mu = datum.require_dominant(mu)
    hctx = context(datum)
    ell = hctx.group.translation(mu).length()
    weights = datum.weight_table(mu)
    acc = hctx.sum(
        bernstein_central(datum, lam).scale(weights[lam])
        for lam in sorted(weights)
        if weights[lam]
    )
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
