"""Distinguished-subexpression combinatorics for Wakimoto functions.

Fix v, w in the affine Weyl group W_aff and a reduced word
w = s_1 ... s_r.  A v-distinguished subexpression is a walk
[sigma_0, ..., sigma_r] with sigma_0 = v, sigma_j in
{sigma_{j-1}, sigma_{j-1} s_j}, and a stay (sigma_j = sigma_{j-1})
allowed only on an ascent (sigma_{j-1} < sigma_{j-1} s_j).  Writing
n(sigma) for the number of stays, the product T~_v T~^{-1}_{w^{-1}}
expands in the parameter Q = q^{-1/2} - q^{1/2} as

    T~_v T~^{-1}_{w^{-1}} = sum_x ( sum_{sigma ends at x} Q^{n(sigma)} ) T~_x,

which follows from T~_s^{-1} = T~_s + Q applied along the reversed word.
The closed form is word-dependent only through the enumeration; the
coefficient itself is a basis coefficient and hence word-independent.

Minimal expressions: when T~_v T~^{-1}_{w^{-1}} can be written as a
product of factors T~_{g_i}^{e_i} whose underlying word is reduced
(sum of lengths equals the length of the underlying product), every
T~_x-coefficient obeys deg_Q <= l(vw) - l(x).  `theta_walk_factors`
builds such an expression for any Bernstein function Theta_lambda by
signing the wall crossings of the alcove walk from the base alcove to
t_lambda: positive crossings contribute T~_s, negative ones T~_s^{-1}.
"""

import math
from collections import namedtuple

from .affweyl import InvariantViolation, group
from .hecke import context
from .laurent import LaurentPoly, NotExpandable
from .rootdata import dot


class NotMinimal(ValueError):
    """The factor list is not length-additive (not a reduced expression)."""


class Subexpression(namedtuple("Subexpression", "base_word sigma n_stat m_stat")):
    """One v-distinguished walk along a reduced word of w."""

    __slots__ = ()

    def terminal(self):
        return self.sigma[-1]


def _require_affine(x):
    g = x.group
    if g.omega_class(x) != 0:
        raise ValueError(
            f"{x.encode()} has a nonzero length-zero part; "
            "distinguished subexpressions are defined on W_aff"
        )
    omega, word = g.reduced_word(x)
    if omega is not g.identity:
        raise ValueError(
            f"{x.encode()} lies outside W_aff"
        )
    return word


def distinguished_subexpressions(v, w, terminal=None, word=None):
    """All v-distinguished subexpressions along a reduced word of w.

    With `terminal` given, only walks ending there are returned.  An
    explicit reduced `word` for w may be supplied; the default is the
    canonical one.
    """
    g = v.group
    if word is None:
        word = _require_affine(w)
    else:
        _require_affine(w)
        word = tuple(word)
        ok = len(word) == w.length() and all(0 <= i < g.n_gens for i in word)
        if not ok or g.from_word(g.identity, word) is not w:
            raise ValueError(f"{word} is not a reduced word of {w.encode()}")
    _require_affine(v)
    out = []
    stack = [(v, 0, (v,), 0, 0)]
    while stack:
        cur, j, path, n, m = stack.pop()
        if j == len(word):
            if terminal is None or cur is terminal:
                out.append(
                    Subexpression(base_word=word, sigma=path, n_stat=n, m_stat=m)
                )
            continue
        s = word[j]
        nxt = g.mul_gen(cur, s)
        ascent = nxt.length() > cur.length()
        stack.append((nxt, j + 1, path + (nxt,), n, m if ascent else m + 1))
        if ascent:
            stack.append((cur, j + 1, path + (cur,), n + 1, m))
    out.sort(key=lambda se: tuple(g.sort_key(x) for x in se.sigma))
    return out


def rv_poly(v, w, x, word=None):
    """R^v_{x,w}(Q) = sum over walks ending at x of Q^{n(sigma)}.

    Returned as {Q-exponent: coefficient}; all exponents share the
    parity of l(v) + l(w) - l(x).
    """
    counts = {}
    for se in distinguished_subexpressions(v, w, terminal=x, word=word):
        counts[se.n_stat] = counts.get(se.n_stat, 0) + 1
    return counts


def rv_poly_laurent(v, w, x, word=None):
    """The same polynomial evaluated at Q = v^{-1} - v."""
    return LaurentPoly.from_q_expansion(rv_poly(v, w, x, word=word))


def wakimoto_function(v, w):
    """The Hecke element T~_v T~^{-1}_{w^{-1}} (any v, w, length-zero
    parts handled by the group law), together with its normalisation
    eps_v eps_w q_v^{1/2} q_w^{1/2} T~_v T~^{-1}_{w^{-1}}.  The raw element
    is v^{l(w)-l(v)} T_v T^{-1}_{w^{-1}}, one part of the Bernstein kernel.

    Returns (raw, normalized).
    """
    g = v.group
    hctx = context(g.datum)
    raw = hctx.bernstein_sum([(v, g.inv(w), 1, w.length() - v.length())])
    sign = 1 if (v.length() + w.length()) % 2 == 0 else -1
    normalized = raw.scale(LaurentPoly.v_power(v.length() + w.length(), sign))
    return raw, normalized


def tilde_coefficients(h):
    """{x: coefficient of T~_x} for a Hecke element in the T basis."""
    return {
        x: c.shift(x.length()) for x, c in h.terms.items()
    }


def min_expr_degree_check(factors):
    """Degree bound for a minimal expression prod_i T~_{g_i}^{e_i}.

    `factors` is a list of (element, +-1) pairs.  The underlying word
    must be reduced: sum of lengths equals the length of the product of
    the underlying elements g_i^{e_i} (raises NotMinimal otherwise).
    Returns True iff every T~_x coefficient c_x of the product satisfies
    deg_Q c_x <= k - l(x), where k is the total length.
    """
    if not factors:
        raise NotMinimal("empty factor list")
    g = factors[0][0].group
    total = 0
    underlying = g.identity
    for el, e in factors:
        if e not in (1, -1):
            raise NotMinimal("exponents must be +1 or -1")
        total += el.length()
        underlying = g.mul(underlying, el if e == 1 else g.inv(el))
    if underlying.length() != total:
        raise NotMinimal(
            f"factor lengths sum to {total} but the underlying product has "
            f"length {underlying.length()}"
        )
    h = evaluate_factors(g.datum, factors)
    for x, c in tilde_coefficients(h).items():
        try:
            expansion = c.q_expansion()
        except NotExpandable:
            return False
        if expansion and max(expansion) > total - x.length():
            return False
    return True


def theta_walk_factors(datum, lam):
    """A minimal expression for Theta_lambda as signed wall crossings.

    Walks the canonical reduced word of t_lambda from the base alcove,
    assigning +1 to steps that cross their wall in the increasing
    direction of the positive root and -1 to the others.  The underlying
    word is reduced by construction; the test suite verifies that the
    signed product equals Theta_lambda.
    """
    from fractions import Fraction

    g = group(datum)
    t = g.translation(lam)
    omega, word = g.reduced_word(t)
    # exact rational interior point of the base alcove
    two_rho_covee = datum.two_rho_coroot
    bound = 1 + max(dot(f, two_rho_covee) for f in datum.pos_roots)
    point = tuple(Fraction(c, bound) for c in two_rho_covee)
    factors = [(omega, 1)]
    cur = omega
    prev_pt = cur.act(point)
    for i in word:
        cur = g.mul_gen(cur, i)
        cur_pt = cur.act(point)
        sign = None
        for f in datum.pos_roots:
            a = dot(f, prev_pt)
            b = dot(f, cur_pt)
            lo, hi = (a, b) if a < b else (b, a)
            # integer level strictly between the two evaluations?
            k = math.floor(lo) + 1
            if lo < k < hi:
                sign = 1 if b > a else -1
                break
        if sign is None:
            raise InvariantViolation(f"walk step s{i} towards {t.encode()} crossed no wall")
        factors.append((g.simple_reflection(i), sign))
        prev_pt = cur_pt
    return factors


def evaluate_factors(datum, factors):
    """The Hecke element prod_i T~_{g_i}^{e_i}."""
    hctx = context(datum)
    g = hctx.group
    h = hctx.T(g.identity)
    for el, e in factors:
        if e == 1:
            h = hctx.mul_T(h, el)
            h = h.scale(LaurentPoly.v_power(-el.length()))
        else:
            h = hctx.mul_T_inv(h, el)
            h = h.scale(LaurentPoly.v_power(el.length()))
    return h
