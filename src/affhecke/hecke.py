"""The Iwahori-Hecke algebra of an extended affine Weyl group.

H = (+)_{w} Z[v, v^{-1}] T_w with the quadratic relation
(T_s - q)(T_s + 1) = 0 and braid relations, q = v^2.  Products are
computed by walking reduced words one generator at a time:

    T_x T_s     = T_{xs}                if xs > x
                  q T_{xs} + (q-1) T_x  if xs < x
    T_x T_s^{-1} = T_{xs}                     if xs < x
                   q^{-1} T_{xs} + (q^{-1}-1) T_x  if xs > x

Length-zero elements multiply by the group law.  On top of the ring
operations this module computes

* R-polynomials         R_{x,y}:  T^{-1}_{y^{-1}} = eps_x eps_y q_y^{-1}
                        sum_x R_{x,y}(q) T_x, by the standard recursion;
* Kazhdan-Lusztig       P_{x,w}: the coefficients of the self-dual basis
  polynomials           C''_w = eps_w sum_x P_{x,w} T_x.  A whole column
                        {P_{x,w}}_x is solved at once from the
                        bar-fixedness identity
                        q^{l(w)-l(x)} bar(P_{x,w}) = sum_{x<=z<=w} R_{x,z} P_{z,w},
                        which determines P_{x,w} from its degree bound
                        deg_q <= (l(w)-l(x)-1)/2;
* inverse KL            Q_{x,w}: entries of the inverse base-change
  polynomials           matrix, from the triangular system
                        sum_{x<=z<=w} (-1)^{l(z)} P_{x,z} Q_{z,w} = (-1)^{l(w)} delta;
* base change T <-> C''.

P-polynomials are memoised in memory and optionally persisted to a
versioned line-oriented cache file (see KLCache).
"""

from __future__ import annotations

import os
import tempfile

from .affweyl import DatumMismatch, group
from .laurent import LaurentPoly

_ZERO = LaurentPoly.zero()
_ONE = LaurentPoly.one()
_Q = LaurentPoly.q_power(1)
_QM1 = LaurentPoly({2: 1, 0: -1})        # q - 1
_QINV = LaurentPoly.q_power(-1)
_QINVM1 = LaurentPoly({-2: 1, 0: -1})    # q^{-1} - 1


def _add_into(terms, x, c):
    """terms[x] += c, dropping x when the sum is zero."""
    n = terms.get(x, _ZERO) + c
    if n:
        terms[x] = n
    else:
        terms.pop(x, None)


class InvariantViolation(AssertionError):
    """An internal exact identity failed; indicates a convention bug."""


class HeckeElement:
    """A finitely supported map W~ -> Z[v, v^{-1}] in the T basis."""

    __slots__ = ("hctx", "terms")

    def __init__(self, hctx, terms):
        self.hctx = hctx
        self.terms = {x: c for x, c in terms.items() if c}

    @property
    def datum(self):
        return self.hctx.datum

    def __eq__(self, other):
        if not isinstance(other, HeckeElement):
            return NotImplemented
        return self.hctx is other.hctx and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        self._check(other)
        t = dict(self.terms)
        for x, c in other.terms.items():
            _add_into(t, x, c)
        return HeckeElement(self.hctx, t)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return HeckeElement(self.hctx, {x: -c for x, c in self.terms.items()})

    def scale(self, poly):
        """Multiply every coefficient by a LaurentPoly or int."""
        if isinstance(poly, int):
            poly = LaurentPoly({0: poly})
        if not poly:
            return HeckeElement(self.hctx, {})
        return HeckeElement(
            self.hctx, {x: c * poly for x, c in self.terms.items()}
        )

    def __mul__(self, other):
        if isinstance(other, HeckeElement):
            return self.hctx.mul(self, other)
        return NotImplemented

    def coeff(self, x):
        return self.terms.get(x, _ZERO)

    def support(self):
        return tuple(sorted(self.terms, key=self.hctx.group.sort_key))

    def _check(self, other):
        if self.hctx is not other.hctx:
            raise DatumMismatch("Hecke elements over different data")

    def encode(self):
        """JSON-ready dict: element encoding -> coefficient encoding."""
        return {
            x.encode(): c.encode()
            for x, c in sorted(self.terms.items(), key=lambda kv: self.hctx.group.sort_key(kv[0]))
        }

    def __repr__(self):
        parts = [f"({c.encode()})*T[{x.encode()}]" for x, c in
                 sorted(self.terms.items(), key=lambda kv: self.hctx.group.sort_key(kv[0]))]
        return " + ".join(parts) if parts else "0"


class HeckeContext:
    """Per-datum state: generator tables and polynomial caches."""

    def __init__(self, datum):
        self.datum = datum
        self.group = group(datum)
        self._r_cache = {}
        self._p_cache = {}
        self._q_cache = {}
        self._col_done = set()

    # -- basis elements -----------------------------------------------

    def zero(self):
        return HeckeElement(self, {})

    def T(self, x):
        return HeckeElement(self, {x: _ONE})

    def T_tilde(self, x):
        """q_x^{-1/2} T_x."""
        return HeckeElement(self, {x: LaurentPoly.v_power(-x.length())})

    def from_encoding(self, data):
        g = self.group
        return HeckeElement(
            self,
            {g.decode(k): LaurentPoly.decode(v) for k, v in data.items()},
        )

    # -- products -------------------------------------------------------

    def _gen_step(self, h, i, left, inverse):
        """T_{s_i}^e * h if `left`, else h * T_{s_i}^e; e = -1 if `inverse`.

        Per term, with y = s_i x (left) or x s_i (right): T_y alone when
        the step changes the length by e, otherwise the quadratic relation
        q^e T_y + (q^e - 1) T_x.
        """
        g = self.group
        step, q, qm1 = (-1, _QINV, _QINVM1) if inverse else (1, _Q, _QM1)
        out = {}
        for x, c in h.terms.items():
            y = g.gen_mul(i, x) if left else g.mul_gen(x, i)
            if y.length() - x.length() == step:
                _add_into(out, y, c)
            else:
                _add_into(out, y, c * q)
                _add_into(out, x, c * qm1)
        return HeckeElement(self, out)

    def mul_gen_T(self, h, i):
        """h * T_{s_i}."""
        return self._gen_step(h, i, left=False, inverse=False)

    def mul_gen_T_inv(self, h, i):
        """h * T_{s_i}^{-1}."""
        return self._gen_step(h, i, left=False, inverse=True)

    def gen_mul_T(self, i, h):
        """T_{s_i} * h."""
        return self._gen_step(h, i, left=True, inverse=False)

    def mul_omega(self, h, omega):
        """h * T_omega for a length-zero omega (group translation of support)."""
        g = self.group
        return HeckeElement(
            self, {g.mul(x, omega): c for x, c in h.terms.items()}
        )

    def omega_mul(self, omega, h):
        g = self.group
        return HeckeElement(
            self, {g.mul(omega, x): c for x, c in h.terms.items()}
        )

    def mul_T(self, h, y):
        """h * T_y along the canonical reduced word of y."""
        omega, word = self.group.reduced_word(y)
        out = self.mul_omega(h, omega)
        for i in word:
            out = self._gen_step(out, i, left=False, inverse=False)
        return out

    def mul_T_inv(self, h, y):
        """h * T_y^{-1} along the canonical reduced word of y."""
        omega, word = self.group.reduced_word(y)
        out = h
        for i in reversed(word):
            out = self._gen_step(out, i, left=False, inverse=True)
        return self.mul_omega(out, self.group.inv(omega))

    def mul(self, a, b):
        """Full product; cost is |supp(b)| reduced-word walks over a."""
        out = {}
        for y, c in sorted(b.terms.items(), key=lambda kv: self.group.sort_key(kv[0])):
            part = self.mul_T(a, y)
            for x, d in part.terms.items():
                _add_into(out, x, d * c)
        return HeckeElement(self, out)

    def inv_T(self, w):
        """T_w^{-1} = T_{s_k}^{-1} ... T_{s_1}^{-1} T_{omega^{-1}},
        for the canonical factorisation w = omega s_1 ... s_k; built by
        successive left multiplications working from the inside out."""
        omega, word = self.group.reduced_word(w)
        h = self.T(self.group.inv(omega))
        for i in word:
            h = self._gen_step(h, i, left=True, inverse=True)
        return h

    def bar(self, h):
        """The Kazhdan-Lusztig involution: bar coefficients, T_y -> T^{-1}_{y^{-1}}."""
        out = self.zero()
        for y, c in sorted(h.terms.items(), key=lambda kv: self.group.sort_key(kv[0])):
            out = out + self.inv_T(self.group.inv(y)).scale(c.bar())
        return out

    # -- R-polynomials -----------------------------------------------------

    def r_poly(self, x, y):
        """R_{x,y}(q); zero unless x <= y, R_{y,y} = 1, monic of degree l(y)-l(x)."""
        if x is y:
            return _ONE
        g = self.group
        if not g.leq(x, y):
            return _ZERO
        key = (x, y)
        got = self._r_cache.get(key)
        if got is not None:
            return got
        i = g.first_right_descent(y)
        ys = g.mul_gen(y, i)
        xs = g.mul_gen(x, i)
        if xs.length() < x.length():
            val = self.r_poly(xs, ys)
        else:
            val = _QM1 * self.r_poly(x, ys) + _Q * self.r_poly(xs, ys)
        self._r_cache[key] = val
        return val

    # -- Kazhdan-Lusztig polynomials ------------------------------------------

    def kl_poly(self, x, w):
        """P_{x,w}(q); zero unless x <= w, P_{w,w} = 1."""
        if x is w:
            return _ONE
        g = self.group
        if not g.leq(x, w):
            return _ZERO
        got = self._p_cache.get((x, w))
        if got is None:
            self._kl_column(w)
            got = self._p_cache[(x, w)]
        return got

    def _kl_column(self, w):
        """Solve the whole column {P_{x,w} : x <= w} from bar-fixedness."""
        if w in self._col_done:
            return
        g = self.group
        below = g.below(w)
        lw = w.length()
        col = {w: _ONE}
        for x in reversed(below[:-1]):  # decreasing length, w excluded
            if (x, w) in self._p_cache:
                col[x] = self._p_cache[(x, w)]
                continue
            s = _ZERO
            for z in below:
                if z is x or z not in col:
                    continue
                if g.leq(x, z):
                    s = s + self.r_poly(x, z) * col[z]
            gap = lw - x.length()
            # q^gap bar(P) - P = s  with deg_q P <= (gap-1)/2
            p_terms = {}
            for e, c in s.terms.items():
                if e > gap:  # q-exponent e/2 > gap/2
                    p_terms[2 * gap - e] = c
            p = LaurentPoly(p_terms)
            check = p.bar().shift(2 * gap) - p
            if check != s:
                raise InvariantViolation(
                    f"KL bar-fixedness failed at x={x.encode()} w={w.encode()}"
                )
            col[x] = p
            self._p_cache[(x, w)] = p
        self._col_done.add(w)

    # -- inverse KL polynomials --------------------------------------------

    def inv_kl_poly(self, x, w):
        """Q_{x,w}(q): inverse base-change matrix entries.

        Determined by sum_{x<=z<=w} (-1)^{l(z)-l(x)} P_{x,z} Q_{z,w} = delta_{x,w}.
        """
        if x is w:
            return _ONE
        g = self.group
        if not g.leq(x, w):
            return _ZERO
        key = (x, w)
        got = self._q_cache.get(key)
        if got is not None:
            return got
        acc = _ZERO
        ex = x.sign()
        for z in g.below(w):
            if z is x or not g.leq(x, z):
                continue
            pz = self.kl_poly(x, z)
            if not pz:
                continue
            term = pz * self.inv_kl_poly(z, w)
            acc = acc + (term if z.sign() == ex else -term)
        val = -acc
        self._q_cache[key] = val
        return val

    # -- base change -----------------------------------------------------------

    def ic_basis_element(self, w):
        """C''_w = eps_w sum_{x <= w} P_{x,w} T_x."""
        sign = w.sign()
        self._kl_column(w)
        terms = {}
        for x in self.group.below(w):
            p = self.kl_poly(x, w)
            if p:
                terms[x] = p if sign == 1 else -p
        return HeckeElement(self, terms)

    def to_ic_basis(self, h):
        """Coefficients {w: c_w} with h = sum c_w C''_w."""
        g = self.group
        universe = set()
        for x in h.terms:
            universe.update(g.below(x))
        order = sorted(universe, key=g.sort_key, reverse=True)
        coeffs = {}
        for w in order:
            acc = h.terms.get(w, _ZERO)
            ew = w.sign()
            for x, cx in coeffs.items():
                p = self.kl_poly(w, x)
                if p:
                    t = cx * p
                    acc = acc - (t if x.sign() == 1 else -t)
            val = acc if ew == 1 else -acc
            if val:
                coeffs[w] = val
        return coeffs

    def from_ic_basis(self, coeffs):
        """sum_w c_w C''_w as a T-basis element."""
        out = self.zero()
        for w in sorted(coeffs, key=self.group.sort_key):
            out = out + self.ic_basis_element(w).scale(coeffs[w])
        return out

    # -- persistent P cache -------------------------------------------------

    def load_cache(self, directory):
        KLCache(directory).load_into(self)

    def save_cache(self, directory):
        KLCache(directory).save_from(self)


_CONVENTION_TAG = "base-alcove=dominant"


def _plausible(x, w, p):
    """Structural checks every stored P_{x,w} passes: l(x) < l(w), P is a
    polynomial in q with constant term 1, and 2 deg_q P <= l(w) - l(x) - 1.
    x <= w is not checked: a Bruhat test per record costs more than the
    KL work the cache saves."""
    gap = w.length() - x.length()
    return (
        gap > 0
        and p.is_q_polynomial()
        and p.q_coeff(0) == 1
        and 2 * p.q_degree() <= gap - 1
    )


class KLCache:
    """Versioned line cache of P-polynomials.

    Header "klcache v1 <label> <convention>"; one record per line:
    "<x> <w> <poly>" in the canonical text encodings.  Unknown versions,
    wrong labels, garbled lines or records that fail `_plausible` are
    ignored and rebuilt, never trusted.
    """

    def __init__(self, directory):
        self.directory = directory

    def path(self, datum):
        return os.path.join(self.directory, f"klcache_{datum.label}.txt")

    def load_into(self, hctx):
        path = self.path(hctx.datum)
        try:
            with open(path, "r", encoding="ascii") as fh:
                header = fh.readline().split()
                if header != ["klcache", "v1", hctx.datum.label, _CONVENTION_TAG]:
                    return 0
                g = hctx.group
                staged = {}
                for line in fh:
                    parts = line.split()
                    if len(parts) != 3:
                        return 0  # corrupt: discard wholesale
                    try:
                        x = g.decode(parts[0])
                        w = g.decode(parts[1])
                        p = LaurentPoly.decode(parts[2])
                    except (ValueError, DatumMismatch):
                        return 0
                    if not _plausible(x, w, p):
                        return 0
                    staged[(x, w)] = p
        except OSError:
            return 0
        hctx._p_cache.update(staged)
        return len(staged)

    def save_from(self, hctx):
        if not hctx._p_cache:
            return
        os.makedirs(self.directory, exist_ok=True)
        path = self.path(hctx.datum)
        records = sorted(
            ((x.encode(), w.encode(), p.encode()) for (x, w), p in hctx._p_cache.items())
        )
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            fh.write(f"klcache v1 {hctx.datum.label} {_CONVENTION_TAG}\n")
            for xe, we, pe in records:
                fh.write(f"{xe} {we} {pe}\n")
        os.replace(tmp, path)


_CONTEXTS = {}


def context(datum):
    """The shared HeckeContext attached to a datum."""
    c = _CONTEXTS.get(id(datum))
    if c is None:
        c = HeckeContext(datum)
        _CONTEXTS[id(datum)] = c
    return c
