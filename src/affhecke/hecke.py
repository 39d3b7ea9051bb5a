"""The Iwahori-Hecke algebra of an extended affine Weyl group.

H = (+)_{w} Z[v, v^{-1}] T_w with the quadratic relation
(T_s - q)(T_s + 1) = 0 and braid relations, q = v^2.  A product h T_y is
computed by walking the reduced word of y one generator at a time:

    T_x T_s = T_{xs}                if xs > x
              q T_{xs} + (q-1) T_x  if xs < x

A quadratic step is a shift of v-exponents: with d = q c, the
coefficient c of T_x gives d to T_{xs} and d - c to T_x, with no
polynomial product.  Length-zero elements multiply by the group law, and
x s is read from the group's table of s.  Sums add into one term dict.

Every product with an inverse is one call of the Bernstein kernel
bernstein_sum, which adds k v^e T_{t1} T_{t2}^{-1} over parts
(t1, t2, k, e) in packed integers, by the steps

    T_x T_s^{-1} = T_{xs}                          if xs < x
                   q^{-1} T_{xs} + (q^{-1}-1) T_x  if xs > x:

mul_T_inv, mul_gen_T_inv, inv_T and the involution bar here,
Theta_lambda, z_lambda and the Kottwitz function of `central`, and the
Wakimoto functions.  For t2 = omega s_1 ... s_k it multiplies by
omega^{-1} first and then walks the word with each s_i conjugated by
omega, by T_s^{-1} T_{omega^{-1}} = T_{omega^{-1}} T_{omega s omega^{-1}}^{-1}:
the group law runs once per part, not once per term of the product.
Its oracle is the identity that defines it, mul_T(mul_T_inv(h, y), y) = h,
by the forward walk, which shares no step with the kernel; T_y is
invertible, so the identity pins h T_y^{-1} down.  Each coefficient of
T_{t1} T_{t2}^{-1} is a polynomial in u = q^{-1}, held as its value at
u = 2^K.  A step at most triples the sum of |coefficients|, so every
digit of the sum is under sum |k| 3^{l(t2)}; K is chosen from that bound
per call, before any arithmetic, and every decoded digit is exact with
no runtime guard.  On top of the ring operations this module computes

* R-polynomials         R_{x,y}:  T^{-1}_{y^{-1}} = eps_x eps_y q_y^{-1}
                        sum_x R_{x,y}(q) T_x, by the standard recursion
                        on an explicit stack;
* Kazhdan-Lusztig       P_{x,w}: the coefficients of the self-dual basis
  polynomials           C''_w = eps_w sum_x P_{x,w} T_x.  A whole column
                        {P_{x,w}}_x is solved at once by the recursion
                        of Kazhdan-Lusztig (1979, (2.2.c)) along the first
                        right descent s of w, from the columns of ws and
                        of the z < ws with mu(z, ws) != 0 and zs < z; it
                        needs no R-polynomial and no Bruhat test.  The
                        recursion runs only on the top x of each pair
                        {x, xs} (du Cloux's extremal pairs): P_{xs,w} is
                        the same object;
* base change           T <-> C''; to_ic_basis is the one downward solve
                        of the unitriangular P-matrix, and both the
                        multiplicity tables and the inverse KL
                        polynomials read it.  It pushes each solved
                        coefficient down the KL column of its element,
                        with no Bruhat test, and a P that is 1 costs a
                        subtraction, no product;
* inverse KL            Q_{x,w}: entries of the inverse base-change
  polynomials           matrix, sum_{x<=z<=w} (-1)^{l(z)} P_{x,z} Q_{z,w} = (-1)^{l(w)} delta,
                        so eps_w T_w = sum_z Q_{z,w} C''_z and a column
                        {Q_{z,w}}_z is to_ic_basis(eps_w T_w).

P-polynomials are held in memory packed, as the integers P(B) with
B = 2^K (Kronecker substitution, K = _K = 48 bits a q-digit): P -> P(B)
is a ring homomorphism Z[q] -> Z, so the sums, q-shifts (a shift by K
bits) and integer scalings of the recursion and of the downward solve
are exact integer operations, and decoding P(B) digit by digit gives P
back whenever every coefficient lies in (-B/2, B/2).  Cheap bounds
guard that before anything is decoded, one per column and one per row
of the solve, and raise InvariantViolation when they fail.  Each packed
value is held once (_p_values) with its LaurentPoly, decoded once
(_p_polys), so equal P are one int and one LaurentPoly, and 1 is the
module's _ONE.  The columns are _p_cols[w] = {x: P_{x,w}(B) for every
x < w}, a column whole or not at all.  KLCache reads and writes them as
a versioned line-oriented file, for the command line's `table` alone:
the context itself computes in memory and knows no file.  Every API
takes and returns LaurentPoly: packing never leaves this module.  The
basis elements, HeckeElement(hctx, terms), every product, r_poly,
kl_poly, inv_kl_poly, ic_basis_element and to_ic_basis raise
DatumMismatch for an element or Hecke element of another context, with
one check per call, none per step of a walk.
"""

import os

from .affweyl import DatumMismatch, InvariantViolation, group
from .laurent import LaurentPoly

_ZERO = LaurentPoly.zero()
_ONE = LaurentPoly.one()

#: bits per q-digit of a packed P: P is held as the integer P(B), B = 2^_K
_K = 48


def _add_into(terms, x, c):
    """terms[x] += c for a nonzero c, dropping x when the sum is zero."""
    old = terms.get(x)
    if old is None:
        terms[x] = c
        return
    n = old + c
    if n:
        terms[x] = n
    else:
        del terms[x]


def _decode(p, k, e0, step):
    """The Laurent polynomial sum_i d_i v^{e0 + step i} of the digits d_i of
    p = sum_i d_i 2^{k i}, each digit taken in [-2^{k-1}, 2^{k-1}); the
    digits below the lowest set bit of p are 0, and skipped in one shift."""
    mask = (1 << k) - 1
    half = 1 << (k - 1)
    terms = {}
    zeros = ((p & -p).bit_length() - 1) // k if p else 0
    p >>= k * zeros
    e = e0 + step * zeros
    while p:
        d = p & mask
        if d >= half:
            d -= mask + 1
        if d:
            terms[e] = d
        p = (p - d) >> k
        e += step
    return LaurentPoly(terms)


class HeckeElement:
    """A finitely supported map W~ -> Z[v, v^{-1}] in the T basis."""

    __slots__ = ("hctx", "terms")

    def __init__(self, hctx, terms):
        hctx._own(*terms)
        self.hctx = hctx
        self.terms = {x: c for x, c in terms.items() if c}

    @classmethod
    def _of(cls, hctx, terms):
        """Wrap a term dict that has no zero coefficient, without a copy."""
        h = cls.__new__(cls)
        h.hctx = hctx
        h.terms = terms
        return h

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
        return HeckeElement._of(self.hctx, t)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return HeckeElement._of(self.hctx, {x: -c for x, c in self.terms.items()})

    def scale(self, poly):
        """Multiply every coefficient by a LaurentPoly or int; a monomial
        k v^e is a shift and a scale, with no polynomial product."""
        if isinstance(poly, int):
            poly = LaurentPoly({0: poly})
        if not poly:
            return HeckeElement._of(self.hctx, {})
        if len(poly.terms) > 1:
            terms = {x: c * poly for x, c in self.terms.items()}
        else:
            ((e, k),) = poly.terms.items()
            if e == 0 and k == 1:
                return self
            terms = {x: c.shift(e).scale(k) for x, c in self.terms.items()}
        return HeckeElement._of(self.hctx, terms)

    def __mul__(self, other):
        if isinstance(other, HeckeElement):
            return self.hctx.mul(self, other)
        return NotImplemented

    def coeff(self, x):
        return self.terms.get(x, _ZERO)

    def _check(self, other):
        if self.hctx is not other.hctx:
            raise DatumMismatch("Hecke elements over different data")

    def encode(self):
        """The one text form: element encoding -> coefficient encoding, in
        sort_key order.  Equal coefficients are often one shared object,
        so each distinct object is encoded once."""
        texts = {}
        out = {}
        for x in sorted(self.terms, key=self.hctx.group.sort_key):
            c = self.terms[x]
            text = texts.get(id(c))
            if text is None:
                text = texts[id(c)] = c.encode()
            out[x.encode()] = text
        return out

    def __repr__(self):
        return " + ".join(f"({c})*T[{x}]" for x, c in self.encode().items()) or "0"


class HeckeContext:
    """Per-datum state: the polynomial caches."""

    def __init__(self, datum):
        self.datum = datum
        self.group = group(datum)
        self._r_cache = {}
        self._p_cols = {}  # w -> {x: P_{x,w}(B) for every x < w}, whole columns only
        self._p_values = {1: 1}  # each packed P once: equal P are one int
        self._p_polys = {1: _ONE}  # packed P -> its LaurentPoly, decoded once
        self._k = _K
        self._mask = (1 << _K) - 1
        self._half = 1 << (_K - 1)
        self._limits = [0]  # _limits[d]: the largest packed value of d digits in (-B/2, B/2)
        self._coef_max = 1  # the largest |coefficient| of a held P
        self._l1_max = 1  # the largest sum of |coefficients| of a held P
        self._q_cache = {}
        self._col_done = set()

    # -- basis elements -----------------------------------------------

    def zero(self):
        return HeckeElement(self, {})

    def T(self, x):
        self._own(x)
        return HeckeElement._of(self, {x: _ONE})

    def T_tilde(self, x):
        """q_x^{-1/2} T_x."""
        self._own(x)
        return HeckeElement._of(self, {x: LaurentPoly.v_power(-x.length())})

    def from_encoding(self, data):
        g = self.group
        return HeckeElement(
            self,
            {g.decode(k): LaurentPoly.decode(v) for k, v in data.items()},
        )

    # -- products -------------------------------------------------------

    def _gen_step(self, h, i):
        """h * T_{s_i}.

        Per term c T_x, with y = x s_i: c T_y when y > x, otherwise the
        quadratic relation d T_y + (d - c) T_x with d = q c, a shift of c.
        """
        nbr = self.group._right[i]
        out = {}
        for x, c in h.terms.items():
            y = nbr[x]
            if y.length() > x.length():
                _add_into(out, y, c)
            else:
                d = c.shift(2)
                _add_into(out, y, d)
                _add_into(out, x, d - c)
        return HeckeElement._of(self, out)

    def mul_gen_T(self, h, i):
        """h * T_{s_i}."""
        self._mine(h)
        return self._gen_step(h, i)

    def mul_gen_T_inv(self, h, i):
        """h * T_{s_i}^{-1}, by the Bernstein kernel."""
        return self.mul_T_inv(h, self.group.simple_reflection(i))

    def gen_mul_T(self, i, h):
        """T_{s_i} * h, as the product of T_{s_i} with h."""
        return self.mul(self.T(self.group.simple_reflection(i)), h)

    def mul_omega(self, h, omega):
        """h * T_omega for a length-zero omega (group translation of support)."""
        self._mine(h)
        self._own(omega)
        g = self.group
        return HeckeElement._of(self, {g.mul(x, omega): c for x, c in h.terms.items()})

    def mul_T(self, h, y):
        """h * T_y along the canonical reduced word of y."""
        self._own(y)
        omega, word = self.group.reduced_word(y)
        out = self.mul_omega(h, omega)
        for i in word:
            out = self._gen_step(out, i)
        return out

    def mul_T_inv(self, h, y):
        """h * T_y^{-1}: one call of the Bernstein kernel, with a part
        (x, y, k, e) for each monomial k v^e of each coefficient c_x of h."""
        self._mine(h)
        self._own(y)
        return self.bernstein_sum(
            (x, y, k, e) for x, c in h.terms.items() for e, k in c.terms.items()
        )

    def mul(self, a, b):
        """Full product; cost is |supp(b)| reduced-word walks over a."""
        self._mine(a, b)
        out = {}
        for y, c in b.terms.items():
            part = self.mul_T(a, y)
            for x, d in part.terms.items():
                _add_into(out, x, d * c)
        return HeckeElement._of(self, out)

    def sum(self, parts):
        """The sum of an iterable of elements, added into one term dict."""
        out = {}
        for h in parts:
            self._mine(h)
            for x, c in h.terms.items():
                _add_into(out, x, c)
        return HeckeElement._of(self, out)

    def inv_T(self, w):
        """T_w^{-1}, by the Bernstein kernel."""
        return self.mul_T_inv(self.T(self.group.identity), w)

    def bar(self, h):
        """The Kazhdan-Lusztig involution: bar coefficients, T_y -> T^{-1}_{y^{-1}};
        one call of the Bernstein kernel, a part per monomial of h, and one
        inverse per term."""
        self._mine(h)
        g = self.group
        e = g.identity
        terms = ((g.inv(y), c) for y, c in h.terms.items())
        return self.bernstein_sum(
            (e, yinv, k, -d) for yinv, c in terms for d, k in c.terms.items()
        )

    def bernstein_sum(self, parts):
        """sum k v^e T_{t1} T_{t2}^{-1} over the parts (t1, t2, k, e), in
        packed integers; the kernel of every product with an inverse.

        Every coefficient of T_{t1} T_{t2}^{-1} is an integer polynomial in
        u = q^{-1}, held as its value at u = B = 2^K: a step by T_s^{-1}
        sends c T_x to c T_{xs} when xs < x, else to (c << K) T_{xs} +
        ((c << K) - c) T_x.  Parts with one t2 share its walk, which
        multiplies by omega^{-1} once and steps by omega s omega^{-1}, by
        T_s^{-1} T_{omega^{-1}} = T_{omega^{-1}} T_{omega s omega^{-1}}^{-1},
        reading x s from the group's table of s.  The parts whose e has one
        parity add into one packed dict, at the digit offset (E - e)/2 from
        the largest such e, E, and each distinct packed value is decoded
        once, digit i giving v^{E - 2i}, so equal coefficients are one
        LaurentPoly.  A step at most triples the sum of |coefficients| of an
        element, so every digit of the sum is under sum |k| 3^{l(t2)} in
        size; K is chosen before any arithmetic to keep that under B/2, and
        every decoded digit is exact.
        """
        g = self.group
        walks = {}  # (t2, parity of e) -> [(t1, k, e)]
        tops = {}  # parity -> the largest e of that parity
        mass = 0
        for t1, t2, k, e in parts:
            self._own(t1, t2)
            if not k:
                continue
            walks.setdefault((t2, e & 1), []).append((t1, k, e))
            tops[e & 1] = max(e, tops.get(e & 1, e))
            mass += abs(k) * 3 ** t2.length()
        k_bits = mass.bit_length() + 1
        sums = {parity: {} for parity in tops}
        for (t2, parity), starts in walks.items():
            omega, word = g.reduced_word(t2)
            oinv = g.inv(omega)
            top = tops[parity]
            cur = {}
            for t1, k, e in starts:
                x = g.mul(t1, oinv)
                cur[x] = cur.get(x, 0) + (k << (k_bits * ((top - e) >> 1)))
            for i in reversed(word):
                nbr = g._right[g.conj_gen(omega, i)]
                nxt = {}
                get = nxt.get
                for x, c in cur.items():
                    y = nbr[x]
                    if y.length() < x.length():
                        nxt[y] = get(y, 0) + c
                    else:
                        d = c << k_bits
                        nxt[y] = get(y, 0) + d
                        nxt[x] = get(x, 0) + d - c
                cur = nxt
            acc = sums[parity]
            for x, c in cur.items():
                acc[x] = acc.get(x, 0) + c
        out = {}
        for parity, acc in sums.items():
            top = tops[parity]
            polys = {}  # packed value -> its LaurentPoly, decoded once
            for x, p in acc.items():
                if p:
                    c = polys.get(p)
                    if c is None:
                        c = polys[p] = _decode(p, k_bits, top, -2)
                    old = out.get(x)
                    out[x] = c if old is None else old + c
        return HeckeElement._of(self, out)

    # -- operand checks ----------------------------------------------------

    def _own(self, *elements):
        """DatumMismatch unless every element is of this context's group."""
        g = self.group
        for x in elements:
            if x.group is not g:
                raise DatumMismatch(f"{x.encode()} is not an element of {self.datum.label}")

    def _mine(self, *hs):
        """DatumMismatch unless every Hecke element is of this context; its
        terms then are, as every public constructor checks them."""
        for h in hs:
            if h.hctx is not self:
                raise DatumMismatch(f"a Hecke element of {h.datum.label} used in {self.datum.label}")

    # -- R-polynomials -----------------------------------------------------

    def r_poly(self, x, y):
        """R_{x,y}(q); zero unless x <= y, R_{y,y} = 1, monic of degree l(y)-l(x).

        The descent recursion holds for every x and ends in 0 exactly when
        x is not <= y (Humphreys 7.5), so no Bruhat test is needed: with s
        the first right descent of y, R_{x,y} = R_{xs,ys} if xs < x, else
        (q - 1) R_{x,ys} + q R_{xs,ys}.  The pairs it needs are solved
        first, on an explicit stack, and kept in _r_cache."""
        self._own(x, y)
        got = self._r_known(x, y)
        if got is not None:
            return got
        g = self.group
        cache = self._r_cache
        stack = [(x, y)]
        while stack:
            a, b = stack[-1]
            if (a, b) in cache:  # pushed again before it was solved
                stack.pop()
                continue
            i = g.first_right_descent(b)
            bs = g.mul_gen(b, i)
            as_ = g.mul_gen(a, i)
            deps = [(as_, bs)] if as_.length() < a.length() else [(a, bs), (as_, bs)]
            vals = [self._r_known(*pair) for pair in deps]
            todo = [pair for pair, r in zip(deps, vals) if r is None]
            if todo:
                stack.extend(todo)
                continue
            stack.pop()
            r = vals[0]
            cache[a, b] = r if len(vals) == 1 else r.shift(2) - r + vals[1].shift(2)
        return cache[x, y]

    def _r_known(self, x, y):
        """R_{x,y} when it is 1, 0 or held in _r_cache, else None."""
        if x is y:
            return _ONE
        g = self.group
        if x.length() >= y.length() or g.omega_class(x) != g.omega_class(y):
            return _ZERO
        return self._r_cache.get((x, y))

    # -- Kazhdan-Lusztig polynomials ------------------------------------------

    def kl_poly(self, x, w):
        """P_{x,w}(q); zero unless x <= w, P_{w,w} = 1.  Read off the column
        of w, whose keys are [e, w): no Bruhat test and no interval."""
        self._own(x, w)
        if x is w:
            return _ONE
        p = self._kl_column(w).get(x)
        return _ZERO if p is None else self._p_polys[p]

    def _kl_column(self, y):
        """The packed column {x: P_{x,y}(B)} for every x < y, held in
        _p_cols; a column not held is solved by the Kazhdan-Lusztig
        recursion.

        With s the first right descent of y, v = ys and c = 1 if xs < x,
        else 0 (Kazhdan-Lusztig 1979, (2.2.c); du Cloux 2002):

            P_{x,y} = q^{1-c} P_{xs,v} + q^c P_{x,v}
                      - sum_{z < v, zs < z} mu(z,v) q^{(l(y)-l(z))/2} P_{x,z},

        where mu(z,v) is the coefficient of q^{(l(v)-l(z)-1)/2} in P_{z,v}.
        The columns of v and of each such z with mu(z,v) != 0 are solved
        first, on an explicit stack.  A held column has every P_{x,v}, x < v,
        so a missing key is 0, and its keys are [e, v): the column of y is
        built over them, with no Bruhat test, no interval and no
        R-polynomial.  A length-0 y has the empty column, which is stored
        but not counted in _col_done, the columns the recursion solved in
        this process.  Since ys < y, P_{x,y} = P_{xs,y}, so the recursion
        runs only on the top x of each extremal pair {x, xs} (du Cloux
        2002) and its bottom gets the same object (see _solve_column).
        Every computed entry must pass _kl_shape, or InvariantViolation is
        raised.
        """
        cols = self._p_cols
        g = self.group
        mus = {}
        stack = [y]
        while stack:
            w = stack[-1]
            if w in cols:
                stack.pop()
                continue
            s = g.first_right_descent(w)
            if s is None:  # length 0: no x < w
                cols[w] = {}
                continue
            v = g._right[s][w]
            if v not in cols:
                stack.append(v)
                continue
            mu = mus.get(w)
            if mu is None:
                mu = mus[w] = self._mu_terms(w, s, v)
            todo = [z for z, _sh, _c in mu if z not in cols]
            if todo:
                stack.extend(todo)
                continue
            cols[w] = self._solve_column(w, s, v, mu)
            self._col_done.add(w)
        return cols[y]

    def _mu_terms(self, y, s, v):
        """[(z, k (l(y) - l(z))/2, mu(z,v))], the term mu(z,v) q^{(l(y)-l(z))/2}
        as the bit shift of a packed value and a coefficient, over z < v with
        zs < z and mu(z,v) != 0, which needs l(v) - l(z) odd; read off the
        column of v.  mu(z,v) is the top digit d = (l(v)-l(z)-1)/2 of the
        packed P_{z,v}: its lower digits sum to less than B^d/2 in size, so
        the digit is P_{z,v}(B) / B^d rounded to the nearest integer."""
        k = self._k
        nbr = self.group._right[s]
        ly, lv = y.length(), v.length()
        out = []
        for z, p in self._p_cols[v].items():
            lz = z.length()
            gap = lv - lz
            if not gap & 1:
                continue
            t = k * (gap >> 1)
            if p == 1 and t:
                continue  # mu = 0, with no shift of a large integer
            c = (p + (1 << (t - 1))) >> t if t else p
            if not c:
                continue
            if nbr[z].length() < lz:
                out.append((z, k * ((ly - lz) >> 1), c))
        return out

    def _solve_column(self, y, s, v, mu):
        """{x: P_{x,y}(B)} for every x < y, from the columns of v = ys and
        of the z in mu; returned whole, so a failed check stores nothing.

        [e, y] = [e, v] u [e, v]s (subword property), so it splits into
        pairs {x, xs}, each with its bottom in [e, v]: the pair {v, y}, and
        one pair {u, us} for each key u of the column of v, a pair met twice
        being skipped; us is read from the group's table of s.
        P_{x,y} = P_{xs,y} because ys < y.  The recursion runs on the top x
        (xs < x) only, where it reads P_{x,y} = P_{xs,v} + q P_{x,v} -
        sum_z ..., in integers: a q-shift is a shift by k bits.  The bottom
        xs gets the same object; the top y gives P_{v,y} = 1.  Every true
        coefficient of the new column is at most (2 + sum |mu|) times the
        largest held one, and that must stay under B/2, so that decoding
        it is exact, or InvariantViolation is raised before any arithmetic.
        A computed P other than 1 is checked by _kl_shape on each top (the
        bottom's gap is one larger, so its degree bound follows) and
        interned.  The column of v is whole, so this one is.
        """
        if (2 + sum(abs(c) for _z, _sh, c in mu)) * self._coef_max >= self._half:
            raise InvariantViolation(
                f"the KL column of {y.encode()} may not fit {self._k}-bit packed digits"
            )
        k = self._k
        nbr = self.group._right[s]
        cols = self._p_cols
        values = self._p_values
        pv = cols[v]
        ly = y.length()
        terms = [(z, cols[z], sh, c) for z, sh, c in mu]
        col = {v: 1}
        for u in pv:
            us = nbr[u]
            x, xs = (u, us) if us.length() < u.length() else (us, u)
            if x in col:
                continue  # the pair was met at its other element
            p = pv.get(xs, 0) + (pv.get(x, 0) << k)
            for z, pz, sh, c in terms:
                if x is z:
                    p -= c << sh
                else:
                    p_xz = pz.get(x)
                    if p_xz is not None:
                        p -= p_xz * c << sh
            if p != 1:
                if not self._kl_shape(p, ly - x.length()):
                    raise InvariantViolation(
                        f"KL recursion gave P = {self._unpack(p).encode()} "
                        f"at x={x.encode()} y={y.encode()}"
                    )
                p = values.get(p) or self._intern(p)
            col[x] = col[xs] = p
        return col

    # -- packed polynomials ----------------------------------------------------

    def _kl_shape(self, p, gap):
        """The packed P(B) is a polynomial in q with constant term 1 and
        2 deg_q P <= gap - 1, for gap >= 1, when every coefficient of P lies
        in (-B/2, B/2): its constant digit is 1 and (P - 1)/q has at most
        d = (gap - 1) // 2 digits, which bounds |P(B) >> k| by the largest
        d-digit value (B/2 - 1)(B^d - 1)/(B - 1)."""
        if p & self._mask != 1:
            return False
        d = (gap - 1) >> 1
        lims = self._limits
        while len(lims) <= d:
            lims.append(lims[-1] * (self._mask + 1) + self._half - 1)
        return abs(p >> self._k) <= lims[d]

    def _pack(self, poly):
        """P(B) for a polynomial P in q whose coefficients lie in (-B/2, B/2);
        ValueError for any other Laurent polynomial."""
        k, half = self._k, self._half
        p = 0
        for e, c in poly.terms.items():
            if e < 0 or e & 1 or not -half < c < half:
                raise ValueError(f"{poly.encode()} does not pack into {k}-bit q-digits")
            p += c << (k * (e >> 1))
        return p

    def _unpack(self, p, e0=0):
        """The Laurent polynomial sum_i d_i v^{e0 + 2i} of the digits d_i of
        p = sum_i d_i B^i, each digit taken in [-B/2, B/2)."""
        return _decode(p, self._k, e0, 2)

    def _intern(self, p):
        """The held packed value equal to p, adding p with its polynomial,
        decoded once, when no held value equals it; keeps the largest
        |coefficient| and coefficient sum of the held values."""
        got = self._p_values.get(p)
        if got is not None:
            return got
        poly = self._unpack(p)
        coefs = [abs(c) for c in poly.terms.values()]
        self._coef_max = max(self._coef_max, *coefs)
        self._l1_max = max(self._l1_max, sum(coefs))
        self._p_values[p] = p
        self._p_polys[p] = poly
        return p

    # -- inverse KL polynomials --------------------------------------------

    def inv_kl_poly(self, x, w):
        """Q_{x,w}(q): inverse base-change matrix entries.

        sum_{x<=z<=w} (-1)^{l(z)-l(x)} P_{x,z} Q_{z,w} = delta_{x,w} says
        T_w = sum_z eps_w Q_{z,w} C''_z, so the column {Q_{z,w}}_z is read
        off to_ic_basis(T_w) and cached per w; an x that is not a key there
        is not <= w, and gets 0.
        """
        self._own(x, w)
        if x is w:
            return _ONE
        col = self._q_cache.get(w)
        if col is None:
            ic = self.to_ic_basis(self.T(w))
            col = self._q_cache[w] = {z: c.scale(w.sign()) for z, c in ic.items()}
        return col.get(x, _ZERO)

    # -- base change -----------------------------------------------------------

    def ic_basis_element(self, w):
        """C''_w = eps_w sum_{x <= w} P_{x,w} T_x, read from the column of w."""
        self._own(w)
        polys = self._p_polys
        terms = {x: polys[p] for x, p in self._kl_column(w).items()}
        terms[w] = _ONE
        c = HeckeElement._of(self, terms)
        return c if w.sign() == 1 else -c

    def to_ic_basis(self, h):
        """Coefficients {w: c_w != 0} with h = sum c_w C''_w.

        The solve is linear in h and every P has even v-exponents, so the
        terms of h with even and with odd v-exponents are solved apart
        (see _solve_down) and the two results added; each sign is applied
        once, at the end.
        """
        self._mine(h)
        out = {}
        for parity in (0, 1):
            part = {}
            for w, c in h.terms.items():
                t = {e: k for e, k in c.terms.items() if e & 1 == parity}
                if t:
                    part[w] = t
            if part:
                for w, r in self._solve_down(part).items():
                    old = out.get(w)
                    out[w] = r if old is None else old + r
        return {w: (c if w.sign() == 1 else -c) for w, c in out.items()}

    def _solve_down(self, part):
        """{w: eps_w c_w != 0} for sum_w c_w C''_w = sum_w part[w] T_w, where
        part[w] is a coefficient dict {v-exponent: k} and every exponent
        has the parity of the smallest, e0.

        The downward solve over the lower closure U of supp part, by
        decreasing sort_key: eps_w c_w = h_w - sum_{x > w in U} eps_x c_x
        P_{w,x}, pushed down: once eps_x c_x is final it is subtracted,
        times P_{w,x}, from the accumulator of each w < x in the column of
        x.  U is the support with the keys of its columns, so the solve
        makes no Bruhat test and builds no interval.  The column of every x
        in U is read, whether or not c_x = 0, so the columns solved depend
        on U alone.  It runs in packed integers: sum_e k v^e becomes
        sum_e k B^{(e - e0)/2}, a product with a packed P is an integer
        product, and a P that is 1 costs a subtraction.  Each row is
        decoded once, when it is final.  Its true coefficients are at most
        the largest |k| of part plus the largest coefficient sum of a held
        P times the sum of the largest |coefficient| of the rows decoded
        before it; InvariantViolation is raised before a row whose bound
        reaches B/2, and before it tests a row for 0, so every decoded row
        is exact and no skipped row is one whose digits overflowed to 0.
        """
        k, half = self._k, self._half
        e0 = min(min(t) for t in part.values())
        top = max(abs(c) for t in part.values() for c in t.values())
        if top >= half:
            raise InvariantViolation(f"a coefficient of {top} does not fit {k}-bit packed digits")
        acc = {w: sum(c << (k * ((e - e0) >> 1)) for e, c in t.items()) for w, t in part.items()}
        order = sorted(set(acc).union(*map(self._kl_column, acc)), key=self.group.sort_key)
        rows = {}
        total = 0  # the sum of the largest |coefficient| of each decoded row
        for x in reversed(order):
            col = self._kl_column(x)
            ex = acc.pop(x, None)
            if ex is None:
                continue
            if top + self._l1_max * total >= half:
                raise InvariantViolation(
                    f"the C''-coefficient of {x.encode()} may not fit {k}-bit packed digits"
                )
            if not ex:
                continue
            row = rows[x] = self._unpack(ex, e0)
            total += max(map(abs, row.terms.values()))
            neg = -ex
            for w, p in col.items():
                acc[w] = acc.get(w, 0) + (neg if p == 1 else neg * p)
        return rows

    def from_ic_basis(self, coeffs):
        """sum_w c_w C''_w as a T-basis element."""
        return self.sum(self.ic_basis_element(w).scale(c) for w, c in coeffs.items())


_CONVENTION_TAG = "base-alcove=dominant"


def _canonical(decode, text):
    """decode(text); ValueError unless the value encodes back to text, so a
    repeated exponent or a non-reduced word is never read as a value."""
    value = decode(text)
    if value.encode() != text:
        raise ValueError(f"non-canonical cache text {text!r}")
    return value


class KLCache:
    """Versioned line cache of P-polynomials.

    Header "klcache v1 <label> <convention>"; one record per line:
    "<x> <w> <poly>" in the canonical text encodings.  Unknown versions,
    wrong labels, a byte that is not ASCII, garbled lines, text that does
    not re-encode to itself,
    a record with l(x) >= l(w) or a P that fails the packed _kl_shape, a
    repeated pair or a column whose keys are not [e, w) make the whole
    file ignored and rebuilt, never trusted, so P values read from a file
    are only ever whole columns.  A load decodes, re-encodes and packs
    each distinct element and polynomial text once; a save encodes each
    distinct element and packed value once and writes the records row by
    row.  The command line's `table` is the only caller: it loads before
    the table and saves after it, unless the load returned every pair the
    context then holds.
    """

    def __init__(self, directory):
        self.directory = directory

    def path(self, datum):
        return os.path.join(self.directory, f"klcache_{datum.label}.txt")

    def load_into(self, hctx):
        """Stage every record in its column, then add the columns to
        hctx._p_cols; returns the number of records, or 0 if the file is
        missing or rejected.  A column is trusted only whole: a repeated
        pair, or a column that fails _whole, rejects the file.

        Each distinct element string and polynomial text is decoded and
        packed once per load, and must encode back to itself, so no text
        is read as another value.  Equal P values share one packed int,
        the one in hctx._p_values when that holds the value already; each
        new one is interned, and decoded, once the file is accepted.
        """
        try:
            with open(self.path(hctx.datum), "r", encoding="ascii") as fh:
                header = fh.readline().split()
                if header != ["klcache", "v1", hctx.datum.label, _CONVENTION_TAG]:
                    return 0
                decode = hctx.group.decode
                values = hctx._p_values
                elements = {}
                polys = {}  # text -> the packed value
                staged = {}
                for line in fh:
                    parts = line.split()
                    if len(parts) != 3:
                        return 0  # corrupt: discard wholesale
                    xe, we, pe = parts
                    try:
                        x = elements.get(xe)
                        if x is None:
                            x = elements[xe] = _canonical(decode, xe)
                        w = elements.get(we)
                        if w is None:
                            w = elements[we] = _canonical(decode, we)
                        p = polys.get(pe)
                        if p is None:
                            p = hctx._pack(_canonical(LaurentPoly.decode, pe))
                            p = polys[pe] = values.get(p, p)
                    except (ValueError, DatumMismatch):
                        return 0
                    gap = w.length() - x.length()
                    if gap <= 0 or not hctx._kl_shape(p, gap):
                        return 0
                    col = staged.get(w)
                    if col is None:
                        col = staged[w] = {}
                    elif x in col:
                        return 0  # a repeated pair
                    col[x] = p
        except (OSError, UnicodeDecodeError):  # missing, unreadable or not ASCII
            return 0
        if not self._whole(hctx, staged):
            return 0
        for p in polys.values():
            hctx._intern(p)
        hctx._p_cols.update(staged)
        return sum(map(len, staged.values()))

    @staticmethod
    def _whole(hctx, staged):
        """Every staged column of w has the keys [e, w) = {v} u K u Ks, where
        s is the first right descent of w, v = ws and K the keys of the
        staged column of v, empty when l(v) = 0 (subword property).  By
        induction on length every key set is then [e, w), with no interval
        and no Bruhat test; a column of v that is missing fails."""
        g = hctx.group
        for w, col in staged.items():
            s = g.first_right_descent(w)
            if s is None:
                return False
            nbr = g._right[s]
            v = nbr[w]
            keys = staged.get(v, {} if v.length() == 0 else None)
            if keys is None:
                return False
            want = {v}
            want.update(keys)
            want.update(map(nbr.__getitem__, keys))
            if col.keys() != want:
                return False
        return True

    def save_from(self, hctx):
        """Write every P of hctx._p_cols, records sorted by their text.

        Each distinct element and each distinct packed value is encoded once
        per save, and the elements are sorted by text once.  Walking w in
        that order inverts the columns into rows {x: [w, ...]} that come out
        sorted, and the file is written row by row in the same order.  No
        element text is a prefix of another, so this is the order of the
        sorted record lines.
        """
        cols = hctx._p_cols
        if not any(cols.values()):
            return
        os.makedirs(self.directory, exist_ok=True)
        polys = hctx._p_polys
        text = {}
        ptext = {}
        for w, col in cols.items():
            if col and w not in text:
                text[w] = w.encode()
            for x, p in col.items():
                if x not in text:
                    text[x] = x.encode()
                if p not in ptext:
                    ptext[p] = polys[p].encode()
        order = sorted(text, key=text.__getitem__)
        rows = {x: [] for x in order}
        for w in order:
            for x in cols.get(w, ()):
                rows[x].append(w)
        import tempfile

        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            fh.write(f"klcache v1 {hctx.datum.label} {_CONVENTION_TAG}\n")
            for x, row in rows.items():
                tx = text[x]
                fh.write("".join([f"{tx} {text[w]} {ptext[cols[w][x]]}\n" for w in row]))
        os.replace(tmp, self.path(hctx.datum))


_CONTEXTS = {}


def context(datum):
    """The shared HeckeContext attached to a datum."""
    c = _CONTEXTS.get(id(datum))
    if c is None:
        c = HeckeContext(datum)
        _CONTEXTS[id(datum)] = c
    return c
