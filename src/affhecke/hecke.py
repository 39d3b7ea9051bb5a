"""The Iwahori-Hecke algebra of an extended affine Weyl group.

H = (+)_{w} Z[v, v^{-1}] T_w with the quadratic relation
(T_s - q)(T_s + 1) = 0 and braid relations, q = v^2.  Products are
computed by walking reduced words one generator at a time:

    T_x T_s     = T_{xs}                if xs > x
                  q T_{xs} + (q-1) T_x  if xs < x
    T_x T_s^{-1} = T_{xs}                     if xs < x
                   q^{-1} T_{xs} + (q^{-1}-1) T_x  if xs > x

A quadratic step is a shift of v-exponents: with d = c v^{+-2}, the
coefficient c of T_x gives d to T_{xs} and d - c to T_x, with no
polynomial product.  Length-zero elements multiply by the group law.
For y = omega s_1 ... s_k, h T_y^{-1} multiplies h by omega^{-1} first
and then walks the word with each s_i conjugated by omega, by
T_s^{-1} T_{omega^{-1}} = T_{omega^{-1}} T_{omega s omega^{-1}}^{-1}: the
group law runs once per term of h, not once per term of the product.
Sums add into one term dict.  On top of the ring operations this module
computes

* R-polynomials         R_{x,y}:  T^{-1}_{y^{-1}} = eps_x eps_y q_y^{-1}
                        sum_x R_{x,y}(q) T_x, by the standard recursion;
* Kazhdan-Lusztig       P_{x,w}: the coefficients of the self-dual basis
  polynomials           C''_w = eps_w sum_x P_{x,w} T_x.  A whole column
                        {P_{x,w}}_x is solved at once by the recursion
                        of Kazhdan-Lusztig (1979, (2.2.c)) along the first
                        right descent s of w, from the columns of ws and
                        of the z < ws with mu(z, ws) != 0 and zs < z; it
                        needs no R-polynomial and no Bruhat test.  The
                        recursion runs only on the top x of each pair
                        {x, xs} (du Cloux's extremal pairs): P_{xs,w} is
                        the same object, and equal P values are one
                        object, 1 being the shared _ONE;
* base change           T <-> C''; to_ic_basis is the one downward solve
                        of the unitriangular P-matrix, and both the
                        multiplicity tables and the inverse KL
                        polynomials read it.  It pushes each solved
                        coefficient down the KL column of its element,
                        with no Bruhat test, and a P that is _ONE costs
                        a subtraction, no product;
* inverse KL            Q_{x,w}: entries of the inverse base-change
  polynomials           matrix, sum_{x<=z<=w} (-1)^{l(z)} P_{x,z} Q_{z,w} = (-1)^{l(w)} delta,
                        so eps_w T_w = sum_z Q_{z,w} C''_z and a column
                        {Q_{z,w}}_z is to_ic_basis(eps_w T_w).

P-polynomials are held in memory by column, _p_cols[w] = {x: P_{x,w}
for every x < w}, a column whole or not at all, and optionally persisted
to a versioned line-oriented cache file (see KLCache).
"""

import os

from .affweyl import DatumMismatch, InvariantViolation, group
from .laurent import LaurentPoly

_ZERO = LaurentPoly.zero()
_ONE = LaurentPoly.one()


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


class HeckeElement:
    """A finitely supported map W~ -> Z[v, v^{-1}] in the T basis."""

    __slots__ = ("hctx", "terms")

    def __init__(self, hctx, terms):
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
        self._p_cols = {}  # w -> {x: P_{x,w} for every x < w}, whole columns only
        self._p_values = {_ONE: _ONE}  # each P value once: equal P are one object
        self._q_cache = {}
        self._col_done = set()
        self._cache_synced = None  # (path, n): the file at path holds these n P values

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

        Per term c T_x, with y = s_i x (left) or x s_i (right): c T_y when
        the step changes the length by e, otherwise the quadratic relation
        d T_y + (d - c) T_x with d = q^e c, a shift of c.
        """
        g = self.group
        step = -1 if inverse else 1
        out = {}
        for x, c in h.terms.items():
            y = g.gen_mul(i, x) if left else g.mul_gen(x, i)
            if y.length() - x.length() == step:
                _add_into(out, y, c)
            else:
                d = c.shift(2 * step)
                _add_into(out, y, d)
                _add_into(out, x, d - c)
        return HeckeElement._of(self, out)

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
        return HeckeElement._of(self, {g.mul(x, omega): c for x, c in h.terms.items()})

    def mul_T(self, h, y):
        """h * T_y along the canonical reduced word of y."""
        omega, word = self.group.reduced_word(y)
        out = self.mul_omega(h, omega)
        for i in word:
            out = self._gen_step(out, i, left=False, inverse=False)
        return out

    def mul_T_inv(self, h, y):
        """h * T_y^{-1} along the canonical reduced word of y.

        For y = omega s_1 ... s_k, T_y^{-1} = T_{s_k}^{-1} ... T_{s_1}^{-1}
        T_{omega^{-1}}, and T_s^{-1} T_{omega^{-1}} = T_{omega^{-1}}
        T_{omega s omega^{-1}}^{-1}: h is multiplied by omega^{-1} first,
        then stepped along the word with each s_i conjugated by omega.
        """
        g = self.group
        omega, word = g.reduced_word(y)
        out = self.mul_omega(h, g.inv(omega))
        for i in reversed(word):
            out = self._gen_step(out, g.conj_gen(omega, i), left=False, inverse=True)
        return out

    def mul(self, a, b):
        """Full product; cost is |supp(b)| reduced-word walks over a."""
        out = {}
        for y, c in sorted(b.terms.items(), key=lambda kv: self.group.sort_key(kv[0])):
            part = self.mul_T(a, y)
            for x, d in part.terms.items():
                _add_into(out, x, d * c)
        return HeckeElement._of(self, out)

    def sum(self, parts):
        """The sum of an iterable of elements, added into one term dict."""
        out = {}
        for h in parts:
            for x, c in h.terms.items():
                _add_into(out, x, c)
        return HeckeElement._of(self, out)

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
        g = self.group
        return self.sum(
            self.inv_T(g.inv(y)).scale(c.bar())
            for y, c in sorted(h.terms.items(), key=lambda kv: g.sort_key(kv[0]))
        )

    # -- R-polynomials -----------------------------------------------------

    def r_poly(self, x, y):
        """R_{x,y}(q); zero unless x <= y, R_{y,y} = 1, monic of degree l(y)-l(x).

        The descent recursion holds for every x and ends in 0 exactly when
        x is not <= y (Humphreys 7.5), so no Bruhat test is needed."""
        if x is y:
            return _ONE
        g = self.group
        if x.length() >= y.length() or g.omega_class(x) != g.omega_class(y):
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
        else:  # (q - 1) R_{x,ys} + q R_{xs,ys}
            r = self.r_poly(x, ys)
            val = r.shift(2) - r + self.r_poly(xs, ys).shift(2)
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
        return self._kl_column(w)[x]

    def _kl_column(self, y):
        """The column {x: P_{x,y}} for every x < y, held in _p_cols; a column
        not held is solved by the Kazhdan-Lusztig recursion.

        With s the first right descent of y, v = ys and c = 1 if xs < x,
        else 0 (Kazhdan-Lusztig 1979, (2.2.c); du Cloux 2002):

            P_{x,y} = q^{1-c} P_{xs,v} + q^c P_{x,v}
                      - sum_{z < v, zs < z} mu(z,v) q^{(l(y)-l(z))/2} P_{x,z},

        where mu(z,v) is the coefficient of q^{(l(v)-l(z)-1)/2} in P_{z,v}.
        The columns of v and of each such z with mu(z,v) != 0 are solved
        first, on an explicit stack.  A held column has every P_{x,v}, x < v,
        so a missing key is 0 and the solve makes no Bruhat test and no
        R-polynomial.  A length-0 y has the empty column, which is stored
        but not counted in _col_done, the columns the recursion solved in
        this process.  Since ys < y, P_{x,y} = P_{xs,y}, so the recursion
        runs only on the top x of each extremal pair {x, xs} (du Cloux
        2002) and its bottom gets the same object (see _solve_column).
        Every computed entry must be a q-polynomial with constant term 1
        and 2 deg_q <= l(y) - l(x) - 1, or InvariantViolation is raised.
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
            v = g.mul_gen(w, s)
            if v not in cols:
                stack.append(v)
                continue
            mu = mus.get(w)
            if mu is None:
                mu = mus[w] = self._mu_terms(w, s, v)
            todo = [z for z, _e, _c in mu if z not in cols]
            if todo:
                stack.extend(todo)
                continue
            cols[w] = self._solve_column(w, s, v, mu)
            self._col_done.add(w)
        return cols[y]

    def _mu_terms(self, y, s, v):
        """[(z, l(y) - l(z), mu(z,v))], the term mu(z,v) q^{(l(y)-l(z))/2} as
        a v-exponent and a coefficient, over z < v with zs < z and
        mu(z,v) != 0, which needs l(v) - l(z) odd; read off the column of v."""
        g = self.group
        ly, lv = y.length(), v.length()
        out = []
        for z, p in self._p_cols[v].items():
            gap = lv - z.length()
            if gap % 2 and g.mul_gen(z, s).length() < z.length():
                c = p.terms.get(gap - 1, 0)
                if c:
                    out.append((z, ly - z.length(), c))
        return out

    def _solve_column(self, y, s, v, mu):
        """{x: P_{x,y}} for every x < y, from the columns of v = ys and of
        the z in mu; returned whole, so a failed check stores nothing.

        [e, y] splits into pairs {x, xs}, and P_{x,y} = P_{xs,y} because
        ys < y.  The recursion runs on the top x (xs < x) only, where it
        reads P_{x,y} = P_{xs,v} + q P_{x,v} - sum_z ..., and the bottom xs
        gets the same object; the top y gives P_{v,y} = 1.  A computed P is
        interned in _p_values, so 1 is stored as _ONE.  _kl_shape is checked
        on each top: the bottom's gap is one larger, so its degree bound
        follows.  An element whose partner is not in [e, y] raises
        InvariantViolation, so a stored column is never incomplete.
        """
        g = self.group
        cols = self._p_cols
        pv = cols[v]
        ly = y.length()
        interval = g._interval(y)
        col = {}
        for x in interval:
            xs = v if x is y else g.mul_gen(x, s)
            if xs not in interval:
                raise InvariantViolation(
                    f"{xs.encode()} = x s{s} is missing from [e, {y.encode()}]"
                    f" at x={x.encode()}"
                )
            if x is y:
                col[v] = _ONE
                continue
            if xs.length() > x.length():
                continue  # a bottom: its top xs stores it
            # a top other than y is neither v nor v s = y
            p = pv.get(xs, _ZERO) + pv.get(x, _ZERO).shift(2)
            for z, e, c in mu:
                p_xz = _ONE if x is z else cols[z].get(x)
                if p_xz is not None:
                    p = p - p_xz.shift(e).scale(c)
            if not _kl_shape(p, ly - x.length()):
                raise InvariantViolation(
                    f"KL recursion gave P = {p.encode()} at x={x.encode()} y={y.encode()}"
                )
            p = self._p_values.setdefault(p, p)
            col[x] = col[xs] = p
        return col

    # -- inverse KL polynomials --------------------------------------------

    def inv_kl_poly(self, x, w):
        """Q_{x,w}(q): inverse base-change matrix entries.

        sum_{x<=z<=w} (-1)^{l(z)-l(x)} P_{x,z} Q_{z,w} = delta_{x,w} says
        T_w = sum_z eps_w Q_{z,w} C''_z, so the column {Q_{z,w}}_z is read
        off to_ic_basis(T_w) and cached per w.
        """
        if x is w:
            return _ONE
        if not self.group.leq(x, w):
            return _ZERO
        col = self._q_cache.get(w)
        if col is None:
            ic = self.to_ic_basis(self.T(w))
            col = self._q_cache[w] = {z: c.scale(w.sign()) for z, c in ic.items()}
        return col.get(x, _ZERO)

    # -- base change -----------------------------------------------------------

    def ic_basis_element(self, w):
        """C''_w = eps_w sum_{x <= w} P_{x,w} T_x, read from the column of w."""
        c = HeckeElement._of(self, {**self._kl_column(w), w: _ONE})
        return c if w.sign() == 1 else -c

    def to_ic_basis(self, h):
        """Coefficients {w: c_w != 0} with h = sum c_w C''_w.

        The downward solve over the lower closure U of supp h, by
        decreasing sort_key: eps_w c_w = h_w - sum_{x > w in U} eps_x c_x
        P_{w,x}, pushed down: once eps_x c_x is final it is subtracted,
        times P_{w,x}, from the accumulator of each w < x in the column of
        x.  U comes from the cached intervals, so the solve makes no Bruhat
        test.  The column of every x in U is read, whether or not c_x = 0,
        so the columns solved depend on U alone.  A P that is _ONE is
        subtracted with no product.
        """
        g = self.group
        order = sorted(set().union(*map(g._interval, h.terms)), key=g.sort_key)
        acc = dict(h.terms)  # w -> eps_w c_w, final once every x > w is pushed
        signed = {}
        for x in reversed(order):
            col = self._kl_column(x)
            ex = acc.pop(x, None)
            if ex is None:
                continue
            signed[x] = ex
            neg = -ex
            for w, p in col.items():
                _add_into(acc, w, neg if p is _ONE else neg * p)
        return {w: (e if w.sign() == 1 else -e) for w, e in signed.items()}

    def from_ic_basis(self, coeffs):
        """sum_w c_w C''_w as a T-basis element."""
        return self.sum(
            self.ic_basis_element(w).scale(coeffs[w])
            for w in sorted(coeffs, key=self.group.sort_key)
        )

    # -- persistent P cache -------------------------------------------------

    def load_cache(self, directory):
        KLCache(directory).load_into(self)

    def save_cache(self, directory):
        """Write every held P to the cache file, unless that file already
        holds all of them.  _p_cols only grows, so it holds the same pairs
        as the file last loaded from or saved to this path iff it holds as
        many pairs; an added empty length-0 column changes nothing."""
        cache = KLCache(directory)
        n = sum(map(len, self._p_cols.values()))
        if self._cache_synced != (cache.path(self.datum), n):
            cache.save_from(self)


_CONVENTION_TAG = "base-alcove=dominant"
#: record lines per write in KLCache.save_from
_SAVE_CHUNK = 4096


def _kl_shape(p, gap):
    """P is a polynomial in q with constant term 1 and 2 deg_q P <= gap - 1."""
    return p.is_q_polynomial() and p.q_coeff(0) == 1 and 2 * p.q_degree() <= gap - 1


def _plausible(x, w, p):
    """Structural checks every stored P_{x,w} passes: l(x) < l(w), x <= w,
    and the shape of _kl_shape for gap = l(w) - l(x)."""
    gap = w.length() - x.length()
    return gap > 0 and x.group.leq(x, w) and _kl_shape(p, gap)


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
    wrong labels, garbled lines, text that does not re-encode to itself,
    records that fail `_plausible`, a repeated pair or a column without
    every x < w make the whole file ignored and rebuilt, never trusted,
    so P values read from a file are only ever whole columns.  A load
    decodes and re-encodes each distinct element and polynomial text
    once, and every record still passes `_plausible`; a save encodes each
    distinct element and polynomial once.
    HeckeContext.save_cache leaves a file alone while it holds every P
    value of the context, so a run that adds no P value does not rewrite
    it.
    """

    def __init__(self, directory):
        self.directory = directory

    def path(self, datum):
        return os.path.join(self.directory, f"klcache_{datum.label}.txt")

    def load_into(self, hctx):
        """Stage every record in its column, then add the columns to
        hctx._p_cols; returns the number of records, or 0 if the file is
        missing or rejected.  A column is trusted only whole: a repeated
        pair, or a w whose column lacks one of the |[e, w]| - 1 entries
        x < w, rejects the file.

        Each distinct element string and polynomial text is decoded once
        per load, and must encode back to itself, so no text is read as
        another value.  Equal P values share one LaurentPoly, the one in
        hctx._p_values when that holds the value already.  After a full
        load hctx remembers that this file holds the loaded records, and
        save_cache leaves it alone while no P value has been added.
        """
        path = self.path(hctx.datum)
        hctx._cache_synced = None
        try:
            with open(path, "r", encoding="ascii") as fh:
                header = fh.readline().split()
                if header != ["klcache", "v1", hctx.datum.label, _CONVENTION_TAG]:
                    return 0
                decode = hctx.group.decode
                values = hctx._p_values
                elements = {}
                polys = {}
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
                            p = _canonical(LaurentPoly.decode, pe)
                            p = polys[pe] = values.get(p, p)
                    except (ValueError, DatumMismatch):
                        return 0
                    if not _plausible(x, w, p):
                        return 0
                    col = staged.get(w)
                    if col is None:
                        col = staged[w] = {}
                    elif x in col:
                        return 0  # a repeated pair
                    col[x] = p
        except OSError:
            return 0
        interval = hctx.group._interval
        if any(len(col) != len(interval(w)) - 1 for w, col in staged.items()):
            return 0  # a column that is not whole
        for p in polys.values():
            values.setdefault(p, p)
        hctx._p_cols.update(staged)
        n = sum(map(len, staged.values()))
        hctx._cache_synced = (path, n)
        return n

    def save_from(self, hctx):
        """Write every P of hctx._p_cols, records sorted by their text.

        One pass: each distinct element and each distinct polynomial is
        encoded once per save, the pairs are sorted by the ranks of their
        element texts (the order of the sorted record lines, since the
        pairs are distinct), and the lines are written in chunks.
        """
        cols = hctx._p_cols
        pairs = [(x, w) for w, col in cols.items() for x in col]
        if not pairs:
            return
        os.makedirs(self.directory, exist_ok=True)
        path = self.path(hctx.datum)
        text = {}
        for x, w in pairs:
            if x not in text:
                text[x] = x.encode()
            if w not in text:
                text[w] = w.encode()
        rank = {el: i for i, el in enumerate(sorted(text, key=text.__getitem__))}
        n = len(rank)
        pairs.sort(key=lambda k: rank[k[0]] * n + rank[k[1]])
        ptext = {}
        for col in cols.values():
            for p in col.values():
                if p not in ptext:
                    ptext[p] = p.encode()
        import tempfile

        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            fh.write(f"klcache v1 {hctx.datum.label} {_CONVENTION_TAG}\n")
            for i in range(0, len(pairs), _SAVE_CHUNK):
                fh.write("".join([
                    f"{text[x]} {text[w]} {ptext[cols[w][x]]}\n"
                    for x, w in pairs[i:i + _SAVE_CHUNK]
                ]))
        os.replace(tmp, path)
        hctx._cache_synced = (path, len(pairs))


_CONTEXTS = {}


def context(datum):
    """The shared HeckeContext attached to a datum."""
    c = _CONTEXTS.get(id(datum))
    if c is None:
        c = HeckeContext(datum)
        _CONTEXTS[id(datum)] = c
    return c
