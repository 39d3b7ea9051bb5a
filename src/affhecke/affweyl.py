"""The extended affine Weyl group W~ = X_*(T) x| W.

Elements are stored in the canonical form t_lambda * wbar with lambda a
coweight and wbar a finite Weyl matrix, so (lambda, wbar) is a unique
key.  The Coxeter structure is taken with respect to the dominant base
alcove {0 < <alpha, x> < 1 for all positive roots alpha}: the simple
affine reflections are the finite simple reflections s_1..s_r together
with s_0 = t_{theta^vee} s_theta for the highest root theta.  Lengths
come from the Iwahori-Matsumoto formula

    l(t_lambda wbar) = sum_{alpha > 0, wbar^{-1} alpha > 0} |<alpha, lambda>|
                     + sum_{alpha > 0, wbar^{-1} alpha < 0} |<alpha, lambda> - 1|,

so l(t_lambda) = <2 rho, lambda_dom> and each simple affine reflection
has length 1.  Elements of length zero form the subgroup Omega that
permutes the walls of the base alcove; reduced words are written
x = omega * s_{i_1} ... s_{i_k}.

The Bruhat order extends the Coxeter order coset-wise over Omega and is
computed by the standard lifting recursion.  The admissible set

    Adm(mu) = {x : x <= t_lambda for some lambda in W mu}

is enumerated as the subword closure of the translations in the orbit.
"""

from __future__ import annotations

from .rootdata import (
    DimensionMismatch,
    dot,
    mat_inv,
    mat_mul,
    mat_vec,
    vec_add,
    vec_mat,
    vec_scale,
)


class DatumMismatch(ValueError):
    """Operands belong to different root data."""


class AffineWeylElement:
    """t_lambda * wbar; hashable, immutable, interned per group."""

    __slots__ = ("group", "trans", "fin", "_len", "_rdesc", "_hash", "_word", "_enc")

    def __init__(self, group, trans, fin):
        self.group = group
        self.trans = trans
        self.fin = fin
        self._len = None
        self._rdesc = None
        self._word = None
        self._enc = None
        self._hash = hash((trans, fin))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, AffineWeylElement):
            return NotImplemented
        return (
            self.group is other.group
            and self.trans == other.trans
            and self.fin == other.fin
        )

    def __mul__(self, other):
        return self.group.mul(self, other)

    def inv(self):
        return self.group.inv(self)

    def length(self):
        if self._len is None:
            self._len = self.group._length(self.trans, self.fin)
        return self._len

    def sign(self):
        """epsilon_x = (-1)^{l(x)}."""
        return -1 if self.length() % 2 else 1

    def act(self, cowt):
        """Affine action lambda + wbar(v) on a coweight or an exact rational point."""
        return vec_add(self.trans, mat_vec(self.fin, cowt))

    def encode(self):
        return self.group.encode(self)

    def __repr__(self):
        return f"<{self.encode()}>"

    def __reduce__(self):
        return (
            _rebuild_element,
            (self.group.datum.family, self.group.datum.rank, self.trans, self.fin),
        )


def _rebuild_element(family, rank, trans, fin):
    from . import rootdata

    return group(rootdata.create(family, rank)).element(trans, fin)


class AffineWeylGroup:
    """Group operations, lengths, words, Bruhat order, Adm enumeration."""

    def __init__(self, datum):
        self.datum = datum
        self._intern = {}
        self._leq = {}
        self._below = {}
        self._adm = {}
        d = datum
        zero = (0,) * d.dim
        # generator 0 is the affine reflection through <theta, x> = 1
        theta = d.highest_root()
        theta_covee = d.highest_coroot()
        s_theta = d.reflection(theta, theta_covee)
        self.gens = [(theta_covee, s_theta)]
        for i, s in enumerate(d.simple_reflections):
            self.gens.append((zero, s))
        self.n_gens = len(self.gens)
        self.identity = self.element(zero, d.identity)
        self._inv_mat = {d.identity: d.identity}

    # -- construction --------------------------------------------------

    def element(self, trans, fin):
        key = (trans, fin)
        el = self._intern.get(key)
        if el is None:
            el = AffineWeylElement(self, trans, fin)
            self._intern[key] = el
        return el

    def translation(self, lam):
        lam = self.datum.check_coweight(lam)
        return self.element(lam, self.datum.identity)

    def finite(self, mat):
        return self.element((0,) * self.datum.dim, mat)

    def simple_reflection(self, i):
        gamma, s = self.gens[i]
        return self.element(gamma, s)

    # -- group law -------------------------------------------------------

    def mul(self, a, b):
        if a.group is not b.group:
            raise DatumMismatch("elements from different groups")
        return self.element(
            vec_add(a.trans, mat_vec(a.fin, b.trans)), mat_mul(a.fin, b.fin)
        )

    def mul_gen(self, a, i):
        """a * s_i without building the generator element."""
        gamma, s = self.gens[i]
        if i == 0:
            tr = vec_add(a.trans, mat_vec(a.fin, gamma))
        else:
            tr = a.trans
        return self.element(tr, mat_mul(a.fin, s))

    def gen_mul(self, i, a):
        """s_i * a."""
        gamma, s = self.gens[i]
        return self.element(
            vec_add(gamma, mat_vec(s, a.trans)), mat_mul(s, a.fin)
        )

    def _fin_inv(self, m):
        inv = self._inv_mat.get(m)
        if inv is None:
            inv = mat_inv(m)
            self._inv_mat[m] = inv
        return inv

    def inv(self, a):
        minv = self._fin_inv(a.fin)
        return self.element(vec_scale(mat_vec(minv, a.trans), -1), minv)

    # -- length and descents -----------------------------------------------

    def _length(self, trans, fin):
        d = self.datum
        total = 0
        pos = d.pos_root_set
        for f in d.pos_roots:
            c = dot(f, trans)
            if vec_mat(f, fin) in pos:
                total += c if c >= 0 else -c
            else:
                c -= 1
                total += c if c >= 0 else -c
        return total

    def right_descents(self, x):
        if x._rdesc is None:
            lx = x.length()
            x._rdesc = tuple(
                i for i in range(self.n_gens)
                if self.mul_gen(x, i).length() < lx
            )
        return x._rdesc

    def first_right_descent(self, x):
        ds = self.right_descents(x)
        return ds[0] if ds else None

    def reduced_word(self, x):
        """Canonical factorisation x = omega * s_{i_1} ... s_{i_k}.

        Returns (omega, word) with omega of length zero and k = l(x).
        Deterministic: strips the smallest right descent at each step.
        """
        if x._word is None:
            word = []
            y = x
            while True:
                i = self.first_right_descent(y)
                if i is None:
                    break
                word.append(i)
                y = self.mul_gen(y, i)
            word.reverse()
            x._word = (y, tuple(word))
        return x._word

    def from_word(self, omega, word):
        y = omega
        for i in word:
            y = self.mul_gen(y, i)
        return y

    def omega_class(self, x):
        """Invariant of the Omega-coset x W_aff (class of lambda in X_*/Q^vee)."""
        fam = self.datum.family
        if fam == "GL":
            return sum(x.trans)
        if fam == "GSp":
            return x.trans[-1]
        return 0

    # -- Bruhat order -----------------------------------------------------

    def leq(self, x, y):
        """Bruhat order via the lifting recursion; False across Omega-cosets."""
        if x.group is not y.group:
            raise DatumMismatch("elements from different groups")
        if x is y:
            return True
        lx, ly = x.length(), y.length()
        if lx > ly or (lx == ly and x is not y):
            return False
        if self.omega_class(x) != self.omega_class(y):
            return False
        memo = self._leq
        stack = []
        cur = (x, y)
        while True:
            val = memo.get(cur)
            if val is None:
                cx, cy = cur
                if cx is cy:
                    val = True
                elif cx.length() >= cy.length():
                    val = False
                else:
                    i = self.first_right_descent(cy)
                    cys = self.mul_gen(cy, i)
                    cxs = self.mul_gen(cx, i)
                    nxt = (cxs, cys) if cxs.length() < cx.length() else (cx, cys)
                    if nxt in memo:
                        val = memo[nxt]
                    else:
                        stack.append(cur)
                        cur = nxt
                        continue
            memo[cur] = val
            if not stack:
                return val
            cur = stack.pop()

    def below(self, y):
        """All x <= y, sorted by (length, encoding); cached.

        Computed as the subword closure of the canonical reduced word:
        products of arbitrary subwords of a reduced word sweep out the
        full lower Bruhat interval.
        """
        got = self._below.get(y)
        if got is None:
            omega, word = self.reduced_word(y)
            close = {omega}
            for i in word:
                close |= {self.mul_gen(z, i) for z in close}
            got = tuple(sorted(close, key=self.sort_key))
            self._below[y] = got
        return got

    def sort_key(self, x):
        return (x.length(), self.encode(x))

    # -- admissible sets -----------------------------------------------------

    def adm(self, mu):
        """Adm(mu) = {x : x <= t_lambda, lambda in W mu}, sorted; mu dominant."""
        mu = self.datum.require_dominant(mu)
        got = self._adm.get(mu)
        if got is None:
            seen = set()
            for lam in self.datum.weyl_orbit(mu):
                seen.update(self.below(self.translation(lam)))
            got = tuple(sorted(seen, key=self.sort_key))
            self._adm[mu] = got
        return got

    def is_minimal_coset(self, x):
        """True iff x is shortest in x*W, i.e. has no finite right descent."""
        return all(i == 0 for i in self.right_descents(x))

    # -- encoding -----------------------------------------------------------

    def encode(self, x):
        """Canonical text form "t[coords]*w[word]" with a finite reduced word."""
        if x._enc is not None:
            return x._enc
        fin_word = []
        ident = self.datum.identity
        y = self.finite(x.fin)
        while y.fin != ident:
            ds = self.right_descents(y)
            i = next(d for d in ds if d != 0)
            fin_word.append(i)
            y = self.mul_gen(y, i)
        fin_word.reverse()
        lam = ",".join(str(c) for c in x.trans)
        word = ".".join(f"s{i}" for i in fin_word)
        x._enc = f"t[{lam}]*w[{word}]"
        return x._enc

    def decode(self, text):
        text = text.strip()
        if not (text.startswith("t[") and "]*w[" in text and text.endswith("]")):
            raise ValueError(f"bad element encoding {text!r}")
        lam_part, word_part = text[2:-1].split("]*w[")
        lam = tuple(int(c) for c in lam_part.split(",") if c != "")
        if len(lam) != self.datum.dim:
            raise DimensionMismatch(
                f"expected {self.datum.dim} coordinates in {text!r}"
            )
        y = self.translation(lam)
        if word_part:
            for letter in word_part.split("."):
                if not letter.startswith("s"):
                    raise ValueError(f"bad generator {letter!r} in {text!r}")
                i = int(letter[1:])
                if not 1 <= i < self.n_gens:
                    raise ValueError(f"finite generator out of range in {text!r}")
                y = self.mul_gen(y, i)
        return y


_GROUPS = {}


def group(datum):
    """The shared AffineWeylGroup attached to a datum."""
    g = _GROUPS.get(id(datum))
    if g is None:
        g = AffineWeylGroup(datum)
        _GROUPS[id(datum)] = g
    return g
