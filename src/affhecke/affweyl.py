"""The extended affine Weyl group W~ = X_*(T) x| W.

Elements are stored in the canonical form t_lambda * wbar with lambda a
coweight and wbar a finite Weyl element, so (lambda, wbar) is a unique
key.  Each group indexes its finite Weyl elements lazily by one key, the
permutation wbar makes of the 2 * n_pos roots: an element gets an
integer id the first time its permutation appears (perm[a] is the index
of f_a o wbar, so the product wbar_1 wbar_2 has perm_2[perm_1[a]] and
the inverse has the inverse permutation).  Products compose
permutations and look the result up, and an inverse looks up the
inverse permutation: no matrix is multiplied or inverted.  A word, too,
is made in one step from one the group holds: the canonical reduced
word of wbar, which strips the smallest finite right descent first
(Bjorner-Brenti, Sect. 3.4), is the word of wbar s_d followed by s_d,
for d the smallest descent, and one walk down that chain fills the
words of the ids it passes.  The matrix of wbar is the product
of the simple reflections of its word, built per id only when something
reads it: the translation part of an inverse or of a product whose
right factor has a translation, `fin`, a pickle or `element`.  Per-id
tables hold the root permutation, wbar(theta^vee) (the coroot of the
root wbar(theta)), the ascent data below and the text of the word, and
elements are interned on (lambda, id), so an element is the one object
with its (lambda, wbar): elements hash and compare by identity, at C
speed in dicts and sets.
Decoding a text composes the ids of its letters and interns only the
element it names.  Ids and hashes follow the order of first appearance
and the memory layout, so they differ between processes: pickles still
carry the matrix, never the id, and no output depends on them or on set
order.
The Coxeter structure is taken with respect to the dominant base
alcove {0 < <alpha, x> < 1 for all positive roots alpha}: the simple
affine reflections are the finite simple reflections s_1..s_r together
with s_0 = t_{theta^vee} s_theta for the highest root theta.  Lengths
come from the Iwahori-Matsumoto formula

    l(t_lambda wbar) = sum_{alpha > 0, wbar^{-1} alpha > 0} |<alpha, lambda>|
                     + sum_{alpha > 0, wbar^{-1} alpha < 0} |<alpha, lambda> - 1|,

so l(t_lambda) = <2 rho, lambda_dom> and each simple affine reflection
has length 1.  A length step needs one pairing instead (Bjorner-Brenti,
Sect. 4.4 and Ch. 8): write the affine simple root as alpha_i = b_i + c_i
with b_0 = -theta, c_0 = 1 and b_i = alpha_i, c_i = 0 for i >= 1.  For
x = t_lambda wbar and beta = b_i o wbar^{-1},

    l(x s_i) = l(x) + 1  iff  c_i - <beta, lambda> >= (0 if beta > 0 else 1),

and l(x s_i) = l(x) - 1 otherwise; right descents, the lengths that
x * s_i inherits from x and the side of its wall that the step from the
alcove of x to that of x s_i lands on (crossing_sign) are read off this
test.  Each product x * s_i is made once, on first lookup, in one table
{x: x s_i} per generator, which mul_gen and every walk along a word
read.  Elements of length zero
form the subgroup Omega that permutes the walls of the base alcove;
reduced words are written x = omega * s_{i_1} ... s_{i_k}.

The Bruhat order extends the Coxeter order coset-wise over Omega.  A
lower interval [e, y] is the subword closure of the canonical reduced
word of y (Bjorner-Brenti, Thm. 2.2.2), built along the word and stored
for y alone, only when leq or below asks about y.  The admissible set

    Adm(mu) = {x : x <= t_lambda for some lambda in W mu}

is the union of the subword closures of the translations in the orbit,
built one at a time and stored nowhere.
"""

from operator import add, mul

from .rootdata import (
    DimensionMismatch,
    dot,
    mat_vec,
    parse_ints,
    vec_scale,
)


def _inverse(perm):
    """The inverse of a permutation given as a tuple of images."""
    inv = [0] * len(perm)
    for a, p in enumerate(perm):
        inv[p] = a
    return tuple(inv)


class DatumMismatch(ValueError):
    """Operands belong to different root data."""


class InvariantViolation(AssertionError):
    """An internal exact identity failed; indicates a convention bug."""


class AffineWeylElement:
    """t_lambda * wbar; immutable, interned per group on (trans, _fi).

    `_fi` is the id of wbar in the group's finite Weyl index, keyed by
    its root permutation; `fin`, the matrix of wbar, is built for the id
    on first read.  `_len`, the length, is given when the element is
    made.  Interning makes equal elements the same object, so the default
    identity hash and equality are exact; ids are private to one process,
    so pickling carries the matrix.
    """

    __slots__ = ("group", "trans", "_fi", "_len", "_enc")

    def __init__(self, group, trans, fi, length):
        self.group = group
        self.trans = trans
        self._fi = fi
        self._len = length
        self._enc = None

    @property
    def fin(self):
        return self.group._matrix(self._fi)

    def __mul__(a, b):
        """t_lambda wbar * t_mu vbar = t_{lambda + wbar mu} * wbar vbar, the
        one implementation of the group law (AffineWeylGroup.mul runs it).

        The id of wbar vbar comes from the group's memo of finite products.
        A right factor with mu = 0 keeps lambda and reads no matrix; a left
        factor with lambda = 0 gives wbar mu with no add; otherwise the
        pairings of the rows of wbar with mu are taken here.  The product
        is interned: when one factor has length 0 a new element gets the
        length of the other, else its Iwahori-Matsumoto length."""
        g = a.group
        if g is not b.group:
            raise DatumMismatch("elements from different groups")
        i, j = a._fi, b._fi
        k = g._fprod.get((i, j))
        if k is None:
            k = g._fprod[i, j] = g._compose(g._perm[i], g._perm[j])
        lam, mu = a.trans, b.trans
        if any(mu):
            m = g._fmat[i] or g._matrix(i)
            if any(lam):
                lam = tuple([c + sum(map(mul, row, mu)) for c, row in zip(lam, m)])
            else:
                lam = tuple([sum(map(mul, row, mu)) for row in m])
        key = (lam, k)
        x = g._intern.get(key)
        if x is None:
            length = a._len if b._len == 0 else b._len if a._len == 0 else g._length(lam, k)
            x = g._intern[key] = AffineWeylElement(g, lam, k, length)
        return x

    def inv(self):
        return self.group.inv(self)

    def length(self):
        return self._len

    def sign(self):
        """epsilon_x = (-1)^{l(x)}."""
        return -1 if self.length() % 2 else 1

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


class _RightTable(dict):
    """{x: x s_i} for one generator s_i of the group g, each product made
    once, on first lookup, without building the generator element; the
    length of x s_i follows from that of x by the ascent test.  The only
    memo of x s_i: mul_gen reads it, and so do the walks of hecke.

    A lookup that misses runs in one frame: it reads the group's per-id
    lists, which only grow, through its own slots, and calls into the
    group only when the id of wbar s_i is not known yet."""

    __slots__ = ("g", "i", "asc", "rmul", "g0", "intern")

    def __init__(self, g, i):
        super().__init__()
        self.g = g
        self.i = i
        self.asc = g._asc
        self.rmul = g._rmul[i]
        self.g0 = g._g0
        self.intern = g._intern

    def __missing__(self, a):
        i, k, lam = self.i, a._fi, a.trans
        beta, bound = self.asc[k][i]
        length = a._len + 1 if sum(map(mul, beta, lam)) <= bound else a._len - 1
        j = self.rmul[k]
        if j is None:
            j = self.g._fin_right(k, i)
        if i == 0:
            lam = tuple(map(add, lam, self.g0[k]))
        key = (lam, j)
        y = self.intern.get(key)
        if y is None:
            y = self.intern[key] = AffineWeylElement(self.g, lam, j, length)
        self[a] = y
        return y


class AffineWeylGroup:
    """Group operations, lengths, words, Bruhat order, Adm enumeration."""

    def __init__(self, datum):
        self.datum = datum
        self._intern = {}
        self._intervals = {}
        d = datum
        # generator 0 is the affine reflection through <theta, x> = 1; its
        # finite part s_theta, like s_i, enters only as a root permutation
        fins = (d.reflection(d.highest_root(), d.highest_coroot()),) + d.simple_reflections
        self.n_gens = len(fins)
        # the roots: index a < n_pos is pos_roots[a], a + n_pos its negative
        n = d.n_pos
        self._roots = d.pos_roots + tuple(vec_scale(f, -1) for f in d.pos_roots)
        self._coroots = d.pos_coroots + tuple(vec_scale(f, -1) for f in d.pos_coroots)
        self._root_idx = {f: a for a, f in enumerate(self._roots)}
        # (index of b_i, c_i) for the affine simple roots alpha_i = b_i + c_i
        self._aff_simple = [(d.theta_idx + n, 1)] + [(a, 0) for a in d.simple_idx]
        self._gperm = [self._perm_of(s) for s in fins]
        # the finite Weyl index: id k stands for the root permutation
        # _perm[k]; every per-id list grows when an element is first seen,
        # and the matrices and products are filled in on their first lookup
        self._pidx = {}  # root permutation -> id
        self._perm = []
        self._fmat = []  # the matrix of wbar, or None until it is read
        self._g0 = []  # wbar(theta^vee), the translation part of wbar * s_0
        self._asc = []  # per generator (beta, bound): x s_i > x iff <beta, lambda> <= bound
        self._rmul = [[] for _ in range(self.n_gens)]  # id of wbar * s_i
        self._fprod = {}  # (id, id) -> id of the product
        self._fword = []  # the text "s1.s2..." of a reduced word of wbar, for encode
        self._right = [_RightTable(self, i) for i in range(self.n_gens)]  # {x: x s_i}
        self.identity = self._make((0,) * d.dim, self._register(tuple(range(2 * n))), 0)

    # -- the finite Weyl index ---------------------------------------------

    def _perm_of(self, m):
        """The root permutation of the finite Weyl matrix m: f o m has the
        entries <f, column> over the columns of m."""
        n = self.datum.n_pos
        idx = self._root_idx
        cols = tuple(zip(*m))
        half = tuple([idx[tuple([dot(f, c) for c in cols])] for f in self.datum.pos_roots])
        return half + tuple(p - n if p >= n else p + n for p in half)

    def _register(self, perm):
        """Give the finite Weyl element with root permutation perm the next id.

        wbar(theta^vee) is the coroot of the root wbar(theta), of index
        inv[theta_idx].  Every per-id value is computed and appended
        before the id is published in _pidx, so a failure leaves no id
        that the lookup finds but the lists lack."""
        n = self.datum.n_pos
        inv = _inverse(perm)
        g0 = self._coroots[inv[self.datum.theta_idx]]
        asc = tuple((self._roots[inv[b]], c - (inv[b] >= n)) for b, c in self._aff_simple)
        k = len(self._perm)
        self._perm.append(perm)
        self._fmat.append(None)
        self._g0.append(g0)
        self._asc.append(asc)
        self._fword.append(None)
        for row in self._rmul:
            row.append(None)
        self._pidx[perm] = k
        return k

    def _fid(self, perm):
        """The id of the root permutation perm, registered on first sight."""
        k = self._pidx.get(perm)
        return self._register(perm) if k is None else k

    def _compose(self, p, q):
        """The id of the product of the elements with root permutations p, q."""
        return self._fid(tuple([q[a] for a in p]))

    def _fin_right(self, k, i):
        """The id of wbar_k * s_i."""
        j = self._rmul[i][k]
        if j is None:
            j = self._rmul[i][k] = self._compose(self._perm[k], self._gperm[i])
        return j

    def _matrix(self, k):
        """The matrix of wbar_k, built on first read from the letters of
        its word (see _word and _word_matrix)."""
        m = self._fmat[k]
        if m is None:
            letters = [int(s[1:]) for s in reversed(self._word(k).split(".")) if s]
            m = self._fmat[k] = self._word_matrix(letters)
        return m

    def _word(self, k):
        """The text "s1.s2..." of the canonical reduced word of wbar_k: the
        word of wbar_k s_d followed by s_d, for d the smallest finite right
        descent of wbar_k, the first i >= 1 whose ascent bound is -1.  Walks
        that chain down to e or to the first id whose word is known, on an
        explicit stack, then fills the words of the ids it passed.  Every
        step shortens wbar, so a walk of more than n_pos steps, or an id
        other than e with no descent, raises InvariantViolation."""
        words, asc, n = self._fword, self._asc, self.datum.n_pos
        chain = []
        j = k
        while j and words[j] is None:
            row = asc[j]
            d = next((i for i in range(1, len(row)) if row[i][1] == -1), None)
            if d is None or len(chain) == n:
                raise InvariantViolation(f"the finite part {self._perm[k]} does not strip to e")
            chain.append((j, d))
            j = self._fin_right(j, d)
        word = words[j] or ""
        for j, d in reversed(chain):
            word = words[j] = f"{word}.s{d}" if word else f"s{d}"
        return word

    def _word_matrix(self, letters):
        """The matrix of s_{i_l} ... s_{i_1} for letters i_1, ..., i_l: the
        simple reflections of coweights applied to the unit vectors."""
        cols = self.datum.identity
        for i in letters:
            cols = [self.datum.reflect_simple(i - 1, v) for v in cols]
        return tuple(zip(*cols))

    # -- construction --------------------------------------------------

    def _make(self, trans, fi, length=None):
        """The interned t_trans * wbar_fi; a new element gets the given
        length, or its Iwahori-Matsumoto length when none is given."""
        key = (trans, fi)
        el = self._intern.get(key)
        if el is None:
            if length is None:
                length = self._length(trans, fi)
            el = self._intern[key] = AffineWeylElement(self, trans, fi, length)
        return el

    def element(self, trans, fin):
        """t_trans * fin; fin must be a matrix of the finite Weyl group.

        The id is looked up by the root permutation of fin and taken only
        if its matrix is fin.  A permutation not seen yet gets an id only
        if the letters that strip its finite descents reach e within
        l(wbar) steps and their simple reflections multiply to fin: no
        enumeration of W."""
        trans = self.datum.check_coweight(trans)
        try:
            perm = self._perm_of(fin)
        except (KeyError, IndexError, TypeError):  # fin does not permute the roots
            perm = None
        k = self._pidx.get(perm)
        if k is None and perm is not None:
            letters = self._descents(perm)
            m = None if letters is None else self._word_matrix(letters)
            if m == fin:
                k = self._register(perm)
                self._fmat[k] = m
        if k is None or self._matrix(k) != fin:
            raise ValueError(f"{fin!r} is not in the finite Weyl group of {self.datum.label}")
        return self._make(trans, k)

    def translation(self, lam):
        return self._make(self.datum.check_coweight(lam), 0)

    def finite(self, mat):
        return self.element((0,) * self.datum.dim, mat)

    def simple_reflection(self, i):
        return self.mul_gen(self.identity, i)

    # -- group law -------------------------------------------------------

    def mul(self, a, b):
        """a * b (see AffineWeylElement.__mul__)."""
        return a * b

    def mul_gen(self, a, i):
        """a * s_i, read from the table of s_i (see _RightTable)."""
        return self._right[i][a]

    def conj_gen(self, omega, i):
        """The j with omega s_i omega^{-1} = s_j, for omega of length zero.

        omega = t_lambda wbar permutes the walls of the base alcove: it
        sends alpha_i = b_i + c_i to beta + c_i - <beta, lambda> with
        beta = b_i o wbar^{-1}, which must be the affine simple root
        alpha_j; beta is the root that the permutation of wbar sends to b_i.
        """
        b, c = self._aff_simple[i]
        a = self._perm[omega._fi].index(b)
        image = (a, c - dot(self._roots[a], omega.trans))
        if image not in self._aff_simple:
            raise InvariantViolation(
                f"{omega.encode()} does not map the wall of s{i} to a wall"
            )
        return self._aff_simple.index(image)

    def inv(self, a):
        """t_{-wbar^{-1} lambda} wbar^{-1} for a = t_lambda wbar; wbar^{-1} has
        the inverse root permutation."""
        j = self._fid(_inverse(self._perm[a._fi]))
        return self._make(vec_scale(mat_vec(self._matrix(j), a.trans), -1), j, a._len)

    # -- length and descents -----------------------------------------------

    def _length(self, trans, fi):
        """Iwahori-Matsumoto; f o wbar < 0 (index >= n_pos) iff wbar^{-1} f < 0."""
        n = self.datum.n_pos
        total = 0
        for f, p in zip(self.datum.pos_roots, self._perm[fi]):
            c = dot(f, trans)
            if p >= n:
                c -= 1
            total += c if c >= 0 else -c
        return total

    def right_descents(self, x):
        """The i with l(x s_i) < l(x), one pairing each."""
        lam = x.trans
        return tuple(
            i for i, (beta, bound) in enumerate(self._asc[x._fi]) if dot(beta, lam) > bound
        )

    def crossing_sign(self, x, i):
        """+1 if the step from the alcove of x to that of x s_i crosses its
        wall towards the positive side of the wall's positive root, else -1.

        The alcove of x lies on the positive side of the affine root
        x(alpha_i), whose linear part is the ascent test's beta, and the
        step leaves that side: the sign is -1 exactly when beta > 0, that
        is when the test's bound is c_i and not c_i - 1."""
        return -1 if self._asc[x._fi][i][1] == self._aff_simple[i][1] else 1

    def first_right_descent(self, x):
        """The smallest right descent of x, or None: the ascent test up to
        the first generator that fails it."""
        lam = x.trans
        for i, (beta, bound) in enumerate(self._asc[x._fi]):
            if sum(map(mul, beta, lam)) > bound:
                return i
        return None

    def reduced_word(self, x):
        """Canonical factorisation x = omega * s_{i_1} ... s_{i_k}.

        Returns (omega, word) with omega of length zero and k = l(x).
        Deterministic: strips the smallest right descent at each step.
        """
        word = []
        y = x
        while (i := self.first_right_descent(y)) is not None:
            if len(word) == x.length():
                raise InvariantViolation(
                    f"{x.encode()} has a descent after {len(word)} = l(x) steps"
                )
            word.append(i)
            y = self.mul_gen(y, i)
        word.reverse()
        return y, tuple(word)

    def from_word(self, omega, word):
        y = omega
        for i in word:
            y = self.mul_gen(y, i)
        return y

    def omega_class(self, x):
        """Invariant of the Omega-coset x W_aff (class of lambda in X_*/Q^vee)."""
        return self.datum.omega_class(x.trans)

    # -- Bruhat order -----------------------------------------------------

    def _closure(self, y):
        """[e, y] as a set, built along the canonical word of y and kept
        nowhere: each prefix ys of the word is reduced, so [e, ys] =
        [e, y] u [e, y].s (Bjorner-Brenti, Thm. 2.2.2)."""
        z, word = self.reduced_word(y)
        got = {z}
        for i in word:
            nbr = self._right[i]
            got.update([nbr[x] for x in got])
        return got

    def _interval(self, y):
        """[e, y] as a frozenset, memoised for y alone: read by leq and below."""
        got = self._intervals.get(y)
        if got is None:
            got = self._intervals[y] = frozenset(self._closure(y))
        return got

    def leq(self, x, y):
        """Bruhat order: membership in [e, y]; False across Omega-cosets."""
        if x.group is not y.group:
            raise DatumMismatch("elements from different groups")
        if x is y:
            return True
        if x.length() >= y.length() or self.omega_class(x) != self.omega_class(y):
            return False
        return x in self._interval(y)

    def below(self, y):
        """The lower interval [e, y], sorted by (length, encoding)."""
        return tuple(sorted(self._interval(y), key=self.sort_key))

    def sort_key(self, x):
        return (x._len, x._enc or self.encode(x))

    # -- admissible sets -----------------------------------------------------

    def adm(self, mu):
        """Adm(mu) = {x : x <= t_lambda, lambda in W mu}, sorted; mu dominant."""
        mu = self.datum.require_dominant(mu)
        seen = set()
        for lam in self.datum.weyl_orbit(mu):
            seen.update(self._closure(self.translation(lam)))
        return tuple(sorted(seen, key=self.sort_key))

    # -- encoding -----------------------------------------------------------

    def encode(self, x):
        """Canonical text form "t[coords]*w[word]" with a finite reduced word."""
        if x._enc is None:
            word = self._fword[x._fi]
            if word is None:
                word = self._word(x._fi)
            x._enc = f"t[{','.join(map(str, x.trans))}]*w[{word}]"
        return x._enc

    def _descents(self, perm):
        """The letters i_1, ..., i_l that strip the smallest finite right
        descent of the root permutation perm until it is e, or None if no
        descent is left before e or e is not reached in l = l(wbar) steps,
        the number of positive roots perm makes negative.  Walks the
        inverse q = perm^{-1}: s_i is a descent iff q sends alpha_i to a
        negative root, and (wbar s_i)^{-1} = s_i wbar^{-1}.  Registers no
        id, so element() can test a permutation that is not in W; the ids
        of W take their words from _word."""
        n = self.datum.n_pos
        steps = sum(p >= n for p in perm[:n])
        q = _inverse(perm)
        e = self._perm[0]
        letters = []
        while q != e:
            i = next((i for i, a in enumerate(self.datum.simple_idx, 1) if q[a] >= n), None)
            if i is None or len(letters) == steps:
                return None
            letters.append(i)
            q = tuple([q[a] for a in self._gperm[i]])
        return letters

    def decode(self, text):
        """The element t_lambda * wbar encoded as "t[coords]*w[word]".

        Each coordinate is -?[0-9]+ in ASCII.  The word is any reduced word
        of wbar in the letters s1, s2, ..., canonical or not, so each letter
        s_i is a finite ascent of the product so far: wbar(alpha_i) > 0,
        which its ascent test reads as the bound c_i = 0.  The letters
        compose finite ids only; the one element made is the result, with
        its Iwahori-Matsumoto length."""
        text = text.strip()
        if not (
            text.isascii() and text.startswith("t[") and "]*w[" in text and text.endswith("]")
        ):
            raise ValueError(f"bad element encoding {text!r}")
        lam_part, word_part = text[2:-1].split("]*w[")
        coords = parse_ints(lam_part, text)
        if len(coords) != self.datum.dim:
            raise DimensionMismatch(
                f"expected {self.datum.dim} coordinates in {text!r}"
            )
        k = 0
        if word_part:
            for letter in word_part.split("."):
                if not (letter[:1] == "s" and letter[1:].isdigit()):
                    raise ValueError(f"bad generator {letter!r} in {text!r}")
                i = int(letter[1:])
                if not 1 <= i < self.n_gens:
                    raise ValueError(f"finite generator out of range in {text!r}")
                if self._asc[k][i][1]:
                    raise ValueError(f"the word of {text!r} is not reduced")
                k = self._fin_right(k, i)
        return self._make(coords, k)

_GROUPS = {}


def group(datum):
    """The shared AffineWeylGroup attached to a datum."""
    g = _GROUPS.get(id(datum))
    if g is None:
        g = AffineWeylGroup(datum)
        _GROUPS[id(datum)] = g
    return g
