"""Based root data for GL_n, GSp_2n and G_2, on the coweight side.

Coordinates
-----------
GL_n    n >= 2; X_*(T) = Z^n.  Positive roots e_i - e_j (i < j), coroots the
        same.  GL_1 has no roots, hence no affine simple reflection s_0.
GSp_2n  X_*(T) = Z^{n+1}, a coweight (a_1, ..., a_n; c) standing for the
        cocharacter diag(t^{a_1},...,t^{a_n}, t^{c-a_n},...,t^{c-a_1});
        c is the similitude coordinate.  Type C_n roots: e_i - e_j,
        e_i + e_j - e_c (i < j) and 2 e_i - e_c, where e_c pairs out the
        similitude coordinate.  On the command line GSp coweights are
        written in the 2n-coordinate form "1,1,0,0".
G_2     X_*(T) = Z^2 in fundamental-coweight coordinates (a, b): the
        coweight a*w1 + b*w2, where w1, w2 are dual to the simple roots
        alpha_1 (long) and alpha_2 (short).  The 3-coordinate notation
        "(x,y,z)" with x+y+z divisible by 3 is also accepted: subtract
        the mean to land in the trace-zero lattice, then a = x - y and
        b = y - (x+y+z)/3.  Under this convention "(2,1,0)" is the
        fundamental coweight (1, 0).

Roots are stored as integer functional vectors f, pairing with a
coweight v as the dot product f . v.  Weyl group elements are integer
matrices acting on coweight coordinates.

The module holds the one search and the one reflection of the layer:
`reach` is the breadth-first search behind Phi = W.Delta, every Weyl
orbit, the dominant weights below mu and the listing of W; `reflect` is
w -> w - <f, w> v, behind the derived pairs, `reflect_simple` and the
matrix of `reflection`.

Each family gives only the four facts that define its based root datum,
so that no module outside this one branches on the family (here only the
builders, `label`, `parse_coweight` and `parse_group` do):

simple pairs      the simple roots alpha_i as functionals, each with its
                  simple coroot alpha_i^vee.
fund_coweights    w_i^vee with <alpha_i, w_j^vee> = delta_ij: e_1+...+e_i
                  on GL_n; (1^j, 0; 0), j < n, and (1^n; 1) on GSp_2n;
                  (1,0) and (0,1) on G_2.
omega_functional  spans the functionals vanishing on Q^vee, so it reads
                  the Omega-class in X_*/Q^vee = Z: (1,...,1) on GL_n,
                  (0,...,0,1) on GSp_2n; None on G_2, where X_* = Q^vee.

The rest is derived (`RootDatum._derive`): the (root, coroot) pairs are
the orbit of the simple pairs under the simple reflections, the positive
ones those whose coefficients <alpha, w_j^vee> on the simple roots are
>= 0, sorted by (height, root); theta, the highest root, is the last.

Weight multiplicities of the Langlands dual group are computed on this
lattice with coroots in the role of roots, via the Freudenthal
recursion with the W-invariant form sum_{alpha > 0} <alpha, u><alpha, v>
(Humphreys, Introduction to Lie Algebras, Sect. 22.3; the recursion does
not depend on the scale of the form, and this one kills the centre),
solving the dominant weights in decreasing norm of lam + rho^vee;
`weight_multiplicities_by_character` is an independent brute-force
cross-check that expands the Weyl character formula.
"""

from operator import add, mul, sub


class UnsupportedFamilyRank(ValueError):
    """The requested (family, rank) pair is not available."""


class DimensionMismatch(ValueError):
    """A vector has the wrong length for the datum's coordinate lattice."""


class NotDominant(ValueError):
    """A dominant coweight was required."""


# -- small exact linear algebra on tuples -------------------------------


def dot(f, v):
    return sum(map(mul, f, v))


def vec_add(u, v):
    return tuple(map(add, u, v))


def vec_sub(u, v):
    return tuple(map(sub, u, v))


def vec_scale(u, c):
    return tuple(c * a for a in u)


def mat_vec(m, v):
    return tuple(dot(row, v) for row in m)


def vec_mat(f, m):
    """Row vector times matrix: the functional f composed with m."""
    n = len(m[0])
    return tuple(sum(f[r] * m[r][k] for r in range(len(m))) for k in range(n))


def mat_mul(a, b):
    cols = list(zip(*b))
    return tuple([tuple([sum(map(mul, row, col)) for col in cols]) for row in a])


def identity_matrix(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def reflect(f, v, w):
    """w - <f, w> v, and w itself when <f, w> = 0: the reflection of w by
    the root f with coroot v."""
    a = dot(f, w)
    return w if a == 0 else vec_sub(w, vec_scale(v, a))


def reach(starts, step):
    """{node: depth} over every node that step reaches from starts, step(u)
    giving the nodes one step from u: one breadth-first search, so depth
    is the least number of steps."""
    depth = dict.fromkeys(starts, 0)
    frontier = list(depth)
    for u in frontier:
        for w in step(u):
            if w not in depth:
                depth[w] = depth[u] + 1
                frontier.append(w)
    return depth


def parse_ints(text, where=None):
    """The integers of a comma-separated list.  Each entry is -?[0-9]+ in
    ASCII: no blank, no other sign and no empty entry; a bad one raises
    ValueError naming it and `where` (else text)."""
    parts = text.split(",")
    for c in parts:
        if not (c.isascii() and (c.isdigit() or c[:1] == "-" and c[1:].isdigit())):
            raise ValueError(f"bad coordinate {c!r} in {where or text!r}")
    return tuple(map(int, parts))


# -- the datum -----------------------------------------------------------


class RootDatum:
    """Immutable based root datum; create through `create`."""

    def __init__(self, family, rank):
        self.family = family
        self.rank = rank
        if family == "GL":
            if rank < 2:
                raise UnsupportedFamilyRank("GL requires n >= 2 (GL_1 has no roots)")
            self._build_gl(rank)
        elif family == "GSp":
            if rank < 2:
                raise UnsupportedFamilyRank("GSp requires n >= 2 (GSp_2n)")
            self._build_gsp(rank)
        elif family == "G2":
            if rank != 2:
                raise UnsupportedFamilyRank("G2 has rank 2")
            self._build_g2()
        else:
            raise UnsupportedFamilyRank(f"unknown family {family!r}")
        self.pos_root_set = frozenset(self.pos_roots)
        self.n_pos = len(self.pos_roots)
        self.identity = identity_matrix(self.dim)
        self.simple_reflections = tuple(
            self.reflection(self.pos_roots[i], self.pos_coroots[i])
            for i in self.simple_idx
        )
        self.n_gens = len(self.simple_idx)
        # 2*rho^vee = sum of positive coroots, as a coweight vector
        two_rho_covee = (0,) * self.dim
        for g in self.pos_coroots:
            two_rho_covee = vec_add(two_rho_covee, g)
        self.two_rho_coroot = two_rho_covee
        self._finite_weyl = None
        self.label = f"{family}{2 * rank if family == 'GSp' else rank}"
        if family == "G2":
            self.label = "G2"

    # construction ---------------------------------------------------

    def _derive(self, simple, fund_coweights, omega_functional):
        """Set the datum from its simple (root, coroot) pairs, fundamental
        coweights and Omega functional.

        The pairs are the orbit of the simple ones under the simple
        reflections s_a f = f - <f, b> a, s_a g = g - <a, g> b (Phi = W.Delta,
        Humphreys, Introduction to Lie Algebras, Sect. 10.3).  A root pairs
        with the fundamental coweights to its coefficients on the simple
        roots, so it is positive when they are all >= 0.  The positive
        pairs are sorted by (height, root), and theta is the last one."""
        pairs = reach(
            simple, lambda p: ((reflect(b, a, p[0]), reflect(a, b, p[1])) for a, b in simple)
        )
        coeffs = {p: [dot(p[0], w) for w in fund_coweights] for p in pairs}
        pos = sorted((sum(c), p) for p, c in coeffs.items() if min(c) >= 0)
        self.pos_roots, self.pos_coroots = map(tuple, zip(*(p for _h, p in pos)))
        self.simple_idx = tuple(self.pos_roots.index(a) for a, _b in simple)
        self.theta_idx = len(pos) - 1
        self.fund_coweights = tuple(fund_coweights)
        self.omega_functional = omega_functional

    def _build_gl(self, n):
        self.dim = n
        e = identity_matrix(n)
        simple = [(vec_sub(e[i], e[i + 1]),) * 2 for i in range(n - 1)]
        prefixes = [tuple(int(k <= i) for k in range(n)) for i in range(n - 1)]
        self._derive(simple, prefixes, (1,) * n)

    def _build_gsp(self, n):
        # e[n] pairs out the similitude coordinate c
        self.dim = n + 1
        e = identity_matrix(n + 1)
        simple = [(vec_sub(e[i], e[i + 1]),) * 2 for i in range(n - 1)]
        simple.append((vec_sub(vec_scale(e[n - 1], 2), e[n]), e[n - 1]))
        # (1^j, 0; 0) for j < n, and (1^n; 1)
        prefixes = [tuple(int(k < j) for k in range(n)) + (0,) for j in range(1, n)]
        self._derive(simple, prefixes + [(1,) * (n + 1)], e[n])

    def _build_g2(self):
        # fundamental-coweight coordinates; alpha_1 long, alpha_2 short, and
        # X_* = Q^vee, so Omega is trivial
        self.dim = 2
        self._derive((((1, 0), (2, -1)), ((0, 1), (-3, 2))), ((1, 0), (0, 1)), None)

    def reflection(self, root, coroot):
        """Matrix of v -> v - <root, v> coroot on coweight coordinates: the
        images of the unit vectors, as columns."""
        return tuple(zip(*(reflect(root, coroot, e) for e in identity_matrix(self.dim))))

    # basic structure -------------------------------------------------

    def simple_roots(self):
        return tuple(self.pos_roots[i] for i in self.simple_idx)

    def highest_root(self):
        return self.pos_roots[self.theta_idx]

    def highest_coroot(self):
        return self.pos_coroots[self.theta_idx]

    def check_coweight(self, v):
        """v as a tuple of ints; raises ValueError on a non-integer entry
        and DimensionMismatch on a wrong length."""
        w = tuple(int(x) for x in v)
        if w != tuple(v):
            raise ValueError(f"coweight {tuple(v)} has a non-integer entry")
        if len(w) != self.dim:
            raise DimensionMismatch(
                f"expected {self.dim} coordinates, got {len(w)}"
            )
        return w

    def omega_class(self, v):
        """The class of v in X_*/Q^vee, read by the Omega functional; 0
        when Omega is trivial."""
        f = self.omega_functional
        return 0 if f is None else dot(f, v)

    # dominance and orbits ---------------------------------------------

    def is_dominant(self, v):
        return all(dot(self.pos_roots[i], v) >= 0 for i in self.simple_idx)

    def require_dominant(self, v):
        v = self.check_coweight(v)
        if not self.is_dominant(v):
            raise NotDominant(f"{v} is not dominant for {self.label}")
        return v

    def reflect_simple(self, i, v):
        k = self.simple_idx[i]
        return reflect(self.pos_roots[k], self.pos_coroots[k], v)

    def dominant_rep(self, v):
        """The dominant element of the Weyl orbit of v."""
        v = tuple(v)
        while True:
            for i in range(self.n_gens):
                if dot(self.pos_roots[self.simple_idx[i]], v) < 0:
                    v = self.reflect_simple(i, v)
                    break
            else:
                return v

    def weyl_orbit(self, v):
        """The full W-orbit, as a sorted tuple of coweights."""
        v = self.check_coweight(v)
        orbit = reach([v], lambda u: (self.reflect_simple(i, u) for i in range(self.n_gens)))
        return tuple(sorted(orbit))

    def dominant_below(self, mu):
        """All dominant lam <= mu in dominance order, mu included, sorted.

        Walks down from mu by positive coroots through dominant coweights
        only: every dominant lam < mu is reached so (Stembridge, "The
        partial order of dominant weights", Adv. Math. 136, 1998)."""
        mu = self.require_dominant(mu)

        def down(v):
            return filter(self.is_dominant, (vec_sub(v, g) for g in self.pos_coroots))

        return tuple(sorted(reach([mu], down)))

    # invariant form and Freudenthal weight multiplicities ---------------

    def invariant_form(self, u, v):
        """sum_{alpha > 0} <alpha, u><alpha, v>: symmetric, W-invariant
        (W permutes the roots up to sign) and zero on the centre."""
        return sum(dot(f, u) * dot(f, v) for f in self.pos_roots)

    def _shifted(self, v):
        """2v + 2rho^vee: twice v + rho^vee, kept integral."""
        return vec_add(vec_scale(v, 2), self.two_rho_coroot)

    def weight_multiplicity(self, mu, lam):
        """Multiplicity of lam in the dual-group irreducible of highest weight mu.

        Both arguments must be dominant.  Computed by the Freudenthal
        recursion on the coweight lattice (coroots playing the role of
        roots); zero when lam is not below mu.
        """
        mu = self.require_dominant(mu)
        lam = self.require_dominant(lam)
        return self.weight_table(mu).get(lam, 0)

    def weight_table(self, mu):
        """{dominant lam <= mu: multiplicity} for a dominant mu; its keys
        are dominant_below(mu).

        The lam are solved in decreasing |lam + rho^vee|^2: for dominant
        lam < nu, (nu - lam, nu + lam + 2 rho^vee) > 0, so every weight a
        step reads is solved before it, and mu comes first."""
        ip = self.invariant_form
        norms = {}
        for lam in self.dominant_below(mu):
            v = self._shifted(lam)
            norms[lam] = ip(v, v)
        mu, *doms = sorted(norms, key=norms.get, reverse=True)
        table = {mu: 1}
        for lam in doms:
            total = 0
            for g in self.pos_coroots:
                k = 1
                while True:
                    nu = vec_add(lam, vec_scale(g, k))
                    m = table.get(self.dominant_rep(nu), 0)
                    if m == 0:
                        break
                    total += m * ip(nu, g)
                    k += 1
            # 2 total / (|mu + rho|^2 - |lam + rho|^2), the norms taken of
            # the doubled vectors, so four times as large
            num, den = 8 * total, norms[mu] - norms[lam]
            val, rem = divmod(num, den)
            if rem or val < 0:
                raise ArithmeticError(
                    f"Freudenthal produced non-integral multiplicity {num}/{den}"
                )
            table[lam] = val
        return table

    # brute-force character oracle ---------------------------------------

    def finite_weyl(self):
        """All (matrix, sign) pairs of the finite Weyl group, cached; the
        sign is (-1)^l(w), l(w) the depth at which reach meets w."""
        if self._finite_weyl is None:
            gens = self.simple_reflections
            depth = reach([self.identity], lambda m: (mat_mul(m, s) for s in gens))
            self._finite_weyl = tuple(sorted((m, (-1) ** k) for m, k in depth.items()))
        return self._finite_weyl

    def weight_multiplicities_by_character(self, mu):
        """Independent oracle: full weight multiplicities via Weyl's formula.

        Expands sum_w sign(w) x^{w(2mu+2rho)} / sum_w sign(w) x^{w(2rho)}
        by exact division in the group algebra of the doubled lattice.
        Only meant for small ranks; returns {dominant lam: multiplicity}.
        """
        mu = self.require_dominant(mu)
        two_rho = self.two_rho_coroot
        num = {}
        den = {}
        top = vec_add(vec_scale(mu, 2), two_rho)
        for m, sign in self.finite_weyl():
            key = mat_vec(m, top)
            num[key] = num.get(key, 0) + sign
            key = mat_vec(m, two_rho)
            den[key] = den.get(key, 0) + sign
        num = {k: c for k, c in num.items() if c}
        den = {k: c for k, c in den.items() if c}

        # order monomials by a dominant regular functional, then lex
        phi = (0,) * self.dim
        for f in self.pos_roots:
            phi = vec_add(phi, f)

        def keyfun(v):
            return (dot(phi, v), v)

        lead_den = max(den, key=keyfun)  # = 2 rho, coefficient 1
        assert den[lead_den] == 1 and lead_den == two_rho
        quo = {}
        rem = dict(num)
        while rem:
            lead = max(rem, key=keyfun)
            c = rem[lead]
            shift = vec_sub(lead, lead_den)
            quo[shift] = quo.get(shift, 0) + c
            for k, d in den.items():
                kk = vec_add(k, shift)
                n = rem.get(kk, 0) - c * d
                if n:
                    rem[kk] = n
                else:
                    rem.pop(kk, None)
        out = {}
        for k, c in quo.items():
            if any(x % 2 for x in k):
                raise ArithmeticError("character support off the doubled lattice")
            lam = tuple(x // 2 for x in k)
            if self.is_dominant(lam):
                if c <= 0:
                    raise ArithmeticError("negative weight multiplicity")
                out[lam] = c
        return out

    # parsing / formatting -------------------------------------------------

    def parse_coweight(self, text):
        """Parse CLI notation into internal coordinates.

        GL_n: n comma-separated integers.  GSp_2n: 2n integers with
        constant cross sums a_i + a_{2n+1-i}.  G_2: either two integers
        (fundamental-coweight coefficients) or three integers with sum
        divisible by 3 (subtract the mean, then a = x-y, b = y-mean).
        """
        parts = parse_ints(text)
        fam = self.family
        if fam == "GL":
            if len(parts) != self.rank:
                raise DimensionMismatch(
                    f"GL{self.rank} coweight needs {self.rank} coordinates"
                )
            return parts
        if fam == "GSp":
            n = self.rank
            if len(parts) == 2 * n:
                sums = {parts[i] + parts[2 * n - 1 - i] for i in range(n)}
                if len(sums) != 1:
                    raise DimensionMismatch(
                        "GSp coweight needs constant cross sums a_i + a_{2n+1-i}"
                    )
                c = sums.pop()
                return parts[:n] + (c,)
            raise DimensionMismatch(
                f"GSp_{2*n} coweight needs {2*n} coordinates"
            )
        # G2
        if len(parts) == 2:
            return parts
        if len(parts) == 3:
            s = sum(parts)
            if s % 3 != 0:
                raise DimensionMismatch(
                    "G2 3-coordinate notation needs coordinate sum divisible by 3"
                )
            x, y, _ = parts
            return (x - y, y - s // 3)
        raise DimensionMismatch("G2 coweight needs 2 or 3 coordinates")

    def format_coweight(self, v):
        """The CLI notation of v, which parse_coweight reads back: GSp_2n
        (a_1, ..., a_n; c) is written a_1, ..., a_n, c - a_n, ..., c - a_1."""
        if self.family == "GSp":
            *a, c = v
            v = a + [c - x for x in reversed(a)]
        return ",".join(map(str, v))

    def __repr__(self):
        return f"RootDatum({self.label})"


_DATA = {}


def create(family, rank):
    """Shared datum instance for (family, rank); GSp rank n means GSp_2n."""
    if not isinstance(rank, int):
        raise UnsupportedFamilyRank(f"rank must be an integer, got {rank!r}")
    key = (family, rank)
    if key not in _DATA:
        _DATA[key] = RootDatum(family, rank)
    return _DATA[key]


def parse_group(label):
    """Parse a CLI group label: "GL4", "GSp6", "G2"."""
    label = label.strip()
    if label == "G2":
        return create("G2", 2)
    for fam in ("GSp", "GL"):
        if label.startswith(fam):
            digits = label[len(fam):]
            if not (digits.isascii() and digits.isdigit()):
                raise UnsupportedFamilyRank(f"bad group label {label!r}")
            n = int(digits)
            if fam == "GSp":
                if n % 2 != 0 or n < 4:
                    raise UnsupportedFamilyRank(
                        "GSp labels use the matrix size: GSp4, GSp6, ..."
                    )
                return create("GSp", n // 2)
            return create("GL", n)
    raise UnsupportedFamilyRank(f"unknown group label {label!r}")
