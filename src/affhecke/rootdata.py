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

Each builder also records the family's conventions as data, so that no
module outside this one branches on the family (here only the builders,
`label`, `parse_coweight` and `parse_group` do):

fund_coweights    w_i^vee with <alpha_i, w_j^vee> = delta_ij: e_1+...+e_i
                  on GL_n; (1^j, 0; 0), j < n, and (1^n; 1) on GSp_2n;
                  (1,0) and (0,1) on G_2.
fund_weights      p_i with <p_i, alpha_j^vee> = delta_ij, which read
                  simple-coroot coordinates: prefix sums on GL_n and
                  GSp_2n; (2,3) and (1,2) on G_2.
omega_functional  spans the functionals vanishing on Q^vee, so it reads
                  the Omega-class in X_*/Q^vee = Z: (1,...,1) on GL_n,
                  (0,...,0,1) on GSp_2n; None on G_2, where X_* = Q^vee.

Weight multiplicities of the Langlands dual group are computed on this
lattice with coroots in the role of roots, via the Freudenthal
recursion with the W-invariant form sum_{alpha > 0} <alpha, u><alpha, v>
(Humphreys, Introduction to Lie Algebras, Sect. 22.3; the recursion does
not depend on the scale of the form, and this one kills the centre);
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


def mat_inv(m):
    """Exact inverse of a unimodular integer matrix.

    Fraction-free (Bareiss) Gauss-Jordan elimination on [m | 1]: after the
    step on column k every entry is a minor of order k + 1, so each
    division by the previous pivot is exact.  The pivots end at +-det(m)
    and the right half at +-det(m) m^{-1}.
    """
    n = len(m)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    prev = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            raise ValueError("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        top = a[col]
        p = top[col]
        for r in range(n):
            if r != col:
                row = a[r]
                f = row[col]
                a[r] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
    if prev not in (1, -1):
        raise ValueError("matrix is not unimodular")
    return tuple(tuple(prev * x for x in row[n:]) for row in a)


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
        self._wmult_cache = {}
        self._finite_weyl = None
        self.label = f"{family}{2 * rank if family == 'GSp' else rank}"
        if family == "G2":
            self.label = "G2"

    # construction ---------------------------------------------------

    def _build_gl(self, n):
        self.dim = n
        roots, coroots = [], []
        for i in range(n):
            for j in range(i + 1, n):
                f = tuple(
                    1 if k == i else (-1 if k == j else 0) for k in range(n)
                )
                roots.append(f)
                coroots.append(f)
        self.pos_roots = tuple(roots)
        self.pos_coroots = tuple(coroots)
        self.simple_idx = tuple(
            roots.index(
                tuple(1 if k == i else (-1 if k == i + 1 else 0) for k in range(n))
            )
            for i in range(n - 1)
        )
        self.theta_idx = roots.index(
            tuple(1 if k == 0 else (-1 if k == n - 1 else 0) for k in range(n))
        )
        self.fund_coweights = tuple(
            tuple(int(k <= i) for k in range(n)) for i in range(n - 1)
        )
        self.fund_weights = self.fund_coweights
        self.omega_functional = (1,) * n

    def _build_gsp(self, n):
        self.dim = n + 1
        roots, coroots = [], []
        def fvec(entries, c=0):
            v = [0] * (n + 1)
            for k, val in entries:
                v[k] = val
            v[n] = c
            return tuple(v)
        for i in range(n):
            for j in range(i + 1, n):
                roots.append(fvec([(i, 1), (j, -1)]))
                coroots.append(fvec([(i, 1), (j, -1)]))
        for i in range(n):
            for j in range(i + 1, n):
                roots.append(fvec([(i, 1), (j, 1)], -1))
                coroots.append(fvec([(i, 1), (j, 1)]))
        for i in range(n):
            roots.append(fvec([(i, 2)], -1))
            coroots.append(fvec([(i, 1)]))
        self.pos_roots = tuple(roots)
        self.pos_coroots = tuple(coroots)
        simple = [roots.index(fvec([(i, 1), (i + 1, -1)])) for i in range(n - 1)]
        simple.append(roots.index(fvec([(n - 1, 2)], -1)))
        self.simple_idx = tuple(simple)
        self.theta_idx = roots.index(fvec([(0, 2)], -1))
        # (1^j, 0; 0) for j = 1..n; the last fundamental coweight is (1^n; 1)
        prefixes = tuple(fvec([(k, 1) for k in range(j)]) for j in range(1, n + 1))
        self.fund_coweights = prefixes[:-1] + (fvec([(k, 1) for k in range(n)], 1),)
        self.fund_weights = prefixes
        self.omega_functional = fvec([], 1)

    def _build_g2(self):
        self.dim = 2
        # functionals and coroots in fundamental-coweight coordinates;
        # alpha_1 is the long simple root, alpha_2 the short one
        self.pos_roots = (
            (1, 0),   # alpha_1            (long)
            (0, 1),   # alpha_2            (short)
            (1, 1),   # alpha_1 + alpha_2  (short)
            (1, 2),   # alpha_1 + 2 alpha_2 (short)
            (2, 3),   # 2 alpha_1 + 3 alpha_2 (long, highest)
            (1, 3),   # alpha_1 + 3 alpha_2 (long)
        )
        self.pos_coroots = (
            (2, -1),
            (-3, 2),
            (3, -1),
            (0, 1),
            (1, 0),
            (-1, 1),
        )
        self.simple_idx = (0, 1)
        self.theta_idx = 4
        self.fund_coweights = ((1, 0), (0, 1))
        self.fund_weights = ((2, 3), (1, 2))
        self.omega_functional = None  # X_* = Q^vee: Omega is trivial

    def reflection(self, root, coroot):
        """Matrix of v -> v - <root, v> coroot on coweight coordinates."""
        n = self.dim
        return tuple(
            tuple((1 if r == k else 0) - coroot[r] * root[k] for k in range(n))
            for r in range(n)
        )

    # basic structure -------------------------------------------------

    def simple_roots(self):
        return tuple(self.pos_roots[i] for i in self.simple_idx)

    def simple_coroots(self):
        return tuple(self.pos_coroots[i] for i in self.simple_idx)

    def cartan_matrix(self):
        """Entries <alpha_i, alpha_j^vee>."""
        return tuple(
            tuple(dot(self.pos_roots[i], self.pos_coroots[j])
                  for j in self.simple_idx)
            for i in self.simple_idx
        )

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
        a = dot(self.pos_roots[self.simple_idx[i]], v)
        if a == 0:
            return v
        return vec_sub(v, vec_scale(self.pos_coroots[self.simple_idx[i]], a))

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
        seen = {v}
        frontier = [v]
        while frontier:
            nxt = []
            for u in frontier:
                for i in range(self.n_gens):
                    w = self.reflect_simple(i, u)
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        return tuple(sorted(seen))

    def simple_coroot_coords(self, v):
        """Coordinates of v in the simple-coroot basis, or None.

        Returns a tuple of integers when v is an integer combination of
        simple coroots (necessarily unique), that is when its Omega-class
        is 0, else None.  The coordinates are <p_i, v>.
        """
        if self.omega_class(v):
            return None
        return tuple(dot(f, v) for f in self.fund_weights)

    def dominance_leq(self, lam, mu):
        """True iff mu - lam is a nonnegative integer sum of positive coroots."""
        lam = self.check_coweight(lam)
        mu = self.check_coweight(mu)
        coords = self.simple_coroot_coords(vec_sub(mu, lam))
        return coords is not None and all(c >= 0 for c in coords)

    def dominant_below(self, mu):
        """All dominant lam <= mu in dominance order, mu included, sorted."""
        mu = self.require_dominant(mu)
        simples = self.simple_coroots()
        seen = {mu}
        frontier = [mu]
        found = [mu]
        while frontier:
            nxt = []
            for v in frontier:
                for g in simples:
                    u = vec_sub(v, g)
                    if u in seen:
                        continue
                    # keep u only if it is still a weight under mu
                    if not self.dominance_leq(self.dominant_rep(u), mu):
                        continue
                    seen.add(u)
                    nxt.append(u)
                    if self.is_dominant(u):
                        found.append(u)
            frontier = nxt
        return tuple(sorted(found))

    # invariant form and Freudenthal weight multiplicities ---------------

    def invariant_form(self, u, v):
        """sum_{alpha > 0} <alpha, u><alpha, v>: symmetric, W-invariant
        (W permutes the roots up to sign) and zero on the centre."""
        return sum(dot(f, u) * dot(f, v) for f in self.pos_roots)

    def _shifted(self, v):
        """2v + 2rho^vee: twice v + rho^vee, kept integral."""
        return vec_add(vec_scale(v, 2), self.two_rho_coroot)

    def _height_from(self, mu, lam):
        coords = self.simple_coroot_coords(vec_sub(mu, lam))
        return sum(coords)

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
        """{dominant lam <= mu: multiplicity} for a dominant mu, cached per
        mu; its keys are dominant_below(mu)."""
        if mu in self._wmult_cache:
            return self._wmult_cache[mu]
        doms = sorted(self.dominant_below(mu), key=lambda l: self._height_from(mu, l))
        ip = self.invariant_form
        mu_rho = self._shifted(mu)
        norm_mu = ip(mu_rho, mu_rho)
        table = {doms[0]: 1}
        assert doms[0] == mu
        for lam in doms[1:]:
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
            lam_rho = self._shifted(lam)
            num, den = 8 * total, norm_mu - ip(lam_rho, lam_rho)
            val, rem = divmod(num, den)
            if rem or val < 0:
                raise ArithmeticError(
                    f"Freudenthal produced non-integral multiplicity {num}/{den}"
                )
            table[lam] = val
        self._wmult_cache[mu] = table
        return table

    def weyl_dim(self, mu):
        """Dimension of the dual-group irreducible with highest weight mu."""
        mu = self.require_dominant(mu)
        num = den = 1
        ip = self.invariant_form
        mu_rho = self._shifted(mu)
        for g in self.pos_coroots:
            num *= ip(mu_rho, g)
            den *= ip(self.two_rho_coroot, g)
        d, r = divmod(num, den)
        if r:
            raise ArithmeticError(f"Weyl dimension {num}/{den} is not an integer")
        return d

    # brute-force character oracle ---------------------------------------

    def finite_weyl(self):
        """All (matrix, sign) pairs of the finite Weyl group, cached."""
        if self._finite_weyl is None:
            seen = {self.identity: 1}
            frontier = [self.identity]
            while frontier:
                nxt = []
                for m in frontier:
                    for s in self.simple_reflections:
                        p = mat_mul(m, s)
                        if p not in seen:
                            seen[p] = -seen[m]
                            nxt.append(p)
                frontier = nxt
            self._finite_weyl = tuple(sorted(seen.items()))
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
        parts = [int(x) for x in str(text).replace(" ", "").split(",") if x != ""]
        fam = self.family
        if fam == "GL":
            if len(parts) != self.rank:
                raise DimensionMismatch(
                    f"GL{self.rank} coweight needs {self.rank} coordinates"
                )
            return tuple(parts)
        if fam == "GSp":
            n = self.rank
            if len(parts) == 2 * n:
                sums = {parts[i] + parts[2 * n - 1 - i] for i in range(n)}
                if len(sums) != 1:
                    raise DimensionMismatch(
                        "GSp coweight needs constant cross sums a_i + a_{2n+1-i}"
                    )
                c = sums.pop()
                return tuple(parts[:n]) + (c,)
            raise DimensionMismatch(
                f"GSp_{2*n} coweight needs {2*n} coordinates"
            )
        # G2
        if len(parts) == 2:
            return tuple(parts)
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
        return ",".join(str(x) for x in v)

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
            try:
                n = int(label[len(fam):])
            except ValueError:
                raise UnsupportedFamilyRank(f"bad group label {label!r}")
            if fam == "GSp":
                if n % 2 != 0 or n < 4:
                    raise UnsupportedFamilyRank(
                        "GSp labels use the matrix size: GSp4, GSp6, ..."
                    )
                return create("GSp", n // 2)
            return create("GL", n)
    raise UnsupportedFamilyRank(f"unknown group label {label!r}")
