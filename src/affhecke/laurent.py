"""Exact Laurent polynomials in the variable v, where v**2 = q.

All Hecke-algebra coefficients in this package live in Z[v, v^{-1}].
Working in v rather than q keeps half-integral q-powers integral:
q^{1/2} = v, so normalisations like q_x^{-1/2} T_x are plain shifts of
v-exponents.  Coefficients are Python ints; nothing ever overflows.

The element Q = q^{-1/2} - q^{1/2} = v^{-1} - v plays a special role:
`q_expansion` rewrites suitable Laurent polynomials as integer
polynomials in Q, which is how palindromicity properties are checked.
"""


class NotExpandable(ValueError):
    """No integer polynomial in Q represents the requested element."""


class ZeroEvaluationPoint(ZeroDivisionError):
    """Laurent polynomials cannot be evaluated at v = 0."""


class LaurentPoly:
    """An element of Z[v, v^{-1}], stored as {v-exponent: coefficient}.

    The dict never contains zero coefficients, so equality of dicts is
    equality in the ring.  Instances are immutable by convention: all
    operations return new objects, and instances may be shared freely
    between threads or processes.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        t = {}
        if terms:
            for e, c in terms.items():
                if c:
                    t[int(e)] = c
        self.terms = t

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls):
        return _ZERO

    @classmethod
    def one(cls):
        return _ONE

    @classmethod
    def v_power(cls, e, coeff=1):
        """coeff * v^e."""
        return cls({e: coeff})

    @classmethod
    def q_power(cls, k, coeff=1):
        """coeff * q^k  (= coeff * v^{2k})."""
        return cls({2 * k: coeff})

    @classmethod
    def from_q_coeffs(cls, coeffs):
        """Polynomial in q with the given list of coefficients, degree 0 up."""
        return cls({2 * i: c for i, c in enumerate(coeffs)})

    # -- ring structure ----------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

    def __add__(self, other):
        t = dict(self.terms)
        for e, c in other.terms.items():
            n = t.get(e, 0) + c
            if n:
                t[e] = n
            else:
                t.pop(e, None)
        out = LaurentPoly.__new__(LaurentPoly)
        out.terms = t
        return out

    def __sub__(self, other):
        t = dict(self.terms)
        for e, c in other.terms.items():
            n = t.get(e, 0) - c
            if n:
                t[e] = n
            else:
                t.pop(e, None)
        out = LaurentPoly.__new__(LaurentPoly)
        out.terms = t
        return out

    def __neg__(self):
        out = LaurentPoly.__new__(LaurentPoly)
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        t = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                n = t.get(e, 0) + c1 * c2
                if n:
                    t[e] = n
                else:
                    del t[e]
        out = LaurentPoly.__new__(LaurentPoly)
        out.terms = t
        return out

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def scale(self, c):
        if c == 0:
            return _ZERO
        if c == 1:
            return self
        out = LaurentPoly.__new__(LaurentPoly)
        out.terms = {e: c * k for e, k in self.terms.items()}
        return out

    def shift(self, e):
        """Multiply by v^e."""
        if e == 0:
            return self
        out = LaurentPoly.__new__(LaurentPoly)
        out.terms = {k + e: c for k, c in self.terms.items()}
        return out

    # -- involutions and evaluation ----------------------------------

    def bar(self):
        """The involution v -> v^{-1} (equivalently q -> q^{-1})."""
        out = LaurentPoly.__new__(LaurentPoly)
        out.terms = {-e: c for e, c in self.terms.items()}
        return out

    def eval_at(self, at):
        """Exact evaluation at a nonzero rational v, or at the string "v=1".

        Returns an int for "v=1", otherwise a Fraction.
        """
        if at == "v=1":
            return sum(self.terms.values())
        from fractions import Fraction

        r = Fraction(at)
        if r == 0:
            raise ZeroEvaluationPoint("cannot evaluate at v = 0")
        return sum(Fraction(c) * r ** e for e, c in self.terms.items())

    # -- degree bookkeeping -------------------------------------------

    def is_q_polynomial(self):
        """True iff all v-exponents are even and nonnegative."""
        return all(e >= 0 and e % 2 == 0 for e in self.terms)

    def q_degree(self):
        """Largest k with q^k occurring; None for the zero polynomial."""
        if not self.terms:
            return None
        return max(self.terms) // 2

    def q_coeff(self, k):
        """Coefficient of q^k."""
        return self.terms.get(2 * k, 0)

    def q_coeffs(self, upto=None):
        """Coefficients [c_0, ..., c_d] of a polynomial in q."""
        if not self.terms:
            return [0] * ((upto + 1) if upto is not None else 1)
        d = max(self.terms) // 2 if upto is None else upto
        return [self.terms.get(2 * i, 0) for i in range(d + 1)]

    # -- Q-expansion ----------------------------------------------------

    def q_expansion(self):
        """Write self = sum_k r_k Q^k with Q = v^{-1} - v and r_k in Z.

        Returns {k: r_k}.  Raises NotExpandable when no integer expansion
        exists.  Q^k has parity-k v-exponents with extreme coefficients
        Q^k[v^{-k}] = 1 and Q^k[v^k] = (-1)^k, so the expansion is found
        by peeling the extreme exponents.
        """
        work = dict(self.terms)
        out = {}
        while work:
            d = max(abs(e) for e in work)
            if d == 0:
                out[0] = work[0]
                break
            lo = work.get(-d, 0)
            hi = work.get(d, 0)
            if hi != (-1) ** d * lo:
                raise NotExpandable(f"{self.encode()} is not a polynomial in Q")
            # subtract lo * Q^d
            for e, c in _q_power_terms(d).items():
                n = work.get(e, 0) - lo * c
                if n:
                    work[e] = n
                else:
                    work.pop(e, None)
            out[d] = lo
        return {k: c for k, c in out.items() if c}

    def q_expand(self, alpha):
        """Write self = q^alpha * R(Q) with R an integer polynomial in Q.

        `alpha` is a half-integer (int or Fraction with denominator 2).
        Requires every Q-power of R to have the parity of 2*alpha; this is
        automatic for elements of Z[q, q^{-1}] and is enforced otherwise.
        Returns {k: r_k}.
        """
        from fractions import Fraction

        two_alpha = Fraction(alpha) * 2
        if two_alpha.denominator != 1:
            raise NotExpandable("alpha must be a half-integer")
        shift = int(two_alpha)
        r = self.shift(-shift).q_expansion()
        for k in r:
            if (k - shift) % 2 != 0:
                raise NotExpandable(
                    f"Q-exponent {k} violates the parity of 2*alpha = {shift}"
                )
        return r

    @classmethod
    def from_q_expansion(cls, coeffs, alpha=0):
        """Inverse of q_expand: q^alpha * sum coeffs[k] Q^k."""
        from fractions import Fraction

        two_alpha = Fraction(alpha) * 2
        if two_alpha.denominator != 1:
            raise ValueError("alpha must be a half-integer")
        acc = _ZERO
        for k, c in coeffs.items():
            acc = acc + cls(_q_power_terms(k)).scale(c)
        return acc.shift(int(two_alpha))

    # -- canonical text encoding ---------------------------------------

    def encode(self):
        """Canonical text form: terms by ascending v-exponent.

        Example: 1 - 2q + q^2 encodes as "1*v^0+-2*v^2+1*v^4".  The zero
        polynomial encodes as "0".  Used for persisted caches, golden
        files and JSON payloads.
        """
        if not self.terms:
            return "0"
        return "+".join(f"{self.terms[e]}*v^{e}" for e in sorted(self.terms))

    @classmethod
    def decode(cls, text):
        """Inverse of encode; "0" and "1*v^0" give the shared zero and one."""
        text = text.strip()
        if text == "0":
            return _ZERO
        if text == "1*v^0":
            return _ONE
        terms = {}
        for piece in text.split("+"):
            coeff, _, exp = piece.partition("*v^")
            if not exp:
                raise ValueError(f"bad LaurentPoly encoding: {text!r}")
            terms[int(exp)] = int(coeff)
        return cls(terms)

    def __repr__(self):
        return f"LaurentPoly({self.encode()!r})"


_Q_POWERS = [{0: 1}, {-1: 1, 1: -1}]


def _q_power_terms(k):
    """Terms dict of Q^k, cached."""
    while len(_Q_POWERS) <= k:
        prev = _Q_POWERS[-1]
        nxt = {}
        for e, c in prev.items():
            nxt[e - 1] = nxt.get(e - 1, 0) + c
            nxt[e + 1] = nxt.get(e + 1, 0) - c
        _Q_POWERS.append(nxt)
    return _Q_POWERS[k]


_ZERO = LaurentPoly()
_ONE = LaurentPoly({0: 1})

#: q^{-1/2} - q^{1/2}, the parameter of the distinguished-subexpression
#: expansions.
Q_PARAM = LaurentPoly({-1: 1, 1: -1})
