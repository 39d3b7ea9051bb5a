"""Jordan-Holder multiplicities of nearby cycles and the summary tables.

For dominant mu, the trace function f of the nearby cycles decomposes in
the self-dual basis as f = sum_{w in Adm(mu)} m(w) C''_w, and m(w) =
sum_i m(w,i) q^i collects the Jordan-Holder multiplicities of the
Tate-twisted intersection complexes IC_w(-i).  The coefficients come
from HeckeContext.to_ic_basis, the downward solve on length over the
lower-closed set Adm(mu).

Each table row also records the Bruhat configuration of w: how many
admissible elements of each length lie strictly above it.  Rows are
grouped by (length, multiplicity vector, configuration) the way the
tables are usually printed, sorted by length, then configuration, then
multiplicity vector.
"""

from collections import namedtuple

from .central import kottwitz_function
from .hecke import InvariantViolation, context
from .laurent import LaurentPoly
from .rootdata import dot


class NotInAdm(KeyError):
    """The element does not belong to the admissible set of the table."""


class NotMinuscule(ValueError):
    """The coweight is not minuscule."""


GroupedRow = namedtuple("GroupedRow", "length count mults config")


class MultiplicityTable:
    """Per-element multiplicity polynomials and Bruhat configurations."""

    def __init__(self, datum, mu, adm, ell_mu, m_polys, configs, trace):
        self.datum = datum
        self.mu = mu
        self.adm = adm
        self.ell_mu = ell_mu
        self.m_polys = m_polys      # element -> LaurentPoly in q
        self.configs = configs      # element -> tuple of counts
        self.trace = trace          # the Kottwitz function that was decomposed

    def require_member(self, w):
        if w not in self.m_polys:
            raise NotInAdm(f"{w.encode()} is not in Adm({self.mu})")

    def m_poly(self, w):
        self.require_member(w)
        return self.m_polys[w]

    def mult_vector(self, w):
        """m(w,i) for i = 0 .. l(t_mu) - l(w)."""
        self.require_member(w)
        return tuple(self.m_polys[w].q_coeffs(upto=self.ell_mu - w.length()))

    def bruhat_config(self, w):
        self.require_member(w)
        return self.configs[w]

    def summarize(self):
        """Grouped rows, one per (length, mults, config) class."""
        buckets = {}
        for w in self.adm:
            key = (w.length(), self.bruhat_config(w), self.mult_vector(w))
            buckets[key] = buckets.get(key, 0) + 1
        rows = [
            GroupedRow(length=k[0], count=c, mults=k[2], config=k[1])
            for k, c in sorted(buckets.items())
        ]
        return rows

    # -- property reports ----------------------------------------------------

    def property_report(self):
        """Empirical checks over the table, {check: True iff every element
        passes}: degree bound, palindromic-unimodal shape, unit endpoints,
        nonnegativity.  Informative, not enforced."""
        rows = []
        for w in self.adm:
            p = self.m_polys[w]
            dmax = self.ell_mu - w.length()
            coeffs = p.q_coeffs(upto=max(dmax, p.q_degree() or 0))
            in_range = (
                p.is_q_polynomial() and (p.q_degree() or 0) <= dmax
            )
            vec = coeffs[: dmax + 1]
            palindromic = vec == vec[::-1]
            half = (dmax + 1) // 2
            unimodal = all(vec[i] <= vec[i + 1] for i in range(half)) if dmax > 0 else True
            endpoints = vec[0] == 1 and vec[dmax] == 1
            nonneg = all(c >= 0 for c in coeffs)
            rows.append({
                "degree_bound": in_range,
                "palindromic": palindromic,
                "unimodal": unimodal,
                "unit_endpoints": endpoints,
                "nonnegative": nonneg,
            })
        return {key: all(row[key] for row in rows) for key in rows[0]}


def compute(datum, mu):
    """Multiplicity table of the nearby-cycles trace function at mu."""
    mu = datum.require_dominant(mu)
    hctx = context(datum)
    g = hctx.group
    adm = g.adm(mu)
    f = kottwitz_function(datum, mu)
    if set(f.terms) != set(adm):
        raise InvariantViolation(
            "kottwitz function support differs from the admissible set"
        )
    ell_mu = g.translation(mu).length()
    coeffs = hctx.to_ic_basis(f)
    m_polys = {w: coeffs.get(w, LaurentPoly.zero()) for w in adm}
    # Adm is lower-closed, so the KL columns of its elements, which
    # to_ic_basis has just solved, give every x > w; counts[w][k] is the
    # number of them with l(x) - l(w) = k <= l(t_mu) - l(w).  The last
    # count of a w shorter than t_mu is positive: the translations t_lambda,
    # lambda in W mu, all have length l(t_mu) and some lies above w
    counts = {w: [0] * (ell_mu - w.length() + 1) for w in adm}
    for x in adm:
        lx = x.length()
        for w in hctx._kl_column(x):
            counts[w][lx - w.length()] += 1
    configs = {w: tuple(c[1:]) for w, c in counts.items()}
    return MultiplicityTable(datum, mu, adm, ell_mu, m_polys, configs, f)


def epsilon_sums(table):
    """{x: sum_{w >= x, w in Adm} eps_w}, read off the Bruhat configurations:
    the k-th count c_k(x) of x's configuration counts the w > x in Adm with
    l(w) - l(x) = k, each with eps_w = (-1)^k eps_x, so the sum at x is
    eps_x (1 + sum_k (-1)^k c_k(x)).  No interval and no Bruhat test."""
    return {
        x: x.sign() * (1 + sum((-1) ** k * c for k, c in enumerate(table.configs[x], 1)))
        for x in table.adm
    }


def epsilon_sum_identity(table):
    """For minuscule mu: sum_{w >= x, w in Adm} eps_w = eps_mu for all x."""
    eps_mu = -1 if table.ell_mu % 2 else 1
    return all(s == eps_mu for s in epsilon_sums(table).values())


def is_minuscule(datum, mu):
    """Dominant mu is minuscule iff its weight set is the single orbit W mu."""
    mu = datum.require_dominant(mu)
    return datum.dominant_below(mu) == (mu,)


def minuscule_poincare(datum, mu):
    """sum_{w in (W/W_mu)_min} q^{l(w)}: the Poincare polynomial of the
    smooth homogeneous orbit closure attached to a minuscule mu.

    The shortest w with w mu = nu has length #{alpha > 0 : <alpha, nu> < 0},
    so the sum runs over the orbit W mu with no element of W.  Must match
    the multiplicity polynomial of the base element tau."""
    mu = datum.require_dominant(mu)
    if not is_minuscule(datum, mu):
        raise NotMinuscule(f"{mu} is not minuscule for {datum.label}")
    out = {}
    for nu in datum.weyl_orbit(mu):
        length = sum(dot(f, nu) < 0 for f in datum.pos_roots)
        out[2 * length] = out.get(2 * length, 0) + 1
    return LaurentPoly(out)


def base_change_consistency(table):
    """Re-expanding sum m(w) C''_w reproduces the decomposed trace function
    exactly."""
    return context(table.datum).from_ic_basis(table.m_polys) == table.trace


# -- rendering -----------------------------------------------------------------


def render_text(table):
    rows = table.summarize()
    lines = [f"Number of admissible alcoves: {len(table.adm)}", ""]
    lines.append("Length | #Alcoves | Multiplicities | Bruhat configuration")
    for r in rows:
        mults = ", ".join(str(c) for c in r.mults)
        config = ", ".join(str(c) for c in r.config) if r.config else "-"
        lines.append(f"l={r.length} | {r.count} | {mults} | {config}")
    return "\n".join(lines) + "\n"


def _element_rows(table):
    """The per-element fields of the CSV and JSON tables, one dict per
    element of Adm in order; the keys are the CSV columns."""
    return [
        {
            "element": w.encode(),
            "length": w.length(),
            "multiplicities": list(table.mult_vector(w)),
            "bruhat_configuration": list(table.bruhat_config(w)),
            "m_poly": table.m_polys[w].encode(),
        }
        for w in table.adm
    ]


def render_csv(table):
    import csv
    import io

    rows = _element_rows(table)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(rows[0].keys())
    for row in rows:
        writer.writerow(
            ",".join(map(str, v)) if isinstance(v, list) else v for v in row.values()
        )
    return buf.getvalue()


def render_json(table, run_config=None):
    import json

    payload = {
        "group": table.datum.label,
        "mu": table.datum.format_coweight(table.mu),
        "length_t_mu": table.ell_mu,
        "admissible_count": len(table.adm),
        "rows": _element_rows(table),
        "grouped": [
            {
                "length": r.length,
                "alcoves": r.count,
                "multiplicities": list(r.mults),
                "bruhat_configuration": list(r.config),
            }
            for r in table.summarize()
        ],
    }
    if run_config is not None:
        payload["run_config"] = run_config
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
