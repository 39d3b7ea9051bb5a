"""Programs the benchmark runs in a fresh interpreter, one per iteration.

    child.py [--spans FILE] cli ARG...        the affhecke command line
    child.py [--spans FILE] cli-warm ARG...   the same, then cache-use.json
    child.py [--spans FILE] kl-deep GROUP MU
    child.py weights GROUP MU                 untimed set-up of kl-deep

With ``--spans`` the public entry points of every affhecke layer are
wrapped (see spans.py) and the spans are written to FILE on exit.  The
untraced cold table and query workloads call ``python -m affhecke.cli``
directly and do not run this file at all.

``cli-warm`` runs the command line and then writes ``cache-use.json`` in
the working directory: the KL cache records loaded and the KL columns
solved, so that a warm run which ignores its cache is caught.

``kl-deep`` prints one JSON line: for each dominant lambda <= mu, the
Kazhdan-Lusztig polynomial P_{n_lambda, n_mu}, where n_lambda is the
longest element of the double coset W t_lambda W.  ``weights`` prints
the dominant lambda <= mu with their weight multiplicities m_mu(lambda),
which the checks compare against P(1).
"""

from __future__ import annotations

import json
import sys

import affhecke


def longest_in_double_coset(g, datum, lam):
    """n_lambda: the longest element u t_lambda v over finite u, v (it is unique)."""
    t = g.translation(lam)
    fins = [g.finite(m) for m, _sign in datum.finite_weyl()]
    return max((u * t * v for u in fins for v in fins), key=lambda x: x.length())


def kl_deep(group_label, mu_text):
    datum = affhecke.parse_group(group_label)
    mu = datum.parse_coweight(mu_text)
    hctx = affhecke.context(datum)
    g = hctx.group
    lams = datum.dominant_below(mu)
    n_mu = longest_in_double_coset(g, datum, mu)
    rows = []
    for lam in lams:
        n_lam = longest_in_double_coset(g, datum, lam)
        p = hctx.kl_poly(n_lam, n_mu)
        rows.append({"lambda": list(lam), "length": n_lam.length(), "P": p.encode()})
    print(json.dumps({"length_n_mu": n_mu.length(), "rows": rows}))
    return 0


def weights(group_label, mu_text):
    datum = affhecke.parse_group(group_label)
    mu = datum.parse_coweight(mu_text)
    rows = [
        {"lambda": list(lam), "m": datum.weight_multiplicity(mu, lam)}
        for lam in datum.dominant_below(mu)
    ]
    print(json.dumps({"rows": rows}))
    return 0


def cli_warm(args):
    from affhecke import cli, hecke

    loaded = []
    load_into = hecke.KLCache.load_into

    def counting_load_into(cache, hctx):
        n = load_into(cache, hctx)
        loaded.append(n)
        return n

    hecke.KLCache.load_into = counting_load_into
    code = cli.main(args)
    solved = sum(len(c._col_done) for c in hecke._CONTEXTS.values())
    with open("cache-use.json", "w", encoding="utf-8") as fh:
        json.dump({"records_loaded": sum(loaded), "columns_solved": solved}, fh)
    return code


def run(args):
    if args[0] == "cli":
        from affhecke import cli

        return cli.main(args[1:])
    if args[0] == "cli-warm":
        return cli_warm(args[1:])
    if args[0] == "kl-deep":
        return kl_deep(*args[1:])
    if args[0] == "weights":
        return weights(*args[1:])
    print(f"unknown child program {args[0]!r}", file=sys.stderr)
    return 2


def main(argv):
    if argv[:1] != ["--spans"]:
        return run(argv)
    import spans

    recorder = spans.Recorder()
    recorder.install()
    try:
        return run(argv[2:])
    finally:
        recorder.write(argv[1])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
