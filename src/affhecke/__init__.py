"""Exact Iwahori-Hecke algebra combinatorics for extended affine Weyl groups.

Modules: laurent (Z[v, v^{-1}] with v^2 = q), rootdata (GL_n, GSp_2n,
G_2 root data and dual weight multiplicities), affweyl (the extended
affine Weyl group, Bruhat order, admissible sets), hecke (T-basis
arithmetic, R/P/Q polynomials, base change), central (Bernstein and
Kottwitz functions, property (P)), wakimoto (distinguished
subexpressions, minimal expressions), multiplicity (Jordan-Holder
tables), checks (the `check` suites), cli (command-line front end).

The package itself names only a datum's group and Hecke context:
parse_group("GL4"), group(datum) and context(datum).  Everything else is
imported from its module, so `import affhecke` loads rootdata, affweyl,
laurent and hecke and nothing more.
"""

from .affweyl import group
from .hecke import context
from .rootdata import parse_group

__all__ = ["context", "group", "parse_group"]
