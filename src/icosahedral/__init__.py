"""Exact verification of the icosahedral invariant theory, the quintic
correspondence, and the attached family of elliptic curves.

Subpackages are plain modules; import what you need:

- ``exact``: Z[sqrt5] on integer pairs, polynomials over Q, resultants
- ``icosa``: the invariants lambda, mu, j and the resolvent quintic
- ``quintic``: invariants delta, gamma4, gamma6, j-candidates, trinomials
- ``qcurve``: the curve family, isogeny checks, five-division identities
- ``localfield``: 5-adic valuations and the hypothesis tests
- ``repn``: the finite matrix representation over Z[eps, i]
- ``hecke``: characters of residue rings of Z[eps] and their identities
- ``cli``: the command-line front end; ``analyze`` and ``suites`` run its
  subcommands, and ``reports`` holds what they share
"""

__version__ = "0.1.0"
