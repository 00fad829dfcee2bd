"""Numbers of the form p + 2^k: covering systems, exceptional arithmetic
progressions, sieve verification for small moduli, and certified upper
bounds on the density of representable integers.

The modules are the API; import the one you need, as in
`from p2k import chenscan`.  `import p2k` alone loads none of them.

- `covering`: covering systems, minimality, CDL enumeration.
- `progressions`: derived progressions, exclusion certificates, census.
- `chenscan`: even-modulus verdicts, range scans, witnesses.
- `density`: certified density bounds (the only module that loads numpy).
- `modcore`: the arithmetic they share (orders of 2, factorization, the
  class-cover search).
- `cli`: the `p2k` command line.
- `catalog`: the published fixtures.
"""

__version__ = "0.1.0"
