#!/usr/bin/env python3
"""Regenerate tests/mersenne_table.py, the factorization oracle of the tests.

Factors 2^d - 1 for 2 <= d <= 80 with sympy, proves each factor prime,
checks the product reassembles, and emits the table as a Python literal.
Run from the repository root:

    python tools/gen_mersenne_table.py > tests/mersenne_table.py
"""

import sympy

MAX_D = 80

HEADER = '''"""Full factorizations of 2^d - 1 for 2 <= d <= %d: the test oracle for
modcore's factorizer.

Generated with sympy by tools/gen_mersenne_table.py, independently of p2k;
every listed factor was primality-checked and every product reassembles to
2^d - 1.
"""

# d -> tuple of (prime, exponent), primes ascending
MERSENNE_FACTORS = {
''' % MAX_D


def main():
    lines = [HEADER]
    for d in range(2, MAX_D + 1):
        n = 2**d - 1
        items = sorted(sympy.factorint(n).items())
        prod = 1
        for p, e in items:
            assert sympy.isprime(p), (d, p)
            prod *= p**e
        assert prod == n, d
        body = ", ".join("(%d, %d)" % (p, e) for p, e in items)
        lines.append("    %d: (%s,),\n" % (d, body))
    lines.append("}\n")
    print("".join(lines), end="")


if __name__ == "__main__":
    main()
