"""Oracles from outside the package: sympy re-derives moduli and centralizers.

Every other oracle in tests/ was written alongside the package; these share no
code with it.  sympy is a test dependency only and stays out of src/.
"""

import itertools
import random

from sympy import factorint, nextprime
from sympy.combinatorics import Permutation, PermutationGroup, SymmetricGroup
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_irreducible_p
from test_fields import _SWEEP_LITERALS

from delpezzo import fields
from delpezzo.classify import aut_table
from delpezzo.perms import class_representative


def _irreducible(modulus, p):
    """sympy's verdict on a coefficient tuple, constant term first."""
    return gf_irreducible_p(list(reversed(modulus)), p, ZZ)


def _first_irreducible(p, m):
    """The monic irreducible of degree m over F_p with the smallest index
    sum(c_i * p^i) over its non-leading coefficients, constant term first."""
    for index in itertools.count():
        coeffs = tuple(index // p ** i % p for i in range(m)) + (1,)
        if _irreducible(coeffs, p):
            return coeffs


def test_every_sweep_modulus_is_the_first_irreducible_in_index_order():
    pairs = set()
    for literal in _SWEEP_LITERALS:
        p, _, e = literal.partition("^")
        pairs.update((int(p), int(e or 1) * n) for n in range(1, 7))
    assert len(pairs) == 113
    for p, m in sorted(pairs):
        assert fields._modulus(p, m) == _first_irreducible(p, m), (p, m)


def test_ceiling_moduli_are_irreducible():
    for p, m in [(2, 240), (3, 150), (65521, 12), (8191, 12), (65519, 6)]:
        modulus = fields._modulus(p, m)
        assert len(modulus) == m + 1 and modulus[-1] == 1, (p, m)
        assert _irreducible(modulus, p), (p, m)


def test_each_automorphism_group_is_the_centralizer_in_s5():
    rows = aut_table()
    assert len(rows) == 19
    s5 = SymmetricGroup(5)
    for row in rows:
        rep = class_representative(row.label, 5)
        gens = [Permutation(list(g.images)) for g in rep.generators] or [Permutation(4)]
        centralizer = s5.centralizer(PermutationGroup(gens))
        assert centralizer.order() == row.aut_group.order, row.label.name
        assert {tuple(g.array_form) for g in centralizer.elements} == \
            {g.images for g in row.aut_group}, row.label.name


def _sympy_prime_power(q):
    factors = factorint(q)
    return next(iter(factors.items())) if len(factors) == 1 else None


def test_prime_power_matches_sympy_up_to_the_base_field_ceiling():
    # a seeded sample up to 2^40 of each kind the test separates: any q, primes,
    # prime squares and cubes, products of two primes above the cube root and
    # squares of composites; then Carmichael numbers and the least strong
    # pseudoprimes to the bases 2..7 (3.2 * 10^9) and 2..11 (2.2 * 10^12, past
    # the ceiling but below the bound the test is exact to), which only the
    # later bases of Miller-Rabin catch
    rng = random.Random(2302)
    top = fields.MAX_BASE_FIELD
    primes = [q for q in (int(nextprime(rng.randrange(2, top))) for _ in range(300)) if q <= top]
    mid = [int(nextprime(rng.randrange(10 ** 4, 10 ** 6))) for _ in range(200)]
    sample = ([rng.randrange(2, top + 1) for _ in range(2000)] + primes
              + [p * p for p in mid] + [p ** 3 for p in mid if p ** 3 <= top]
              + [a * b for a, b in zip(mid, mid[1:]) if a * b <= top]
              + [(a * b) ** 2 for a, b in zip(mid, [3, 5, 7, 11] * 50) if (a * b) ** 2 <= top]
              + [561, 41041, 825265, 3215031751, 2152302898747, top, top - 87])
    for q in sample:
        assert fields._prime_power(q) == _sympy_prime_power(q), q
